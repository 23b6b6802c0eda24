"""Divisor-counting and divisor-sum functions restricted to S-divisors.

    tau_S(n)   = number of divisors d | n with gcd(d, n/d) in S
    sigma_S(n) = sum of those divisors
    phi_S(n)   = #{ 1 <= j <= n : gcd(j, n) in S }

Each has a direct definition and identity routes through the square-divisor
expansion: with mu_S the set Moebius companion and tau*, sigma* the unitary
(S = {1}) variants,

    tau_S(n)   = sum_{d^2 | n} mu_S(d) tau(n/d^2)  = sum_{d^2 | n} rho_S(d) tau*(n/d^2)
    sigma_S(n) = sum_{d^2 | n} mu_S(d) d sigma(n/d^2)
               = sum_{d^2 | n} rho_S(d) d sigma*(n/d^2)
    phi_S      = mu_S * E = rho_S * phi   (ordinary Dirichlet products)

and for completely multiplicative f, g:

    (f *_S g)(n) = sum_{d^2 | n} mu_S(d) f(d) g(d) (f * g)(n/d^2)
                 = sum_{d^2 | n} rho_S(d) f(d) g(d) (f x g)(n/d^2)

with * the Dirichlet and x the unitary product. Table builders use the
square-divisor sieves and self-check against direct enumeration.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .arith import (
    _phi_pp,
    _sigma_pp,
    _sigma_star_pp,
    _tau_pp,
    _tau_star_pp,
    dirichlet_sweep,
    divisors,
    eval_multiplicative,
    guard_int64,
    multiplicative_table,
)
from .convolve import ArithFunc, s_convolve_at, s_divisors
from .errors import ConsistencyError
from .sets import SSet, rho, rho_table
from .mobius import mu_set_at, mu_set_table

SELF_CHECK_SEED = 8191
SELF_CHECK_COUNT = 32
PHI_DIRECT_CAP = 10**6  # beyond this, only the convolution forms


# ---------------------------------------------------------------------------
# pointwise

def tau_S_at(S: SSet, n: int) -> int:
    """Count of S-divisors of n, by direct enumeration."""
    return len(s_divisors(S, n))


def sigma_S_at(S: SSet, n: int) -> int:
    """Sum of S-divisors of n, by direct enumeration."""
    return sum(s_divisors(S, n))


def sigma_S_prime_power(S: SSet, p: int, e: int) -> int:
    """sigma_S(p^e) from the exponent rule (gcd of p^b, p^(e-b) is p^min)."""
    if S.mult is None:
        return sigma_S_at(S, p ** e)
    total = 0
    pb = 1
    for b in range(e + 1):
        if S.mult.rho_prime_power(p, min(b, e - b)):
            total += pb
        pb *= p
    return total


def _square_divisors(n: int) -> list[int]:
    """All d with d^2 | n."""
    return [d for d in divisors(n) if (n // d) % d == 0]


def tau_S_via_identity(S: SSet, n: int) -> int:
    """tau_S(n) through both square-divisor expansions; they must agree."""
    sq = _square_divisors(n)
    a = sum(mu_set_at(S, d) * eval_multiplicative(_tau_pp, n // (d * d)) for d in sq)
    b = sum(rho(S, d) * eval_multiplicative(_tau_star_pp, n // (d * d)) for d in sq)
    if a != b:
        raise ConsistencyError(f"tau_S identity forms disagree at n={n} over {S.spec!r}: {a} vs {b}")
    return a


def sigma_S_via_identity(S: SSet, n: int) -> int:
    """sigma_S(n) through both square-divisor expansions; they must agree."""
    sq = _square_divisors(n)
    a = sum(mu_set_at(S, d) * d * eval_multiplicative(_sigma_pp, n // (d * d)) for d in sq)
    b = sum(rho(S, d) * d * eval_multiplicative(_sigma_star_pp, n // (d * d)) for d in sq)
    if a != b:
        raise ConsistencyError(f"sigma_S identity forms disagree at n={n} over {S.spec!r}: {a} vs {b}")
    return a


def conv_cm_via_dirichlet(S: SSet, f: ArithFunc, g: ArithFunc, n: int):
    """(f *_S g)(n) via the Dirichlet-product expansion; f, g must be
    completely multiplicative. Cross-checked against the direct sum."""
    _require_cm(f, g)
    fg = lambda m: sum(f(d) * g(m // d) for d in divisors(m))
    val = sum(mu_set_at(S, d) * f(d) * g(d) * fg(n // (d * d)) for d in _square_divisors(n))
    direct = s_convolve_at(S, f, g, n)
    if val != direct:
        raise ConsistencyError(f"Dirichlet route disagrees with direct at n={n}: {val} vs {direct}")
    return val


def conv_cm_via_unitary(S: SSet, f: ArithFunc, g: ArithFunc, n: int):
    """(f *_S g)(n) via the unitary-product expansion; f, g must be
    completely multiplicative. Cross-checked against the direct sum."""
    _require_cm(f, g)

    def fxg(m):  # unitary product: divisor pairs with coprime halves
        return sum(f(d) * g(m // d) for d in divisors(m) if math.gcd(d, m // d) == 1)

    val = sum(rho(S, d) * f(d) * g(d) * fxg(n // (d * d)) for d in _square_divisors(n))
    direct = s_convolve_at(S, f, g, n)
    if val != direct:
        raise ConsistencyError(f"unitary route disagrees with direct at n={n}: {val} vs {direct}")
    return val


def _require_cm(f: ArithFunc, g: ArithFunc):
    for h in (f, g):
        if not h.completely_multiplicative:
            raise ValueError(f"{h.name} is not completely multiplicative")


def phi_S_at(S: SSet, n: int) -> int:
    """phi_S(n), the count of j <= n with gcd(j, n) in S.

    Computes the two convolution forms (mu_S * E and rho_S * phi) and, for
    n <= 1e6, the direct gcd count; all routes must agree.
    """
    divs = divisors(n)
    via_mu = sum(mu_set_at(S, d) * (n // d) for d in divs)
    via_rho = sum(rho(S, d) * eval_multiplicative(_phi_pp, n // d) for d in divs)
    if via_mu != via_rho:
        raise ConsistencyError(f"phi_S convolution forms disagree at n={n}: {via_mu} vs {via_rho}")
    if n <= PHI_DIRECT_CAP:
        direct = _phi_direct(S, n)
        if direct != via_mu:
            raise ConsistencyError(f"phi_S direct count disagrees at n={n}: {direct} vs {via_mu}")
    return via_mu


def _phi_direct(S: SSet, n: int) -> int:
    """#{j <= n : gcd(j, n) in S}: the gcds counted once, rho_S read only at
    the divisors of n."""
    counts = np.bincount(np.gcd(np.arange(1, n + 1, dtype=np.int64), n))
    return sum(int(counts[d]) for d in divisors(n) if rho(S, d))


# ---------------------------------------------------------------------------
# tables

def _self_check(name: str, values, direct, N: int) -> None:
    """Spot-check a freshly built table against direct enumeration."""
    rng = random.Random(SELF_CHECK_SEED)
    for _ in range(SELF_CHECK_COUNT):
        n = rng.randint(1, N)
        want = direct(n)
        got = int(values[n])
        if got != want:
            raise ConsistencyError(f"{name} table self-check failed at n={n}: {got} != {want}")


def _square_divisor_table(name: str, S: SSet, N: int, coef, weighted: bool, ppv,
                          direct=None) -> np.ndarray:
    """Table of sum_{d^2 | n} c(d) f(n/d^2) on 0..N (int64; index 0 holds 0),
    with c = coef(S, sqrt N) (times d when weighted) and f(p^a) = ppv(p, a);
    self-checked against direct(n) when given, name labelling a failure."""
    root = math.isqrt(N)
    c = coef(S, root)
    if weighted:
        c = c * np.arange(root + 1, dtype=np.int64)
    base = multiplicative_table(N, ppv)
    out = np.zeros(N + 1, dtype=np.int64)
    for d in (np.flatnonzero(c[1:]) + 1).tolist():  # n = d^2 e at out[d^2::d^2]
        q, k = d * d, int(c[d])
        part = base[1 : N // q + 1]
        out[q::q] += part if k == 1 else k * part
    if direct is not None:
        _self_check(name, out, direct, N)
    return out


def tau_S_table(S: SSet, N: int) -> np.ndarray:
    """Table of tau_S on 0..N by the square-divisor sieve over mu_S."""
    return _square_divisor_table("tau_S", S, N, mu_set_table, False, _tau_pp,
                                 lambda n: tau_S_at(S, n))


def sigma_S_table(S: SSet, N: int) -> np.ndarray:
    """Table of sigma_S on 0..N by the square-divisor sieve over mu_S.

    int64 is safe: entries are at most sigma(n) <= n (1 + ln n) and the
    intermediate partial sums stay within a small multiple of that.
    """
    guard_int64(int(N * (2 + math.log(N)) * math.isqrt(N)), "sigma_S_table")
    return _square_divisor_table("sigma_S", S, N, mu_set_table, True, _sigma_pp,
                                 lambda n: sigma_S_at(S, n))


def phi_S_table(S: SSet, N: int) -> np.ndarray:
    """Table of phi_S on 0..N via the sweep phi_S = rho_S * phi.

    Always int64: dirichlet_sweep turns to object arrays only when
    max|rho_S| max|phi| 2 isqrt(N) <= 2 N^(3/2) reaches 2^63, and
    multiplicative_table refuses N above FACTOR_TABLE_LIMIT = 1e8 first.
    """
    out = dirichlet_sweep(rho_table(S, N), multiplicative_table(N, _phi_pp), N)
    _self_check("phi_S", out, lambda n: _phi_direct(S, n), N)
    return out


def tau_S_table_via_rho(S: SSet, N: int) -> np.ndarray:
    """Second identity route for cross-checks: sieve over rho_S with tau*."""
    return _square_divisor_table("tau_S", S, N, rho_table, False, _tau_star_pp)


def sigma_S_table_via_rho(S: SSet, N: int) -> np.ndarray:
    """Second identity route for cross-checks: sieve over rho_S with sigma*."""
    return _square_divisor_table("sigma_S", S, N, rho_table, True, _sigma_star_pp)
