"""Divisor-counting and divisor-sum functions restricted to S-divisors.

    tau_S(n)   = number of divisors d | n with gcd(d, n/d) in S
    sigma_S(n) = sum of those divisors
    phi_S(n)   = #{ 1 <= j <= n : gcd(j, n) in S }

Each has a direct definition, and the tables go through the square-divisor
expansion: with mu_S the set Moebius companion and tau*, sigma* the unitary
(S = {1}) variants,

    tau_S(n)   = sum_{d^2 | n} mu_S(d) tau(n/d^2)  = sum_{d^2 | n} rho_S(d) tau*(n/d^2)
    sigma_S(n) = sum_{d^2 | n} mu_S(d) d sigma(n/d^2)
               = sum_{d^2 | n} rho_S(d) d sigma*(n/d^2)
    phi_S      = mu_S * E = rho_S * phi   (ordinary Dirichlet products)

For rule-based S all three are multiplicative, and so are tau_S and sigma_S
on 1..hi for any S with 1 in S and rho_S multiplicative on 1..isqrt(hi).
Their prime-power values read membership alone (SSet.rho_prime_power):
tau_S(p^a) counts the i <= a with p^min(i, a-i) in S, sigma_S(p^a) sums
those p^i, and phi_S(p^a) sums phi(p^(a-i)) over the i <= a with p^i in S
(divisor_function_windows streams them).

For completely multiplicative f, g the same expansion gives

    (f *_S g)(n) = sum_{d^2 | n} mu_S(d) f(d) g(d) (f * g)(n/d^2)
                 = sum_{d^2 | n} rho_S(d) f(d) g(d) (f x g)(n/d^2)

with * the Dirichlet and x the unitary product; the tests check both forms,
pointwise and as table sweeps. Table builders self-check against direct
enumeration.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .arith import (
    _check_points,
    _checked,
    _phi_pp,
    _self_check,
    _sigma_pp,
    _sigma_star_pp,
    _tau_pp,
    _tau_star_pp,
    dirichlet_sweep,
    divisors,
    eval_multiplicative,
    factorize,
    guard_int64,
    multiplicative_table,
    multiplicative_windows,
)
from .errors import ConsistencyError
from .sets import SSet, _rho_many, rho, rho_table, s_divisors

# mobius is imported inside the three functions that read mu_S (tau_S_table,
# sigma_S_table, phi_S_at), so eval's windowed streams never load it

PHI_DIRECT_CAP = 10**6  # beyond this, only the convolution forms
_PHI_BLOCK = 1 << 16  # sieve cells per block of _phi_direct: bounds its memory, not n


# ---------------------------------------------------------------------------
# pointwise

def tau_S_at(S: SSet, n: int) -> int:
    """Count of S-divisors of n, by direct enumeration."""
    return len(s_divisors(S, n))


def sigma_S_at(S: SSet, n: int) -> int:
    """Sum of S-divisors of n, by direct enumeration."""
    return sum(s_divisors(S, n))


def sigma_S_prime_power(S: SSet, p: int, e: int) -> int:
    """sigma_S(p^e): the p^b, b <= e, with p^min(b, e - b) in S (the gcd
    of p^b and p^(e-b)), membership read by S.rho_prime_power."""
    return sum(p ** b for b in range(e + 1) if S.rho_prime_power(p, min(b, e - b)))


def _tau_S_pp(S: SSet, p: int, a: int) -> int:
    """tau_S(p^a): the i <= a with p^min(i, a-i) in S."""
    return sum(S.rho_prime_power(p, min(i, a - i)) for i in range(a + 1))


def _phi_S_pp(S: SSet, p: int, a: int) -> int:
    """phi_S(p^a): phi(p^(a-i)) over the i <= a with p^i in S, phi(1) = 1."""
    return sum(_phi_pp(p, a - i) if i < a else 1
               for i in range(a + 1) if S.rho_prime_power(p, i))


def phi_S_at(S: SSet, n: int) -> int:
    """phi_S(n), the count of j <= n with gcd(j, n) in S.

    Computes the two convolution forms (mu_S * E and rho_S * phi) and, for
    n <= 1e6, the direct gcd count; all routes must agree.
    """
    from .mobius import mu_set_at

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
    """#{j <= n : gcd(j, n) in S}, by enumeration: each j <= n is d k with
    d = gcd(j, n) and gcd(k, n/d) = 1, so for each divisor d of n in S it
    counts the k <= n/d left by a sieve striking the multiples of every
    prime of n/d, _PHI_BLOCK values of k at a time. No phi formula is used."""
    primes = [p for p, _ in factorize(n)]
    alive = np.empty(min(n, _PHI_BLOCK), dtype=bool)
    total = 0
    divs = divisors(n)
    for d, member in zip(divs, _rho_many(S, divs)):
        if member:
            m = n // d
            for k0 in range(1, m + 1, _PHI_BLOCK):  # k0 <= k < k0 + len(live)
                live = alive[: min(_PHI_BLOCK, m + 1 - k0)]
                live[:] = True
                for p in primes:
                    if m % p == 0:
                        live[-k0 % p :: p] = False
                total += int(np.count_nonzero(live))
    return total


# ---------------------------------------------------------------------------
# tables

def divisor_function_windows(S: SSet, fn: str, lo: int, hi: int):
    """tau_S, sigma_S or phi_S (fn "tau", "sigma", "phi") on lo..hi, as the
    int64 windows of arith.multiplicative_windows on the local values (each
    a view that the next overwrites): tau_S and sigma_S for any S that holds
    1 with rho_S multiplicative on 1..isqrt(hi), phi_S for rule-based S. At
    a prime q > sqrt(hi), tau_S(q) = 2, sigma_S(q) = 1 + q and phi_S(q) =
    q - 1 + rho_S(q), the override primes one by one. The seeded points of
    _check_points(lo, hi) are compared with tau_S_at, sigma_S_at or
    _phi_direct before their window is handed out (ConsistencyError).
    Guards raise from this call, before any window."""
    if fn == "phi":
        local, direct = _phi_S_pp, _phi_direct
        linear = (1, int(S.mult.default_rule.contains(1)) - 1, S.mult.overrides)
    else:
        local, linear, direct = {"tau": (_tau_S_pp, (0, 2, ()), tau_S_at),
                                 "sigma": (sigma_S_prime_power, (1, 1, ()), sigma_S_at)}[fn]
    windows = multiplicative_windows(lo, hi, partial(local, S), linear)
    return _checked(f"{fn}_S window", windows, lo, hi, partial(direct, S))


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
        _self_check(f"{name} table", out, direct, _check_points(1, N))
    return out


def tau_S_table(S: SSet, N: int) -> np.ndarray:
    """Table of tau_S on 0..N by the square-divisor sieve over mu_S."""
    from .mobius import mu_set_table

    return _square_divisor_table("tau_S", S, N, mu_set_table, False, _tau_pp,
                                 lambda n: tau_S_at(S, n))


def sigma_S_table(S: SSet, N: int) -> np.ndarray:
    """Table of sigma_S on 0..N by the square-divisor sieve over mu_S.

    int64 is safe: entries are at most sigma(n) <= n (1 + ln n) and the
    intermediate partial sums stay within a small multiple of that.
    """
    from .mobius import mu_set_table

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
    _self_check("phi_S table", out, lambda n: _phi_direct(S, n), _check_points(1, N))
    return out


def tau_S_table_via_rho(S: SSet, N: int) -> np.ndarray:
    """Second identity route for cross-checks: sieve over rho_S with tau*."""
    return _square_divisor_table("tau_S", S, N, rho_table, False, _tau_star_pp)


def sigma_S_table_via_rho(S: SSet, N: int) -> np.ndarray:
    """Second identity route for cross-checks: sieve over rho_S with sigma*."""
    return _square_divisor_table("sigma_S", S, N, rho_table, True, _sigma_star_pp)
