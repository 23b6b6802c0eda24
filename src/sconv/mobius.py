"""Moebius functions attached to a set S, and the generating Dirichlet series.

Three functions go by the name mu here:

  * mu_S = rho_S * mu (mu_set_table, mu_set_at), an ordinary Dirichlet
    convolution: sum_{d | n} mu_S(d) = rho_S(n). For multiplicative S,
    mu_S(p^a) = rho_S(p^a) - rho_S(p^(a-1)), so its values lie in {-1, 0, 1}.

  * g, the inverse of I = 1 under the S-convolution (inverse_of_I, the
    CLI's `eval --fn mu`): for rule-based S, g(p^a) = -sum of g(p^i) over
    the i < a with p^min(i, a-i) in S. Over N, g is mu and mu_S is delta.

  * mu_k (k-full Moebius), g for S = L_k; mu_k(p^a) depends on a only:
        mu_k(p^a) = -1              for 1 <= a < 2k
        mu_k(p^a) = mu_k(p^(a-1)) - mu_k(p^(a-k))   for a >= 2k.

The series zeta_S(z) = sum rho_S(n) n^(-z) converges for z > 1 and satisfies
sum mu_S(n) n^(-z) = zeta_S(z) / zeta(z).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import count, islice

import numpy as np

from .arith import (
    _mu_pp,
    dirichlet_sweep,
    divisors,
    eval_multiplicative,
    multiplicative_table,
    prime_array,
)
from .convolve import POINTWISE_SPAN, ArithFunc, _require_associative, s_inverse
from .errors import ConsistencyError, LimitError
from .sets import ExponentRule, MultiplicativeSSet, SSet, Verdict, parse_sset, rho, rho_table

DIRECT_TRUNCATION_CAP = 4_000_000   # direct series sums refuse beyond this
# prime cutoff cap for product evaluation; the doubling from 2^14 stops at the
# first power of two at or above it, 2^22 = 4194304 (the reported euler_cutoff)
EULER_CUTOFF_CAP = 4_000_000


def mu_table(limit: int) -> np.ndarray:
    """Ordinary Moebius function on 0..limit (int64; index 0 unused)."""
    return multiplicative_table(limit, _mu_pp)


def mu_set_table(S: SSet, N: int) -> np.ndarray:
    """Table of mu_S on 0..N (int64; index 0 unused).

    Rule-based S: the multiplicative sieve on mu_S(p^a). Table-backed S
    (bound >= N): the sweep mu_S = rho_S * mu, which for rule-based S is
    kept only as the tests' cross-check of the sieve.
    """
    if S.mult is not None:
        return multiplicative_table(N, S.mult.mu_prime_power)
    return dirichlet_sweep(rho_table(S, N), mu_table(N), N)


@lru_cache(maxsize=1 << 16)
def mu_at(n: int) -> int:
    """Ordinary Moebius function, pointwise."""
    return eval_multiplicative(_mu_pp, n)


def mu_set_at(S: SSet, n: int) -> int:
    """mu_S(n) pointwise; prime-power product for rule-based S, else the
    divisor sum rho_S * mu."""
    if S.mult is not None:
        return eval_multiplicative(S.mult.mu_prime_power, n)
    return sum(rho(S, d) * mu_at(n // d) for d in divisors(n))


# ---------------------------------------------------------------------------
# the S-inverse of I, and mu_k as its L_k case

def _inverse_of_I_pp(rule: ExponentRule, a: int) -> int:
    """g(p^a), g the S-inverse of I, at a prime where S admits the exponents of
    rule: minus the sum of g(p^i) over the S-divisors p^i < p^a. O(a^2) steps."""
    if a < 0:
        raise ValueError("exponent must be >= 0")
    g = [1]
    for b in range(1, a + 1):
        g.append(-sum(g[i] for i in range(b) if i == 0 or rule.contains(min(i, b - i))))
    return g[a]


def inverse_of_I(S: SSet, lo: int, hi: int) -> list:
    """g(lo..hi), g the inverse of I = 1 under the S-convolution; not
    mu_S = rho_S * mu (over L2, g(4) = -1 and mu_S(4) = 1). Rule-based S:
    g is multiplicative, pointwise when hi - lo < POINTWISE_SPAN, else one
    multiplicative_table to hi. Table-backed S: s_inverse, also the tests'
    cross-check of this route. Refuses what s_inverse refuses (ValueError)."""
    if S.mult is None:
        return s_inverse(S, ArithFunc.named("I"), hi)[lo : hi + 1]
    _require_associative(S)
    ppv = lambda p, a: _inverse_of_I_pp(S.mult.rule_at(p), a)
    if hi - lo < POINTWISE_SPAN:
        return [eval_multiplicative(ppv, n) for n in range(lo, hi + 1)]
    return multiplicative_table(hi, ppv)[lo : hi + 1].tolist()


def _mu_k_sequence(k: int):
    """Endless generator of mu_k(p^a) for a = 1, 2, ...; the recurrence
    reads only the last k values, kept in a deque window. O(1) per exponent
    for mu_k_statistics, and the tests' cross-check of _inverse_of_I_pp at L_k."""
    window = deque([1], maxlen=k)  # mu_k(p^(a-k)) .. mu_k(p^(a-1)), once full
    for a in count(1):
        v = -1 if a < 2 * k else window[-1] - window[0]
        window.append(v)
        yield v


def mu_k_prime_power(k: int, a: int) -> int:
    """mu_k(p^a) for any prime p; for k >= 3 it grows exponentially in a."""
    return _inverse_of_I_pp(ExponentRule.at_least(k), a)


def mu_k_at(k: int, n: int) -> int:
    """mu_k(n) = product of mu_k(p^a) over p^a || n (multiplicative)."""
    return eval_multiplicative(lambda p, a: mu_k_prime_power(k, a), n)


@dataclass(frozen=True)
class MuKStatistics:
    """Exploratory summary of mu_k on prime powers p^1..p^a_max."""

    k: int
    a_max: int
    values: tuple            # sorted distinct values
    first_occurrence: dict   # value -> least exponent a with mu_k(p^a) = value
    sign_runs: tuple         # ((sign, run length), ...) over a = 1..a_max


def mu_k_statistics(k: int, a_max: int) -> MuKStatistics:
    """Stream the exponent sequence once, O(k) working window.

    a_max is capped at 1e6; note that for k >= 3 the values themselves grow
    exponentially in a, so large a_max means big-integer arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    if a_max > 10**6:
        raise LimitError("a_max must be at most 1e6")
    first: dict[int, int] = {}
    runs: list[list[int]] = []  # [sign, length]
    for a, v in enumerate(islice(_mu_k_sequence(k), a_max), start=1):
        if v not in first:
            first[v] = a
        s = (v > 0) - (v < 0)
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return MuKStatistics(
        k=k,
        a_max=a_max,
        values=tuple(sorted(first)),
        first_occurrence=first,
        sign_runs=tuple((s, ln) for s, ln in runs),
    )


# ---------------------------------------------------------------------------
# Dirichlet series

@dataclass(frozen=True)
class ZetaEvaluation:
    """A certified evaluation of zeta_S(z) = sum rho_S(n) n^(-z).

    value       direct truncated sum (for the full set, plus the certified
                integral enclosure of the tail, see below)
    truncation  number of terms kept
    tail_bound  crude integral bound T^(1-z)/(z-1) on the neglected tail
    err_bound   certified |value - zeta_S(z)|, rounding included: tail_bound,
                or for the full set, whose tail lies between the integrals
                from T and from T+1, half their gap, value at the midpoint
    euler_value, euler_bound
                for rule-based S, the truncated Euler product over primes
                <= cutoff with its own certified bound, rounding included
                (the two evaluations must agree within err_bound + euler_bound)
    """

    z: float
    value: float
    truncation: int
    tail_bound: float
    err_bound: float
    euler_value: float | None = None
    euler_bound: float | None = None
    euler_cutoff: int | None = None

    @property
    def best_value(self) -> float:
        if self.euler_bound is not None and self.euler_bound < self.err_bound:
            return self.euler_value
        return self.value

    @property
    def best_bound(self) -> float:
        if self.euler_bound is not None and self.euler_bound < self.err_bound:
            return self.euler_bound
        return self.err_bound


def _crude_tail(T: int, z: float) -> float:
    return T ** (1.0 - z) / (z - 1.0)


def _is_full_set(S: SSet) -> bool:
    if S.mult is None:
        return False
    m = S.mult
    return m.default_rule.kind == "all" and all(r.kind == "all" for r in m.overrides.values())


def euler_factors(m: MultiplicativeSSet, primes: np.ndarray, local) -> np.ndarray:
    """local(rule, ps) at every prime of the ascending float64 array primes.

    local maps one exponent rule and a float64 array of primes to their
    local factors. It runs once, vectorised, for the default rule; each
    override prime present in primes is then patched in with its own rule.
    """
    out = local(m.default_rule, primes)
    for p, rule in m.overrides.items():
        i = int(np.searchsorted(primes, p))
        if i < len(primes) and primes[i] == p:
            out[i] = local(rule, primes[i : i + 1])[0]
    return out


def _local_factor(rule, ps: np.ndarray, z: float) -> np.ndarray:
    """sum over a >= 0 of rho(p^a) p^(-az), closed form per rule kind.

    np.float_power calls the C library pow per element, as Python's ** on
    floats does, so each factor matches the scalar formula to the bit.
    """
    x = np.float_power(ps, -z)
    if rule.kind == "all":
        return 1.0 / (1.0 - x)
    if rule.kind == "none":
        return np.ones_like(x)
    if rule.kind == "below":
        return (1.0 - np.float_power(x, rule.k)) / (1.0 - x)
    if rule.kind == "at_least":
        return 1.0 + np.float_power(x, rule.k) / (1.0 - x)
    return 1.0 + sum(np.float_power(x, a) for a in sorted(rule.members))


def _euler_product(S: SSet, z: float, tol: float) -> tuple[float, float, int]:
    """Truncated Euler product with a certified bound; (V, bound, cutoff).

    V is the product of euler_factors over the primes <= cutoff. The
    neglected factors lie in [1, exp(t)] with
    t = sum_{p > P} p^(-z)/(1 - p^(-z)) <= (1/(1-2^(-z))) P^(1-z)/(z-1),
    so zeta_S lies in [V, V e^t]. The cutoff doubles from 2^14 until
    V(e^t - 1) <= tol or it reaches EULER_CUTOFF_CAP (so at most 2^22).
    Each factor is >= 1 in floating point, so V >= 1, and cutoffs with
    e^t - 1 > tol are skipped unsieved. The bound adds u V (u = 2^-53)
    per rounding in V, counted to first order by rule kind: a prime's local
    factor (a pow counts 2; a finite rule adds one per member) and its
    multiply. Rule "none" gives the factor 1, exactly.
    """
    m = S.mult
    per_kind = {"none": 0, "all": 5, "below": 8, "at_least": 6, "finite": 8}
    count = lambda rule: per_kind[rule.kind] + len(rule.members)
    tail = lambda cutoff: _crude_tail(cutoff, z) / (1.0 - 2.0 ** (-z))
    cutoff = 1 << 14
    while math.expm1(tail(cutoff)) > tol and cutoff < EULER_CUTOFF_CAP:
        cutoff *= 2
    while True:
        ps = prime_array(cutoff).astype(np.float64)
        v = float(np.prod(euler_factors(m, ps, lambda rule, x: _local_factor(rule, x, z))))
        bound = v * math.expm1(tail(cutoff))
        if bound <= tol or cutoff >= EULER_CUTOFF_CAP:
            roundings = len(ps) * count(m.default_rule) + sum(map(count, m.overrides.values()))
            return v, bound + roundings * 2.0 ** -53 * v, cutoff
        cutoff *= 2


def zeta_S(S: SSet, z: float, tol: float = 1e-9) -> ZetaEvaluation:
    """Evaluate zeta_S(z) for z > 1 with certified error at most tol, plus
    the floating-point rounding that the bounds add to the truncation.

    Direct truncated sum always; Euler product besides for rule-based S.
    The best certified bound must reach tol, else LimitError: with the crude
    tail T^(1-z)/(z-1), small tolerances near z = 1 need infeasible T (the
    full set is the exception, its tail encloses between two integrals).
    """
    if z <= 1:
        raise ValueError("series diverges for z <= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    full = _is_full_set(S)
    if full:
        # enclosure width is at most T^-z, met at T = (2 tol)^(-1/z)
        T = int(math.ceil((2.0 * tol) ** (-1.0 / z))) + 1
    else:
        T = int(math.ceil((tol * (z - 1.0)) ** (-1.0 / (z - 1.0)))) + 1
    T = max(T, 64)
    capped = False
    if T > DIRECT_TRUNCATION_CAP:
        T = DIRECT_TRUNCATION_CAP
        capped = True
    if S.general is not None and T > S.general.bound:
        raise LimitError(
            f"tolerance {tol} unreachable for {S.spec!r}: membership bound "
            f"{S.general.bound} leaves tail {_crude_tail(S.general.bound, z):.3g}"
        )
    rs = rho_table(S, T)
    ns = np.arange(T + 1, dtype=np.float64)
    ns[0] = 1.0
    partial = float(np.sum(rs * ns ** (-z)))
    # rounding: np.sum's pairwise depth <= 19 + log2 T, +5 for each pow and the midpoint
    rounding = (24 + math.log2(T)) * 2.0 ** -53 * partial
    tail_bound = _crude_tail(T, z)
    if full:
        lo = _crude_tail(T + 1, z)
        value = partial + 0.5 * (tail_bound + lo)
        err = 0.5 * (tail_bound - lo) + rounding
    else:
        value = partial
        err = tail_bound + rounding
    ev = eb = ec = None
    if S.mult is not None:
        ev, eb, ec = _euler_product(S, z, tol)
        if abs(ev - value) > err + eb + 1e-12:
            raise ConsistencyError(
                f"series and product evaluations of zeta_{S.spec}({z}) disagree: "
                f"{value} vs {ev} beyond {err + eb:.3g}"
            )
    best = min(err, eb) if eb is not None else err
    if capped and best > tol:
        raise LimitError(
            f"tolerance {tol} unreachable for zeta_{S.spec}({z}): best certified "
            f"bound {best:.3g} at truncation cap {DIRECT_TRUNCATION_CAP}"
        )
    return ZetaEvaluation(z=z, value=value, truncation=T, tail_bound=tail_bound,
                          err_bound=err, euler_value=ev, euler_bound=eb, euler_cutoff=ec)


@cache
def _zeta_full(z: float, tol: float) -> ZetaEvaluation:
    """zeta_S(N, z, tol), evaluated once per (z, tol) per process.

    ZetaEvaluation is frozen and zeta_S deterministic, and each distinct
    evaluation still runs both routes and their cross-check. Only the full
    set is memoised: MultiplicativeSSet holds a dict and is not hashable,
    and a FILE: spec names a path, not its contents, so a cache for every
    S would need a key design that no caller needs.
    """
    return zeta_S(parse_sset("N"), z, tol)


def zeta_S_derivative(S: SSet, z: float, tol: float = 2e-5) -> float:
    """zeta_S'(z) = -sum rho_S(n) log(n) n^(-z), certified within tol.

    Tail bound: integral of log(t) t^(-z) from T, i.e.
    T^(1-z) (log T / (z-1) + 1/(z-1)^2); the full set again encloses the
    tail between consecutive integrals and takes the midpoint.
    """
    if z <= 1:
        raise ValueError("series diverges for z <= 1")

    def tail(T: float) -> float:
        return T ** (1.0 - z) * (math.log(T) / (z - 1.0) + (z - 1.0) ** -2)

    def err_at(T: int) -> float:
        return 0.5 * (tail(T) - tail(T + 1)) if full else tail(T)

    full = _is_full_set(S)
    T = 64
    while err_at(T) > tol and T < DIRECT_TRUNCATION_CAP:
        T *= 2
    if S.general is not None:
        T = min(T, S.general.bound)
    if err_at(T) > tol:
        raise LimitError(f"tolerance {tol} unreachable for zeta_{S.spec}'({z})")
    rs = rho_table(S, T)
    ns = np.arange(T + 1, dtype=np.float64)
    ns[0] = 1.0
    partial = -float(np.sum(rs * np.log(ns) * ns ** (-z)))
    if full:
        return partial - 0.5 * (tail(T) + tail(T + 1))
    return partial


def verify_mobius_identity(S: SSet, N: int) -> Verdict:
    """Check sum_{d | n} mu_S(d) = rho_S(n) for every n <= N."""
    lhs = dirichlet_sweep(mu_set_table(S, N), np.ones(N + 1, dtype=np.int64), N)
    rs = rho_table(S, N)
    bad = np.flatnonzero(lhs[1:] != rs[1:])
    if len(bad):
        n = int(bad[0]) + 1
        return Verdict(False, bound=N, witness=(n, int(lhs[n]), int(rs[n])))
    return Verdict(True, bound=N)


def verify_series_ratio(S: SSet, z: float, T: int) -> tuple[float, float]:
    """Residual |sum_{n<=T} mu_S(n) n^(-z) - zeta_S(z)/zeta(z)| and the bound
    it must stay under.

    The bound combines the mu_S series tail (|mu_S(n)| <= tau(n) <= 2 sqrt(n)
    gives 2 T^(3/2-z)/(z-3/2), needs z > 3/2) with the certified errors of
    the two zeta evaluations.
    """
    if z <= 1.5:
        raise ValueError("the tau-based tail bound needs z > 1.5")
    ms = mu_set_table(S, T)
    ns = np.arange(T + 1, dtype=np.float64)
    ns[0] = 1.0
    lhs = float(np.sum(ms * ns ** (-z)))
    zs = zeta_S(S, z, tol=1e-6)
    zn = _zeta_full(z, 1e-9)
    ratio = zs.best_value / zn.best_value
    residual = abs(lhs - ratio)
    tail = 2.0 * T ** (1.5 - z) / (z - 1.5)
    bound = tail + zs.best_bound / zn.best_value + zn.best_bound * abs(ratio) / zn.best_value
    return residual, bound
