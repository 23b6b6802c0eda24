"""Average orders and maximal orders of the S-restricted divisor functions.

Main terms for the summatory functions on multiplicative sets S:

    sum_{n <= x} sigma_S(n) ~ (zeta(2) zeta_S(3) / (2 zeta(3))) x^2
    sum_{n <= x} tau_S(n)   ~ (zeta_S(2)/zeta(2)) x (ln x + 2 gamma - 1
                              + 2 zeta_S'(2)/zeta_S(2) - 2 zeta'(2)/zeta(2))

asymptotic_report samples the partial sums at geometric points and fits the
empirical remainder decay; the fit is informational (the true remainders are
power-of-log sized, which no feasible range can discriminate). The partial
sums are exact, and come from the square-divisor expansion summed by the
Dirichlet hyperbola method, which needs mu_S only to sqrt(x):

    sum_{n <= x} tau_S(n)   = sum_{d <= sqrt x} mu_S(d) D(x/d^2)
    sum_{n <= x} sigma_S(n) = sum_{d <= sqrt x} mu_S(d) d Sigma(x/d^2)

with D and Sigma the summatory tau and sigma of the full set, each in
O(sqrt y) steps (Apostol, Introduction to Analytic Number Theory, Thm 3.3).
Each report checks 32 seeded differences S(n) - S(n-1) against direct
enumeration; the dense tables of divisor_functions are the tests'
cross-check of this route.

Maximal orders. With P the set of primes all of whose powers lie in S and
s(p) the least excluded exponent elsewhere,

    limsup sigma_S(n)/(n ln ln n) = e^gamma prod_{p not in P} (1 - p^(-2 s(p)))

(uniform s gives e^gamma / zeta(2s)), approached to within a factor
(1 - epsilon)^2 along explicit witness integers built from a threshold t,
an exponent a, and all primes up to e^k.
For tau_S: limsup ln tau_S(n) ln ln n / ln n = ln 2, approached along
primorials. Witnesses are held in factored form only; every ratio combines
exact local factors, never the (astronomically large) integer itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    _check_points,
    _sigma_pp,
    guard_int64,
    is_prime,
    multiplicative_table,
    sieve_primes,
)
from .divisor_functions import sigma_S_at, sigma_S_prime_power, tau_S_at
from .errors import ConsistencyError, LimitError
from .mobius import Ball, _zeta_full, mu_set_table, zeta_S, zeta_S_derivative
from .sets import SSet

# no finite-sum form; sole hard-coded constant. Its 17 digits put the float
# within u gamma of gamma (5.6e-17 of rounding plus 6e-19 of truncation), as
# Ball.rounded asks
EULER_GAMMA = 0.57721566490153286
# asked of zeta_S(2) and zeta_S'(2) for the tau constants; rule-based S get the
# factored product's far smaller bounds, table-backed S only the series, which
# meets 2e-5 at 5e4 and 2^20 terms (a membership bound of 7.4e5 suffices)
TAU_TOL = 2e-5
REPORT_X_CAP = 10**7
LOGLOG_FLOOR = math.log(16.0)  # maximal-order ratios need n >= 16


# ---------------------------------------------------------------------------
# average-order main terms

def sigma_main_term(S: SSet, x: float) -> float:
    """Main term zeta(2) zeta_S(3) / (2 zeta(3)) * x^2 of sum sigma_S."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return _sigma_constant(S).mid * x * x


def _sigma_constant(S: SSet) -> Ball:
    z2 = _zeta_full(2.0, 1e-9)
    z3 = _zeta_full(3.0, 1e-9)
    zs3 = zeta_S(S, 3.0, tol=1e-9)
    return z2.best * zs3.best / (2.0 * z3.best)


def tau_main_term(S: SSet, x: float) -> float:
    """Main term A x (ln x + B) of sum tau_S, with
    A = zeta_S(2)/zeta(2) and B = 2 gamma - 1 + 2 zeta_S'(2)/zeta_S(2)
    - 2 zeta'(2)/zeta(2). For the full set the derivative terms cancel."""
    if x < 2:
        raise ValueError("x must be >= 2")
    a, b = _tau_constants(S)
    return a.mid * x * (math.log(x) + b.mid)


def _tau_constants(S: SSet) -> tuple[Ball, Ball]:
    """A and B. zeta'/zeta at 2 comes from the factored product, or for
    table-backed S from the series of zeta_S', certified to TAU_TOL, over
    that of zeta_S."""
    z2 = _zeta_full(2.0, TAU_TOL)
    zs2 = zeta_S(S, 2.0, tol=TAU_TOL)
    ds = zs2.log_derivative or zeta_S_derivative(S, 2.0, TAU_TOL) / zs2.series
    b = Ball.fsum([2.0 * Ball.rounded(EULER_GAMMA), Ball(-1.0), 2.0 * ds,
                   -2.0 * z2.log_derivative])
    return zs2.best / z2.best, b


# ---------------------------------------------------------------------------
# asymptotic reports

@dataclass(frozen=True)
class AsymptoticReport:
    """Partial sums of tau_S or sigma_S against the main term.

    rows: (x, partial_sum, main_term, ratio, remainder) at strictly
    increasing geometric sample points. fit_exponent is the least-squares
    slope of ln|remainder| against ln x (None when too few usable points);
    fit_residual its root-mean-square misfit. const_err bounds the error of
    each main-term constant (zeta(2) zeta_S(3)/(2 zeta(3)), or A and B).
    """

    sset_spec: str
    fn: str
    x_max: int
    xs: tuple
    partial_sums: tuple
    main_terms: tuple
    ratios: tuple
    remainders: tuple
    fit_exponent: float | None
    fit_residual: float | None
    const_err: float

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ValueError("sample points must be strictly increasing")
        if not all(math.isfinite(r) for r in self.ratios):
            raise ValueError("ratios must be finite")

    def rows(self) -> list[dict]:
        return [
            {"x": int(x), "partial_sum": int(p), "main_term": m, "ratio": r,
             "remainder": rem}
            for x, p, m, r, rem in zip(self.xs, self.partial_sums,
                                       self.main_terms, self.ratios,
                                       self.remainders)
        ]


def _partial_sums(mu: np.ndarray, weighted: bool, xs: list[int]) -> list[int]:
    """sum_{n <= x} tau_S(n), or sigma_S(n) when weighted, at each x of xs.

    mu is mu_S on 0..isqrt(max xs). The sum is sum_{d <= sqrt x} mu_S(d)
    d^w F(x // d^2), w = 1 when weighted, with F the summatory function of
    the full set by the hyperbola method: for r = isqrt(y), q = y // k and
    T(m) = m (m + 1) / 2,

        tau:   F(y) = sum_{k <= r} 2 q - r^2
        sigma: F(y) = sum_{k <= r} (k q + T(q)) - r T(r).

    For each x the k-ranges of every d with mu_S(d) != 0 lie end to end in
    one int64 array, summed per range by np.add.reduceat: O(sqrt x log x)
    work and memory. With M = max |mu_S|, every intermediate is at most
    4 M x (1 + ln(1 + x)) (tau) or 4 M x^2 (sigma) in size; guard_int64
    refuses a larger bound: for sigma with M = 1, x above about 1.5e9
    (the sums themselves, about 0.82 x^2, leave int64 near 3.3e9).
    """
    top = max(xs)
    m = int(np.abs(mu[: math.isqrt(top) + 1]).max())
    guard_int64(4 * m * top * top if weighted else int(4 * m * top * (1 + math.log1p(top))),
                "asymptotic_report partial sums")
    ds = np.flatnonzero(mu)
    out = []
    for x in xs:
        d = ds[: np.searchsorted(ds, math.isqrt(x), side="right")]
        if not len(d):  # x = 0
            out.append(0)
            continue
        y = x // (d * d)
        r = np.sqrt(y).astype(np.int64)
        r -= r * r > y  # exact isqrt from the float estimate
        r += (r + 1) * (r + 1) <= y
        starts = np.cumsum(r) - r
        k = np.arange(1, int(r.sum()) + 1) - np.repeat(starts, r)
        q = np.repeat(y, r) // k
        if weighted:
            f = np.add.reduceat(k * q + q * (q + 1) // 2, starts) - r * (r * (r + 1) // 2)
            out.append(int((mu[d] * d * f).sum()))
        else:
            f = 2 * np.add.reduceat(q, starts) - r * r
            out.append(int((mu[d] * f).sum()))
    return out


def asymptotic_report(S: SSet, fn: str, x_max: int, samples: int = 24) -> AsymptoticReport:
    """Sample sum_{n <= x} fn(n) at geometric points against the main term.

    fn is "tau_S" or "sigma_S". The partial sums are exact: one
    mu_set_table(S, isqrt(x_max)), then the hyperbola sums of
    _partial_sums, whose int64 guard never trips below REPORT_X_CAP. The
    same route gives S(n) - S(n-1) at the n of _check_points(1, x_max),
    which must equal tau_S_at / sigma_S_at (direct enumeration); a
    mismatch raises ConsistencyError. The empirical
    remainder exponent comes from a least-squares fit of ln|R| vs ln x and
    is informational only.
    """
    if fn not in ("tau_S", "sigma_S"):
        raise ValueError(f"unknown function {fn!r}, want tau_S or sigma_S")
    if x_max > REPORT_X_CAP:
        raise LimitError(f"x_max {x_max} above cap {REPORT_X_CAP}")
    if x_max < 100:
        raise ValueError("x_max must be >= 100")
    if samples < 2:
        raise ValueError("need at least 2 sample points")
    if samples > x_max:  # the points are distinct integers in [x0, x_max]
        raise ValueError(f"samples {samples} above x_max {x_max}")

    x0 = max(64, int(round(x_max ** (1.0 / 3.0))))
    xs = sorted({int(x) for x in np.rint(np.geomspace(x0, x_max, samples)) if x >= 2})
    checked = _check_points(1, x_max)

    weighted = fn == "sigma_S"
    sums = _partial_sums(mu_set_table(S, math.isqrt(x_max)), weighted,
                         xs + [x for n in checked for x in (n, n - 1)])
    partial, at_n, before_n = sums[: len(xs)], sums[len(xs) :: 2], sums[len(xs) + 1 :: 2]
    direct = sigma_S_at if weighted else tau_S_at
    for n, hi, lo in zip(checked, at_n, before_n):
        want = direct(S, n)
        if hi - lo != want:
            raise ConsistencyError(f"{fn} partial-sum self-check failed at n={n}: "
                                   f"{hi - lo} != {want}")

    if weighted:
        k = _sigma_constant(S)
        cerr = k.rad
        main = lambda x: k.mid * float(x) * float(x)
    else:
        a, b = _tau_constants(S)
        cerr = max(a.rad, b.rad)
        main = lambda x: a.mid * float(x) * (math.log(x) + b.mid)

    mains = [main(x) for x in xs]
    ratios = [p / m for p, m in zip(partial, mains)]
    rems = [p - m for p, m in zip(partial, mains)]

    usable = [(math.log(x), math.log(abs(r))) for x, r in zip(xs, rems) if r != 0]
    if len(usable) >= 3:
        lx = np.array([u[0] for u in usable])
        lr = np.array([u[1] for u in usable])
        slope, intercept = np.polyfit(lx, lr, 1)
        resid = float(np.sqrt(np.mean((slope * lx + intercept - lr) ** 2)))
        fit, fres = float(slope), resid
    else:
        fit, fres = None, None

    return AsymptoticReport(
        sset_spec=S.spec, fn=fn, x_max=int(x_max), xs=tuple(xs),
        partial_sums=tuple(partial), main_terms=tuple(mains),
        ratios=tuple(ratios), remainders=tuple(rems),
        fit_exponent=fit, fit_residual=fres, const_err=cerr,
    )


# ---------------------------------------------------------------------------
# maximal order of sigma_S

@dataclass(frozen=True)
class MaximalConstant:
    """The limsup constant for sigma_S(n)/(n ln ln n), with certified error."""

    sset_spec: str
    value: float
    err_bound: float
    uniform_s: int | None

    def __float__(self) -> float:
        return self.value


def sigma_maximal_constant(S: SSet) -> MaximalConstant:
    """e^gamma * prod over primes p not all-in of (1 - p^(-2 s(p))).

    s(p) is the least excluded exponent at p. With s0 that of the default
    rule, the product over every prime is 1/zeta(2 s0) (1 when the default
    is all-in), so the constant is e^gamma/zeta(2 s0) times one exact factor
    (1 - p^(-2 s(p)))/(1 - p^(-2 s0)) per override prime, a 1 standing for
    the term of an all-in rule. zeta(2 s0) is the full set's certified
    best value, the factored product (Euler-Maclaurin for N).
    """
    if S.mult is None:
        raise ValueError(f"{S.spec!r} is not a multiplicative set")
    m = S.mult
    s0 = m.default_rule.least_excluded()
    local = lambda s, p: Ball(1.0) if s is None else 1.0 - Ball(p) ** (-2.0 * s)
    value = Ball.rounded(EULER_GAMMA).exp()
    if s0 is not None:
        value /= _zeta_full(2.0 * s0, 1e-9).best
    for p, rule in sorted(m.overrides.items()):
        value *= local(rule.least_excluded(), p) / local(s0, p)
    uniform = s0 is not None and all(r.least_excluded() == s0 for r in m.overrides.values())
    return MaximalConstant(sset_spec=S.spec, value=value.mid, err_bound=value.rad,
                           uniform_s=s0 if uniform else None)


def sigma_maximal_constant_uniform(s: int) -> Ball:
    """Closed form e^gamma / zeta(2s) for sets with s(p) = s at every prime.

    zeta(2s) is the full set's truncated series with its integral enclosure
    of the tail (ZetaEvaluation.series, within about 1e-9), so this is a
    second route to sigma_maximal_constant, which divides by the
    Euler-Maclaurin zeta(2s)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    return Ball.rounded(EULER_GAMMA).exp() / _zeta_full(2.0 * s, 1e-9).series


@dataclass(frozen=True)
class WitnessSequence:
    """A factored witness integer for the sigma_S maximal order.

    Built from a threshold t (tail primes near the Mertens limit), an
    exponent a for the all-in primes up to t, squarefull blocks p^(2s(p)-1)
    for the rest, and all primes in (t, e^k]. n is never materialized;
    log_n sums e*ln(p) over the factorization, sigma_over_n multiplies the
    exact local ratios sigma_S(p^e)/p^e, and ratio divides by ln(log_n).
    """

    sset_spec: str
    epsilon: float
    k: int
    t: int
    a: int | None
    factorization: tuple
    log_n: float
    sigma_over_n: float
    ratio: float


def witness_sequence(S: SSet, epsilon: float, k: int) -> WitnessSequence:
    """The k-th witness for sigma_S(n)/(n ln ln n) at tolerance epsilon.

    t is the least t with prod_{p > t} (1 - p^-2) >= 1 - epsilon (through a
    certified zeta(2)); a is the least a with prod_{all-in p <= t}
    (1 - p^-a) >= 1 - epsilon. Every prime in (t, e^k] has exponent 1, so
    as k grows the ratio tends to

        L_S(epsilon) = (e^gamma / zeta(2)) prod_{p <= t} f_p / (1 - p^-2),

    f_p = 1 - p^-a at all-in p and 1 - p^(-2 s(p)) elsewhere, and
    (1 - epsilon)^2 C <= L_S(epsilon) <= C for the limsup constant C of
    sigma_maximal_constant, with equality when s(p) = 1 at every prime
    (S = 1, L2: the witnesses are then the primorials). For 6 <= k <= 15
    (286 <= e^k < 1e8) the Rosser-Schoenfeld bounds on prod p/(p-1) and
    theta put the ratio in [L_S, L_S (1 + 2/k^2)], and the ratios decrease
    in k: the witnesses approach L_S from above, not from below.
    """
    if S.mult is None:
        raise ValueError(f"{S.spec!r} is not a multiplicative set")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 1 <= k <= 15:
        raise LimitError("k must lie in 1..15 (primes to e^k are sieved)")
    m = S.mult

    # least t with prod_{p > t} (1 - p^-2) >= 1 - eps, via certified zeta(2)
    z2 = _zeta_full(2.0, 1e-9).best
    z2_hi = z2.mid + z2.rad
    t = 1
    prod_le = 1.0
    while 1.0 / (z2_hi * prod_le) < 1.0 - epsilon:
        t += 1
        if t > 10**6:
            raise LimitError(f"epsilon {epsilon} needs threshold beyond 1e6")
        if is_prime(t):
            prod_le *= 1.0 - float(t) ** -2.0

    small = sieve_primes(t)
    all_in = [p for p in small if m.rule_at(p).kind == "all"]

    a = None
    if all_in:
        a = 1
        while math.prod(1.0 - float(p) ** (-float(a)) for p in all_in) < 1.0 - epsilon:
            a += 1

    x = math.exp(k)
    tail = [p for p in sieve_primes(int(x)) if p > t]
    if not tail:
        raise ValueError(f"k={k} too small: no primes in ({t}, e^k]")

    fac = []
    for p in small:
        if p in all_in:
            if a is not None and a >= 2:
                fac.append((p, a - 1))
        else:
            s = m.rule_at(p).least_excluded()
            fac.append((p, 2 * s - 1))
    fac.extend((p, 1) for p in tail)

    log_n = 0.0
    log_ratio = 0.0
    for p, e in fac:
        log_n += e * math.log(p)
        num = sigma_S_prime_power(S, p, e)
        log_ratio += math.log(num) - e * math.log(p)
    if log_n < LOGLOG_FLOOR:
        raise ValueError(f"k={k} too small: log n = {log_n:.3f} below ln 16")

    sig_ratio = math.exp(log_ratio)
    _check_local_bound(m, fac, sig_ratio)
    ratio = sig_ratio / math.log(log_n)
    return WitnessSequence(sset_spec=S.spec, epsilon=epsilon, k=k, t=t, a=a,
                           factorization=tuple(fac), log_n=log_n,
                           sigma_over_n=sig_ratio, ratio=ratio)


def _check_local_bound(m, fac, sig_ratio: float) -> None:
    # sigma_S(n)/n <= prod_{p | n, all-in} (1-1/p)^-1
    #              * prod_{p | n, else} (1 + 1/p + ... + p^-(2s(p)-1))
    log_bound = 0.0
    for p, _ in fac:
        rule = m.rule_at(p)
        if rule.kind == "all":
            log_bound -= math.log1p(-1.0 / p)
        else:
            s = rule.least_excluded()
            log_bound += math.log(sum(float(p) ** -i for i in range(2 * s)))
    if sig_ratio > math.exp(log_bound) * (1.0 + 1e-9):
        raise ConsistencyError("witness ratio exceeds its local-factor bound")


# ---------------------------------------------------------------------------
# maximal order of tau_S

def tau_maximal_ratio(k: int) -> float:
    """ln tau_S * ln ln / ln evaluated on the k-th primorial.

    tau_S agrees with tau on squarefree integers whenever 1 lies in S, so
    tau_S(n_k) = 2^k and the ratio is k ln2 * ln(theta(p_k)) / theta(p_k)
    with theta the Chebyshev log-prime sum. Approaches ln 2 from above.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    bound = 15 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
    primes = sieve_primes(bound)
    while len(primes) < k:
        bound *= 2
        primes = sieve_primes(bound)
    theta = float(np.log(np.array(primes[:k], dtype=np.float64)).sum())
    if theta <= 1.0:
        raise ValueError("k too small for positive ln ln")
    return k * math.log(2.0) * math.log(theta) / theta


def gronwall_range_max(N: int = 10**6, start: int = 5041) -> tuple[float, int]:
    """max of sigma(n)/(n ln ln n) over start <= n <= N, with its argmax."""
    if start < 16:
        raise ValueError("start must be >= 16 for a stable ln ln")
    if N < start:
        raise ValueError("empty range")
    sig = multiplicative_table(N, _sigma_pp)
    ns = np.arange(N + 1, dtype=np.float64)
    vals = sig[start:] / (ns[start:] * np.log(np.log(ns[start:])))
    i = int(np.argmax(vals))
    return float(vals[i]), start + i
