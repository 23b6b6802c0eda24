"""Moebius functions attached to a set S, and the generating Dirichlet series.

Three functions go by the name mu here:

  * mu_S = rho_S * mu (mu_set_table, mu_set_at), an ordinary Dirichlet
    convolution: sum_{d | n} mu_S(d) = rho_S(n). For multiplicative S,
    mu_S(p^a) = rho_S(p^a) - rho_S(p^(a-1)), so its values lie in {-1, 0, 1}.

  * g, the inverse of I = 1 under the S-convolution (inverse_of_I, the
    CLI's `eval --fn mu`): when 1 is in S and rho_S is multiplicative,
    however S is stored, g(p^a) = -sum of g(p^i) over the i < a with
    p^min(i, a-i) in S. Over N, g is mu and mu_S is delta.
    inverse_of_I(S, lo, hi) is its one entry point, for every span and
    set: chunks of pointwise values or of the windowed sieve on that
    recurrence. The push sieve convolve.s_inverse is the tests' oracle.

  * mu_k (k-full Moebius), g for S = L_k; mu_k(p^a) depends on a only:
        mu_k(p^a) = -1              for 1 <= a < 2k
        mu_k(p^a) = mu_k(p^(a-1)) - mu_k(p^(a-k))   for a >= 2k.

The series zeta_S(z) = sum rho_S(n) n^(-z) converges for z > 1 and satisfies
sum mu_S(n) n^(-z) = zeta_S(z) / zeta(z).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import cache, lru_cache, partial
from itertools import count, islice

import numpy as np

from .arith import (
    _checked,
    _mu_pp,
    _windows,
    dirichlet_sweep,
    divisors,
    eval_multiplicative,
    multiplicative_table,
    multiplicative_windows,
    prime_array,
)
from .errors import ConsistencyError, LimitError
from .sets import (
    POINTWISE_SPAN,
    ExponentRule,
    SSet,
    Verdict,
    _require_associative,
    _rho_many,
    make_mult_sset,
    parse_sset,
    rho_table,
    s_divisors,
)

SERIES_CHECK_CAP = 1 << 16  # terms of the series that cross-checks the product
EULER_ORDER = 8      # K: zeta(kz) factored out of the Euler product for k <= K
EULER_CUTOFF = 200   # P: primes multiplied one by one; a certified bound covers the rest
EM_TERMS = 16        # Euler-Maclaurin: n < EM_TERMS summed directly (a power of two)
EM_ORDER = 10        # Euler-Maclaurin: Bernoulli corrections B_2 .. B_(2 EM_ORDER)


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
        c1, c0, overrides = S.mult.rho_linear  # mu_S(q) = rho_S(q) - 1
        return multiplicative_table(N, S.mult.mu_prime_power, (c1, c0 - 1, overrides))
    return dirichlet_sweep(rho_table(S, N), mu_table(N), N)


@lru_cache(maxsize=1 << 16)
def mu_at(n: int) -> int:
    """Ordinary Moebius function, pointwise."""
    return eval_multiplicative(_mu_pp, n)


def mu_set_at(S: SSet, n: int) -> int:
    """mu_S(n) pointwise; prime-power product for rule-based S, else the
    divisor sum rho_S * mu, with every divisor's membership looked up at once."""
    if S.mult is not None:
        return eval_multiplicative(S.mult.mu_prime_power, n)
    divs = divisors(n)
    return sum(mu_at(n // d) for d, h in zip(divs, _rho_many(S, divs)) if h)


# ---------------------------------------------------------------------------
# the S-inverse of I, and mu_k as its L_k case

def _inverse_of_I_pp(S: SSet, p: int, a: int) -> int:
    """g(p^a), g the S-inverse of I: minus the sum of g(p^i) over the
    S-divisors p^i < p^a, membership read by S.rho_prime_power. O(a^2) steps."""
    if a < 0:
        raise ValueError("exponent must be >= 0")
    g = [1]
    for b in range(1, a + 1):
        g.append(-sum(g[i] for i in range(b) if S.rho_prime_power(p, min(i, b - i))))
    return g[a]


def inverse_of_I(S: SSet, lo: int, hi: int) -> Iterable:
    """g(lo..hi), g the inverse of I = 1 under the S-convolution, as
    consecutive chunks; not mu_S = rho_S * mu (over L2, g(4) = -1 and
    mu_S(4) = 1). Each S that _require_associative passes holds 1 and is
    multiplicative (to its bound if table-backed), so g is: one list of
    pointwise values when hi - lo < POINTWISE_SPAN, else the int64 windows
    of arith.multiplicative_windows (each a view that the next overwrites),
    g(q) = -1 at every prime q > sqrt(hi), the points of _check_points(lo,
    hi) checked by _inverse_by_recurrence before their window is handed out
    (ConsistencyError). Refuses from this call, before any chunk: ValueError
    from _require_associative, LimitError when isqrt(hi) passes the bound."""
    _require_associative(S)
    if S.general is not None:
        rho_table(S, math.isqrt(hi))  # LimitError past the bound: the gcds read reach isqrt(hi)
    ppv = partial(_inverse_of_I_pp, S)
    if hi - lo < POINTWISE_SPAN:
        return [[eval_multiplicative(ppv, n) for n in range(lo, hi + 1)]]
    windows = multiplicative_windows(lo, hi, ppv, (0, -1, ()))
    return _checked("inverse_of_I window", windows, lo, hi, partial(_inverse_by_recurrence, S))


def _inverse_by_recurrence(S: SSet, n: int) -> int:
    """g(n) from g * I = delta alone, reading membership and no local value:
    g(m) = [m = 1] - sum of g(d) over the S-divisors d < m of m, memoised
    over the divisors m of n in ascending order."""
    g = {}
    for m in divisors(n):
        g[m] = int(m == 1) - sum(g[d] for d in s_divisors(S, m) if d < m)
    return g[n]


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
    return _inverse_of_I_pp(make_mult_sset(ExponentRule.at_least(k)), 2, a)


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

_U = 2.0 ** -53                # unit roundoff
_ROUND_UP = 1.0 + 2.0 ** -30   # covers the rounding of a radius's own arithmetic


def _down(x: float) -> float:  # a lower bound of the exact result that x rounds
    return math.nextafter(x, -math.inf)


def _result(mid: float, rad: float, ulps: int) -> Ball:  # a computed mid, ulps roundings
    return Ball(mid, (rad + ulps * _U * abs(mid)) * _ROUND_UP)


def _ball(x) -> Ball:
    return x if isinstance(x, Ball) else Ball(x)


class Ball:
    """A real number within rad of the float mid: midpoint-radius arithmetic
    after F. Johansson, "Arb: efficient arbitrary-precision midpoint-radius
    interval arithmetic", IEEE Trans. Comput. 66 (2017), and the one place
    that knows the rounding policy.

    Each operation computes its midpoint in floating point. Its radius is
    the input radii times a bound on the derivative over the whole input
    ball, plus the rounding of the midpoint: u |result| (u = 2^-53) after a
    basic operation, 2u after a libm call (pow, exp, log, log1p; glibc
    documents at most one ulp for each), raised by the factor _ROUND_UP.
    No result may underflow. float operands are exact, and so are ints that
    convert to float exactly; any other int gets the radius u |mid|. A division,
    negative or fractional power, or log whose ball reaches the singularity
    raises ValueError. Analytic remainders enter as Ball(0.0, remainder).
    """

    __slots__ = ("mid", "rad")

    def __init__(self, mid: float, rad: float = 0.0):
        self.mid, self.rad = float(mid), rad
        if isinstance(mid, int) and self.mid != mid:  # an int beyond 2^53 rounds
            self.rad = (rad + _U * abs(self.mid)) * _ROUND_UP

    def __repr__(self) -> str:
        return f"Ball({self.mid!r}, {self.rad!r})"

    @classmethod
    def rounded(cls, x: float) -> Ball:
        """x within u |x| of the real it rounds (a literal, an int / int)."""
        return cls(x, _U * abs(x))

    @staticmethod
    def fsum(terms: list) -> Ball:
        """The sum of Balls; math.fsum rounds the midpoint once."""
        return _result(math.fsum(t.mid for t in terms), sum(t.rad for t in terms), 1)

    def __neg__(self) -> Ball:
        return Ball(-self.mid, self.rad)

    def __add__(self, other) -> Ball:
        o = _ball(other)
        return _result(self.mid + o.mid, self.rad + o.rad, 1)

    def __sub__(self, other) -> Ball:
        return self + -_ball(other)

    def __rsub__(self, other) -> Ball:
        return -self + other

    def __mul__(self, other) -> Ball:
        o = _ball(other)
        rad = abs(self.mid) * o.rad + abs(o.mid) * self.rad + self.rad * o.rad
        return _result(self.mid * o.mid, rad, 1)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other) -> Ball:
        o = _ball(other)
        lo = _down(abs(o.mid) - o.rad)  # the least |divisor| on the ball
        if lo <= 0:
            raise ValueError(f"{self!r} / {o!r}: the divisor's ball reaches 0")
        q = self.mid / o.mid
        return _result(q, (self.rad + abs(q) * o.rad) / lo, 1)

    def __rtruediv__(self, other) -> Ball:
        return _ball(other) / self

    def __pow__(self, y: float) -> Ball:
        """self ** y for an exact y: |d t^y/dt| = |y| |t|^(y-1) is largest
        at the ball's largest |t| when y >= 1, else at its least."""
        m, r = self.mid, self.rad
        lo = _down(abs(m) - r)  # the least |t| on the ball
        if (y < 0 or y != int(y)) and lo <= 0 or y != int(y) and m < 0:
            raise ValueError(f"{self!r} ** {y}: the ball reaches the singularity at 0")
        d = abs(y) * (abs(m) + r if y >= 1 else lo) ** (y - 1) if r and y else 0.0
        return _result(m ** y, r * d, 2)

    def exp(self) -> Ball:
        return _result(math.exp(self.mid), self.rad * math.exp(self.mid + self.rad), 2)

    def log(self) -> Ball:
        return self._log(math.log(self.mid), _down(self.mid - self.rad))

    def log1p(self) -> Ball:
        return self._log(math.log1p(self.mid), _down(_down(1.0 + self.mid) - self.rad))

    def _log(self, mid: float, lo: float) -> Ball:  # lo: the least argument of the log
        if lo <= 0:
            raise ValueError(f"log of {self!r}: the ball reaches the singularity")
        return _result(mid, self.rad / lo, 2)


@dataclass(frozen=True)
class ZetaEvaluation:
    """A certified evaluation of zeta_S(z) = sum rho_S(n) n^(-z).

    series          the series at truncation terms with its tail: the crude
                    tail T^(1-z)/(z-1), or for the full set the midpoint and
                    half-gap of the integrals from T and from T+1 that
                    enclose it
    product, euler_cutoff
                    for rule-based S, the factored Euler product
                    (_factored_product) and its prime cutoff P; the two
                    routes overlap
    log_derivative  for rule-based S, zeta_S'(z)/zeta_S(z) from the product
    """

    z: float
    truncation: int
    series: Ball
    product: Ball | None = None
    euler_cutoff: int | None = None
    log_derivative: Ball | None = None

    @property
    def best(self) -> Ball:
        """The evaluation with the smaller radius."""
        if self.product is not None and self.product.rad < self.series.rad:
            return self.product
        return self.series


def _crude_tail(T: int, z: float) -> float:
    return T ** (1.0 - z) / (z - 1.0)


def _log_tail(T: int, z: float) -> float:
    """The integral of log(t) t^(-z) from T, at least sum_{n>T} log(n) n^(-z)
    since the integrand decreases beyond e^(1/z) < T."""
    return T ** (1.0 - z) * (math.log(T) / (z - 1.0) + (z - 1.0) ** -2)


def _is_full_set(S: SSet) -> bool:
    m = S.mult
    return m is not None and all(r.kind == "all" for r in (m.default_rule, *m.overrides.values()))


# B_2, B_4, ..., B_20 as (numerator, denominator)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))


def _zeta_em(z: float, k: int = 1) -> tuple[Ball, Ball]:
    """zeta(s) and zeta'(s) at s = kz by Euler-Maclaurin, as Balls.

    With N = EM_TERMS, m = EM_ORDER, b_j = B_2j/(2j)! and (s)_i the rising
    factorial s (s+1) ... (s+i-1),

        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{j<=m} b_j (s)_(2j-1) N^(1-s-2j) + R,

    |R| <= |b_m| (s)_(2m-1) N^(1-s-2m) (the remainder integral, with the
    periodic Bernoulli polynomial at most |B_2m|). -zeta'(s) = sum log(n) n^-s
    takes the same steps for log(x) x^-s, whose (2j-1)-th derivative at N is
    -(s)_(2j-1) N^(1-s-2j) (log N - H_(2j-1)), H_i = sum_{i' < i} 1/(s+i');
    its remainder is at most
    |b_m| (s)_(2m) N^(1-a) ((log N + H_(2m))/(a-1) + 1/(a-1)^2), a = s + 2m.
    n^-s is computed as (n^-z)^k, and s = kz is a Ball, so its rounding is
    carried; N is a power of two, so its powers are exact.
    """
    s = Ball(z) * k
    N = float(EM_TERMS)
    ts = [(Ball(n) ** -z) ** k for n in range(2, EM_TERMS + 1)]  # n^-s, n = 2..N
    logs = [Ball(n).log() for n in range(2, EM_TERMS + 1)]
    tN, lN = ts[-1], logs[-1]
    val = [Ball(1.0), *ts[:-1]]
    der = [lg * t for lg, t in zip(logs, ts[:-1])]
    sm1 = s - 1.0
    val += [tN * N / sm1, tN / 2.0]
    der += [tN * N * (lN / sm1 + 1.0 / (sm1 * sm1)), lN * tN / 2.0]
    poch, harm, nj = s, 1.0 / s, 1.0 / N  # (s)_(2j-1), H_(2j-1), N^(1-2j) at j = 1
    for j, (num, den) in enumerate(_BERNOULLI[:EM_ORDER], start=1):
        c = Ball.rounded(num / (den * math.factorial(2 * j))) * poch * tN * nj
        val.append(c)
        der.append(c * (lN - harm))
        if j < EM_ORDER:
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            harm += 1.0 / (s + 2 * j - 1) + 1.0 / (s + 2 * j)
            nj /= N * N
    a1 = s + 2 * EM_ORDER - 1
    rem_der = c * a1 * ((lN + harm + 1.0 / a1) / a1 + 1.0 / (a1 * a1))  # R' <= |rem_der|
    return (Ball.fsum(val + [Ball(0.0, abs(c.mid) + c.rad)]),  # |R| <= |c|
            -Ball.fsum(der + [Ball(0.0, abs(rem_der.mid) + rem_der.rad)]))


@cache
def _exponents(rule: ExponentRule) -> tuple[int, ...]:
    """e_1..e_K (K = EULER_ORDER), the integers with
    F(x) = prod_{k<=K} (1 - x^k)^(-e_k) + O(x^(K+1)), F(x) = 1 + sum_{a in rule} x^a
    the local factor at x = p^-z. Peeled one order at a time: e_k is the
    x^k coefficient left once (1 - x^j)^(-e_j), j < k, are divided out."""
    c = [1] + [int(rule.contains(a)) for a in range(1, EULER_ORDER + 1)]
    e = []
    for k in range(1, EULER_ORDER + 1):
        e.append(c[k])
        for _ in range(abs(c[k])):
            if e[-1] > 0:  # times (1 - x^k)
                for j in range(EULER_ORDER, k - 1, -1):
                    c[j] -= c[j - k]
            else:          # times 1/(1 - x^k)
                for j in range(k, EULER_ORDER + 1):
                    c[j] += c[j - k]
    return tuple(e)


@cache
def _log_coefficients(rule: ExponentRule, e: tuple[int, ...]) -> dict[int, int]:
    """c_j with log F(x) + sum_k e_k log(1 - x^k) = sum_j c_j log(1 - x^j) + Phi(x).

    For the rules all (F = 1/(1-x)), none and below k (F = (1-x^k)/(1-x)),
    log F itself is such a sum and Phi = 0, so where e comes from the same
    rule every c_j with j <= K cancels exactly; at_least and finite rules
    keep their log F as Phi (_local_log)."""
    c = dict(enumerate(e, start=1))
    if rule.kind in ("all", "below"):
        c[1] -= 1
    if rule.kind == "below":
        c[rule.k] = c.get(rule.k, 0) + 1
    return {j: cj for j, cj in c.items() if cj}


def _local_log(rule: ExponentRule, e: tuple[int, ...], p: int, z: float) -> tuple[Ball, Ball]:
    """g and dg/dz at the prime p, as Balls, where
    g = log F(x) + sum_k e_k log(1 - x^k), x = p^-z, F the local factor of rule,
    summed as the c_j log(1 - x^j) of _log_coefficients plus Phi."""
    x, lp = Ball(p) ** -z, Ball(p).log()
    g, dg = [], []
    for j, cj in _log_coefficients(rule, e).items():
        y = x ** j
        g.append(cj * (-y).log1p())
        dg.append(cj * j * lp * y / (1.0 - y))
    if rule.kind == "at_least":
        y = x ** rule.k / (1.0 - x)
        g.append(y.log1p())
        dg.append(-lp * y * (rule.k + x / (1.0 - x)) / (1.0 + y))
    elif rule.kind == "finite":
        ys = [(a, x ** a) for a in rule.members]
        w = sum(y for _, y in ys)
        g.append(w.log1p())
        dg.append(-lp * sum(a * y for a, y in ys) / (1.0 + w))
    return Ball.fsum(g), Ball.fsum(dg)


def _cauchy_bound(rule: ExponentRule, e: tuple[int, ...]) -> float:
    """M >= |g(x)| on the circle |x| = 1/3, g = sum_j c_j log(1 - x^j) + Phi(x).

    |log(1 - x^j)| <= -log(1 - 3^-j) there, and |F - 1| <= q < 1 gives
    |Phi| = |log F| <= -log(1 - q), with q = 3^-k/(1 - 1/3) for at_least k
    and q = sum_{a in A} 3^-a for finite A."""
    r = 1.0 / 3.0
    M = sum(abs(cj) * -math.log1p(-r ** j) for j, cj in _log_coefficients(rule, e).items())
    if rule.kind == "at_least":
        M -= math.log1p(-r ** rule.k / (1.0 - r))
    elif rule.kind == "finite":
        M -= math.log1p(-sum(r ** a for a in rule.members))
    return M


def _factored_product(S: SSet, z: float) -> tuple[Ball, Ball]:
    """zeta_S(z) and zeta_S'(z)/zeta_S(z) for rule-based S, as Balls.

    With e_k = _exponents(default rule) and K = EULER_ORDER,

        zeta_S(z) = prod_{k<=K} zeta(kz)^(e_k) * prod_p R_p,
        R_p = F_p(x) prod_{k<=K} (1 - x^k)^(e_k),   x = p^-z,

    F_p the local factor of the rule at p. zeta(kz) and zeta'(kz) come
    from _zeta_em; log R_p from _local_log at every prime p <= P =
    EULER_CUTOFF and every override prime. For the other primes,
    g = log R_p is analytic on |x| <= 1/3 and vanishes to order K at 0, so
    with M = _cauchy_bound and rho = 3 p^-z, |g| <= M rho^(K+1)/(1 - rho) and
    |dg/dz| <= log(p) M (K+1) rho^(K+1)/(1 - rho)^2; summed over the integers
    n > P with s = (K+1) z, the tail of log zeta_S is at most
    M 3^(K+1) P^(1-s)/((s-1)(1 - rho_P)) and that of the log-derivative
    M (K+1) 3^(K+1) P^(1-s) (log P/(s-1) + 1/(s-1)^2)/(1 - rho_P)^2.
    When M = 0 (rules all, none and below k <= K) the primes without an
    override contribute exactly 0 and are not sieved.
    """
    m = S.mult
    e = _exponents(m.default_rule)
    M = _cauchy_bound(m.default_rule, e)
    primes = prime_array(EULER_CUTOFF).tolist() if M else []
    rows = [_local_log(m.rule_at(p), e, p, z) for p in sorted({*primes, *m.overrides})]
    K1, s = EULER_ORDER + 1, (EULER_ORDER + 1) * z
    rho_p = 3.0 * EULER_CUTOFF ** -z  # rho at the largest x beyond P
    gain = M * 3.0 ** K1 * EULER_CUTOFF ** (1.0 - s) / (s - 1.0)
    tail = Ball(0.0, gain / (1.0 - rho_p))
    dtail = Ball(0.0, gain * K1 * (math.log(EULER_CUTOFF) + 1.0 / (s - 1.0)) / (1.0 - rho_p) ** 2)
    value = Ball.fsum([g for g, _ in rows] + [tail]).exp()
    dlog = [Ball.fsum([dg for _, dg in rows] + [dtail])]
    for k, ek in enumerate(e, start=1):
        if ek:
            zk, dk = _zeta_em(z, k)
            value *= zk ** ek
            dlog.append(ek * k * (dk / zk))
    return value, Ball.fsum(dlog)


def _series_partial(rs: np.ndarray, z: float, weight=None, start: int = 0) -> Ball:
    """sum rs[i] w(n) n^-z over n = start + i as a Ball, with no tail: rs
    rho_S on start..start + len(rs) - 1 (from 0, a table, whose n = 0
    entry is 0), w = 1, or the ufunc weight (np.log for -zeta_S').

    The one rounding count outside the Ball type: numpy's pairwise sum has
    no Ball form. Its depth is at most 19 + log2 of the terms n >= 1; 5 more
    u cover each pow and the midpoint, and 3 more a weight (the ufunc,
    within one ulp, and its product).
    """
    ns = np.arange(start, start + len(rs), dtype=np.float64)
    ns[0] = max(start, 1)
    w = None if weight is None else weight(ns)
    terms = np.power(ns, -z, out=ns)
    terms *= rs
    if w is not None:
        terms *= w
    partial = float(np.sum(terms))
    count = len(rs) - (start == 0)
    return Ball(partial, (24 + 3 * (w is not None) + math.log2(count)) * _U * partial)


def _series(S: SSet, T: int, z: float, logs: bool) -> tuple[Ball, Ball | None]:
    """sum_{n<=T} rho_S(n) n^-z and, when logs, sum_{n<=T} rho_S(n) log(n) n^-z
    (the series of -zeta_S'), as Balls with no tail, from one pass over
    0..T in windows of arith._window_width(T) entries: for rule-based S the
    int64 windows of multiplicative_windows on the linear form of rho_S,
    for table-backed S (T <= bound) bool windows that GeneralSSet.fill
    takes from its members. Each window's sums are _series_partial Balls,
    joined by Ball.fsum; a single window's Ball is the sum itself."""
    if S.mult is not None:
        windows = multiplicative_windows(0, T, S.mult.rho_prime_power, S.mult.rho_linear)
    else:
        windows = _windows(S.general.fill, 0, T, bool)
    plain, weighted, start = [], [], 0
    for rs in windows:
        plain.append(_series_partial(rs, z, start=start))
        if logs:
            weighted.append(_series_partial(rs, z, np.log, start))
        start += len(rs)
    join = lambda balls: balls[0] if len(balls) == 1 else Ball.fsum(balls)
    return join(plain), join(weighted) if logs else None


def _overlap(what: str, series: Ball, product: Ball) -> None:
    """ConsistencyError unless the series and product Balls of what overlap."""
    if abs(series.mid - product.mid) > series.rad + product.rad:
        raise ConsistencyError(
            f"series and product evaluations of {what} disagree: "
            f"{series.mid} vs {product.mid} beyond {series.rad + product.rad:.3g}"
        )


def zeta_S(S: SSet, z: float, tol: float = 1e-9) -> ZetaEvaluation:
    """Evaluate zeta_S(z) for z > 1 with a certified error of at most tol,
    floating-point rounding included; LimitError when no route reaches tol.

    Rule-based S: the factored Euler product (_factored_product), which also
    gives zeta_S'/zeta_S, cross-checked against the truncated series at
    min(T, SERIES_CHECK_CAP) terms: zeta_S against the series, and zeta_S'
    against the log-weighted series with its tail _log_tail; two Balls that
    do not overlap raise ConsistencyError; both series come from one
    windowed pass (_series). Table-backed S: the truncated series at T
    terms, its only route. T is the truncation at which the series tail
    meets tol: the crude tail T^(1-z)/(z-1), or for the full set an
    enclosure between two integrals. A table-backed S refuses a T past its
    membership bound (LimitError); the windows keep memory flat below it.
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
        # clamped in logs past every cap, since near z = 1 the power overflows a float
        q, e = tol * (z - 1.0), -1.0 / (z - 1.0)
        T = int(math.ceil(q ** e if math.log(q) * e < 60.0 else math.exp(60.0))) + 1
    T = max(T, 64)
    if S.mult is not None:
        T = min(T, SERIES_CHECK_CAP)
    elif T > S.general.bound:
        raise LimitError(
            f"tolerance {tol} unreachable for {S.spec!r}: membership bound "
            f"{S.general.bound} leaves tail {_crude_tail(S.general.bound, z):.3g}"
        )
    series, weighted = _series(S, T, z, logs=S.mult is not None)
    tail = _crude_tail(T, z)
    if full:  # the tail lies between the integrals from T + 1 and from T
        lo = _crude_tail(T + 1, z)
        series += Ball(0.5 * (tail + lo), 0.5 * (tail - lo))
    else:
        series += Ball(0.0, tail)
    ev = ZetaEvaluation(z=z, truncation=T, series=series)
    if S.mult is not None:
        prod, dlog = _factored_product(S, z)
        _overlap(f"zeta_{S.spec}({z})", series, prod)
        deriv = -(weighted + Ball(0.0, _log_tail(T, z)))
        _overlap(f"zeta_{S.spec}'({z})", deriv, prod * dlog)
        ev = replace(ev, product=prod, euler_cutoff=EULER_CUTOFF, log_derivative=dlog)
    if ev.best.rad > tol:
        raise LimitError(
            f"tolerance {tol} unreachable for zeta_{S.spec}({z}): best certified "
            f"bound {ev.best.rad:.3g} at truncation {T}"
        )
    return ev


@cache
def _zeta_full(z: float, tol: float) -> ZetaEvaluation:
    """zeta_S(N, z, tol), evaluated once per (z, tol) per process: zeta_S is
    deterministic. Only the full set is memoised, since a MultiplicativeSSet
    holds a dict and is not hashable, and a FILE: spec names a path, not its
    contents."""
    return zeta_S(parse_sset("N"), z, tol)


def zeta_S_derivative(S: SSet, z: float, tol: float = 1e-9) -> Ball:
    """zeta_S'(z) = -sum rho_S(n) log(n) n^(-z) as a Ball of radius at most
    tol, else LimitError.

    Rule-based S: zeta_S(z) times zeta_S'(z)/zeta_S(z), both from the
    factored product of zeta_S. Table-backed S: the log-weighted series of
    _series, whose tail is at most _log_tail(T), with T doubled from 64
    until that tail meets tol (at most the membership bound).
    """
    if z <= 1:
        raise ValueError("series diverges for z <= 1")
    if S.mult is not None:
        ev = zeta_S(S, z, tol)
        d = ev.product * ev.log_derivative
    else:
        T = 64
        while _log_tail(T, z) > tol and T < S.general.bound:
            T *= 2
        T = min(T, S.general.bound)
        d = -(_series(S, T, z, logs=True)[1] + Ball(0.0, _log_tail(T, z)))
    if d.rad > tol:
        raise LimitError(f"tolerance {tol} unreachable for zeta_{S.spec}'({z}): "
                         f"best certified bound {d.rad:.3g}")
    return d


def verify_mobius_identity(S: SSet, N: int, mu: np.ndarray) -> Verdict:
    """Check sum_{d | n} mu_S(d) = rho_S(n) for every n <= N, with mu the
    caller's mu_set_table(S, N)."""
    lhs = dirichlet_sweep(mu, np.ones(N + 1, dtype=np.int64), N)
    rs = rho_table(S, N)
    bad = np.flatnonzero(lhs[1:] != rs[1:])
    if len(bad):
        n = int(bad[0]) + 1
        return Verdict(False, bound=N, witness=(n, int(lhs[n]), int(rs[n])))
    return Verdict(True, bound=N)

