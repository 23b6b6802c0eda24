"""The S-restricted convolution of arithmetical functions.

For a set S of positive integers,

    (f * g)(n) = sum over d | n with gcd(d, n/d) in S of f(d) g(n/d),

so S = all integers gives the Dirichlet product and S = {1} the unitary one.
A divisor d of n with gcd(d, n/d) in S is called an S-divisor of n below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (
    _admitted,
    _mu_pp,
    _phi_pp,
    _sigma_pp,
    _sigma_star_pp,
    _tau_pp,
    _tau_star_pp,
    dirichlet_sweep,
    eval_multiplicative,
    multiplicative_table,
)
from .errors import ConsistencyError, LimitError
from .sets import SSet, _require_associative, rho, rho_table, s_divisors, witness_text

DEFAULT_SEED = 8191  # seed for reproducible random-function property checks


class ArithFunc:
    """An arithmetical function: a plain evaluator n -> value.

    Values are exact Python ints (or Fractions for inverses). A function
    may also carry array(N), its int64 table on 0..N, which the bulk sweeps
    read in place of N pointwise calls.
    """

    def __init__(self, fn, name: str = "f", array=None):
        self._fn = fn
        self._values = None  # a from_table function's ndarray or list
        self._array = array  # N -> int64 table on 0..N, or None
        self.name = name

    def __call__(self, n: int):
        if n < 1:
            raise ValueError("arithmetical functions are defined on n >= 1")
        return self._fn(n)

    def __repr__(self):
        return f"ArithFunc({self.name})"

    @classmethod
    def from_table(cls, values, name: str = "table") -> "ArithFunc":
        """From a 1-indexed dense table (values[0] unused).

        A pointwise call reads one entry as a Python scalar, in place
        (ndarray.item), so an int64 table yields Python ints and pointwise
        arithmetic on them cannot wrap; table() lists only the prefix it
        returns. An int64 ndarray is kept, not copied, as a read-only view
        for array(), which the sweeps read.
        """
        func = cls(None, name=name)
        func._values = vals = values if isinstance(values, np.ndarray) else list(values)
        read = vals.item if isinstance(vals, np.ndarray) else vals.__getitem__

        def lookup(n):
            if n >= len(vals):
                raise LimitError(f"{name} tabulated only to {len(vals) - 1}")
            return read(n)

        func._fn = lookup
        if isinstance(vals, np.ndarray) and vals.dtype == np.int64:
            view = vals.view()
            view.flags.writeable = False

            def array(N, _a=view):
                if N >= len(_a):
                    raise LimitError(f"{name} tabulated only to {len(_a) - 1}")
                return _a[: N + 1]

            func._array = array
        return func

    @classmethod
    def from_prime_powers(cls, ppv, name: str = "mult") -> "ArithFunc":
        """Multiplicative function from its prime-power values ppv(p, a)."""
        return cls(lambda n: eval_multiplicative(ppv, n), name=name)

    @classmethod
    def named(cls, ident: str) -> "ArithFunc":
        try:
            return _NAMED[ident]()
        except KeyError:
            raise KeyError(f"unknown function {ident!r}; have {sorted(_NAMED)}") from None

    def table(self, N: int) -> list:
        """Dense 1-indexed value table [0, f(1), ..., f(N)]."""
        if self._values is not None and N < len(self._values):
            head = self._values[1 : N + 1]
            return [0, *(head.tolist() if isinstance(head, np.ndarray) else head)]
        return [0] + [self(n) for n in range(1, N + 1)]

    def array(self, N: int) -> np.ndarray | None:
        """The int64 table on 0..N (index 0 unused), or None when the
        function carries none."""
        return None if self._array is None else self._array(N)


_NAMED = {
    "I": lambda: ArithFunc(lambda n: 1, name="I",
                           array=lambda N: (np.arange(N + 1) > 0).astype(np.int64)),
    "E": lambda: ArithFunc(lambda n: n, name="E",
                           array=lambda N: np.arange(N + 1, dtype=np.int64)),
    "delta": lambda: ArithFunc(lambda n: 1 if n == 1 else 0, name="delta",
                               array=lambda N: (np.arange(N + 1) == 1).astype(np.int64)),
    "mu": lambda: ArithFunc.from_prime_powers(_mu_pp, name="mu"),
    "tau": lambda: ArithFunc.from_prime_powers(_tau_pp, name="tau"),
    "sigma": lambda: ArithFunc.from_prime_powers(_sigma_pp, name="sigma"),
    "tau_star": lambda: ArithFunc.from_prime_powers(_tau_star_pp, name="tau_star"),
    "sigma_star": lambda: ArithFunc.from_prime_powers(_sigma_star_pp, name="sigma_star"),
    "phi": lambda: ArithFunc.from_prime_powers(_phi_pp, name="phi"),
}

NAMED_FUNCTIONS = tuple(sorted(_NAMED))


# ---------------------------------------------------------------------------
# the convolution

def s_convolve_at(S: SSet, f: ArithFunc, g: ArithFunc, n: int):
    """(f * g)(n) restricted to S-divisor pairs."""
    return sum(f(d) * g(n // d) for d in s_divisors(S, n))


def s_convolve_table(S: SSet, f: ArithFunc, g: ArithFunc, N: int) -> np.ndarray:
    """Dense table of f * g on 0..N (index 0 holds 0) as an ndarray.

    One arith.dirichlet_sweep, with S read from a table to isqrt(N) (every
    gcd(d, e) with d e <= N is at most that). A function that carries an
    int64 array goes in as that array; any other is tabulated pointwise and
    goes in as int64 when every value is a Python int in int64 range, else
    as exact objects (the sweep then runs both on objects).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return dirichlet_sweep(_sweep_table(f, N), _sweep_table(g, N), N, _membership(S, N))


def _membership(S: SSet, N: int) -> np.ndarray:
    """Bool indicator of S on 0..isqrt(N): every gcd(d, e) with d e <= N."""
    return rho_table(S, math.isqrt(N)).astype(bool)


def _sweep_table(f: ArithFunc, N: int) -> np.ndarray:
    """f on 0..N for dirichlet_sweep: its own int64 array when it carries
    one, else its pointwise table as int64 when every value is a Python int
    that fits, else as objects (np.array would infer float64 for an int
    past int64)."""
    arr = f.array(N)
    if arr is not None:
        return arr
    fv = f.table(N)
    if set(map(type, fv)) == {int} and -1 << 63 <= min(fv) and max(fv) < 1 << 63:
        return np.array(fv, dtype=np.int64)
    return np.array(fv, dtype=object)


def s_convolve(S: SSet, f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """The convolution as a function object (pointwise evaluator)."""
    return ArithFunc(lambda n: s_convolve_at(S, f, g, n), name=f"({f.name}*{g.name}|{S.spec})")


# ---------------------------------------------------------------------------
# inverses

def s_inverse(S: SSet, f: ArithFunc, N: int) -> list:
    """Table of the inverse of f under the S-convolution, on 1..N.

    Needs f(1) != 0 and an associative convolution (1 in S and every prime
    rule upward-closed), else it refuses: inverses are two-sided, since the
    convolution commutes, but (f*g)^-1 = f^-1 * g^-1 needs associativity.
    Exact: Python ints when f(1) is +-1 and f is integral, Fractions
    otherwise, with whole Fractions turned into ints.

        g(1) = 1/f(1),   g(n) = -(1/f(1)) * sum_{d S-divisor of n, d < n} g(d) f(n/d)

    A push sieve over the blocks [L, 2L): the terms of g(n) come from
    d <= n/2 < L, so once every earlier block has pushed g(d) f(e) to
    g[d e], the block's entries are final; the block then pushes its own
    pairs, one numpy pass per d or per e, whichever side is shorter.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    f1 = f(1)
    if f1 == 0:
        raise ValueError("f(1) = 0 has no convolution inverse")
    _require_associative(S)
    inv1 = int(f1) if f1 in (1, -1) else Fraction(1) / Fraction(f1)
    fv = f.table(N)
    fa = np.array(fv, dtype=object)
    member = _membership(S, N)
    g = np.zeros(N + 1, dtype=object)  # the pushed sums until a block is final
    g[1] = inv1
    L = 1
    while L <= N:
        hi = min(2 * L, N + 1)
        if L > 1:
            g[L:hi] = -inv1 * g[L:hi]
        if hi - L <= N // L - 1:  # fewer d in the block than e >= 2
            for d in range(L, hi):
                if g[d] and N // d >= 2:  # e = 2 .. N // d at g[2d::d]
                    g[2 * d :: d] += g[d] * _admitted(member, d, fa, 2, N // d + 1)
        else:
            for e in range(2, N // L + 1):  # d = L .. min(hi - 1, N // e)
                if fv[e]:
                    top = min(hi - 1, N // e)
                    g[L * e : top * e + 1 : e] += _admitted(member, e, g, L, top + 1) * fv[e]
        L *= 2
    return [int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
            for v in g.tolist()]


# ---------------------------------------------------------------------------
# structure witnesses

@dataclass(frozen=True)
class ZeroDivisorPair:
    """Nonzero f, g with f * g identically zero.

    Both are the indicator of the least m outside S, so (f * g)(n) has a
    term only at d = n/d = m: every n but checked_at = m^2 is zero with no
    term at all, and the value at m^2, rho(m) = 0, is computed exactly.
    """

    f: ArithFunc
    g: ArithFunc
    excluded: int
    checked_at: int


def _least_excluded_member(S: SSet) -> int | None:
    if S.general is not None:
        g = S.general
        b = g.members[g.members.searchsorted(2):]  # b[k] = k + 2 up to the first gap
        gap = np.flatnonzero(b != np.arange(2, len(b) + 2))
        m = int(gap[0]) + 2 if len(gap) else len(b) + 2
        return m if m <= g.bound else None  # saturated table: nothing excluded within the bound
    ms = S.mult
    cands = []
    for p, r in ms.overrides.items():
        s = r.least_excluded()
        if s is not None:
            cands.append(p ** s)
    s = ms.default_rule.least_excluded()
    if s is not None:
        cands.append(ms.least_default_prime() ** s)
    return min(cands) if cands else None


def indicator(m: int) -> ArithFunc:
    return ArithFunc(lambda n: 1 if n == m else 0, name=f"ind_{witness_text(m)}")


def _one_term(S: SSet, n: int, d: int, fd, ge):
    """(f * g)(n) when f vanishes off d (or g off n/d), from fd = f(d), ge = g(n/d)."""
    return fd * ge if rho(S, math.gcd(d, n // d)) else 0


def zero_divisor_pair(S: SSet) -> ZeroDivisorPair | None:
    """Zero divisors of the convolution, or None when S admits none.

    The full set N is the only S whose convolution has no zero divisors;
    every other S excludes some m, and ind_m * ind_m vanishes identically:
    ind_m(d) ind_m(n/d) is nonzero only at d = m, n = m^2, so the check reads
    that one term, rho_S(m), not the S-divisors of m^2 (m = 2^20000 on Q20000).
    """
    m = _least_excluded_member(S)
    if m is None:
        return None
    f = indicator(m)
    if _one_term(S, m * m, m, f(m), f(m)) != 0:
        raise ConsistencyError(f"{f.name} squared over {S.spec!r} is nonzero at"
                               f" {witness_text(m * m)}")
    return ZeroDivisorPair(f=f, g=f, excluded=m, checked_at=m * m)


def associativity_violation_functions(trip: tuple[int, int, int]):
    """Concrete (f, g, h, n) with ((f*g)*h)(n) != (f*(g*h))(n), built from
    the witness triple (n, d, e) of a False is_associative verdict.

    The indicators of e, d/e and n/d make each bracketing one term at n:
    ((f*g)*h)(n) = rho((d, n/d)) (f*g)(d) = rho((d, n/d)) rho((e, d/e)), and
    (f*(g*h))(n) = rho((e, n/e)) (g*h)(n/e) = rho((e, n/e)) rho((d/e, n/d)).
    """
    n, d, e = trip
    return (indicator(e), indicator(d // e), indicator(n // d), n)


# ---------------------------------------------------------------------------
# random functions for property checks

def random_arith_func(rng: random.Random, N: int, unit: bool = False,
                      name: str = "rand") -> ArithFunc:
    """Random integer-valued table function with values uniform on [-9, 9],
    drawn in bulk from rng and backed by an int64 array.

    unit=True forces f(1) != 0 so the function is invertible.
    """
    vals = np.zeros(N + 1, dtype=np.int64)
    vals[1:] = _uniform_digits(rng, N)
    if unit and N >= 1:
        while vals[1] == 0:
            vals[1] = _uniform_digits(rng, 1)[0]
    return ArithFunc.from_table(vals, name=name)


def _uniform_digits(rng: random.Random, count: int) -> np.ndarray:
    """count values uniform on [-9, 9], from rng.randbytes: a byte b < 247 =
    13 * 19 gives b % 19 - 9, a larger byte is dropped and drawn again."""
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        need = count - done
        b = np.frombuffer(rng.randbytes(need + (need >> 4) + 1), dtype=np.uint8)
        b = b[b < 247][:need]
        out[done : done + len(b)] = b % 19
        done += len(b)
    out -= 9
    return out


def random_multiplicative_func(rng: random.Random, N: int, name: str = "randmult") -> ArithFunc:
    """Random multiplicative function tabulated to N: one draw in [-9, 9]
    per prime power, requested by multiplicative_table (f(1) = 1). Its int64
    guard can refuse N above about 9.6e5, where a draw of +-9 at p = 2
    could overflow (9^log2(N) >= 2^63)."""
    return ArithFunc.from_table(multiplicative_table(N, lambda p, a: rng.randint(-9, 9)),
                                name=name)
