"""Exact integer primitives: prime sieves, factorization, divisor lists,
multiplicative evaluation, the prime-power values of tau, sigma, phi, mu,
tau* and sigma* (package-internal), Chebyshev's theta, and the one
Dirichlet / S sweep, dirichlet_sweep.

Scalar code works with Python ints (arbitrary precision). Bulk tables are
numpy int64 with explicit range guards, see multiplicative_table and
dirichlet_sweep.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import LimitError

FACTOR_TABLE_LIMIT = 10**8  # one 32-bit word per index; beyond this, refuse
_INT64_MAX = np.iinfo(np.int64).max
_GATHER_BLOCK = 1 << 14  # entries per block of the large-prime gather in multiplicative_table


def prime_array(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (bulk form; empty for limit < 2).

    Sieves odd numbers only: comp[i] marks 2i + 1 composite, so the sieve
    takes (limit + 1) / 2 bytes and is released before the result is built.
    Raises LimitError above FACTOR_TABLE_LIMIT, before allocating the sieve.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > FACTOR_TABLE_LIMIT:
        raise LimitError(f"prime sieve limit {limit} exceeds {FACTOR_TABLE_LIMIT}")
    comp = np.zeros((limit + 1) // 2, dtype=bool)
    comp[0] = True  # 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not comp[p // 2]:
            comp[p * p // 2 :: p] = True  # odd multiples p^2, p^2 + 2p, ...
    odd = np.flatnonzero(~comp)  # the odd primes are 2 * odd + 1
    del comp
    # filled in place: np.concatenate with its temporaries left the peak RSS
    # of a 4e6 table build about 1 MiB higher
    out = np.empty(len(odd) + 1, dtype=np.int64)
    out[0] = 2
    np.multiply(odd, 2, out=out[1:])
    out[1:] += 1
    return out


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit in ascending order. limit < 2 gives []."""
    return prime_array(limit).tolist()


@lru_cache(maxsize=1 << 16)
def _factorize_small(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    for p in (2, 3):
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
    # remaining factors are 6k +- 1
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            if n % p == 0:
                a = 0
                while n % p == 0:
                    n //= p
                    a += 1
                out.append((p, a))
        f += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def factorize(n: int) -> list[tuple[int, int]]:
    """Canonical factorization of n >= 1 as [(p, a), ...], p ascending.

    factorize(1) == []. Cached trial division by 2, 3 and 6k +- 1 (fine up
    to ~1e12 for occasional calls); bulk work goes through the sieves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_factorize_small(n))


def is_prime(n: int) -> bool:
    """Primality by factorize; for the occasional scalar query."""
    return n >= 2 and factorize(n)[0][0] == n


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, a in factorize(n):
        pk = 1
        ext = []
        for _ in range(a):
            pk *= p
            ext.extend(d * pk for d in divs)
        divs.extend(ext)
    divs.sort()
    return divs


def eval_multiplicative(ppv, n: int):
    """Value at n of the multiplicative function with f(p^a) = ppv(p, a).

    f(1) = 1 by convention. Exact: products of Python ints stay exact.
    """
    val = 1
    for p, a in factorize(n):
        val *= ppv(p, a)
    return val


# Prime-power values ppv(p, a), a >= 1, of the classical multiplicative
# functions: the one definition of each, passed as is to eval_multiplicative
# and multiplicative_table. They are package-internal per-prime callbacks,
# not layer API: the kernel calls one per prime above sqrt N, and the layer
# tracer (perfbench/traced_cli.py) records a timed span per public call.

def _tau_pp(p: int, a: int) -> int:
    """Divisor count: tau(p^a) = a + 1."""
    return a + 1


def _sigma_pp(p: int, a: int) -> int:
    """Divisor sum: sigma(p^a) = 1 + p + ... + p^a."""
    return (p ** (a + 1) - 1) // (p - 1)


def _phi_pp(p: int, a: int) -> int:
    """Euler's totient: phi(p^a) = p^a - p^(a-1)."""
    return p ** a - p ** (a - 1)


def _mu_pp(p: int, a: int) -> int:
    """Moebius: mu(p) = -1, mu(p^a) = 0 for a >= 2."""
    return -1 if a == 1 else 0


def _tau_star_pp(p: int, a: int) -> int:
    """Unitary divisor count: tau*(p^a) = 2, so tau*(n) = 2^omega(n)."""
    return 2


def _sigma_star_pp(p: int, a: int) -> int:
    """Unitary divisor sum: sigma*(p^a) = 1 + p^a."""
    return p ** a + 1


def guard_int64(bound: int, context: str) -> None:
    """Raise before building a table whose entries could exceed int64."""
    if bound >= _INT64_MAX:
        raise LimitError(f"{context}: values up to {bound} cannot be tabulated in int64")


def _guard_growth(values: list, powers, limit: int) -> None:
    """LimitError once limit^c reaches 2^63, with c the largest log|v| / log q
    over values v = ppv(p, a) at prime powers q = p^a; every |t[n]| <= n^c."""
    mag = np.abs(np.array(values, dtype=np.float64))
    np.log(np.maximum(mag, 1.0, out=mag), out=mag)  # log|v|, 0 where |v| <= 1
    c = float((mag / np.log(powers)).max(initial=0.0))
    if c * math.log(limit) >= 63 * math.log(2):
        raise LimitError(f"multiplicative_table: entries up to {limit}^{c:.3g} overflow int64")


def multiplicative_table(limit: int, ppv) -> np.ndarray:
    """int64 table t[0..limit] with t[n] = prod ppv(p, a) over p^a || n, t[1] = 1.

    O(N log log N). Every n <= limit has at most one prime factor above
    sqrt(limit), and to exponent 1. Primes up to sqrt(limit) are applied
    with exact per-multiple exponents, and their prime powers are collected
    in an int32 array `smooth`; the cofactor n // smooth[n] is then 1 or the
    one large prime q of n, so all larger primes are applied in a single
    gather of ppv(q, 1). _guard_growth raises LimitError before a value
    that could overflow int64 is stored.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > FACTOR_TABLE_LIMIT:
        raise LimitError(f"table limit {limit} exceeds {FACTOR_TABLE_LIMIT}")
    primes = prime_array(limit)
    n_small = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    small = primes[:n_small].tolist()
    small_vals, powers = [], []  # ppv(p, a) per small prime p; every p^a <= limit
    for p in small:
        pv, pa = [], p
        while pa <= limit:
            pv.append(ppv(p, len(pv) + 1))
            powers.append(pa)
            pa *= p
        small_vals.append(pv)
    _guard_growth([v for pv in small_vals for v in pv], powers, limit)
    vals = np.ones(limit + 1, dtype=np.int64)
    vals[0] = 0
    smooth = np.ones(limit + 1, dtype=np.int32)  # FACTOR_TABLE_LIMIT < 2^31
    for p, pv in zip(small, small_vals):
        # entry j of the slice [p::p] is (j+1) p, divisible by p^(a+1) iff (j+1) % p^a == 0
        fac = np.full(limit // p, pv[0], dtype=np.int64)
        pw = np.full(limit // p, p, dtype=np.int32)
        step = p
        for v in pv[1:]:
            fac[step - 1 :: step] = v
            pw[step - 1 :: step] = step * p
            step *= p
        vals[p::p] *= fac
        smooth[p::p] *= pw
    large = primes[n_small:]
    f_large = [ppv(q, 1) for q in large.tolist()]
    _guard_growth(f_large, large, limit)
    f_large = np.array(f_large, dtype=np.int64)
    f1 = np.ones(limit + 1, dtype=np.int64)  # allocated once the lists above are freed
    f1[large] = f_large
    for lo in range(0, limit + 1, _GATHER_BLOCK):  # blocks bound the transient arrays
        hi = min(lo + _GATHER_BLOCK, limit + 1)
        vals[lo:hi] *= f1[np.arange(lo, hi, dtype=np.int32) // smooth[lo:hi]]
    return vals


def dirichlet_sweep(f: np.ndarray, g: np.ndarray, N: int, member=None) -> np.ndarray:
    """Table h[0..N] with h[n] = sum over d e = n, gcd(d, e) in S, of f[d] g[e].

    f and g cover 0..N (index 0 ignored); member is a bool mask of S on
    0..r = isqrt(N), and None admits every pair (the Dirichlet product).
    Every pair d e <= N has min(d, e) <= r (the hyperbola split): one slice
    add per d <= r over all e, then one per e <= r over the d > r. int64
    when f and g are and max|f| max|g| 2r < 2^63 (an entry sums at most
    tau(n) <= 2 isqrt(n) products), else object arrays of exact numbers.
    """
    r = math.isqrt(N)
    exact = f.dtype == object or g.dtype == object
    dtype = object if exact or _abs_max(f, N) * _abs_max(g, N) * 2 * r >= 1 << 63 else np.int64
    f, g = f.astype(dtype, copy=False), g.astype(dtype, copy=False)
    fv, gv = f[: r + 1].tolist(), g[: r + 1].tolist()
    out = np.zeros(N + 1, dtype=dtype)
    for d in range(1, r + 1):  # e = 1 .. N // d at out[d::d]
        if fv[d]:
            out[d::d] += fv[d] * _admitted(member, d, g, 1, N // d + 1)
    for e in range(1, r + 1):  # d = r + 1 .. N // e at out[(r + 1) e::e]
        if gv[e] and N // e > r:
            out[(r + 1) * e :: e] += _admitted(member, e, f, r + 1, N // e + 1) * gv[e]
    return out


def _abs_max(a: np.ndarray, N: int) -> int:
    """max |a[n]| over 1..N as a Python int (abs of int64 -2^63 wraps)."""
    return max(int(a[1 : N + 1].max(initial=0)), -int(a[1 : N + 1].min(initial=0)))


def _admitted(member, k: int, vals: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """vals[lo:hi] with entry j zeroed where gcd(k, j) is not in S (member
    None keeps all). The mask has period k in j: one gather of k entries,
    tiled (np.resize would concatenate a tuple of (hi - lo) / k copies)."""
    part = vals[lo:hi]
    if member is None:
        return part
    pat = member[np.gcd(k, np.arange(lo, lo + min(k, hi - lo)))]
    if pat.all():
        return part
    return np.where(np.tile(pat, -(-(hi - lo) // len(pat)))[: hi - lo], part, 0)
