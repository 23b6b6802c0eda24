"""Exact integer primitives: prime sieves, factorization, divisor lists,
multiplicative evaluation, the prime-power values of tau, sigma, phi, mu,
tau* and sigma* (package-internal), Chebyshev's theta, the one
Dirichlet / S sweep, dirichlet_sweep, and the seeded self-check that every
table and stream builder runs (_check_points, _self_check, _checked).

Scalar code works with Python ints (arbitrary precision). Bulk tables are
numpy int64 with explicit range guards, see multiplicative_table and
dirichlet_sweep.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, LimitError

SELF_CHECK_SEED = 8191
SELF_CHECK_COUNT = 32
FACTOR_TABLE_LIMIT = 10**8  # one 32-bit word per index; beyond this, refuse
_INT64_MAX = np.iinfo(np.int64).max
_GATHER_BLOCK = 1 << 14  # entries per block of the multiplicative sieve's slice multiplies and gathers
_PPV_CHUNK = 1 << 12  # large primes per chunk of ppv(q, 1) calls in the multiplicative sieve


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
# not layer API: the kernel calls one once per prime power up to N, about
# N / log N times, and the layer tracer (perfbench/traced_cli.py) records a
# timed span per public call.

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


def multiplicative_table(limit: int, ppv, linear=None) -> np.ndarray:
    """int64 table t[0..limit] with t[n] = prod ppv(p, a) over p^a || n, t[1] = 1.

    The single window [0, limit] of the windowed sieve (_window_sieve), so
    the table is the only array of N entries. Every ppv value is taken
    first, small primes then large, each prime power once in ascending
    order, and guarded (LimitError) before the table is allocated; linear
    gives ppv(q, 1) at the primes q > isqrt(limit) as in
    multiplicative_windows.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    fill = _window_sieve(limit, ppv, linear)
    vals = np.empty(limit + 1, dtype=np.int64)
    fill(vals, 0)
    return vals


def multiplicative_windows(lo: int, hi: int, ppv, linear):
    """f(lo..hi), f(p^a) = ppv(p, a) and f(0) = 0, as consecutive int64
    windows of _window_width(hi) entries, each a view of one buffer that
    the next window overwrites: read a window before asking for the next.

    linear = (c1, c0, exceptions) gives ppv(q, 1) = c1 q + c0 at every
    prime q > isqrt(hi) outside exceptions, evaluated as one int64 array;
    ppv(q, 1) is called for the exceptions alone. Every value is taken and
    guarded here, before the first window is asked for, so LimitError
    comes from this call.
    """
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    return _windows(_window_sieve(hi, ppv, linear), lo, hi)


def _window_width(hi: int) -> int:
    """Entries per window of a stream to hi (_windows). Each sieve window makes
    one pass over the primes to sqrt(hi) and over the cofactors m < sqrt(hi)
    of the larger primes, so the width grows with sqrt(hi). Streaming
    sigma_S over Q2 to 1e7 (2-core box, best of 3) took 0.62, 0.37, 0.28
    and 0.23 s at 32, 64, 128 and 256 isqrt(hi), with a tracemalloc peak of
    14.6 MiB, set by the prime sieve, up to 128 and 16.7 MiB at 256."""
    return 128 * math.isqrt(hi)


def _windows(fill, lo: int, hi: int, dtype=np.int64):
    """fill(out, a) over lo..hi, window by window of _window_width(hi)
    entries, each a view of one buffer of dtype that the next overwrites.
    Refuses hi past FACTOR_TABLE_LIMIT (LimitError at the first window),
    as the sieve does: the width grows with sqrt(hi)."""
    if hi > FACTOR_TABLE_LIMIT:
        raise LimitError(f"stream limit {hi} exceeds {FACTOR_TABLE_LIMIT}")
    width = _window_width(hi)
    buf = np.empty(min(width, hi - lo + 1), dtype=dtype)
    for a in range(lo, hi + 1, width):
        out = buf[: min(width, hi + 1 - a)]
        fill(out, a)
        yield out


def _check_points(lo: int, hi: int) -> list[int]:
    """The SELF_CHECK_COUNT seeded points of a table or stream on lo..hi."""
    rng = random.Random(SELF_CHECK_SEED)
    return [rng.randint(lo, hi) for _ in range(SELF_CHECK_COUNT)]


def _self_check(name: str, values, direct, points, offset: int = 0) -> None:
    """Spot-check freshly built values, values[n - offset] at each of the
    points n, against direct(n); ConsistencyError on a mismatch."""
    for n in points:
        want = direct(n)
        got = int(values[n - offset])
        if got != want:
            raise ConsistencyError(f"{name} self-check failed at n={n}: {got} != {want}")


def _checked(name: str, windows, lo: int, hi: int, direct):
    """The windows of a stream on lo..hi, each passed on once the points of
    _check_points(lo, hi) in it match direct."""
    points, a = _check_points(lo, hi), lo
    for out in windows:
        b = a + len(out)
        _self_check(name, out, direct, [n for n in points if a <= n < b], a)
        yield out
        a = b


def _window_sieve(hi: int, ppv, linear=None):
    """fill(out, a), writing f(a), ..., f(a + len(out) - 1) into out for
    any window inside [0, hi] (f(0) = 0), f(p^a) = ppv(p, a).

    Takes every value the windows need first, guarded by _guard_growth:
    ppv(p, a) at each prime p <= sqrt(hi) for every p^a <= hi, then ppv(q, 1)
    at the larger primes, in chunks of _PPV_CHUNK calls, or from linear
    when given (see multiplicative_windows) behind its own guard_int64. A window
    applies each small prime to its multiples with exact exponents, a block
    of _GATHER_BLOCK multiples at a time. Every n <= hi has at most one
    prime factor q > sqrt(hi), to exponent 1, so n = m q with m < sqrt(hi):
    the large primes are applied through their multiples m q, one gather
    per m over each _GATHER_BLOCK slice of the prime array.
    """
    if hi > FACTOR_TABLE_LIMIT:
        raise LimitError(f"table limit {hi} exceeds {FACTOR_TABLE_LIMIT}")
    primes = prime_array(hi)
    n_small = int(np.searchsorted(primes, math.isqrt(hi), side="right"))
    small = primes[:n_small].tolist()
    small_vals, powers = [], []  # ppv(p, a) per small prime p; every p^a <= hi
    for p in small:
        pv, pa = [], p
        while pa <= hi:
            pv.append(ppv(p, len(pv) + 1))
            powers.append(pa)
            pa *= p
        small_vals.append(pv)
    _guard_growth([v for pv in small_vals for v in pv], powers, hi)
    large = primes[n_small:]
    f_large = np.empty(len(large), dtype=np.int64)
    if linear is not None and len(large):
        c1, c0, exceptions = linear
        guard_int64(abs(c1) * int(large[-1]) + abs(c0), "linear ppv(q, 1)")
        np.multiply(large, c1, out=f_large)
        f_large += c0
        for q in sorted(exceptions):
            i = int(large.searchsorted(q))
            if i < len(large) and large[i] == q:
                v = ppv(q, 1)
                _guard_growth([v], [q], hi)  # before it can overflow its int64 slot
                f_large[i] = v
    # in chunks: one list of every large prime's value left its pymalloc
    # arenas resident, about 1.4 MiB of peak RSS at 2.5e5
    for s in range(0, len(large), _PPV_CHUNK):
        q = large[s : s + _PPV_CHUNK]
        fq = f_large[s : s + len(q)] if linear is not None else [ppv(p, 1) for p in q.tolist()]
        _guard_growth(fq, q, hi)
        f_large[s : s + len(q)] = fq

    def fill(out: np.ndarray, a: int) -> None:
        b = a + len(out)  # the window is [a, b)
        out.fill(1)
        if a == 0:
            out[0] = 0
        for p, pv in zip(small, small_vals):
            # multiple j p of a block, j0 <= j < j1, is divisible by p^(k+1) iff p^k | j;
            # multiplied through a named view, as out[x:y:p] *= fac would copy the slice back
            count = (b - 1) // p + 1
            for j0 in range(max(1, -(-a // p)), count, _GATHER_BLOCK):
                j1 = min(j0 + _GATHER_BLOCK, count)
                fac = np.full(j1 - j0, pv[0], dtype=np.int64)
                step = p
                for v in pv[1:]:
                    fac[-j0 % step :: step] = v
                    step *= p
                part = out[j0 * p - a : (j1 - 1) * p - a + 1 : p]
                part *= fac
        for s in range(0, len(large), _GATHER_BLOCK):
            q, fq = large[s : s + _GATHER_BLOCK], f_large[s : s + _GATHER_BLOCK]
            if q[0] >= b:
                break
            ms = np.arange(max(1, -(-a // int(q[-1]))), (b - 1) // int(q[0]) + 1)
            starts = q.searchsorted(-(-a // ms)).tolist()  # the q with a <= m q < b
            ends = q.searchsorted((b - 1) // ms, side="right").tolist()
            for m, i, k in zip(ms.tolist(), starts, ends):
                if i < k:
                    at = m * q[i:k]
                    if a:
                        at -= a
                    out[at] *= fq[i:k]

    return fill


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
