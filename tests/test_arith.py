"""Tests for the sieve and factorization layer.

Reference values come from brute-force reimplementations kept local to this
file, plus a handful of classical constants checked against independent
computer algebra output.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sconv.arith import (
    _GATHER_BLOCK,
    _mu_pp,
    _phi_pp,
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
    prime_array,
    sieve_primes,
)
from sconv.errors import LimitError
from sconv.sets import parse_sset


def brute_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_prime_array_small():
    assert prime_array(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_array(2).tolist() == [2]
    assert prime_array(1).tolist() == []


def test_prime_count_to_one_million():
    # pi(10^6) = 78498, classical count
    assert prime_array(10**6).size == 78498


def test_prime_array_odd_sieve_matches_brute_force():
    # every limit to 3000 covers each odd prime square and its neighbours
    brute = [n for n in range(2, 3001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for limit in range(3001):
        got = prime_array(limit)
        assert got.dtype == np.int64, limit
        assert got.tolist() == [p for p in brute if p <= limit], limit


def test_prime_array_counts():
    # pi(4e6), pi(2^22) (the largest Euler cutoff) and pi(2e7) (PRODUCT_CUTOFF)
    for limit, count in [(4 * 10**6, 283146), (1 << 22, 295947), (2 * 10**7, 1270607)]:
        ps = prime_array(limit)
        assert ps.dtype == np.int64 and ps.size == count, limit


def test_sieve_primes_is_list():
    ps = sieve_primes(100)
    assert isinstance(ps, list)
    assert ps == prime_array(100).tolist()
    assert len(ps) == 25


def test_factorize_matches_brute():
    for n in range(1, 2000):
        assert factorize(n) == brute_factorize(n), n


def test_divisors_sorted_and_complete():
    for n in range(1, 401):
        ds = divisors(n)
        assert ds == brute_divisors(n), n
        assert ds == sorted(ds)


def test_eval_multiplicative_sigma():
    sigma_pp = lambda p, a: (p ** (a + 1) - 1) // (p - 1)
    # sigma(2016) = 6552 with 2016 = 2^5 3^2 7
    assert eval_multiplicative(sigma_pp, 2016) == 6552
    assert eval_multiplicative(sigma_pp, 1) == 1
    for n in range(1, 600):
        assert eval_multiplicative(sigma_pp, n) == sum(brute_divisors(n)), n


def test_guard_int64():
    guard_int64(2**62, "fits")
    with pytest.raises(LimitError):
        guard_int64(2**63, "too big")


def test_multiplicative_table_sigma():
    sigma_pp = lambda p, a: (p ** (a + 1) - 1) // (p - 1)
    tab = multiplicative_table(3000, sigma_pp)
    assert tab[0] == 0 and tab[1] == 1
    for n in range(1, 3001):
        assert tab[n] == sum(brute_divisors(n)), n


def test_multiplicative_table_tau_spot():
    tau_pp = lambda p, a: a + 1
    tab = multiplicative_table(10**4, tau_pp)
    rng = random.Random(8191)
    for _ in range(200):
        n = rng.randrange(1, 10**4 + 1)
        assert tab[n] == len(brute_divisors(n)), n


def test_multiplicative_table_matches_pointwise_around_prime_squares():
    # limits at and next to p^2 (2209 = 47^2) put the prime isqrt(limit) on
    # the edge between exponent-tracked primes and the single large prime
    ppvs = {
        "rho_Q2": lambda p, a: 1 if a < 2 else 0,
        "mu": lambda p, a: -1 if a == 1 else 0,
        "signed": lambda p, a: 0 if a == 3 else (-1) ** (p + a) * (p + a),
    }
    for limit in (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 48, 49, 50, 2208, 2209, 2210):
        for name, ppv in ppvs.items():
            tab = multiplicative_table(limit, ppv)
            assert len(tab) == limit + 1 and tab[0] == 0, (name, limit)
            want = [eval_multiplicative(ppv, n) for n in range(1, limit + 1)]
            assert tab[1:].tolist() == want, (name, limit)


def test_multiplicative_table_matches_pointwise_at_every_small_limit():
    ppvs = [_sigma_pp, _mu_pp, _phi_pp, lambda p, a: (-1) ** a * (p + a) if a != 2 else 0]
    for limit in range(1, 65):
        for ppv in ppvs:
            want = [0] + [eval_multiplicative(ppv, n) for n in range(1, limit + 1)]
            assert multiplicative_table(limit, ppv).tolist() == want, limit


def recorded_draws(seed: int):
    """A ppv drawing each value on [-9, 9], with the (p, a) it was asked for
    in call order and the draws by prime power."""
    rng, calls, draws = random.Random(seed), [], {}

    def ppv(p, a):
        calls.append((p, a))
        draws[p, a] = rng.randint(-9, 9)
        return draws[p, a]
    return ppv, calls, draws


def test_multiplicative_table_across_block_edges():
    # limit // p one below, at and one above a block of multiples for p = 2
    # and 3, then two full blocks (where a block's exponent offsets depend on
    # its start), with values that vanish and change sign
    B = _GATHER_BLOCK
    limits = (2 * B - 2, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 2, 3 * B - 1, 3 * B, 3 * B + 3,
              4 * B, 6 * B + 2)
    top = max(limits)
    for ppv in (_mu_pp, parse_sset("L2").mult.mu_prime_power, parse_sset("Q3").mult.mu_prime_power):
        want = [0] + [eval_multiplicative(ppv, n) for n in range(1, top + 1)]
        for limit in limits:
            assert multiplicative_table(limit, ppv).tolist() == want[: limit + 1], limit
    for limit in limits:
        ppv, calls, draws = recorded_draws(limit)
        tab = multiplicative_table(limit, ppv)
        # each prime power once: the primes to sqrt(limit) with every exponent, then the rest
        r = math.isqrt(limit)
        small = [(p, a) for p in sieve_primes(r) for a in range(1, 64) if p ** a <= limit]
        assert calls == small + [(q, 1) for q in sieve_primes(limit) if q > r]
        want = [eval_multiplicative(lambda p, a: draws[p, a], n) for n in range(1, limit + 1)]
        assert tab[1:].tolist() == want and tab[0] == 0, limit


def test_multiplicative_table_peak_memory_is_near_its_result():
    # the table is the only array of N entries; with N-entry work arrays beside it, 2.7x
    multiplicative_table(1000, _sigma_pp)
    tracemalloc.start()
    try:
        tab = multiplicative_table(10**6, _sigma_pp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab[720720] == sum(brute_divisors(720720))
    assert peak <= 1.5 * tab.nbytes, peak / tab.nbytes


def test_multiplicative_table_overflow_refused_before_the_table():
    # only the primes above sqrt(limit) carry large values; LimitError comes
    # while at most the sieve is held, before the 8 MB table is allocated
    limit = 10**6
    tracemalloc.start()
    try:
        with pytest.raises(LimitError):
            multiplicative_table(limit, lambda p, a: p ** 10 if p > 1000 else 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (limit + 1) / 4, peak


def brute_mu(n: int) -> int:
    fac = brute_factorize(n)
    return 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)


BRUTE_DEFINITIONS = {
    "tau": (_tau_pp, lambda n: len(brute_divisors(n))),
    "sigma": (_sigma_pp, lambda n: sum(brute_divisors(n))),
    "phi": (_phi_pp, lambda n: sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)),
    "mu": (_mu_pp, brute_mu),
    "tau_star": (_tau_star_pp, lambda n: 2 ** len(brute_factorize(n))),
    "sigma_star": (_sigma_star_pp,
                   lambda n: sum(d for d in brute_divisors(n) if math.gcd(d, n // d) == 1)),
}


@pytest.mark.parametrize("name", sorted(BRUTE_DEFINITIONS))
def test_prime_power_definitions_match_brute(name):
    # each shared ppv, through the table kernel and the pointwise evaluator
    ppv, brute = BRUTE_DEFINITIONS[name]
    N = 2000
    tab = multiplicative_table(N, ppv)
    for n in range(1, N + 1):
        want = brute(n)
        assert tab[n] == want, (name, n)
        assert eval_multiplicative(ppv, n) == want, (name, n)


def test_multiplicative_table_overflow_guard():
    # each entry near n^3 pushes the certified bound past int64
    cube = lambda p, a: p ** (3 * a)
    with pytest.raises(LimitError):
        multiplicative_table(10**7, cube)
    # only the primes above sqrt(limit), applied through their multiples, carry large values
    with pytest.raises(LimitError):
        multiplicative_table(10**4, lambda p, a: p ** 10 if p > 100 else 1)


SWEEP_NS = (1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 99, 100, 101)


def brute_sweep(f, g, N, member):
    """h[n] = sum of f[d] g[e] over every pair d e = n with member[gcd(d, e)]."""
    h = [0] * (N + 1)
    for d in range(1, N + 1):
        for e in range(1, N // d + 1):
            if member is None or member[math.gcd(d, e)]:
                h[d * e] += f[d] * g[e]
    return h


def test_dirichlet_sweep_matches_brute():
    rng = random.Random(7)
    ints = lambda: rng.randint(-9, 9)
    fracs = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    for N in SWEEP_NS:
        r = math.isqrt(N)
        masks = [None, np.ones(r + 1, dtype=bool)]
        masks += [np.array([rng.random() < 0.6 for _ in range(r + 1)]) for _ in range(4)]
        for draw, dtype in ((ints, np.int64), (fracs, object)):
            # index 0 holds junk: the sweep must ignore it
            f, g = ([7] + [rng.choice((0, 1, -1, draw())) for _ in range(N)] for _ in range(2))
            for member in masks:
                h = dirichlet_sweep(np.array(f, dtype=dtype), np.array(g, dtype=dtype), N, member)
                assert h.dtype == dtype
                assert h.tolist() == brute_sweep(f, g, N, member), (N, dtype, member)


def test_dirichlet_sweep_int64_guard_boundary():
    # N = 4 sums at most 2 isqrt(4) = 4 products per entry: the guard is
    # max|f| max|g| 4 < 2^63, so 2^61 - 1 stays int64 and 2^61 does not
    one = np.array([0, 1, 1, 1, 1], dtype=np.int64)
    for v, dtype in ((2**61 - 1, np.int64), (2**61, object), (-2**61, object)):
        h = dirichlet_sweep(np.array([0] + [v] * 4, dtype=np.int64), one, 4)
        assert h.dtype == dtype, v
        assert h.tolist() == [0, v, 2 * v, 2 * v, 3 * v], v
