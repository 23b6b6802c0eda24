"""Tests for the restricted divisor-counting and divisor-sum functions.

All small-range values are checked against a longhand oracle: enumerate
divisors by trial division and admit d when gcd(d, n/d) passes a membership
predicate written independently of the package's rule machinery. The
pointwise square-divisor expansions of tau_S, sigma_S and of the
S-convolution of completely multiplicative functions are written out here
as the tests' own oracles.
"""

import math
import random

import numpy as np
import pytest

from sconv.arith import (
    SELF_CHECK_SEED,
    _sigma_pp,
    _sigma_star_pp,
    _tau_pp,
    _tau_star_pp,
    divisors,
    eval_multiplicative,
)
from sconv.convolve import ArithFunc, s_convolve_at
from sconv.divisor_functions import (
    PHI_DIRECT_CAP,
    _phi_direct,
    _square_divisor_table,
    phi_S_at,
    phi_S_table,
    sigma_S_at,
    sigma_S_prime_power,
    sigma_S_table,
    sigma_S_table_via_rho,
    tau_S_at,
    tau_S_table,
    tau_S_table_via_rho,
)
from sconv.errors import LimitError
from sconv.mobius import mu_set_at
from sconv.sets import ExponentRule, make_mult_sset, parse_sset, rho

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]
# one set using every rule kind: default below 3, then at_least, finite, none, all
MIXED_RULES = make_mult_sset(ExponentRule.below(3), {
    2: ExponentRule.at_least(2), 3: ExponentRule.finite({1, 3}),
    5: ExponentRule.none_(), 7: ExponentRule.all_()})


def brute_factor(n: int) -> list[tuple[int, int]]:
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


def member_oracle(spec: str, m: int) -> bool:
    fac = brute_factor(m)
    if spec == "N":
        return True
    if spec == "1":
        return m == 1
    if spec.startswith("Q"):
        return all(e < int(spec[1:]) for _, e in fac)
    if spec.startswith("L"):
        return all(e >= int(spec[1:]) for _, e in fac)
    if spec == "P{2,3}":
        return all(p in (2, 3) for p, _ in fac)
    if spec.startswith("F{"):
        members = {int(t) for t in spec[2:-1].split(",")}
        return m in members
    raise AssertionError(spec)


def brute_tau_sigma(spec: str, n: int) -> tuple[int, int]:
    cnt = tot = 0
    for d in range(1, n + 1):
        if n % d == 0 and member_oracle(spec, math.gcd(d, n // d)):
            cnt += 1
            tot += d
    return cnt, tot


def brute_phi(spec: str, n: int) -> int:
    return sum(1 for j in range(1, n + 1) if member_oracle(spec, math.gcd(j, n)))


# ---------------------------------------------------------------------------
# pointwise values


def test_tau_sigma_match_brute():
    for spec in BUILTINS + ["F{1,2}", "F{1,2,3}"]:
        S = parse_sset(spec)
        for n in range(1, 300):
            t, s = brute_tau_sigma(spec, n)
            assert tau_S_at(S, n) == t, (spec, n)
            assert sigma_S_at(S, n) == s, (spec, n)


def test_finite_set_examples():
    # gcd values allowed: 1 and 2. Divisors of 16: 1,2,4,8,16 with
    # cogcds 1,2,4,2,1, so d = 4 is the only one dropped.
    S = parse_sset("F{1,2}")
    assert tau_S_at(S, 16) == 4
    assert sigma_S_at(S, 16) == 1 + 2 + 8 + 16


def test_full_and_unitary_specializations():
    for n in range(1, 300):
        ds = [d for d in range(1, n + 1) if n % d == 0]
        uds = [d for d in ds if math.gcd(d, n // d) == 1]
        assert tau_S_at(parse_sset("N"), n) == len(ds)
        assert sigma_S_at(parse_sset("N"), n) == sum(ds)
        assert tau_S_at(parse_sset("1"), n) == len(uds)
        assert sigma_S_at(parse_sset("1"), n) == sum(uds)


def test_sigma_prime_power():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for p in [2, 3, 5, 7]:
            for e in range(0, 9):
                _, want = brute_tau_sigma(spec, p**e)
                assert sigma_S_prime_power(S, p, e) == want, (spec, p, e)


def test_tau_bounded_by_tau_equal_on_squarefree():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 400):
            tau_n = len([d for d in range(1, n + 1) if n % d == 0])
            t = tau_S_at(S, n)
            assert t <= tau_n, (spec, n)
            if all(e == 1 for _, e in brute_factor(n)):
                # every gcd(d, n/d) is 1, so restriction never bites
                assert t == tau_n, (spec, n)


def test_multiplicative_on_coprime_arguments():
    rng = random.Random(8191)
    for spec in BUILTINS:
        S = parse_sset(spec)
        for _ in range(100):
            m = rng.randrange(2, 60)
            n = rng.randrange(2, 60)
            if math.gcd(m, n) != 1:
                continue
            assert tau_S_at(S, m * n) == tau_S_at(S, m) * tau_S_at(S, n), (spec, m, n)
            assert sigma_S_at(S, m * n) == sigma_S_at(S, m) * sigma_S_at(S, n), (spec, m, n)


def test_local_factor_bound():
    # sigma_S(p^a)/p^a <= sum_{i < 2s} p^-i with equality at a = 2s - 1,
    # where s is the least excluded exponent of p
    cases = {"1": 1, "Q2": 2, "Q3": 3, "L2": 1}
    for spec, s in cases.items():
        S = parse_sset(spec)
        for p in [2, 3, 5]:
            cap = sum(p**-i for i in range(2 * s))
            for a in range(1, 30):
                ratio = sigma_S_prime_power(S, p, a) / p**a
                assert ratio <= cap + 1e-12, (spec, p, a)
            eq = sigma_S_prime_power(S, p, 2 * s - 1) / p ** (2 * s - 1)
            assert eq == pytest.approx(cap, rel=1e-12), (spec, p)


# ---------------------------------------------------------------------------
# identity routes


def square_divisors(n: int) -> list[int]:
    """All d with d^2 | n."""
    return [d for d in divisors(n) if (n // d) % d == 0]


def tau_S_via_identity(S, n: int) -> int:
    """tau_S(n) through both square-divisor expansions; they must agree."""
    sq = square_divisors(n)
    a = sum(mu_set_at(S, d) * eval_multiplicative(_tau_pp, n // (d * d)) for d in sq)
    b = sum(rho(S, d) * eval_multiplicative(_tau_star_pp, n // (d * d)) for d in sq)
    assert a == b, (S.spec, n)
    return a


def sigma_S_via_identity(S, n: int) -> int:
    """sigma_S(n) through both square-divisor expansions; they must agree."""
    sq = square_divisors(n)
    a = sum(mu_set_at(S, d) * d * eval_multiplicative(_sigma_pp, n // (d * d)) for d in sq)
    b = sum(rho(S, d) * d * eval_multiplicative(_sigma_star_pp, n // (d * d)) for d in sq)
    assert a == b, (S.spec, n)
    return a


def conv_cm_via_dirichlet(S, f, g, n: int):
    """(f *_S g)(n), f and g completely multiplicative, via the
    Dirichlet-product expansion; it must equal the direct sum."""
    fg = lambda m: sum(f(d) * g(m // d) for d in divisors(m))
    val = sum(mu_set_at(S, d) * f(d) * g(d) * fg(n // (d * d)) for d in square_divisors(n))
    assert val == s_convolve_at(S, f, g, n), (S.spec, n)
    return val


def conv_cm_via_unitary(S, f, g, n: int):
    """(f *_S g)(n), f and g completely multiplicative, via the
    unitary-product expansion; it must equal the direct sum."""

    def fxg(m):  # unitary product: divisor pairs with coprime halves
        return sum(f(d) * g(m // d) for d in divisors(m) if math.gcd(d, m // d) == 1)

    val = sum(rho(S, d) * f(d) * g(d) * fxg(n // (d * d)) for d in square_divisors(n))
    assert val == s_convolve_at(S, f, g, n), (S.spec, n)
    return val


def test_identity_routes_agree():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 300):
            assert tau_S_via_identity(S, n) == tau_S_at(S, n), (spec, n)
            assert sigma_S_via_identity(S, n) == sigma_S_at(S, n), (spec, n)


def test_cm_convolution_routes():
    # I and E are completely multiplicative
    I = ArithFunc.named("I")
    E = ArithFunc.named("E")
    for spec in BUILTINS:
        S = parse_sset(spec)
        for f, g in [(I, I), (E, I), (E, E)]:
            for n in range(1, 120):
                a = conv_cm_via_dirichlet(S, f, g, n)
                b = conv_cm_via_unitary(S, f, g, n)
                assert a == b, (spec, f.name, g.name, n)


def test_phi_matches_gcd_count():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 200):
            assert phi_S_at(S, n) == brute_phi(spec, n), (spec, n)


def phi_gcd_count(S, n: int) -> int:
    """The gcd-table count: np.gcd of n with every j <= n, tallied once per
    gcd, with rho_S read at the divisors of n."""
    counts = np.bincount(np.gcd(np.arange(1, n + 1, dtype=np.int64), n))
    return sum(int(counts[d]) for d in divisors(n) if rho(S, d))


# n with several distinct primes (a sieve striking only some primes of n/d
# fails there), prime powers, primes, the cap and a seeded spread to 1e5
_rng = random.Random(SELF_CHECK_SEED)
PHI_SIEVE_POINTS = sorted({*range(1, 151), 30030, 510510, 720720, 2**19, 3**12, 999983,
                           997**2, PHI_DIRECT_CAP,
                           *(_rng.randint(1, 10**5) for _ in range(50))})


@pytest.mark.parametrize("spec", ["Q2", "L2", "N", "1", "P{2,3}", "Q3"])
def test_phi_direct_sieve_matches_gcd_count(spec):
    S = parse_sset(spec)
    assert len(PHI_SIEVE_POINTS) >= 200
    for n in PHI_SIEVE_POINTS:
        assert _phi_direct(S, n) == phi_gcd_count(S, n), (spec, n)


def test_phi_direct_sieve_matches_gcd_count_general_set():
    S = parse_sset("F{1,2,6}")
    for n in range(1, 101):
        brute = sum(1 for j in range(1, n + 1) if rho(S, math.gcd(j, n)))
        assert _phi_direct(S, n) == phi_gcd_count(S, n) == brute, n


def test_phi_full_set_is_n():
    S = parse_sset("N")
    for n in range(1, 100):
        assert phi_S_at(S, n) == n


def test_phi_unitary_is_euler_phi():
    S = parse_sset("1")
    for n in range(1, 200):
        want = sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert phi_S_at(S, n) == want


def test_phi_general_set_needs_coverage():
    S = parse_sset("F{1,2}")
    assert phi_S_at(S, 40) == brute_phi("F{1,2}", 40)
    with pytest.raises(LimitError):
        phi_S_at(S, 300)


# ---------------------------------------------------------------------------
# bulk tables


def test_tables_match_pointwise():
    for spec in BUILTINS:
        S = parse_sset(spec)
        tt = tau_S_table(S, 400)
        st = sigma_S_table(S, 400)
        pt = phi_S_table(S, 400)
        for n in range(1, 401):
            t, s = brute_tau_sigma(spec, n)
            assert tt[n] == t, (spec, n)
            assert st[n] == s, (spec, n)
            assert pt[n] == brute_phi(spec, n), (spec, n)
    S = MIXED_RULES
    tt, st, pt = tau_S_table(S, 400), sigma_S_table(S, 400), phi_S_table(S, 400)
    for n in range(1, 401):
        assert tt[n] == tau_S_at(S, n), n
        assert st[n] == sigma_S_at(S, n), n
        assert pt[n] == phi_S_at(S, n), n


def test_two_table_routes_agree():
    for spec in BUILTINS:
        S = parse_sset(spec)
        assert np.array_equal(tau_S_table(S, 2000), tau_S_table_via_rho(S, 2000)), spec
        assert np.array_equal(sigma_S_table(S, 2000), sigma_S_table_via_rho(S, 2000)), spec


def test_square_divisor_table_matches_brute():
    rng = random.Random(7)
    N = 300
    root = math.isqrt(N)
    c = np.array([5] + [rng.choice((0, 0, 1, -1, 3)) for _ in range(root)],
                 dtype=np.int64)  # c[0] must be ignored
    vals = {}
    ppv = lambda p, a: vals.setdefault((p, a), rng.randint(-9, 9))
    for weighted in (False, True):
        t = _square_divisor_table("t", parse_sset("N"), N, lambda S, m: c, weighted, ppv)
        for n in range(1, N + 1):
            want = sum(int(c[d]) * (d if weighted else 1) * eval_multiplicative(ppv, n // (d * d))
                       for d in range(1, root + 1) if n % (d * d) == 0)
            assert t[n] == want, (weighted, n)


@pytest.mark.parametrize("build", [tau_S_table, sigma_S_table, phi_S_table,
                                   tau_S_table_via_rho, sigma_S_table_via_rho])
def test_tables_are_int64_arrays(build):
    for spec in ("Q2", "F{1,2,6}"):
        t = build(parse_sset(spec), 50)
        assert isinstance(t, np.ndarray) and t.dtype == np.int64, spec
        assert t.shape == (51,) and t[0] == 0, spec
