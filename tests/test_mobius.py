"""Tests for the inversion layer: restricted Mobius functions, the k-full
Mobius recurrence, and Dirichlet series evaluation with certified tails.

Some float reference values were computed independently with a
multiprecision package at 50 digits and pasted here; those assertions
allow the evaluator's own certified error bound plus float slack. The
oracle tests compute mpmath references at 30 digits in the test itself and
allow the certified bound alone.
"""

import ast
import collections
import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sconv import arith, mobius
from sconv.arith import dirichlet_sweep
from sconv.errors import ConsistencyError, LimitError
from sconv.mobius import (
    EULER_ORDER,
    _exponents,
    _factored_product,
    _inverse_of_I_pp,
    _mu_k_sequence,
    _zeta_em,
    _zeta_full,
    mu_at,
    mu_k_at,
    mu_k_prime_power,
    mu_k_statistics,
    mu_set_at,
    mu_set_table,
    mu_table,
    verify_mobius_identity,
    zeta_S,
    zeta_S_derivative,
)
from sconv.sets import ExponentRule, make_general_sset, make_mult_sset, parse_sset, rho, rho_table
from test_sweeps import PROPERTY, exponent_rules

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]
# one set using every rule kind: default below 3, then at_least, finite, none, all
MIXED_RULES = make_mult_sset(ExponentRule.below(3), {
    2: ExponentRule.at_least(2), 3: ExponentRule.finite({1, 3}),
    5: ExponentRule.none_(), 7: ExponentRule.all_()})

ZETA_2 = 1.6449340668482264
ZETA_3 = 1.2020569031595943
ZETA_Q2_2 = 1.5198177546350666   # zeta(2)/zeta(4)
ZETA_Q2_3 = 1.1815649490102569   # zeta(3)/zeta(6)
ZETA_Q3_3 = 1.1996475396471398   # zeta(3)/zeta(9)
ZETA_L2_2 = 1.1008231348695381
ZETA_L2_3 = 1.0193823952102515
ZETA_L3_3 = 1.0022855626862573
ZETA_P23_3 = 108.0 / 91.0        # (1-2^-3)^-1 (1-3^-3)^-1
ZETA_PRIME_2 = -0.9375482543158438


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


def brute_mu(n: int) -> int:
    fac = brute_factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


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
    raise AssertionError(spec)


def brute_mu_set(spec: str, n: int) -> int:
    # mu_S = rho_S * mu under the ordinary Dirichlet convolution
    return sum(int(member_oracle(spec, d)) * brute_mu(n // d)
               for d in range(1, n + 1) if n % d == 0)


def mu_k_recurrence(k: int, a_max: int) -> list[int]:
    """Values mu_k(p^a) for a = 1..a_max, straight from the defining rule."""
    vals = [1]  # index a
    for a in range(1, a_max + 1):
        if a < 2 * k:
            vals.append(-1)
        else:
            vals.append(vals[a - 1] - vals[a - k])
    return vals[1:]


# ---------------------------------------------------------------------------
# classical and restricted Mobius


def test_mu_table_matches_brute():
    tab = mu_table(1000)
    for n in range(1, 1001):
        assert tab[n] == brute_mu(n), n


def test_mu_at_matches_table():
    tab = mu_table(500)
    for n in range(1, 501):
        assert mu_at(n) == tab[n]


def test_mu_set_full_set_is_delta():
    tab = mu_set_table(parse_sset("N"), 200)
    assert tab[1] == 1
    assert not np.any(tab[2:])


def test_mu_set_unitary_is_classical_mu():
    tab = mu_set_table(parse_sset("1"), 500)
    for n in range(1, 501):
        assert tab[n] == brute_mu(n), n


def test_mu_set_matches_brute_all_builtins():
    for spec in BUILTINS:
        S = parse_sset(spec)
        tab = mu_set_table(S, 400)
        for n in range(1, 401):
            assert tab[n] == brute_mu_set(spec, n), (spec, n)
            assert mu_set_at(S, n) == tab[n], (spec, n)
    tab = mu_set_table(MIXED_RULES, 400)
    for n in range(1, 401):
        assert mu_set_at(MIXED_RULES, n) == tab[n], n


def test_mu_set_at_on_table_backed_sets():
    # one membership lookup for every divisor; past the bound, rho's LimitError
    for S, N in ((parse_sset("F{1,2,6}"), 100), (make_general_sset(
            rho_table(parse_sset("L2"), 3000).nonzero()[0].tolist(), 3000), 3000)):
        tab = mu_set_table(S, N)
        assert [mu_set_at(S, n) for n in range(1, N + 1)] == tab[1:].tolist()
        with pytest.raises(LimitError, match=f"membership of {N + 1} unknown"):
            mu_set_at(S, 2 * (N + 1))


def test_mu_set_kernel_matches_sweep_cross_check():
    # rule-based S: the sieve on mu_S(p^a) against the sweep rho_S * mu
    N = 5000
    for S in [parse_sset(spec) for spec in BUILTINS] + [MIXED_RULES]:
        sweep = dirichlet_sweep(rho_table(S, N), mu_table(N), N)
        assert np.array_equal(mu_set_table(S, N), sweep), S.spec


def test_mu_set_bounded_by_tau():
    for spec in BUILTINS:
        tab = mu_set_table(parse_sset(spec), 2000)
        for n in range(1, 2001):
            assert abs(tab[n]) <= len([d for d in range(1, n + 1) if n % d == 0]), (spec, n)


def test_verify_mobius_identity():
    for spec in BUILTINS + ["F{1,2,3}"]:
        S = parse_sset(spec)
        v = verify_mobius_identity(S, 100, mu_set_table(S, 100))
        assert v.holds, spec


# ---------------------------------------------------------------------------
# the k-full Mobius function


def test_mu_2_prime_power_values():
    # published table for a = 1..10
    want = [-1, -1, -1, 0, 1, 1, 0, -1, -1, 0]
    assert [mu_k_prime_power(2, a) for a in range(1, 11)] == want


def test_mu_3_prime_power_values():
    # published values for a = 6..13
    want = [0, 1, 2, 2, 1, -1, -3, -4]
    assert [mu_k_prime_power(3, a) for a in range(6, 14)] == want


def test_mu_k_prime_power_matches_recurrence():
    for k in range(1, 7):
        want = mu_k_recurrence(k, 120)
        got = [mu_k_prime_power(k, a) for a in range(1, 121)]
        assert got == want, k


def test_mu_1_is_classical_mu_on_prime_powers():
    assert mu_k_prime_power(1, 1) == -1
    for a in range(2, 40):
        assert mu_k_prime_power(1, a) == 0, a


def test_mu_k_at_is_multiplicative_extension():
    for k in [2, 3]:
        for n in range(1, 600):
            want = 1
            for p, a in brute_factor(n):
                want *= mu_k_recurrence(k, a)[a - 1]
            assert mu_k_at(k, n) == want, (k, n)


def test_inverse_recurrence_at_kfull_rule_matches_mu_k_sequence():
    # _mu_k_sequence is the named cross-check of the S-inverse recurrence at L_k
    for k in range(1, 7):
        S = make_mult_sset(ExponentRule.at_least(k))
        want = list(itertools.islice(_mu_k_sequence(k), 120))
        assert [_inverse_of_I_pp(S, 2, a) for a in range(1, 121)] == want, k


def test_mu_k_guards():
    assert mu_k_prime_power(2, 0) == 1  # empty exponent: value at n = 1
    with pytest.raises(ValueError):
        mu_k_prime_power(0, 1)
    with pytest.raises(ValueError):
        mu_k_prime_power(2, -1)


def test_mu_k_statistics():
    st = mu_k_statistics(2, 12)
    assert st.k == 2 and st.a_max == 12
    assert st.values == (-1, 0, 1)
    assert st.first_occurrence == {-1: 1, 0: 4, 1: 5}
    assert st.sign_runs == ((-1, 3), (0, 1), (1, 2), (0, 1), (-1, 2), (0, 1), (1, 2))


def test_mu_k_statistics_matches_recurrence():
    for k, a_max in [(1, 300), (2, 300), (3, 300), (4, 300), (2000, 6000)]:
        st = mu_k_statistics(k, a_max)
        vals = mu_k_recurrence(k, a_max)
        assert st.values == tuple(sorted(set(vals))), k
        for v, a in st.first_occurrence.items():
            assert vals[a - 1] == v and v not in vals[: a - 1], (k, v)
        signs = [(v > 0) - (v < 0) for v in vals]
        runs = [(s, len(list(grp))) for s, grp in itertools.groupby(signs)]
        assert st.sign_runs == tuple(runs), k


def test_mu_k_statistics_guards():
    with pytest.raises(LimitError):
        mu_k_statistics(2, 10**6 + 1)
    with pytest.raises(ValueError):
        mu_k_statistics(0, 10)


# ---------------------------------------------------------------------------
# Dirichlet series


def test_zeta_full_set():
    for z, want in [(2.0, ZETA_2), (3.0, ZETA_3)]:
        ev = zeta_S(parse_sset("N"), z)
        assert ev.series.rad <= 1e-9
        assert abs(ev.best.mid - want) <= ev.series.rad + 1e-12


def test_zeta_restricted_values_z3():
    cases = [
        ("Q2", ZETA_Q2_3),
        ("Q3", ZETA_Q3_3),
        ("L2", ZETA_L2_3),
        ("L3", ZETA_L3_3),
        ("P{2,3}", ZETA_P23_3),
    ]
    for spec, want in cases:
        ev = zeta_S(parse_sset(spec), 3.0)
        assert abs(ev.best.mid - want) <= ev.best.rad + 1e-12, spec
        assert ev.best.rad <= 1e-9, spec


def test_zeta_restricted_values_z2():
    # at z = 2 the generic series tail only certifies ~1/T; ask for 1e-6
    for spec, want in [("Q2", ZETA_Q2_2), ("L2", ZETA_L2_2)]:
        ev = zeta_S(parse_sset(spec), 2.0, tol=1e-6)
        assert ev.best.rad <= 1e-6, spec
        assert abs(ev.best.mid - want) <= ev.best.rad + 1e-12, spec


def test_zeta_euler_cross_check_ran():
    ev = zeta_S(parse_sset("Q2"), 3.0)
    assert ev.product is not None
    assert abs(ev.product.mid - ZETA_Q2_3) <= ev.product.rad + 1e-12


# zeta_S in closed form, for mpmath at 40 digits
MP_ZETA = {
    "N": lambda z: mpmath.zeta(z),
    "Q2": lambda z: mpmath.zeta(z) / mpmath.zeta(2 * z),
    "Q3": lambda z: mpmath.zeta(z) / mpmath.zeta(3 * z),
    "L2": lambda z: mpmath.zeta(2 * z) * mpmath.zeta(3 * z) / mpmath.zeta(6 * z),
}


@pytest.mark.parametrize("spec", sorted(MP_ZETA))
@pytest.mark.parametrize("z", [2, 3, 4, 6])
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_zeta_bounds_hold_with_rounding(spec, z, tol):
    """Each certified bound covers the floating-point rounding too: no slack."""
    ev = zeta_S(parse_sset(spec), float(z), tol)
    with mpmath.workdps(40):
        want = MP_ZETA[spec](z)
        for ball in [ev.series, ev.product, ev.best]:
            assert abs(mpmath.mpf(ball.mid) - want) <= ball.rad, ball


SERIES_CASES = [(spec, T, weight) for weight in (None, "log")
                for spec in ["Q2", "L2", "N", "P{2,3}"] for T in [64, 4096, 2**16]]


@pytest.mark.parametrize(
    "spec, T, weight", SERIES_CASES,
    ids=[f"{w}-{T}-{spec}" if w else f"{T}-{spec}" for spec, T, w in SERIES_CASES])
def test_series_partial_sum_ball_holds_without_tail(spec, T, weight):
    """The hand-counted rounding of zeta_S's numpy series sums, with no tail
    to hide it: the sum of rho_S(n) n^-2, or of rho_S(n) log(n) n^-2 (the
    series of -zeta_S'), over n <= T at 40 digits lies in the Ball. Each
    float sum is off by about 1e-17 to 1e-15 here, so a radius of 0 fails."""
    S = parse_sset(spec)
    rs = rho_table(S, T)
    ball = mobius._series_partial(rs, 2.0, np.log if weight else None)
    with mpmath.workdps(40):
        w = mpmath.log if weight else (lambda n: 1)
        want = mpmath.fsum(w(n) / mpmath.mpf(n * n) for n in np.flatnonzero(rs).tolist())
        assert mpmath.mpf(ball.mid) != want and abs(mpmath.mpf(ball.mid) - want) <= ball.rad, (
            ball, want)


def l2_file(path, bound: int) -> str:
    """A FILE: copy of L2 (the squarefull numbers, a^2 b^3) to bound."""
    members = {a * a * b ** 3 for b in range(1, round(bound ** (1 / 3)) + 2)
               for a in range(1, math.isqrt(bound // b ** 3) + 1)}
    path.write_text(f"bound {bound}\n" + "\n".join(map(str, sorted(members))) + "\n")
    return f"FILE:{path}"


@pytest.fixture(scope="module")
def l2e7(tmp_path_factory):
    return parse_sset(l2_file(tmp_path_factory.mktemp("sets") / "l2e7.txt", 10**7))


EDGE_WIDTH = 64
WINDOW_EDGES = [EDGE_WIDTH - 1, EDGE_WIDTH, EDGE_WIDTH + 1, 2 * EDGE_WIDTH + 7]


@pytest.mark.parametrize("T", WINDOW_EDGES)
@pytest.mark.parametrize("spec", ["Q2", "L2", "N", "P{2,3}", "FILE"])
def test_windowed_series_holds_at_the_window_edges(spec, T, tmp_path, monkeypatch):
    """_series sums 0..T in windows of _window_width(T) entries (here 64, so
    T ends a window, starts one, or lies inside the third): the sum of
    rho_S(n) n^-2 and of rho_S(n) log(n) n^-2 over n <= T, at 40 digits,
    lies in each Ball, the per-window roundings and their join included."""
    S = parse_sset(l2_file(tmp_path / "l2.txt", 1000) if spec == "FILE" else spec)
    monkeypatch.setattr(arith, "_window_width", lambda hi: EDGE_WIDTH)
    plain, weighted = mobius._series(S, T, 2.0, logs=True)
    members = [n for n in range(1, T + 1) if rho(S, n)]
    with mpmath.workdps(40):
        for ball, w in ((plain, lambda n: 1), (weighted, mpmath.log)):
            want = mpmath.fsum(w(n) / mpmath.mpf(n * n) for n in members)
            assert abs(mpmath.mpf(ball.mid) - want) <= ball.rad, (ball, want)


def test_windowed_series_matches_the_table_sum_in_one_window():
    """With one window (T + 1 <= _window_width(T)) the windowed Balls are the
    table route's _series_partial Balls, bit for bit."""
    for spec in ["Q2", "L2", "N", "P{2,3}"]:
        S = parse_sset(spec)
        for T in (64, 794, 16255):  # 16255 + 1 = 128 isqrt(16255)
            rs = rho_table(S, T)
            got = mobius._series(S, T, 3.0, logs=True)
            want = (mobius._series_partial(rs, 3.0), mobius._series_partial(rs, 3.0, np.log))
            assert [(b.mid, b.rad) for b in got] == [(b.mid, b.rad) for b in want], (spec, T)


def test_table_backed_zeta_memory_is_flat(l2e7):
    """zeta_S of a table-backed set at T = 3.3e6 holds one window at a time:
    a tracemalloc peak under 4 MiB, where a whole table to T peaked at 76 MiB."""
    tracemalloc.start()
    try:
        ev = zeta_S(l2e7, 2.0, 3e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.truncation > 3_300_000
    assert peak < 4 << 20, peak
    with mpmath.workdps(40):
        want = MP_ZETA["L2"](2)
        assert abs(mpmath.mpf(ev.best.mid) - want) <= ev.best.rad <= 3e-7


def test_table_backed_zeta_reaches_its_membership_bound(l2e7):
    """With no truncation cap below the membership bound, a FILE: copy of L2
    to 1e7 certifies 2e-7 at T = 5e6 (a cap of 4e6 refused it at 2.5e-7)."""
    ev = zeta_S(l2e7, 2.0, 2e-7)
    assert ev.truncation == 5_000_001
    with mpmath.workdps(40):
        want = MP_ZETA["L2"](2)
        assert abs(mpmath.mpf(ev.series.mid) - want) <= ev.series.rad <= 2e-7
    # a bound past the stream limit leaves T to that limit, as for the sieve
    huge = make_general_sset([1, 2, 6], 2**64)
    with pytest.raises(LimitError, match="stream limit 1000000000001 exceeds"):
        zeta_S(huge, 2.0, 1e-12)
    with pytest.raises(LimitError, match="exceeds 100000000"):
        zeta_S_derivative(huge, 2.0, 1e-12)


def test_zeta_euler_product_every_rule_kind():
    # a finite default plus one override of each other kind, so every
    # local-factor branch of the Euler product runs
    S = make_mult_sset(ExponentRule.finite({1, 3}),
                       {2: ExponentRule.below(3), 3: ExponentRule.at_least(2),
                        5: ExponentRule.none_(), 7: ExponentRule.all_()})
    for z, tol in [(2.0, 1e-6), (3.0, 1e-9)]:
        ev = zeta_S(S, z, tol=tol)  # raises if series and product disagree
        assert ev.product is not None, z


def test_zeta_log_derivative_cross_check_catches_a_perturbed_product(monkeypatch):
    # the product's zeta_S'/zeta_S off by 1e-2 leaves the log-weighted
    # series (radius about 2e-4 at z = 2) while the values still agree
    fresh = mobius._factored_product

    def perturbed(S, z):
        value, dlog = fresh(S, z)
        return value, dlog + 1e-2

    monkeypatch.setattr(mobius, "_factored_product", perturbed)
    for spec in ["N", "Q2", "L2"]:
        with pytest.raises(ConsistencyError, match=r"zeta_\w+'\(2.0\)"):
            zeta_S(parse_sset(spec), 2.0)


def test_zeta_full_memo_matches_fresh_evaluation():
    for z, tol in [(2, 1e-9), (2, 1e-6), (3, 1e-9), (4, 1e-9)]:
        fresh = zeta_S(parse_sset("N"), z, tol)
        memo = _zeta_full(z, tol)
        for field in dataclasses.fields(fresh):
            name = field.name
            got, want = getattr(memo, name), getattr(fresh, name)
            if isinstance(want, mobius.Ball):
                got, want = (got.mid, got.rad), (want.mid, want.rad)
            assert got == want, (z, tol, name)
        assert _zeta_full(z, tol) is memo


def test_zeta_guards():
    with pytest.raises(ValueError):
        zeta_S(parse_sset("N"), 1.0)
    # near the abscissa the factored product still certifies a rule-based set
    ev = zeta_S(parse_sset("Q2"), 1.05, tol=1e-12)
    with mpmath.workdps(40):
        want = MP_ZETA["Q2"](mpmath.mpf(1.05))
        assert abs(mpmath.mpf(ev.best.mid) - want) <= ev.best.rad <= 1e-12
    # a table-backed set has only the series, capped by its membership bound:
    # however large the bound, a tail beyond it leaves tol out of reach
    with pytest.raises(LimitError, match="membership bound"):
        zeta_S(parse_sset("F{1,2,6}"), 1.05, tol=1e-12)
    with pytest.raises(LimitError, match="membership bound 5000000 leaves tail"):
        zeta_S(make_general_sset([1, 2, 6], 5_000_000), 1.05, tol=1e-12)
    # closer still, the truncation estimate passes every float: it is clamped, not raised
    ev = zeta_S(parse_sset("Q2"), 1.01, tol=1e-12)
    with mpmath.workdps(40):
        want = MP_ZETA["Q2"](mpmath.mpf(1.01))
        assert abs(mpmath.mpf(ev.best.mid) - want) <= ev.best.rad <= 1e-12
    with pytest.raises(LimitError, match="membership bound 100 leaves tail 95.5"):
        zeta_S(parse_sset("F{1,2,6}"), 1.01, tol=1e-12)
    with pytest.raises(LimitError, match="best certified bound 6.88e-11"):
        zeta_S(parse_sset("Q2"), 1.001, tol=1e-12)


def test_zeta_derivative_full_set():
    got = zeta_S_derivative(parse_sset("N"), 2.0)
    assert abs(got.mid - ZETA_PRIME_2) <= got.rad + 1e-12
    assert got.mid + got.rad < 0


def test_zeta_derivative_restricted_sign():
    # coefficients are nonnegative, so the derivative cannot be positive
    for spec in ["Q2", "L2"]:
        got = zeta_S_derivative(parse_sset(spec), 2.0)
        assert got.mid + got.rad < 0, spec


# ---------------------------------------------------------------------------
# an mpmath oracle for every rule-based set, at 30 digits
#
# log zeta_S(z) = sum_{p <= P0} log F_p(p^-z) + sum_n g_n P_{>P0}(n z), with
# F_p the local series of the rule at p (all overrides lie below P0), g_n the
# exact coefficients of log F for the default rule, and P_{>P0} the prime zeta
# function over p > P0, from P(s) = sum_k mu(k)/k log zeta(k s). None of it is
# the program's route (Euler-Maclaurin, peeled exponents, a Cauchy tail).

ORACLE_P0 = 100
ORACLE_PRIMES = [p for p in range(2, ORACLE_P0 + 1) if all(p % q for q in range(2, p))]
ORACLE_DPS = 30
LOG_TERMS = 30  # g_n P_{>P0}(n z) < 1e-40 beyond, for z >= 1.05


@functools.cache
def prime_tail(s):
    """(sum_{p > P0} p^-s, its s-derivative), to 1e-40 absolute: the terms
    log zeta(ks) minus their primes <= P0 cancel to far below their size,
    so the work runs 60 digits up."""
    with mpmath.workdps(ORACLE_DPS + 60):
        val = der = mpmath.mpf(0)
        k = 1
        while mpmath.mpf(ORACLE_P0 + 1) ** (-k * s) > mpmath.mpf(10) ** (-ORACLE_DPS - 10):
            mu = brute_mu(k)
            if mu:
                t = k * s
                zt = mpmath.zeta(t)
                val += mu * (mpmath.log(zt) + sum(mpmath.log1p(-mpmath.mpf(p) ** -t)
                                                  for p in ORACLE_PRIMES)) / k
                der += mu * (mpmath.zeta(t, derivative=1) / zt
                             + sum(mpmath.log(p) / (mpmath.mpf(p) ** t - 1) for p in ORACLE_PRIMES))
            k += 1
    return +val, +der


def log_series(rule, n_max):
    """Exact g_0..g_n_max with log(1 + sum_{a in rule} x^a) = sum g_n x^n,
    from n g_n = n f_n - sum_{k < n} k g_k f_(n-k)."""
    f = [1] + [int(rule.contains(a)) for a in range(1, n_max + 1)]
    g = [Fraction(0)]
    for n in range(1, n_max + 1):
        g.append(f[n] - Fraction(sum(k * g[k] * f[n - k] for k in range(1, n)), n))
    return g


def mp_zeta_S(S, z):
    """(zeta_S(z), zeta_S'(z)) at ORACLE_DPS digits, for rule-based S."""
    m = S.mult
    assert all(p <= ORACLE_P0 for p in m.overrides)
    with mpmath.workdps(ORACLE_DPS + 10):
        z = mpmath.mpf(z)
        lv = ld = mpmath.mpf(0)
        for p in ORACLE_PRIMES:
            x = mpmath.mpf(p) ** -z
            top = int((ORACLE_DPS + 20) * math.log(10) / (float(z) * math.log(p))) + 1
            exps = [a for a in range(1, top + 1) if m.rule_at(p).contains(a)]
            F = 1 + sum(x ** a for a in exps)
            lv += mpmath.log(F)
            ld -= mpmath.log(p) * sum(a * x ** a for a in exps) / F
        for n, gn in enumerate(log_series(m.default_rule, LOG_TERMS)):
            if gn:
                pv, pd = prime_tail(n * z)
                lv += mpmath.mpf(gn.numerator) / gn.denominator * pv
                ld += mpmath.mpf(gn.numerator) / gn.denominator * n * pd
        v = mpmath.exp(lv)
    with mpmath.workdps(ORACLE_DPS):
        return +v, +(v * ld)


ORACLE_SETS = {**{spec: parse_sset(spec) for spec in BUILTINS + ["Q4"]}, "mixed": MIXED_RULES}


@functools.cache
def oracle(key, z):
    return mp_zeta_S(ORACLE_SETS[key], z)


def within(value, want, bound) -> bool:
    with mpmath.workdps(ORACLE_DPS):
        return abs(mpmath.mpf(value) - want) <= bound


def test_oracle_matches_closed_forms():
    def F(rule, x):  # local factor in closed form
        return {"all": 1 / (1 - x), "none": mpmath.mpf(1), "below": (1 - x ** rule.k) / (1 - x),
                "at_least": 1 + x ** rule.k / (1 - x),
                "finite": 1 + sum(x ** a for a in rule.members)}[rule.kind]

    def mixed(z):
        # default below 3: zeta(z)/zeta(3z), with the factors at 2, 3, 5, 7 swapped
        v = mpmath.zeta(z) / mpmath.zeta(3 * z)
        for p, rule in MIXED_RULES.mult.overrides.items():
            x = mpmath.mpf(p) ** -z
            v *= F(rule, x) / F(ExponentRule.below(3), x)
        return v

    closed = {**MP_ZETA, "1": lambda z: mpmath.mpf(1), "mixed": mixed,
              "P{2,3}": lambda z: 1 / ((1 - mpmath.mpf(2) ** -z) * (1 - mpmath.mpf(3) ** -z)),
              "Q4": lambda z: mpmath.zeta(z) / mpmath.zeta(4 * z)}
    with mpmath.workdps(ORACLE_DPS + 10):
        for key, form in closed.items():
            for z in [1.05, 2.0, 3.0]:
                want = form(mpmath.mpf(z))
                dwant = mpmath.diff(form, mpmath.mpf(z))
                v, d = oracle(key, z)
                assert abs(v - want) <= 1e-27 * want, (key, z)
                assert abs(d - dwant) <= 1e-25 * abs(want), (key, z)


@pytest.mark.parametrize("key", sorted(set(ORACLE_SETS) - {"Q4"}))
@pytest.mark.parametrize("z", [1.5, 2.0, 3.0, 4.0, 6.0])
def test_zeta_and_derivative_bounds_hold_against_mpmath(key, z):
    """Every value zeta_S reports lies within its own bound, with no slack:
    the series, the factored product, the best of them and the product's
    log-derivative; zeta_S_derivative lies within the tol it certifies."""
    S = ORACLE_SETS[key]
    want, dwant = oracle(key, z)
    ev = zeta_S(S, z, tol=1e-9)
    for ball in [ev.series, ev.product, ev.best]:
        assert within(ball.mid, want, ball.rad), ball
    assert within(ev.log_derivative.mid, dwant / want, ev.log_derivative.rad)
    d = zeta_S_derivative(S, z, tol=1e-13)
    assert within(d.mid, dwant, d.rad) and d.rad <= 1e-13, d


@pytest.mark.parametrize("key", sorted(ORACLE_SETS))
def test_zeta_never_returns_a_bound_above_tol(key):
    # 9 sets x 6 z x 4 tol = 216 evaluations, each certified to its tol
    for z in [1.5, 2.0, 2.5, 3.0, 4.0, 6.0]:
        want = oracle(key, z)[0]
        for tol in [1e-11, 1e-9, 1e-6, 1e-4]:
            ev = zeta_S(ORACLE_SETS[key], z, tol)
            assert ev.best.rad <= tol, (z, tol, ev.best)
            assert within(ev.best.mid, want, ev.best.rad), (z, tol)


@pytest.mark.parametrize("spec", BUILTINS)
def test_zeta_certifies_1e_14_at_2(spec):
    ev = zeta_S(parse_sset(spec), 2.0, tol=1e-14)
    assert ev.best.rad <= 1e-14
    assert within(ev.best.mid, oracle(spec, 2.0)[0], ev.best.rad)


def test_exponents_of_builtin_rules():
    pad = lambda *e: e + (0,) * (EULER_ORDER - len(e))
    assert _exponents(ExponentRule.all_()) == pad(1)
    assert _exponents(ExponentRule.none_()) == pad()
    assert _exponents(ExponentRule.below(2)) == pad(1, -1)            # zeta(z)/zeta(2z)
    assert _exponents(ExponentRule.at_least(2)) == pad(0, 1, 1, 0, 0, -1)  # zeta(2z) zeta(3z)/zeta(6z)


def _gen_binom(a: int, j: int) -> int:
    return math.prod(a - i for i in range(j)) // math.factorial(j)


@PROPERTY
@given(default=exponent_rules(),
       overrides=st.dictionaries(st.sampled_from([2, 3, 5, 7]), exponent_rules(), max_size=3))
def test_exponents_reproduce_the_local_factor(default, overrides):
    # prod_k (1 - x^k)^(-e_k), expanded by the binomial series, is F to order K,
    # and zeta_S of the random set agrees with the oracle within its bound
    K = EULER_ORDER
    for rule in [default, *overrides.values()]:
        prod = [1] + [0] * K
        for k, ek in enumerate(_exponents(rule), start=1):
            factor = [0] * (K + 1)
            for j in range(K // k + 1):  # (1 - y)^(-e) = sum_j (-1)^j binom(-e, j) y^j
                factor[k * j] = (-1) ** j * _gen_binom(-ek, j)
            prod = [sum(prod[i] * factor[n - i] for i in range(n + 1)) for n in range(K + 1)]
        assert prod == [1] + [int(rule.contains(a)) for a in range(1, K + 1)], rule
    S = make_mult_sset(default, overrides)
    ev = zeta_S(S, 2.0, tol=1e-12)
    want, dwant = mp_zeta_S(S, 2.0)
    assert within(ev.best.mid, want, ev.best.rad)
    assert within(ev.log_derivative.mid, dwant / want, ev.log_derivative.rad)


# At the shipped EM_TERMS, EM_ORDER and EULER_CUTOFF the remainder terms are
# far below the rounding terms, so the checks above cannot see them; with few
# terms or primes they dominate each bound and must still hold.

@pytest.mark.parametrize("terms, order", [(2, 1), (4, 2)])
def test_euler_maclaurin_remainder_holds_with_few_terms(monkeypatch, terms, order):
    monkeypatch.setattr(mobius, "EM_TERMS", terms)
    monkeypatch.setattr(mobius, "EM_ORDER", order)
    for z, k in [(1.5, 1), (2.0, 1), (2.0, 3), (3.0, 2)]:
        v, d = _zeta_em(z, k)
        with mpmath.workdps(ORACLE_DPS):
            s = mpmath.mpf(z) * k
            want, dwant = mpmath.zeta(s), mpmath.zeta(s, derivative=1)
        assert within(v.mid, want, v.rad) and within(d.mid, dwant, d.rad), (z, k)
        assert v.rad > 1e-9 and abs(mpmath.mpf(v.mid) - want) > 1e-12, (z, k)  # the remainder counts


@pytest.mark.parametrize("key", ["L3", "finite"])
def test_factored_tail_bound_holds_with_few_primes(monkeypatch, key):
    monkeypatch.setattr(mobius, "EULER_CUTOFF", 3)
    S = parse_sset("L3") if key == "L3" else make_mult_sset(ExponentRule.finite({1, 3}))
    for z in [1.5, 2.0]:
        v, d = _factored_product(S, z)
        want, dwant = mp_zeta_S(S, z)
        assert within(v.mid, want, v.rad) and within(d.mid, dwant / want, d.rad), z
        assert abs(mpmath.mpf(v.mid) - want) > 1e-13, z  # the primes beyond 3 count


# ---------------------------------------------------------------------------
# the Ball type against mpmath at 30 digits: on seeded random balls, the true
# f at both endpoints and at the midpoint of every input ball lies in the
# result, and a ball that reaches a singularity raises

BALL_SEED = 2017
BALL_CASES = 300


def ball_points(b):
    """The two endpoints and the midpoint of b, exactly."""
    m, r = mpmath.mpf(b.mid), mpmath.mpf(b.rad)
    return [mpmath.fsub(m, r, exact=True), m, mpmath.fadd(m, r, exact=True)]


def ball_contains(b, value) -> bool:
    with mpmath.workdps(ORACLE_DPS):
        return abs(mpmath.mpf(b.mid) - value) <= mpmath.mpf(b.rad)


def random_ball(rng, near_pole_at=None, positive=False):
    """A ball with |mid| in [1e-3, 1e3]: radius 0, relatively tiny, up to
    3 |mid|, or, with near_pole_at, reaching within 2^-k |mid - pole| of it."""
    mid = 10.0 ** rng.uniform(-3, 3) * (1 if positive or rng.random() < 0.5 else -1)
    if near_pole_at is not None:
        gap = abs(mid - near_pole_at)
        return mobius.Ball(mid, gap * rng.choice([0.0, 10.0 ** rng.uniform(-16, -1),
                                                  1.0 - 2.0 ** -rng.randint(1, 50)]))
    return mobius.Ball(mid, abs(mid) * rng.choice([0.0, 10.0 ** rng.uniform(-16, -1),
                                                   rng.uniform(0.0, 3.0)]))


def _pow_case(rng, integer):
    if integer:
        y = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
        return [random_ball(rng, near_pole_at=0.0 if y < 0 else None)], y
    return [random_ball(rng, near_pole_at=0.0, positive=True)], rng.uniform(-3.0, 3.0)


def _log1p_ball(rng):
    mid = -1.0 + 10.0 ** rng.uniform(-15, 1)
    gap = 1.0 + mid
    return mobius.Ball(mid, gap * rng.choice([0.0, 10.0 ** rng.uniform(-16, -1),
                                              1.0 - 2.0 ** -rng.randint(1, 50)]))


# name: (draw the input balls and exponent, the Ball operation, mpmath's f)
BALL_OPS = {
    "add": (lambda rng: ([random_ball(rng), random_ball(rng)], None),
            lambda a, b: a + b, lambda a, b: a + b),
    "sub": (lambda rng: ([random_ball(rng), random_ball(rng)], None),
            lambda a, b: a - b, lambda a, b: a - b),
    "mul": (lambda rng: ([random_ball(rng), random_ball(rng)], None),
            lambda a, b: a * b, lambda a, b: a * b),
    "div": (lambda rng: ([random_ball(rng), random_ball(rng, near_pole_at=0.0)], None),
            lambda a, b: a / b, lambda a, b: a / b),
    "int_pow": (lambda rng: _pow_case(rng, True), pow, pow),
    "real_pow": (lambda rng: _pow_case(rng, False), pow, pow),
    "exp": (lambda rng: ([mobius.Ball(rng.uniform(-30, 30), rng.choice([0.0, 1e-12, 0.5, 3.0]))],
                         None), mobius.Ball.exp, mpmath.exp),
    "log": (lambda rng: ([random_ball(rng, near_pole_at=0.0, positive=True)], None),
            mobius.Ball.log, mpmath.log),
    "log1p": (lambda rng: ([_log1p_ball(rng)], None), mobius.Ball.log1p, mpmath.log1p),
}


@pytest.mark.parametrize("name", sorted(BALL_OPS))
def test_ball_operations_enclose_mpmath(name):
    draw, op, f = BALL_OPS[name]
    rng = random.Random(f"{BALL_SEED}-{name}")
    for _ in range(BALL_CASES):
        balls, y = draw(rng)
        got = op(*balls) if y is None else op(*balls, y)
        for pts in itertools.product(*map(ball_points, balls)):
            with mpmath.workdps(ORACLE_DPS):
                want = f(*pts) if y is None else f(*pts, y)
            assert ball_contains(got, want), (name, balls, y, got)


def test_ball_fsum_and_constants_enclose_mpmath():
    rng = random.Random(BALL_SEED)
    for _ in range(BALL_CASES):
        terms = [random_ball(rng) for _ in range(rng.randint(1, 12))]
        got = mobius.Ball.fsum(terms)
        for i in range(3):  # every term at its low end, its midpoint, its high end
            with mpmath.workdps(ORACLE_DPS):
                want = mpmath.fsum(ball_points(t)[i] for t in terms)
            assert ball_contains(got, want), (terms, got)
    assert ball_contains(mobius.Ball.rounded(0.57721566490153286), mpmath.euler)
    assert ball_contains(mobius.Ball.rounded(-691 / 2730), mpmath.mpf(-691) / 2730)
    assert ball_contains(mobius.Ball(2.0) * 3, 6) and (mobius.Ball(2.0) * 3).rad > 0


def test_ball_of_an_int_covers_its_float_conversion():
    # ints beyond 2^53 round when they become the float midpoint
    for n in [2**53 + 1, 10**24 + 1, -2**63 - 1]:
        b = mobius.Ball(n)
        assert 0 < abs(Fraction(b.mid) - n) <= Fraction(b.rad), (n, b)
    for n in [0, 1, -7, 2**53, 10**15, -2**63]:
        assert mobius.Ball(n).rad == 0.0, n


@pytest.mark.parametrize("op", [
    lambda: mobius.Ball(1.0) / mobius.Ball(0.5, 0.5),
    lambda: mobius.Ball(1.0) / 0,
    lambda: 1.0 / mobius.Ball(-0.1, 0.2),
    lambda: mobius.Ball(0.1, 0.2) ** -2,
    lambda: mobius.Ball(0.0) ** -1,
    lambda: mobius.Ball(-2.0) ** 0.5,
    lambda: mobius.Ball(0.5, 0.5) ** 1.5,
    lambda: mobius.Ball(0.5, 0.6).log(),
    lambda: mobius.Ball(0.0).log(),
    lambda: mobius.Ball(-0.5, 0.5).log1p(),
    lambda: mobius.Ball(-1.0).log1p(),
])
def test_ball_reaching_a_singularity_raises(op):
    with pytest.raises(ValueError):
        op()


def test_rounding_policy_lives_in_the_ball_type():
    """_U and _ROUND_UP are named only where mobius defines them, in the Ball
    type and its helper _result, and once in _series_partial, zeta_S's numpy
    partial sum, which has no Ball form. A new hand count of rounding fails
    here."""
    seen = collections.Counter()
    for path in sorted(Path(mobius.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scope = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or (
                    node.name if isinstance(node, ast.alias) else None)
                if name in ("_U", "_ROUND_UP"):  # a name, an attribute or an import
                    seen[path.name, scope] += 1
    allowed = {("mobius.py", "<module>"), ("mobius.py", "_result"),
               ("mobius.py", "Ball"), ("mobius.py", "_series_partial")}
    assert set(seen) <= allowed, sorted(set(seen) - allowed)
    assert seen["mobius.py", "_series_partial"] == 1
