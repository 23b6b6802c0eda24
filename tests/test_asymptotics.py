"""Tests for partial-sum reports and maximal-order analysis.

Float targets were frozen from an independent 50-digit computation:
classical zeta values, Euler's constant, and products derived from them.
The witness-sequence check rebuilds the witness integer exactly with
big-int arithmetic and recomputes its ratio from scratch.
"""

import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sconv import asymptotics
from sconv.arith import SELF_CHECK_SEED
from sconv.asymptotics import (
    EULER_GAMMA,
    LOGLOG_FLOOR,
    AsymptoticReport,
    _partial_sums,
    _sigma_constant,
    _tau_constants,
    asymptotic_report,
    gronwall_range_max,
    sigma_main_term,
    sigma_maximal_constant,
    sigma_maximal_constant_uniform,
    tau_main_term,
    tau_maximal_ratio,
    witness_sequence,
)
from sconv.cli import main
from sconv.divisor_functions import sigma_S_table, tau_S_table
from sconv.errors import ConsistencyError, LimitError
from sconv.mobius import mu_set_table
from sconv.sets import ExponentRule, make_general_sset, make_mult_sset, parse_sset
from test_mobius import LOG_TERMS, ORACLE_DPS, ORACLE_PRIMES, ORACLE_SETS, oracle, prime_tail, within
from test_sweeps import MIXED_RULES, PROPERTY, exponent_rules

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]

ZETA_2 = 1.6449340668482264
ZETA_3 = 1.2020569031595943
ZETA_Q2_3 = 1.1815649490102569
ZETA_Q3_3 = 1.1996475396471398
ZETA_L2_3 = 1.0193823952102515
E_GAMMA = 1.7810724179901980
E_GAMMA_OVER_ZETA_2 = 1.0827621932609246   # limsup constant, unitary case
E_GAMMA_OVER_ZETA_4 = 1.6456012053655584   # squarefree case
E_GAMMA_OVER_ZETA_6 = 1.7507097502744094   # cubefree case


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
    raise AssertionError(spec)


def brute_sigma_pp(spec: str, p: int, e: int) -> int:
    return sum(p**b for b in range(e + 1) if member_oracle(spec, p ** min(b, e - b)))


# ---------------------------------------------------------------------------
# main terms


def test_sigma_main_term_constants():
    # leading constant is zeta(2) zeta_S(3) / (2 zeta(3))
    expect = {
        "N": ZETA_2 / 2,
        "1": ZETA_2 / (2 * ZETA_3),
        "Q2": ZETA_2 * ZETA_Q2_3 / (2 * ZETA_3),
        "Q3": ZETA_2 * ZETA_Q3_3 / (2 * ZETA_3),
        "L2": ZETA_2 * ZETA_L2_3 / (2 * ZETA_3),
    }
    for spec, want in expect.items():
        got = sigma_main_term(parse_sset(spec), 10**6) / 10**12
        assert got == pytest.approx(want, abs=5e-9), spec


def test_sigma_main_term_scales_quadratically():
    S = parse_sset("Q2")
    a = sigma_main_term(S, 1000.0)
    b = sigma_main_term(S, 2000.0)
    assert b / a == pytest.approx(4.0, rel=1e-12)


def test_tau_main_term_full_set():
    # for the unrestricted set the series corrections cancel exactly
    for x in [100.0, 10**4, 10**6]:
        want = x * (math.log(x) + 2 * EULER_GAMMA - 1)
        assert tau_main_term(parse_sset("N"), x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("key", sorted(ORACLE_SETS))
def test_main_term_constants_hold_against_mpmath(key):
    """A and B of the tau main term and the sigma constant each lie within
    their reported bound of the 30-digit oracle, with no slack."""
    S = ORACLE_SETS[key]
    zs2, dzs2 = oracle(key, 2.0)
    with mpmath.workdps(ORACLE_DPS):
        z2, z3 = mpmath.zeta(2), mpmath.zeta(3)
        want_a = zs2 / z2
        want_b = 2 * mpmath.euler - 1 + 2 * dzs2 / zs2 - 2 * mpmath.zeta(2, derivative=1) / z2
        want_k = z2 * oracle(key, 3.0)[0] / (2 * z3)
    a, b = _tau_constants(S)
    err = max(a.rad, b.rad)
    assert within(a.mid, want_a, err) and within(b.mid, want_b, err), (a, b)
    assert err <= 1e-14
    k = _sigma_constant(S)
    assert within(k.mid, want_k, k.rad), k
    assert k.rad <= 1e-14


def test_tau_constants_certify_from_a_table_bound_of_7e5():
    """A table-backed S meets TAU_TOL through its series once its membership
    bound passes about 7.4e5, where the tail of zeta_S'(2) falls to 2e-5;
    at 1.1e6 a tol of 1e-5 would still miss. F{1,2,6} has an exact zeta_S."""
    with mpmath.workdps(ORACLE_DPS):
        zs2 = 1 + mpmath.mpf(1) / 4 + mpmath.mpf(1) / 36
        dzs2 = -(mpmath.log(2) / 4 + mpmath.log(6) / 36)
        z2 = mpmath.zeta(2)
        want_a = zs2 / z2
        want_b = 2 * mpmath.euler - 1 + 2 * dzs2 / zs2 - 2 * mpmath.zeta(2, derivative=1) / z2
    a, b = _tau_constants(make_general_sset([1, 2, 6], 1_100_000))
    err = max(a.rad, b.rad)
    assert within(a.mid, want_a, err) and within(b.mid, want_b, err), (a, b)
    with pytest.raises(LimitError):
        _tau_constants(make_general_sset([1, 2, 6], 700_000))


def test_main_term_guards():
    with pytest.raises(ValueError):
        sigma_main_term(parse_sset("N"), 0.5)
    with pytest.raises(ValueError):
        tau_main_term(parse_sset("N"), 1.5)


# ---------------------------------------------------------------------------
# reports


def test_report_invariants_all_builtins():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for fn in ["sigma_S", "tau_S"]:
            r = asymptotic_report(S, fn, 30000, samples=12)
            assert r.fn == fn and r.sset_spec == spec
            assert list(r.xs) == sorted(set(r.xs))
            assert r.xs[-1] == 30000
            for ps, mt, ratio, rem in zip(r.partial_sums, r.main_terms,
                                          r.ratios, r.remainders):
                assert ratio == ps / mt
                assert rem == ps - mt
            assert abs(r.ratios[-1] - 1) < 5e-3, (spec, fn)
            if r.fit_exponent is not None:
                assert math.isfinite(r.fit_exponent)


def test_report_partial_sums_are_exact():
    # spot-check the accumulated sums against the longhand divisor scan
    r = asymptotic_report(parse_sset("Q2"), "sigma_S", 2000, samples=6)
    for x, ps in zip(r.xs, r.partial_sums):
        want = 0
        for n in range(1, x + 1):
            want += sum(d for d in range(1, n + 1)
                        if n % d == 0 and member_oracle("Q2", math.gcd(d, n // d)))
        assert ps == want, x


def test_report_rows_and_serialization(tmp_path):
    # the report's rows are what the asymp artifact carries
    r = asymptotic_report(parse_sset("L2"), "tau_S", 5000, samples=5)
    rows = r.rows()
    assert [row["x"] for row in rows] == list(r.xs)
    assert set(rows[0]) == {"x", "partial_sum", "main_term", "ratio", "remainder"}
    jp = tmp_path / "r.json"
    assert main(["asymp", "--sset", "L2", "--fn", "tau", "--n", "5000", "--samples", "5",
                 "--out", str(jp), "--format", "json"]) == 0
    assert json.loads(jp.read_text())["rows"] == rows


# sum_{n <= x} tau_Q2(n) and sigma_N(n) at the 24 default sample points of
# x_max = 4e6, frozen from the dense route (np.cumsum of the 4e6 tables)
PINNED_Q2_TAU = [
    (159, 806), (247, 1351), (384, 2259), (596, 3748), (926, 6201), (1439, 10206),
    (2236, 16789), (3473, 27470), (5396, 44878), (8383, 73159), (13024, 118952),
    (20233, 193000), (31434, 312649), (48835, 505582), (75868, 816355),
    (117868, 1316261), (183117, 2119410), (284486, 3408465), (441971, 5475235),
    (686637, 8785714), (1066745, 14083599), (1657271, 22554537),
    (2574701, 36088195), (4000000, 57694223)]
PINNED_N_SIGMA = [
    (159, 20776), (247, 50198), (384, 121540), (596, 292461), (926, 705601),
    (1439, 1702049), (2236, 4113268), (3473, 9920437), (5396, 23949130),
    (8383, 57799625), (13024, 139520080), (20233, 336702914), (31434, 812693718),
    (48835, 1961478214), (75868, 4734120045), (117868, 11426470965),
    (183117, 27578826719), (284486, 66564156548), (441971, 160659288670),
    (686637, 387769022159), (1066745, 935922508122), (1657271, 2258944680491),
    (2574701, 5452203646042), (4000000, 13159477428598)]


@pytest.mark.parametrize("spec, fn, pinned", [("Q2", "tau_S", PINNED_Q2_TAU),
                                              ("N", "sigma_S", PINNED_N_SIGMA)])
def test_report_partial_sums_pinned_at_4e6(spec, fn, pinned):
    r = asymptotic_report(parse_sset(spec), fn, 4_000_000)
    assert list(zip(r.xs, r.partial_sums)) == pinned
    assert all(type(p) is int for p in r.partial_sums)


@pytest.mark.parametrize("x_max, samples, want", [
    (100, 50, tuple(range(64, 101))),  # 50 geometric points round to 37 integers
    (2000, 9, (64, 98, 151, 233, 358, 550, 846, 1301, 2000)),
    (10**6, 7, (100, 464, 2154, 10000, 46416, 215443, 1000000)),
])
def test_report_sample_points_pinned(x_max, samples, want):
    # the distinct rounded geometric points from max(64, x_max^(1/3)) to x_max
    assert asymptotic_report(parse_sset("N"), "tau_S", x_max, samples).xs == want


def test_report_determinism():
    a = asymptotic_report(parse_sset("1"), "sigma_S", 8000, samples=6)
    b = asymptotic_report(parse_sset("1"), "sigma_S", 8000, samples=6)
    assert a == b


def test_report_guards():
    S = parse_sset("N")
    with pytest.raises(LimitError):
        asymptotic_report(S, "sigma_S", 2 * 10**7)
    with pytest.raises(ValueError):
        asymptotic_report(S, "psi", 1000)
    with pytest.raises(ValueError):
        asymptotic_report(S, "tau_S", 1000, samples=1)
    with pytest.raises(ValueError):
        asymptotic_report(S, "tau_S", 50)


def test_report_rejects_bad_rows():
    with pytest.raises(ValueError):
        AsymptoticReport(sset_spec="N", fn="tau_S", x_max=10,
                         xs=(10, 5), partial_sums=(1.0, 1.0),
                         main_terms=(1.0, 1.0), ratios=(1.0, 1.0),
                         remainders=(0.0, 0.0), fit_exponent=None,
                         fit_residual=None, const_err=0.0)


# ---------------------------------------------------------------------------
# the hyperbola route of the partial sums against the dense tables

# x = p^2 - 1, p^2, p^2 + 1 put the largest d on both sides of sqrt x
PRIME_SQUARES = [p * p + e for p in (47, 997, 1999) for e in (-1, 0, 1)]
LARGE_XS = sorted(PRIME_SQUARES + [999983, 10**6])


def file_set(tmp_path, bound):
    """A FILE set with bound covering sqrt(max LARGE_XS): 1 and a seeded
    third of 2..bound, so neither multiplicative nor rule-based."""
    rng = random.Random(5)
    members = [1] + [m for m in range(2, bound + 1) if rng.random() < 1 / 3]
    path = tmp_path / "s.txt"
    path.write_text("\n".join([f"bound {bound}", *map(str, members)]) + "\n")
    return parse_sset(f"FILE:{path}")


def hyperbola_sums(S, fn, xs):
    mu = mu_set_table(S, max(math.isqrt(max(xs)), 1))
    return _partial_sums(mu, fn == "sigma_S", list(xs))


def dense_sums(S, fn, N):
    table = sigma_S_table(S, N) if fn == "sigma_S" else tau_S_table(S, N)
    return np.cumsum(table).tolist()


@pytest.mark.parametrize("fn", ["tau_S", "sigma_S"])
@pytest.mark.parametrize("spec", BUILTINS + ["F{1,2,6}", "mixed", "FILE"])
def test_hyperbola_partial_sums_match_dense_tables(spec, fn, tmp_path):
    # every x <= 3000 on every set; the large points where the bound allows
    if spec == "FILE":
        S = file_set(tmp_path, math.isqrt(LARGE_XS[-1]))
    else:
        S = MIXED_RULES if spec == "mixed" else parse_sset(spec)
    xs = list(range(3001)) + (LARGE_XS if spec != "F{1,2,6}" else [])
    got = hyperbola_sums(S, fn, xs)
    want = dense_sums(S, fn, max(xs))
    assert all(type(v) is int for v in got)
    assert got == [want[x] for x in xs]


@PROPERTY
@given(default=exponent_rules(),
       overrides=st.dictionaries(st.sampled_from([2, 3, 5, 7]), exponent_rules(), max_size=3),
       xs=st.lists(st.integers(0, 20000), min_size=1, max_size=30),
       fn=st.sampled_from(["tau_S", "sigma_S"]))
def test_hyperbola_partial_sums_random_rule_sets(default, overrides, xs, fn):
    S = make_mult_sset(default, overrides)
    want = dense_sums(S, fn, max(max(xs), 1))
    assert hyperbola_sums(S, fn, xs) == [want[x] for x in xs]


@pytest.mark.parametrize("fn, name", [("tau_S", "tau_S_at"), ("sigma_S", "sigma_S_at")])
def test_report_self_check_is_live(monkeypatch, fn, name):
    # the first seeded n of the self-check gets a direct value off by one
    x_max = 5000
    n0 = random.Random(SELF_CHECK_SEED).randint(1, x_max)
    real = getattr(asymptotics, name)
    monkeypatch.setattr(asymptotics, name, lambda S, n: real(S, n) + (n == n0))
    with pytest.raises(ConsistencyError, match=f"self-check failed at n={n0}:"):
        asymptotic_report(parse_sset("Q2"), fn, x_max)


def test_partial_sums_int64_guard():
    mu = mu_set_table(parse_sset("Q2"), math.isqrt(2 * 10**9))
    with pytest.raises(LimitError, match="int64"):
        _partial_sums(mu, True, [2 * 10**9])
    # tau: the bound scales with max |mu_S|
    with pytest.raises(LimitError, match="int64"):
        _partial_sums(np.array([0, 1 << 40]), False, [10**9])


def test_partial_sums_exact_below_the_guard():
    # just under the sigma bound (4 x^2 < 2^63 with max |mu_Q2| = 1), against
    # the same hyperbola formula in Python ints
    x = 1_500_000_000
    mu = mu_set_table(parse_sset("Q2"), math.isqrt(x))
    want = 0
    for d in np.flatnonzero(mu).tolist():
        y = x // (d * d)
        r = math.isqrt(y)
        f = sum(k * (y // k) + (y // k) * (y // k + 1) // 2 for k in range(1, r + 1))
        want += int(mu[d]) * d * (f - r * r * (r + 1) // 2)
    assert _partial_sums(mu, True, [x]) == [want]
    assert want > 10**18


# ---------------------------------------------------------------------------
# maximal order of sigma_S


def test_maximal_constant_full_set_is_e_gamma():
    mc = sigma_maximal_constant(parse_sset("N"))
    assert mc.value == pytest.approx(E_GAMMA, abs=1e-12)
    assert mc.uniform_s is None


def test_maximal_constant_frozen_values():
    cases = {"1": E_GAMMA_OVER_ZETA_2, "Q2": E_GAMMA_OVER_ZETA_4,
             "Q3": E_GAMMA_OVER_ZETA_6}
    for spec, want in cases.items():
        mc = sigma_maximal_constant(parse_sset(spec))
        assert abs(mc.value - want) <= mc.err_bound + 1e-12, spec
        assert mc.err_bound <= 2e-8, spec
        assert float(mc) == mc.value


def test_maximal_constant_uniform_s_detection():
    want = {"1": 1, "Q2": 2, "Q3": 3, "L2": 1, "L3": 1, "N": None, "P{2,3}": None}
    for spec, s in want.items():
        assert sigma_maximal_constant(parse_sset(spec)).uniform_s == s, spec


def test_kfull_sets_share_the_unitary_constant():
    # least excluded exponent is 1 at every prime for both
    a = sigma_maximal_constant(parse_sset("1"))
    b = sigma_maximal_constant(parse_sset("L2"))
    assert a.value == b.value


def test_maximal_constant_cross_convolution():
    # all powers of 2 and 3 allowed, everything else excluded at exponent 1:
    # constant is e^gamma (1 - 2^-2)^-1 (1 - 3^-2)^-1 / zeta(2)
    mc = sigma_maximal_constant(parse_sset("P{2,3}"))
    want = E_GAMMA_OVER_ZETA_2 * (4.0 / 3.0) * (9.0 / 8.0)
    assert abs(mc.value - want) <= mc.err_bound + 1e-9


def test_maximal_constant_override_on_finite_default():
    # finite {1, 3} gives s = 2 at every prime but 5, where at_least(2) gives s = 1
    S = make_mult_sset(ExponentRule.finite({1, 3}), {5: ExponentRule.at_least(2)})
    mc = sigma_maximal_constant(S)
    want = E_GAMMA / (math.pi ** 4 / 90) * (1 - 5.0 ** -2) / (1 - 5.0 ** -4)
    assert abs(mc.value - want) <= mc.err_bound
    assert mc.uniform_s is None


@pytest.mark.parametrize("key", sorted(ORACLE_SETS))
def test_maximal_constant_holds_against_mpmath(key):
    # the product itself at 30 digits: the primes <= P0 one by one, the
    # rest through log(1 - y) = -sum y^n/n and the prime zeta tail
    S = ORACLE_SETS[key]
    m = S.mult
    s0 = m.default_rule.least_excluded()
    with mpmath.workdps(ORACLE_DPS + 10):
        want = mpmath.exp(mpmath.euler)
        for p in ORACLE_PRIMES:
            s = m.rule_at(p).least_excluded()
            if s is not None:
                want *= 1 - mpmath.mpf(p) ** (-2 * s)
        if s0 is not None:
            want *= mpmath.exp(-sum(prime_tail(mpmath.mpf(2 * s0 * n))[0] / n
                                    for n in range(1, LOG_TERMS + 1)))
    mc = sigma_maximal_constant(S)
    assert within(mc.value, want, mc.err_bound), (mc.value, mc.err_bound)
    assert mc.err_bound <= 1e-14


def test_closed_form_two_path_agreement():
    # the two certified Balls overlap
    for spec, s in [("1", 1), ("Q2", 2), ("Q3", 3), ("L2", 1)]:
        mc = sigma_maximal_constant(parse_sset(spec))
        closed = sigma_maximal_constant_uniform(s)
        assert abs(mc.value - closed.mid) <= mc.err_bound + closed.rad, (spec, closed)


def test_uniform_closed_form_values():
    for s in [1, 2, 3]:
        closed = sigma_maximal_constant_uniform(s)
        with mpmath.workdps(ORACLE_DPS):
            want = mpmath.exp(mpmath.euler) / mpmath.zeta(2 * s)
        assert within(closed.mid, want, closed.rad) and closed.rad <= 2e-9, (s, closed)


def test_maximal_constant_rejects_general_sets():
    with pytest.raises(ValueError):
        sigma_maximal_constant(parse_sset("F{1,2}"))


# ---------------------------------------------------------------------------
# witness sequences


def test_witness_structure_unitary():
    w = witness_sequence(parse_sset("1"), 0.1, 5)
    assert w.t == 3 and w.a is None
    assert w.factorization[0] == (2, 1)
    assert w.log_n >= LOGLOG_FLOOR
    assert all(e == 1 for _, e in w.factorization)


def test_witness_structure_full_set():
    w = witness_sequence(parse_sset("N"), 0.1, 5)
    assert w.t == 3 and w.a == 4
    # all-in primes up to t carry exponent a - 1, tail primes exponent 1
    assert w.factorization[0] == (2, 3) and w.factorization[1] == (3, 3)
    assert w.factorization[-1][1] == 1


def test_witness_ratio_rebuilt_exactly():
    # recompute sigma_S(n)/n with exact big-int arithmetic, then the ratio
    for spec in ["N", "1", "L2"]:
        w = witness_sequence(parse_sset(spec), 0.1, 5)
        sig_over_n = Fraction(1)
        log_n = 0.0
        for p, e in w.factorization:
            sig_over_n *= Fraction(brute_sigma_pp(spec, p, e), p**e)
            log_n += e * math.log(p)
        assert w.log_n == pytest.approx(log_n, rel=1e-12), spec
        assert w.sigma_over_n == pytest.approx(float(sig_over_n), rel=1e-10), spec
        want_ratio = float(sig_over_n) / math.log(log_n)
        assert w.ratio == pytest.approx(want_ratio, rel=1e-10), spec


def test_witness_ratio_near_constant_at_large_k():
    # the ratio approaches the limsup constant from above as k grows
    w = witness_sequence(parse_sset("1"), 0.1, 12)
    c = E_GAMMA_OVER_ZETA_2
    assert 0.75 * c <= w.ratio <= 1.05 * c
    seq = [witness_sequence(parse_sset("1"), 0.1, k).ratio for k in (6, 8, 10, 12)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(r > c for r in seq)


def test_witness_guards():
    S1 = parse_sset("1")
    with pytest.raises(ValueError):
        witness_sequence(S1, 0.1, 1)   # no tail primes in (t, e^k]
    with pytest.raises(LimitError):
        witness_sequence(S1, 0.1, 16)
    with pytest.raises(ValueError):
        witness_sequence(S1, 0.0, 5)
    with pytest.raises(ValueError):
        witness_sequence(S1, 1.0, 5)
    with pytest.raises(ValueError):
        witness_sequence(parse_sset("F{1,2}"), 0.1, 5)


# ---------------------------------------------------------------------------
# maximal order of tau, and the Gronwall-style range scan


def test_tau_ratio_small_k_by_hand():
    theta = math.log(2 * 3 * 5 * 7)
    want = 4 * math.log(2) * math.log(theta) / theta
    assert tau_maximal_ratio(4) == pytest.approx(want, rel=1e-12)


def test_tau_ratio_decreasing():
    seq = [tau_maximal_ratio(k) for k in range(10, 70, 10)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(r > math.log(2) for r in seq)


def test_tau_ratio_guard():
    with pytest.raises(ValueError):
        tau_maximal_ratio(1)


def test_gronwall_scan_matches_brute():
    def sigma(n: int) -> int:
        return sum(d for d in range(1, n + 1) if n % d == 0)

    best, arg = None, None
    for n in range(5041, 6001):
        r = sigma(n) / (n * math.log(math.log(n)))
        if best is None or r > best:
            best, arg = r, n
    got, got_n = gronwall_range_max(6000)
    assert got_n == arg
    assert got == pytest.approx(best, rel=1e-12)
    assert got < E_GAMMA


def test_gronwall_guards():
    with pytest.raises(ValueError):
        gronwall_range_max(6000, start=10)
