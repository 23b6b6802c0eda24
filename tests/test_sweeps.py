"""Property tests of the two bulk S-convolution sweeps and the S-inverse of I.

s_convolve_table is compared entry by entry with the pointwise
s_convolve_at, and s_inverse with a longhand Fraction recursion over
trial-division divisors; every inverse must also satisfy g * f = delta
pointwise. The local recurrence behind mobius.inverse_of_I is compared
with the same recursion, and inverse_of_I with s_inverse. Random tables
and sets come from hypothesis, derandomized so a run repeats exactly.
"""

import math
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sconv.arith import eval_multiplicative
from sconv.cli import main
from sconv.convolve import (
    DEFAULT_SEED,
    ArithFunc,
    random_arith_func,
    random_multiplicative_func,
    s_convolve_at,
    s_convolve_table,
    s_inverse,
)
from sconv.errors import LimitError
from sconv.mobius import _inverse_of_I_pp, inverse_of_I
from sconv.sets import ExponentRule, is_associative, make_mult_sset, parse_sset, rho

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]
# one set using every rule kind: default below 3, then at_least, finite, none, all
MIXED_RULES = make_mult_sset(ExponentRule.below(3), {
    2: ExponentRule.at_least(2), 3: ExponentRule.finite({1, 3}),
    5: ExponentRule.none_(), 7: ExponentRule.all_()})
SETS = {**{spec: parse_sset(spec) for spec in BUILTINS + ["F{1,2,6}"]},
        "mixed": MIXED_RULES}
ASSOCIATIVE = ["N", "1", "L2", "L3", "P{2,3}"]
# around the sweep's split point isqrt(N) and the block edges of the inverse
SIZES = [1, 2, 3, 4, 8, 9, 10, 24, 25, 26, 99, 100, 101]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def table_func(vals, name="t"):
    return ArithFunc.from_table([0] + list(vals), name)


def values(lo=-9, hi=9):
    return st.integers(lo, hi)


@st.composite
def sized_tables(draw, count, elements, unit=None):
    """(N, [table, ...]) with N drawn from SIZES; unit fixes every f(1)."""
    N = draw(st.sampled_from(SIZES))
    tabs = [draw(st.lists(elements, min_size=N, max_size=N)) for _ in range(count)]
    if unit is not None:
        for t in tabs:
            t[0] = draw(st.sampled_from(unit))
    return N, tabs


def check_against_pointwise(S, f, g, N):
    tab = s_convolve_table(S, f, g, N)
    assert isinstance(tab, np.ndarray) and len(tab) == N + 1
    assert tab[0] == 0
    for n in range(1, N + 1):
        assert tab[n] == s_convolve_at(S, f, g, n), n
    return tab


def brute_inverse(S, f, N):
    """The defining recursion, with divisors by trial division."""
    g = [0, Fraction(1) / Fraction(f(1))]
    for n in range(2, N + 1):
        acc = sum(g[d] * f(n // d) for d in range(1, n)
                  if n % d == 0 and rho(S, math.gcd(d, n // d)))
        g.append(-acc / f(1))
    return g


def check_inverse(S, f, N):
    got = s_inverse(S, f, N)
    assert got == brute_inverse(S, f, N)
    inv = ArithFunc.from_table(got, "inv")
    for n in range(1, N + 1):
        assert s_convolve_at(S, inv, f, n) == (n == 1), n
    return got


# ---------------------------------------------------------------------------
# s_convolve_table


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("key", sorted(SETS))
def test_convolve_table_named_functions(key, N):
    S = SETS[key]
    for f, g in [("I", "I"), ("E", "mu"), ("tau", "sigma"), ("delta", "phi")]:
        check_against_pointwise(S, ArithFunc.named(f), ArithFunc.named(g), N)


@pytest.mark.parametrize("key", sorted(SETS))
@PROPERTY
@given(data=sized_tables(2, values()))
def test_convolve_table_random_tables(key, data):
    N, (fv, gv) = data
    tab = check_against_pointwise(SETS[key], table_func(fv), table_func(gv), N)
    assert tab.dtype == np.int64


@pytest.mark.parametrize("key", ["N", "L2", "Q3", "mixed"])
@PROPERTY
@given(data=sized_tables(2, values(2**40 - 9, 2**40 + 9) | values(-2**40 - 9, -2**40 + 9)))
def test_convolve_table_values_near_2_40_stay_exact(key, data):
    N, (fv, gv) = data
    tab = check_against_pointwise(SETS[key], table_func(fv), table_func(gv), N)
    assert tab.dtype == object  # 2^80-sized products leave int64
    assert all(type(v) is int for v in tab.tolist())


def test_convolve_table_int64_guard_boundary():
    # N = 4 sums at most 2 isqrt(4) = 4 products per entry: the guard is
    # max|f| max|g| 4 < 2^63, i.e. max|f| max|g| <= 2^61 - 1
    S = parse_sset("N")
    one = table_func([1, 1, 1, 1])
    at_guard = check_against_pointwise(S, table_func([2**61 - 1] * 4), one, 4)
    assert at_guard.dtype == np.int64
    assert at_guard[4] == 3 * (2**61 - 1)
    past_guard = check_against_pointwise(S, table_func([-2**61] * 4), one, 4)
    assert past_guard.dtype == object
    assert past_guard[4] == -3 * 2**61


def test_convolve_table_fraction_values():
    S = parse_sset("L2")
    f = table_func([Fraction(1, n) for n in range(1, 101)])
    tab = check_against_pointwise(S, f, ArithFunc.named("E"), 100)
    assert tab.dtype == object


def test_from_table_of_int64_array_gives_python_ints():
    f = ArithFunc.from_table(np.array([0, 2**40, 2**40], dtype=np.int64))
    assert type(f(1)) is int and type(f(2)) is int
    S = parse_sset("N")
    assert s_convolve_at(S, f, f, 1) == 2**80
    assert s_convolve_at(S, f, f, 2) == 2**81


def test_sweep_of_an_array_backed_function_builds_no_list():
    # from_table keeps an int64 table as it is; a pointwise call reads one
    # entry as a Python int, table() lists its prefix, and nothing lists the
    # whole table
    S, N = SETS["L2"], 1000
    f = random_arith_func(random.Random(DEFAULT_SEED), N)
    g = random_multiplicative_func(random.Random(DEFAULT_SEED), N)
    s_convolve_table(S, f, g, N)
    s_convolve_table(S, f, ArithFunc.named("I"), N)
    assert isinstance(f._values, np.ndarray) and isinstance(g._values, np.ndarray)
    assert type(f(N)) is int and f(N) == int(f.array(N)[N])
    assert f.table(N) == [0] + f.array(N)[1:].tolist()
    assert g.table(N // 2) == [0] + g.array(N // 2)[1:].tolist()
    assert {*map(type, g.table(N))} == {int}
    assert isinstance(f._values, np.ndarray) and isinstance(g._values, np.ndarray)


def array_func(vals, name="a"):
    return ArithFunc.from_table(np.array([0] + list(vals), dtype=np.int64), name)


@pytest.mark.parametrize("key", sorted(SETS))
def test_convolve_table_array_route_matches_list_route(key):
    # random_arith_func and int64 tables reach the sweep as their own arrays;
    # the same values as lists take the pointwise tabulation
    S, N = SETS[key], 100
    fa = random_arith_func(random.Random(DEFAULT_SEED), N)
    fl = table_func(fa.table(N)[1:])
    g = random_multiplicative_func(random.Random(DEFAULT_SEED), N)
    assert fa.array(N) is not None and fl.array(N) is None and g.array(N) is not None
    tab = check_against_pointwise(S, fa, g, N)
    assert tab.dtype == np.int64
    for pair in ((fl, g), (fa, table_func(g.table(N)[1:])), (g, fa)):
        assert np.array_equal(s_convolve_table(S, *pair, N), tab)
    for name in ("I", "E", "delta"):
        h = ArithFunc.named(name)
        assert h.array(N).tolist() == h.table(N)
        assert np.array_equal(s_convolve_table(S, fa, h, N),
                              s_convolve_table(S, fl, table_func(h.table(N)[1:]), N))


@pytest.mark.parametrize("key", ["N", "L2", "Q3", "F{1,2,6}"])
def test_convolve_table_array_route_object_fallbacks(key):
    S, N = SETS[key], 60
    fa = random_arith_func(random.Random(DEFAULT_SEED), N)
    big = table_func([2**63] + [n - 30 for n in range(2, N + 1)])  # past int64: objects
    tab = check_against_pointwise(S, fa, big, N)
    assert tab.dtype == object and all(type(v) is int for v in tab.tolist())
    near = array_func([2**62] * N)  # int64 in, but the sweep's product guard trips
    tab = check_against_pointwise(S, near, fa, N)
    assert tab.dtype == object and all(type(v) is int for v in tab.tolist())


@pytest.mark.parametrize("spec", ASSOCIATIVE)
def test_convolve_table_array_route_with_fraction_inverse(spec):
    S, N = SETS[spec], 64
    f = random_arith_func(random.Random(DEFAULT_SEED), N)
    f = array_func([3] + f.table(N)[2:])  # f(1) = 3: the inverse holds Fractions
    inv = ArithFunc.from_table(s_inverse(S, f, N))
    assert inv.array(N) is None and inv(1) == Fraction(1, 3)
    conv = check_against_pointwise(S, inv, f, N)
    assert conv.dtype == object
    assert conv[1] == 1 and not any(conv[2:])


def test_int64_table_array_is_bounded():
    f = array_func([4, 5, 6])
    assert f.array(2).tolist() == [0, 4, 5]
    assert not f.array(2).flags.writeable  # a sweep cannot change the function
    with pytest.raises(LimitError):
        f.array(4)


def test_convolve_table_needs_membership_to_isqrt_n():
    S = parse_sset("F{1,2,6}")  # membership known to 100
    I = ArithFunc.named("I")
    tab = s_convolve_table(S, I, I, 101**2 - 1)  # isqrt = 100
    assert tab[6**2] == s_convolve_at(S, I, I, 6**2)
    with pytest.raises(LimitError):
        s_convolve_table(S, I, I, 101**2)


def test_cli_table_limit_exit_code(capsys):
    assert main(["verify", "--sset", "F{1,2,6}", "--suite", "algebra", "--n", "10201"]) == 3
    assert "exceeds bound 100" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# s_inverse


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("spec", ASSOCIATIVE)
def test_inverse_of_named_functions(spec, N):
    S = SETS[spec]
    for name in ("I", "E", "mu", "sigma"):
        got = check_inverse(S, ArithFunc.named(name), N)
        assert all(type(v) is int for v in got)


@pytest.mark.parametrize("spec", ASSOCIATIVE)
@PROPERTY
@given(data=sized_tables(1, values(), unit=(1, -1)))
def test_inverse_random_unit_tables(spec, data):
    N, (fv,) = data
    got = check_inverse(SETS[spec], table_func(fv), N)
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("spec", ASSOCIATIVE)
@PROPERTY
@given(data=sized_tables(1, values(), unit=(3,)))
def test_inverse_fractions_when_f1_is_3(spec, data):
    N, (fv,) = data
    f = table_func(fv)
    got = check_inverse(SETS[spec], f, N)
    assert got[1] == Fraction(1, 3)
    conv = s_convolve_table(SETS[spec], ArithFunc.from_table(got), f, N)
    assert conv.dtype == object
    assert conv[1] == 1 and not any(conv[2:])


def test_inverse_refuses_non_associative_sets():
    for key in ("Q2", "Q3", "mixed", "F{1,2,6}"):
        for route in (lambda S: s_inverse(S, ArithFunc.named("I"), 10),
                      lambda S: inverse_of_I(S, 1, 10)):
            with pytest.raises(ValueError, match="only under associative convolutions"):
                route(SETS[key])


# ---------------------------------------------------------------------------
# the S-inverse of I: the local recurrence and inverse_of_I


def recurrence_extension(S, N):
    """[0, g(1), ..., g(N)] from the prime-power recurrence of the S-inverse of I."""
    return [0] + [eval_multiplicative(partial(_inverse_of_I_pp, S), n) for n in range(1, N + 1)]


@pytest.mark.parametrize("key", sorted(set(SETS) - {"F{1,2,6}"}))
def test_inverse_recurrence_matches_brute_force(key):
    # non-associative Q2, Q3 and mixed included: g * I = delta has the one
    # solution, and the commutative convolution makes it two-sided
    S = SETS[key]
    assert recurrence_extension(S, 500) == brute_inverse(S, ArithFunc.named("I"), 500)


@pytest.mark.parametrize("spec", ASSOCIATIVE)
def test_inverse_of_I_matches_push_sieve(spec):
    S, N = SETS[spec], 10**4
    want = s_inverse(S, ArithFunc.named("I"), N)
    windows = [w.copy() for w in inverse_of_I(S, 1, N)]  # the windowed sieve
    assert all(w.dtype == np.int64 for w in windows)
    assert [v for w in windows for v in w.tolist()] == want[1:]
    assert inverse_of_I(S, N - 999, N) == [want[N - 999 :]]  # pointwise
    assert inverse_of_I(S, 7, 7) == [[want[7]]]


@st.composite
def exponent_rules(draw):
    kind = draw(st.sampled_from(["all", "none", "below", "at_least", "finite"]))
    if kind == "all":
        return ExponentRule.all_()
    if kind == "none":
        return ExponentRule.none_()
    if kind == "below":
        return ExponentRule.below(draw(st.integers(2, 5)))
    if kind == "at_least":
        return ExponentRule.at_least(draw(st.integers(2, 5)))
    return ExponentRule.finite(draw(st.sets(st.integers(1, 6), min_size=1)))


@PROPERTY
@given(default=exponent_rules(),
       overrides=st.dictionaries(st.sampled_from([2, 3, 5, 7]), exponent_rules(), max_size=3))
def test_inverse_recurrence_random_rule_sets(default, overrides):
    S = make_mult_sset(default, overrides)
    N = 256
    got = recurrence_extension(S, N)
    assert got == brute_inverse(S, ArithFunc.named("I"), N)
    if is_associative(S):
        assert inverse_of_I(S, 1, N) == [got[1:]]
