"""Tests for the restricted convolution engine.

The oracle is a from-scratch convolution: enumerate divisors by trial
division, test the gcd against a longhand membership predicate, and sum.
Everything random is seeded.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sconv import convolve
from sconv.arith import divisors
from sconv.cli import main
from sconv.convolve import (
    DEFAULT_SEED,
    NAMED_FUNCTIONS,
    ArithFunc,
    _least_excluded_member,
    associativity_violation_functions,
    indicator,
    random_arith_func,
    random_multiplicative_func,
    s_convolve,
    s_convolve_at,
    s_convolve_table,
    s_divisors,
    normalized_unit,
    s_inverse,
    zero_divisor_pair,
)
from sconv.errors import ConsistencyError, LimitError
from sconv.sets import (
    is_associative,
    is_multiplicative,
    make_general_sset,
    parse_sset,
    rho,
    rho_table,
)

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]


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
    raise AssertionError(spec)


def brute_conv(spec: str, f, g, n: int) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0 and member_oracle(spec, math.gcd(d, n // d)):
            total += f(d) * g(n // d)
    return total


def brute_mu(n: int) -> int:
    fac = brute_factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return (-1) ** len(fac)


# ---------------------------------------------------------------------------
# named functions


def test_named_function_values():
    tau = ArithFunc.named("tau")
    sigma = ArithFunc.named("sigma")
    tau_star = ArithFunc.named("tau_star")
    sigma_star = ArithFunc.named("sigma_star")
    phi = ArithFunc.named("phi")
    mu = ArithFunc.named("mu")
    for n in range(1, 300):
        ds = [d for d in range(1, n + 1) if n % d == 0]
        uds = [d for d in ds if math.gcd(d, n // d) == 1]
        assert tau(n) == len(ds)
        assert sigma(n) == sum(ds)
        assert tau_star(n) == len(uds)
        assert sigma_star(n) == sum(uds)
        assert phi(n) == sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert mu(n) == brute_mu(n)


def test_named_registry():
    assert set(NAMED_FUNCTIONS) == {"I", "E", "delta", "mu", "tau", "sigma",
                                    "tau_star", "sigma_star", "phi"}
    with pytest.raises(KeyError):
        ArithFunc.named("nope")


def test_from_table_limits():
    f = ArithFunc.from_table([0, 5, 7, 9], "small")
    assert f(1) == 5 and f(3) == 9
    with pytest.raises(LimitError):
        f(4)


# ---------------------------------------------------------------------------
# the convolution itself


def test_s_divisors_match_oracle():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 200):
            want = [d for d in range(1, n + 1)
                    if n % d == 0 and member_oracle(spec, math.gcd(d, n // d))]
            assert s_divisors(S, n) == want, (spec, n)


def test_s_divisors_of_table_backed_sets_match_scalar_membership():
    # one searchsorted for every gcd of n gives what one rho per divisor gives
    sets = [parse_sset("F{1,2,6}"), make_general_sset([], 50, spec="<empty>")]
    for spec in ("Q2", "L2", "P{2,3}"):
        table = rho_table(parse_sset(spec), 400)
        sets.append(make_general_sset(np.flatnonzero(table).tolist(), 400, spec=spec))
    for S in sets:
        for n in list(range(1, 2501)) + [36**2 * 5, 2**12 * 3**6]:
            if math.isqrt(n) > S.general.bound:
                continue
            want = [d for d in divisors(n) if rho(S, math.gcd(d, n // d))]
            assert s_divisors(S, n) == want, (S.spec, n)
    assert s_divisors(sets[1], 12) == []
    # a gcd past the bound: the first one in divisor order is named
    for n in (101**2, 101**2 * 103**2, 2 * 3 * 107**2 * 101**2):
        with pytest.raises(LimitError, match=r"^membership of 101 unknown: set 'F\{1,2,6\}' bounded at 100$"):
            s_divisors(sets[0], n)


def test_convolution_matches_brute():
    I = ArithFunc.named("I")
    E = ArithFunc.named("E")
    tau = ArithFunc.named("tau")
    for spec in BUILTINS:
        S = parse_sset(spec)
        for f, g in [(I, I), (E, I), (tau, E)]:
            for n in range(1, 150):
                assert s_convolve_at(S, f, g, n) == brute_conv(spec, f, g, n), (spec, n)


def test_full_set_recovers_dirichlet():
    # tau = I * I and sigma = E * I under the unrestricted convolution
    S = parse_sset("N")
    I = ArithFunc.named("I")
    E = ArithFunc.named("E")
    tau = ArithFunc.named("tau")
    sigma = ArithFunc.named("sigma")
    for n in range(1, 400):
        assert s_convolve_at(S, I, I, n) == tau(n)
        assert s_convolve_at(S, E, I, n) == sigma(n)


def test_unitary_set_recovers_unitary():
    S = parse_sset("1")
    I = ArithFunc.named("I")
    E = ArithFunc.named("E")
    tau_star = ArithFunc.named("tau_star")
    sigma_star = ArithFunc.named("sigma_star")
    for n in range(1, 400):
        assert s_convolve_at(S, I, I, n) == tau_star(n)
        assert s_convolve_at(S, E, I, n) == sigma_star(n)


def test_convolve_table_matches_pointwise():
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 300)
    g = random_arith_func(rng, 300)
    for spec in BUILTINS:
        S = parse_sset(spec)
        tab = s_convolve_table(S, f, g, 300)
        assert tab[0] == 0
        for n in range(1, 301):
            assert tab[n] == s_convolve_at(S, f, g, n), (spec, n)


def test_s_convolve_wrapper():
    S = parse_sset("Q2")
    I = ArithFunc.named("I")
    h = s_convolve(S, I, I)
    for n in range(1, 100):
        assert h(n) == s_convolve_at(S, I, I, n)


# ---------------------------------------------------------------------------
# algebraic laws on random functions


def test_commutativity_random():
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 200)
    g = random_arith_func(rng, 200)
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 201):
            assert s_convolve_at(S, f, g, n) == s_convolve_at(S, g, f, n), (spec, n)


def test_distributivity_random():
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 150)
    g = random_arith_func(rng, 150)
    h = random_arith_func(rng, 150)
    fg = ArithFunc.from_table([0] + [f(n) + g(n) for n in range(1, 151)], "f+g")
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 151):
            lhs = s_convolve_at(S, fg, h, n)
            rhs = s_convolve_at(S, f, h, n) + s_convolve_at(S, g, h, n)
            assert lhs == rhs, (spec, n)


def test_delta_is_identity():
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 200)
    delta = ArithFunc.named("delta")
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 201):
            assert s_convolve_at(S, f, delta, n) == f(n), (spec, n)


def test_associativity_where_it_holds():
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 120)
    g = random_arith_func(rng, 120)
    h = random_arith_func(rng, 120)
    for spec in ["N", "1", "L2", "L3", "P{2,3}"]:
        S = parse_sset(spec)
        fg = s_convolve(S, f, g)
        gh = s_convolve(S, g, h)
        for n in range(1, 121):
            assert s_convolve_at(S, fg, h, n) == s_convolve_at(S, f, gh, n), (spec, n)


def test_associativity_violation_functions():
    for spec in ["Q2", "Q3"]:
        S = parse_sset(spec)
        f, g, h, n = associativity_violation_functions(is_associative(S).witness)
        fg = s_convolve(S, f, g)
        gh = s_convolve(S, g, h)
        assert s_convolve_at(S, fg, h, n) != s_convolve_at(S, f, gh, n), spec


# ---------------------------------------------------------------------------
# inverses


def test_inverse_of_I_full_set_is_mobius():
    S = parse_sset("N")
    inv = s_inverse(S, ArithFunc.named("I"), 300)
    for n in range(1, 301):
        assert inv[n] == brute_mu(n), n


def test_inverse_of_I_unitary_set():
    # unitary inverse of 1 is (-1)^omega(n)
    S = parse_sset("1")
    inv = s_inverse(S, ArithFunc.named("I"), 300)
    for n in range(1, 301):
        assert inv[n] == (-1) ** len(brute_factor(n)), n


def test_inverse_is_two_sided():
    rng = random.Random(DEFAULT_SEED + 1)
    f = random_arith_func(rng, 128, unit=True)
    for spec in ["N", "1", "L2", "P{2,3}"]:
        S = parse_sset(spec)
        inv_vals = s_inverse(S, f, 128)
        inv = ArithFunc.from_table(inv_vals, "inv")
        for n in range(1, 129):
            want = 1 if n == 1 else 0
            assert s_convolve_at(S, f, inv, n) == want, (spec, n)
            assert s_convolve_at(S, inv, f, n) == want, (spec, n)


def test_inverse_requires_unit():
    S = parse_sset("N")
    zero_at_one = ArithFunc.from_table([0, 0, 1, 1], "nounit")
    with pytest.raises(ValueError):
        s_inverse(S, zero_at_one, 3)


def test_inverse_refuses_non_associative_set():
    with pytest.raises(ValueError) as ei:
        s_inverse(parse_sset("Q2"), ArithFunc.named("I"), 64)
    assert "(16, 4, 2)" in str(ei.value)


def brute_s_inverse(S, f, N):
    """The defining recursion in Fractions over s_divisors: g(1) = 1/f(1),
    g(n) = -(1/f(1)) * sum of g(d) f(n/d) over the S-divisors d < n."""
    g = [0, Fraction(1, f(1))]
    for n in range(2, N + 1):
        g.append(-sum(g[d] * f(n // d) for d in s_divisors(S, n) if d < n) / f(1))
    return g


def unit_with(c, N, seed):
    """A seeded function with values on [-9, 9] but f(1) = c."""
    vals = random_arith_func(random.Random(seed), N).array(N).astype(np.int64)
    vals[1] = c
    return ArithFunc.from_table(vals, f"unit{c}")


@pytest.mark.parametrize("c", [1, -1, 2, 5, -7])
def test_inverse_matches_fraction_recursion(tmp_path, c):
    path = tmp_path / "l2.txt"
    l2 = np.flatnonzero(rho_table(parse_sset("L2"), 1000)).tolist()
    path.write_text("bound 1000\n" + "".join(f"{m}\n" for m in l2))
    N = 600
    f = unit_with(c, N, DEFAULT_SEED + c)
    for spec in ("N", "1", "L2", "P{2,3}", f"FILE:{path}"):
        S = parse_sset(spec)
        got, want = s_inverse(S, f, N), brute_s_inverse(S, f, N)
        assert got == want, (spec, c)
        # a Python int wherever the value is whole, a Fraction elsewhere
        assert [type(v) for v in got] == [int if v.denominator == 1 else Fraction for v in want]


def test_inverse_past_int64_runs_on_python_ints():
    # f(1) = 10^6: f2(512) = f(512) c^8 and the inverse of f2 pass 2^162
    S, N = parse_sset("N"), 512
    f = unit_with(10**6, N, DEFAULT_SEED)
    f2 = normalized_unit(f, N)
    assert f2(1) == 1 and f2.array(N) is None  # Python ints from the start
    assert max(abs(v).bit_length() for v in f2.table(N)) == 163
    assert max(abs(v).bit_length() for v in s_inverse(S, f2, N)) == 163
    assert s_inverse(S, f, N) == brute_s_inverse(S, f, N)


def test_inverse_guard_moves_to_python_ints_mid_sieve():
    # f fits int64, but the pushes of g(2) = -f(2) ~ 2^40 pass the guard
    S, N = parse_sset("L2"), 200
    f = ArithFunc.from_table(np.array([0, 1] + [2**40 + n for n in range(2, N + 1)]))
    assert f.array(N).dtype == np.int64
    got = s_inverse(S, f, N)
    assert max(abs(v) for v in got) >= 1 << 63
    assert got == brute_s_inverse(S, f, N)


def test_inverse_of_fraction_values():
    S, N = parse_sset("L2"), 100
    f = ArithFunc.from_table([0, Fraction(3, 2)] + [Fraction(n % 7 - 3, n % 4 + 1)
                                                    for n in range(2, N + 1)])
    assert s_inverse(S, f, N) == brute_s_inverse(S, f, N)
    f2 = normalized_unit(f, N)  # of 12 f, 12 the least common denominator
    assert f2(1) == 1 and f2(2) == 12 * f(2) and f2(4) == 12 * f(4) * 18


def test_random_unit_row_catches_an_off_by_one_f2(monkeypatch, capsys):
    # the sieve inverts f2 with f2(97) off by one; the row convolves with the true f2
    real, calls = convolve._unit_inverse, []

    def off_by_one(S, f2, N):
        calls.append(N)
        if len(calls) == 2:  # the seeded unit's f2; the first call inverts I
            f2 = f2.copy()
            f2[97] += 1
        return real(S, f2, N)

    monkeypatch.setattr(convolve, "_unit_inverse", off_by_one)
    assert main(["verify", "--sset", "L2", "--suite", "inversion", "--n", "512"]) == 1
    out = capsys.readouterr().out
    assert calls == [512, 512]
    assert "ok   inverse_of_I: " in out
    assert "FAIL inverse_random_unit: first failure at n=97\n" in out


# ---------------------------------------------------------------------------
# zero divisors and multiplicativity preservation


def pointwise_zero_to(S, m: int) -> int:
    """The brute-force oracle for a zero-divisor pair: ind_m * ind_m by
    pointwise convolution on every n <= 4 m^2 (to bound^2 on a table-backed
    S, whose gcd queries reach sqrt(n)). Returns the checked limit."""
    f = indicator(m)
    limit = 4 * m * m
    if S.general is not None:
        limit = min(limit, S.general.bound ** 2)
    for n in range(1, limit + 1):
        assert s_convolve_at(S, f, f, n) == 0, (S.spec, n)
    return limit


def test_zero_divisor_pairs():
    expected_excluded = {"1": 2, "Q2": 4, "Q3": 8, "L2": 2, "L3": 2, "P{2,3}": 5}
    assert zero_divisor_pair(parse_sset("N")) is None
    for spec, m in expected_excluded.items():
        S = parse_sset(spec)
        z = zero_divisor_pair(S)
        assert z is not None, spec
        assert z.excluded == m, spec
        assert not member_oracle(spec, m)
        assert all(member_oracle(spec, j) for j in range(1, m))
        assert z.checked_at == m * m
        assert pointwise_zero_to(S, m) == 4 * m * m


def test_zero_divisor_pair_general_set():
    S = parse_sset("F{1,2,6}")
    z = zero_divisor_pair(S)
    assert (z.excluded, z.checked_at) == (3, 9)
    assert pointwise_zero_to(S, 3) == 36


def test_zero_divisor_pair_large_excluded_member(tmp_path):
    # every n <= 20000 but 5005: the old pointwise check ran to 5005^2 ~ 2.5e7
    path = tmp_path / "gap.txt"
    path.write_text("bound 20000\n" + "".join(f"{n}\n" for n in range(1, 20001) if n != 5005))
    z = zero_divisor_pair(parse_sset(f"FILE:{path}"))
    assert (z.excluded, z.checked_at) == (5005, 5005**2)


def test_zero_divisor_pair_check_catches_a_member(monkeypatch):
    # were the least excluded member wrong, its square would not vanish at m^2
    monkeypatch.setattr(convolve, "_least_excluded_member", lambda S: 2)
    with pytest.raises(ConsistencyError, match="nonzero at 4"):
        zero_divisor_pair(parse_sset("N"))


def test_indicator():
    f = indicator(6)
    vals = [f(n) for n in range(1, 13)]
    assert vals == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert (f.name, indicator(2**20000).name) == ("ind_6", "ind_2^20000")  # past 4300 digits


def split_failure(S, N: int):
    """First (m, d, n, e) in ascending (m, n, d, e) order, m, n <= N, with
    d | m, e | n, gcd(m, n) = 1 where the product splitting behind
    multiplicativity preservation fails:

        rho((de, mn/(de))) != rho((d, m/d)) rho((e, n/e)),

    or None. Such a quadruple exists iff rho is not multiplicative there,
    the question sets.is_multiplicative decides by coprime_product_failure."""
    for m in range(1, N + 1):
        dm = [d for d in range(1, m + 1) if m % d == 0]
        for n in range(1, N + 1):
            if math.gcd(m, n) != 1:
                continue
            for d in dm:
                for e in (e for e in range(1, n + 1) if n % e == 0):
                    lhs = rho(S, math.gcd(d * e, (m * n) // (d * e)))
                    if lhs != rho(S, math.gcd(d, m // d)) * rho(S, math.gcd(e, n // e)):
                        return (m, d, n, e)
    return None


def test_mult_preservation_clean_for_rule_sets():
    for spec in BUILTINS:
        assert split_failure(parse_sset(spec), 40) is None, spec
        assert is_multiplicative(parse_sset(spec)), spec


def test_mult_preservation_witness_general_set():
    S = parse_sset("F{1,2,3}")
    w = split_failure(S, 20)
    assert w is not None
    m, d, n, e = w
    assert m % d == 0 and n % e == 0 and math.gcd(m, n) == 1
    assert not is_multiplicative(S)


def test_convolution_of_multiplicative_is_multiplicative():
    rng = random.Random(DEFAULT_SEED)
    for spec in BUILTINS:
        S = parse_sset(spec)
        f = random_multiplicative_func(rng, 1000)
        g = random_multiplicative_func(rng, 1000)
        tab = s_convolve_table(S, f, g, 1000)
        for m in range(2, 32):
            for n in range(2, 1000 // m + 1):
                if math.gcd(m, n) == 1:
                    assert tab[m * n] == tab[m] * tab[n], (spec, m, n)


# ---------------------------------------------------------------------------
# random function generators


def test_random_funcs_deterministic():
    a = random_arith_func(random.Random(42), 50)
    b = random_arith_func(random.Random(42), 50)
    assert [a(n) for n in range(1, 51)] == [b(n) for n in range(1, 51)]
    c = random_multiplicative_func(random.Random(42), 50)
    d = random_multiplicative_func(random.Random(42), 50)
    assert [c(n) for n in range(1, 51)] == [d(n) for n in range(1, 51)]


def test_random_multiplicative_is_multiplicative():
    rng = random.Random(DEFAULT_SEED)
    f = random_multiplicative_func(rng, 500)
    assert f(1) == 1
    for m in range(2, 23):
        for n in range(2, 500 // m + 1):
            if math.gcd(m, n) == 1:
                assert f(m * n) == f(m) * f(n), (m, n)


def test_least_excluded_member_of_table_sets():
    rng = random.Random(DEFAULT_SEED)
    for _ in range(200):
        bound = rng.randint(1, 30)
        members = [m for m in range(1, bound + 1) if rng.random() < 0.9]
        want = next((m for m in range(2, bound + 1) if m not in members), None)
        assert _least_excluded_member(make_general_sset(members, bound)) == want, (members, bound)


def test_random_arith_func_bulk_draw():
    f = random_arith_func(random.Random(DEFAULT_SEED), 10**4)
    a = f.array(10**4)
    assert a.dtype == np.int8 and a[0] == 0
    assert np.array_equal(a, random_arith_func(random.Random(DEFAULT_SEED), 10**4).array(10**4))
    assert -9 <= a[1:].min() and a[1:].max() <= 9
    assert set(a[1:].tolist()) == set(range(-9, 10))  # all 19 values
    assert [f(n) for n in range(1, 10**4 + 1)] == a[1:].tolist()
    assert all(type(f(n)) is int for n in (1, 2, 10**4))


def test_random_arith_func_is_uniform():
    # a draw that kept bytes >= 247 would weight -9..-1 by 14/13 against 0..9
    N = 19 * 10**5
    counts = np.bincount(random_arith_func(random.Random(1), N).array(N)[1:] + 9)
    assert len(counts) == 19
    assert np.abs(counts - N // 19).max() < 0.02 * (N // 19)


def test_random_arith_func_unit_and_successive_draws():
    for seed in range(200):
        rng = random.Random(seed)
        assert random_arith_func(rng, 1, unit=True)(1) != 0, seed
    rng = random.Random(DEFAULT_SEED)
    f, g = random_arith_func(rng, 50), random_arith_func(rng, 50)
    assert f.table(50) != g.table(50)
