"""Tests for the inversion layer: restricted Mobius functions, the k-full
Mobius recurrence, and Dirichlet series evaluation with certified tails.

Float reference values were computed independently with a multiprecision
package at 50 digits and pasted here; each assertion allows the
evaluator's own certified error bound plus float slack.
"""

import dataclasses
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from sconv.arith import dirichlet_sweep
from sconv.errors import ConsistencyError, LimitError
from sconv.mobius import (
    _inverse_of_I_pp,
    _mu_k_sequence,
    _zeta_full,
    mu_at,
    mu_k_at,
    mu_k_prime_power,
    mu_k_statistics,
    mu_set_at,
    mu_set_table,
    mu_table,
    verify_mobius_identity,
    verify_series_ratio,
    zeta_S,
    zeta_S_derivative,
)
from sconv.sets import ExponentRule, make_mult_sset, parse_sset, rho, rho_table

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
        v = verify_mobius_identity(parse_sset(spec), 100)
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
        rule = ExponentRule.at_least(k)
        want = list(itertools.islice(_mu_k_sequence(k), 120))
        assert [_inverse_of_I_pp(rule, a) for a in range(1, 121)] == want, k


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
        assert ev.err_bound <= 1e-9
        assert abs(ev.best_value - want) <= ev.err_bound + 1e-12


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
        assert abs(ev.best_value - want) <= ev.best_bound + 1e-12, spec
        assert ev.best_bound <= 1e-9, spec


def test_zeta_restricted_values_z2():
    # at z = 2 the generic series tail only certifies ~1/T; ask for 1e-6
    for spec, want in [("Q2", ZETA_Q2_2), ("L2", ZETA_L2_2)]:
        ev = zeta_S(parse_sset(spec), 2.0, tol=1e-6)
        assert ev.best_bound <= 1e-6, spec
        assert abs(ev.best_value - want) <= ev.best_bound + 1e-12, spec


def test_zeta_euler_cross_check_ran():
    ev = zeta_S(parse_sset("Q2"), 3.0)
    assert ev.euler_value is not None
    assert abs(ev.euler_value - ZETA_Q2_3) <= ev.euler_bound + 1e-12


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
    if spec != "N" and z == 2 and tol == 1e-9:
        with pytest.raises(LimitError):  # the series tail stops at 2.5e-7
            zeta_S(parse_sset(spec), float(z), tol)
        return
    ev = zeta_S(parse_sset(spec), float(z), tol)
    with mpmath.workdps(40):
        want = MP_ZETA[spec](z)
        for value, bound in [(ev.value, ev.err_bound), (ev.euler_value, ev.euler_bound),
                             (ev.best_value, ev.best_bound)]:
            assert abs(mpmath.mpf(value) - want) <= bound, (value, bound)


def test_zeta_euler_product_every_rule_kind():
    # a finite default plus one override of each other kind, so every
    # local-factor branch of the Euler product runs
    S = make_mult_sset(ExponentRule.finite({1, 3}),
                       {2: ExponentRule.below(3), 3: ExponentRule.at_least(2),
                        5: ExponentRule.none_(), 7: ExponentRule.all_()})
    for z, tol in [(2.0, 1e-6), (3.0, 1e-9)]:
        ev = zeta_S(S, z, tol=tol)  # raises if series and product disagree
        assert ev.euler_value is not None, z


def test_zeta_full_memo_matches_fresh_evaluation():
    for z, tol in [(2, 1e-9), (2, 1e-6), (3, 1e-9), (4, 1e-9)]:
        fresh = zeta_S(parse_sset("N"), z, tol)
        memo = _zeta_full(z, tol)
        for field in dataclasses.fields(fresh):
            name = field.name
            assert getattr(memo, name) == getattr(fresh, name), (z, tol, name)
        assert _zeta_full(z, tol) is memo


def test_zeta_guards():
    with pytest.raises(ValueError):
        zeta_S(parse_sset("N"), 1.0)
    with pytest.raises(LimitError):
        zeta_S(parse_sset("Q2"), 1.05, tol=1e-12)


def test_zeta_series_partial_sum_consistency():
    # direct truncation at T=20000 must sit inside the certified bound
    for spec in ["N", "Q2", "L2"]:
        reldiff, bound = verify_series_ratio(parse_sset(spec), 2.0, 20000)
        assert abs(reldiff) <= bound, spec


def test_zeta_derivative_full_set():
    got = zeta_S_derivative(parse_sset("N"), 2.0)
    assert abs(got - ZETA_PRIME_2) <= 2e-5
    assert got < 0


def test_zeta_derivative_restricted_sign():
    # coefficients are nonnegative, so the derivative cannot be positive
    for spec in ["Q2", "L2"]:
        assert zeta_S_derivative(parse_sset(spec), 2.0) < 0, spec
