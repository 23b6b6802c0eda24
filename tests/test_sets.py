"""Tests for set descriptors: parsing, membership, structure verdicts.

Membership oracles are written out longhand here (squarefree test by trial
division, exponent scans) so the package's rule machinery is checked against
something that cannot share its bugs.
"""

import math
import random
import sys

import numpy as np
import pytest

from sconv import sets
from sconv.arith import eval_multiplicative
from sconv.errors import LimitError, ParseError
from sconv.sets import (
    MAX_FINITE_EXPONENT,
    ExponentRule,
    Verdict,
    check_assoc_identity,
    classify_prime,
    coprime_product_failure,
    is_associative,
    is_multiplicative,
    make_general_sset,
    make_mult_sset,
    parse_sset,
    rho,
    rho_table,
    witness_text,
)

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
    """Longhand membership test for the builtin specs."""
    fac = brute_factor(m)
    if spec == "N":
        return True
    if spec == "1":
        return m == 1
    if spec.startswith("Q"):
        k = int(spec[1:])
        return all(e < k for _, e in fac)
    if spec.startswith("L"):
        k = int(spec[1:])
        return all(e >= k for _, e in fac)
    if spec == "P{2,3}":
        return all(p in (2, 3) for p, _ in fac)
    raise AssertionError(spec)


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    for spec in BUILTINS + ["F{1,2,3}", "F{1,4}"]:
        S = parse_sset(spec)
        assert S.spec == spec
        assert parse_sset(S.spec).spec == spec


def test_q1_canonicalizes_to_unitary():
    assert parse_sset("Q1").spec == "1"


def test_parse_rejects_garbage():
    # superscript digits pass str.isdigit but not int()
    for bad in ["", "Q0", "L0", "junk", "F{}", "P{}", "F{0}", "Q-1",
                "Q\u00b2", "L\u00b3", "F{1,\u00b2}", "P{\u00b2}"]:
        with pytest.raises(ParseError):
            parse_sset(bad)


def test_parse_general_bound():
    S = parse_sset("F{1,2,3}")
    assert S.general is not None
    assert S.general.bound == 100
    S = make_general_sset([1, 2, 3], 500)
    assert S.general.bound == 500


def test_exponent_rule_canonicalization():
    assert ExponentRule.below(1) == ExponentRule.none_()
    assert ExponentRule.at_least(1) == ExponentRule.all_()
    assert ExponentRule.finite(()) == ExponentRule.none_()


def test_exponent_rule_least_excluded():
    assert ExponentRule.all_().least_excluded() is None
    assert ExponentRule.none_().least_excluded() == 1
    assert ExponentRule.below(2).least_excluded() == 2
    assert ExponentRule.below(3).least_excluded() == 3
    assert ExponentRule.at_least(2).least_excluded() == 1
    assert ExponentRule.finite((2, 3)).least_excluded() == 1
    assert ExponentRule.finite((1, 2)).least_excluded() == 3


# ---------------------------------------------------------------------------
# membership


def test_rho_matches_oracle():
    for spec in BUILTINS:
        S = parse_sset(spec)
        for m in range(1, 400):
            assert rho(S, m) == int(member_oracle(spec, m)), (spec, m)


def test_rho_one_always_member():
    for spec in BUILTINS + ["F{1,4}"]:
        assert rho(parse_sset(spec), 1) == 1


def test_rho_table_matches_pointwise():
    # the mixed set runs past 11^3, the least power its default rule excludes
    cases = [(parse_sset(spec), 100) for spec in BUILTINS + ["F{1,2,3}"]] + [(MIXED_RULES, 1400)]
    for S, limit in cases:
        tab = rho_table(S, limit)
        assert tab[0] == 0
        for m in range(1, limit + 1):
            assert tab[m] == rho(S, m), (S.spec, m)


def test_general_set_windows_are_slices_of_the_table():
    """GeneralSSet.fill writes any window of the indicator that rho_table
    holds, in any dtype; the window may start at 0 and end at the bound."""
    S = parse_sset("F{1,2,4,9,50,99,100}")  # bound 200
    table = rho_table(S, 200)
    for a, n in [(0, 1), (0, 201), (1, 7), (9, 1), (10, 40), (99, 2), (150, 51)]:
        for dtype in (np.int64, bool):
            out = np.full(n, 7, dtype=dtype)
            S.general.fill(out, a)
            assert out.astype(np.int64).tolist() == table[a : a + n].tolist(), (a, n, dtype)


def test_rho_general_set_beyond_bound():
    S = parse_sset("F{1,2,3}")
    assert rho(S, 2) == 1 and rho(S, 4) == 0
    with pytest.raises(LimitError):
        rho(S, 101)


@pytest.mark.parametrize("members, bound, probes", [
    ([1, 2, 10**12], 10**12, {10**12: 1, 10**12 - 1: 0, 3: 0}),
    ([1, 2, 7], 2**64, {2**64: 0, 2**64 - 1: 0, 8: 0, 2**63: 0, 2**63 - 1: 0}),
])
def test_table_set_with_a_huge_sparse_bound(members, bound, probes):
    S = make_general_sset(members, bound)
    assert S.general.members.nbytes == 8 * len(members)  # nothing sized by the bound
    assert {m: rho(S, m) for m in probes} == probes
    assert rho_table(S, 100).tolist() == [int(m in members) for m in range(101)]
    with pytest.raises(LimitError):
        rho(S, bound + 1)


def test_table_set_members_are_one_sorted_array():
    S = make_general_sset([6, 1, 2, 6, 1, 2**63 - 1], 2**63)
    assert S.spec == f"F{{1,2,6,{2**63 - 1}}}"
    assert S.general.members.dtype == np.int64
    assert S.general.members.tolist() == [1, 2, 6, 2**63 - 1]
    with pytest.raises(ValueError):
        S.general.members[0] = 3  # read-only
    for members, bound in [([1, 2**63], 2**64), ([0, 1], 10), ([1, 11], 10), ([1], 0)]:
        with pytest.raises(ParseError):
            make_general_sset(members, bound)


MEMBER_KINDS = {"ndarray": lambda v: np.array(v, dtype=np.int64),
                "generator": lambda v: (m for m in v), "set": set}


@pytest.mark.parametrize("kind", sorted(MEMBER_KINDS))
def test_table_set_members_of_each_input_kind(kind):
    members = MEMBER_KINDS[kind]([6, 1, 2, 6, 1, 2**63 - 1])
    S = make_general_sset(members, 2**63)
    assert S.general.members.dtype == np.int64
    assert S.general.members.tolist() == [1, 2, 6, 2**63 - 1]
    assert S.spec == f"F{{1,2,6,{2**63 - 1}}}"
    if kind == "ndarray":  # the caller's array is neither sorted nor frozen
        assert members.tolist() == [6, 1, 2, 6, 1, 2**63 - 1] and members.flags.writeable


@pytest.mark.parametrize("members", [
    np.array([1, 2**63], dtype=np.uint64), np.array([1, 2**63], dtype=object),
    (m for m in (1, 2**63)), {1, 2**63}], ids=["uint64", "object", "generator", "set"])
def test_table_set_member_past_int64_is_refused(members):
    with pytest.raises(ParseError, match="set members must fit int64"):
        make_general_sset(members, 2**64)


# ---------------------------------------------------------------------------
# structure verdicts


def test_builtins_multiplicative():
    for spec in BUILTINS:
        v = is_multiplicative(parse_sset(spec))
        assert v.holds and bool(v)
        assert v.bound is None  # rule form: absolute verdict


def test_general_multiplicative_verdicts():
    # {1, 4} agrees with its per-prime closure inside the bound
    v = is_multiplicative(parse_sset("F{1,4}"))
    assert v.holds and v.bound == 100
    # {1, 2, 3} misses the coprime product 6
    v = is_multiplicative(parse_sset("F{1,2,3}"))
    assert not v.holds
    m, n = v.witness
    assert math.gcd(m, n) == 1


def loop_coprime_product_failure(t, limit):
    """The reference double loop over Python ints."""
    for m in range(2, math.isqrt(limit) + 1):
        for n in range(m + 1, limit // m + 1):
            if math.gcd(m, n) == 1 and t[m * n] != t[m] * t[n]:
                return (m, n)
    return None


def test_coprime_product_failure_matches_loop():
    # multiplicative tables with 0-2 corrupted entries: small int64 values,
    # int64 values whose products overflow, and values past int64 as lists
    # and as object arrays
    rng = random.Random(8191)
    for trial in range(300):
        limit = rng.randrange(1, 500)
        top = (10, 1 << 20, 1 << 40)[trial % 3]
        pp = {}
        vals = [0] + [eval_multiplicative(
            lambda p, a: pp.setdefault((p, a), rng.randrange(-top, top)), n)
            for n in range(1, limit + 1)]
        for _ in range(rng.randrange(3)):
            vals[rng.randrange(1, limit + 1)] += rng.choice((-1, 1))
        want = loop_coprime_product_failure(vals, limit)
        tables = [vals, np.array(vals, dtype=object)]
        if max(map(abs, vals)) < 1 << 63:
            tables.append(np.array(vals, dtype=np.int64))
        for t in tables:
            assert coprime_product_failure(t, limit) == want, (trial, type(t))
    # 2^32 * 2^32 wraps to 0 = t[6] in int64
    t = np.array([0, 1, 1 << 32, 1 << 32, 0, 0, 0], dtype=np.int64)
    assert coprime_product_failure(t, 6) == (2, 3)


def test_coprime_product_failure_bool_membership_tables():
    # 0/1 multiplicative tables with 0-2 flipped entries: bool, int64 and
    # object arrays and lists all give the loop's first pair
    rng = random.Random(4093)
    for trial in range(300):
        limit = rng.randrange(1, 500)
        pp = {}
        vals = [0] + [eval_multiplicative(lambda p, a: pp.setdefault((p, a), rng.randrange(2)), n)
                      for n in range(1, limit + 1)]
        for _ in range(rng.randrange(3)):
            vals[rng.randrange(1, limit + 1)] ^= 1
        want = loop_coprime_product_failure(vals, limit)
        for t in (vals, np.array(vals, dtype=object), np.array(vals, dtype=np.int64),
                  np.array(vals, dtype=bool)):
            assert coprime_product_failure(t, limit) == want, (trial, getattr(t, "dtype", list))


@pytest.mark.parametrize("block", [1, 7])
def test_coprime_product_failure_across_scan_blocks(monkeypatch, block):
    # the strided t[mn] views and the gcds of the mismatches, at block edges
    monkeypatch.setattr(sets, "_SCAN_BLOCK", block)
    rng = random.Random(block)
    for trial in range(60):
        limit = rng.randrange(1, 400)
        pp = {}
        vals = [0] + [eval_multiplicative(lambda p, a: pp.setdefault((p, a), rng.randrange(3)), n)
                      for n in range(1, limit + 1)]
        for _ in range(rng.randrange(3)):
            vals[rng.randrange(1, limit + 1)] += 1
        want = loop_coprime_product_failure(vals, limit)
        for t in (np.array(vals, dtype=np.int64), vals):
            assert coprime_product_failure(t, limit) == want, (trial, block)
    gap = np.ones(20001, dtype=bool)
    gap[[0, 5005]] = False  # 1..20000 but 5005 = 5 * 1001
    assert coprime_product_failure(gap, 20000) == (2, 5005)


def test_general_set_rho_prime_power():
    S = parse_sset("F{1,2,4,9}")  # bound 100
    assert [S.rho_prime_power(2, a) for a in range(7)] == [1, 1, 1, 0, 0, 0, 0]
    assert [S.rho_prime_power(3, a) for a in range(5)] == [1, 0, 1, 0, 0]
    assert S.general.table(10, bool).dtype == bool
    with pytest.raises(LimitError, match="membership of 2\\^7 unknown past bound 100"):
        S.rho_prime_power(2, 7)
    assert parse_sset("F{4,8}").rho_prime_power(7, 0) == 0  # 1 is not in S


def test_associativity_verdicts():
    assoc = {"N": True, "1": True, "Q2": False, "Q3": False,
             "L2": True, "L3": True, "P{2,3}": True}
    for spec, want in assoc.items():
        v = is_associative(parse_sset(spec))
        assert v.holds == want, spec


def test_q2_witness_triple():
    assert is_associative(parse_sset("Q2")) == Verdict(False, None, (16, 4, 2))


def test_witness_triples_verified():
    for spec in ["Q2", "Q3"]:
        S = parse_sset(spec)
        trip = is_associative(S).witness
        assert trip is not None
        n, d, e = trip
        assert n % d == 0 and d % e == 0
        assert not check_assoc_identity(S, n, d, e), spec
    for spec in ["N", "1", "L2", "L3", "P{2,3}"]:
        assert is_associative(parse_sset(spec)) == Verdict(True), spec


def non_upward_closed_rule_sets():
    """Every finite rule within {1..8} as default, as override on an all-in
    default and on a P-style (none) default, plus Qk for k = 2..9."""
    sets = [parse_sset(f"Q{k}") for k in range(2, 10)]
    for mask in range(1, 256):
        r = ExponentRule.finite(a for a in range(1, 9) if mask >> (a - 1) & 1)
        sets += [make_mult_sset(r), make_mult_sset(ExponentRule.all_(), {3: r}),
                 make_mult_sset(ExponentRule.none_(), {2: ExponentRule.all_(), 5: r})]
    assert len(sets) == 773
    return sets


def test_witness_construction_on_non_upward_closed_rules():
    # the constructed triple itself must violate the identity
    for S in non_upward_closed_rule_sets():
        n, d, e = is_associative(S).witness
        assert n % d == 0 and d % e == 0, S.spec
        assert not check_assoc_identity(S, n, d, e), S.spec


def random_table_sets_with_1(rng, count):
    """Table-backed copies, to a random bound, of rule-based sets with a
    random rule at each of a few small primes and as default; every third
    one has a random member past 1 removed."""
    def rule():
        k = rng.randint(2, 4)
        return rng.choice([ExponentRule.all_(), ExponentRule.none_(), ExponentRule.below(k),
                           ExponentRule.at_least(k),
                           ExponentRule.finite(rng.sample(range(1, 7), k))])
    for i in range(count):
        B = rng.randint(100, 700)
        S = make_mult_sset(rule(), {p: rule() for p in rng.sample([2, 3, 5, 7, 11], 3)})
        members = rho_table(S, B).nonzero()[0].tolist()
        if i % 3 == 2 and len(members) > 1:
            members.remove(rng.choice(members[1:]))
        yield make_general_sset(members, B)


def test_table_set_associativity_agrees_with_the_triple_scan():
    # the scan over every e | d | n <= bound is the oracle: a yes to the
    # bound has a clean scan, and each no witness violates the identity,
    # some at an n past the bound that no scan to the bound reaches
    verdicts = {"yes": 0, "no": 0, "no past the bound": 0}
    for S in random_table_sets_with_1(random.Random(2718), 120):
        v = is_associative(S)
        if v:
            verdicts["yes"] += 1
            assert v.bound == S.general.bound, S.spec
            assert sets._assoc_scan(S.general.table(v.bound), v.bound) is None, S.spec
        else:
            n, d, e = v.witness
            verdicts["no past the bound" if n > S.general.bound else "no"] += 1
            assert v.bound is None and n % d == 0 and d % e == 0, S.spec
            assert not check_assoc_identity(S, n, d, e), S.spec
    assert min(verdicts.values()) >= 20, verdicts


def test_table_set_associativity_pins():
    assert is_associative(parse_sset("F{1,5}")) == Verdict(False, None, (625, 25, 5))
    assert is_associative(parse_sset("F{1,4}")) == Verdict(False, None, (128, 32, 8))
    assert is_associative(parse_sset("F{4,8}")) == Verdict(True, 100)  # no 1: the scan


def test_witness_text_is_decimal_up_to_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert witness_text((16, 4, 2)) == str((16, 4, 2))
    assert witness_text(10 ** limit - 1) == "9" * limit  # limit digits: still decimal
    assert witness_text(10 ** limit) == f"2^{limit} * 5^{limit}"  # one digit more
    assert witness_text((3 * 7 ** 6000, 2)) == "(3 * 7^6000, 2)"


def test_assoc_identity_holds_on_random_triples():
    rng = random.Random(8191)
    for spec in ["N", "1", "L2", "P{2,3}"]:
        S = parse_sset(spec)
        for _ in range(200):
            e = rng.randrange(1, 12)
            d = e * rng.randrange(1, 12)
            n = d * rng.randrange(1, 12)
            assert check_assoc_identity(S, n, d, e), (spec, n, d, e)


def test_classify_prime_cases():
    cases = {
        ("N", 2): ("all-in", None, None),
        ("1", 2): ("all-out", None, 1),
        ("Q2", 2): ("not-upward-closed", None, 2),
        ("Q3", 5): ("not-upward-closed", None, 3),
        ("L2", 2): ("threshold", 2, 1),
        ("L3", 7): ("threshold", 3, 1),
        ("P{2,3}", 2): ("all-in", None, None),
        ("P{2,3}", 3): ("all-in", None, None),
        ("P{2,3}", 5): ("all-out", None, 1),
    }
    for (spec, p), (case, thr, lex) in cases.items():
        c = classify_prime(parse_sset(spec), p)
        assert (c.case, c.threshold, c.least_excluded) == (case, thr, lex), (spec, p)


def test_classify_prime_finite_rule_at_the_depth_cap():
    S = make_mult_sset(ExponentRule.finite(range(1, MAX_FINITE_EXPONENT + 1)))
    c = classify_prime(S, 2)
    assert (c.case, c.least_excluded) == ("not-upward-closed", MAX_FINITE_EXPONENT + 1)
    n, d, e = is_associative(S).witness
    assert not check_assoc_identity(S, n, d, e)


def test_rule_set_specs_are_distinct():
    specs = [S.spec for S in non_upward_closed_rule_sets()]
    assert len(set(specs)) == len(specs)
    assert make_mult_sset(ExponentRule.finite({1, 3})).spec == "<default=finite{1,3}>"
    assert make_mult_sset(ExponentRule.finite({2})).spec == "<default=finite{2}>"
    assert (make_mult_sset(ExponentRule.finite({1, 3}), {3: ExponentRule.all_()}).spec
            == "<default=finite{1,3} 3:all>")
    assert MIXED_RULES.spec == "<default=below3 2:at_least2 3:finite{1,3} 5:none 7:all>"


def test_builtin_specs_unchanged():
    for spec in BUILTINS + ["P{2,3,5}", "Q5", "L4"]:
        assert parse_sset(spec).spec == spec
    assert make_mult_sset(ExponentRule.below(2)).spec == "Q2"
    assert make_mult_sset(ExponentRule.at_least(3)).spec == "L3"
    assert make_mult_sset(ExponentRule.none_(), {3: ExponentRule.all_()}).spec == "P{3}"


def test_make_mult_sset_with_overrides():
    S = make_mult_sset(ExponentRule.all_(), {2: ExponentRule.none_()})
    # membership: m in S iff 2 does not divide m
    for m in range(1, 200):
        assert rho(S, m) == int(m % 2 == 1), m
    assert is_multiplicative(S).holds


def test_finite_rule_depth_cap():
    r = ExponentRule.finite(tuple(range(1, 10)))
    assert r.contains(9) and not r.contains(10)
    assert not r.contains(MAX_FINITE_EXPONENT + 1)
