"""Tests of the windowed multiplicative sieve and the streams built on it.

arith.multiplicative_windows is compared with multiplicative_table, and the
streams of tau_S, sigma_S, phi_S and the S-inverse of I (the route of
`eval --range`) with the square-divisor tables, the sweep rho_S * phi and
the push sieve s_inverse, on every builtin set, a set with every rule kind,
random rule-based sets, a set with an override prime above sqrt(hi), and
for tau_S, sigma_S and the S-inverse of I on the table-backed sets
F{1,5} and a FILE: copy of L2, and for phi_S on FILE: copies of L2 and
Q2. Narrow windows put lo, hi and the window edges at every residue.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from sconv import arith, cli, divisor_functions, mobius
from sconv.arith import (
    SELF_CHECK_COUNT,
    SELF_CHECK_SEED,
    _check_points,
    _sigma_pp,
    eval_multiplicative,
    multiplicative_table,
    multiplicative_windows,
)
from sconv.convolve import ArithFunc, s_inverse
from sconv.divisor_functions import (
    _phi_direct,
    divisor_function_windows,
    phi_S_table,
    sigma_S_table,
    tau_S_table,
)
from sconv.errors import ConsistencyError, LimitError
from sconv.sets import (
    ExponentRule,
    MultiplicativeSSet,
    is_associative,
    make_general_sset,
    make_mult_sset,
    parse_sset,
    rho,
    rho_table,
)

BUILTINS = ["N", "1", "Q2", "Q3", "Q4", "L2", "L3", "P{2,3}"]
# one set using every rule kind: default below 3, then at_least, finite, none, all
MIXED_RULES = make_mult_sset(ExponentRule.below(3), {
    2: ExponentRule.at_least(2), 3: ExponentRule.finite({1, 3}),
    5: ExponentRule.none_(), 7: ExponentRule.all_()})
# associative, with overrides at primes above sqrt(hi) for every hi below,
# where phi_S at exponent 1 is not the default rule's
HIGH_OVERRIDES = make_mult_sset(ExponentRule.all_(), {
    101: ExponentRule.none_(), 4999: ExponentRule.at_least(2), 3: ExponentRule.at_least(3)})
SETS = {**{spec: parse_sset(spec) for spec in BUILTINS},
        "mixed": MIXED_RULES, "high": HIGH_OVERRIDES}
TABLES = {"tau": tau_S_table, "sigma": sigma_S_table, "phi": phi_S_table}


def streamed(windows) -> list[int]:
    """The values of a stream, each window read before the next fills."""
    return [v for w in windows for v in w.tolist()]


def oracle(S, fn, lo, hi) -> list[int]:
    """The table route on lo..hi: the push sieve s_inverse to hi for mu."""
    if fn == "mu":
        return s_inverse(S, ArithFunc.named("I"), hi)[lo : hi + 1]
    return TABLES[fn](S, hi)[lo : hi + 1].tolist()


def stream(S, fn, lo, hi):
    if fn == "mu":  # the windows at every span, not only from POINTWISE_SPAN on
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mobius, "POINTWISE_SPAN", 0)
            return mobius.inverse_of_I(S, lo, hi)
    return divisor_function_windows(S, fn, lo, hi)


@pytest.fixture(params=[7, 64])
def narrow(request, monkeypatch):
    monkeypatch.setattr(arith, "_window_width", lambda hi: request.param)
    return request.param


@pytest.mark.parametrize("key", sorted(SETS))
@pytest.mark.parametrize("fn", ["tau", "sigma", "phi", "mu"])
def test_streams_match_the_tables(key, fn):
    S = SETS[key]
    if fn == "mu" and not is_associative(S):
        with pytest.raises(ValueError, match="only under associative convolutions"):
            stream(S, fn, 1, 2000)
        return
    for lo, hi in [(1, 5000), (1, 10007), (4097, 10007), (9999, 10000)]:
        assert streamed(stream(S, fn, lo, hi)) == oracle(S, fn, lo, hi), (key, fn, lo, hi)


# span lengths at every residue mod 7 and at each side of 64 and 128
SPANS = sorted({*range(15), 63, 64, 65, 127, 128, 129})


@pytest.mark.parametrize("key", ["L2", "mixed", "high"])
@pytest.mark.parametrize("fn", ["tau", "sigma", "phi", "mu"])
def test_streams_in_narrow_windows(narrow, key, fn):
    # lo at every residue mod 7, then on each side of 64
    S = SETS[key]
    if fn == "mu" and not is_associative(S):
        return
    want = [0] + oracle(S, fn, 1, 200)
    for lo in (*range(1, 9), 63, 64, 65):
        for hi in (lo + j for j in SPANS):
            windows = [w.copy() for w in stream(S, fn, lo, hi)]
            assert [len(w) for w in windows[:-1]] == [narrow] * (len(windows) - 1)
            assert 1 <= len(windows[-1]) <= narrow
            assert streamed(windows) == want[lo : hi + 1], (lo, hi)


# table-backed: multiplicative with 1 in S, and F{1,5} not upward-closed at 5
# (bound 100), so its mu stream is refused as non-associative; L2 to the same
# bound streams mu up to the square of the bound
F15 = parse_sset("F{1,5}")
L2_100 = make_general_sset(rho_table(parse_sset("L2"), 100).nonzero()[0], 100)
L2_5000 = make_general_sset(rho_table(parse_sset("L2"), 5000).nonzero()[0], 5000)


@pytest.fixture(scope="module")
def file_l2(tmp_path_factory):
    """L2 as a FILE: set to 20000."""
    path = tmp_path_factory.mktemp("sets") / "l2.txt"
    members = rho_table(parse_sset("L2"), 20000).nonzero()[0]
    path.write_text("bound 20000\n" + "".join(f"{m}\n" for m in members))
    return parse_sset(f"FILE:{path}")


@pytest.mark.parametrize("fn", ["tau", "sigma", "mu"])
def test_table_backed_streams_match_the_tables(file_l2, fn):
    to_square = [(1, 5000), (1, 10000), (4097, 10000), (9999, 10000)]  # bound 100
    for S, spans in ((file_l2, [(1, 5000), (1, 20000), (4097, 20000), (19999, 20000)]),
                     (F15, to_square), (L2_100, to_square)):
        if fn == "mu" and not is_associative(S):
            with pytest.raises(ValueError, match="only under associative convolutions"):
                stream(S, fn, 1, 2000)
            continue
        for lo, hi in spans:
            assert streamed(stream(S, fn, lo, hi)) == oracle(S, fn, lo, hi), (S.spec, fn, lo, hi)


@pytest.mark.parametrize("fn", ["tau", "sigma", "mu"])
def test_table_backed_streams_in_narrow_windows(narrow, file_l2, fn):
    for S in (file_l2, F15, L2_100):
        if fn == "mu" and not is_associative(S):
            with pytest.raises(ValueError, match="only under associative convolutions"):
                stream(S, fn, 1, 2000)
            continue
        want = [0] + oracle(S, fn, 1, 200)
        for lo in (*range(1, 9), 63, 64, 65):
            for hi in (lo + j for j in SPANS):
                assert streamed(stream(S, fn, lo, hi)) == want[lo : hi + 1], (S.spec, lo, hi)


@pytest.fixture(scope="module")
def file_q2(tmp_path_factory):
    """Q2 as a FILE: set to 1e5: every prime is a member, so the membership
    term of phi_S(q) = q - 1 + rho_S(q) is 1 at every large prime."""
    path = tmp_path_factory.mktemp("sets") / "q2.txt"
    members = rho_table(parse_sset("Q2"), 10**5).nonzero()[0]
    path.write_text("bound 100000\n" + "".join(f"{m}\n" for m in members))
    return parse_sset(f"FILE:{path}")


@pytest.mark.parametrize("key", ["Q2", "L2"])
def test_table_backed_phi_streams_match_the_table_bytes(file_q2, file_l2, key):
    S = file_q2 if key == "Q2" else file_l2
    hi = S.general.bound
    table = phi_S_table(S, hi)
    assert S.multiplicative_to(hi)
    for lo in (1, 2, 4097, hi - 1000):
        got = np.concatenate([w.copy() for w in divisor_function_windows(S, "phi", lo, hi)])
        assert got.dtype == table.dtype and got.tobytes() == table[lo : hi + 1].tobytes(), lo


@pytest.fixture
def zero_rho_primes(monkeypatch):
    # a membership term that reads no member: phi_S(q) one too small at
    # every large prime q of Q2, and at each of its multiples
    from sconv.sets import GeneralSSet

    monkeypatch.setattr(GeneralSSet, "rho_primes", lambda self, q: np.zeros(len(q), dtype=np.int64))


def test_phi_stream_self_check_catches_a_zero_membership_term(zero_rho_primes, file_q2):
    with pytest.raises(ConsistencyError, match="phi_S window self-check failed at n="):
        streamed(divisor_function_windows(file_q2, "phi", 1, 10**5))


def test_eval_phi_zero_membership_term_leaves_no_artifact(zero_rho_primes, file_q2, capsys,
                                                          tmp_path):
    path = tmp_path / "x.csv"
    code = cli.main(["eval", "--sset", file_q2.spec, "--fn", "phi", "--range", "1..100000",
                     "--out", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("consistency failure: phi_S window self-check")
    assert not path.exists()


def random_rule(rng):
    kind = rng.choice(["all", "none", "below", "at_least", "finite"])
    if kind == "below":
        return ExponentRule.below(rng.randint(2, 5))
    if kind == "at_least":
        return ExponentRule.at_least(rng.randint(2, 5))
    if kind == "finite":
        return ExponentRule.finite(rng.sample(range(1, 7), rng.randint(1, 3)))
    return ExponentRule(kind)


def test_streams_of_random_rule_sets():
    rng = random.Random(8191)
    hi = 3000
    for _ in range(25):
        ov = {p: random_rule(rng) for p in rng.sample([2, 3, 5, 7, 11, 59, 61, 1499], 3)}
        S = make_mult_sset(random_rule(rng), ov)
        lo = rng.randint(1, 1500)
        for fn in ("tau", "sigma", "phi"):
            assert streamed(stream(S, fn, lo, hi)) == oracle(S, fn, lo, hi), (S.spec, fn)
        if is_associative(S):
            assert streamed(stream(S, "mu", lo, hi)) == oracle(S, "mu", lo, hi), S.spec


def test_windows_match_the_table_kernel(narrow):
    ppv = lambda p, a: (-1) ** a * (p + a) if a != 2 else 0  # -q - 1 at a prime q
    want = multiplicative_table(500, ppv).tolist()
    for lo in range(1, 30):
        got = streamed(multiplicative_windows(lo, 500 - lo, ppv, (-1, -1, None)))
        assert got == want[lo : 501 - lo]
    # the linear form at the large primes with a membership term, here 1 at 31 alone
    sig = lambda p, a: _sigma_pp(p, a) + ((p, a) == (31, 1))
    member = lambda q: q == 31
    want = [0] + [eval_multiplicative(sig, n) for n in range(1, 501)]
    for lo in (1, 3, 62):
        assert streamed(multiplicative_windows(lo, 500, sig, (1, 1, member))) == want[lo:]


@pytest.mark.parametrize("key", sorted(SETS))
def test_rule_based_tables_take_the_linear_form_of_rho(key, monkeypatch):
    """rho_table and mu_set_table read rho_S(q) and mu_S(q) = rho_S(q) - 1
    at the primes q > sqrt N from SSet.rho_primes, as one array: the tables
    are byte-identical to the sieve that asks every prime, and the
    prime-power values are asked only at the primes to sqrt N, override
    primes above it included."""
    S, N = SETS[key], 5000
    want = [multiplicative_table(N, f) for f in (S.mult.rho_prime_power, S.mult.mu_prime_power)]
    asked = set()
    rho_pp = MultiplicativeSSet.rho_prime_power

    def counted(self, p, a):
        asked.add(p)
        return rho_pp(self, p, a)

    monkeypatch.setattr(MultiplicativeSSet, "rho_prime_power", counted)
    for got, w in zip((rho_table(S, N), mobius.mu_set_table(S, N)), want):
        assert got.dtype == w.dtype and got.tobytes() == w.tobytes(), key
    assert asked and max(asked) <= math.isqrt(N)
    if key == "high":  # overrides at 101 and 4999, both above sqrt N
        assert {101, 4999} <= {p for p in S.mult.overrides if p > math.isqrt(N)}


def test_rule_based_rho_primes_patch_the_overrides():
    q = arith.prime_array(5000)[15:]  # the primes from 53 on
    got = HIGH_OVERRIDES.rho_primes(q)
    assert got.dtype == bool
    assert got.tolist() == [rho(HIGH_OVERRIDES, int(p)) for p in q]
    assert got[q == 101].tolist() == [0] == got[q == 4999].tolist() and got.sum() == len(q) - 2


def test_windows_take_each_value_once_before_the_first_window():
    calls, reads = [], []

    def ppv(p, a):
        calls.append((p, a))
        return p + a

    def member(q):  # p + 1 = q + 0 + 1 at each large prime
        reads.append(q.tolist())
        return np.ones(len(q), dtype=np.int64)

    windows = multiplicative_windows(10, 400, ppv, (1, 0, member))
    small = [(p, a) for p in (2, 3, 5, 7, 11, 13, 17, 19) for a in range(1, 9) if p ** a <= 400]
    assert calls == small
    assert reads == [[p for p in range(23, 401) if all(p % d for d in range(2, 20))]]
    got = streamed(windows)
    assert len(calls) == len(small) and len(reads) == 1
    assert got == [eval_multiplicative(lambda p, a: p + a, n) for n in range(10, 401)]


def test_linear_values_are_guarded_before_any_window():
    # the array arithmetic c1 q + c0 would wrap int64 past 2^63
    with pytest.raises(LimitError):
        multiplicative_windows(1, 10**4, _sigma_pp, (2**60, 0, None))
    # fits int64, but products of such values would not: the growth pass
    # over the large-prime values catches it, with a membership term too
    for member in (None, parse_sset("Q2").rho_primes):
        with pytest.raises(LimitError):
            multiplicative_windows(1, 10**4, _sigma_pp, (10**9, 0, member))
    # a table-backed set's membership term refuses primes past its bound
    with pytest.raises(LimitError, match="unknown past bound 5000"):
        multiplicative_windows(1, 10**4, _sigma_pp, (1, -1, L2_5000.rho_primes))


def test_stream_memory_is_the_window_not_the_range():
    # the primes to hi and one window: 2.5 MiB at 1e6, where the table is 7.6 MiB
    S = parse_sset("Q2")
    for _ in divisor_function_windows(S, "sigma", 1, 10**4):
        pass
    tracemalloc.start()
    try:
        n = 0
        for w in divisor_function_windows(S, "sigma", 1, 10**6):
            n += len(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 10**6 and peak < 8 * 10**6 / 2, peak


@pytest.fixture
def bad_tau(monkeypatch):
    # tau_S(p^a) one too large at 2^1, so every n = 2 (mod 4) is off
    tau = divisor_functions._tau_S_pp
    monkeypatch.setattr(divisor_functions, "_tau_S_pp",
                        lambda S, p, a: tau(S, p, a) + ((p, a) == (2, 1)))


def test_stream_self_check_catches_a_perturbed_local_value(bad_tau):
    with pytest.raises(ConsistencyError, match="tau_S window self-check failed at n="):
        streamed(divisor_function_windows(parse_sset("L2"), "tau", 1, 5000))


@pytest.fixture
def bad_mu_window(monkeypatch):
    # every mu window one too large at each n = 2 (mod 4)
    windows = mobius.multiplicative_windows

    def perturbed(lo, hi, ppv, linear):
        a = lo
        for w in windows(lo, hi, ppv, linear):
            w[(2 - a) % 4 :: 4] += 1
            yield w
            a += len(w)

    monkeypatch.setattr(mobius, "multiplicative_windows", perturbed)


def test_mu_stream_self_check_catches_a_perturbed_window(bad_mu_window):
    with pytest.raises(ConsistencyError, match="inverse_of_I window self-check failed at n="):
        streamed(mobius.inverse_of_I(parse_sset("L2"), 1, 5000))


@pytest.fixture
def bad_inverse_pp(monkeypatch):
    # g(2) one too large, 0 for -1: every n = 2 (mod 4) with g(n / 2) != 0 is
    # off in the windows, and the self-check reads no local value
    pp = mobius._inverse_of_I_pp
    monkeypatch.setattr(mobius, "_inverse_of_I_pp",
                        lambda S, p, a: pp(S, p, a) + ((p, a) == (2, 1)))


@pytest.mark.parametrize("key", ["L2", "FILE"])
def test_mu_stream_self_check_catches_a_perturbed_local_value(bad_inverse_pp, file_l2, key):
    S = parse_sset("L2") if key == "L2" else file_l2
    with pytest.raises(ConsistencyError, match="inverse_of_I window self-check failed at n="):
        streamed(mobius.inverse_of_I(S, 1, 5000))


@pytest.mark.parametrize("key", ["L2", "FILE"])
def test_eval_mu_perturbed_local_value_leaves_no_artifact(bad_inverse_pp, file_l2, capsys,
                                                          tmp_path, key):
    path = tmp_path / "x.csv"
    spec = "L2" if key == "L2" else file_l2.spec
    code = cli.main(["eval", "--sset", spec, "--fn", "mu", "--range", "1..300000",
                     "--out", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("consistency failure: inverse_of_I window self-check")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_eval_self_check_failure_leaves_no_artifact(bad_tau, capsys, tmp_path, fmt):
    path = tmp_path / f"x.{fmt}"
    code = cli.main(["eval", "--sset", "L2", "--fn", "tau", "--range", "1..300000",
                     "--out", str(path), "--format", fmt])
    assert code == 1
    assert capsys.readouterr().err.startswith("consistency failure: tau_S window self-check")
    assert not path.exists()


def test_eval_mu_self_check_failure_leaves_no_artifact(bad_mu_window, capsys, tmp_path):
    path = tmp_path / "x.csv"
    code = cli.main(["eval", "--sset", "L2", "--fn", "mu", "--range", "1..300000",
                     "--out", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("consistency failure: inverse_of_I window self-check")
    assert not path.exists()


def test_self_check_points_from_lo():
    # the tables' seeded points when lo = 1
    rng = random.Random(SELF_CHECK_SEED)
    assert _check_points(1, 10**6) == [rng.randint(1, 10**6) for _ in range(SELF_CHECK_COUNT)]
    assert all(99991 <= n <= 250000 for n in _check_points(99991, 250000))


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_phi_direct_across_sieve_blocks(monkeypatch, block):
    monkeypatch.setattr(divisor_functions, "_PHI_BLOCK", block)
    for spec in ("Q2", "L2", "N", "F{1,2,6}"):
        S = parse_sset(spec)
        for n in [*range(1, 101), *([210, 256, 720, 997] if S.mult else [])]:
            want = sum(1 for j in range(1, n + 1) if rho(S, math.gcd(j, n)))
            assert _phi_direct(S, n) == want, (spec, n, block)
