"""Acceptance suite: nine gates, one printed PASS/FAIL line each.

Every criterion prints its verdict with the measured numbers before
asserting, so a red run still shows exactly what was observed. Budgets are
asserted as stated; all margins were measured at 10x or better on the
reference machine.
"""

import math
import random
import time

import numpy as np

from sconv.arith import multiplicative_table, prime_array
from sconv.asymptotics import (
    asymptotic_report,
    gronwall_range_max,
    sigma_maximal_constant,
    sigma_maximal_constant_uniform,
    tau_maximal_ratio,
    witness_sequence,
)
from sconv.convolve import (
    DEFAULT_SEED,
    ArithFunc,
    associativity_violation_functions,
    random_arith_func,
    random_multiplicative_func,
    s_convolve,
    s_convolve_at,
    s_convolve_table,
    s_inverse,
    zero_divisor_pair,
)
from sconv.divisor_functions import (
    sigma_S_table,
    sigma_S_table_via_rho,
    tau_S_table,
    tau_S_table_via_rho,
)
from sconv.mobius import mu_k_at, mu_k_prime_power, mu_set_table
from sconv.sets import (
    check_assoc_identity,
    is_associative,
    parse_sset,
    rho_table,
)

BUILTINS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]
ASSOCIATIVE_BUILTINS = ["N", "1", "L2", "L3", "P{2,3}"]


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sweep_dirichlet(fv: np.ndarray, gv: np.ndarray, N: int) -> np.ndarray:
    """h[n] = sum_{d | n} fv[d] gv[n/d], dense int64 sweep."""
    h = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        if fv[d]:
            h[d :: d] += fv[d] * gv[1 : N // d + 1]
    return h


def sweep_unitary(fv: np.ndarray, gv: np.ndarray, N: int) -> np.ndarray:
    """h[n] = sum over d | n with gcd(d, n/d) = 1 of fv[d] gv[n/d]."""
    h = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        if fv[d]:
            m = np.arange(1, N // d + 1, dtype=np.int64)
            cop = np.gcd(m, d) == 1
            h[d * m[cop]] += fv[d] * gv[m[cop]]
    return h


def sweep_square_twist(coef: np.ndarray, base: np.ndarray, N: int) -> np.ndarray:
    """h[n] = sum over d with d^2 | n of coef[d] base[n/d^2]."""
    h = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, math.isqrt(N) + 1):
        if coef[d]:
            dd = d * d
            h[dd :: dd] += coef[d] * base[1 : N // dd + 1]
    return h


def witness_limit(S, eps: float) -> tuple[int, int | None, float]:
    """(t, a, L_S): the witness threshold and all-in exponent recomputed from
    their definitions, and the k -> infinity limit of the witness ratios.

    t is the least t with prod_{p > t} (1 - p^-2) >= 1 - eps and a the least
    a with prod_{all-in p <= t} (1 - p^-a) >= 1 - eps. Every tail prime has
    exponent 1, so by Mertens L_S = (e^gamma / zeta(2)) prod_{p <= t}
    f_p / (1 - p^-2), with f_p = 1 - p^-a at all-in p and 1 - p^(-2 s(p))
    elsewhere.
    """
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    zeta2 = math.pi ** 2 / 6.0
    t, prod_le = 1, 1.0
    while 1.0 / (zeta2 * prod_le) < 1.0 - eps:
        t += 1
        if is_prime(t):
            prod_le *= 1.0 - t ** -2.0
    small = [p for p in range(2, t + 1) if is_prime(p)]
    all_in = [p for p in small if S.mult.rule_at(p).kind == "all"]
    a = None
    if all_in:
        a = 1
        while math.prod(1.0 - p ** -float(a) for p in all_in) < 1.0 - eps:
            a += 1
    lim = math.exp(0.5772156649015329) / zeta2
    for p in small:
        f = (1.0 - p ** -float(a) if p in all_in
             else 1.0 - p ** (-2.0 * S.mult.rule_at(p).least_excluded()))
        lim *= f / (1.0 - p ** -2.0)
    return t, a, lim


def test_criterion_1_mu_k_exactness():
    t0 = time.monotonic()
    mu2 = [mu_k_prime_power(2, a) for a in range(1, 11)]
    mu3 = [mu_k_prime_power(3, a) for a in range(6, 14)]
    ok2 = mu2 == [-1, -1, -1, 0, 1, 1, 0, -1, -1, 0]
    ok3 = mu3 == [0, 1, 2, 2, 1, -1, -3, -4]
    dt = time.monotonic() - t0
    ok = ok2 and ok3 and dt < 1.0
    assert report(1, ok, f"mu_2(p^1..10)={mu2}, mu_3(p^6..13)={mu3}, {dt:.3f}s")


def test_criterion_2_inverse_oracle_equivalence():
    t0 = time.monotonic()
    I = ArithFunc.named("I")
    bad = []
    for spec, k in [("L2", 2), ("L3", 3)]:
        inv = s_inverse(parse_sset(spec), I, 4096)
        for n in range(1, 4097):
            if inv[n] != mu_k_at(k, n):
                bad.append((spec, n, inv[n], mu_k_at(k, n)))
    dt = time.monotonic() - t0
    ok = not bad and dt < 30.0
    detail = f"s_inverse(L2/L3, I, 4096) == multiplicative mu_k at all 2x4096 indices, {dt:.1f}s"
    if bad:
        detail = f"first mismatch {bad[0]}, {dt:.1f}s"
    assert report(2, ok, detail)


def test_criterion_3_identity_suite():
    t0 = time.monotonic()
    N = 10**4
    I_arr = np.ones(N + 1, dtype=np.int64)
    I_arr[0] = 0
    E_arr = np.arange(N + 1, dtype=np.int64)
    phi_arr = multiplicative_table(N, lambda p, a: p**a - p ** (a - 1))
    pairs = [("I", I_arr, "I", I_arr), ("E", E_arr, "I", I_arr),
             ("E", E_arr, "E", E_arr)]
    named = {"I": ArithFunc.named("I"), "E": ArithFunc.named("E")}
    problems = []
    rho_tabs, phi_tabs = [], []
    for spec in BUILTINS:
        S = parse_sset(spec)
        mu_tab = mu_set_table(S, N)
        rho_tab = rho_table(S, N)

        # inversion identity: sum of mu_S over divisors is the indicator
        acc = sweep_dirichlet(mu_tab, I_arr, N)
        if not np.array_equal(acc[1:], rho_tab[1:]):
            problems.append((spec, "mobius sum", int(np.flatnonzero(acc[1:] != rho_tab[1:])[0] + 1)))

        # both square-twisted forms of tau_S and sigma_S
        if not np.array_equal(tau_S_table(S, N), tau_S_table_via_rho(S, N)):
            problems.append((spec, "tau forms"))
        if not np.array_equal(sigma_S_table(S, N), sigma_S_table_via_rho(S, N)):
            problems.append((spec, "sigma forms"))

        # completely multiplicative f, g: the restricted convolution
        # re-expressed through the plain and unitary products
        for fn, fv, gn, gv in pairs:
            direct = np.asarray(
                s_convolve_table(S, named[fn], named[gn], N), dtype=np.int64)
            base_d = sweep_dirichlet(fv, gv, N)
            coef_d = mu_tab * fv[: N + 1] * gv[: N + 1]
            via_d = sweep_square_twist(coef_d, base_d, N)
            base_u = sweep_unitary(fv, gv, N)
            coef_u = rho_tab * fv[: N + 1] * gv[: N + 1]
            via_u = sweep_square_twist(coef_u, base_u, N)
            if not np.array_equal(via_d, direct):
                problems.append((spec, "cm dirichlet form", fn, gn))
            if not np.array_equal(via_u, direct):
                problems.append((spec, "cm unitary form", fn, gn))

        # phi_S three ways: mu_S * E, rho_S * phi, and the direct gcd count
        via_mu = sweep_dirichlet(mu_tab, E_arr, N)
        via_rho = sweep_dirichlet(rho_tab, phi_arr, N)
        if not np.array_equal(via_mu, via_rho):
            problems.append((spec, "phi conv forms"))
        rho_tabs.append(rho_tab)
        phi_tabs.append(via_mu)
    # the direct count: each n's gcds with 1..n, tallied once for all sets
    R = np.stack(rho_tabs)
    direct_phi = np.zeros((len(BUILTINS), N + 1), dtype=np.int64)
    for n in range(1, N + 1):
        counts = np.bincount(np.gcd(np.arange(1, n + 1, dtype=np.int64), n))
        direct_phi[:, n] = R[:, : len(counts)] @ counts
    for spec, direct, via_mu in zip(BUILTINS, direct_phi, phi_tabs):
        if not np.array_equal(direct[1:], via_mu[1:]):
            problems.append((spec, "phi direct"))
    dt = time.monotonic() - t0
    ok = not problems and dt < 300.0
    detail = (f"7 sets x (mobius sum, cm dirichlet/unitary forms, tau/sigma "
              f"two forms, phi three-way) exact on n <= 1e4, {dt:.1f}s"
              if not problems else f"failures: {problems[:4]}, {dt:.1f}s")
    assert report(3, ok, detail)


def test_criterion_4_algebraic_laws():
    t0 = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 500)
    g = random_arith_func(rng, 500)
    h = random_arith_func(rng, 500)
    fg_sum = ArithFunc.from_table([0] + [f(n) + g(n) for n in range(1, 501)], "f+g")
    delta = ArithFunc.named("delta")
    problems = []
    for spec in BUILTINS:
        S = parse_sset(spec)
        for n in range(1, 501):
            if s_convolve_at(S, f, g, n) != s_convolve_at(S, g, f, n):
                problems.append((spec, "commutativity", n))
                break
            if s_convolve_at(S, fg_sum, h, n) != (
                    s_convolve_at(S, f, h, n) + s_convolve_at(S, g, h, n)):
                problems.append((spec, "distributivity", n))
                break
            if s_convolve_at(S, f, delta, n) != f(n):
                problems.append((spec, "identity", n))
                break
    for spec in ASSOCIATIVE_BUILTINS:
        S = parse_sset(spec)
        fg = s_convolve(S, f, g)
        gh = s_convolve(S, g, h)
        for n in range(1, 201):
            if s_convolve_at(S, fg, h, n) != s_convolve_at(S, f, gh, n):
                problems.append((spec, "associativity", n))
                break
    # the squarefree set must yield a concrete, verified violation
    trip = is_associative(parse_sset("Q2")).witness
    if trip is None or check_assoc_identity(parse_sset("Q2"), *trip):
        problems.append(("Q2", "witness triple missing or unverified"))
    built = associativity_violation_functions(trip) if trip else None
    if built is None:
        problems.append(("Q2", "no violating functions"))
    else:
        bf, bg, bh, bn = built
        SQ2 = parse_sset("Q2")
        lhs = s_convolve_at(SQ2, s_convolve(SQ2, bf, bg), bh, bn)
        rhs = s_convolve_at(SQ2, bf, s_convolve(SQ2, bg, bh), bn)
        if lhs == rhs:
            problems.append(("Q2", "violation functions do not violate"))
    dt = time.monotonic() - t0
    ok = not problems and dt < 60.0
    detail = (f"laws on n <= 500, associativity on n <= 200, Q2 witness {trip} verified, {dt:.1f}s"
              if not problems else f"failures: {problems[:4]}, {dt:.1f}s")
    assert report(4, ok, detail)


def test_criterion_5_multiplicativity_and_zero_divisors():
    t0 = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    N = 10**4
    problems = []
    for spec in BUILTINS:
        S = parse_sset(spec)
        f = random_multiplicative_func(rng, N)
        g = random_multiplicative_func(rng, N)
        tab = s_convolve_table(S, f, g, N)
        for m in range(2, 101):
            for n in range(m + 1, N // m + 1):
                if math.gcd(m, n) == 1 and tab[m * n] != tab[m] * tab[n]:
                    problems.append((spec, "product split", m, n))
                    break
    for spec in BUILTINS:
        if spec == "N":
            continue
        S = parse_sset(spec)
        z = zero_divisor_pair(S)
        if z is None:
            problems.append((spec, "no zero divisor pair"))
            continue
        lim = 4 * z.excluded * z.excluded
        if z.checked_at != z.excluded * z.excluded:
            problems.append((spec, "not checked at the candidate term", z.checked_at))
        if any(s_convolve_at(S, z.f, z.g, n) != 0 for n in range(1, lim + 1)):
            problems.append((spec, "pair not annihilating"))
    dt = time.monotonic() - t0
    ok = not problems and dt < 60.0
    detail = (f"multiplicativity preserved on coprime products <= 1e4, "
              f"zero divisors verified to 4p^2 for 6 sets, {dt:.1f}s"
              if not problems else f"failures: {problems[:4]}, {dt:.1f}s")
    assert report(5, ok, detail)


def test_criterion_6_asymptotic_main_terms():
    t0 = time.monotonic()
    x = 10**6
    sigma_cases = [("N", 1e-3), ("1", 1e-2), ("Q2", 1e-2), ("L2", 1e-2)]
    tau_cases = [("N", 1e-2), ("1", 1e-2), ("Q2", 1e-2), ("L2", 1e-2)]
    rows = []
    problems = []
    for fn, cases in [("sigma_S", sigma_cases), ("tau_S", tau_cases)]:
        for spec, tol in cases:
            r = asymptotic_report(parse_sset(spec), fn, x)
            err = abs(r.ratios[-1] - 1)
            rows.append(f"{fn}/{spec}:|r-1|={err:.1e},fit={r.fit_exponent:.2f}")
            if err > tol:
                problems.append((fn, spec, err, tol))
    dt = time.monotonic() - t0
    ok = not problems and dt < 120.0
    detail = "; ".join(rows) + f" (fits reported, not gated), {dt:.1f}s"
    if problems:
        detail = f"out of tolerance: {problems}; " + detail
    assert report(6, ok, detail)


def test_criterion_7_sigma_maximal_order():
    t0 = time.monotonic()
    problems = []
    for spec, s in [("1", 1), ("Q2", 2), ("Q3", 3), ("L2", 1), ("L3", 1)]:
        mc = sigma_maximal_constant(parse_sset(spec))
        if mc.uniform_s != s:
            problems.append((spec, "uniform s missed", mc.uniform_s))
            continue
        closed = sigma_maximal_constant_uniform(s)
        gap = abs(mc.value - closed.mid)
        if gap > mc.err_bound + closed.rad:  # the two certified Balls are disjoint
            problems.append((spec, "two-path gap", gap))
    seq_text = []
    eps = 0.1
    for spec in ["N", "1", "L2"]:
        S = parse_sset(spec)
        c = sigma_maximal_constant(S).value
        ws = [witness_sequence(S, eps, k) for k in range(6, 13)]
        ratios = [w.ratio for w in ws]
        t, a, lim = witness_limit(S, eps)
        seq_text.append(f"{spec}: " + ",".join(f"{r:.4f}" for r in ratios)
                        + f" vs L={lim:.4f}, C={c:.4f}")
        if any((w.t, w.a) != (t, a) for w in ws):
            problems.append((spec, "witness (t, a) differ from their definitions",
                             (ws[0].t, ws[0].a), (t, a)))
        # L_S = C for S = 1 and L2; the truncated product C only drops
        # factors below 1, so it errs upward
        if not (1.0 - eps) ** 2 * c <= lim <= c:
            problems.append((spec, "limit L_S outside [(1-eps)^2 C, C]", lim))
        # the ratios fall toward L_S: Rosser-Schoenfeld give e^gamma ln x <
        # prod_{p<=x} p/(p-1) < e^gamma ln x (1 + 1/(2 ln^2 x)) and
        # x (1 - 1/ln x) < theta(x) < x for 286 <= x <= 1e8, here x = e^k
        for w in ws:
            if not lim <= w.ratio <= lim * (1.0 + 2.0 / w.k**2):
                problems.append((spec, f"k={w.k} ratio outside [L, L(1+2/k^2)]", w.ratio))
        if not all(r0 > r1 for r0, r1 in zip(ratios, ratios[1:])):
            problems.append((spec, "ratios not decreasing over k=6..12", ratios))
        if not 0.75 * c <= ratios[-1] <= 1.05 * c:
            problems.append((spec, "k=12 ratio outside [0.75C, 1.05C]", ratios[-1]))
    dt = time.monotonic() - t0
    ok = not problems and dt < 120.0
    detail = (f"two-path <= 1e-8 on 5 uniform-s sets; witness ratios {'; '.join(seq_text)}, {dt:.1f}s"
              if not problems else f"failures: {problems}; sequences {'; '.join(seq_text)}, {dt:.1f}s")
    assert report(7, ok, detail)


def test_criterion_8_tau_maximal_order():
    t0 = time.monotonic()
    ks = [10**2, 10**3, 10**4, 10**5]
    ratios = [tau_maximal_ratio(k) for k in ks]
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    rel = abs(ratios[-1] / math.log(2) - 1)
    dt = time.monotonic() - t0
    ok = decreasing and rel <= 0.12 and dt < 30.0
    assert report(8, ok,
                  f"ratios {['%.4f' % r for r in ratios]} decreasing={decreasing}, "
                  f"k=1e5 within {rel:.1%} of ln 2, {dt:.1f}s")


def test_criterion_9_gronwall_range():
    t0 = time.monotonic()
    value, arg = gronwall_range_max(10**6)
    e_gamma = math.exp(0.5772156649015329)
    dt = time.monotonic() - t0
    ok = value < e_gamma and dt < 60.0
    assert report(9, ok,
                  f"max sigma(n)/(n lnln n) on 5041..1e6 is {value:.6f} at n={arg}, "
                  f"below e^gamma={e_gamma:.6f}, {dt:.1f}s")
