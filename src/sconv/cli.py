"""Command-line front end.

Subcommands:

    eval        values of tau/sigma/phi/mu/mu_k over a set S
    classify    structure report for a set (multiplicative? associative?)
    verify      invariant suites with first-counterexample reporting
    asymp       partial sums against the main term, with remainder fit
    maxorder    maximal-order constants, witness ratios, primorial ratios
    mu-k-stats  exploratory value statistics of the k-full Moebius function

Exit codes: 0 all requested checks passed, 1 verification failure (or a
reader that closed stdout early, which ends the run quietly), 2 usage or
parse error (an --out path that cannot be opened included), 3
resource/overflow guard tripped.

Machine artifacts (--out) are deterministic: identical invocations produce
bit-identical CSV/JSON (fixed seeds, no timestamps). JSON artifacts carry
{schema_version, command, sset, params, rows}.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from collections import deque
from collections.abc import Iterable

import numpy as np

from .arith import _tau_pp, dirichlet_sweep, multiplicative_table
from .divisor_functions import (
    divisor_function_windows,
    phi_S_at,
    phi_S_table,
    sigma_S_at,
    sigma_S_table,
    sigma_S_table_via_rho,
    tau_S_at,
    tau_S_table,
    tau_S_table_via_rho,
)
from .errors import ConsistencyError, LimitError, ParseError
from .sets import (
    POINTWISE_SPAN,
    SSet,
    Verdict,
    classify_prime,
    coprime_product_failure,
    is_associative,
    is_multiplicative,
    parse_sset,
    rho_table,
    witness_text,
)

# Each command imports what it alone runs: asymptotics in asymp and
# maxorder, convolve in verify's algebra and inversion suites, mobius for
# eval --fn mu, the identities suite and mu-k-stats, csv and json once --out
# names an artifact. Start-up is most of a short command.

SCHEMA_VERSION = 1
RANGE_CAP = 10**7
VERIFY_CAP = 10**5
# rows per block of eval's output: one % operation renders a block, and
# stdout and the artifact both take that text. On the two table-export runs
# (Q2 sigma to 2.5e5, CSV and JSON, fresh interpreters, 6 rounds) 256, 1024
# and 4096 rows took 0.89, 0.86 and 0.84 s (parent 1.10 s); the writer's
# tracemalloc peak over 1e5 rows is 271 KiB (CSV, 128 KiB of it csv.writer's
# header buffer) and 205 KiB (JSON) at 1024 rows, 680 and 799 KiB at 4096,
# past the 512 KiB that tests/test_cli.py allows
_ROW_BLOCK = 1024


# ---------------------------------------------------------------------------
# argument plumbing

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write a machine artifact to this path")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="artifact format (default csv)")

    p = argparse.ArgumentParser(prog="sconv",
                                description="S-convolutions of arithmetical functions")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="evaluate a function")
    pe.add_argument("--sset", help="set spec (N, 1, Qk, Lk, P{..}, F{..}, FILE:path; default N)")
    pe.add_argument("--fn", required=True, choices=("tau", "sigma", "phi", "mu", "mu_k"))
    pe.add_argument("--n", type=int, help="single argument")
    pe.add_argument("--range", dest="rng", help="inclusive range A..B")
    pe.add_argument("--k", type=int, help="k for --fn mu_k")

    pc = sub.add_parser("classify", parents=[common], help="structure of a set")
    pc.add_argument("--sset", required=True)

    pv = sub.add_parser("verify", parents=[common], help="invariant suites")
    pv.add_argument("--sset", required=True)
    pv.add_argument("--suite", default="all",
                    choices=("identities", "algebra", "inversion", "all"))
    pv.add_argument("--n", type=int, default=1000, help="check bound (<= 1e5)")

    pa = sub.add_parser("asymp", parents=[common], help="partial sums vs main term")
    pa.add_argument("--sset", required=True)
    pa.add_argument("--fn", required=True, choices=("tau", "sigma"))
    pa.add_argument("--n", type=int, default=10**6, help="x_max (<= 1e7)")
    pa.add_argument("--samples", type=int, default=24)

    pm = sub.add_parser("maxorder", parents=[common], help="maximal-order reports")
    pm.add_argument("--sset", required=True)
    pm.add_argument("--mode", required=True, choices=("sigma", "tau"))
    pm.add_argument("--k", type=int, help="sigma: top witness index (<= 15); tau: primorial length")
    pm.add_argument("--epsilon", type=float, default=0.1)

    ps = sub.add_parser("mu-k-stats", parents=[common],
                        help="value statistics of mu_k on prime powers")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--a-max", type=int, default=1000)

    return p


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise ParseError(f"range must look like A..B, got {text!r}")
    a, b = int(lo), int(hi)
    if not 1 <= a <= b:
        raise ParseError(f"need 1 <= A <= B in range, got {text!r}")
    if b > RANGE_CAP:
        raise LimitError(f"range end {b} above cap {RANGE_CAP}")
    return a, b


def _emit(args, command: str, sset: str, params: dict, rows: Iterable,
          fieldnames: list[str], text: bool = False) -> None:
    """The one artifact writer: writes --out, if given, reading rows once as
    a stream. Rows are tuples in fieldnames order, which go through
    csv.writer or the JSON encoder one row at a time; or, with text=True,
    blocks of eval's stdout lines "a b\n" of two int columns, each turned
    into CSV or JSON by str.replace alone (%d, csv and json all write an int
    as its repr). JSON gets the bytes json.dump would write for the whole
    envelope."""
    if not args.out:
        return
    try:
        fh = open(args.out, "w", newline="" if args.format == "csv" else None)
    except OSError as exc:
        raise ParseError(f"cannot write artifact {args.out!r}: {exc}") from exc
    with fh:
        if args.format == "csv":
            import csv

            w = csv.writer(fh)
            w.writerow(fieldnames)
            if text:
                for t in rows:
                    fh.write(t.replace(" ", ",").replace("\n", "\r\n"))
            else:
                w.writerows(rows)
            return
        import json

        # a quote inside a JSON string is escaped, so only the key itself matches
        head, _, tail = json.dumps(
            {"schema_version": SCHEMA_VERSION, "command": command, "sset": sset,
             "params": params, "rows": []}, sort_keys=True).partition('"rows": []')
        if text:  # eval's ["n", "value"] is already in the encoder's key order
            first, second = (json.dumps(k) + ": " for k in fieldnames)
            items = ("{" + first + t[:-1].replace(" ", ", " + second)
                     .replace("\n", "}, {" + first) + "}" for t in rows)
        else:
            encode = json.JSONEncoder(sort_keys=True).encode
            items = (encode(dict(zip(fieldnames, r))) for r in rows)
        fh.write(head + '"rows": [')
        sep = ""
        for item in items:
            fh.write(sep + item)
            sep = ", "
        fh.write("]" + tail + "\n")


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    fn, sset = args.fn, args.sset or "N"
    if fn == "mu_k":  # mu_k is the S-inverse of I over L_k, and the artifact names L_k
        if args.k is None:
            raise ParseError("--fn mu_k needs --k")
        if args.k < 1:
            raise ParseError("--k must be >= 1")
        if args.sset is not None:
            raise ParseError("--fn mu_k takes no --sset: its set is L{k}")
        fn, sset = "mu", f"L{args.k}"
    S = parse_sset(sset)
    if (args.n is None) == (args.rng is None):
        raise ParseError("give exactly one of --n or --range")
    if args.n is not None:
        if args.n < 1 or args.n > RANGE_CAP:
            raise ParseError(f"--n must lie in 1..{RANGE_CAP}")
        lo = hi = args.n
    else:
        lo, hi = _parse_range(args.rng)

    chunks = _eval_values(S, fn, lo, hi)
    if lo == hi:
        print(chunks[0][0])
    blocks = _eval_blocks(lo, chunks, echo=lo < hi)
    try:
        _emit(args, "eval", S.spec, {"fn": args.fn, "lo": lo, "hi": hi, "k": args.k},
              blocks, ["n", "value"], text=True)
        deque(blocks, maxlen=0)  # without --out, _emit reads no block
    except ConsistencyError:
        if args.out:  # a window failed its self-check: leave no partial artifact
            os.remove(args.out)
        raise
    return 0


def _eval_blocks(lo: int, chunks, echo: bool):
    """The rows "n value\n" of n = lo, lo + 1, ... over consecutive chunks
    of values, in blocks of _ROW_BLOCK, each one % operation, written to
    stdout when echo is set. A chunk is rendered before the next is read,
    since a streamed window is overwritten by the next. An int64 chunk
    becomes Python ints one block at a time; every route gives exact ints,
    which %d writes as str does."""
    for values in chunks:
        for i in range(0, len(values), _ROW_BLOCK):
            vals = values[i : i + _ROW_BLOCK]
            cells = [0] * (2 * len(vals))  # n and value, interleaved
            cells[::2] = range(lo + i, lo + i + len(vals))
            cells[1::2] = vals.tolist() if isinstance(vals, np.ndarray) else vals
            text = "%d %d\n" * len(vals) % tuple(cells)
            if echo:
                sys.stdout.write(text)
            yield text
        lo += len(values)


def _eval_values(S: SSet, fn: str, lo: int, hi: int) -> Iterable:
    """Values on lo..hi as consecutive chunks. mu comes from inverse_of_I.
    tau, sigma and phi: one list of pointwise ints when hi - lo <
    POINTWISE_SPAN, else the int64 windows of divisor_function_windows on a
    rule-based S, and for tau and sigma on a table-backed S with 1 in S and
    rho_S multiplicative on 1..isqrt(hi); otherwise a slice of the table."""
    if fn == "mu":
        from .mobius import inverse_of_I

        return inverse_of_I(S, lo, hi)
    if hi - lo < POINTWISE_SPAN:
        at = {"tau": tau_S_at, "sigma": sigma_S_at, "phi": phi_S_at}[fn]
        return [[at(S, n) for n in range(lo, hi + 1)]]
    if S.mult is not None:
        return divisor_function_windows(S, fn, lo, hi)
    if fn != "phi":  # tau_S and sigma_S read rho_S at the gcds, up to isqrt(hi)
        gcds = rho_table(S, math.isqrt(hi))  # the tables' LimitError past the bound
        if gcds[1] and coprime_product_failure(gcds, len(gcds) - 1) is None:
            return divisor_function_windows(S, fn, lo, hi)
    tab = {"tau": tau_S_table, "sigma": sigma_S_table, "phi": phi_S_table}[fn]
    return [tab(S, hi)[lo : hi + 1]]


# ---------------------------------------------------------------------------
# classify

def _scope(v: Verdict) -> str:
    """How far a bound-limited verdict was checked; empty when absolute."""
    return "" if v.bound is None else f" (checked to {v.bound})"


def _cmd_classify(args) -> int:
    S = parse_sset(args.sset)
    mv = is_multiplicative(S)
    av = is_associative(S)
    print(f"set: {S.spec}")
    print(f"multiplicative: {'yes' if mv else 'no'}{_scope(mv)}"
          + ("" if mv else f", witness {mv.witness}"))
    print(f"associative: {'yes' if av else 'no'}{_scope(av)}")
    rows = []
    if not av:
        print(f"  witness triple (n, d, e) = {witness_text(av.witness)}")
    if S.mult is not None:
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            c = classify_prime(S, p)
            rows.append((p, c.case, c.threshold, c.least_excluded))
            extra = ""
            if c.threshold is not None:
                extra = f", threshold {c.threshold}"
            if c.least_excluded is not None:
                extra += f", least excluded exponent {c.least_excluded}"
            print(f"  p={p}: {c.case}{extra}")
    else:
        print(f"  explicit membership up to {S.general.bound}"
              f" ({len(S.general.members)} members)")
    _emit(args, "classify", S.spec,
          {"multiplicative": bool(mv), "associative": bool(av)},
          rows, ["p", "case", "threshold", "least_excluded"])
    return 0


# ---------------------------------------------------------------------------
# verify

def _agree(check: str, bad: np.ndarray, ok_text: str, why=None) -> tuple[str, bool, str]:
    """verify's (check, ok, detail) row of a table comparison: ok_text, or
    the least n >= 1 with bad[n] set, followed by why(n) when given."""
    hit = np.flatnonzero(bad[1:])
    if not len(hit):
        return check, True, ok_text
    n = int(hit[0]) + 1
    return check, False, f"first failure at n={n}" + (why(n) if why else "")


def _not_delta(conv: np.ndarray) -> np.ndarray:
    """Where conv differs from delta; n = 1 is flagged only when no n >= 2
    is, so a failure from n = 2 on is reported ahead of conv[1] != 1."""
    bad = conv != 0
    bad[1] = conv[1] != 1 and not bad[2:].any()
    return bad


def _suite_identities(S: SSet, N: int) -> list[tuple[str, bool, str]]:
    from .mobius import mu_set_table, verify_mobius_identity

    ms = mu_set_table(S, N)
    v = verify_mobius_identity(S, N, ms)
    out = [("mobius_sum", bool(v),
            f"sum of mu_S over divisors equals rho_S to {N}" if v
            else f"first failure {v.witness}")]
    out.append(_agree("mu_bound", np.abs(ms) > multiplicative_table(N, _tau_pp),
                      f"|mu_S| <= tau to {N}"))
    t1, t2 = tau_S_table(S, N), tau_S_table_via_rho(S, N)
    out.append(_agree("tau_identity", t1 != t2, f"both square-divisor forms match to {N}",
                      lambda n: f": {int(t1[n])} vs {int(t2[n])}"))
    out.append(_agree("sigma_identity", sigma_S_table(S, N) != sigma_S_table_via_rho(S, N),
                      f"both square-divisor forms match to {N}"))
    p1 = phi_S_table(S, N)  # rho_S * phi, self-checked vs direct
    p2 = dirichlet_sweep(ms, np.arange(N + 1, dtype=np.int64), N)  # mu_S * E
    out.append(_agree("phi_forms", p1 != p2, f"mu_S*E and rho_S*phi agree to {N}"))
    return out


def _suite_algebra(S: SSet, N: int) -> list[tuple[str, bool, str]]:
    from .convolve import (
        DEFAULT_SEED,
        ArithFunc,
        associativity_violation_functions,
        random_arith_func,
        random_multiplicative_func,
        s_convolve,
        s_convolve_at,
        s_convolve_table,
        zero_divisor_pair,
    )

    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, N)
    g = random_arith_func(rng, N)
    h = random_arith_func(rng, N)

    fg = s_convolve_table(S, f, g, N)
    out = [_agree("commutative", fg != s_convolve_table(S, g, f, N), f"f*g = g*f to {N}")]

    nd = min(N, 2000)
    fg = fg[: nd + 1].copy()  # its prefixes are f*g to nd and na; the copy frees the N-table
    lhs = s_convolve_table(S, f, g + h, nd)
    fhd = s_convolve_table(S, f, h, nd)  # f*g + f*h summed exactly: it may leave int64
    out.append(_agree("distributive", lhs != fg.astype(object) + fhd,
                      f"f*(g+h) = f*g + f*h to {nd}"))

    fd = s_convolve_table(S, f, ArithFunc.named("delta"), N)
    out.append(_agree("identity_element", fd != f.array(N),
                      f"f*delta = f to {N}"))

    na = min(N, 200)
    av = is_associative(S)
    if av:
        fg_t = ArithFunc.from_table(fg[: na + 1])
        gh_t = ArithFunc.from_table(s_convolve_table(S, g, h, na))
        n_bad = next((n for n in range(1, na + 1)
                      if s_convolve_at(S, fg_t, h, n) != s_convolve_at(S, f, gh_t, n)), None)
        out.append(("associative", n_bad is None,
                    f"(f*g)*h = f*(g*h) to {na}" if n_bad is None
                    else f"first failure at n={n_bad}"))
    else:
        # pointwise: only divisors of n are read, and a table-backed witness
        # can put n near bound^2 (1e8 for a FILE set to 2e4)
        u, v, w, n = associativity_violation_functions(av.witness)
        left = s_convolve_at(S, s_convolve(S, u, v), w, n)
        right = s_convolve_at(S, u, s_convolve(S, v, w), n)
        n_text = witness_text(n)
        out.append(("associative", False,
                    f"violated at n={n_text} by indicator functions: "
                    f"((f*g)*h)({n_text})={left} != (f*(g*h))({n_text})={right}, "
                    f"witness triple {witness_text(av.witness)}"))

    zd = zero_divisor_pair(S)
    if zd is None:
        out.append(("zero_divisors", True, "none exist: S is the full set"))
    else:
        out.append(("zero_divisors", True,
                    f"indicator of {witness_text(zd.excluded)} squares to zero"
                    f" (checked exactly at n={witness_text(zd.checked_at)}:"
                    f" its one candidate term)"))

    if is_multiplicative(S):
        nm = min(N, 10**4)
        fm = random_multiplicative_func(rng, nm)
        gm = random_multiplicative_func(rng, nm)
        bad = coprime_product_failure(s_convolve_table(S, fm, gm, nm), nm)
        out.append(("mult_preserved", bad is None,
                    f"f*g multiplicative on coprime products <= {nm}" if bad is None
                    else f"first failure at coprime pair {bad}"))
    return out


def _suite_inversion(S: SSet, N: int) -> list[tuple[str, bool, str]]:
    from .convolve import DEFAULT_SEED, ArithFunc, random_arith_func, s_convolve_table, s_inverse

    nb = min(N, 4096)
    try:
        g = s_inverse(S, ArithFunc.named("I"), nb)
    except ValueError as exc:
        return [("inverse_of_I", False, str(exc))]
    conv = s_convolve_table(S, ArithFunc.from_table(g), ArithFunc.named("I"), nb)
    out = [_agree("inverse_of_I", _not_delta(conv), f"I^(-1) * I = delta to {nb}")]

    rng = random.Random(DEFAULT_SEED + 1)
    nr = min(N, 512)
    f = random_arith_func(rng, nr, unit=True)
    conv = s_convolve_table(S, ArithFunc.from_table(s_inverse(S, f, nr)), f, nr)
    out.append(_agree("inverse_random_unit", _not_delta(conv),
                      f"f^(-1) * f = delta to {nr} for a seeded unit"))
    return out


def _cmd_verify(args) -> int:
    if not 1 <= args.n <= VERIFY_CAP:
        raise ParseError(f"--n must lie in 1..{VERIFY_CAP}")
    S = parse_sset(args.sset)
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("identities", "all"):
        checks += _suite_identities(S, args.n)
    if args.suite in ("algebra", "all"):
        checks += _suite_algebra(S, args.n)
    if args.suite in ("inversion", "all"):
        checks += _suite_inversion(S, args.n)

    failed = 0
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    print(f"suite {args.suite}: {len(checks) - failed} passed, {failed} failed")
    _emit(args, "verify", S.spec, {"suite": args.suite, "n": args.n},
          checks, ["check", "ok", "detail"])
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# asymp / maxorder / mu-k-stats

def _cmd_asymp(args) -> int:
    from .asymptotics import asymptotic_report

    S = parse_sset(args.sset)
    fn = "tau_S" if args.fn == "tau" else "sigma_S"
    rep = asymptotic_report(S, fn, args.n, samples=args.samples)
    print(f"{fn} over {S.spec}, x_max={args.n}"
          f" (main-term constant error <= {rep.const_err:.3g})")
    fields = ["x", "partial_sum", "main_term", "ratio", "remainder"]
    rows = [tuple(row[c] for c in fields) for row in rep.rows()]
    print(f"{'x':>10} {'partial_sum':>16} {'main_term':>16} {'ratio':>10} {'remainder':>14}")
    for x, psum, main, ratio, rem in rows:
        print(f"{x:>10} {psum:>16} {main:>16.6g} {ratio:>10.6f} {rem:>14.6g}")
    if rep.fit_exponent is not None:
        print(f"empirical remainder exponent {rep.fit_exponent:.3f}"
              f" (rms residual {rep.fit_residual:.3f}; informational only)")
    _emit(args, "asymp", S.spec,
          {"fn": fn, "x_max": args.n, "samples": args.samples,
           "const_err": rep.const_err, "fit_exponent": rep.fit_exponent,
           "fit_residual": rep.fit_residual},
          rows, fields)
    return 0


def _cmd_maxorder(args) -> int:
    from .asymptotics import (
        sigma_maximal_constant,
        sigma_maximal_constant_uniform,
        tau_maximal_ratio,
        witness_sequence,
    )

    S = parse_sset(args.sset)
    if args.mode == "tau":
        k = args.k if args.k is not None else 10**5
        if k < 2:
            raise ParseError("--k must be >= 2 for the primorial ratio")
        r = tau_maximal_ratio(k)
        print(f"primorial ratio at k={k}: {r:.6f} (tends to ln 2 = {math.log(2):.6f})")
        _emit(args, "maxorder", S.spec, {"mode": "tau", "k": k},
              [(k, r, math.log(2))], ["k", "ratio", "limit"])
        return 0

    k_top = args.k if args.k is not None else 12
    if not 2 <= k_top <= 15:
        raise ParseError("--k must lie in 2..15 for witness sequences")
    if not 0.0 < args.epsilon < 1.0:
        raise ParseError("--epsilon must lie in (0, 1)")
    mc = sigma_maximal_constant(S)
    print(f"limsup constant for {S.spec}: {mc.value:.10f} (err <= {mc.err_bound:.3g})")
    status = 0
    if mc.uniform_s is not None:
        closed = sigma_maximal_constant_uniform(mc.uniform_s)
        diff, radii = abs(mc.value - closed.mid), mc.err_bound + closed.rad
        agree = diff <= radii  # the two certified Balls overlap
        print(f"uniform s={mc.uniform_s}: closed form {closed.mid:.10f},"
              f" |difference| = {diff:.3g} {'<=' if agree else '>'} {radii:.3g}")
        if not agree:
            status = 1
    rows = []
    for kk in range(2, k_top + 1):
        try:
            w = witness_sequence(S, args.epsilon, kk)
        except ValueError:
            continue  # k too small for this epsilon
        rows.append((kk, w.t, w.a, w.log_n, w.sigma_over_n, w.ratio))
    print(f"{'k':>3} {'t':>3} {'a':>4} {'log_n':>12} {'sigma/n':>10} {'ratio':>10}")
    for kk, t, a, log_n, sigma_over_n, ratio in rows:
        a_txt = "-" if a is None else a
        print(f"{kk:>3} {t:>3} {a_txt:>4} {log_n:>12.3f}"
              f" {sigma_over_n:>10.6f} {ratio:>10.6f}")
    _emit(args, "maxorder", S.spec,
          {"mode": "sigma", "epsilon": args.epsilon, "k": k_top,
           "constant": mc.value, "constant_err": mc.err_bound,
           "uniform_s": mc.uniform_s},
          rows, ["k", "t", "a", "log_n", "sigma_over_n", "ratio"])
    return status


def _cmd_mu_k_stats(args) -> int:
    from .mobius import mu_k_statistics

    stats = mu_k_statistics(args.k, args.a_max)
    longest = max((ln for _, ln in stats.sign_runs), default=0)
    zero_share = sum(ln for s, ln in stats.sign_runs if s == 0) / stats.a_max
    print(f"mu_{args.k} on prime powers p^1..p^{args.a_max}:")
    print(f"  {len(stats.values)} distinct values,"
          f" min {min(stats.values)}, max {max(stats.values)}")
    print(f"  {len(stats.sign_runs)} sign runs, longest {longest},"
          f" zero share {zero_share:.4f}")
    rows = [(v, stats.first_occurrence[v]) for v in stats.values]
    for v, first_a in rows[:10]:
        print(f"  value {v} first at a={first_a}")
    if len(rows) > 10:
        print(f"  ... {len(rows) - 10} more")
    _emit(args, "mu-k-stats", "-", {"k": args.k, "a_max": args.a_max},
          rows, ["value", "first_a"])
    return 0


# ---------------------------------------------------------------------------

_DISPATCH = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "asymp": _cmd_asymp,
    "maxorder": _cmd_maxorder,
    "mu-k-stats": _cmd_mu_k_stats,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader closed stdout (`sconv eval ... | head`): point stdout at
        # devnull so the exit-time flush cannot fail again (Python signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
