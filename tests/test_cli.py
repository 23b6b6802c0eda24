"""End-to-end tests of the command line front end.

Everything goes through main(argv) so exit codes and stdout are checked
in-process; artifact files land in tmp_path.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sconv
from sconv import arith, asymptotics, cli, mobius, sets
from sconv.cli import SCHEMA_VERSION, main
from sconv.convolve import ArithFunc, s_inverse
from sconv.divisor_functions import phi_S_table, sigma_S_table, tau_S_table
from sconv.errors import ParseError
from sconv.sets import POINTWISE_SPAN, Verdict, is_associative, parse_sset, rho_table


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def expected_json(command, sset, params, rows) -> bytes:
    """The documented artifact, as json.dumps writes the whole envelope."""
    return (json.dumps({"schema_version": SCHEMA_VERSION, "command": command,
                        "sset": sset, "params": params, "rows": rows},
                       sort_keys=True) + "\n").encode()


def expected_csv(fieldnames, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(fieldnames)
    for row in rows:
        w.writerow([row[c] for c in fieldnames])
    return buf.getvalue().encode()


def artifacts(capsys, tmp_path, argv):
    """Run argv once per format; return (exit code, stdout, CSV bytes, JSON bytes)."""
    got = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"out.{fmt}"
        got.append(run(capsys, argv + ["--out", str(path), "--format", fmt])
                   + (path.read_bytes(),))
    (code, out, csv_bytes), (code_j, out_j, json_bytes) = got
    assert (code, out) == (code_j, out_j)
    return code, out, csv_bytes, json_bytes


# ---------------------------------------------------------------------------
# eval


def test_eval_single_value(capsys):
    code, out = run(capsys, ["eval", "--fn", "tau", "--n", "12"])
    assert code == 0 and out == "6\n"


def test_eval_unitary_sigma(capsys):
    code, out = run(capsys, ["eval", "--sset", "1", "--fn", "sigma", "--n", "12"])
    assert code == 0 and out == "20\n"


def test_eval_mu_range_kfull(capsys):
    code, out = run(capsys, ["eval", "--sset", "L2", "--fn", "mu", "--range", "1..12"])
    assert code == 0
    got = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert got == [1, -1, -1, -1, -1, 1, -1, -1, -1, 1, -1, 1]


def test_eval_mu_k_range(capsys):
    code, out = run(capsys, ["eval", "--fn", "mu_k", "--k", "2", "--range", "1..10"])
    assert code == 0
    got = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert got == [1, -1, -1, -1, -1, 1, -1, -1, -1, 1]


def test_eval_phi_full_set(capsys):
    code, out = run(capsys, ["eval", "--fn", "phi", "--range", "1..6"])
    assert code == 0
    got = [int(line.split()[1]) for line in out.strip().splitlines()]
    assert got == [1, 2, 3, 4, 5, 6]


def test_eval_rejects_bad_range(capsys):
    # out-of-range arguments are usage errors (2), not resource limits (3)
    for argv in (["eval", "--fn", "tau", "--range", "9..3"],
                 ["mu-k-stats", "--k", "2", "--a-max", "0"]):
        code, _ = run(capsys, argv)
        assert code == 2, argv
    with pytest.raises(SystemExit) as ei:  # maxorder has no --tol: argparse refuses it
        main(["maxorder", "--sset", "Q2", "--mode", "sigma", "--tol", "1e-8"])
    assert ei.value.code == 2


def test_eval_range_rejects_unicode_digits(capsys):
    # '\u00b2'.isdigit() is True, but int('\u00b2') raises
    assert main(["eval", "--fn", "tau", "--range", "1..\u00b2"]) == 2
    assert capsys.readouterr().err.startswith("error: range must look like A..B")


def test_eval_range_cap(capsys):
    for argv in (["eval", "--fn", "tau", "--range", "1..20000000"],
                 ["mu-k-stats", "--k", "2", "--a-max", "1000001"]):
        code, _ = run(capsys, argv)
        assert code == 3, argv


def test_eval_bad_sset(capsys):
    code, _ = run(capsys, ["eval", "--sset", "junk", "--fn", "tau", "--n", "5"])
    assert code == 2


def test_eval_mu_refuses_non_associative_set(capsys):
    assert main(["eval", "--sset", "Q2", "--fn", "mu", "--n", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: 'Q2' gives a non-associative convolution; sconv computes inverses"
        " only under associative convolutions (witness triple (16, 4, 2))\n")


def test_eval_mu_refusal_prints_a_witness_past_the_digit_limit(capsys):
    # 2^40000 has 12042 decimal digits, past Python's int-to-str limit
    assert main(["eval", "--sset", "Q20000", "--fn", "mu", "--n", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: 'Q20000' gives a non-associative convolution; sconv computes inverses"
        " only under associative convolutions (witness triple (2^40000, 2^20000, 2^19999))\n")


def test_eval_artifact_json(capsys, tmp_path):
    out_path = tmp_path / "vals.json"
    code, _ = run(capsys, ["eval", "--sset", "Q2", "--fn", "sigma",
                           "--range", "1..20", "--out", str(out_path),
                           "--format", "json"])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert set(obj) == {"schema_version", "command", "sset", "params", "rows"}
    assert obj["schema_version"] == SCHEMA_VERSION
    assert obj["command"] == "eval" and obj["sset"] == "Q2"
    assert obj["rows"][15] == {"n": 16, "value": 27}  # 1+2+8+16, d=4 dropped


def assert_eval_range_artifacts(capsys, tmp_path, hi, lo=1):
    """eval sigma over L2 on lo..hi: stdout and both artifacts byte-exact,
    with the values of the library table."""
    table = sigma_S_table(parse_sset("L2"), hi)
    rows = [{"n": n, "value": int(table[n])} for n in range(lo, hi + 1)]
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["eval", "--sset", "L2", "--fn", "sigma", "--range", f"{lo}..{hi}"])
    assert code == 0
    assert out == "".join(f"{r['n']} {r['value']}\n" for r in rows)
    assert csv_bytes == expected_csv(["n", "value"], rows)
    assert json_bytes == expected_json(
        "eval", "L2", {"fn": "sigma", "lo": lo, "hi": hi, "k": None}, rows)


def test_eval_range_artifacts_are_byte_exact(capsys, tmp_path):
    # many write blocks, so the streamed JSON joins blocks
    assert_eval_range_artifacts(capsys, tmp_path, 9000)


B = cli._ROW_BLOCK


# spans inside one block, pointwise, then spans ending at each side of a block edge
@pytest.mark.parametrize("hi", [255, 256, 257, 513, B - 1, B, B + 1, 2 * B + 1])
def test_eval_artifacts_at_block_boundaries_are_byte_exact(capsys, tmp_path, hi):
    assert_eval_range_artifacts(capsys, tmp_path, hi)


@pytest.mark.parametrize("lo, hi", [(700, 2000), (1001, 1513), (1001, 1001 + 2 * B)])
def test_eval_artifacts_from_above_one_are_byte_exact(capsys, tmp_path, lo, hi):
    # two streamed routes, one across two block edges, and a pointwise route, each
    # ending in a partial block, with blocks counted from lo rather than from 1
    assert_eval_range_artifacts(capsys, tmp_path, hi, lo)


def test_eval_single_value_artifacts_are_byte_exact(capsys, tmp_path):
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["eval", "--sset", "Q2", "--fn", "sigma", "--n", "16"])
    rows = [{"n": 16, "value": 27}]  # 1+2+8+16, d=4 dropped
    assert code == 0 and out == "27\n"
    assert csv_bytes == b"n,value\r\n16,27\r\n" == expected_csv(["n", "value"], rows)
    assert json_bytes == expected_json(
        "eval", "Q2", {"fn": "sigma", "lo": 16, "hi": 16, "k": None}, rows)


@pytest.mark.parametrize("argv, sset, k, lo, hi", [
    (["--sset", "L2", "--fn", "mu", "--range", "1..1000"], "L2", None, 1, 1000),  # pointwise
    (["--sset", "L2", "--fn", "mu", "--range", "1..1001"], "L2", None, 1, 1001),  # streamed windows
    (["--sset", "P{2,3}", "--fn", "mu", "--n", "65536"], "P{2,3}", None, 65536, 65536),
    (["--fn", "mu_k", "--k", "3", "--range", "1..1200"], "L3", 3, 1, 1200),
    # a stream across two block boundaries: negative values in derived blocks
    (["--sset", "L2", "--fn", "mu", "--range", f"1..{2 * B + 1}"], "L2", None, 1, 2 * B + 1),
])
def test_eval_mu_artifacts_are_byte_exact(capsys, tmp_path, argv, sset, k, lo, hi):
    """eval --fn mu and --fn mu_k: stdout and both artifacts byte-exact, with
    the values of the push sieve s_inverse of I over S, or over L_k for mu_k,
    whose artifact names L_k."""
    S = parse_sset(sset)
    g = s_inverse(S, ArithFunc.named("I"), hi)
    rows = [{"n": n, "value": g[n]} for n in range(lo, hi + 1)]
    code, out, csv_bytes, json_bytes = artifacts(capsys, tmp_path, ["eval"] + argv)
    assert code == 0
    if lo == hi:
        assert out == f"{g[hi]}\n"
    else:
        assert out == "".join(f"{r['n']} {r['value']}\n" for r in rows)
    assert csv_bytes == expected_csv(["n", "value"], rows)
    assert json_bytes == expected_json(
        "eval", sset, {"fn": argv[argv.index("--fn") + 1], "lo": lo, "hi": hi, "k": k}, rows)


def eval_chunks(S, fn, k, lo, hi) -> list:
    """cli._eval_values's chunks, each streamed window copied before the
    next overwrites it; mu_k is mu over L_k, as eval resolves it."""
    if fn == "mu_k":
        S, fn = parse_sset(f"L{k}"), "mu"
    return [c.copy() if isinstance(c, np.ndarray) else c
            for c in cli._eval_values(S, fn, lo, hi)]


@pytest.mark.parametrize("spec", ["L2", "P{2,3}"])
@pytest.mark.parametrize("fn, k", [("tau", None), ("sigma", None), ("phi", None),
                                   ("mu", None), ("mu_k", 3)])
@pytest.mark.parametrize("lo, hi", [(1, 1001), (4001, 6000), (1, 1000), (4001, 5000), (7, 7)])
def test_eval_values_stay_int64_on_table_routes(spec, fn, k, lo, hi):
    """A span of POINTWISE_SPAN rows or more streams int64 windows, a
    shorter one is one list of Python ints; both give the pointwise values."""
    S = parse_sset(spec)
    chunks = eval_chunks(S, fn, k, lo, hi)
    if hi - lo >= POINTWISE_SPAN:
        assert all(isinstance(c, np.ndarray) and c.dtype == np.int64 for c in chunks)
    else:
        assert len(chunks) == 1 and type(chunks[0]) is list
        assert {*map(type, chunks[0])} == {int}
    got = [v for c in chunks for v in list(c)]
    assert len(got) == hi - lo + 1
    for n in (lo, (lo + hi) // 2, hi):
        assert got[n - lo] == eval_chunks(S, fn, k, n, n)[0][0]


def test_eval_values_of_a_table_backed_set_mu_streams(tmp_path):
    # the int64 windows of the rule-based set, from the same span on
    members = rho_table(parse_sset("L2"), 3000).nonzero()[0]
    path = tmp_path / "l2.txt"
    path.write_text("bound 3000\n" + "\n".join(map(str, members)) + "\n")
    got = eval_chunks(parse_sset(f"FILE:{path}"), "mu", None, 1, 2000)
    want = eval_chunks(parse_sset("L2"), "mu", None, 1, 2000)
    assert all(isinstance(c, np.ndarray) and c.dtype == np.int64 for c in got)
    assert np.concatenate(got).tolist() == np.concatenate(want).tolist()


@pytest.fixture(scope="module")
def table_sets(tmp_path_factory):
    """Table-backed sets: name -> (set, whether tau and sigma stream to 1e4).
    The FILE: sets go to 20000: L2; 1..20000 but 5005, multiplicative to
    isqrt(1e4) only; 1..20000 but 6, not multiplicative there."""
    d = tmp_path_factory.mktemp("sets")
    out = {"F{1,5}": (parse_sset("F{1,5}"), True), "F{4,8}": (parse_sset("F{4,8}"), False)}
    l2 = rho_table(parse_sset("L2"), 20000).nonzero()[0].tolist()
    for name, members, streams in (("l2", l2, True), ("gap", range(1, 20001), True),
                                   ("no6", range(1, 20001), False)):
        path = d / f"{name}.txt"
        dropped = {"gap": 5005, "no6": 6}.get(name)
        path.write_text("bound 20000\n" + "".join(f"{m}\n" for m in members if m != dropped))
        out[name] = (parse_sset(f"FILE:{path}"), streams)
    return out


# phi_S reads rho_S to hi, past the bound 100 of the F{..} sets
@pytest.mark.parametrize("name, fn", [(name, fn) for name in ("F{1,5}", "F{4,8}", "l2", "gap", "no6")
                                      for fn in ("tau", "sigma", "phi")
                                      if fn != "phi" or not name.startswith("F")])
@pytest.mark.parametrize("lo, hi", [(1, 1000), (1, 1001), (4001, 5000), (4001, 10000), (1, 10000)])
def test_eval_values_routes_of_table_backed_sets(monkeypatch, table_sets, name, fn, lo, hi):
    """From POINTWISE_SPAN rows on, tau and sigma stream 64-entry windows
    when 1 is in S and rho_S is multiplicative on 1..isqrt(hi); phi, a set
    without 1 and a set that is not multiplicative there take one slice of
    the table to hi, whose values every route gives."""
    S, streams = table_sets[name]
    monkeypatch.setattr(arith, "_window_width", lambda hi: 64)
    chunks = eval_chunks(S, fn, None, lo, hi)
    if hi - lo < POINTWISE_SPAN:
        assert len(chunks) == 1 and type(chunks[0]) is list
    elif streams and fn != "phi":
        assert [len(c) for c in chunks[:-1]] == [64] * (len(chunks) - 1) and len(chunks) > 1
        assert all(c.dtype == np.int64 for c in chunks)
    else:
        assert len(chunks) == 1 and chunks[0].dtype == np.int64
    table = {"tau": tau_S_table, "sigma": sigma_S_table, "phi": phi_S_table}[fn]
    assert [v for c in chunks for v in list(c)] == table(S, hi)[lo : hi + 1].tolist()


@pytest.mark.parametrize("fn", ["tau", "sigma", "mu"])
def test_eval_past_the_square_of_the_bound_leaves_no_artifact(capsys, tmp_path, fn):
    path = tmp_path / "x.csv"
    spec = "F{1,5}"
    code = main(["eval", "--sset", spec, "--fn", fn, "--range", "1..10201", "--out", str(path)])
    if fn == "mu":
        # F{1,5} is refused as non-associative; L2 to the same bound of 100 reaches it
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 'F{1,5}' gives a non-associative convolution; sconv computes inverses"
            " only under associative convolutions (witness triple (625, 25, 5))\n")
        assert not path.exists()
        l2 = tmp_path / "l2.txt"
        members = rho_table(parse_sset("L2"), 100).nonzero()[0]
        l2.write_text("bound 100\n" + "".join(f"{m}\n" for m in members))
        spec = f"FILE:{l2}"
        code = main(["eval", "--sset", spec, "--fn", fn, "--range", "1..10201", "--out", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"resource limit: table to 101 exceeds bound 100 of {spec!r}\n"
    assert not path.exists()


def test_eval_mu_k_artifact_names_its_set(capsys, tmp_path):
    # the rows of L2's mu, under L2's name; an explicit --sset is refused
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["eval", "--fn", "mu_k", "--k", "2", "--range", "1..8"])
    want = artifacts(capsys, tmp_path, ["eval", "--sset", "L2", "--fn", "mu", "--range", "1..8"])
    assert (code, out, csv_bytes) == want[:3]
    assert json.loads(json_bytes)["sset"] == "L2"
    assert json_bytes == want[3].replace(b'"fn": "mu", "hi": 8, "k": null',
                                         b'"fn": "mu_k", "hi": 8, "k": 2')
    path = tmp_path / "x.json"
    code = main(["eval", "--sset", "Q2", "--fn", "mu_k", "--k", "2", "--range", "1..8",
                 "--out", str(path), "--format", "json"])
    assert code == 2
    assert capsys.readouterr().err == "error: --fn mu_k takes no --sset: its set is L{k}\n"
    assert not path.exists()


@pytest.mark.parametrize("argv", [["eval", "--fn", "tau", "--range", "1..5"],
                                  ["verify", "--sset", "L2", "--n", "100"]])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "x.csv"
    code = main(argv + ["--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write artifact {str(path)!r}: ")
    assert not path.exists()


# writer's own tracemalloc peak on 1e5 rows; measured at 1024-row blocks:
# tuples 186 KiB (CSV, 128 KiB of it csv.writer's record buffer, from the
# header row) and 41 KiB (JSON, one encoder call per row); eval's text blocks
# 271 KiB (CSV) and 205 KiB (JSON), rendering included; 680 and 799 KiB at
# 4096-row blocks
EMIT_PEAK_BOUND = 512 * 1024


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_peak_memory_is_bounded(tmp_path, fmt):
    args = argparse.Namespace(out=str(tmp_path / f"x.{fmt}"), format=fmt)
    rows = ((n, n * 7919) for n in range(1, 10**5 + 1))
    tracemalloc.start()
    try:
        cli._emit(args, "eval", "N", {}, rows, ["n", "value"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EMIT_PEAK_BOUND


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_text_blocks_peak_memory_is_bounded(tmp_path, fmt):
    # eval's route; the blocks are rendered inside the traced span, as in eval
    args = argparse.Namespace(out=str(tmp_path / f"x.{fmt}"), format=fmt)
    values = np.arange(1, 10**5 + 1, dtype=np.int64) * 7919
    tracemalloc.start()
    try:
        blocks = cli._eval_blocks(1, [values], echo=False)
        cli._emit(args, "eval", "N", {}, blocks, ["n", "value"], text=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < EMIT_PEAK_BOUND


@pytest.mark.parametrize("fieldnames", [["first_a", "value"], ["value", "first_a"]])
def test_emit_int_template_gives_the_encoders_bytes(tmp_path, fieldnames):
    """_emit's tuple route against csv.writer and json.dumps of the whole
    envelope, with sorted fieldnames and with unsorted ones, which the
    encoder sorts: exact ints beside bools, None, floats, ints past int64
    and a string that needs quoting."""
    rows = [(n * 7919 - 10**6, n) for n in range(6 * B + 7)]
    rows[B - 1] = (True, B - 1)                   # bool is an int, but not an exact one
    rows[B] = (B, None)
    rows[2 * B + 5] = (-(2**63) - 1, 2**64 + 1)   # exact ints beyond int64
    rows[4 * B - 1] = (0.1, 4 * B - 1)
    rows[4 * B] = ('a,"b"', 4 * B)
    params, dicts = {"k": 3}, [dict(zip(fieldnames, r)) for r in rows]
    for fmt in ("csv", "json"):
        path = tmp_path / f"x.{fmt}"
        cli._emit(argparse.Namespace(out=str(path), format=fmt), "mu-k-stats", "-",
                  params, iter(rows), fieldnames)
        want = (expected_csv(fieldnames, dicts) if fmt == "csv"
                else expected_json("mu-k-stats", "-", params, dicts))
        assert path.read_bytes() == want, fmt


# ---------------------------------------------------------------------------
# classify


def test_classify_empty_rows_artifacts_are_byte_exact(capsys, tmp_path):
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["classify", "--sset", "F{1,2,6}"])
    assert code == 0 and "multiplicative: no (checked to 100), witness (2, 3)" in out
    assert csv_bytes == expected_csv(["p", "case", "threshold", "least_excluded"], [])
    assert json_bytes == expected_json(
        "classify", "F{1,2,6}", {"multiplicative": False, "associative": False}, [])
    assert json_bytes.endswith(b'"rows": [], "schema_version": 1, "sset": "F{1,2,6}"}\n')


def test_classify_non_associative(capsys):
    code, out = run(capsys, ["classify", "--sset", "Q2"])
    assert code == 0
    assert "multiplicative: yes" in out
    assert "associative: no" in out
    assert "(16, 4, 2)" in out


def test_classify_prints_a_witness_past_the_digit_limit(capsys):
    code, out = run(capsys, ["classify", "--sset", "Q20000"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2:4] == ["associative: no",
                          "  witness triple (n, d, e) = (2^40000, 2^20000, 2^19999)"]
    assert lines[4] == "  p=2: not-upward-closed, least excluded exponent 20000"


@pytest.mark.parametrize("spec, line", [
    ("N", "associative: yes"),
    ("L2", "associative: yes"),
    ("Q2", "associative: no"),
    ("F{1,5}", "associative: no"),
    ("F{1,4}", "associative: no"),
    ("F{1,2,6}", "associative: no"),
    ("F{4,8}", "associative: yes (checked to 100)"),  # no 1: the bounded triple scan
])
def test_classify_states_the_scope_of_the_associativity_verdict(capsys, spec, line):
    code, out = run(capsys, ["classify", "--sset", spec])
    assert code == 0
    assert out.splitlines()[2] == line


def test_table_set_associativity_witness_beyond_the_scan_cap(capsys, tmp_path):
    # every n <= 20000 but 5005: multiplicativity fails at (2, 5005), which
    # gives the triple, while every triple up to 4096 is clean
    path = tmp_path / "no5005.txt"
    path.write_text("bound 20000\n" + "".join(f"{n}\n" for n in range(1, 20001) if n != 5005))
    spec = f"FILE:{path}"
    assert is_associative(parse_sset(spec)) == Verdict(False, None, (100200100, 10010, 2))
    code, out = run(capsys, ["classify", "--sset", spec])
    assert code == 0
    assert out.splitlines()[1:4] == [
        "multiplicative: no (checked to 20000), witness (2, 5005)",
        "associative: no",
        "  witness triple (n, d, e) = (100200100, 10010, 2)"]
    code, out = run(capsys, ["verify", "--sset", spec, "--suite", "inversion", "--n", "100"])
    assert code == 1
    assert out.startswith("FAIL inverse_of_I: ")
    assert "(witness triple (100200100, 10010, 2))" in out
    # the algebra suite reads the witness and the zero divisor at n ~ 1e8
    # and 5005^2 ~ 2.5e7 through their divisors only, not through tables
    # and, the set not being multiplicative, it has no mult_preserved row
    code, out = run(capsys, ["verify", "--sset", spec, "--suite", "algebra", "--n", "100"])
    assert code == 1
    assert out.splitlines()[3:] == [
        "FAIL associative: violated at n=100200100 by indicator functions: "
        "((f*g)*h)(100200100)=1 != (f*(g*h))(100200100)=0, "
        "witness triple (100200100, 10010, 2)",
        "ok   zero_divisors: indicator of 5005 squares to zero "
        "(checked exactly at n=25050025: its one candidate term)",
        "suite algebra: 4 passed, 1 failed"]


@pytest.mark.parametrize("text", [
    None,                       # no such file: unreadable
    "",                         # empty file: no bound header
    "1\n2\n",                   # no bound header
    "bound x\n1\n",
    "bound 0\n",
    "bound 10\n1\n-2\n",
    "bound 10\n1\n20\n",
    "bound 10\n1\n\u00b2\n",    # a superscript digit
    "bound 10\n1\n" + "1" * 25 + "\n",  # a member past int64
    "bound 10\n0\n1\n",
    "bound 10\n1\n11\n",
    "bound 10\n1\n12a\n",
    "bound 10\n1\n+5\n",
])
def test_file_set_parse_errors(capsys, tmp_path, text):
    path = tmp_path / "set.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ParseError):
        parse_sset(f"FILE:{path}")
    assert main(["classify", "--sset", f"FILE:{path}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_classify_full_set(capsys):
    code, out = run(capsys, ["classify", "--sset", "N"])
    assert code == 0
    assert "associative: yes" in out
    assert "all-in" in out


def test_classify_general_set(capsys):
    code, out = run(capsys, ["classify", "--sset", "F{1,2,3}"])
    assert code == 0
    assert "multiplicative: no" in out


def test_file_set_members_listed_twice_count_once(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("bound 10\n\n1\n 4 \n4\n2\n1\n")
    S = parse_sset(f"FILE:{path}")
    assert rho_table(S, 10).tolist() == [0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
    code, out = run(capsys, ["classify", "--sset", f"FILE:{path}"])
    assert code == 0
    assert "  explicit membership up to 10 (3 members)" in out.splitlines()


@pytest.mark.parametrize("argv", [["classify"], ["verify", "--suite", "all", "--n", "500"]])
def test_table_set_scans_once_per_command(capsys, tmp_path, monkeypatch, argv):
    # the multiplicativity verdict is kept on the set: classify, verify's
    # algebra suite and both inverses read one scan, and the associativity
    # verdict of a set that holds 1 runs no triple scan
    path = tmp_path / "l2.txt"
    members = rho_table(parse_sset("L2"), 5000).nonzero()[0]
    path.write_text("bound 5000\n" + "".join(f"{m}\n" for m in members))
    calls = {"coprime_product_failure": 0, "_assoc_scan": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(sets, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sets, name, counting)
    code, out = run(capsys, [argv[0], "--sset", f"FILE:{path}", *argv[1:]])
    assert code == 0
    assert calls == {"coprime_product_failure": 1, "_assoc_scan": 0}
    if argv[0] == "classify":
        assert out.splitlines()[2] == "associative: yes (checked to 5000)"
    else:  # multiplicative to its bound, so verify checks that f*g stays multiplicative
        row = "ok   mult_preserved: f*g multiplicative on coprime products <= 500"
        assert row in out.splitlines()


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_kfull(capsys):
    code, out = run(capsys, ["verify", "--sset", "L2", "--n", "400"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_identities_full_set(capsys):
    code, out = run(capsys, ["verify", "--sset", "N", "--suite", "identities",
                             "--n", "400"])
    assert code == 0
    assert "FAIL" not in out


def test_verify_reports_associativity_failure(capsys):
    code, out = run(capsys, ["verify", "--sset", "Q2", "--suite", "algebra",
                             "--n", "200"])
    assert code == 1
    assert "FAIL" in out
    assert "16" in out  # witness appears in the failure detail


def test_verify_inversion_fails_non_associative(capsys):
    code, out = run(capsys, ["verify", "--sset", "Q3", "--suite", "inversion",
                             "--n", "200"])
    assert code == 1


def test_verify_size_cap(capsys):
    code, _ = run(capsys, ["verify", "--sset", "N", "--n", "200000"])
    assert code == 2


# (check, ok, detail) rows, pinned: L2 passes every suite, Q2 fails
# associativity with a detail that holds commas, so CSV quotes it
VERIFY_GOLDEN = {
    ("L2", "all", 400): (0, [
        ("mobius_sum", True, "sum of mu_S over divisors equals rho_S to 400"),
        ("mu_bound", True, "|mu_S| <= tau to 400"),
        ("tau_identity", True, "both square-divisor forms match to 400"),
        ("sigma_identity", True, "both square-divisor forms match to 400"),
        ("phi_forms", True, "mu_S*E and rho_S*phi agree to 400"),
        ("commutative", True, "f*g = g*f to 400"),
        ("distributive", True, "f*(g+h) = f*g + f*h to 400"),
        ("identity_element", True, "f*delta = f to 400"),
        ("associative", True, "(f*g)*h = f*(g*h) to 200"),
        ("zero_divisors", True,
         "indicator of 2 squares to zero (checked exactly at n=4: its one candidate term)"),
        ("mult_preserved", True, "f*g multiplicative on coprime products <= 400"),
        ("inverse_of_I", True, "I^(-1) * I = delta to 400"),
        ("inverse_random_unit", True, "f^(-1) * f = delta to 400 for a seeded unit"),
    ]),
    ("Q2", "algebra", 200): (1, [
        ("commutative", True, "f*g = g*f to 200"),
        ("distributive", True, "f*(g+h) = f*g + f*h to 200"),
        ("identity_element", True, "f*delta = f to 200"),
        ("associative", False, "violated at n=16 by indicator functions: "
         "((f*g)*h)(16)=0 != (f*(g*h))(16)=1, witness triple (16, 4, 2)"),
        ("zero_divisors", True,
         "indicator of 4 squares to zero (checked exactly at n=16: its one candidate term)"),
        ("mult_preserved", True, "f*g multiplicative on coprime products <= 200"),
    ]),
}


@pytest.mark.parametrize("spec, suite, n", sorted(VERIFY_GOLDEN))
def test_verify_artifacts_are_byte_exact(capsys, tmp_path, spec, suite, n):
    status, checks = VERIFY_GOLDEN[spec, suite, n]
    rows = [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["verify", "--sset", spec, "--suite", suite, "--n", str(n)])
    failed = sum(not ok for _, ok, _ in checks)
    assert code == status
    assert out == "".join(f"{'ok  ' if ok else 'FAIL'} {c}: {d}\n" for c, ok, d in checks) + (
        f"suite {suite}: {len(checks) - failed} passed, {failed} failed\n")
    assert csv_bytes == expected_csv(["check", "ok", "detail"], rows)
    assert json_bytes == expected_json("verify", spec, {"suite": suite, "n": n}, rows)


def corrupt_entry(monkeypatch, name, n, value=None, call=None):
    """Make the table function name return its table with entry n raised by
    1 (or set to value) when cli calls it: on every call, or only on cli's
    call number call. It is patched in the module that defines it, which
    verify imports at call time, and in cli when cli binds it at import;
    the library's own calls (tau_S_table reads mu_set_table) stay exact."""
    orig = getattr(cli, name, None) or getattr(sconv, name)
    calls = []

    def corrupted(*args):
        out = orig(*args)
        if sys._getframe(1).f_globals["__name__"] != cli.__name__:
            return out
        calls.append(1)
        if call is None or len(calls) == call:
            out[n] = out[n] + 1 if value is None else value
        return out

    monkeypatch.setattr(sys.modules[orig.__module__], name, corrupted)
    if hasattr(cli, name):
        monkeypatch.setattr(cli, name, corrupted)


IDENTITY_ROWS = [
    ("mobius_sum", True, "sum of mu_S over divisors equals rho_S to 400"),
    ("mu_bound", True, "|mu_S| <= tau to 400"),
    ("tau_identity", True, "both square-divisor forms match to 400"),
    ("sigma_identity", True, "both square-divisor forms match to 400"),
    ("phi_forms", True, "mu_S*E and rho_S*phi agree to 400"),
]


def with_rows(rows, **changed):
    return [(c, False, changed[c]) if c in changed else (c, ok, d) for c, ok, d in rows]


# each failing row of verify, pinned by corrupting one entry of one table
VERIFY_FAILURES = {
    "tau_via_rho": (
        ("tau_S_table_via_rho", 12, {}), "identities", "400",
        with_rows(IDENTITY_ROWS, tau_identity="first failure at n=12: 4 vs 5")),
    "sigma_via_rho": (
        ("sigma_S_table_via_rho", 18, {}), "identities", "400",
        with_rows(IDENTITY_ROWS, sigma_identity="first failure at n=18")),
    "phi_table": (
        ("phi_S_table", 30, {}), "identities", "400",
        with_rows(IDENTITY_ROWS, phi_forms="first failure at n=30")),
    # the one mu_S table feeds mobius_sum, mu_bound and phi_forms
    "mu_table": (
        ("mu_set_table", 6, {"value": 100}), "identities", "400",
        with_rows(IDENTITY_ROWS, mobius_sum="first failure (6, 99, 0)",
                  mu_bound="first failure at n=6", phi_forms="first failure at n=6")),
    # calls of s_convolve_table in the algebra suite: 1 f*g, 2 g*f, 3 f*(g+h),
    # 4 f*h, 5 f*delta (distributive and associative read prefixes of call 1)
    "commutative": (
        ("s_convolve_table", 40, {"call": 2}), "algebra", "400",
        [("commutative", False, "first failure at n=40")]),
    "distributive": (
        ("s_convolve_table", 7, {"call": 3}), "algebra", "400",
        [("distributive", False, "first failure at n=7")]),
    "identity_element": (
        ("s_convolve_table", 1, {"call": 5}), "algebra", "400",
        [("identity_element", False, "first failure at n=1")]),
    "inverse_at_8": (
        ("s_inverse", 8, {}), "inversion", "400",
        [("inverse_of_I", False, "first failure at n=8"),
         ("inverse_random_unit", False, "first failure at n=8")]),
    # g(1) = 2 breaks (g*f)(1) and, through d = 1, every later n with
    # f(n) != 0: the first such n >= 2 is reported ahead of n = 1 (the
    # seeded unit has f(2) = -6)
    "inverse_at_1": (
        ("s_inverse", 1, {}), "inversion", "400",
        [("inverse_of_I", False, "first failure at n=2"),
         ("inverse_random_unit", False, "first failure at n=2")]),
    # n = 1 is reported only when nothing fails from n = 2 on
    "inverse_at_1_only": (
        ("s_inverse", 1, {}), "inversion", "1",
        [("inverse_of_I", False, "first failure at n=1"),
         ("inverse_random_unit", False, "first failure at n=1")]),
}


@pytest.mark.parametrize("case", sorted(VERIFY_FAILURES))
def test_verify_failure_details(capsys, tmp_path, monkeypatch, case):
    (name, n, opts), suite, bound, want = VERIFY_FAILURES[case]
    corrupt_entry(monkeypatch, name, n, **opts)
    path = tmp_path / "out.csv"
    code, out = run(capsys, ["verify", "--sset", "L2", "--suite", suite, "--n", bound,
                             "--out", str(path)])
    rows = {c: (ok, d) for c, ok, d in csv.reader(io.StringIO(path.read_text()))}
    assert code == 1
    for check, ok, detail in want:
        assert f"{'ok  ' if ok else 'FAIL'} {check}: {detail}\n" in out
        assert rows[check] == (str(ok), detail)
    if suite == "identities":
        assert out.count("\n") == len(want) + 1


# ---------------------------------------------------------------------------
# analysis commands


def test_asymp_artifact_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out = run(capsys, ["asymp", "--sset", "Q2", "--fn", "sigma",
                                 "--n", "20000", "--out", str(path),
                                 "--format", "json"])
        assert code == 0
        assert "ratio" in out
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert set(obj) == {"schema_version", "command", "sset", "params", "rows"}
    assert obj["params"]["x_max"] == 20000
    assert set(obj["rows"][0]) == {"x", "partial_sum", "main_term", "ratio",
                                   "remainder"}


def test_asymp_csv(capsys, tmp_path):
    path = tmp_path / "r.csv"
    code, _ = run(capsys, ["asymp", "--sset", "N", "--fn", "tau",
                           "--n", "10000", "--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,partial_sum,main_term,ratio,remainder"
    assert len(lines) > 2


def test_asymp_artifacts_are_byte_exact(capsys, tmp_path):
    # float-valued rows: main_term, ratio and remainder go out as repr
    rep = asymptotics.asymptotic_report(parse_sset("Q2"), "sigma_S", 20000)
    rows = rep.rows()
    assert all(isinstance(r["ratio"], float) for r in rows)
    code, _, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["asymp", "--sset", "Q2", "--fn", "sigma", "--n", "20000"])
    assert code == 0
    assert csv_bytes == expected_csv(["x", "partial_sum", "main_term", "ratio", "remainder"],
                                     rows)
    assert json_bytes == expected_json(
        "asymp", "Q2", {"fn": "sigma_S", "x_max": 20000, "samples": 24,
                        "const_err": rep.const_err, "fit_exponent": rep.fit_exponent,
                        "fit_residual": rep.fit_residual}, rows)


def test_asymp_samples_cap(capsys):
    code, _ = run(capsys, ["asymp", "--sset", "N", "--fn", "tau", "--n", "1000",
                           "--samples", "1001"])
    assert code == 2
    code, _ = run(capsys, ["asymp", "--sset", "N", "--fn", "tau", "--n", "1000",
                           "--samples", "1000"])
    assert code == 0


def test_maxorder_tau(capsys):
    code, out = run(capsys, ["maxorder", "--sset", "N", "--mode", "tau",
                             "--k", "100"])
    assert code == 0
    assert "0.85" in out  # ratio at k = 100


def test_maxorder_tau_artifacts_are_byte_exact(capsys, tmp_path):
    rows = [{"k": 100, "ratio": asymptotics.tau_maximal_ratio(100), "limit": math.log(2)}]
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["maxorder", "--sset", "N", "--mode", "tau", "--k", "100"])
    assert code == 0 and out == "primorial ratio at k=100: 0.853206 (tends to ln 2 = 0.693147)\n"
    assert csv_bytes == expected_csv(["k", "ratio", "limit"], rows)
    assert json_bytes == expected_json("maxorder", "N", {"mode": "tau", "k": 100}, rows)


def test_maxorder_tau_sieve_cap(capsys):
    # the primorial sieve bound for k = 1e7 is about 1.9e8, above the table limit
    code, _ = run(capsys, ["maxorder", "--sset", "N", "--mode", "tau", "--k", "10000000"])
    assert code == 3


def test_maxorder_sigma_uniform(capsys):
    code, out = run(capsys, ["maxorder", "--sset", "Q2", "--mode", "sigma",
                             "--k", "6"])
    assert code == 0
    assert "1.6456" in out  # the limsup constant e^gamma / zeta(4)


MAXORDER_FIELDS = ["k", "t", "a", "log_n", "sigma_over_n", "ratio"]
MAXORDER_HEAD = "  k   t    a        log_n    sigma/n      ratio\n"
# stdout, constant and rows pinned to the last digit, for a k-free and an s = 1 set
MAXORDER_GOLDEN = {
    "Q2": (
        "limsup constant for Q2: 1.6456012054 (err <= 1.81e-15)\n"
        "uniform s=2: closed form 1.6456012054, |difference| = 1.27e-11 <= 1.44e-09\n"
        + MAXORDER_HEAD +
        "  2   3    -        8.931   3.809524   1.739917\n"
        "  3   3    -       19.671   4.988201   1.674369\n"
        "  4   3    -       48.514   6.226323   1.603956\n"
        "  5   3    -      130.227   7.590475   1.558849\n"
        "  6   3    -      380.311   9.097215   1.531263\n"
        "  7   3    -     1064.152  10.580084   1.517961\n"
        "  8   3    -     2927.937  12.064373   1.511437\n",
        {"constant": 1.6456012053655584, "constant_err": 1.805388752999101e-15,
         "epsilon": 0.1, "k": 8, "mode": "sigma", "uniform_s": 2},
        [(2, 8.930626469173578, 3.8095238095238098, 1.7399165192027597),
         (3, 19.671123422656144, 4.988200653835326, 1.6743694454033475),
         (4, 48.51403028336119, 6.226323173940714, 1.6039564376338586),
         (5, 130.2271626466129, 7.5904745291694855, 1.558849360476224),
         (6, 380.3106536048487, 9.097215240267687, 1.5312629119160024),
         (7, 1064.1519011471255, 10.580084299079715, 1.5179605966863257),
         (8, 2927.9366966384323, 12.06437299739315, 1.5114372971725398)]),
    "L2": (
        "limsup constant for L2: 1.0827621933 (err <= 1.36e-15)\n"
        "uniform s=1: closed form 1.0827621933, |difference| = 1.98e-14 <= 6.58e-10\n"
        + MAXORDER_HEAD +
        "  2   3    -        5.347   2.742857   1.636007\n"
        "  3   3    -       16.088   3.591504   1.292815\n"
        "  4   3    -       44.931   4.482953   1.178138\n"
        "  5   3    -      126.644   5.465142   1.128840\n"
        "  6   3    -      376.727   6.549995   1.104269\n"
        "  7   3    -     1060.568   7.617661   1.093461\n"
        "  8   3    -     2924.353   8.686349   1.088402\n",
        {"constant": 1.0827621932609246, "constant_err": 1.362804778461107e-15,
         "epsilon": 0.1, "k": 8, "mode": "sigma", "uniform_s": 1},
        [(2, 5.3471075307174685, 2.742857142857143, 1.6360071034244228),
         (3, 16.087604484200035, 3.591504470761435, 1.2928153475004454),
         (4, 44.93051134490508, 4.482952685237314, 1.1781379029292371),
         (5, 126.64364370815677, 5.46514166100203, 1.1288402967859756),
         (6, 376.7271346663926, 6.549994972992735, 1.1042690084452136),
         (7, 1060.5683822086694, 7.6176606953373955, 1.093460821217542),
         (8, 2924.353177699976, 8.686348558123068, 1.0884018432365379)]),
}


@pytest.mark.parametrize("spec", sorted(MAXORDER_GOLDEN))
def test_maxorder_sigma_artifacts_are_byte_exact(capsys, tmp_path, spec):
    stdout, params, data = MAXORDER_GOLDEN[spec]
    rows = [{"k": k, "t": 3, "a": None, "log_n": log_n, "sigma_over_n": son, "ratio": r}
            for k, log_n, son, r in data]
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["maxorder", "--sset", spec, "--mode", "sigma", "--k", "8"])
    assert code == 0 and out == stdout
    assert csv_bytes == expected_csv(MAXORDER_FIELDS, rows)
    assert json_bytes == expected_json("maxorder", spec, params, rows)
    with mpmath.workdps(30):  # the pinned constant holds within its pinned bound
        want = mpmath.exp(mpmath.euler) / mpmath.zeta(2 * params["uniform_s"])
        assert abs(mpmath.mpf(params["constant"]) - want) <= params["constant_err"]


@pytest.mark.parametrize("spec, evaluations", [("Q2", [(2.0, 1e-9), (4.0, 1e-9)]),
                                               ("L2", [(2.0, 1e-9)])])
def test_maxorder_sigma_certifies_each_full_zeta_once(capsys, monkeypatch, spec, evaluations):
    # witnesses for k = 2..8 share zeta(2); a k-free set adds its zeta(2s)
    seen = []
    fresh = mobius.zeta_S

    def counting(S, z, tol=1e-9):
        seen.append((S.spec, z, tol))
        return fresh(S, z, tol)

    for mod in (mobius, asymptotics):
        monkeypatch.setattr(mod, "zeta_S", counting)
    mobius._zeta_full.cache_clear()
    code, _ = run(capsys, ["maxorder", "--sset", spec, "--mode", "sigma", "--k", "8"])
    assert code == 0
    assert sorted(seen) == [("N", z, tol) for z, tol in evaluations]


def test_mu_k_stats(capsys):
    code, out = run(capsys, ["mu-k-stats", "--k", "2", "--a-max", "100"])
    assert code == 0
    assert "-1" in out and "0" in out and "1" in out


def test_mu_k_stats_artifacts_are_byte_exact(capsys, tmp_path):
    stats = mobius.mu_k_statistics(3, 100)
    rows = [{"value": v, "first_a": stats.first_occurrence[v]} for v in stats.values]
    assert len(rows) > 10  # stdout lists ten and counts the rest
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["mu-k-stats", "--k", "3", "--a-max", "100"])
    assert code == 0 and f"  ... {len(rows) - 10} more\n" in out
    assert csv_bytes == expected_csv(["value", "first_a"], rows)
    assert json_bytes == expected_json("mu-k-stats", "-", {"k": 3, "a_max": 100}, rows)


def test_closed_stdout_exits_quietly():
    # a reader that stops after one line closes the pipe while eval still writes
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "sconv", "eval", "--sset", "N", "--fn",
                             "sigma", "--range", "1..200000"], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"1 1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_unknown_command_usage_error(capsys):
    for argv in (["frobnicate"], ["eval", "--fn", "tau", "--n", "5", "--workers", "2"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
