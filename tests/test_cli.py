"""End-to-end tests of the command line front end.

Everything goes through main(argv) so exit codes and stdout are checked
in-process; artifact files land in tmp_path.
"""

import csv
import io
import json

import pytest

from sconv.cli import SCHEMA_VERSION, main
from sconv.divisor_functions import sigma_S_table
from sconv.sets import parse_sset


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
                 ["mu-k-stats", "--k", "2", "--a-max", "0"],
                 ["maxorder", "--sset", "Q2", "--mode", "sigma", "--tol", "-1"]):
        code, _ = run(capsys, argv)
        assert code == 2, argv


def test_eval_range_cap(capsys):
    for argv in (["eval", "--fn", "tau", "--range", "1..20000000"],
                 ["mu-k-stats", "--k", "2", "--a-max", "1000001"]):
        code, _ = run(capsys, argv)
        assert code == 3, argv


def test_eval_bad_sset(capsys):
    code, _ = run(capsys, ["eval", "--sset", "junk", "--fn", "tau", "--n", "5"])
    assert code == 2


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


def test_eval_range_artifacts_are_byte_exact(capsys, tmp_path):
    # more rows than one write block, so the streamed JSON joins blocks;
    # values must be those of the library table
    hi = 9000
    table = sigma_S_table(parse_sset("L2"), hi).values
    rows = [{"n": n, "value": int(table[n])} for n in range(1, hi + 1)]
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["eval", "--sset", "L2", "--fn", "sigma", "--range", f"1..{hi}"])
    assert code == 0
    assert out == "".join(f"{r['n']} {r['value']}\n" for r in rows)
    assert csv_bytes == expected_csv(["n", "value"], rows)
    assert json_bytes == expected_json(
        "eval", "L2", {"fn": "sigma", "lo": 1, "hi": hi, "k": None}, rows)


def test_eval_single_value_artifacts_are_byte_exact(capsys, tmp_path):
    code, out, csv_bytes, json_bytes = artifacts(
        capsys, tmp_path, ["eval", "--sset", "Q2", "--fn", "sigma", "--n", "16"])
    rows = [{"n": 16, "value": 27}]  # 1+2+8+16, d=4 dropped
    assert code == 0 and out == "27\n"
    assert csv_bytes == b"n,value\r\n16,27\r\n" == expected_csv(["n", "value"], rows)
    assert json_bytes == expected_json(
        "eval", "Q2", {"fn": "sigma", "lo": 16, "hi": 16, "k": None}, rows)


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


def test_classify_full_set(capsys):
    code, out = run(capsys, ["classify", "--sset", "N"])
    assert code == 0
    assert "associative: yes" in out
    assert "all-in" in out


def test_classify_general_set(capsys):
    code, out = run(capsys, ["classify", "--sset", "F{1,2,3}"])
    assert code == 0
    assert "multiplicative: no" in out


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


def test_maxorder_tau_sieve_cap(capsys):
    # the primorial sieve bound for k = 1e7 is about 1.9e8, above the table limit
    code, _ = run(capsys, ["maxorder", "--sset", "N", "--mode", "tau", "--k", "10000000"])
    assert code == 3


def test_maxorder_sigma_uniform(capsys):
    code, out = run(capsys, ["maxorder", "--sset", "Q2", "--mode", "sigma",
                             "--k", "6"])
    assert code == 0
    assert "1.6456" in out  # the limsup constant e^gamma / zeta(4)


def test_mu_k_stats(capsys):
    code, out = run(capsys, ["mu-k-stats", "--k", "2", "--a-max", "100"])
    assert code == 0
    assert "-1" in out and "0" in out and "1" in out


def test_unknown_command_usage_error(capsys):
    for argv in (["frobnicate"], ["eval", "--fn", "tau", "--n", "5", "--workers", "2"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
