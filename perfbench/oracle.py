"""Correctness checks for sconv CLI outputs that never import sconv.

Every reference value is recomputed here from first principles: trial
division, brute-force divisor sums, the recursion for a convolution inverse
and the closed form e^gamma / zeta(2s) with zeta at even integers from
powers of pi. Each check returns None when the output is right and a short
reason when it is not; output too malformed to parse raises ValueError,
which the caller also counts as a failure. Large outputs are streamed, so
the benchmark process stays small (its peak RSS would otherwise leak into
the per-child figures).
"""

from __future__ import annotations

import math
import re

EULER_GAMMA = 0.5772156649015329
ZETA_EVEN = {2: math.pi ** 2 / 6, 4: math.pi ** 4 / 90,
             6: math.pi ** 6 / 945, 8: math.pi ** 8 / 9450}
PRINTED_DIGITS = 10  # maxorder prints the constant with 10 decimals


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def in_set(spec: str, m: int) -> bool:
    """Membership of m in the set named by spec (N, 1, Qk, Lk, P{p,...})."""
    exps = factor(m)
    if spec == "N":
        return True
    if spec == "1":
        return m == 1
    if spec[0] == "Q":
        return all(a < int(spec[1:]) for a in exps.values())
    if spec[0] == "L":
        return all(a >= int(spec[1:]) for a in exps.values())
    if spec.startswith("P{"):
        allowed = {int(p) for p in spec[2:-1].split(",")}
        return set(exps) <= allowed
    raise ValueError(f"no reference membership for {spec!r}")


def s_divisors(spec: str, n: int) -> list[int]:
    return [d for d in divisors(n) if in_set(spec, math.gcd(d, n // d))]


def tau_s(spec: str, n: int) -> int:
    return len(s_divisors(spec, n))


def sigma_s(spec: str, n: int) -> int:
    return sum(s_divisors(spec, n))


def uniform_s(spec: str) -> int:
    """Least excluded exponent, the same at every prime for these sets."""
    if spec[0] == "Q":
        return int(spec[1:])
    if spec == "1" or spec[0] == "L":
        return 1
    raise ValueError(f"{spec!r} has no uniform least excluded exponent")


class InverseOfOne:
    """Inverse of the constant-1 function under the S-convolution, by the
    recursion g(1) = 1, g(n) = -sum of g(d) over S-divisors d < n of n."""

    def __init__(self, spec: str):
        self.spec = spec
        self.memo = {1: 1}

    def __call__(self, n: int) -> int:
        if n not in self.memo:
            self.memo[n] = -sum(self(d) for d in s_divisors(self.spec, n) if d < n)
        return self.memo[n]


# ---------------------------------------------------------------------------
# per-command checks

def check_asymp(path: str, spec: str, fn: str) -> str | None:
    """Partial sums in the first two table rows equal brute-force sums."""
    f = tau_s if fn == "tau" else sigma_s
    rows = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 5 and parts[0].isdigit() and parts[1].isdigit():
                rows.append((int(parts[0]), int(parts[1])))
                if len(rows) == 2:
                    break
    if len(rows) < 2:
        return "fewer than two table rows"
    for x, got in rows:
        want = sum(f(spec, n) for n in range(1, x + 1))
        if got != want:
            return f"partial sum at x={x} is {got}, brute force gives {want}"
    return None


_CONST = re.compile(r"limsup constant for \S+: (\S+) \(err <= (\S+)\)")
_UNIFORM = re.compile(r"uniform s=(\d+):")


def check_maxorder(path: str, spec: str) -> str | None:
    """The printed constant equals e^gamma / zeta(2s) within the printed err."""
    with open(path) as fh:
        text = fh.read()
    m = _CONST.search(text)
    u = _UNIFORM.search(text)
    if m is None or u is None:
        return "constant or uniform-s line missing"
    s = uniform_s(spec)
    if int(u.group(1)) != s:
        return f"reported uniform s={u.group(1)}, expected {s}"
    value, err = float(m.group(1)), float(m.group(2))
    closed = math.exp(EULER_GAMMA) / ZETA_EVEN[2 * s]
    slack = err + 0.5 * 10.0 ** -PRINTED_DIGITS
    if abs(value - closed) > slack:
        return f"constant {value} differs from e^gamma/zeta({2 * s}) = {closed} by more than {slack:.3g}"
    return None


VERIFY_CHECKS = ("mobius_sum", "mu_bound", "tau_identity", "sigma_identity", "phi_forms",
                 "commutative", "distributive", "identity_element", "associative",
                 "zero_divisors", "mult_preserved", "inverse_of_I", "inverse_random_unit")
BY_DESIGN_FAILS = ("associative", "inverse_of_I")


def check_verify(path: str, associative: bool) -> str | None:
    """Every check passes on an associative set; on a non-associative one
    exactly the associativity and inverse checks fail, and the inverse
    suite stops after its first check."""
    results = {}
    with open(path) as fh:
        for line in fh:
            m = re.match(r"(ok  |FAIL) (\w+):", line)
            if m:
                results[m.group(2)] = m.group(1) == "ok  "
    if associative:
        want = {c: True for c in VERIFY_CHECKS}
    else:
        want = {c: c not in BY_DESIGN_FAILS for c in VERIFY_CHECKS if c != "inverse_random_unit"}
    if results != want:
        wrong = sorted(set(results.items()) ^ set(want.items()))
        return f"verify verdicts differ from the expected set at {wrong}"
    return None


def check_eval_mu(path: str, spec: str, hi: int, samples: list[int]) -> str | None:
    """Stdout rows 'n value' cover 1..hi; sampled rows match the recursion."""
    g = InverseOfOne(spec)
    want = set(samples)
    n_rows = 0
    with open(path) as fh:
        for line in fh:
            n_txt, v_txt = line.split()
            n_rows += 1
            if int(n_txt) != n_rows:
                return f"row {n_rows} is labelled n={n_txt}"
            if n_rows in want and int(v_txt) != g(n_rows):
                return f"mu at n={n_rows} is {v_txt}, recursion gives {g(n_rows)}"
    return None if n_rows == hi else f"{n_rows} rows, expected {hi}"


_JSON_ROW = re.compile(rb'\{"n": (\d+), "value": (-?\d+)\}')


def _rows_space(path):
    with open(path) as fh:
        for line in fh:
            n, v = line.split()
            yield int(n), int(v)


def _rows_csv(path):
    with open(path) as fh:
        if fh.readline().strip() != "n,value":
            raise ValueError("CSV header is not 'n,value'")
        for line in fh:
            n, v = line.split(",")
            yield int(n), int(v)


def _rows_json(path):
    with open(path, "rb") as fh:
        if not fh.read(20).startswith(b'{"command": "eval"'):
            raise ValueError("JSON artifact does not start with its command")
        buf = b""
        while chunk := fh.read(1 << 20):
            buf += chunk
            end = 0
            for m in _JSON_ROW.finditer(buf):
                end = m.end()
                yield int(m.group(1)), int(m.group(2))
            buf = buf[end:]


def _check_rows(rows, hi: int, want: dict[int, int]) -> str | None:
    count = 0
    for n, v in rows:
        count += 1
        if n != count:
            return f"row {count} is labelled n={n}"
        if n in want and v != want[n]:
            return f"sigma_S at n={n} is {v}, brute force gives {want[n]}"
    return None if count == hi else f"{count} rows, expected {hi}"


def check_table_export(stdout_path: str, artifact_path: str, fmt: str, spec: str,
                       hi: int, samples: list[int]) -> str | None:
    """Stdout and artifact both list n = 1..hi, and sigma_S matches brute
    force at the sampled rows in each."""
    want = {n: sigma_s(spec, n) for n in samples}
    artifact_rows = _rows_csv(artifact_path) if fmt == "csv" else _rows_json(artifact_path)
    for label, rows in (("stdout", _rows_space(stdout_path)), ("artifact", artifact_rows)):
        bad = _check_rows(rows, hi, want)
        if bad:
            return f"{label}: {bad}"
    return None
