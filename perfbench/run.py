"""Benchmark of the sconv command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The CLI under src/ is driven the
way users run it: a fresh interpreter per command, one child at a time from
this single parent (a closed loop with one client), so every call pays
interpreter start-up and cold caches. Workloads are in workloads.py.

--trace 0 gives the end-to-end metrics:
    setup_s      median time to start python and `import sconv` (numpy
                 included), sampled before and between passes
    wall_s       median wall time of one pass over the workload's commands
    cpu_s        median user + system time of the children in a pass
    peak_rss_mb  median over passes of the largest per-child peak RSS
A first warm-up pass is discarded. Per-child rusage comes from os.wait4:
RUSAGE_CHILDREN would report the largest child so far, not this one.

--trace 1 alternates plain passes with passes run through traced_cli.py and
reports the per-layer metrics of layers.py plus the tracing overhead.

Every command counts as attempted. It fails when its exit code is not the
expected one, when oracle.py rejects its output, or when its stdout or
--out artifact differs by a byte from the command's first run (traced runs
included). Passes start only while a pass of median length would end within
--seconds; a warm-up and one measured pass (trace: one plain and one traced
pass) always run. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
RUN_LIMIT_S = 170.0       # children are killed past this point of a run
SETUP_SAMPLES_FIRST = 3   # import timings before the first pass
SETUP_SAMPLES_PER_PASS = 1

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
# numpy's BLAS pool would otherwise start one thread per core in every child
ENV.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    rc: int


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    elapsed: float          # including oracle checks, for the deadline
    spans: list | None      # one span record per command when traced


class Bench:
    def __init__(self, workload: workloads.Workload, workdir: Path, started: float):
        self.workload = workload
        self.workdir = workdir
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, tuple] = {}
        self.verdicts: dict[tuple, str | None] = {}

    def spawn(self, argv: list[str], stdout: Path, stderr: Path) -> Child:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
            limit = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # a child's ru_maxrss starts from this process's peak, inherited at exec
        if usage.ru_maxrss <= own_kb:
            sys.exit(f"benchmark process peak RSS {own_kb} KiB hides the child's own")
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     proc.returncode)

    def import_time(self) -> float:
        out = self.workdir / "import.out"
        child = self.spawn([PY, "-c", "import sconv, sys; sys.stdout.write(sconv.__file__)"],
                           out, self.workdir / "import.err")
        if child.rc != 0 or not Path(out.read_text()).is_relative_to(SRC):
            sys.exit(f"cannot import sconv from {SRC}; see {self.workdir / 'import.err'}")
        return child.wall

    def run_command(self, idx: int, cmd: workloads.Command, traced: bool):
        stdout = self.workdir / f"{idx}.out"
        stderr = self.workdir / f"{idx}.err"
        spans_path = self.workdir / f"{idx}.spans.json"
        prefix = [PY, str(HERE / "traced_cli.py"), str(spans_path)] if traced else [PY, "-m", "sconv"]
        spans_path.unlink(missing_ok=True)
        child = self.spawn(prefix + list(cmd.argv), stdout, stderr)
        self.attempted += 1
        reason = self.check(idx, cmd, child, stdout)
        if reason:
            tail = stderr.read_text(errors="replace")[-400:]
            self.failures.append(f"{' '.join(cmd.argv)}{' (traced)' if traced else ''}: "
                                 f"{reason}{' | stderr: ' + tail if tail else ''}")
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans["stdout_bytes"] = stdout.stat().st_size
            spans["artifact_bytes"] = Path(cmd.artifact).stat().st_size if cmd.artifact else 0
        return child, spans

    def check(self, idx: int, cmd: workloads.Command, child: Child, stdout: Path) -> str | None:
        if child.rc != cmd.expect_exit:
            return f"exit code {child.rc}, expected {cmd.expect_exit}"
        try:
            digests = tuple(_digest(p) for p in (stdout, cmd.artifact) if p)
        except OSError as exc:
            return f"missing output: {exc}"
        first = self.digests.setdefault(idx, digests)
        if digests != first:
            return "stdout or artifact differs from the command's first run"
        key = (idx, digests)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = cmd.check(str(stdout), cmd.artifact)
            except (ValueError, OSError) as exc:
                self.verdicts[key] = f"unparsable output: {exc}"
        return self.verdicts[key]

    def run_pass(self, traced: bool = False) -> Pass:
        t0 = time.perf_counter()
        children, records = [], []
        for idx, cmd in enumerate(self.workload.commands):
            child, spans = self.run_command(idx, cmd, traced)
            children.append(child)
            records.append(spans)
        return Pass(wall=sum(c.wall for c in children), cpu=sum(c.cpu for c in children),
                    rss_mb=max(c.rss_mb for c in children),
                    elapsed=time.perf_counter() - t0,
                    spans=records if traced and None not in records else None)


def _digest(path) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").digest()


def _time_left(deadline: float, durations: list[float]) -> bool:
    """Whether a pass of typical (median) duration still ends by the deadline."""
    return time.monotonic() + statistics.median(durations) <= deadline


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n}; ten samples beyond a percentile need n >= 11)"
    k = n - 10
    return f"p{100 * k / n:.1f} = {sorted(samples)[k - 1]:.4f} s (10 beyond, n={n})"


def measure_end_to_end(bench: Bench, deadline: float) -> dict[str, float]:
    setup = [bench.import_time() for _ in range(SETUP_SAMPLES_FIRST)]
    warm = bench.run_pass()
    passes: list[Pass] = []
    while True:
        passes.append(bench.run_pass())
        setup += [bench.import_time() for _ in range(SETUP_SAMPLES_PER_PASS)]
        if not _time_left(deadline, [p.elapsed for p in [warm, *passes]]):
            break
    walls = [p.wall for p in passes]
    print(f"passes: warm-up {warm.wall:.4f} s (discarded); measured "
          + ", ".join(f"{w:.4f}" for w in walls) + " s")
    print(f"samples: setup_s n={len(setup)}, wall_s/cpu_s/peak_rss_mb n={len(passes)}")
    print(f"wall_s tail: {tail_percentile(walls)}")
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


def measure_layers(bench: Bench, deadline: float) -> dict[str, float]:
    bench.import_time()
    plain: list[Pass] = []
    traced: list[Pass] = []
    while True:
        plain.append(bench.run_pass())
        traced.append(bench.run_pass(traced=True))
        if not _time_left(deadline, [p.elapsed + t.elapsed for p, t in zip(plain, traced)]):
            break
    runs = [p for p in traced if p.spans is not None]
    if not runs:
        sys.exit("no traced pass wrote its spans")
    per_pass = []
    for p in runs:
        m = layers.layer_metrics(p.spans)
        m["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in p.spans)
        m["cli.artifact_bytes"] = sum(r["artifact_bytes"] for r in p.spans)
        m["trace.wall_s"] = p.wall
        m["trace.unaccounted_s"] = p.wall - sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
        per_pass.append(m)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if layers.is_count(name):
            if len(set(values)) > 1:
                print(f"warning: count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.untraced_wall_s"] = statistics.median(p.wall for p in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    print(f"passes: {len(plain)} plain, {len(runs)} traced; outputs compared byte for byte")
    return metrics


def declared_metrics(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sconv" / "__init__.py").is_file():
        print(f"error: no sconv sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, str(workdir))
        print(f"workload {wl.name}, seed {args.seed}: "
              + ", ".join(f"{slot} {spec}" for slot, spec in wl.sets.items()))
        for cmd in wl.commands:
            print("  sconv " + " ".join(cmd.argv))
        bench = Bench(wl, workdir, started)
        deadline = started + args.seconds
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(bench, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} not matched in BENCHMARK.json",
              file=sys.stderr)
        return 2
    failed = len(bench.failures)
    for line in bench.failures[:5]:
        print(f"FAILED {line}")
    print(f"failed_frac: {failed / bench.attempted:.4f} ({failed} of {bench.attempted} commands)")
    for name in sorted(values):
        print(f"  {name:<45} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
