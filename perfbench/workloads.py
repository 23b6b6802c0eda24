"""The four benchmark workloads, built from a seed.

Each workload is a list of sconv CLI commands. The seed only picks set
instances from fixed families of same-shape sets (same code path, similar
cost) and the sample rows the oracle checks; the program sees nothing but
the resulting command lines.

    asymp-tables     dense sieve stack: multiplicative_table, rho/mu
                     tables, zeta_S and its derivative at z = 2. No
                     pointwise convolution.
    maxorder-euler   per-prime Euler products in zeta_S (witness_sequence
                     repeats the same zeta(2) evaluation per k) and the 2e7
                     prime sieve. No dense tables.
    verify-convolve  pure-Python pointwise convolution and exact inverses:
                     s_convolve_table, s_inverse, sets.rho, factorize.
                     No large tables, no Euler product at z = 2.
    table-export     a sigma_S table written to stdout and to a CSV or JSON
                     artifact: per-row printing and serialisation dominate.

Sizes keep one pass near 4 s on a 2-core box, so a 32 s run holds a warm-up
and about five measured passes: single passes there vary by 15% and more,
and fewer passes per run left the run medians too unsteady. The 10^7
tables, --k 12 and 10^6 export rows the CLI is also used with cost 2-4x
more per pass.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

# k-free sets (all non-associative, uniform least excluded exponent k)
K_FREE = ("Q2", "Q3", "Q4")
# associative sets whose least excluded exponent is 1 at every prime
UPWARD_CLOSED = ("1", "L2", "L3")
ASSOCIATIVE = UPWARD_CLOSED + ("P{2,3}",)

ASYMP_X = 4_000_000
VERIFY_ASSOC_N = 60_000
VERIFY_NONASSOC_N = 20_000
MU_RANGE = 20_000
EXPORT_RANGE = 250_000
MAXORDER_K = 8
ORACLE_SAMPLES = 40


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments, the exit code that counts as success,
    and the oracle check run on (stdout path, artifact path)."""

    argv: tuple[str, ...]
    check: Callable[[str, str | None], str | None]
    expect_exit: int = 0
    artifact: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    sets: dict[str, str]    # slot -> set spec the seed picked
    commands: tuple[Command, ...]


def _samples(rng: random.Random, hi: int) -> list[int]:
    return sorted({1, 2, hi, *(rng.randint(1, hi) for _ in range(ORACLE_SAMPLES))})


def _asymp_tables(rng, workdir):
    tau_set = rng.choice(K_FREE + ("Q5",))
    sigma_set = rng.choice(("N",) + K_FREE)
    cmds = tuple(
        Command(("asymp", "--sset", spec, "--fn", fn, "--n", str(ASYMP_X)),
                lambda out, _art, spec=spec, fn=fn: oracle.check_asymp(out, spec, fn))
        for spec, fn in ((tau_set, "tau"), (sigma_set, "sigma")))
    return {"tau": tau_set, "sigma": sigma_set}, cmds


def _maxorder_euler(rng, workdir):
    sets = {"k-free": rng.choice(K_FREE), "s=1": rng.choice(UPWARD_CLOSED)}
    cmds = tuple(
        Command(("maxorder", "--sset", spec, "--mode", "sigma", "--k", str(MAXORDER_K)),
                lambda out, _art, spec=spec: oracle.check_maxorder(out, spec))
        for spec in sets.values())
    return sets, cmds


def _verify_convolve(rng, workdir):
    # P{2,3} admits more divisors, so its exact inverse costs ~1.5x the others
    assoc, nonassoc, mu_set = rng.choice(ASSOCIATIVE), rng.choice(K_FREE), rng.choice(UPWARD_CLOSED)
    samples = _samples(rng, MU_RANGE)
    cmds = (
        Command(("verify", "--sset", assoc, "--suite", "all", "--n", str(VERIFY_ASSOC_N)),
                lambda out, _art: oracle.check_verify(out, associative=True)),
        Command(("verify", "--sset", nonassoc, "--suite", "all", "--n", str(VERIFY_NONASSOC_N)),
                lambda out, _art: oracle.check_verify(out, associative=False), expect_exit=1),
        Command(("eval", "--sset", mu_set, "--fn", "mu", "--range", f"1..{MU_RANGE}"),
                lambda out, _art: oracle.check_eval_mu(out, mu_set, MU_RANGE, samples)),
    )
    return {"associative": assoc, "non-associative": nonassoc, "mu": mu_set}, cmds


def _table_export(rng, workdir):
    spec = rng.choice(("N",) + K_FREE)
    samples = _samples(rng, EXPORT_RANGE)
    cmds = []
    for fmt in ("csv", "json"):
        art = os.path.join(workdir, f"sigma.{fmt}")
        cmds.append(Command(
            ("eval", "--sset", spec, "--fn", "sigma", "--range", f"1..{EXPORT_RANGE}",
             "--out", art, "--format", fmt),
            lambda out, art, fmt=fmt: oracle.check_table_export(
                out, art, fmt, spec, EXPORT_RANGE, samples),
            artifact=art))
    return {"sigma": spec}, tuple(cmds)


WORKLOADS = {
    "asymp-tables": _asymp_tables,
    "maxorder-euler": _maxorder_euler,
    "verify-convolve": _verify_convolve,
    "table-export": _table_export,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's commands for this seed; artifacts go under workdir."""
    rng = random.Random(f"{name}:{seed}")
    sets, cmds = WORKLOADS[name](rng, workdir)
    return Workload(name=name, sets=sets, commands=cmds)
