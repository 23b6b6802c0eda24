"""Per-layer metrics from the span files that traced_cli.py writes.

A layer is one sconv module. A span's self time is its duration minus the
durations of its direct children; a layer's self time sums the self times
of its spans, so the layers together (with cli) account for the whole time
spent inside `sconv.cli.main`.

What each metric should move (end-to-end metric, workload):
    arith.multiplicative_table.*   wall, cpu and peak RSS on asymp-tables;
                                   nothing on maxorder-euler
    arith.prime_array.*            wall on maxorder-euler (the 2e7 sieve)
    arith.factorize.*, sets.rho.calls, convolve.*
                                   wall on verify-convolve
    sets.rho_table.*, mobius.zeta_S_derivative.self_s,
    asymptotics.asymptotic_report.self_s
                                   asymp-tables
    mobius.mu_set_table.*          asymp-tables and verify-convolve
    mobius.zeta_S.*                wall on maxorder-euler and part of
                                   asymp-tables; nothing on verify-convolve
                                   or table-export
    divisor_functions.table.self_s asymp-tables and table-export
    asymptotics.witness_sequence.*, sigma_maximal_constant.self_s
                                   maxorder-euler
    cli.*                          wall and peak RSS on table-export
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("arith", "sets", "convolve", "mobius", "divisor_functions", "asymptotics", "cli")
TABLE_FUNCTIONS = ("tau_S_table", "sigma_S_table", "phi_S_table",
                  "tau_S_table_via_rho", "sigma_S_table_via_rho")
POINTWISE = ("tau_S_at", "sigma_S_at", "phi_S_at", "sigma_S_prime_power",
             "tau_S_via_identity", "sigma_S_via_identity",
             "conv_cm_via_dirichlet", "conv_cm_via_unitary")
# per-function timings and counts reported as <layer>.<function>.<what>
TIMED = ("arith.multiplicative_table", "arith.prime_array", "sets.rho_table",
         "mobius.mu_set_table", "mobius.zeta_S", "mobius.zeta_S_derivative",
         "convolve.s_convolve_table", "convolve.s_inverse",
         "asymptotics.asymptotic_report", "asymptotics.witness_sequence",
         "asymptotics.sigma_maximal_constant")
CALLS = ("arith.multiplicative_table", "arith.factorize", "arith.divisors", "sets.rho",
         "mobius.zeta_S", "asymptotics.witness_sequence")


def self_times(spans: list) -> Counter:
    """Self time per function name; spans are [name, start, end, parent]."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for (name, start, end, _), c in zip(spans, child):
        out[name] += end - start - c
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Metrics of one traced pass; records holds one span file per command."""
    fn_self, calls, errors, entries = Counter(), Counter(), Counter(), Counter()
    hits = misses = 0
    zeta = Counter()
    pairs = inverse_entries = 0
    for r in records:
        fn_self.update(self_times(r["spans"]))
        calls.update(r["calls"])
        errors.update(r["errors"])
        entries.update(r["entries"])
        hits += r["factorize_cache"]["hits"]
        misses += r["factorize_cache"]["misses"]
        zeta.update(r["zeta"])
        pairs += r["convolve_pairs"]
        inverse_entries += r["inverse_entries"]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for n, s in fn_self.items() if n.split(".")[0] == layer)
        m[f"{layer}.errors"] = errors[layer]
    for name in TIMED:
        m[f"{name}.self_s"] = fn_self[name]
    for name in CALLS:
        m[f"{name}.calls"] = calls[name]
    for name in ("arith.multiplicative_table", "sets.rho_table", "mobius.mu_set_table"):
        m[f"{name}.entries"] = entries[name]
    m["arith.multiplicative_table.bytes_computed"] = 8 * entries["arith.multiplicative_table"]
    m["arith.prime_array.primes"] = entries["arith.prime_array"]
    m["arith.factorize.hit_ratio"] = _ratio(hits, hits + misses)
    m["divisor_functions.table.self_s"] = sum(fn_self[f"divisor_functions.{f}"]
                                              for f in TABLE_FUNCTIONS)
    m["divisor_functions.pointwise.calls"] = sum(calls[f"divisor_functions.{f}"]
                                                 for f in POINTWISE)
    m["mobius.zeta_S.repeat_calls"] = zeta["repeat_calls"]
    m["mobius.zeta_S.terms"] = zeta["terms"]
    m["mobius.zeta_S.euler_primes"] = zeta["euler_primes"]
    m["mobius.zeta_S.euler_useful_ratio"] = _ratio(zeta["euler_final_primes"],
                                                   zeta["euler_primes"])
    m["convolve.s_convolve_table.pairs"] = pairs
    m["convolve.s_inverse.entries"] = inverse_entries
    return m


def is_count(name: str) -> bool:
    """Counts repeat exactly between runs of one seed; timings do not."""
    return not name.endswith("_s")
