"""Run one sconv CLI command with its library functions timed from outside.

    python3 traced_cli.py SPANS_JSON ARG...

is `sconv ARG...` with every public function of the sconv modules wrapped,
in every sconv namespace that bound it (the package re-exports, and
modules such as convolve bind `rho` themselves). Each wrapped call records
a span (name, start, end, parent) in memory; the spans and counters are
written to SPANS_JSON once the command ends. Pointwise functions called
millions of times get a call counter only, so their cost stays in the
caller's self time instead of adding a timed span per call.

Stdout and --out artifacts are those of the plain CLI; the benchmark checks
that they are byte-identical. Nothing in the sconv sources is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import types

from layers import LAYERS

POINTWISE = {
    "arith.factorize", "arith.divisors", "arith.eval_multiplicative", "sets.rho",
    "convolve.s_divisors", "convolve.s_convolve_at", "mobius.mu_set_at", "mobius.mu_k_at",
    "mobius.mu_k_prime_power", "divisor_functions.tau_S_at", "divisor_functions.sigma_S_at",
    "divisor_functions.phi_S_at", "divisor_functions.sigma_S_prime_power",
}
EULER_FIRST_CUTOFF = 1 << 14  # mobius._euler_product starts here and doubles


class Recorder:
    """Spans, call counts and the few argument-derived counters of one run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []    # indices of open spans
        self.calls: dict[str, int] = {}
        self.errors: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.zeta_keys: set = set()
        self.zeta = {"repeat_calls": 0, "terms": 0, "euler_cutoffs": []}
        self.convolve_sizes: list[int] = []
        self.inverse_entries = 0
        self.entries: dict[str, int] = {}

    def _escaped(self, layer: str) -> None:
        # count an exception once per layer boundary it crosses
        caller = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else None
        if caller != layer:
            self.errors[layer] += 1

    def timed(self, name: str, fn):
        layer = name.split(".")[0]
        spans, stack, calls = self.spans, self.stack, self.calls
        calls[name] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx][2] = clock()
                stack.pop()
                self._escaped(layer)
                raise
            spans[idx][2] = clock()
            stack.pop()
            self._note(name, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        layer = name.split(".")[0]
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._escaped(layer)
                raise

        return wrapper

    def _note(self, name, args, kwargs, result) -> None:
        if name in ("arith.multiplicative_table", "arith.prime_array",
                    "sets.rho_table", "mobius.mu_set_table"):
            self.entries[name] = self.entries.get(name, 0) + len(result)
        elif name == "mobius.zeta_S":
            S, z = args[0], args[1]
            tol = args[2] if len(args) > 2 else kwargs.get("tol", "default")
            key = (S.spec, z, tol)
            self.zeta["repeat_calls"] += key in self.zeta_keys
            self.zeta_keys.add(key)
            self.zeta["terms"] += result.truncation
            if result.euler_cutoff is not None:
                self.zeta["euler_cutoffs"].append(result.euler_cutoff)
        elif name == "convolve.s_convolve_table":
            self.convolve_sizes.append(args[3] if len(args) > 3 else kwargs["N"])
        elif name == "convolve.s_inverse":
            self.inverse_entries += args[2] if len(args) > 2 else kwargs["N"]


def install(rec: Recorder):
    """Wrap the public functions of each layer and rebind every alias."""
    import sconv

    modules = [importlib.import_module(f"sconv.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrap = rec.counted if name in POINTWISE else rec.timed
                wrappers[obj] = wrap(name, obj)
    for mod in [sconv, *modules]:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return sys.modules["sconv.cli"].main


def _prime_counts(cutoffs):
    """pi(c) for each cutoff, from a sieve independent of sconv.arith."""
    import numpy as np

    top = max(cutoffs)
    comp = np.zeros(top + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(top) + 1):
        if not comp[p]:
            comp[p * p :: p] = True
    pi = np.cumsum(~comp)
    return {c: int(pi[c]) for c in cutoffs}


def _divisor_pairs(n: int) -> int:
    """sum over d <= n of floor(n / d), by the hyperbola method."""
    r = math.isqrt(n)
    return 2 * sum(n // d for d in range(1, r + 1)) - r * r


def summary(rec: Recorder) -> dict:
    """Counters derived from the recorded arguments and results."""
    from sconv import arith

    info = arith._factorize_small.cache_info()
    rounds = []
    for final in rec.zeta["euler_cutoffs"]:
        c = EULER_FIRST_CUTOFF
        while c < final:
            rounds.append(c)
            c *= 2
        rounds.append(final)
    pi = _prime_counts(rounds) if rounds else {}
    return {
        "calls": rec.calls,
        "errors": rec.errors,
        "entries": rec.entries,
        "factorize_cache": {"hits": info.hits, "misses": info.misses},
        "zeta": {"repeat_calls": rec.zeta["repeat_calls"], "terms": rec.zeta["terms"],
                 "euler_primes": sum(pi[c] for c in rounds),
                 "euler_final_primes": sum(pi[c] for c in rec.zeta["euler_cutoffs"])},
        "convolve_pairs": sum(_divisor_pairs(n) for n in rec.convolve_sizes),
        "inverse_entries": rec.inverse_entries,
    }


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    cli_main = install(rec)
    try:
        return cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"spans": rec.spans, **summary(rec)}, fh)


if __name__ == "__main__":
    sys.exit(main())
