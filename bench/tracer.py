"""Spans and counts around calls into krull_arith's public functions.

``Tracer.install`` replaces each function in LAYERS by a wrapper, in its own
module and in every krull_arith module that imported it by name, so that
calls between modules are seen too.  Calls a module makes to a private helper
or through a closure are not seen.  A wrapper records one span (name, start,
end, parent) per call in memory and bumps the layer's counts.  The program's
files are not changed.

A layer's self time is the total length of its spans minus the part covered
by their child spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (span name, module, function).  The span name is the metric prefix.
LAYERS = (
    ("atoms.enumerate", "krull_arith.atoms", "enumerate_atoms"),
    ("atoms.solutions", "krull_arith.atoms", "minimal_nonneg_solutions"),
    ("factorizations.lengths_of", "krull_arith.factorizations", "lengths_of"),
    ("factorizations.factorize", "krull_arith.factorizations", "factorize"),
    ("factorizations.catenary_profile", "krull_arith.factorizations", "catenary_profile"),
    ("invariants.delta", "krull_arith.invariants", "delta_set"),
    ("invariants.delta_star", "krull_arith.invariants", "delta_star"),
    ("invariants.unions", "krull_arith.invariants", "unions"),
    ("invariants.elasticity", "krull_arith.invariants", "elasticity"),
    ("invariants.catenary", "krull_arith.invariants", "monoid_catenary"),
    ("invariants.omega", "krull_arith.invariants", "monoid_omega"),
    ("invariants.tame", "krull_arith.invariants", "monoid_tame"),
    ("invariants.witness", "krull_arith.invariants", "min_abs_irred_witness"),
    ("invariants.product_levels", "krull_arith.invariants", "product_levels"),
    # The MILP union engine imports milp from scipy.optimize at call time.  It
    # is wrapped only once the program has loaded scipy (see Tracer.install).
    ("invariants.milp", "scipy.optimize", "milp"),
    ("lengths.collect", "krull_arith.lengths", "collect_length_sets"),
    ("lengths.closure_probe", "krull_arith.lengths", "additive_closure_probe"),
    ("transfer.check", "krull_arith.transfer", "check_transfer"),
    ("transfer.count_formula", "krull_arith.transfer", "count_lifted_atoms"),
    ("transfer.count_brute", "krull_arith.transfer", "count_lifted_atoms_brute"),
    ("cli.run_invariants", "krull_arith.cli", "run_invariants"),
    ("report.emit", "krull_arith.report", "emit"),
    ("report.cache_put", "krull_arith.report", "cache_put"),
    ("report.cache_get", "krull_arith.report", "cache_get"),
    ("presets.parse", "krull_arith.presets", "parse_preset"),
)

# Exact counts, which must repeat on every traced pass and run of one seed.
COUNTS = (
    "atoms.enumerate_calls",
    "atoms.atoms_found",
    "factorizations.lengths_of_calls",
    "factorizations.memo_entries",
    "factorizations.factorizations_enumerated",
    "factorizations.catenary_blocks",
    "invariants.blocks_swept",
    "invariants.unions_enum",
    "invariants.unions_milp",
    "invariants.milp_solves",
    "lengths.sets_collected",
    "report.cache_hits",
    "report.cache_misses",
)


def _enumerate_done(tracer, args, kwargs, result):
    tracer.counts["atoms.enumerate_calls"] += 1
    tracer.counts["atoms.atoms_found"] += len(result)


def _lengths_of_start(tracer, args, kwargs):
    tracer.counts["factorizations.lengths_of_calls"] += 1
    memo = kwargs["memo"] if "memo" in kwargs else (args[2] if len(args) > 2 else None)
    if memo is not None:
        tracer.memos[id(memo)] = memo
        block = kwargs["block"] if "block" in kwargs else args[1]
        if block.mults in memo:
            tracer.memo_top_hits += 1


def _factorize_done(tracer, args, kwargs, result):
    tracer.counts["factorizations.factorizations_enumerated"] += len(result)


def _catenary_profile_done(tracer, args, kwargs, result):
    tracer.counts["factorizations.catenary_blocks"] += 1


def _unions_done(tracer, args, kwargs, result):
    if result.method in ("enum", "milp"):
        tracer.counts["invariants.unions_" + result.method] += 1


def _product_levels_done(tracer, args, kwargs, result):
    tracer.counts["invariants.blocks_swept"] += sum(len(level) for level in result)


def _milp_done(tracer, args, kwargs, result):
    tracer.counts["invariants.milp_solves"] += 1


def _collect_done(tracer, args, kwargs, result):
    tracer.counts["lengths.sets_collected"] += len(result)


def _cache_get_done(tracer, args, kwargs, result):
    tracer.counts["report.cache_misses" if result is None else "report.cache_hits"] += 1


START_HOOKS = {"factorizations.lengths_of": _lengths_of_start}
DONE_HOOKS = {
    "atoms.enumerate": _enumerate_done,
    "factorizations.factorize": _factorize_done,
    "factorizations.catenary_profile": _catenary_profile_done,
    "invariants.unions": _unions_done,
    "invariants.product_levels": _product_levels_done,
    "invariants.milp": _milp_done,
    "lengths.collect": _collect_done,
    "report.cache_get": _cache_get_done,
}

METRICS = (
    tuple((name + "_s", "s", "lower") for name, _, _ in LAYERS)
    + tuple((name, "count", "higher" if name == "report.cache_hits" else "lower") for name in COUNTS)
    + (
        ("factorizations.memo_top_hit_ratio", "ratio", "higher"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.traced_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    )
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []
        self.counts = Counter()
        self.memos = {}
        self.memo_top_hits = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        start_hook, done_hook = START_HOOKS.get(name), DONE_HOOKS.get(name)

        def traced(*args, **kwargs):
            if start_hook is not None:
                start_hook(self, args, kwargs)
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if done_hook is not None:
                done_hook(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the functions of every module in LAYERS that is loaded.

        A module the program has not loaded yet is skipped rather than
        imported, so that tracing loads nothing the program does not."""
        holders = [m for n, m in sys.modules.items() if n == "krull_arith" or n.startswith("krull_arith.")]
        for name, module_name, attr in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn)
            for holder in [module] + [m for m in holders if m is not module]:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def take_pass(self):
        """Self time per layer and the counts of the pass recorded since the
        last call, then clear them.  Also returns the pass's spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        metrics = {name + "_s": 0.0 for name, _, _ in LAYERS}
        for (name, start, end, _), child in zip(spans, covered):
            metrics[name + "_s"] += end - start - child
        for name in COUNTS:
            metrics[name] = self.counts[name]
        metrics["factorizations.memo_entries"] = sum(len(m) for m in self.memos.values())
        calls = self.counts["factorizations.lengths_of_calls"]
        metrics["factorizations.memo_top_hit_ratio"] = self.memo_top_hits / calls if calls else 0.0
        recorded = list(spans)
        spans.clear()
        self.counts.clear()
        self.memos.clear()
        self.memo_top_hits = 0
        return metrics, recorded
