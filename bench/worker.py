"""One workload in one process: set up, run passes over the case list until
the time is up, check every output, and print the result as one JSON line.

Started by run.py; see there for the options.  With ``--trace 1`` every case
runs twice in each pass, untraced and then traced, so that the two runs whose
times give the tracing overhead are close in time.  With ``--setup-only`` it
only sets up and prints the set-up time.

Set-up imports only what the program itself imports (krull_arith and click);
scipy and numpy load when the program first calls the MILP union engine.
Times are taken with clock.Stopwatch, which gives each time at reference
speed beside the raw one.
"""

import clock  # imports only gc, signal and time

# Set-up is timed from here until the cases are built (main).
SETUP = clock.Stopwatch()
SETUP.__enter__()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, ".out")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")
# At least three passes, so that each case's median leaves out a first run that
# pays for a lazy import (scipy, on the first MILP union).
MIN_PASSES = 3
sys.path.insert(0, os.path.join(ROOT, "src"))

import click  # noqa: E402,F401

import krull_arith  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_case(label, run, refs, log):
    """Run one case and check it; returns (stopwatch, ok)."""
    # Each case starts from a collected heap: the memo of lengths_of hangs on
    # a closure cycle, and would otherwise outlive its case by a varying time.
    gc.collect()
    sw = clock.Stopwatch()
    try:
        summary, problems = run(sw)
    except Exception as exc:  # a case that raises counts as failed; the pass goes on
        summary, problems = None, ["raised %s: %s" % (type(exc).__name__, exc)]
    if summary is not None and summary != refs.get(label):
        problems.append(
            "output %s differs from the reference %s"
            % (json.dumps(summary, sort_keys=True), json.dumps(refs.get(label), sort_keys=True))
        )
    if problems:
        log.append("%s: %s" % (label, "; ".join(problems)))
    return sw, not problems


def run_pass(cases, refs, log, tr=None):
    """Run every case once, and with a tracer once more under it.

    Returns ({label: Stopwatch} untraced, the same traced, failed).
    """
    untraced, traced = {}, {}
    failed = 0
    for label, run in cases:
        untraced[label], ok = run_case(label, run, refs, log)
        failed += not ok
        if tr is not None:
            tr.install()
            try:
                traced[label], ok = run_case(label, run, refs, log)
            finally:
                tr.uninstall()
            failed += not ok
    return untraced, traced, failed


def typical_pass(passes, attr):
    """Time of one pass: each case's median time over the passes, summed.

    The median leaves out a first run that pays for a lazy import, and a run
    that a change of the machine's speed between two probes made slow."""
    labels = passes[0]
    return sum(statistics.median(getattr(p[label], attr) for p in passes) for label in labels)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(krull_arith.__file__).startswith(src + os.sep):
        raise SystemExit("krull_arith was not imported from %s" % src)
    os.makedirs(OUT_DIR, exist_ok=True)
    cases = workloads.build(args.workload, args.seed, OUT_DIR)
    SETUP.__exit__(None, None, None)
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP.ref, "setup_wall_s": SETUP.wall}))
        return

    with open(REFS_PATH) as fh:
        refs = json.load(fh)
    log = []
    tr = tracer.Tracer() if args.trace else None
    untraced, traced, layer_passes = [], [], []
    spans = None
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_untraced, pass_traced, pass_failed = run_pass(cases, refs, log, tr)
        untraced.append(pass_untraced)
        attempted += len(pass_untraced) + len(pass_traced)
        failed += pass_failed
        if tr is not None:
            traced.append(pass_traced)
            metrics, pass_spans = tr.take_pass()
            # Self times at reference speed, like the pass times.
            speed = sum(sw.ref for sw in pass_traced.values()) / sum(
                sw.wall for sw in pass_traced.values()
            )
            metrics.update({k: v * speed for k, v in metrics.items() if k.endswith("_s")})
            layer_passes.append(metrics)
            spans = spans or pass_spans
        # Stop once another pass of average length would end after the deadline.
        done = len(untraced)
        if done >= MIN_PASSES and (perf_counter() - start) * (done + 1) / done > args.seconds:
            break

    if tr is not None:
        for name in tracer.COUNTS:
            if len({p[name] for p in layer_passes}) != 1:
                failed += 1
                log.append("count %s differs between traced passes" % name)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": SETUP.ref,
        "setup_wall_s": SETUP.wall,
        "passes": len(untraced),
        "pass_wall_s": [sum(sw.wall for sw in p.values()) for p in untraced],
        "pass_ref_s": [sum(sw.ref for sw in p.values()) for p in untraced],
        "case_ref_s": {label: [p[label].ref for p in untraced] for label in untraced[0]},
        "attempted": attempted,
        "failed": failed,
        "problems": log[:20],
        "pass_s": typical_pass(untraced, "ref"),
        "wall_s": typical_pass(untraced, "wall"),
        "cpu_s": typical_pass(untraced, "cpu"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tr is not None:
        # Counts are equal on every pass (checked above); times take the median.
        layers = {
            name: statistics.median(p[name] for p in layer_passes) for name in layer_passes[0]
        }
        layers.update({name: layer_passes[0][name] for name in tracer.COUNTS})
        layers["trace.untraced_pass_s"] = result["pass_s"]
        layers["trace.traced_pass_s"] = typical_pass(traced, "ref")
        layers["trace.overhead_s"] = layers["trace.traced_pass_s"] - layers["trace.untraced_pass_s"]
        result["layers"] = layers
        spans_path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
