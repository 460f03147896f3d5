"""Benchmark of krull-arith: exact invariant reports, atom enumeration and
length-set sweeps over bounded preset suites.

    python3 bench/run.py --workload report|enumerate|lengths|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src/``.  Each workload runs in its own single-threaded process
(worker.py), a closed loop with one caller that runs the workload's case list
once per pass for about ``--seconds``.  Every output is checked against
refs.json or by an independent check; NOTES.md says why each workload exists.

With ``--trace 0`` the result holds the end-to-end metrics: the time of a
pass at reference speed (each case's median over the run's passes, summed;
clock.py says what reference speed is), the peak RSS of the workload process,
and the median set-up time at reference speed over several fresh processes.
The raw wall and CPU times are printed beside them.  With ``--trace 1`` each case runs
untraced and then traced, and the result holds the per-layer metrics of the
traced runs (tracer.py) and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the error rate.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("report", "enumerate", "lengths")
# Set-up-only processes per run; the workload process gives one more sample.
SETUP_SAMPLES = 7
# A run ends within about --seconds plus one pass, or after three passes; a
# pass takes at most about 25 s (traced, in a slow spell), and a worker that
# takes far longer is stopped.
WORKER_GRACE_S = 100
END_TO_END_UNITS = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SINGLE_THREADED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker(args, seconds):
    """Run worker.py with the given arguments and return its JSON line."""
    env = dict(os.environ, **SINGLE_THREADED)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + args
    timeout = 2 * seconds + WORKER_GRACE_S
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("worker %s did not end within %.0f s" % (" ".join(args), timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("worker %s failed with exit code %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed)]
    result = worker(common + ["--seconds", str(seconds), "--trace", str(trace)], seconds)
    if trace:
        units = {name: unit for name, unit, _ in tracer.METRICS}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in result["layers"].items()}
    else:
        setups = [result] + [worker(common + ["--setup-only"], seconds) for _ in range(SETUP_SAMPLES)]
        values = {
            "pass_s": result["pass_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    print(
        "%s seed %d: %d passes, %d of %d cases failed"
        % (workload, seed, result["passes"], result["failed"], result["attempted"])
    )
    print("  raw wall time of each untraced pass:      %s s" % " ".join("%.3f" % w for w in result["pass_wall_s"]))
    print("  time at reference speed of the same passes: %s s" % " ".join("%.3f" % w for w in result["pass_ref_s"]))
    for label, times in sorted(result["case_ref_s"].items()):
        print("    %-28s %s s" % (label, " ".join("%.3f" % t for t in times)))
    if not trace:
        raw = {
            "wall_s": (result["wall_s"], "s"),
            "cpu_s": (result["cpu_s"], "s"),
            "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setups), "s"),
        }
        for name, (value, unit) in raw.items():
            print("  %-40s %14.6f %s  (raw)" % (name, value, unit))
    for problem in result["problems"]:
        print("  FAILED " + problem)
    error_rate = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    for name, m in list(metrics.items()) + [("error_rate", error_rate)]:
        print("  %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    if trace:
        print("  spans of the first traced pass: %s" % result["spans_path"])
    return result["attempted"], result["failed"], metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "krull_arith", "__init__.py")):
        raise SystemExit("no krull_arith sources under %s" % os.path.join(ROOT, "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = name + "." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
