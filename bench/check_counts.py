"""Determinism gate: two traced runs on the same seed must give identical
counts (every per-layer metric whose unit is ``count``).

    python3 bench/check_counts.py [--workload report|enumerate|lengths|all]
                                  [--seed N] [--seconds S]

Exits 0 when every count repeats exactly, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("traced run of %s failed its checks" % workload)
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = sorted(k for k in first if first[k] != second.get(k))
    for name in sorted(first):
        print("%-50s %12d %12d%s" % (name, first[name], second[name], "  DIFFERS" if name in differ else ""))
    print("counts repeat" if not differ else "%d counts differ" % len(differ))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
