"""Measure one trajectory row: ten runs of every workload, seeds 1 to 10.

    python3 perfbench/trajectory.py --label <commit> [--append]

Each run lasts BENCHMARK.json's run_seconds. Prints, per workload and
end-to-end metric, the median and quartiles of the runs and their spread
(quartile distance over median) next to the metric's bound. With --append
the row is added to trajectory.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, SPEC, WORKLOADS

SEEDS = list(range(1, 11))


def measure(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)
    row = {"label": args.label, "seconds": SPEC["run_seconds"], "seeds": SEEDS,
           "workloads": {}}
    for workload in WORKLOADS:
        results = [measure(workload, seed) for seed in SEEDS]
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results)}
        print(f"{workload}: correct {summary['correct']}, "
              f"{summary['failed']}/{summary['attempted']} operations failed")
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "unit": unit}
            print(f"  {name:12} median {median:<12.6g} {unit:4} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} (bound {metric['bound']})",
                  flush=True)
        row["workloads"][workload] = summary
    if args.append:
        with (HERE / "trajectory.jsonl").open("a") as out:
            out.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
