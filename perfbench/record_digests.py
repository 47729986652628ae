"""Record the reference artifacts' sha256 and the per-layer counts for seeds
0 to 31.

    python3 perfbench/record_digests.py

Runs one traced round of each workload per seed, checks its artifacts, and
rewrites digests.json and counts.json. Run it only at a commit whose
artifacts and counts are the reference; the benchmark then fails any
operation whose artifact differs, and any traced run whose counts differ.
"""

from __future__ import annotations

import json
import sys

import run as bench
from inputs import write

SEEDS = range(32)


def main() -> int:
    import cantornorm.cli as cli

    digests: dict = {}
    counts: dict = {}
    for seed in SEEDS:
        seed_dir = bench.OUT / f"seed-{seed}"
        write(seed, seed_dir / "inputs")
        for workload in bench.WORKLOADS:
            run = bench.Run(workload, seed, seed_dir / workload)
            run.expected = None
            ops, _, _ = bench.workload_ops(workload, seed_dir / "inputs")
            _, _, layer = bench.traced_round(cli.main, ops, run)
            if run.failed:
                print(f"seed {seed} {workload}: {run.failed} operations failed",
                      file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = run.seen
            counts.setdefault(workload, {})[str(seed)] = {
                name: value for name, value in layer.items() if bench.is_count(name)}
        print(f"seed {seed} recorded", flush=True)
    for path, record in ((bench.DIGESTS, digests), (bench.COUNTS, counts)):
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
