"""cantornorm benchmark: three workloads through the real CLI.

    python3 perfbench/run.py --workload verify-deep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --list-metrics

With --trace 0 every operation runs as users run it, `python3 -m cantornorm`
in a fresh interpreter, in a closed loop (one client, one operation at a
time), and the end-to-end metrics are medians over rounds; a round is every
operation of the workload once. With --trace 1 the same operations call
`cantornorm.cli.main(argv)` in this process, alternating an untraced round
with a traced one, and the per-layer metrics come from the traced rounds.
Every artifact is checked (see checks.py) and, where a digest is recorded
for the seed, compared byte for byte with the seed commit's output.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_INPUTS = HERE / "default_inputs"
DIGESTS = HERE / "digests.json"
COUNTS = HERE / "counts.json"

sys.path[:0] = [str(HERE), str(SRC)]
import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import (GENERATOR_KINDS, ROOT_SPAN, Tracer,  # noqa: E402
                     instrument)

DEFAULT_SEED = 0
DEPTH = 10                 # stages for verify and build: 3**10 positions
ORBIT_COUNT = 3 ** 8       # orbit-stats count, sized so a round takes ~2 s
MIN_ROUNDS = 3             # end-to-end medians need at least three rounds
MIN_TRACED_ROUNDS = 2      # counts must repeat between two traced rounds
SETUP_SAMPLES = 11
CHILD_CPU_LIMIT_S = 120    # a runaway operation is killed and counted failed
HARD_LIMIT_S = 140         # start no round after this, to exit within 180 s

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import cantornorm
cantornorm.Registry.from_file(sys.argv[1], oracle_path=sys.argv[2] or None)
print(time.perf_counter() - start)
"""

# Metric names, units, directions and bounds, the workloads and the run
# length come from BENCHMARK.json; this file adds what each metric measures.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}

# end-to-end name -> what it measures
END_TO_END = {
    "wall_s": "wall time of one round, every operation in a fresh process",
    "cpu_s": "user+sys CPU time of one round's child processes",
    "work_per_s": ("units per second of wall time: positions certified "
                   "(verify-deep), positions emitted (build-table), orbit "
                   "points emitted (orbit-stats)"),
    "peak_rss_mb": "largest ru_maxrss of the run's operation processes",
    "setup_s": ("fresh interpreter: import cantornorm plus Registry.from_file "
                "of the workload's registry and oracle file"),
}

# per-layer name -> (what it counts, which end-to-end metric it should move)
PER_LAYER = {}
for _kind in GENERATOR_KINDS:
    PER_LAYER[f"generators.bit_at_calls.{_kind}"] = (
        f"{_kind} bit evaluations", "wall_s on verify-deep; no change on build-table")
    PER_LAYER[f"generators.bit_at_s.{_kind}"] = (
        f"time in {_kind} bit evaluations",
        "wall_s on verify-deep; no change on build-table")
PER_LAYER.update({
    "programs.eval_bounded_calls": ("step-bounded evaluations", "wall_s on verify-deep"),
    "programs.eval_limit_calls": ("settled-bit evaluations", "wall_s on verify-deep"),
    "programs.evals_per_position": (
        "bounded plus limit evaluations per certified position",
        "wall_s on verify-deep"),
    "programs.settle_budget_calls": (
        "settle_budget calls (certificate loop)",
        "wall_s on build-table and verify-deep"),
    "programs.settle_budget_s": (
        "time in settle_budget", "wall_s on build-table and verify-deep"),
    "programs.load_s": ("Registry.from_file", "setup_s on all"),
    "construction.limit_function_calls": (
        "limit_function calls (base for per-call ratios)", "wall_s on build-table"),
    "construction.limit_function_s": (
        "limit_function, children included", "wall_s on build-table"),
    "construction.limit_function_self_s": (
        "limit_function outside bit evaluation and settle budgets",
        "wall_s on build-table"),
    "construction.basic_sequence_from_s": (
        "basic_sequence_from", "wall_s on build-table"),
    "normality.witness_check_calls": ("witness_check calls", "wall_s on verify-deep"),
    "normality.witness_check_s": ("witness_check", "wall_s on verify-deep"),
    "normality.non_normality_report_self_s": (
        "non_normality_report outside its traced children", "wall_s on verify-deep"),
    "cantor.orbit_s": ("orbit", "wall_s on verify-deep and orbit-stats"),
    "cantor.orbit_points": (
        "points returned by orbit", "wall_s on verify-deep and orbit-stats"),
    "normality.interval_frequency_calls": (
        "interval_frequency calls", "wall_s on orbit-stats"),
    "normality.interval_frequency_s": ("interval_frequency", "wall_s on orbit-stats"),
    "normality.star_discrepancy_s": ("star_discrepancy", "wall_s on orbit-stats"),
    "cantor.cantor_digits_s": ("cantor_digits", "wall_s on orbit-stats"),
    "cantor.cantor_value_s": ("cantor_value", "wall_s on orbit-stats"),
    "cli.self_s": ("argument parsing, payload building, rendering, writing",
                   "wall_s and peak_rss_mb on build-table"),
    "cli.output_bytes": ("bytes of artifacts written",
                         "wall_s and peak_rss_mb on build-table"),
    "trace.overhead_s": (
        "traced round wall time minus untraced round wall time", "n/a"),
    "error_rate": ("failed operations over attempted ones, this run", "n/a"),
})

if ([m["name"] for m in SPEC["end_to_end"]] != list(END_TO_END)
        or [m["name"] for m in SPEC["per_layer"]] != list(PER_LAYER)):
    raise SystemExit("BENCHMARK.json and perfbench/run.py name different metrics")


@dataclass(frozen=True)
class Op:
    artifact: str          # file name of the --out artifact
    args: tuple[str, ...]  # CLI arguments before --out
    check: object          # called with the artifact path; raises on a miss
    units: int             # work units the operation completes


def workload_ops(workload: str, inputs_dir: Path) -> tuple[list[Op], Path, Path | None]:
    """The workload's operations, plus the registry and oracle file that
    setup_s loads."""
    deep = str(inputs_dir / inputs.DEEP_REGISTRY)
    oracle = str(inputs_dir / inputs.DEEP_ORACLE)
    cheap = str(inputs_dir / inputs.CHEAP_REGISTRY)
    positions = 3 ** DEPTH
    if workload == "verify-deep":
        ops = [Op("verify.json", ("verify", "--registry", deep, "--oracle", oracle,
                                  "--stages", str(DEPTH)),
                  checks.check_verify, positions)]
        return ops, Path(deep), Path(oracle)
    if workload == "build-table":
        build = ("build", "--registry", cheap, "--stages", str(DEPTH))
        ops = [Op("build.json", build + ("--format", "json"),
                  partial(checks.check_build_json, positions=positions), positions),
               Op("build.csv", build + ("--format", "csv"),
                  partial(checks.check_build_csv, positions=positions), positions)]
        return ops, Path(cheap), None
    if workload == "orbit-stats":
        x = (inputs_dir / inputs.ORBIT_X).read_text().strip()
        n = ORBIT_COUNT
        ops = [Op("orbit.json", ("orbit", "--registry", cheap, x, str(n)),
                  partial(checks.check_orbit, x=x, count=n), n + 1),
               Op("discrepancy.json", ("discrepancy", "--registry", cheap, x, str(n)),
                  partial(checks.check_discrepancy, x=x, count=n), n),
               Op("expand.json", ("expand", "--registry", cheap, x, str(n)),
                  partial(checks.check_expand, x=x, count=n), 0)]
        return ops, Path(cheap), None
    raise SystemExit(f"unknown workload: {workload}")


def _recorded(path: Path, workload: str, seed: int) -> dict | None:
    """The seed commit's record for `workload` and `seed`, if there is one."""
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    return recorded.get(workload, {}).get(str(seed))


class Run:
    """Operation outcomes and artifact digests of one benchmark run."""

    def __init__(self, workload: str, seed: int, out_dir: Path) -> None:
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failures not tied to one operation
        self.expected = _recorded(DIGESTS, workload, seed)
        self.expected_counts = _recorded(COUNTS, workload, seed)
        self.seen: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def argv(self, op: Op) -> list[str]:
        """CLI arguments of `op`, after removing its previous artifact so a
        stale file cannot pass for a new one."""
        path = self.out_dir / op.artifact
        path.unlink(missing_ok=True)
        return [*op.args, "--out", str(path)]

    def outcome(self, op: Op, returncode: int | None, stderr: str) -> None:
        """Count one attempt and check what it left behind."""
        self.attempted += 1
        path = self.out_dir / op.artifact
        if returncode != 0 or "Traceback" in stderr:
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.fail(f"{op.artifact}: exit {returncode}: {tail[0]}")
            return
        try:
            op.check(path)
        except Exception as exc:  # any error reading the artifact is a miss
            self.fail(f"{op.artifact}: {exc!r}")
            return
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        want = (self.expected or {}).get(op.artifact, self.seen.get(op.artifact))
        if want is not None and digest != want:
            self.fail(f"{op.artifact}: sha256 {digest} differs from {want}")
            return
        self.seen.setdefault(op.artifact, digest)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str], env: dict, err_path: Path):
    """Run one process to completion; returns (wall, cpu, maxrss KB, exit code,
    stderr). The CPU limit makes a runaway operation die on its own."""
    with err_path.open("w+") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            try:
                resource.prlimit(proc.pid, resource.RLIMIT_CPU,
                                 (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))
            except ProcessLookupError:
                pass
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                proc.returncode, err.read())


def run_op(op: Op, run: Run, env: dict) -> tuple[float, float, int]:
    """Run `op` as users do, in a fresh interpreter, and record its outcome;
    returns its wall time, CPU time and peak RSS in KB."""
    argv = [sys.executable, "-m", "cantornorm", *run.argv(op)]
    wall, cpu, rss, code, stderr = run_child(argv, env, run.out_dir / "op.stderr")
    run.outcome(op, code, stderr)
    return wall, cpu, rss


def setup_sample(registry: Path, oracle: Path | None, env: dict) -> float:
    argv = [sys.executable, "-c", SETUP_CODE, str(registry),
            str(oracle) if oracle else ""]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        raise SystemExit(f"set-up failed: {done.stderr.strip()}")
    return float(done.stdout)


def _keep_going(started: float, seconds: float, rounds: list[float],
                minimum: int) -> bool:
    elapsed = perf_counter() - started
    if elapsed > HARD_LIMIT_S:
        return False
    if len(rounds) < minimum:
        return True
    return elapsed + statistics.median(rounds) <= seconds


def end_to_end(ops: list[Op], registry: Path, oracle: Path | None,
               run: Run, seconds: float) -> dict:
    env = child_env()
    setup_sample(registry, oracle, env)  # warms the file and bytecode caches
    walls, cpus, rates, round_times, setup = [], [], [], [], []
    peak_kb = 0
    started = perf_counter()
    units = sum(op.units for op in ops)
    while _keep_going(started, seconds, round_times, MIN_ROUNDS):
        round_start = perf_counter()
        wall = cpu = 0.0
        for op in ops:
            w, c, rss = run_op(op, run, env)
            wall += w
            cpu += c
            peak_kb = max(peak_kb, rss)
        walls.append(wall)
        cpus.append(cpu)
        rates.append(units / wall)
        # set-up samples spread over the run, about SETUP_SAMPLES in all, so
        # they see the same machine as the rounds
        share = round(SETUP_SAMPLES * (perf_counter() - round_start) / seconds)
        for _ in range(max(1, share)):
            setup.append(setup_sample(registry, oracle, env))
        round_times.append(perf_counter() - round_start)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(registry, oracle, env))
    samples = {"wall_s": walls, "cpu_s": cpus, "work_per_s": rates,
               "setup_s": setup}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_kb / 1024
    for name, values in samples.items():
        print(f"{name}: median {metrics[name]!r} {UNITS[name]} over "
              f"{len(values)} samples (min {min(values)!r}, max {max(values)!r})")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']!r} MB over {len(walls) * len(ops)} "
          f"operations")
    return {name: {"value": metrics[name], "unit": UNITS[name]}
            for name in END_TO_END}


def _in_process_round(main, ops: list[Op], run: Run,
                      tracer: Tracer | None = None) -> float:
    wall = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = op.artifact
        argv = run.argv(op)
        start = perf_counter()
        try:
            code, stderr = main(argv), ""
        except Exception:  # a crash is an operation failure, not ours
            code, stderr = None, traceback.format_exc()
        wall += perf_counter() - start
        run.outcome(op, code, stderr)
    return wall


def layer_metrics(tracer: Tracer, ops: list[Op], run: Run) -> dict:
    m = {}
    for kind in GENERATOR_KINDS:
        m[f"generators.bit_at_calls.{kind}"] = tracer.calls(f"generators.bit_at.{kind}")
        m[f"generators.bit_at_s.{kind}"] = tracer.total_s(f"generators.bit_at.{kind}")
    for name in ("eval_bounded", "eval_limit", "settle_budget"):
        m[f"programs.{name}_calls"] = tracer.calls(f"programs.{name}")
    positions = tracer.units["construction.limit_function"]
    evals = m["programs.eval_bounded_calls"] + m["programs.eval_limit_calls"]
    m["programs.evals_per_position"] = evals / positions if positions else 0.0
    m["programs.settle_budget_s"] = tracer.total_s("programs.settle_budget")
    m["programs.load_s"] = tracer.total_s("programs.load")
    m["construction.limit_function_calls"] = tracer.calls("construction.limit_function")
    m["construction.limit_function_s"] = tracer.total_s("construction.limit_function")
    m["construction.limit_function_self_s"] = tracer.self_s("construction.limit_function")
    m["construction.basic_sequence_from_s"] = tracer.total_s(
        "construction.basic_sequence_from")
    m["normality.witness_check_calls"] = tracer.calls("normality.witness_check")
    m["normality.witness_check_s"] = tracer.total_s("normality.witness_check")
    m["normality.non_normality_report_self_s"] = tracer.self_s(
        "normality.non_normality_report")
    m["cantor.orbit_s"] = tracer.total_s("cantor.orbit")
    m["cantor.orbit_points"] = tracer.units["cantor.orbit"]
    m["normality.interval_frequency_calls"] = tracer.calls("normality.interval_frequency")
    m["normality.interval_frequency_s"] = tracer.total_s("normality.interval_frequency")
    m["normality.star_discrepancy_s"] = tracer.total_s("normality.star_discrepancy")
    m["cantor.cantor_digits_s"] = tracer.total_s("cantor.cantor_digits")
    m["cantor.cantor_value_s"] = tracer.total_s("cantor.cantor_value")
    m["cli.self_s"] = tracer.self_s(ROOT_SPAN)
    m["cli.output_bytes"] = sum((run.out_dir / op.artifact).stat().st_size
                                for op in ops if (run.out_dir / op.artifact).is_file())
    return m


def is_count(name: str) -> bool:
    return UNITS[name] != "s" and name != "error_rate"


def traced_round(main, ops: list[Op], run: Run) -> tuple[float, Tracer, dict]:
    """One in-process round with every module instrumented; returns its wall
    time, its tracer and its per-layer metrics."""
    tracer = Tracer()
    with instrument(tracer):
        wall = _in_process_round(tracer.wrap(ROOT_SPAN, main), ops, run, tracer)
    return wall, tracer, layer_metrics(tracer, ops, run)


def traced(ops: list[Op], run: Run, seconds: float) -> dict:
    """Alternate untraced and traced in-process rounds; per-layer metrics are
    medians over the traced rounds. Counts must repeat exactly between the
    traced rounds and equal the seed commit's counts where they are recorded."""
    import cantornorm.cli as cli

    plain, timed, layers, pair_times = [], [], [], []
    started = perf_counter()
    while _keep_going(started, seconds, pair_times, MIN_TRACED_ROUNDS):
        pair_start = perf_counter()
        plain.append(_in_process_round(cli.main, ops, run))
        wall, tracer, layer = traced_round(cli.main, ops, run)
        timed.append(wall)
        layers.append(layer)
        pair_times.append(perf_counter() - pair_start)
    tracer.write(run.out_dir / "spans.jsonl")
    if len(layers) < MIN_TRACED_ROUNDS:
        run.problems.append(f"only {len(layers)} traced round before the "
                            f"{HARD_LIMIT_S} s limit; counts need {MIN_TRACED_ROUNDS}")
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if is_count(name):
            if len(set(values)) != 1:
                run.problems.append(f"{name} differs between rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    if run.expected_counts is None:
        print(f"no counts recorded for this seed in {COUNTS.name}; "
              f"counts compared between rounds only")
    for name, want in (run.expected_counts or {}).items():
        if metrics[name] != want:
            run.problems.append(f"{name} is {metrics[name]!r}, the seed commit's "
                                f"is {want!r} ({COUNTS.name})")
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    metrics["error_rate"] = run.failed / run.attempted
    print(f"{len(layers)} traced and {len(plain)} untraced rounds; spans in "
          f"{run.out_dir / 'spans.jsonl'}")
    for name, (_, moves) in PER_LAYER.items():
        print(f"  {name:42} {metrics[name]!r:>24} {UNITS[name]:15} -> {moves}")
    return {name: {"value": metrics[name], "unit": UNITS[name]} for name in PER_LAYER}


def list_metrics() -> None:
    print("end-to-end metrics (--trace 0), medians over rounds:")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better, bound "
              f"{m['bound']}: {END_TO_END[m['name']]}")
    print("per-layer metrics (--trace 1):")
    for m in SPEC["per_layer"]:
        what, moves = PER_LAYER[m["name"]]
        print(f"  {m['name']} [{m['unit']}] {m['better']} is better: {what}; "
              f"should move {moves}")
    print("workloads:")
    for name, why in WORKLOADS.items():
        print(f"  {name}: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "cantornorm" / "cli.py").is_file():
        print(f"error: no cantornorm sources under {SRC}", file=sys.stderr)
        return 2

    seed_dir = OUT / f"seed-{args.seed}"
    inputs.write(args.seed, seed_dir / "inputs")
    run = Run(args.workload, args.seed, seed_dir / args.workload)
    if args.seed == DEFAULT_SEED:
        for name, text in inputs.generate(args.seed).items():
            if (DEFAULT_INPUTS / name).read_text() != text:
                run.problems.append(f"generated {name} differs from {DEFAULT_INPUTS}")
    ops, registry, oracle = workload_ops(args.workload, seed_dir / "inputs")
    print(f"{args.workload}, seed {args.seed}: {WORKLOADS[args.workload]}")
    if args.trace:
        metrics = traced(ops, run, args.seconds)
    else:
        metrics = end_to_end(ops, registry, oracle, run, args.seconds)
    for problem in run.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(f"error_rate: {run.failed}/{run.attempted} operations failed")
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
