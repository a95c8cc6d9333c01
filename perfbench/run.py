"""Benchmark of the starurd CLI: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload {build,audit,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from `src/`,
its bytecode goes to `.bench_build/` and every file a run makes goes to
`.bench_run/`.  Each operation is one CLI process, run one at a time.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with tracing
off over whole passes of the workload's operations, repeated while a
further pass fits in --seconds (at least one pass), and scaled by the speed
of a reference job run before each operation (see REFERENCE_S).  With
--trace 1 the run makes one untraced and one traced pass and reports the
per-layer metrics.
A full record, with the Python version, nproc and the 0.1.0 baseline, is
written to .bench_run/results/.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
# End-to-end times are scaled to a host that runs reference.py in
# REFERENCE_S, by REFERENCE_S / (median wall of the reference in the run):
# a shared host's speed can swing by a third within minutes (seen on a 2-vCPU
# Xeon VM), and the reference, run before every operation and set-up, swings
# with it.
REFERENCE_S = 0.4
# Exit codes of a verdict: success / verification failed or exhausted.
SETTLED_CODES = (0, 1)


@dataclass
class Result:
    code: int
    out: str
    wall: float
    rss_mb: float
    record: dict


class Runner:
    """Runs CLI commands through shim.py, one process at a time."""

    def __init__(self, work: Path):
        self.work = work
        self.reference_walls: list[float] = []
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONPYCACHEPREFIX=str(BUILD_DIR / "pycache"),
            PYTHONHASHSEED="0",
        )

    def _spawn(self, command: list[str], out_path: Path) -> dict:
        spawn_path = self.work / "spawn.json"
        cmd = [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(spawn_path), "--", *command]
        with open(out_path, "w") as out:
            subprocess.run(cmd, cwd=self.work, env=self.env, stdout=out, stderr=subprocess.STDOUT, check=True)
        return json.loads(spawn_path.read_text())

    def cli(self, args: list[str], mode: str = "plain") -> Result:
        record_path, out_path = self.work / "record.json", self.work / "out.txt"
        record_path.unlink(missing_ok=True)
        spawned = self._spawn([sys.executable, str(HERE / "shim.py"), str(record_path), mode, "--", *args], out_path)
        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        return Result(spawned["code"], out_path.read_text(), spawned["wall_s"], spawned["maxrss_kb"] / 1024, record)

    def reference(self) -> None:
        spawned = self._spawn([sys.executable, str(HERE / "reference.py")], self.work / "out.txt")
        if spawned["code"] != 0:
            raise SystemExit(f"reference.py failed with exit {spawned['code']}")
        self.reference_walls.append(spawned["wall_s"])


def set_up(workload: str, work: Path, seed: int, runner: Runner):
    """Compile the package, warm the CLI, make the workload's inputs."""
    compileall.compile_dir(SRC / "starurd", quiet=1)
    warm = runner.cli(["check", "--v", "12", "--n", "3"])
    if warm.code != 0:
        raise SystemExit(f"warm-up `starurd check` failed with exit {warm.code}:\n{warm.out}")
    return workloads.WORKLOADS[workload](work, random.Random(seed))


def run_pass(ops, runner: Runner, mode: str, rng: random.Random, log: list) -> list:
    order = list(ops)
    rng.shuffle(order)
    done = []
    for op in order:
        runner.reference()
        result = runner.cli(op.args, mode)
        reason = op.check(result, runner)
        entry = {"op": op.name, "mode": mode, "exit": result.code, "wall_s": result.wall,
                 "reference_s": runner.reference_walls[-1], "rss_mb": result.rss_mb, "failure": reason}
        if op.codes is not None:
            entry["codes"] = workloads.codes(result.out)
            entry["codes_as_expected"] = entry["codes"] == op.codes
        log.append(entry)
        done.append((op, result, reason))
    return done


def end_to_end(passes: list, setup_times: list[float], scale: float) -> dict:
    """The end-to-end metrics, times multiplied by scale."""
    everything = [item for done in passes for item in done]
    samples: dict[str, list[float]] = {}
    for op, result, _ in everything:
        if not op.probe:
            samples.setdefault(op.name, []).append(result.wall)
    probes = [r.wall for op, r, _ in everything if op.probe]
    return {
        "wall_s": (scale * sum(statistics.median(walls) for walls in samples.values()), "s"),
        "probe_s": (scale * statistics.median(probes), "s"),
        "peak_rss_mb": (max(r.rss_mb for _, r, _ in everything), "MB"),
        "settled_share": (sum(r.code in SETTLED_CODES for _, r, _ in everything) / len(everything), "share"),
        "success_rate": (sum(reason is None for *_, reason in everything) / len(everything), "share"),
        "setup_s": (scale * statistics.median(setup_times), "s"),
    }


def per_layer(plain: list, traced: list) -> dict:
    metrics = spans.layer_metrics(
        [r.record for _, r, _ in traced], [r.record for _, r, _ in plain], [r.wall for _, r, _ in plain]
    )
    return {name: (value, spans.unit(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "audit", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starurd" / "cli.py").is_file():
        print(f"error: no starurd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(BUILD_DIR / "pycache")

    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            runner.reference()
            start = time.perf_counter()
            ops = set_up(args.workload, work, args.seed, runner)
            setup_times.append(time.perf_counter() - start)

        rng = random.Random(args.seed)
        log: list = []
        if args.trace:
            plain = run_pass(ops, runner, "plain", random.Random(args.seed), log)
            traced = run_pass(ops, runner, "trace", random.Random(args.seed), log)
            passes = [plain, traced]
            metrics = per_layer(plain, traced)
            raw = {}
        else:
            passes = []
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                passes.append(run_pass(ops, runner, "plain", rng, log))
                now = time.perf_counter()
                if now - start + (now - pass_start) > args.seconds:
                    break
            metrics = end_to_end(passes, setup_times, REFERENCE_S / statistics.median(runner.reference_walls))
            raw = end_to_end(passes, setup_times, 1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(done) for done in passes)
    failed = sum(reason is not None for done in passes for *_, reason in done)
    for entry in log:
        if entry["failure"]:
            print(f"FAILED {entry['op']} ({entry['mode']}): {entry['failure']}", file=sys.stderr)

    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(passes),
        "setup_times_s": setup_times,
        "reference_walls_s": runner.reference_walls,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "unscaled_metrics": {name: value for name, (value, _) in raw.items()},
        "operations": log,
        "baseline": baseline.get(args.workload, {}).get(f"trace{args.trace}"),
    }
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
