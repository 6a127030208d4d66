"""kpartite benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload {campaign,service} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  This process never imports kpartite: it
generates the inputs (inputs.py), times fresh interpreters importing the
package (``setup_s``), starts one workload process (worker.py) that calls the
program from ``src/`` as a closed loop with one caller, and validates every
output afterwards (validate.py).  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of one traced cycle.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import validate
from worker import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = tuple(inputs.GENERATORS)
DEADLINE_S = 170.0
# setup_s is the median of SETUP_PROBES fresh imports, half of them timed
# before the workload process and half after it, so that one burst of
# machine speed does not set the whole figure.
SETUP_PROBES = 10
TAIL_PERCENTILE = {"campaign": 90, "service": 90}
CALIB_LOOP = 300_000


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: a machine-speed probe, kept
    beside the results to tell machine drift from a regression."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIB_LOOP):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_setup(env: dict, probes: int) -> list[float]:
    """Times from spawning a fresh interpreter to the end of its
    ``import kpartite``; one untimed import first, so that byte-code
    compilation is not counted.  The child reads the system-wide monotonic
    clock itself, so the parent's polling wait does not round the result."""
    command = [sys.executable, "-c", "import kpartite, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    subprocess.run(command, env=env, check=True, timeout=60, capture_output=True)
    times = []
    for _ in range(probes):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(command, env=env, check=True, timeout=60, capture_output=True, text=True)
        times.append(float(done.stdout) - start)
    return times


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def items_done(record: dict) -> int:
    """Items an output accounts for: realizations for the campaign, one
    request otherwise."""
    if "count" in record:
        return record["count"]
    if "csv" in record:
        return record["csv"].count("\n") - 1
    return 1


def end_to_end(workload, items, verdict, setup_s, rss_kb) -> tuple[dict, list[str]]:
    """Each request's latency is its median over the run's cycles, and every
    timing metric is taken over those per-request medians.  Every cycle runs
    the same requests, so the median over a request's copies keeps a burst
    of machine speed in one cycle from setting its figure.  A percentile
    over the pooled copies would instead land on the slowest copy of one
    request, and so grow with the number of cycles that fit in the run."""
    failed = set(verdict["failed"])
    latencies: dict[str, list[float]] = defaultdict(list)
    for item in items:
        latencies[item["id"]].append(item["t"])
    per_request = sorted(statistics.median(ts) for ts in latencies.values())
    cycles = len({item["cycle"] for item in items})
    validated = sum(items_done(item["record"]) for i, item in enumerate(items) if i not in failed)
    cycle_s = sum(per_request)
    pct = TAIL_PERCENTILE[workload]
    tail = nearest_rank(per_request, pct)
    beyond = sum(t > tail for t in per_request)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (validated / cycles / cycle_s, "items/s"),
        "item_p50_ms": (1000 * statistics.median(per_request), "ms"),
        "item_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {SETUP_PROBES} fresh interpreters importing kpartite, "
        f"half before and half after the workload process",
        f"items_per_s: {validated} validated items in {cycles} cycles, over the sum of the "
        f"per-request median latencies, {cycle_s:.3f} s",
        f"item_p50_ms: median of {len(per_request)} per-request medians over {cycles} cycles",
        f"item_tail_ms: p{pct} of the per-request medians; {beyond} requests "
        f"({beyond * cycles} timed copies) beyond it",
        f"fail_frac: {len(failed)} of {len(items)} requests = {len(failed) / len(items):g}",
    ]
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "kpartite" / "__init__.py").is_file():
        print(f"run.py: no kpartite sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (WORK / "trace").mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "out").mkdir()
        requests, expected = inputs.generate(args.workload, args.seed, workdir)
        manifest = workdir / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "requests": requests,
                    "outdir": str(workdir / "out"),
                    "spans": str(WORK / "trace" / f"{args.workload}.spans"),
                }
            )
        )
        env = child_env()
        calib_s = calibrate()
        setup_times = [] if args.trace else measure_setup(env, SETUP_PROBES // 2)

        result_path = workdir / "result.json"
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--manifest", str(manifest),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--result", str(result_path),
        ]
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            subprocess.run(command, env=env, check=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"run.py: workload process exceeded {budget:.0f} s and was stopped", file=sys.stderr)
            return 1
        except subprocess.CalledProcessError as exc:
            print(f"run.py: workload process exited with {exc.returncode}", file=sys.stderr)
            return 1
        if not args.trace:
            setup_times += measure_setup(env, SETUP_PROBES - len(setup_times))
        result = json.loads(result_path.read_text())
        items = result["items"]
        verdict = validate.validate(requests, expected, items)

        cycles = len({item["cycle"] for item in items})
        print(
            f"workload={args.workload} seed={args.seed} trace={args.trace} cycles={cycles} "
            f"requests={len(items)} failed={len(verdict['failed'])} calib_s={calib_s:.4f}"
        )
        for problem in verdict["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        if args.trace:
            metrics = {name: (result["metrics"][name], unit) for name, unit in PER_LAYER.items()}
            metrics["calib_s"] = (calib_s, "s")
            print_layers(result["layers"], result["metrics"]["trace.busy_s"])
            notes = []
        else:
            setup_s = statistics.median(setup_times)
            metrics, notes = end_to_end(args.workload, items, verdict, setup_s, result["rss_kb"])
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        for note in notes:
            print(f"  {note}")
        print(
            json.dumps(
                {
                    "correct": not verdict["failed"] and verdict["complete"],
                    "attempted": len(items),
                    "failed": len(verdict["failed"]),
                    "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_layers(layers: dict, busy: float) -> None:
    """Each wrapped layer's share of traced busy time, by self time."""
    print(f"{'layer':48} {'calls':>9} {'incl_s':>9} {'self_s':>9} {'self%':>6}")
    for name, stat in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(
            f"{name:48} {stat['calls']:9d} {stat['s']:9.4f} {stat['self_s']:9.4f} "
            f"{100 * stat['self_s'] / busy if busy else 0:6.1f}"
        )


if __name__ == "__main__":
    sys.exit(main())
