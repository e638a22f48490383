"""fqzeta benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-sweep --seed 0 --seconds 30 --trace 0

Every repetition runs in a fresh interpreter (perfbench/worker.py), so the
process-level caches start cold as they do for a CLI user.  With
``--trace 0`` the runner first starts SETUP_PROBES set-up-only workers,
then repeats the workload for ``--seconds``, and reports
medians of the end-to-end metrics.  With ``--trace 1`` it runs the
workload once untraced and once traced and reports the per-layer
metrics; end-to-end numbers never come from a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  The exit code is non-zero, and no JSON line is
printed, when fqzeta cannot be imported from this checkout or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-sweep", "powersum-cells", "bruteforce-table", "verify")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_max_ms": "ms",
}


class WorkerError(RuntimeError):
    pass


def _spawn(args, tmpdir: str, *flags: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--tmp", tmpdir,
        *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(flags)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_targets"):
        return "count"
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    return "ratio"


def _outcome(reps: list[dict]) -> dict:
    # every repetition checks the same deterministic outputs
    return {
        "correct": all(r["unexpected"] == 0 for r in reps),
        "attempted": max(r["attempted"] for r in reps),
        "failed": max(r["failed"] for r in reps),
    }


def _end_to_end(args, tmpdir: str) -> tuple[dict, list[dict], dict]:
    start = time.monotonic()
    setup = [_spawn(args, tmpdir, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    reps_start = time.monotonic()
    # start another repetition only if the whole run, set-up probes
    # included, is expected to end within --seconds
    while True:
        reps.append(_spawn(args, tmpdir))
        now = time.monotonic()
        if now - start + (now - reps_start) / len(reps) > args.seconds:
            break
    med = statistics.median
    metrics = {
        "setup_s": med(setup + [r["setup_s"] for r in reps]),
        "wall_s": med(r["wall_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "item_p50_ms": med(med(r["item_ms"]) for r in reps),
        "item_max_ms": med(max(r["item_ms"]) for r in reps),
    }
    units = dict(END_TO_END_UNITS)
    named = {}
    for name, (_, unit) in reps[0]["named"].items():
        named[name] = med(r["named"][name][0] for r in reps)
        units[name] = unit
    return metrics, reps, {"named": named, "units": units}


def _per_layer(args, tmpdir: str) -> tuple[dict, list[dict], dict]:
    plain = _spawn(args, tmpdir)
    traced = _spawn(args, tmpdir, "--trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    units = {name: _unit(name) for name in metrics}
    return metrics, [plain, traced], {"missing": traced["missing"], "units": units}


def _print_summary(args, metrics: dict, reps: list[dict], outcome: dict, info: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(
        f"# fqzeta benchmark  workload={args.workload}  seed={args.seed}  "
        f"{mode}  repetitions={len(reps)}"
    )
    frac = outcome["failed"] / outcome["attempted"]
    print(f"  {'failed_frac':<44} {frac:.4f}  ({outcome['failed']}/{outcome['attempted']})")
    rows = dict(metrics)
    rows.update(info.get("named", {}))
    for name, value in rows.items():
        print(f"  {name:<44} {value:.6g} {info['units'][name]}")
    for name in info.get("missing", []):
        print(f"  layer missing: {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fqzeta" / "__init__.py").is_file():
        print(f"no fqzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmpdir:
            measure = _per_layer if args.trace else _end_to_end
            metrics, reps, info = measure(args, tmpdir)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    outcome = _outcome(reps)
    _print_summary(args, metrics, reps, outcome, info)
    outcome["metrics"] = {
        name: {"value": value, "unit": info["units"][name]}
        for name, value in metrics.items()
    }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
