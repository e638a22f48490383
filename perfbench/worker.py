"""One repetition of one workload, in a fresh interpreter.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --tmp DIR [--trace] [--setup-only]

Set-up covers importing fqzeta from this checkout's ``src/``, building the
workload's fields and generating its inputs; the worker then records the
moment its first item is ready.  It runs the items in order inside the
timed region (traced when ``--trace`` is given), takes its own peak RSS,
checks every output against its reference outside the timed region, and
prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_checkout() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fqzeta

    if not Path(fqzeta.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"fqzeta imported from {fqzeta.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_checkout()
    from workloads import WORKLOADS, Verify

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    items = workload.items()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, measured_ms = [], []
    t0 = time.perf_counter()
    try:
        for label, fn in items:
            ti = time.perf_counter()
            try:
                outputs.append(fn())
            except Exception as exc:  # a failing item is counted, not fatal
                traceback.print_exc()
                print(f"item {label} raised", file=sys.stderr)
                outputs.append(exc)
            measured_ms.append((time.perf_counter() - ti) * 1e3)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = workload.check(outputs)
    for note in outcome.notes:
        print(f"{args.workload}: {note}", file=sys.stderr)
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "item_ms": measured_ms,
        "named": workload.named_metrics(outputs, measured_ms),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "unexpected": outcome.unexpected,
    }
    if tracer is not None:
        layers = tracer.report()
        missing = list(tracer.missing)
        checks = workload.check_ms(outputs)
        for name in Verify.CHECK_NAMES:
            layers[f"verify.check.{name}.ms"] = checks.get(name, 0)
            if isinstance(workload, Verify) and name not in checks:
                missing.append(f"verify.check.{name}")
        layers["trace.missing_targets"] = len(missing)
        result["layers"] = layers
        result["missing"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
