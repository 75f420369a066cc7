"""Benchmark command: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve-fresh --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that reports the per-layer ledger and
writes its spans to ``.perfbench/`` (render them with ``repro-trace``).  The
last line of standard output is the JSON result; the lines before it are the
human-readable report.  Exits 1 when an output check fails, 2 on a usage or
environment error.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

# BLAS threads are pinned before numpy loads; the server process inherits them.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [SRC, ROOT]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _latency_limit_ms(spec, workload: str) -> float:
    """The goodput latency limit, written in the workload's ``why``."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            match = re.search(r"latency limit (\d+(?:\.\d+)?) ms", entry["why"])
            if match is None:
                raise SystemExit(f"BENCHMARK.json: no 'latency limit <n> ms' in {workload}'s why")
            return float(match.group(1))
    raise SystemExit(f"unknown workload {workload!r}")


def _environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_pin": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    # A terminated benchmark still runs its finally blocks, which stop the server.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse(argv)
    spec = _benchmark_spec()
    limit_ms = _latency_limit_ms(spec, args.workload)
    try:
        from perfbench import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    import_seconds = time.perf_counter() - PROCESS_START
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        limit_ms=limit_ms,
        work_dir=os.path.join(OUT_DIR, f"work-{os.getpid()}"),
        src_dir=SRC,
        import_seconds=import_seconds,
        process_start=PROCESS_START,
        spans_path=os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
    )
    try:
        result = workloads.WORKLOADS[run.workload](run)
    finally:
        workloads.cleanup(run)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in result.metrics]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 2
    result.info["environment"] = _environment()
    result.info["error_rate"] = workloads.stats.error_rate(result.attempted, result.failed)
    result.info["latency_limit_ms"] = limit_ms
    correct = result.mismatches == 0
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": args.trace, "correct": correct, "attempted": result.attempted,
        "failed": result.failed, "metrics": {k: result.metrics[k] for k in wanted},
        "info": result.info,
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)

    for name in wanted:
        value, unit = result.metrics[name]
        print(f"{name:32s} {value:14.4f} {unit}")
    print(f"{'error_rate':32s} {result.info['error_rate']:14.4f} "
          f"({result.failed} failed of {result.attempted} attempted)")
    for row in result.info.get("ledger", ()):
        print(f"ledger {row['span']:26s} calls {row['calls']:4d}  median {row['median_total_ms']:9.3f} ms"
              f"  self {row['median_self_ms']:9.3f} ms  {100 * row['share_of_p50']:5.1f}% of p50")
    print("info " + json.dumps(result.info, default=str, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
            for name in wanted
        },
    }))
    return 0 if result.mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
