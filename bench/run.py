"""Run the end-to-end benchmark: one command, every metric, checked answers.

    python bench/run.py [--workload NAME] [--seed N] [--trace] [--smoke]

Each workload runs in a fresh subprocess, which prints every metric with
its unit and sample count and writes its full record (and, traced, its
spans) to ``bench/out/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (untraced) or its
``per_layer`` metrics (``--trace``).  Any wrong answer or failed operation
makes the run exit non-zero.

A run measures ``run_seconds`` of ``BENCHMARK.json``.  The harness that
compares runs passes that same value as ``--seconds`` and writes the trace
switch as ``--trace 0`` or ``--trace 1``; both forms are accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("scan-cold", "scan-stream", "serve-dashboard", "update-flush")
SMOKE_SECONDS = 1.0
#: Wall-clock cap on one workload's subprocess.
CHILD_TIMEOUT_S = 175.0
#: Environment of every workload's subprocess.  glibc's allocator keeps
#: freed memory for reuse instead of unmapping each multi-megabyte decode
#: buffer and faulting in fresh zeroed pages for the next: those faults were
#: a fifth of a scan's time and varied with the host's memory load, which
#: shifted whole runs.  A fixed hash seed makes set and dict order, and so
#: the order of the program's work, the same in every run.
CHILD_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 31),
    "PYTHONHASHSEED": "0",
}


def benchmark_spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="SF 0.01, about 2 s a workload")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    run_seconds = SMOKE_SECONDS if args.smoke else benchmark_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds must be {run_seconds:g}, the fixed run length")
    args.seconds = run_seconds
    return args


def declared_metrics(section: str) -> list[str]:
    """Metric names ``BENCHMARK.json`` lists under ``section``."""
    return [m["name"] for m in benchmark_spec()[section]]


def result_line(record: dict) -> dict:
    """The contract's last line: the metrics BENCHMARK.json declares."""
    names = declared_metrics("per_layer" if record["trace"] else "end_to_end")
    metrics = record["metrics"]
    missing = [name for name in names if name not in metrics]
    if missing:
        raise KeyError(f"{record['workload']} produced no {', '.join(missing)}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    }


def print_record(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"seconds {record['seconds']:g}  trace {record['trace']}  "
        f"sf {record['scale_factor']:g}  rows {record['rows']}"
    )
    print(f"  {'metric':40s} {'value':>14s}  {'unit':12s} {'samples':>8s}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g}  {m['unit']:12s} {m['samples']:8d}")
    host = record["host"]
    print(
        f"  host calibration {host['calib_start_ms']:.2f} ms -> "
        f"{host['calib_end_ms']:.2f} ms"
        + ("  (DRIFT > 15%: machine speed changed during the run)"
           if host["calib_drift_flag"] else "")
    )
    print(
        f"  correct {record['correct']}  attempted {record['attempted']}  "
        f"failed {record['failed']}"
    )
    for label in record["wrong_answers"]:
        print(f"  WRONG ANSWER: {label}")
    for error in record["errors"]:
        print(f"  FAILED: {error.strip().splitlines()[-1]}")


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    smoke = "-smoke" if record["smoke"] else ""
    path = OUT_DIR / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}{smoke}"
        f"-{stamp}-{os.getpid()}.json"
    )
    if record["spans"] is not None:
        from .trace import SPAN_FIELDS

        record = dict(record, span_fields=SPAN_FIELDS)
    path.write_text(json.dumps(record) + "\n")
    return path


def run_child(args: argparse.Namespace) -> int:
    """Run one workload in this process; 0 only if every operation
    completed and every answer was right."""
    from .workloads import run_workload

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    line = result_line(record)
    print_record(record)
    print(f"  record: {write_record(record).relative_to(REPO)}")
    print(json.dumps(line), flush=True)
    return 0 if record["correct"] and not record["failed"] else 1


def spawn(args: argparse.Namespace, workload: str) -> tuple[int, dict | None]:
    """Run one workload in a fresh interpreter, echoing its output."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
    ] + (["--trace"] if args.trace else []) + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(
        cmd, cwd=REPO, stdout=subprocess.PIPE, text=True, env={**os.environ, **CHILD_ENV}
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            last = line
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        return (code or 1), None
    return code, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results, code = {}, 0
    for workload in workloads:
        child_code, result = spawn(args, workload)
        code = code or child_code
        if result is None:
            return code
        results[workload] = result
    if len(workloads) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }))
    return code


if __name__ == "__main__":
    # Run as a script, the benchmark imports itself as the ``bench``
    # package; its own directory must not shadow the standard library.
    sys.path[0] = str(REPO)
    sys.path.insert(1, str(REPO / "src"))
    from bench.run import main as package_main

    sys.exit(package_main())
