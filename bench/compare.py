"""Compare benchmark runs of a parent and a change, or summarize run sets.

    python bench/compare.py PARENT CHANGE
    python bench/compare.py --summary SET [SET ...]

Each argument is a run record written by ``bench/run.py`` to ``bench/out/``
or a directory of them.  Records pair up per workload in seed order, which
for alternating parent/change runs pairs each change run with its parent.

For every (workload, end-to-end metric) the verdict follows the rule the
benchmark was built for:

* ``better`` - the change wins at least 9 of 10 pairs (ties count for
  neither) and its median beats the parent's by more than the parent's
  inter-quartile distance;
* ``worse`` - the change's median is worse than the parent's by more than
  the metric's bound (for ``failed_frac``: any increase);
* ``unresolved`` - the parent's own spread exceeds the bound, unless every
  change run beats every parent run;
* ``unchanged`` - none of the above.

``--summary`` prints, per set, each metric's median and quartiles as JSON
(untraced records give the end-to-end metrics, traced ones the per-layer
metrics), plus the shift of each median from the first set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Bounds of the end-to-end metrics that exist only on some workloads, so
#: BENCHMARK.json (which needs every metric on every workload) omits them.
#: Wall-clock bounds are 0.25, like BENCHMARK.json's: the measured spread
#: of wall-clock metrics on the 2-vCPU host reaches 10-25%.
EXTRA_BOUNDS = {
    "lookup_p50_ms": 0.25,
    "lookup_p95_ms": 0.25,
    "flush_p50_ms": 0.25,
    "flush_p95_ms": 0.25,
    "failed_frac": 0.0,
}


def load_records(paths: list[str]) -> list[dict]:
    files = []
    for p in map(Path, paths):
        files.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    return [json.loads(f.read_text()) for f in files]


def metric_specs() -> dict[str, tuple[str, float]]:
    """Metric -> (better, bound) for every end-to-end metric compared."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, bound in EXTRA_BOUNDS.items():
        out.setdefault(name, ("lower", bound))
    return out


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    for runs in out.values():
        runs.sort(key=lambda r: r["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if wins >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return "better"
    if bound == 0.0:
        # No increase at all: compare totals, not medians of mostly zeros.
        return "worse" if sign * (sum(change) - sum(parent)) < 0 else "unchanged"
    if -gain > bound * abs(p_med):
        return "worse"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    if spread > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "unchanged"


def compare(parent: list[dict], change: list[dict]) -> list[tuple]:
    specs = metric_specs()
    rows = []
    p_runs, c_runs = by_workload(parent, 0), by_workload(change, 0)
    for workload in sorted(set(p_runs) & set(c_runs)):
        n = min(len(p_runs[workload]), len(c_runs[workload]))
        ps, cs = p_runs[workload][:n], c_runs[workload][:n]
        for name, (better, bound) in specs.items():
            if not all(name in r["metrics"] for r in ps + cs):
                continue
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            rows.append(
                (workload, name, quartiles(pv), quartiles(cv), n, verdict(pv, cv, better, bound))
            )
    return rows


def summary(sets: list[list[dict]]) -> dict:
    """Median and quartiles of every metric, per set and workload.

    Untraced records give the end-to-end metrics, traced records the
    per-layer ones.
    """
    e2e = metric_specs()
    out = {"sets": []}
    for records in sets:
        stats: dict = {}
        for trace in (0, 1):
            for workload, runs in by_workload(records, trace).items():
                entry = stats.setdefault(workload, {"seeds": {}, "metrics": {}})
                entry["seeds"]["traced" if trace else "untraced"] = [r["seed"] for r in runs]
                for name in runs[0]["metrics"]:
                    if (name in e2e) == bool(trace):
                        continue
                    values = [r["metrics"][name]["value"] for r in runs]
                    q1, med, q3 = quartiles(values)
                    entry["metrics"][name] = {
                        "median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / abs(med) if med else 0.0,
                        "unit": runs[0]["metrics"][name]["unit"], "n": len(values),
                    }
        out["sets"].append(stats)
    if len(sets) == 2:
        first, second = out["sets"]
        out["median_shift"] = {
            workload: {
                name: second[workload]["metrics"][name]["median"] / m["median"] - 1.0
                for name, m in entry["metrics"].items()
                if m["median"] and name in second.get(workload, {}).get("metrics", {})
            }
            for workload, entry in first.items()
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summary([load_records([p]) for p in args.paths]), indent=1))
        return 0
    if len(args.paths) != 2:
        parser.error("give PARENT and CHANGE")
    rows = compare(load_records([args.paths[0]]), load_records([args.paths[1]]))
    print(f"{'workload':16s} {'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'pairs':>5s}  verdict")
    for workload, name, p, c, n, v in rows:
        print(f"{workload:16s} {name:16s} "
              f"{p[1]:11.5g} [{p[0]:9.5g}, {p[2]:9.5g}] "
              f"{c[1]:11.5g} [{c[0]:9.5g}, {c[2]:9.5g}] {n:5d}  {v}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
