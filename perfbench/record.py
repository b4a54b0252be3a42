"""Summarize finished runs into one point of the performance trajectory.

Usage, from the root of a checkout, after running the benchmark with
several seeds per workload (untraced, and traced for the layer numbers):

    for w in warm-crossfile cli-cold; do for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload $w --seed $s --seconds 30 --trace 0; done; done
    python3 perfbench/run.py --workload warm-crossfile --seed 1 --seconds 30 --trace 1  # etc.
    python3 perfbench/record.py --label <commit>

It reads every run record in ``.bench_work/results`` and writes
``perfbench/trajectory/<label>.json``. For each workload and metric, the
file holds every value and their median and quartiles, by seed. The
spread is the distance between the quartiles divided by the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

import spans
from run import E2E_UNITS, WORK

TRAJECTORY = Path(__file__).resolve().parent / "trajectory"


def summarize(values: list[float], unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "unit": unit, "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median > 0 else None, "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="the measured commit")
    args = parser.parse_args()

    records = [json.loads(p.read_text()) for p in sorted((WORK / "results").glob("*.json"))]
    point = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for name in sorted({r["workload"] for r in records}):
        mine = sorted((r for r in records if r["workload"] == name), key=lambda r: r["seed"])
        plain = [r for r in mine if not r["trace"]]
        traced = [r for r in mine if r["trace"]]
        entry = {
            "seconds": sorted({r["seconds"] for r in mine}),
            "untraced_seeds": [r["seed"] for r in plain],
            "traced_seeds": [r["seed"] for r in traced],
            "all_correct": all(not r["problems"] for r in mine),
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "e2e": {
                metric: summarize([r["e2e"][metric] for r in plain], unit)
                for metric, unit in E2E_UNITS.items()
            } if plain else {},
            "layers": {
                metric: summarize([r["layers"][metric] for r in traced], unit)
                for metric, unit in spans.LAYER_UNITS.items()
            } if traced else {},
        }
        pairs = {r["seed"]: r["e2e"]["task_ms_p50"] for r in plain}
        overheads = [100 * (r["e2e"]["task_ms_p50"] / pairs[r["seed"]] - 1)
                     for r in traced if r["seed"] in pairs]
        if overheads:
            entry["tracing_overhead_pct"] = summarize(overheads, "%")
        point["workloads"][name] = entry
    TRAJECTORY.mkdir(exist_ok=True)
    out = TRAJECTORY / f"{args.label}.json"
    out.write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
