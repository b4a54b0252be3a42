"""repolens benchmark: one workload, one seed, one timed run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload warm-crossfile --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` does the same
work with spans around every layer and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every correctness check passed, 1 when one failed and 2 when the
program to measure is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import cursors
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
E2E_UNITS = {
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "context_id_recall": "%",
    "ok_pct": "%",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is. Below 20 samples no percentile above the
    median qualifies, and the tail is the median."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank <= len(ordered) / 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100 * rank / len(ordered)


def traced(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    # These import repolens, so they load only once src/ is on the path.
    import prompts
    import workloads

    work = WORK / workload_name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if trace else None
    kind = workloads.WORKLOADS[workload_name]
    tasks = cursors.generate(kind.corpus, seed, kind.first_pass)
    workload = kind(work, tracer)
    if tracer is not None:
        spans.install(tracer)
    setup_s, setup_spans, unit_spans = [], [], []
    unit_ms, recalls, problems = [], [], []
    failures: list[str] = []
    attempted = 0
    try:
        for rep in range(SETUP_REPS):
            with traced(tracer, "setup"):
                setup_s.append(workload.setup(rep))
            if tracer is not None:
                setup_spans.append(tracer.drain())
        loop_started = time.perf_counter()
        # Closed loop, one client: cycle over the tasks until the time is
        # up, but always finish the first pass so quality covers them all.
        while attempted < len(tasks) or time.perf_counter() - loop_started < seconds:
            cursor = tasks[attempted % len(tasks)]
            first_pass = attempted < len(tasks)
            attempted += 1
            try:
                with traced(tracer, "unit"):
                    unit = workload.unit(cursor)
            except workloads.UnitFailed as exc:
                failures.append(f"{cursor.task_id}: {exc}")
                continue
            finally:
                if tracer is not None:
                    unit_spans.append(tracer.drain())
            unit_ms.append(unit.ms)
            found = prompts.check_prompt(
                unit.prompt, workload.expected_tail(cursor), workload.cfg.token_budget,
                workload.repo, workload.cfg.window,
            )
            if unit.completion != workload.expected_completion(cursor):
                found.append(f"completion {unit.completion!r} is not the backend's reply")
            problems += [f"{cursor.task_id}: {p}" for p in found]
            if first_pass:
                recalls.append(prompts.context_id_recall(cursor.truth, unit.prompt))
        loop_s = time.perf_counter() - loop_started
    finally:
        if tracer is not None:
            spans.uninstall(tracer)
        workload.close()

    failed = len(failures)
    if failed:
        # A failed first-pass task scores no recall: count it as zero.
        recalls += [0.0] * (len(tasks) - len(recalls))
    tail_ms, tail_pct = tail(unit_ms) if unit_ms else (float("nan"), 0.0)
    e2e = {
        "task_ms_p50": statistics.median(unit_ms) if unit_ms else float("nan"),
        "task_ms_tail": tail_ms,
        "tasks_per_s": len(unit_ms) / loop_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(kind.rss_of).ru_maxrss / 1024,
        "context_id_recall": 100 * statistics.mean(recalls) if recalls else 0.0,
        "ok_pct": 100 * (attempted - failed) / attempted,
    }
    layers = {}
    if trace:
        layers = spans.layer_metrics(unit_spans, setup_spans)
        layers["trace.task_ms_p50"] = e2e["task_ms_p50"]
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "problems": problems[:20], "samples": len(unit_ms), "tail_pct": tail_pct,
        "loop_s": loop_s, "setup_runs_s": setup_s, "unit_ms": unit_ms, "e2e": e2e, "layers": layers,
    }


def report(result: dict) -> None:
    """Human-readable lines, before the final JSON line."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print(f"  units attempted {result['attempted']}, failed {result['failed']}"
          f" (failed_ratio {result['failed'] / result['attempted']:.4f}),"
          f" timed loop {result['loop_s']:.1f} s")
    print(f"  task_ms_tail is p{result['tail_pct']:.1f} of {result['samples']} samples")
    print("  set-up runs (s): " + ", ".join(f"{s:.3f}" for s in result["setup_runs_s"]))
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<20} {result['e2e'][name]:12.4f} {unit}")
    for name, value in result["layers"].items():
        print(f"  {name:<38} {value:12.4f}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    for line in result["problems"]:
        print(f"  WRONG {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=["warm-crossfile", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repolens" / "cli.py").is_file():
        print(f"error: no repolens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)

    if args.trace:
        untraced = results / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["e2e"]["task_ms_p50"]
            print(f"  tracing overhead on task_ms_p50: {result['e2e']['task_ms_p50'] - base:+.1f} ms"
                  f" ({100 * (result['e2e']['task_ms_p50'] / base - 1):+.1f}%) against the untraced run")
        else:
            print("  tracing overhead: run the same seed with --trace 0 first to compare")
        metrics = {name: {"value": value, "unit": spans.LAYER_UNITS[name]}
                   for name, value in result["layers"].items()}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
