#!/usr/bin/env python3
"""Cold-process certificate benchmark for cubeint.

    python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each certificate runs as a closed loop with one client: one single-threaded
child interpreter at a time (child.py), started fresh so the module caches in
``shapes`` and ``cube`` start cold, calling ``cubeint.cli.main`` with the
workload's argv exactly as a user would.  Children never run in parallel.

--trace 0  Set-up probes, then fresh children back to back; a new child starts
           only while the last one's duration still fits in --seconds, and at
           least one runs.  Prints the end-to-end metrics (medians).
--trace 1  One traced child (spans.py); prints the per-layer metrics and the
           traced wall time, whose difference from the untraced runs' wall_ref
           is the tracing overhead.

Every report passes the correctness gate in gate.py or counts as failed.  The
last stdout line is the JSON result; the lines before it list every metric
with its unit, and fail_frac.  The workload seed reaches the program only as
``verify ints --seed``; the other two workloads have fixed inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check_report
from spans import summarise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".certbench-out"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7

WORKLOADS = {
    "large-chain": lambda seed: [["verify", "large", "--k", str(k)] for k in (6, 7, 8)],
    "small-window": lambda seed: [["verify", "small", "--k", "8"]],
    "ints-window": lambda seed: [["verify", "ints", "--k", "5", "--seed", str(seed)]],
}

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics but not bounded: raw seconds carry the
# host's speed drift, which the *_ref metrics divide out.
RAW_TIMES = {"wall_s": "s", "cpu_s": "s"}

PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "theorems.self_s": "s",
    "search.bfs_search.self_s": "s",
    "search.raw_children": "count",
    "search.pruned": "count",
    "search.survivors": "count",
    "search.depths": "count",
    "search.useful_frac": "ratio",
    "search.dedupe_frac": "ratio",
    "shapes.canonical_form.calls": "count",
    "shapes.canonical_form.distinct": "count",
    "shapes.canonical_form.self_s": "s",
    "shapes.canonical_form.max_s": "s",
    "shapes.canonical_form.repeat_frac": "ratio",
    "shapes.intersection_value_set.calls": "count",
    "shapes.intersection_value_set.distinct": "count",
    "shapes.intersection_value_set.self_s": "s",
    "shapes.intersection_value_set.repeat_frac": "ratio",
    "cube.intersection_size.calls": "count",
    "cube.intersection_size.self_s": "s",
    "cube.row_mask.builds": "count",
    "cube.row_mask.hits": "count",
    "trace.wall_s": "s",
    "trace.wall_ref": "ref",
}


class Run:
    """One benchmark run: its output directory, deadline and child processes."""

    def __init__(self, workload: str, seed: int):
        self.calls = WORKLOADS[workload](seed)
        self.dir = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = {
            **os.environ,
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
        }
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def probe(self) -> float:
        """Seconds from spawning an interpreter until cubeint.cli is imported."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "probe"],
            stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("cubeint.cli did not import in a fresh interpreter")
        return elapsed

    def child(self, spans: Path | None = None) -> dict | None:
        """Run every call of the workload in one fresh child and gate the reports.

        Returns the child's summary, or None when it crashed or timed out."""
        index = self.children
        self.children += 1
        outs = [self.dir / f"report-{index}-{i}.json" for i in range(len(self.calls))]
        spec = {
            "calls": [argv + ["--out", str(out)] for argv, out in zip(self.calls, outs)],
            "spans": str(spans) if spans else None,
        }
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "run", json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT, text=True,
        )
        with proc:
            try:
                stdout, stderr = proc.communicate(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                stdout, stderr = "", "timed out"
        self.attempted += len(self.calls)
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.failed += len(self.calls)
            self.problems.append(f"child {index}: no summary: {stderr.strip()[-400:]}")
            return None
        if not Path(summary["cubeint_file"]).resolve().is_relative_to(ROOT / "src"):
            self.problems.append(f"child {index}: imported cubeint from {summary['cubeint_file']}")
            self.failed += len(self.calls)
            return None
        summary["output_bytes"] = 0
        for argv, out, call in zip(self.calls, outs, summary["calls"]):
            try:
                text = out.read_text(encoding="utf-8")
                summary["output_bytes"] += len(text.encode())
                report = json.loads(text)
            except (OSError, json.JSONDecodeError):
                report = None
            problems = check_report(argv, call["exit"], report)
            if call["error"]:
                problems.append(call["error"].strip().splitlines()[-1])
            if problems:
                self.failed += 1
                self.problems.append(f"child {index} {' '.join(argv)}: {'; '.join(problems)}")
        return summary


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(run: Run, seconds: float) -> dict:
    run.probe()  # the first interpreter may still write bytecode caches
    setups = [run.probe() for _ in range(SETUP_PROBES)]
    summaries = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        summary = run.child()
        took = time.perf_counter() - began
        if summary is not None:
            summaries.append(summary)
        elapsed = time.perf_counter() - start
        if elapsed + took > seconds or took > run.remaining():
            break
    values = {key: _median([s[key] for s in summaries]) for key in ("wall_ref", "cpu_ref", *RAW_TIMES)}
    values["setup_s"] = _median(setups)
    values["peak_rss_mb"] = _median([s["peak_rss_kb"] / 1024 for s in summaries])
    return values


def _ratio(num, den):
    """num / den; 0 when nothing was attempted, absent when a source is."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(summary: dict, spans: list) -> dict:
    """Per-layer metrics of one traced child; None marks an absent counter."""
    stats = summarise(spans)
    installed = set(summary["installed"]) | {"cli.main"}

    def stat(name: str, key: str):
        if name not in installed:
            return None
        return stats.get(name, {}).get(key, 0)

    counters = summary["counters"]
    if "search.bfs_search" not in installed:
        counters.update({"search.pruned": None, "search.survivors": None, "search.depths": None})
    raw = None
    if {"search.bfs_search", "shapes.canonical_form"} <= installed:
        raw = stats.get("shapes.canonical_form", {}).get("parents", {}).get("search.bfs_search", 0)
    pruned = counters["search.pruned"]
    admitted = raw - pruned if raw is not None and pruned is not None else None
    theorems = [n for n in installed if n.startswith("theorems.")]

    metrics = {
        "cli.main.self_s": stat("cli.main", "self_s"),
        "cli.output_bytes": summary["output_bytes"],
        "theorems.self_s": sum(stat(n, "self_s") for n in theorems) if theorems else None,
        "search.bfs_search.self_s": stat("search.bfs_search", "self_s"),
        "search.raw_children": raw,
        "search.useful_frac": _ratio(admitted, raw),
        "search.dedupe_frac": _ratio(counters["search.survivors"], admitted),
        "cube.intersection_size.calls": stat("cube.intersection_size", "calls"),
        "cube.intersection_size.self_s": stat("cube.intersection_size", "self_s"),
        "trace.wall_s": summary["wall_s"],
        "trace.wall_ref": summary["wall_ref"],
        **counters,
    }
    for name in ("shapes.canonical_form", "shapes.intersection_value_set"):
        calls = stat(name, "calls")
        distinct = summary["distinct"].get(name)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.distinct"] = distinct
        metrics[f"{name}.self_s"] = stat(name, "self_s")
        repeats = calls - distinct if calls is not None and distinct is not None else None
        metrics[f"{name}.repeat_frac"] = _ratio(repeats, calls)
    metrics["shapes.canonical_form.max_s"] = stat("shapes.canonical_form", "max_s")
    return metrics


def traced(run: Run, workload: str, seed: int) -> dict:
    spans_path = OUT / f"spans-{workload}-{seed}.json"
    summary = run.child(spans=spans_path)
    if summary is None:
        return {name: None for name in PER_LAYER}
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return layer_metrics(summary, spans)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cubeint" / "cli.py").is_file():
        print(f"certbench: no cubeint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, units = traced(run, args.workload, args.seed), PER_LAYER
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in {**units, **({} if args.trace else RAW_TIMES)}.items():
        value = values.get(name)
        print(f"{name} {'absent' if value is None else value} {unit}")
    print(f"fail_frac {run.failed / run.attempted} ratio ({run.failed} of {run.attempted} certificate runs)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
