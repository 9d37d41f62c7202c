"""Tests of the benchmark's own logic.

    python3 -m pytest certbench -q
"""
from __future__ import annotations

import copy
import json
import signal
import subprocess
import sys
import time

import pytest

import gate
import run
from child import SpeedSampler
from spans import Tracer, self_times, summarise

# --- self-time arithmetic -----------------------------------------------------

# root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7].
TREE = [
    ["root", 0.0, 10.0, -1],
    ["a", 1.0, 4.0, 0],
    ["b", 5.0, 9.0, 0],
    ["c", 6.0, 7.0, 2],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["y", 4.0, 8.0, 0], ["z", 9.0, 12.0, 0]]
    # x and y cover [2, 8]; z is clipped to [9, 10]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_summarise_aggregates_by_name_and_parent():
    spans = TREE + [["c", 7.5, 8.5, 2], ["c", 1.5, 2.0, 1]]
    stats = summarise(spans)
    assert stats["c"]["calls"] == 3
    assert stats["c"]["self_s"] == pytest.approx(2.5)
    assert stats["c"]["max_s"] == pytest.approx(1.0)
    assert stats["c"]["parents"] == {"b": 2, "a": 1}
    assert stats["root"]["parents"] == {None: 1}


def test_tracer_records_nesting_and_distinct_keys():
    tracer = Tracer()

    class Shape:
        def __init__(self, edges):
            self.edges = edges

    inner = tracer._wrap("shapes.canonical_form", lambda shape: shape)
    outer = tracer._wrap("search.bfs_search", lambda: [inner(Shape(((1, 2),))) for _ in range(3)])
    tracer.installed = {"shapes.canonical_form", "search.bfs_search"}
    tracer.span("cli.main", outer)
    names = [(name, parent) for name, _s, _e, parent in tracer.spans]
    assert names == [("cli.main", -1), ("search.bfs_search", 0)] + [("shapes.canonical_form", 1)] * 3
    assert all(end >= start for _n, start, end, _p in tracer.spans)
    assert tracer.distinct()["shapes.canonical_form"] == 1
    assert tracer.distinct()["shapes.intersection_value_set"] is None  # not installed
    assert len(tracer.search_results) == 1


def test_speed_sampler_samples_while_the_calls_run():
    with SpeedSampler() as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 4  # one at each edge, one per 0.2 s tick
    assert sampler.rate() == pytest.approx(
        sum(1 / d for d in sampler.samples) / len(sampler.samples)
    )
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- correctness gate -----------------------------------------------------------


def _check(name, **details):
    return {"name": name, "passed": True, "details": details}


SMALL_REPORT = {
    "config": {"k": 8, "seed": 0, "verb": "verify", "what": "small"},
    "result": {
        "passed": True,
        "checks": [
            _check("strict interior of the window", found=[126], expected=[126]),
            _check("window altogether", window=[120, 126, 128]),
            _check("four-condition survivors", raw=10, canonical=6),
        ],
    },
}
SMALL_ARGV = ["verify", "small", "--k", "8"]


def test_gate_accepts_seed_facts():
    assert gate.check_report(SMALL_ARGV, 0, SMALL_REPORT) == []


def test_gate_rejects_window_with_a_fourth_value():
    doctored = copy.deepcopy(SMALL_REPORT)
    doctored["result"]["checks"][1]["details"]["window"] = [120, 126, 127, 128]
    assert gate.check_report(SMALL_ARGV, 0, doctored)


@pytest.mark.parametrize(
    "exit_code, edit",
    [
        (1, lambda r: None),
        (0, lambda r: r["result"].update(passed=False)),
        (0, lambda r: r["result"]["checks"][2]["details"].update(canonical=7)),
        (0, lambda r: r["result"]["checks"].pop(0)),
    ],
)
def test_gate_rejects_doctored_small_reports(exit_code, edit):
    doctored = copy.deepcopy(SMALL_REPORT)
    edit(doctored)
    assert gate.check_report(SMALL_ARGV, exit_code, doctored)


def test_gate_checks_large_chain_and_ints_seed():
    k = 6
    checks = [_check(f"H+({n},{k}) matches", computed=c) for n, c in gate.LARGE_CHAINS[k].items()]
    large = {"config": {}, "result": {"passed": True, "checks": checks}}
    argv = ["verify", "large", "--k", str(k)]
    assert gate.check_report(argv, 0, large) == []
    checks[-1]["details"]["computed"] = checks[-1]["details"]["computed"][1:]
    assert gate.check_report(argv, 0, large)

    ints = {
        "config": {"seed": 0},
        "result": {"passed": True, "checks": [
            _check("no stray sizes from non-unit entries", bad_rows=6967, pure_rows=238)
        ]},
    }
    argv = ["verify", "ints", "--k", "5", "--seed", "7"]
    assert gate.check_report(argv, 0, ints) == ["config.seed: got 0, want 7"]
    assert gate.check_report(argv, 0, None) == ["no report"]


# --- per-layer metrics ----------------------------------------------------------


def _traced_child(tmp_path, argv):
    spans = tmp_path / "spans.json"
    spec = {"calls": [argv + ["--out", str(tmp_path / "report.json")]], "spans": str(spans)}
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "child.py"), "run", json.dumps(spec)],
        capture_output=True, text=True, env={"PYTHONPATH": str(run.ROOT / "src")},
        timeout=120, check=True,
    )
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["output_bytes"] = (tmp_path / "report.json").stat().st_size
    report = json.loads((tmp_path / "report.json").read_text())
    return summary, json.loads(spans.read_text()), report


def test_layer_metrics_of_a_traced_large_search(tmp_path):
    summary, spans, _ = _traced_child(tmp_path, ["verify", "large", "--k", "6"])
    metrics = run.layer_metrics(summary, spans)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["search.raw_children"] == metrics["shapes.canonical_form.calls"] > 0
    assert metrics["search.depths"] == 6
    assert 0 < metrics["search.useful_frac"] <= 1
    assert 0 < metrics["shapes.canonical_form.distinct"] <= metrics["shapes.canonical_form.calls"]
    assert metrics["cube.row_mask.builds"] > 0
    assert metrics["trace.wall_s"] > metrics["shapes.canonical_form.self_s"] > 0


def test_ints_never_enters_shapes_or_search(tmp_path):
    summary, spans, report = _traced_child(tmp_path, ["verify", "ints", "--k", "3", "--seed", "7"])
    metrics = run.layer_metrics(summary, spans)
    assert report["config"]["seed"] == 7
    assert metrics["shapes.canonical_form.calls"] == 0
    assert metrics["shapes.intersection_value_set.calls"] == 0
    assert metrics["search.raw_children"] == 0
    assert metrics["search.useful_frac"] == metrics["shapes.canonical_form.repeat_frac"] == 0
    assert metrics["cube.row_mask.builds"] > 0


def test_missing_counter_sources_are_absent(tmp_path):
    summary, spans, _ = _traced_child(tmp_path, ["verify", "ints", "--k", "3", "--seed", "1"])
    summary["installed"] = ["theorems.ints_window_check"]
    summary["counters"].update({"cube.row_mask.builds": None, "cube.row_mask.hits": None})
    metrics = run.layer_metrics(summary, spans)
    assert metrics["cube.row_mask.builds"] is None
    assert metrics["shapes.canonical_form.calls"] is None
    assert metrics["search.pruned"] is None
    assert metrics["theorems.self_s"] > 0


def test_counter_sources_removed_by_a_refactor_read_as_absent(monkeypatch):
    import importlib

    import child
    from spans import BINDINGS

    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    for module_name, attr, _ in BINDINGS:  # restore whatever install() wraps
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    from cubeint import cube, theorems

    monkeypatch.setattr(cube, "_row_mask", lambda k, coeffs, unit: 0)
    assert set(child._row_mask_counters().values()) == {None}
    monkeypatch.delattr(cube, "_row_mask")
    assert set(child._row_mask_counters().values()) == {None}

    monkeypatch.delattr(theorems, "bfs_search")
    tracer = Tracer()
    tracer.install()
    assert "search.bfs_search" not in tracer.installed
    assert "shapes.canonical_form" in tracer.installed


def test_run_refuses_a_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "ints-window", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
