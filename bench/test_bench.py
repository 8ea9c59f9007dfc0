"""Tests of the benchmark itself: a tiny run of every workload, the metric
names against BENCHMARK.json, and the span tree of a traced run.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import os
from dataclasses import replace

import pytest

import run
import spans
from spans import nesting_errors, self_times
from workloads import WORKLOADS

ROOT = os.path.dirname(run.HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(wl):
    """A variant of ``wl`` that runs in about a second."""
    if wl.kind == "sweep":
        return replace(wl, steps=20, setup_repeats=1)
    return replace(wl, eps=(0.3,), trials=20, setup_repeats=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tmp_path, name, trace):
    line, record, work_dir = run.measure(ROOT, tiny(WORKLOADS[name]), 3, 0,
                                         trace, str(tmp_path))
    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_traced_spans_nest(tmp_path):
    _, record, work_dir = run.measure(ROOT, tiny(WORKLOADS["sweep-square"]), 1,
                                      0, 1, str(tmp_path))
    with open(os.path.join(work_dir, "spans.json")) as fh:
        spans = json.load(fh)
    assert nesting_errors(spans) == []
    assert min(self_times(spans)) >= 0
    by_name = {}
    for name, _, _, parent, _, _ in spans:
        by_name.setdefault(name, set()).add(spans[parent][0] if parent >= 0 else None)
    assert by_name["objectives.objective_and_gradient"] == {"trainer.train_gd"}
    assert by_name["cli.cmd_sweep"] == {"cli.main"}
    assert by_name["cli.main"] == {None}


def test_nesting_errors_flags_a_child_outside_its_parent():
    spans = [["a", 0.0, 1.0, -1, None, 0], ["b", 0.2, 1.5, 0, None, 0]]
    assert [err[1:] for err in nesting_errors(spans)] == \
        [("b", "outside parent"), ("a", "negative self time")]


def test_passes_of_a_run_share_the_seed_and_a_differing_pass_fails(tmp_path):
    _, record, _ = run.measure(ROOT, tiny(WORKLOADS["sweep-logistic"]), 5, 0, 0,
                               str(tmp_path))
    passes = record["pass_records"]
    assert len(passes) >= 2 and {p["seed"] for p in passes} == {5}
    assert run.digest_problems(passes) == []
    changed = passes + [{**passes[0], "digest": "0" * 64}]
    assert "outputs differ between passes" in run.digest_problems(changed)[0]


def test_missing_trace_target_is_reported(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("x.renamed", "oodbench.trainer", "no_such_function"),
        ("y.moved", "oodbench.no_such_module", "f")))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["x.renamed", "y.moved"]
