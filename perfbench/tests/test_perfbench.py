"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from perfbench import inputs, run, tracer as tr
from perfbench.workloads import (
    TINY,
    WORKLOADS,
    Learned,
    attempt,
    import_dagmix,
    import_seed_copy,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is True and result["failed"] == 0
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        printed = [line.split() for line in text if line.split()[:1] == [name]]
        assert printed and printed[0][2] == unit, f"{name} not printed with {unit}"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}


def test_failed_check_or_exception_counts_without_aborting(tmp_path):
    workload = WORKLOADS["gold-complete"](0, TINY, str(tmp_path), import_dagmix(ROOT))
    gold = workload.generating
    cyclic = inputs.Mixture(gold.weights, (((1,), (0,)),) * 3, gold.intercepts,
                            gold.coefficients, gold.variances)
    outcomes: list = []

    def boom():
        raise FloatingPointError("boom")

    attempt(outcomes, boom)
    attempt(outcomes, lambda: workload.judge(Learned(cyclic, [float("nan")], ["?"])))
    attempt(outcomes, lambda: workload.judge(Learned(gold, [-1.0], ["iteration-cap"])))
    assert [o.failed for o in outcomes] == [True, True, False]
    assert "FloatingPointError" in outcomes[0].problems[0]
    assert len(outcomes[1].problems) == 5  # three cycles, a NaN score, a bad termination


def _span(name, start, end, parent):
    return tr.Span(name, start, end, parent, op=0)


def test_self_time_subtracts_what_children_cover():
    spans = [
        _span("engine.fit", 0.0, 10.0, None),          # 0
        _span("engine.run_em", 1.0, 4.0, 0),           # 1
        _span("stats.expected_stats", 1.5, 2.5, 1),    # 2
        _span("stats.expected_stats", 2.5, 3.0, 1),    # 3
        _span("search.search_all_components", 5.0, 9.0, 0),  # 4
        _span("bayes.local_score", 6.0, 6.5, 4),       # 5
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 3.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("a", 0.0, 4.0, None),
        _span("b", 1.0, 3.0, 0),
        _span("c", 2.0, 5.0, 0),  # overlaps b and runs past the parent's end
    ]
    assert tr.self_times(spans)[0] == pytest.approx(1.0)


def test_ec_pass_is_told_from_em_sweeps_by_parent():
    t = tr.Tracer({})
    t.spans = [
        _span("engine.fit", 0.0, 10.0, None),
        _span("engine.run_em", 0.0, 4.0, 0),
        _span("stats.expected_stats", 1.0, 2.0, 1),
        _span("stats.expected_stats", 2.0, 3.0, 1),
        _span("stats.expected_stats", 4.0, 4.5, 0),
    ]
    m = t.metrics()
    assert m["stats.expected_stats.calls"][0] == 3
    assert m["stats.expected_stats.em_calls"][0] == 2
    assert m["stats.expected_stats.ec_calls"][0] == 1
    assert m["stats.expected_stats.ec_s"][0] == pytest.approx(0.5)
    assert m["engine.fit.self_s"][0] == pytest.approx(5.5)


def test_arcs_changed_counts_reversals_once():
    before = ((), (0,), (1,))
    after = ((1,), (), (0, 1))  # 0->1 reversed, 0->2 added
    assert tr.arcs_changed(before, after) == 2


def _bindings(modules):
    return {(m, a): getattr(modules[m], a) for m, a in tr.PATCH_POINTS}


def test_untraced_pass_leaves_every_function_unpatched(tmp_path):
    modules = import_dagmix(ROOT)
    before = _bindings(modules)
    workload = WORKLOADS["gold-complete"](0, TINY, str(tmp_path), modules)
    seed_copy = WORKLOADS["gold-complete"](0, TINY, str(tmp_path), import_seed_copy())
    tally, seed_tally = run.Tally(), run.Tally()
    run.run_untraced(((workload, tally), (seed_copy, seed_tally)), 0.0)
    assert tally.attempted == run.MIN_PAIRS * len(workload.fit_seeds)
    assert tally.failed == 0
    assert seed_tally.digests == tally.digests  # the copy learns what src does
    after = _bindings(modules)
    assert after == before
    for (module, attr), fn in after.items():
        assert not hasattr(fn, "__wrapped__"), f"{module}.{attr} is wrapped"
        assert fn.__module__.startswith("dagmix."), f"{module}.{attr} is not dagmix's"


def test_uninstall_restores_every_binding():
    modules = import_dagmix(ROOT)
    before = _bindings(modules)
    t = tr.Tracer(modules)
    t.install()
    try:
        patched = _bindings(modules)
        assert all(patched[k] is not before[k] for k in before)
        assert modules["cli"].fit is modules["engine"].fit
    finally:
        t.uninstall()
    assert _bindings(modules) == before
