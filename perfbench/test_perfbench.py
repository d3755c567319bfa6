"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

The smoke tests run the real command on a one-second budget, so they
take about a minute in total.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.clips import CLIP_ORDER, REFERENCE_S, select_clips
from perfbench.common import failing_px
from perfbench.layout import LayoutWorkload
from perfbench.service import MIX, ServiceWorkload, build_jobs
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_dropped_shot_is_flagged_as_failing():
    from repro.bench.shapes import agb_suite
    from repro.mask.constraints import FractureSpec

    spec = FractureSpec()
    known = agb_suite(spec)[0]
    shots = list(known.generator_shots)
    assert failing_px(shots, known.shape, spec) == 0
    assert failing_px(shots[1:], known.shape, spec) > 0


def test_service_mix_follows_bench_service_batch():
    from benchmarks.bench_service import LARGE_PRIORITY, build_workload

    batch = build_workload(reduced=False)
    bars = sum(1 for job in batch if job["priority"] == LARGE_PRIORITY)
    assert len(MIX) == len(batch)
    assert MIX.count("bar") == bars
    assert MIX.count("fresh") == MIX.count("resubmit") == MIX.count("repeat")
    widths = [
        job["clips"][f"bar-{k}"][1][0]
        for k, job in enumerate(j for j in build_jobs(0, 5.0) if j["kind"] == "bar")
    ]
    assert len(set(widths)) == len(widths)


def test_missing_service_clip_is_flagged():
    from repro.mask.constraints import FractureSpec

    workload = object.__new__(ServiceWorkload)
    workload.spec = FractureSpec()
    square = [[0.0, 0.0], [40.0, 0.0], [40.0, 40.0], [0.0, 40.0]]
    job = {"name": "job", "kind": "repeat",
           "clips": {"a": square, "b": square}}
    result = {"clips": {"a": {"shots": [[0.0, 0.0, 40.0, 40.0]],
                              "failing_px": 0}}}
    problems: list[str] = []
    op = type("Op", (), {"shots": 0, "failing_px": 0})()
    workload._check(result, job, op, {}, problems)
    assert any("job/b: no result" in p for p in problems)


def test_missing_layout_result_is_flagged():
    from benchmarks.bench_hierarchy import arrayed_layout
    from repro.mask.constraints import FractureSpec
    from repro.mask.hierarchy import fracture_layout
    from repro.methods import make_fracturer

    workload = object.__new__(LayoutWorkload)
    workload.spec = FractureSpec()
    layout = arrayed_layout(2, 1)
    report = fracture_layout(
        layout, make_fracturer("partition"), workload.spec, hierarchy=True
    )
    problems: list[str] = []
    workload._array_failing(report, layout, "array", problems)
    assert problems == []
    report.results.pop()
    workload._array_failing(report, layout, "array", problems)
    assert problems and "results for" in problems[0]


def test_clip_selection():
    assert sorted(select_clips(96.0)) == sorted(REFERENCE_S)
    assert list(CLIP_ORDER[:3]) == ["ILT-6", "ILT-1", "ILT-7"]
    default = select_clips(BENCHMARK["run_seconds"])
    assert "ILT-6" in default
    assert any(name.startswith("AGB") for name in default)
    assert any(name.startswith("RGB") for name in default)
    assert len(select_clips(0.0)) == 1


def test_service_mix_is_seed_invariant():
    counts = None
    for seed in (0, 1, 2):
        jobs = build_jobs(seed, 5.0)
        assert jobs[0]["kind"] == "fresh"
        kinds = sorted(job["kind"] for job in jobs)
        assert counts in (None, kinds)
        counts = kinds
        fresh = []
        for job in jobs:
            if job["kind"] == "fresh":
                fresh.append(job["clips"])
            elif job["kind"] == "resubmit":
                assert job["clips"] in fresh
    assert set(counts) == set(MIX)
    assert build_jobs(7, 5.0) == build_jobs(7, 5.0)


def test_tracer_self_time_and_coverage():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.02)
        with tracer.span("outer"):
            time.sleep(0.01)
    assert tracer.busy_s("outer") == pytest.approx(outer.duration)
    assert tracer.self_s("outer") < outer.duration - 0.015
    assert tracer.covered_s(outer.start, outer.end) == pytest.approx(
        outer.duration
    )
    assert tracer.covered_s(outer.end, outer.end + 1.0) == 0.0


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.timeout(600)
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_reports_every_metric(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]),
                            (1, BENCHMARK["per_layer"])):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {
            name: metric["unit"] for name, metric in result["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in declared}
