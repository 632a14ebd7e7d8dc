"""Smoke tests for the whole-request benchmark (tiny request counts).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro import Engine  # noqa: E402

E2E = {"throughput_rps", "latency_p50_ms", "latency_p90_ms", "ok_frac",
       "setup_s", "peak_rss_mb", "sim_cycles", "code_expansion"}
WORKLOADS = ("warm_spec", "cold_modules", "hosted_mix")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_contract_and_the_runner():
    config = _config()
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert config["paths"] == ["perfbench"]
    assert 1 <= config["run_seconds"] <= 60
    assert all(isinstance(arg, str) and len(arg) <= 200
               for arg in config["command"])
    # warm_spec runs by hand only: its spread across runs on a shared VM
    # exceeds the regression bounds (see baseline.json, "deviations").
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS[1:])
    names = []
    for workload in config["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in config["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in config["end_to_end"] + config["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert UNIT.match(metric["unit"])
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in config["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in config["end_to_end"])}]
    assert {m["name"] for m in config["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in config["per_layer"]} \
        == bench.LAYER_UNITS


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_reports_every_end_to_end_metric(name):
    result = bench.run(name, seed=3, seconds=0, trace=False, floor=3)
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 3 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in _config()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_and_writes_a_trace(name, tmp_path):
    result = bench.run(name, seed=3, seconds=0, trace=True, floor=3,
                       trace_dir=tmp_path)
    assert result["correct"], result["errors"]
    assert list(result["metrics"]) == list(bench.LAYER_UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["memory.calls"] == 3
    assert metrics["execute.instret"] > 0
    assert 0.0 <= metrics["unattributed.share"] < 1.0
    trace = json.loads((tmp_path / f"{name}-seed3.json").read_text())
    layers = {event["name"] for event in trace["traceEvents"]}
    assert {"memory", "execute"} <= layers


def test_repeated_set_up_reports_the_median_and_keeps_the_last(monkeypatch):
    built, closed = [], []

    class Fake:
        def build(self, seed):
            built.append(seed)
            return len(built)

        def warm(self, state):
            pass

        def close(self, state):
            closed.append(state)

    clock = iter([0.0, 5.0, 10.0, 11.0, 20.0, 23.0])
    monkeypatch.setattr(bench.time, "perf_counter", lambda: next(clock))
    state, seconds = bench.set_up_repeated(Fake(), 7, 3)
    assert (state, seconds, built, closed) == (3, 3.0, [7, 7, 7], [1, 2])


def test_tracer_removes_every_wrapper():
    import repro.runtime.native_loader as native_loader
    from tracing import Tracer

    before = (native_loader.translate, native_loader.NativeModule.run,
              Engine.compile)
    with Tracer().installed():
        assert native_loader.translate is not before[0]
    assert (native_loader.translate, native_loader.NativeModule.run,
            Engine.compile) == before


def _wrong(job):
    return dataclasses.replace(
        job, expected=job.expected + (1,),
        text=None if job.text is None else job.text + "1\n")


def _resplit(job):
    """The same digits, with the first line break moved one place left."""
    first = job.text.index("\n")
    text = job.text.replace("\n", "", 1)
    return dataclasses.replace(
        job, text=text[:first - 1] + "\n" + text[first - 1:])


def test_a_wrong_expectation_lowers_ok_frac_in_a_closed_loop():
    state = workloads.State(Engine(), iter(()))
    jobs = list(itertools.islice(corpus.cold_jobs(5), 4))
    state.jobs = iter([jobs[0], _wrong(jobs[1]), jobs[2], jobs[3]])
    with workloads.RssWatch() as watch:
        outcomes, metrics = bench.end_to_end(workloads.WORKLOADS[
            "cold_modules"], state, 0, 4, watch)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert metrics["ok_frac"]["value"] == 0.75


def test_a_wrong_expectation_fails_a_hosted_request():
    hosted = workloads.WORKLOADS["hosted_mix"]
    state = hosted.build(5)
    try:
        hosted.warm(state)
        link = next(job for job in state.pairs if job.modules)
        module = state.pairs[0]
        jobs = [module, _wrong(module), _resplit(module), link, _wrong(link)]
        with workloads.RssWatch() as watch:
            outcomes = hosted.phase(state, iter(jobs), 0, len(jobs), watch)
    finally:
        hosted.close(state)
    assert [o.ok for o in outcomes] == [True, False, False, True, False]
    # Cycles come from the hosted runs and match a direct run's.
    direct = {o.job.key: o.cycles for o in state.warm}
    assert [o.cycles for o in outcomes] == [direct[o.job.key]
                                            for o in outcomes]


@pytest.mark.parametrize("template", sorted(corpus.TEMPLATES))
def test_generated_oracles_hold_at_both_size_extremes(template):
    import random

    generate, (lo, hi) = corpus.TEMPLATES[template]
    engine = Engine()
    for helpers in (lo, hi):
        source, expected = generate(random.Random(helpers), helpers, 777)
        program = engine.compile(source)
        assert 30 <= len(program.instrs) <= 900
        for target in ("omnivm", "x86"):
            code, module = engine.run(program, target=target)
            assert code == 0
            assert tuple(module.host.output_values()) == tuple(expected)


def test_determinism_record_flags_a_changed_count(tmp_path):
    metrics = {"sim_cycles": {"value": 10, "unit": "cycles"},
               "latency_p50_ms": {"value": 1.5, "unit": "ms"}}
    assert bench.check_determinism("warm_spec", 1, 0, metrics,
                                   tmp_path) == []
    metrics["latency_p50_ms"]["value"] = 2.5
    assert bench.check_determinism("warm_spec", 1, 0, metrics,
                                   tmp_path) == []
    metrics["sim_cycles"]["value"] = 11
    assert bench.check_determinism("warm_spec", 1, 0, metrics,
                                   tmp_path) == ["sim_cycles"]


def test_refuses_to_run_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("tests", "traces",
                                                  ".determinism",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, *_config()["command"][1:], "--workload",
         "warm_spec", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
