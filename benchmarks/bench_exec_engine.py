"""Execution-engine benchmark: legacy dispatch vs. threaded vs. JIT.

Measures dynamic-instruction throughput of the execution tiers — the
legacy per-instruction dispatcher, the predecoded threaded-code engine
(:mod:`repro.omnivm.threaded` / :mod:`repro.targets.threaded`), and the
trace-based superblock JIT (:mod:`repro.omnivm.jit` on the reference
interpreter, :mod:`repro.targets.jit` on the four target simulators) —
for every executor on the four SPEC-derived workloads, and emits the
``BENCH_exec_engine.json`` artifact at the repository root.

All engines must retire the *same* dynamic instruction count and
produce the same output (asserted per run), so the comparison is pure
dispatch overhead: predecoded closures and compiled superblocks versus
the big-switch loops.  The JIT is measured
twice.  ``jit_cold_seconds`` is one run on a fresh
:class:`~repro.cache.TranslationCache`, compile time included — what a
first request pays.  The warm runs then share that cache, so their
best-of-N ``jit_seconds`` reflects compiled superblocks — the steady
state of a long-running module.  Per executor, ``breakeven_dispatches``
is the heat at which compiling a superblock pays for itself: cold
compile ms per superblock over the threaded ms a dispatch would save
(:data:`SAVED_FRACTION` of a threaded block).

One run's geomeans swing by a quarter from run to run on a loaded
machine, so the artifact holds :data:`RUNS` full runs: ``runs`` lists
each run's per-executor summaries, and each summary field at the top
level (the bars read them) is the median over the runs.

The artifact schema is guarded by :func:`validate_artifact`, which the
tier-1 suite invokes (``tests/test_threaded_engine.py``) so the JSON
contract cannot silently rot.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from pathlib import Path

from repro.cache import TranslationCache
from repro.runtime.loader import load_for_interpretation
from repro.runtime.native_loader import load_for_target
from repro.translators import ARCHITECTURES
from repro.workloads import suite

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_exec_engine.json"
)

SCHEMA_VERSION = 5

#: Full runs per artifact; every bar reads their median (schema v5).
RUNS = 3

#: The interpreter plus the four target simulators.
EXECUTORS = ("omnivm",) + ARCHITECTURES

#: keys every per-run entry must carry (the artifact contract)
RESULT_KEYS = frozenset(
    ("workload", "executor", "legacy_seconds", "threaded_seconds",
     "legacy_instret", "threaded_instret", "legacy_ips", "threaded_ips",
     "speedup")
)

#: additional keys every entry carries for the JIT tier (schema v3:
#: the superblock JIT covers the interpreter *and* all four targets;
#: v4: the cold run with compile time, and threaded block dispatches)
JIT_RESULT_KEYS = frozenset(
    ("jit_seconds", "jit_instret", "jit_ips", "jit_speedup",
     "jit_superblocks", "jit_deopts", "jit_compile_ms",
     "jit_cold_seconds", "threaded_blocks")
)

#: Per-executor summaries of one run (schema v5: ``runs`` holds each
#: run's, and the top-level field their median).
SUMMARY_FIELDS = ("geomean_speedup", "geomean_jit_over_threaded",
                  "geomean_jit_cold_over_threaded", "breakeven_dispatches")

#: Share of a threaded block dispatch's time that running it inside a
#: superblock saves, for ``breakeven_dispatches``: a round figure inside
#: the 41-78% that the warm per-kernel speedups (1.7-4.5x) imply.
SAVED_FRACTION = 0.7

#: Acceptance bars from the issue: threaded must beat legacy by at
#: least this factor, per executor (geometric mean over workloads).
MIN_SPEEDUP = {"omnivm": 2.0, "mips": 1.5, "ppc": 1.5, "sparc": 1.5,
               "x86": 1.5}

#: The JIT tier must beat the *threaded* engine by this factor
#: (geometric mean over workloads, warm superblock cache).
MIN_JIT_SPEEDUP = {"omnivm": 2.0, "mips": 1.8, "ppc": 1.8, "sparc": 1.8,
                   "x86": 1.8}


def _measure(program, name: str, executor: str, engine: str,
             repeats: int, cache=None) -> tuple[float, int, object]:
    best = None
    instret = None
    module = None
    for _ in range(repeats):
        if executor == "omnivm":
            module = load_for_interpretation(program, engine=engine,
                                             cache=cache)
        else:
            module = load_for_target(program, executor, engine=engine,
                                     cache=cache)
        gc.collect()
        start = time.perf_counter()
        module.run()
        elapsed = time.perf_counter() - start
        if not suite.check_output(name, module.host.output_values()):
            raise AssertionError(
                f"{executor}/{name}/{engine}: wrong workload output")
        retired = (module.vm.state.instret if executor == "omnivm"
                   else module.machine.instret)
        if instret is None:
            instret = retired
        elif instret != retired:
            raise AssertionError(
                f"{executor}/{name}/{engine}: instret varies across runs")
        if best is None or elapsed < best:
            best = elapsed
    return best, instret, module


def _machine(module):
    return module.vm if hasattr(module, "vm") else module.machine


def _geomean(values) -> float:
    values = list(values)
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def collect_benchmark(
    workloads: tuple[str, ...] = suite.WORKLOAD_NAMES,
    executors: tuple[str, ...] = EXECUTORS,
    repeats: int = 1,
) -> dict:
    """Measure legacy vs. threaded (vs. JIT on omnivm) execution for
    every (executor, workload) pair.  Returns the artifact payload
    (does not write it).

    Each run checks the workload's expected output, and the engines
    must agree on retired dynamic instructions — the threaded engine's
    block-level accounting changes *when* fuel is checked, never the
    retired count of a completed run, and the JIT's superblocks commit
    the same counts as the blocks they replace.
    """
    results = []
    for executor in executors:
        for name in workloads:
            program = suite.build(name)
            legacy_s, legacy_i, _ = _measure(
                program, name, executor, "legacy", repeats)
            threaded_s, threaded_i, threaded = _measure(
                program, name, executor, "threaded", repeats)
            if legacy_i != threaded_i:
                raise AssertionError(
                    f"{executor}/{name}: instret diverged "
                    f"({legacy_i} legacy vs {threaded_i} threaded)")
            entry = {
                "workload": name,
                "executor": executor,
                "legacy_seconds": legacy_s,
                "threaded_seconds": threaded_s,
                "legacy_instret": legacy_i,
                "threaded_instret": threaded_i,
                "legacy_ips": legacy_i / legacy_s,
                "threaded_ips": threaded_i / threaded_s,
                "speedup": legacy_s / threaded_s,
            }
            # Cold run populates the shared cache and pays the
            # compile cost; the timed repeats then reuse the
            # compiled superblocks, like a long-running module.
            cache = TranslationCache()
            cold_s, _, cold = _measure(
                program, name, executor, "jit", 1, cache=cache)
            jit_s, jit_i, warm = _measure(
                program, name, executor, "jit", repeats, cache=cache)
            if jit_i != threaded_i:
                raise AssertionError(
                    f"{executor}/{name}: instret diverged "
                    f"({threaded_i} threaded vs {jit_i} jit)")
            cold_m = _machine(cold)
            warm_m = _machine(warm)
            entry.update({
                "threaded_blocks": _machine(threaded)._blocks_run,
                "jit_cold_seconds": cold_s,
                "jit_seconds": jit_s,
                "jit_instret": jit_i,
                "jit_ips": jit_i / jit_s,
                "jit_speedup": threaded_s / jit_s,
                "jit_superblocks": cold_m._superblocks_compiled,
                "jit_deopts": warm_m._jit_deopts,
                "jit_compile_ms": cold_m._jit_compile_ms,
            })
            results.append(entry)
    summary = {field: {} for field in SUMMARY_FIELDS}
    for executor in executors:
        mine = [r for r in results if r["executor"] == executor]
        summary["geomean_speedup"][executor] = _geomean(
            r["speedup"] for r in mine)
        summary["geomean_jit_over_threaded"][executor] = _geomean(
            r["jit_speedup"] for r in mine)
        summary["geomean_jit_cold_over_threaded"][executor] = _geomean(
            r["threaded_seconds"] / r["jit_cold_seconds"] for r in mine)
        compile_ms = (sum(r["jit_compile_ms"] for r in mine)
                      / sum(r["jit_superblocks"] for r in mine))
        block_ms = (sum(r["threaded_seconds"] for r in mine) * 1000.0
                    / sum(r["threaded_blocks"] for r in mine))
        summary["breakeven_dispatches"][executor] = (
            compile_ms / (SAVED_FRACTION * block_ms))
    return {
        "benchmark": "exec_engine",
        "schema_version": SCHEMA_VERSION,
        "workloads": list(workloads),
        "repeats": repeats,
        "results": results,
        "runs": [summary],
        **summary,
    }


def median_of_runs(payloads: list[dict]) -> dict:
    """One artifact from several :func:`collect_benchmark` payloads:
    every run's results (each tagged with its ``run`` index) and
    summaries, and per executor the median of each summary field."""
    results = [dict(entry, run=index)
               for index, payload in enumerate(payloads)
               for entry in payload["results"]]
    runs = [run for payload in payloads for run in payload["runs"]]
    return {
        **payloads[0],
        "results": results,
        "runs": runs,
        **{field: {executor: statistics.median(run[field][executor]
                                               for run in runs)
                   for executor in runs[0][field]}
           for field in SUMMARY_FIELDS},
    }


def validate_artifact(payload: dict) -> None:
    """Raise AssertionError unless *payload* matches the artifact
    contract consumed by the benchmark trajectory."""
    assert payload.get("benchmark") == "exec_engine", "bad benchmark id"
    assert payload.get("schema_version") == SCHEMA_VERSION, "schema drift"
    assert isinstance(payload.get("workloads"), list) and payload["workloads"]
    assert isinstance(payload.get("repeats"), int)
    results = payload.get("results")
    assert isinstance(results, list) and results, "no results"
    executors = set()
    for entry in results:
        missing = RESULT_KEYS - entry.keys()
        assert not missing, f"result entry missing keys: {sorted(missing)}"
        assert entry["executor"] in EXECUTORS
        assert entry["workload"] in payload["workloads"]
        assert entry["legacy_seconds"] > 0 and entry["threaded_seconds"] > 0
        assert entry["legacy_instret"] == entry["threaded_instret"], (
            "engines disagree on retired instructions")
        assert entry["legacy_instret"] > 0
        missing = JIT_RESULT_KEYS - entry.keys()
        assert not missing, (
            f"entry missing jit keys: {sorted(missing)}")
        assert entry["jit_seconds"] > 0
        assert entry["jit_instret"] == entry["threaded_instret"], (
            "jit tier disagrees on retired instructions")
        assert entry["jit_superblocks"] > 0, "jit never compiled"
        assert entry["jit_compile_ms"] > 0
        assert entry["jit_deopts"] >= 0
        assert entry["jit_cold_seconds"] > 0
        assert entry["threaded_blocks"] > 0
        executors.add(entry["executor"])
    summary = payload.get("geomean_speedup")
    assert isinstance(summary, dict) and set(summary) == executors
    for executor, value in summary.items():
        assert value > 0
    jit_summary = payload.get("geomean_jit_over_threaded")
    assert isinstance(jit_summary, dict)
    assert set(jit_summary) == executors, (
        "schema v3: every executor reports a jit geomean")
    for executor, value in jit_summary.items():
        assert value > 0
    for field in ("geomean_jit_cold_over_threaded", "breakeven_dispatches"):
        per_executor = payload.get(field)
        assert isinstance(per_executor, dict), f"schema v4: no {field}"
        assert set(per_executor) == executors, (
            f"schema v4: every executor reports {field}")
        assert all(value > 0 for value in per_executor.values())
    runs = payload.get("runs")
    assert isinstance(runs, list) and runs, "schema v5: no runs"
    for field in SUMMARY_FIELDS:
        for executor, value in payload[field].items():
            median = statistics.median(run[field][executor] for run in runs)
            assert math.isclose(value, median, rel_tol=1e-12), (
                f"schema v5: {field}[{executor}] is not the median of "
                f"its runs")


def write_artifact(payload: dict, path: Path = ARTIFACT_PATH) -> Path:
    validate_artifact(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def bench_exec_engine(save_result):
    """Full-size run (all executors, all workloads) emitting the JSON
    artifact and enforcing the speedup acceptance bars."""
    payload = median_of_runs([collect_benchmark(repeats=3)
                              for _ in range(RUNS)])
    path = write_artifact(payload)
    lines = ["execution engine: legacy vs threaded vs jit "
             "(dynamic instructions / second); geomeans are the median "
             f"of {RUNS} runs"]
    for entry in payload["results"]:
        line = (
            f"  run {entry['run']} {entry['executor']:<6}"
            f" {entry['workload']:<9}"
            f" legacy {entry['legacy_ips'] / 1e3:8.1f}k ips"
            f"   threaded {entry['threaded_ips'] / 1e3:8.1f}k ips"
            f"   speedup {entry['speedup']:5.2f}x"
        )
        cold_s = entry["jit_cold_seconds"]
        line += (f"   jit cold {cold_s * 1e3:7.1f} ms"
                 f" ({entry['threaded_seconds'] / cold_s:.2f}x over"
                 f" threaded, {entry['jit_superblocks']} superblocks,"
                 f" {entry['jit_compile_ms']:.1f} ms compile)"
                 f"   warm {entry['jit_ips'] / 1e3:8.1f}k ips"
                 f" ({entry['jit_speedup']:.2f}x)")
        lines.append(line)

    def each_run(field, executor):
        return " ".join(f"{run[field][executor]:.2f}x"
                        for run in payload["runs"])

    for executor, geomean in payload["geomean_speedup"].items():
        bar = MIN_SPEEDUP[executor]
        lines.append(f"  {executor:<6} geomean {geomean:5.2f}x"
                     f"  (runs {each_run('geomean_speedup', executor)};"
                     f" bar {bar:.1f}x)")
        assert geomean >= bar, (
            f"{executor}: threaded engine {geomean:.2f}x below the "
            f"{bar:.1f}x acceptance bar")
    cold = payload["geomean_jit_cold_over_threaded"]
    for executor, geomean in cold.items():
        lines.append(
            f"  {executor:<6} jit-cold-over-threaded geomean "
            f"{geomean:5.2f}x  (runs "
            f"{each_run('geomean_jit_cold_over_threaded', executor)};"
            f" compile included; no bar)")
    for executor, geomean in payload["geomean_jit_over_threaded"].items():
        bar = MIN_JIT_SPEEDUP[executor]
        lines.append(
            f"  {executor:<6} jit-over-threaded geomean {geomean:5.2f}x"
            f"  (runs {each_run('geomean_jit_over_threaded', executor)};"
            f" warm; bar {bar:.1f}x)")
        assert geomean >= bar, (
            f"{executor}: jit tier {geomean:.2f}x over threaded, below "
            f"the {bar:.1f}x acceptance bar")
    for executor, heat in payload["breakeven_dispatches"].items():
        lines.append(f"  {executor:<6} break-even heat {heat:5.0f}"
                     f" dispatches  (at {SAVED_FRACTION:.0%} saved each)")
    save_result("exec_engine", "\n".join(lines))
    print(f"\nartifact: {path}")
