"""Whole-request benchmark: source or module in, exit code out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hosted_mix --seed 1 --seconds 45 --trace 0

``--trace 0`` sets up the workload, runs the timed phase with tracing
off and prints the end-to-end metrics.  ``--trace 1`` runs a traced
pass and an untraced pass of half the time each and prints the per-layer
metrics, writing the spans as Chrome trace-event JSON under
``perfbench/traces/``.  Either way the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The benchmark imports the system from ``src/`` beside this directory and
refuses to run (non-zero exit, no result) when it is not there.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_system() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no system under test at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parents[1] != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


# -- metric helpers -----------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return ordered[int(rank) - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _expansion(outcomes) -> float:
    seen = {}
    for outcome in outcomes:
        if outcome.native_instrs is not None:
            seen[outcome.job.key] = (outcome.native_instrs,
                                     outcome.omni_instrs)
    native = sum(pair[0] for pair in seen.values())
    omni = sum(pair[1] for pair in seen.values())
    return _ratio(native, omni)


def throughput(outcomes, hosted: bool) -> float:
    """Completed requests per second: over the hosted phase's wall time,
    or over the summed request time of a closed loop (harness work
    between requests, such as generating the next program, is left
    out)."""
    if hosted:
        span = (max(o.end for o in outcomes) - min(o.start for o in outcomes))
    else:
        span = sum(outcome.seconds for outcome in outcomes)
    return _ratio(len(outcomes), span)


# -- set-up -------------------------------------------------------------------


def set_up(workload, seed: int):
    """Build and warm the workload.  Returns (state, setup seconds)."""
    start = time.perf_counter()
    state = workload.build(seed)
    workload.warm(state)
    return state, time.perf_counter() - start


def set_up_repeated(workload, seed: int, repeats: int):
    """Set the workload up *repeats* times, closing all but the last.
    Returns (last state, median setup seconds).  One set-up takes 1-3 s,
    short enough for the VM's speed swings to move it by half; the median
    over several spreads them out."""
    times = []
    for attempt in range(repeats):
        if attempt:
            workload.close(state)
            del state
            gc.collect()
        state, seconds = set_up(workload, seed)
        times.append(seconds)
    return state, statistics.median(times)


# -- end-to-end ---------------------------------------------------------------


def end_to_end(workload, state, seconds: float, floor: int, watch):
    gc.collect()  # start every run from the same heap; none while timed
    watch.reset_peak()
    outcomes = workload.phase(state, state.jobs, seconds, floor, watch)
    prefix = outcomes[:floor]
    latencies = [o.seconds * 1e3 for o in outcomes]
    failed = sum(not o.ok for o in outcomes)
    hosted = state.host is not None
    metrics = {
        "throughput_rps": _metric(throughput(outcomes, hosted), "1/s"),
        "latency_p50_ms": _metric(percentile(latencies, 0.50), "ms"),
        "latency_p90_ms": _metric(percentile(latencies, 0.90), "ms"),
        "ok_frac": _metric(1.0 - _ratio(failed, len(outcomes)), "frac"),
        "peak_rss_mb": _metric(watch.peak_mb, "MiB"),
        "sim_cycles": _metric(sum(o.cycles or 0 for o in prefix), "cycles"),
        "code_expansion": _metric(
            _expansion(workload.expansion_outcomes(state, prefix)), "ratio"),
    }
    return outcomes, metrics


# -- traced run ---------------------------------------------------------------

#: Per-layer metric -> unit, in report order.  ``calls`` and the
#: instruction counts are summed over the traced pass's first
#: TRACE_REQUESTS requests (so they repeat exactly); times and the
#: superblock count are means per request over the whole traced pass.
LAYER_UNITS = {
    "compiler.calls": "count", "compiler.self_ms": "ms/req",
    "compiler.omni_instrs": "count",
    "verifier.self_ms": "ms/req",
    "translators.calls": "count", "translators.self_ms": "ms/req",
    "translators.native_instrs": "count",
    "sfi.self_ms": "ms/req",
    "cache.hit_ratio": "ratio", "cache.evictions": "count",
    "cache.side_hit_ratio": "ratio",
    "memory.calls": "count", "memory.self_ms": "ms/req",
    "memory.mapped_mb": "MiB/call",
    "threaded.calls": "count", "threaded.predecode_ms": "ms/req",
    "jit.compile_ms": "ms/req", "jit.superblocks": "count/req",
    "jit.deopt_ratio": "ratio",
    "execute.self_ms": "ms/req", "execute.instret": "count",
    "execute.minstr_per_s": "M/s",
    "linker.calls": "count", "linker.self_ms": "ms/req",
    "linker.chunk_hit_ratio": "ratio",
    "service.queue_wait_ms": "ms/req", "service.busy_ms": "ms/req",
    "unattributed.share": "ratio", "trace.overhead_frac": "ratio",
}


def _attribute(tracer, outcomes) -> None:
    """Give every span the index of the request it ran for: the first
    request on the span's thread that ended after the span began.  A
    hosted request whose worker is unknown (it finished before its
    completion callback was registered) claims the unclaimed spans inside
    its execution interval."""
    by_thread: dict = {}
    for outcome in sorted(outcomes, key=lambda o: o.end):
        by_thread.setdefault(outcome.thread, []).append(outcome)
    ends = {thread: [o.end for o in outs] for thread, outs in by_thread.items()}
    for span in tracer.spans:
        outs = by_thread.get(span.thread)
        if outs:
            at = bisect.bisect_left(ends[span.thread], span.start)
            if at < len(outs):
                span.request = outs[at].index
    for outcome in by_thread.get(None, ()):
        for span in tracer.spans:
            if (span.request < 0
                    and outcome.exec_start <= span.start <= outcome.end):
                span.request = outcome.index


def traced(workload, state, seconds: float, floor: int, watch,
           trace_path: Path):
    from repro.metrics import MetricsCollector, collect
    from tracing import Tracer

    # The traced pass goes first, so its request prefix (and with it the
    # counts summed over that prefix) starts at a fixed point of the
    # seeded request stream.
    gc.collect()
    engine = state.engine
    cache_before = engine.stats()["cache"]
    tracer = Tracer()
    collector = MetricsCollector()
    with tracer.installed(), collect(collector):
        outcomes = workload.phase(state, state.jobs, seconds / 2, floor,
                                  watch)
    cache_after = engine.stats()["cache"]
    plain = workload.phase(state, state.jobs, seconds / 2, floor, watch)
    _attribute(tracer, outcomes)

    requests = len(outcomes)
    spans = [s for s in tracer.spans if s.request >= 0]
    head = [s for s in spans if s.request < floor]

    def self_ms(layer: str) -> float:
        return sum(s.self_seconds for s in spans if s.name == layer) \
            * 1e3 / requests

    def calls(layer: str) -> int:
        return sum(1 for s in head if s.name == layer)

    def summed(layer: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in head if s.name == layer)

    counters = collector.counters
    cache = {k: cache_after[k] - cache_before[k] for k in cache_after}
    jit_ms = counters.get("execute.jit_compile_ms", 0.0)
    execute_s = sum(s.self_seconds for s in spans if s.name == "execute") \
        - jit_ms / 1e3
    instret_all = sum(s.counts.get("instret", 0) for s in spans
                      if s.name == "execute")
    hosted = state.host is not None
    wall = sum(o.seconds for o in outcomes)
    covered = sum(s.seconds for s in spans if s.parent is None)
    queue_s = 0.0
    busy_s = 0.0
    if hosted:
        # A worker's first span can open before the request's start as
        # the client reconstructs it (completion time minus the service's
        # own latency figure); the earlier of the two is where it began.
        first = {}
        for span in spans:
            first[span.request] = min(span.start,
                                      first.get(span.request, span.start))
        for o in outcomes:
            o.exec_start = min(o.exec_start, first.get(o.index, o.end))
        queue_s = sum(o.exec_start - o.start for o in outcomes)
        busy_s = sum(o.end - o.exec_start for o in outcomes)
        covered += queue_s
    mapped = [s.counts["mapped_bytes"] for s in head if s.name == "memory"]
    values = {
        "compiler.calls": calls("compiler"),
        "compiler.self_ms": self_ms("compiler"),
        "compiler.omni_instrs": summed("compiler", "omni_instrs"),
        "verifier.self_ms": self_ms("verifier"),
        "translators.calls": calls("translators"),
        "translators.self_ms": self_ms("translators"),
        "translators.native_instrs": summed("translators", "native_instrs"),
        "sfi.self_ms": self_ms("sfi"),
        "cache.hit_ratio": _ratio(cache["hits"],
                                  cache["hits"] + cache["misses"]),
        "cache.evictions": cache["evictions"],
        "cache.side_hit_ratio": _ratio(
            cache["predecode_hits"],
            cache["predecode_hits"] + cache["predecode_misses"]),
        "memory.calls": calls("memory"),
        "memory.self_ms": self_ms("memory"),
        "memory.mapped_mb": _ratio(sum(mapped), len(mapped)) / (1 << 20),
        "threaded.calls": calls("threaded"),
        "threaded.predecode_ms": self_ms("threaded"),
        "jit.compile_ms": jit_ms / requests,
        "jit.superblocks": counters.get("execute.superblocks", 0) / requests,
        "jit.deopt_ratio": _ratio(counters.get("execute.deopts", 0),
                                  counters.get("execute.superblock_runs", 0)),
        "execute.self_ms": execute_s * 1e3 / requests,
        "execute.instret": summed("execute", "instret"),
        "execute.minstr_per_s": _ratio(instret_all, execute_s) / 1e6,
        "linker.calls": calls("linker"),
        "linker.self_ms": self_ms("linker"),
        "linker.chunk_hit_ratio": _ratio(
            counters.get("link.chunk_hit", 0),
            counters.get("link.chunk_hit", 0)
            + counters.get("link.chunk_miss", 0)),
        "service.queue_wait_ms": queue_s * 1e3 / requests,
        "service.busy_ms": busy_s * 1e3 / requests,
        "unattributed.share": _ratio(wall - covered, wall),
        "trace.overhead_frac": 1.0 - _ratio(throughput(outcomes, hosted),
                                            throughput(plain, hosted)),
    }
    metrics = {name: _metric(values[name], unit)
               for name, unit in LAYER_UNITS.items()}

    roots = []
    for o in outcomes:
        tid = o.thread or 0
        roots.append({"name": f"request {o.job.key}", "ph": "X", "pid": 1,
                      "tid": tid, "ts": o.start * 1e6,
                      "dur": o.seconds * 1e6,
                      "args": {"request": o.index, "ok": o.ok}})
        if o.exec_start is not None:
            roots.append({"name": "service.queue", "ph": "X", "pid": 1,
                          "tid": tid, "ts": o.start * 1e6,
                          "dur": (o.exec_start - o.start) * 1e6,
                          "args": {"request": o.index}})
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.chrome_trace(roots)))
    return outcomes + plain, metrics


# -- determinism --------------------------------------------------------------

#: Metrics that must repeat exactly across runs of one seed on one tree.
DETERMINISTIC = ("sim_cycles", "code_expansion", "execute.instret",
                 "compiler.omni_instrs", "translators.native_instrs")


def _tree_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload: str, seed: int, trace: int, metrics: dict,
                      records: Path = HERE / ".determinism") -> list[str]:
    """Compare the deterministic metrics with an earlier run of the same
    seed on the same source tree (recorded under *records*); returns the
    names that differ."""
    keep = {name: entry["value"] for name, entry in metrics.items()
            if name in DETERMINISTIC}
    record = records / f"{_tree_digest()}-{workload}-{seed}-{trace}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        return sorted(name for name in keep if earlier.get(name) != keep[name])
    records.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(keep))
    return []


# -- entry point --------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        floor: int | None = None, trace_dir: Path = HERE / "traces") -> dict:
    """Set up, measure and check one workload; returns the result object
    (its "metrics" as the command prints them) plus diagnostics.  The
    untraced run sets up the workload's ``setup_repeats`` times and
    reports the median; the traced run, which reports no set-up time,
    sets up once."""
    from workloads import MIN_REQUESTS, TRACE_REQUESTS, WORKLOADS, RssWatch

    workload = WORKLOADS[workload_name]
    repeats = 1 if trace else workload.setup_repeats
    with RssWatch() as watch:
        state, setup_s = set_up_repeated(workload, seed, repeats)
        try:
            if watch.exceeded:
                sys.exit("perfbench: resident memory crossed the ceiling "
                         "during set-up; no request ran")
            if trace:
                floor = TRACE_REQUESTS if floor is None else floor
                path = trace_dir / f"{workload_name}-seed{seed}.json"
                outcomes, metrics = traced(workload, state, seconds, floor,
                                           watch, path)
            else:
                floor = MIN_REQUESTS if floor is None else floor
                outcomes, metrics = end_to_end(workload, state, seconds,
                                               floor, watch)
                metrics["setup_s"] = _metric(setup_s, "s")
        finally:
            workload.close(state)
    warm_failed = [o for o in state.warm if not o.ok]
    failed = [o for o in outcomes if not o.ok]
    unsteady = _repeats_differ(state.warm + outcomes)
    return {
        "correct": not (failed or warm_failed or unsteady or watch.exceeded),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
        "errors": sorted({o.error for o in failed + warm_failed}
                         | {f"{key}: cycles or instret changed between "
                            f"runs of one program" for key in unsteady}),
        "rss_exceeded": watch.exceeded,
    }


def _repeats_differ(outcomes) -> list[str]:
    """Jobs that retired different cycles or instructions on different
    runs within this process (a nondeterministic translator or
    executor)."""
    seen: dict = {}
    differ = set()
    for o in outcomes:
        if o.ok and o.instret is not None:
            counts = (o.cycles, o.instret)
            if seen.setdefault(o.job.key, counts) != counts:
                differ.add(o.job.key)
    return sorted(differ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm_spec", "cold_modules", "hosted_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_system()

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    mismatched = check_determinism(args.workload, args.seed, args.trace,
                                   result["metrics"])
    for name in mismatched:
        print(f"perfbench: {name} differs from an earlier run of this seed",
              file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: failed request: {error}", file=sys.stderr)
    if result["rss_exceeded"]:
        print("perfbench: resident memory crossed the ceiling; run stopped",
              file=sys.stderr)
    correct = result["correct"] and not mismatched

    print(f"{args.workload}  seed {args.seed}  requests (latency samples) "
          f"{result['attempted']}  failed {result['failed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
