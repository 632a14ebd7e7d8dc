"""The concurrent module-hosting service (`repro.service`).

Covers the worker pool, deadlines, quotas, interpreter fallback, queue
overflow, the thread-safety of the shared translation cache, and the
throughput-benchmark artifact contract.  All tests here are fast and
deterministic (tier-1)."""

import importlib.util
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import metrics
from repro.cache import TranslationCache
from repro.compiler import compile_and_link
from repro.engine import Engine, RunConfig
from repro.errors import ServiceOverloaded
from repro.native.profiles import MOBILE_SFI
from repro.service import (
    LATENCY_WINDOW,
    CappedHost,
    FaultInjector,
    ModuleHost,
    ModuleRequest,
    ModuleResponse,
    RequestQuota,
    ServiceStats,
)
from repro.translators import translate

BENCH_PATH = (Path(__file__).resolve().parents[1] / "benchmarks"
              / "bench_service_throughput.py")

SRC = "int main() { emit_int(42); return 0; }"
SPINNER_SRC = """
int main() {
    int i;
    i = 0;
    while (1) { i = i + 1; }
    return i;
}
"""
LOOP_SRC = """
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 1000; i = i + 1) { s = s + i * 3; }
    emit_int(s);
    return 0;
}
"""
EMITTER_SRC = """
int main() {
    int i;
    for (i = 0; i < 50; i = i + 1) { emit_int(i); }
    return 0;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_and_link([SRC])


@pytest.fixture(scope="module")
def spinner():
    return compile_and_link([SPINNER_SRC])


class TestBasics:
    def test_run_one_request(self, program):
        with Engine(target="mips").serve(workers=2) as host:
            response = host.run(ModuleRequest(program=program))
        assert response.ok and response.exit_code == 0
        assert response.output == "42"
        assert response.arch == "mips" and not response.fallback

    def test_source_text_is_compiled(self):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(program=SRC))
        assert response.ok and response.output == "42"
        assert response.arch == "omnivm"

    def test_request_ids_are_assigned(self, program):
        with Engine().serve(workers=1) as host:
            first = host.run(ModuleRequest(program=program))
            named = host.run(ModuleRequest(program=program,
                                           request_id="mine"))
        assert first.request_id.startswith("req-")
        assert named.request_id == "mine"

    def test_engine_serve_entry_point(self):
        host = Engine().serve(workers=3)
        assert isinstance(host, ModuleHost) and host.workers == 3
        host.stop()  # never started: no-op

    def test_exported_at_top_level(self):
        for name in ("ModuleHost", "ModuleRequest", "ModuleResponse",
                     "RequestQuota", "FaultInjector",
                     "DeadlineExceeded", "QuotaExceeded",
                     "ServiceOverloaded"):
            assert hasattr(repro, name), name

    def test_response_to_dict_round_trips(self, program):
        with Engine().serve(workers=1) as host:
            payload = host.run(ModuleRequest(program=program)).to_dict()
        assert payload["ok"] is True and payload["exit_code"] == 0
        assert isinstance(payload["latency_seconds"], float)


class TestConcurrency:
    def test_many_concurrent_requests(self, program):
        with Engine(target="mips").serve(workers=8, queue_depth=16) as host:
            responses = host.run_batch(
                [ModuleRequest(program=program) for _ in range(12)])
        assert len(responses) == 12
        assert all(r.ok and r.output == "42" for r in responses)
        counters = host.stats.counters
        assert counters["request"] == 12 and counters["ok"] == 12
        assert counters.get("error", 0) == 0

    def test_submitting_threads_share_one_host(self, program):
        host = Engine(target="x86").serve(workers=4)
        results: list[ModuleResponse] = []
        lock = threading.Lock()

        def client():
            response = host.run(ModuleRequest(program=program))
            with lock:
                results.append(response)

        threads = [threading.Thread(target=client) for _ in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        host.stop()
        assert len(results) == 10 and all(r.ok for r in results)
        assert host.stats.counters["ok"] == 10

    @pytest.mark.parametrize("target", [None, "x86"], ids=["omnivm", "x86"])
    def test_machines_on_one_module_keep_their_own_memory_caches(
            self, target):
        """Two workers run the same module, so they install the same
        compiled superblocks.  Each machine must get its own closure:
        shared inline memory caches let one request read and write the
        other's segments whenever a thread switch lands mid-loop."""
        n = 3000
        source = f"""
int a[{n}];
int b[{n}];
int c[{n}];
int main() {{
    int i;
    a[0] = 1;
    for (i = 1; i < {n}; i = i + 1) {{ a[i] = a[i - 1] + i; }}
    b[0] = 2;
    for (i = 1; i < {n}; i = i + 1) {{ b[i] = b[i - 1] + a[i]; }}
    c[0] = 3;
    for (i = 1; i < {n}; i = i + 1) {{ c[i] = c[i - 1] ^ b[i]; }}
    emit_int(c[{n - 1}]);
    return 0;
}}
"""
        program = compile_and_link([source])
        a, b, c = [1], [2], [3]
        for i in range(1, n):
            a.append((a[-1] + i) & 0xFFFFFFFF)
            b.append((b[-1] + a[i]) & 0xFFFFFFFF)
            c.append(c[-1] ^ b[i])
        expected = str(c[-1] - (1 << 32) if c[-1] >= 1 << 31 else c[-1])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(2e-5)
        try:
            with Engine(target=target).serve(workers=2) as host:
                responses = host.run_batch(
                    [ModuleRequest(program=program) for _ in range(40)])
        finally:
            sys.setswitchinterval(interval)
        wrong = [r.request_id for r in responses
                 if not (r.ok and r.output == expected)]
        assert len(responses) == 40 and not wrong

    def test_latency_percentiles_and_queue_depth(self, program):
        with Engine().serve(workers=2, queue_depth=8) as host:
            host.run_batch([ModuleRequest(program=program)
                            for _ in range(6)])
        pct = host.stats.latency_percentiles()
        assert 0 < pct["p50"] <= pct["p90"] <= pct["p99"]
        payload = host.stats.to_dict()
        assert payload["completed_requests"] == 6
        assert payload["queue_high_water"] >= 0


class TestDeadlines:
    def test_runaway_module_times_out(self, spinner):
        with Engine(target="mips").serve(workers=2) as host:
            response = host.run(ModuleRequest(
                program=spinner, deadline_seconds=0.1,
                quota=RequestQuota(fuel=10 ** 9)))
        assert not response.ok
        assert response.error == "DeadlineExceeded"
        assert host.stats.counters["timeout"] == 1

    def test_runaway_does_not_stall_other_requests(self, program, spinner):
        with Engine(target="mips").serve(workers=4) as host:
            requests = [ModuleRequest(program=program) for _ in range(6)]
            requests.insert(0, ModuleRequest(
                program=spinner, request_id="runaway",
                deadline_seconds=0.15, quota=RequestQuota(fuel=10 ** 9)))
            responses = host.run_batch(requests)
        by_id = {r.request_id: r for r in responses}
        assert by_id["runaway"].error == "DeadlineExceeded"
        others = [r for r in responses if r.request_id != "runaway"]
        assert len(others) == 6 and all(r.ok for r in others)

    def test_default_deadline_applies(self, spinner):
        with Engine(target="mips").serve(
                workers=1, default_deadline=0.1) as host:
            response = host.run(ModuleRequest(
                program=spinner, quota=RequestQuota(fuel=10 ** 9)))
        assert response.error == "DeadlineExceeded"

    def test_fuel_quota_is_not_misreported_as_deadline(self, spinner):
        with Engine(target="mips").serve(workers=1) as host:
            response = host.run(ModuleRequest(
                program=spinner, deadline_seconds=30.0,
                quota=RequestQuota(fuel=20_000)))
        assert response.error == "FuelExhausted"
        assert host.stats.counters.get("timeout", 0) == 0


class TestQuotas:
    def test_output_byte_cap(self):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(
                program=EMITTER_SRC,
                quota=RequestQuota(max_output_bytes=16)))
        assert not response.ok
        assert response.error == "QuotaExceeded"
        assert host.stats.counters["quota_exceeded"] == 1

    def test_entry_byte_accounting(self):
        from repro.service import _entry_bytes

        assert _entry_bytes("int", 7) == 4
        assert _entry_bytes("uint", 7) == 4
        assert _entry_bytes("char", 65) == 1
        assert _entry_bytes("double", 1.5) == 8
        assert _entry_bytes("str", "hello") == 5

    def test_capped_host_accounts_during_execution(self):
        engine = Engine()
        program = engine.compile(EMITTER_SRC)  # 50 ints -> 200 bytes
        host = CappedHost(max_output_bytes=None)
        module = engine.load(program, config=RunConfig(host=host))
        module.run()
        assert host.output_bytes == 200

    def test_segment_size_quota_flows_through(self, program):
        with Engine(target="mips").serve(workers=1) as host:
            response = host.run(ModuleRequest(
                program=program,
                quota=RequestQuota(segment_size=1 << 16)))
        assert response.ok and response.output == "42"

    def test_refused_native_load_names_its_arch(self):
        engine = Engine(target="mips")
        with engine.serve(workers=1) as host:
            response = host.run(ModuleRequest(
                program="int main() { emit_int(1); return 0; }",
                quota=RequestQuota(segment_size=1 << 25)))
        assert not response.ok and response.error == "QuotaExceeded"
        assert response.arch == "mips" and not response.fallback
        assert engine.stats()["counters"]["service.quota_exceeded"] == 1


class TestRetryAndFallback:
    """A native load is attempted once: when it fails, the request
    falls back to the interpreter at once."""

    def test_translator_fault_falls_back_to_interpreter(self, program):
        faults = FaultInjector()
        faults.fail_translations(count=-1)
        with Engine(target="mips").serve(workers=1, faults=faults) as host:
            response = host.run(ModuleRequest(program=program))
        assert response.ok and response.fallback
        assert response.arch == "omnivm" and response.output == "42"
        assert host.stats.counters["fallback"] == 1
        assert faults.fired == 1

    def test_arch_specific_fault_spares_other_targets(self, program):
        faults = FaultInjector()
        faults.fail_translations(count=-1, arch="sparc")
        with Engine().serve(workers=2, faults=faults) as host:
            good = host.run(ModuleRequest(program=program, target="mips"))
            degraded = host.run(ModuleRequest(program=program,
                                              target="sparc"))
        assert good.ok and not good.fallback and good.arch == "mips"
        assert degraded.ok and degraded.fallback

    def test_unknown_arch_degrades_gracefully(self, program):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(program=program,
                                              target="vax"))
        assert response.ok and response.fallback
        assert response.arch == "omnivm"


class TestOverloadAndErrors:
    def test_full_queue_rejects_nonblocking_submit(self, program):
        faults = FaultInjector()
        faults.delay_execution(0.2)
        with Engine().serve(workers=1, queue_depth=1,
                            faults=faults) as host:
            pendings = []
            with pytest.raises(ServiceOverloaded):
                for _ in range(8):  # worker + queue can absorb at most 2
                    pendings.append(
                        host.submit(ModuleRequest(program=program)))
            assert host.stats.counters["rejected"] >= 1
            for pending in pendings:
                assert pending.result(timeout=10.0).ok

    def test_module_trap_is_a_typed_error_response(self):
        trap_src = "int main() { int z; z = 0; return 1 / z; }"
        with Engine(target="mips").serve(workers=1) as host:
            response = host.run(ModuleRequest(program=trap_src))
        assert not response.ok
        assert response.error == "VMRuntimeError"
        assert host.stats.counters["error"] == 1

    def test_compile_error_is_a_typed_error_response(self):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(program="int main( {"))
        assert not response.ok
        assert response.error and "Error" in response.error

    def test_worker_pool_survives_errors(self, program):
        with Engine().serve(workers=1) as host:
            bad = host.run(ModuleRequest(program="int main( {"))
            good = host.run(ModuleRequest(program=program))
        assert not bad.ok and good.ok


class TestServiceMetrics:
    def test_counters_mirrored_into_engine_metrics(self, program):
        engine = Engine(target="mips")
        with engine.serve(workers=2) as host:
            host.run_batch([ModuleRequest(program=program)
                            for _ in range(3)])
        counters = engine.stats()["counters"]
        assert counters["service.request"] == 3
        assert counters["service.ok"] == 3

    def test_served_runs_count_their_execution(self):
        """The engine's collector sees a served module execute, as it
        sees an ``Engine.run``: N served runs retire N times the native
        instructions of one run."""
        loop = compile_and_link([LOOP_SRC])
        reference = Engine(target="mips")
        reference.run(loop)
        one = reference.stats()["counters"]["execute.native.instret"]
        engine = Engine(target="mips")
        with engine.serve(workers=1) as host:
            responses = host.run_batch([ModuleRequest(program=loop)
                                        for _ in range(3)])
        assert all(response.ok for response in responses)
        stats = engine.stats()
        assert stats["counters"]["execute.native.instret"] == 3 * one
        assert stats["stage_calls"]["execute"] == 3
        assert stats["counters"]["execute.superblocks"] >= 1

    def test_counts_do_not_depend_on_the_worker_count(self):
        """Workers that overlap install the engine's collector once
        between them, so each event is counted once."""
        def source(k):
            body = "\n".join(f"s = s + (i * {k + j}) % {j + 7};"
                             for j in range(12))
            return (f"int f(int n) {{ int i; int s; s = 0; "
                    f"for (i = 0; i < n; i = i + 1) {{ {body} }} "
                    f"return s; }}\n"
                    f"int main() {{ emit_int(f({k + 3})); return 0; }}")

        sources = [source(k) for k in range(16)]

        def counts(workers):
            engine = Engine(target="mips")
            with engine.serve(workers=workers) as host:
                responses = host.run_batch(
                    [ModuleRequest(program=text) for text in sources])
            assert all(response.ok for response in responses)
            stats = engine.stats()
            return (stats["stage_calls"]["frontend.lex"],
                    stats["counters"]["cache.miss"],
                    stats["cache"]["misses"],
                    stats["counters"]["service.request"])

        assert counts(4) == counts(1) == (16, 16, 16, 16)

    def test_counters_visible_to_ambient_collector(self, program):
        collector = metrics.MetricsCollector()
        with metrics.collect(collector):
            with Engine().serve(workers=1) as host:
                host.run(ModuleRequest(program=program))
        assert collector.counters["service.request"] == 1

    def test_stats_counting_is_thread_safe(self):
        stats = ServiceStats()

        def hammer():
            for _ in range(1000):
                stats.count("request")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.counters["request"] == 8000


class TestSharedCacheConcurrency:
    """N threads hammering one TranslationCache: no lost entries, no
    torn counters, no crashes."""

    def test_hammer_get_put_invalidate(self):
        sources = [f"int main() {{ emit_int({n}); return 0; }}"
                   for n in range(4)]
        programs = [compile_and_link([src]) for src in sources]
        translations = [translate(p, "mips", MOBILE_SFI) for p in programs]
        cache = TranslationCache(capacity=3)  # force evictions too
        rounds = 60
        errors = []

        def worker(index: int):
            try:
                for round_ in range(rounds):
                    program = programs[(index + round_) % len(programs)]
                    translated = translations[(index + round_)
                                              % len(translations)]
                    cache.put(program, "mips", MOBILE_SFI, translated)
                    cache.get(program, "mips", MOBILE_SFI)
                    if round_ % 10 == 9:
                        cache.invalidate(program=program)
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats.stores == 8 * rounds
        assert stats.hits + stats.misses == 8 * rounds
        assert len(cache) <= 3

    def test_disk_backed_hammer_leaves_no_temp_files(self, tmp_path):
        program = compile_and_link([SRC])
        translated = translate(program, "mips", MOBILE_SFI)
        cache = TranslationCache(capacity=2, disk_dir=tmp_path)
        errors = []

        def worker():
            try:
                for _ in range(40):
                    cache.put(program, "mips", MOBILE_SFI, translated)
                    assert cache.get(program, "mips", MOBILE_SFI) \
                        is not None
            except Exception as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not list(tmp_path.glob("*.tmp"))
        fresh = TranslationCache(disk_dir=tmp_path)
        assert fresh.get(program, "mips", MOBILE_SFI) is not None

    def test_engine_cache_shared_across_service_workers(self, program):
        engine = Engine(target="mips")
        with engine.serve(workers=6) as host:
            host.run_batch([ModuleRequest(program=program)
                            for _ in range(10)])
        stats = engine.cache.stats()
        # every request either translated-and-stored or hit the shared
        # cache; nothing was lost
        assert stats.hits + stats.misses == 10
        assert stats.misses == stats.stores
        assert stats.hits >= 1


class TestDeadlineBudget:
    """The whole request — compile, link and load included — spends
    one wall-clock budget."""

    def test_fail_fast_when_budget_spent_before_execution(self, program):
        # A zero budget is spent by the time the load returns, so the
        # request must fail fast instead of starting an execution that
        # is born expired.
        with Engine(target="mips").serve(workers=1) as host:
            start = time.perf_counter()
            response = host.run(ModuleRequest(
                program=program, deadline_seconds=0.0))
            elapsed = time.perf_counter() - start
        assert response.error == "DeadlineExceeded"
        assert "before execution" in response.error_message
        assert elapsed < 2.0


class TestLatencyWindow:
    """Latency samples are a bounded ring buffer (regression: a
    long-lived host leaked one float per request, forever)."""

    def test_window_bounds_samples_but_not_totals(self):
        stats = ServiceStats()
        for i in range(LATENCY_WINDOW + 92):
            stats.observe_latency(float(i))
        assert len(stats.latencies) == LATENCY_WINDOW
        assert stats.completed == LATENCY_WINDOW + 92
        assert stats.to_dict()["completed_requests"] == LATENCY_WINDOW + 92

    def test_percentiles_reflect_recent_window_on_overflow(self):
        stats = ServiceStats()
        for i in range(LATENCY_WINDOW + 92):
            stats.observe_latency(float(i))
        pct = stats.latency_percentiles()
        # Only samples 92 and later remain; percentiles must come from
        # them, not the evicted early (low) observations.
        assert pct["p50"] == 92 + round(0.50 * (LATENCY_WINDOW - 1))
        assert pct["p99"] == 92 + round(0.99 * (LATENCY_WINDOW - 1))

    def test_default_window(self):
        assert ServiceStats().latencies.maxlen == LATENCY_WINDOW

class TestSingleFlightStampede:
    def test_hundred_request_stampede_translates_once(self):
        # 100 concurrent requests for one uncached module, 8 workers:
        # the cache's single-flight protocol elects one translator and
        # parks everyone else on its entry — exactly one store, 99 hits.
        engine = Engine(target="mips")
        with engine.serve(workers=8) as host:
            pending = [host.submit(ModuleRequest(program=SRC), block=True)
                       for _ in range(100)]
            responses = [p.result(timeout=120.0) for p in pending]
        assert all(r.ok for r in responses)
        stats = engine.cache.stats()
        assert stats.stores == 1
        assert stats.misses >= 1
        assert stats.hits == 99


class TestBenchmarkSmoke:
    """Tier-1 guard on the BENCH_service_throughput.json contract."""

    @pytest.fixture(scope="class")
    def bench(self):
        spec = importlib.util.spec_from_file_location(
            "bench_service_throughput", BENCH_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def payload(self, bench):
        program = compile_and_link([SRC])
        return bench.collect_benchmark(
            program=program, worker_counts=(2, 8),
            requests_per_batch=4, governance_requests=8,
            sharded_requests=24, sharded_modules=4,
            stampede_requests=30)

    def test_payload_validates(self, bench, payload):
        bench.validate_artifact(payload)
        # schema pin: v2 added the sharded + single-flight sections
        assert payload["schema_version"] == bench.SCHEMA_VERSION == 2

    def test_sharded_section_is_honest_about_cores(self, bench, payload):
        sharded = payload["sharded"]
        cores = os.cpu_count() or 1
        assert sharded["cpu_count"] == cores
        if cores < bench.SHARDED_MIN_CORES:
            # Graceful skip on small machines: visible, justified, and
            # the sharded path still ran (reduced mix, all ok).
            assert sharded["skipped"]
            assert sharded["skip_reason"]
        else:
            assert not sharded["skipped"]
            assert sharded["scaling_x"] >= bench.SHARDED_SCALING_BAR
        assert sharded["results"]
        for entry in sharded["results"]:
            assert entry["ok"] == entry["requests"]

    def test_single_flight_stampede_translated_once(self, payload):
        single_flight = payload["single_flight"]
        assert single_flight["stores"] == 1
        assert single_flight["ok"] == single_flight["requests"]

    def test_committed_artifact_is_schema_v2(self, bench):
        artifact = json.loads(bench.ARTIFACT_PATH.read_text())
        bench.validate_artifact(artifact)
        assert artifact["schema_version"] == 2

    def test_sustains_eight_concurrent_requests(self, payload):
        assert payload["results"][-1]["workers"] >= 8
        governance = payload["governance"]
        assert governance["concurrent_requests"] >= 8
        assert governance["timeouts"] >= 1
        assert governance["fallbacks"] >= 1

    def test_every_result_entry_complete(self, bench, payload):
        for entry in payload["results"]:
            assert not (bench.RESULT_KEYS - entry.keys())
            assert entry["ok"] == 2 * payload["requests_per_batch"]
