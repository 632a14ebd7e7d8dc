"""The pipeline metrics layer."""

import json
import sys
import threading

from repro import metrics
from repro.compiler import compile_and_link
from repro.metrics import MetricsCollector
from repro.native.profiles import MOBILE_NOSFI, MOBILE_SFI
from repro.runtime.loader import run_module
from repro.runtime.native_loader import run_on_target

from tests.conftest import run_everywhere

SRC = """
int main() {
    int a[8];
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < 8; i = i + 1) {
        a[i] = i * i;
    }
    for (i = 0; i < 8; i = i + 1) {
        sum = sum + a[i];
    }
    emit_int(sum);
    return 0;
}
"""


class TestCollector:
    def test_count_and_stage(self):
        collector = MetricsCollector()
        collector.count("x", 2)
        collector.count("x")
        with collector.stage("phase"):
            pass
        assert collector.counters["x"] == 3
        assert collector.stage_calls["phase"] == 1
        assert collector.stage_seconds["phase"] >= 0.0

    def test_module_helpers_are_noops_when_inactive(self):
        assert not metrics.active()
        metrics.count("ignored")          # must not raise
        with metrics.stage("ignored"):    # must not raise
            pass
        assert metrics.current() is None

    def test_collect_activates_and_restores(self):
        with metrics.collect() as collector:
            assert metrics.active()
            assert metrics.current() is collector
            metrics.count("seen")
        assert not metrics.active()
        assert collector.counters["seen"] == 1

    def test_nested_collectors_both_record(self):
        with metrics.collect() as outer:
            with metrics.collect() as inner:
                metrics.count("both", 5)
        assert outer.counters["both"] == 5
        assert inner.counters["both"] == 5

    def test_a_collector_installed_twice_counts_once(self):
        with metrics.collect() as collector:
            with metrics.collect(collector):
                metrics.count("event")
            assert metrics.current() is collector  # still installed
            metrics.count("event")
        assert not metrics.active()
        assert collector.counters["event"] == 2

    def test_overlapping_threads_count_once(self):
        """Installation is process-wide: a collector two threads hold
        at once observes each event once, and stays installed until
        both have released it."""
        collector = MetricsCollector()
        both_inside = threading.Barrier(2)
        released = threading.Event()

        def hold():
            with metrics.collect(collector):
                both_inside.wait()
                released.wait()

        thread = threading.Thread(target=hold)
        thread.start()
        with metrics.collect(collector):
            both_inside.wait()
            metrics.count("event")
            with metrics.stage("phase"):
                pass
        metrics.count("event")  # the other thread still holds it
        released.set()
        thread.join()
        assert not metrics.active()
        assert collector.counters["event"] == 2
        assert collector.stage_calls["phase"] == 1

    def test_install_churn_counts_every_event_once(self):
        """Stress: more threads than cores install and release one
        collector over and over, counting while they hold it.  A lost
        update to the hold count would drop events or leave the
        collector installed; a double install would count twice."""
        collector = MetricsCollector()
        threads, rounds = 8, 300
        interval = sys.getswitchinterval()

        def churn():
            for _ in range(rounds):
                with metrics.collect(collector):
                    metrics.count("event")

        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert collector.counters["event"] == threads * rounds
        assert not metrics.active()

    def test_merge_and_reset(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.count("n", 1)
        a.record_stage("s", 0.25)
        b.count("n", 2)
        b.record_stage("s", 0.5)
        a.merge(b)
        assert a.counters["n"] == 3
        assert a.stage_seconds["s"] == 0.75
        assert a.stage_calls["s"] == 2
        a.reset()
        assert not a.counters and not a.stage_seconds and not a.stage_calls

    def test_serialization_round_trip(self):
        collector = MetricsCollector()
        collector.count("translate.omni_instrs", 10)
        collector.count("translate.native_instrs", 14)
        data = json.loads(collector.to_json())
        assert data["counters"]["translate.native_instrs"] == 14
        assert data["expansion_ratio"] == 1.4
        assert "translate.omni_instrs" in collector.render()

    def test_expansion_ratio_none_without_data(self):
        assert MetricsCollector().expansion_ratio() is None
        assert MetricsCollector().dynamic_expansion_ratio() is None


class TestPipelineInstrumentation:
    def test_compile_stages_recorded(self):
        with metrics.collect() as collector:
            compile_and_link([SRC])
        for stage in ("frontend.lex", "frontend.parse", "frontend.sema",
                      "ir.build", "opt", "codegen", "link"):
            assert collector.stage_calls[stage] >= 1, stage
        assert collector.counters["frontend.tokens"] > 0
        assert collector.counters["codegen.omni_instrs"] > 0

    def test_interpreter_counts_retired_instructions(self):
        program = compile_and_link([SRC])
        with metrics.collect() as collector:
            code, host = run_module(program)
        assert code == 0
        assert collector.counters["execute.omni.instret"] > 0
        assert collector.stage_calls["execute"] == 1

    def test_translation_counts_match_static_expansion(self):
        program = compile_and_link([SRC])
        with metrics.collect() as collector:
            code, module = run_on_target(program, "mips", MOBILE_SFI)
        assert code == 0
        translated = module.translated
        assert (collector.counters["translate.omni_instrs"]
                == len(program.instrs))
        assert (collector.counters["translate.native_instrs"]
                == len(translated.instrs))
        expansion = translated.static_expansion()
        for category, count in expansion.items():
            assert collector.counters[f"translate.static.{category}"] \
                == count, category
        ratio = collector.expansion_ratio()
        assert ratio is not None and ratio >= 1.0

    def test_sfi_check_counts(self):
        """Verifier-side static counts and machine-side dynamic counts
        must agree with the established Figure-1 category machinery."""
        program = compile_and_link([SRC])
        with metrics.collect() as collector:
            code, module = run_on_target(program, "sparc", MOBILE_SFI)
        assert code == 0
        # Static: the SFI verifier saw the program's store sites (array
        # writes + stack traffic).
        assert collector.counters["verify.sfi.stores_checked"] >= 1
        assert collector.counters["verify.sfi.instrs"] \
            == len(module.translated.instrs)
        # Dynamic: executed-sandbox-instruction count equals the target
        # machine's own per-category accounting.
        assert collector.counters["execute.sfi.dynamic"] \
            == module.machine.category_counts["sfi"] > 0
        assert collector.counters["execute.native.instret"] \
            == module.machine.instret

    def test_no_sfi_counts_without_sfi(self):
        # The CFG verifier runs on every load (it recovers the graph
        # and feeds metrics uniformly), but with SFI off it has no
        # sandbox claim to check: zero stores/jumps checked, zero
        # dynamic SFI instructions retired.
        program = compile_and_link([SRC])
        with metrics.collect() as collector:
            code, module = run_on_target(program, "mips", MOBILE_NOSFI)
        assert code == 0
        assert collector.stage_calls.get("verify.sfi") == 1
        assert collector.counters["verify.sfi.stores_checked"] == 0
        assert collector.counters["verify.sfi.ijumps_checked"] == 0
        assert "execute.sfi.dynamic" not in collector.counters
        assert module.machine.category_counts.get("sfi", 0) == 0

    def test_differential_interpreter_vs_targets(self):
        """All five engines retire the same visible output, and the
        dynamic expansion ratio the collectors derive is sane."""
        outputs = run_everywhere(SRC)
        reference = outputs.pop("omnivm")
        assert reference == [140]
        for arch, values in outputs.items():
            assert values == reference, arch

    def test_dynamic_expansion_ratio(self):
        program = compile_and_link([SRC])
        with metrics.collect() as collector:
            run_module(program)
            run_on_target(program, "x86", MOBILE_SFI)
        ratio = collector.dynamic_expansion_ratio()
        assert ratio is not None and ratio > 1.0
