"""Governance parity: threaded host vs. sharded process router.

The sharded service's contract is that the process boundary is pure
transport — every governance outcome (deadlines, quotas, interpreter
fallback, overload shedding, typed link errors) must be byte-identical to the threaded :class:`ModuleHost`: same
``error`` class names on responses, same service counter names, same
raised exception types on the control plane.  Each test here runs once
per host mode via the parametrized ``serve`` fixture.

(The one visible asymmetry is intentional and not tested for equality:
``FaultInjector.fired`` counts in the *injector object*, which workers
copy at spawn, so cross-process assertions use ``response.fallback``
and the ``fallback`` counter instead.)
"""

import pytest

from repro.compiler import compile_and_link
from repro.engine import Engine
from repro.errors import DynamicLinkError, ServiceOverloaded
from repro.omnivm.asmparser import assemble
from repro.omnivm.linker import link
from repro.service import (
    FaultInjector,
    ModuleRequest,
    RequestQuota,
)

SRC = "int main() { emit_int(42); return 0; }"
SPINNER_SRC = """
int main() {
    int i;
    i = 0;
    while (1) { i = i + 1; }
    return i;
}
"""
EMITTER_SRC = """
int main() {
    int i;
    for (i = 0; i < 50; i = i + 1) { emit_int(i); }
    return 0;
}
"""
LIB_SRC = "int answer() { return 42; }"
APP_SRC = """
extern int answer();
int main() { emit_int(answer()); return 0; }
"""


@pytest.fixture(scope="module")
def program():
    return compile_and_link([SRC])


@pytest.fixture(scope="module")
def spinner():
    return compile_and_link([SPINNER_SRC])


@pytest.fixture(params=["threads", "processes"])
def serve(request):
    """A host factory: ``serve(engine, **kwargs)`` yields a started
    host of the parametrized kind with identical governance config."""
    mode = request.param

    def factory(engine: Engine, **kwargs):
        if mode == "processes":
            kwargs.setdefault("processes", 2)
        return engine.serve(**kwargs)

    factory.mode = mode
    return factory


class TestOutcomeParity:
    def test_ok_path(self, serve, program):
        with serve(Engine(target="mips"), workers=2) as host:
            response = host.run(ModuleRequest(program=program))
        assert response.ok and response.exit_code == 0
        assert response.output == "42"
        assert response.arch == "mips" and not response.fallback
        assert host.stats.counters["ok"] == 1
        assert host.stats.counters["request"] == 1

    def test_source_text_compiles_in_place(self, serve):
        with serve(Engine(), workers=1) as host:
            response = host.run(ModuleRequest(program=SRC))
        assert response.ok and response.output == "42"
        assert response.arch == "omnivm"

    def test_deadline_exceeded(self, serve, spinner):
        with serve(Engine(target="mips"), workers=2) as host:
            response = host.run(ModuleRequest(
                program=spinner, deadline_seconds=0.1,
                quota=RequestQuota(fuel=10 ** 9)))
        assert not response.ok
        assert response.error == "DeadlineExceeded"
        assert host.stats.counters["timeout"] == 1
        assert host.stats.counters["error"] == 1

    def test_fuel_quota_not_misreported_as_deadline(self, serve, spinner):
        with serve(Engine(target="mips"), workers=1) as host:
            response = host.run(ModuleRequest(
                program=spinner, deadline_seconds=30.0,
                quota=RequestQuota(fuel=20_000)))
        assert response.error == "FuelExhausted"
        assert host.stats.counters.get("timeout", 0) == 0

    def test_output_quota_exceeded(self, serve):
        with serve(Engine(), workers=1) as host:
            response = host.run(ModuleRequest(
                program=EMITTER_SRC,
                quota=RequestQuota(max_output_bytes=16)))
        assert not response.ok
        assert response.error == "QuotaExceeded"
        assert host.stats.counters["quota_exceeded"] == 1

    def test_translator_fault_falls_back(self, serve, program):
        faults = FaultInjector()
        faults.fail_translations(count=-1)
        with serve(Engine(target="mips"), workers=1,
                   faults=faults) as host:
            response = host.run(ModuleRequest(program=program))
        assert response.ok and response.fallback
        assert response.arch == "omnivm" and response.output == "42"
        assert host.stats.counters["fallback"] == 1

    def test_module_failing_verification_is_not_degraded(self, serve):
        program = link([assemble("""
            .text
            .globl main
        main:
            hostcall 1
            jr ra
        """)])
        program.instrs[0].imm = 12345  # no host exports this index
        with serve(Engine(target="mips"), workers=1) as host:
            response = host.run(ModuleRequest(program=program))
        assert not response.ok and not response.fallback
        assert response.arch == "mips"
        assert response.error == "ModuleVerifyError"
        assert host.stats.counters["error"] == 1
        assert host.stats.counters.get("fallback", 0) == 0

    def test_overload_sheds_with_typed_error(self, serve, spinner):
        engine = Engine(target="mips")
        with serve(engine, workers=1, queue_depth=1) as host:
            blockers = [host.submit(ModuleRequest(
                program=spinner, deadline_seconds=0.5,
                quota=RequestQuota(fuel=10 ** 9)), block=True)
                for _ in range(2)]
            with pytest.raises(ServiceOverloaded):
                for _ in range(64):
                    host.submit(ModuleRequest(
                        program=spinner, deadline_seconds=0.5,
                        quota=RequestQuota(fuel=10 ** 9)))
            for pending in blockers:
                pending.result(timeout=30.0)
        assert host.stats.counters["rejected"] >= 1


class TestLinkErrorParity:
    def test_unresolved_import(self, serve):
        engine = Engine()
        with serve(engine, workers=1) as host:
            host.register_module("app", APP_SRC)
            response = host.run(ModuleRequest(modules=["app"]))
        assert response.error == "UnresolvedImportError"
        assert host.stats.counters["link_unresolved_import"] == 1

    def test_revoked_module(self, serve):
        engine = Engine()
        with serve(engine, workers=1) as host:
            host.register_module("lib", LIB_SRC)
            host.register_module("app", APP_SRC)
            ok = host.run(ModuleRequest(modules=["app"]))
            host.revoke_module("lib")
            revoked = host.run(ModuleRequest(modules=["app"]))
        assert ok.ok and ok.output == "42"
        assert revoked.error == "ModuleRevokedError"
        assert host.stats.counters["module_revoked"] == 1

    def test_revoking_unknown_module_raises_typed_error(self, serve):
        with serve(Engine(), workers=1) as host:
            with pytest.raises(DynamicLinkError, match="unknown module"):
                host.revoke_module("nonesuch")

    def test_request_needs_program_or_modules(self, serve):
        with serve(Engine(), workers=1) as host:
            response = host.run(ModuleRequest())
        assert response.error == "DynamicLinkError"


class TestStatsShapeParity:
    def test_to_dict_schema_matches(self, serve, program):
        with serve(Engine(target="mips"), workers=2) as host:
            host.run(ModuleRequest(program=program))
        payload = host.stats.to_dict()
        for key in ("counters", "queue_high_water",
                    "completed_requests", "latency_seconds"):
            assert key in payload
        assert payload["completed_requests"] == 1
        assert set(payload["latency_seconds"]) == {"p50", "p90", "p99"}
        assert payload["latency_seconds"]["p99"] > 0.0

    def test_stats_survive_stop(self, serve, program):
        host = serve(Engine(target="mips"), workers=1)
        with host:
            host.run(ModuleRequest(program=program))
        # After the with-block the host is stopped; stats must still
        # answer from the frozen final snapshot.
        assert host.stats.counters["ok"] == 1
