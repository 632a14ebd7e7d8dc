"""The sharded process router (`repro.service_router`).

Covers what the parity suite (`test_service_parity.py`) cannot: the
consistent-hash ring itself, cache affinity of the routing key, typed
errors crossing the process boundary, worker-crash detection with
respawn and registry-log replay, cross-shard stats aggregation, and
stampede control through the shared cold tier.
"""

import time

import pytest

from repro.cache import program_digest
from repro.compiler import compile_and_link
from repro.engine import Engine
from repro.errors import (
    DeadlineExceeded,
    DuplicateExportError,
    ModuleCycleError,
    ModuleRevokedError,
    QuotaExceeded,
    ReproError,
    TransientFault,
    UnresolvedImportError,
    deserialize_error,
    serialize_error,
)
from repro.service import FaultInjector, ModuleRequest, RequestQuota
from repro.service_router import (
    RING_REPLICAS,
    ShardedModuleHost,
    _HashRing,
    shard_key,
)

SRC = "int main() { emit_int(42); return 0; }"
LIB_SRC = "int answer() { return 42; }"
APP_SRC = """
extern int answer();
int main() { emit_int(answer()); return 0; }
"""
SLOW_SRC = """
int main() {
    int i;
    i = 0;
    while (1) { i = i + 1; }
    return i;
}
"""


@pytest.fixture(scope="module")
def program():
    return compile_and_link([SRC])


def _await(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestHashRing:
    def test_lookup_is_stable(self):
        ring = _HashRing(4)
        keys = [f"digest-{i}" for i in range(200)]
        first = [ring.lookup(k) for k in keys]
        second = [_HashRing(4).lookup(k) for k in keys]
        assert first == second

    def test_every_shard_gets_keys(self):
        ring = _HashRing(4)
        owners = {ring.lookup(f"digest-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_resize_remaps_a_minority_of_keys(self):
        # The consistent-hash property: growing 4 -> 5 shards should
        # move ~1/5 of the key space, not reshuffle everything.
        keys = [f"digest-{i}" for i in range(2000)]
        before = _HashRing(4)
        after = _HashRing(5)
        moved = sum(before.lookup(k) != after.lookup(k) for k in keys)
        assert moved / len(keys) < 0.40

    def test_replica_count(self):
        ring = _HashRing(3)
        assert len(ring._hashes) == 3 * RING_REPLICAS


class TestShardKey:
    def test_linked_program_routes_by_content_digest(self, program):
        assert shard_key(ModuleRequest(program=program)) == \
            program_digest(program)

    def test_source_text_routes_by_text_hash(self):
        a = shard_key(ModuleRequest(program=SRC, request_id="a"))
        b = shard_key(ModuleRequest(program=SRC, request_id="b"))
        assert a == b  # identity is the content, not the request

    def test_modules_route_by_root_names(self):
        a = shard_key(ModuleRequest(modules=("app",), request_id="x"))
        b = shard_key(ModuleRequest(modules=["app"], request_id="y"))
        assert a == b

    def test_same_module_always_lands_on_same_shard(self, program):
        with Engine(target="mips").serve(processes=3, workers=1) as host:
            shards = {host.shard_of(ModuleRequest(program=program))
                      for _ in range(10)}
        assert len(shards) == 1


class TestErrorSerialization:
    ROUNDTRIP = [
        UnresolvedImportError("f", importer="m"),
        DuplicateExportError("g", ("a", "b")),
        ModuleCycleError(("a", "b", "a")),
        ModuleRevokedError("lib", epoch=3),
        DeadlineExceeded("too slow", deadline_seconds=0.5),
        QuotaExceeded("too much", quota="output_bytes", limit=16),
        TransientFault("blip"),
    ]

    @pytest.mark.parametrize("err", ROUNDTRIP,
                             ids=lambda e: type(e).__name__)
    def test_roundtrip_preserves_class_and_message(self, err):
        clone = deserialize_error(serialize_error(err))
        assert type(clone) is type(err)
        assert str(clone) == str(err)

    def test_roundtrip_preserves_payload_attributes(self):
        clone = deserialize_error(serialize_error(
            UnresolvedImportError("f", importer="m")))
        assert clone.symbol == "f" and clone.importer == "m"
        clone = deserialize_error(serialize_error(
            ModuleCycleError(("a", "b", "a"))))
        assert clone.cycle == ("a", "b", "a")
        clone = deserialize_error(serialize_error(
            QuotaExceeded("x", quota="fuel", limit=7)))
        assert clone.quota == "fuel" and clone.limit == 7

    def test_unknown_class_degrades_to_repro_error(self):
        clone = deserialize_error(
            {"type": "NoSuchError", "message": "gone"})
        assert type(clone) is ReproError
        assert "NoSuchError" in str(clone) and "gone" in str(clone)


class TestCrashRecovery:
    def test_inflight_requests_fail_as_transient_fault(self, program):
        faults = FaultInjector()
        faults.delay_execution(5.0)  # park the request mid-execution
        with Engine(target="mips").serve(
                processes=2, workers=1, faults=faults) as host:
            request = ModuleRequest(program=program, deadline_seconds=30.0)
            victim = host.shard_of(request)
            pending = host.submit(request, block=True)
            time.sleep(0.3)  # let the worker pick it up
            host._shards[victim].process.kill()
            response = pending.result(timeout=15.0)
            assert not response.ok
            assert response.error == "TransientFault"
            assert "safe to retry" in response.error_message
            assert host.stats.counters["worker_restart"] >= 1

    def test_shard_respawns_and_keeps_serving(self, program):
        with Engine(target="mips").serve(processes=2, workers=1) as host:
            request = ModuleRequest(program=program)
            victim = host.shard_of(request)
            shard = host._shards[victim]
            assert host.run(ModuleRequest(program=program)).ok
            shard.process.kill()
            assert _await(lambda: shard.generation >= 2
                          and all(host.alive()))
            # The respawned worker serves the same key; a transient
            # window right after the kill may fail one attempt.
            for _ in range(5):
                response = host.run(ModuleRequest(program=program),
                                    timeout=30.0)
                if response.ok:
                    break
            assert response.ok and response.output == "42"

    def test_registry_log_replays_into_respawned_shard(self):
        def failed(response):
            return f"error={response.error!r}: {response.error_message!r}"

        with Engine().serve(processes=2, workers=1) as host:
            host.register_module("lib", LIB_SRC)
            host.register_module("app", APP_SRC)
            request = ModuleRequest(modules=["app"])
            first = host.run(request)
            victim = host.shard_of(request)
            shard = host._shards[victim]
            assert first.ok, (
                f"first run, before the kill, on shard {victim} "
                f"generation {shard.generation}: {failed(first)}")
            shard.process.kill()
            assert _await(lambda: shard.generation >= 2
                          and all(host.alive())), (
                f"respawn of shard {victim}: generation "
                f"{shard.generation}, alive {host.alive()}")
            for attempt in range(5):
                response = host.run(ModuleRequest(modules=["app"]),
                                    timeout=30.0)
                if response.ok:
                    break
            assert response.ok and response.output == "42", (
                f"run after the respawn, attempt {attempt + 1} of 5, on "
                f"shard {victim} generation {shard.generation}: "
                f"{failed(response)}, output {response.output!r}")

    def test_revocation_survives_respawn(self):
        with Engine().serve(processes=2, workers=1) as host:
            host.register_module("lib", LIB_SRC)
            host.register_module("app", APP_SRC)
            host.revoke_module("lib")
            request = ModuleRequest(modules=["app"])
            victim = host.shard_of(request)
            shard = host._shards[victim]
            shard.process.kill()
            assert _await(lambda: shard.generation >= 2
                          and all(host.alive()))
            for _ in range(5):
                response = host.run(ModuleRequest(modules=["app"]),
                                    timeout=30.0)
                if response.error == "ModuleRevokedError":
                    break
            assert response.error == "ModuleRevokedError"


class TestStatsAggregation:
    def test_counters_sum_across_shards(self):
        # Distinct programs spread over the ring; totals must equal the
        # submitted count regardless of which shard served what.
        sources = [f"int main() {{ emit_int({i}); return 0; }}"
                   for i in range(8)]
        with Engine(target="mips").serve(processes=2, workers=2) as host:
            responses = host.run_batch(
                [ModuleRequest(program=src) for src in sources])
        assert all(r.ok for r in responses)
        payload = host.stats.to_dict()
        assert payload["counters"]["request"] == 8
        assert payload["counters"]["ok"] == 8
        assert payload["completed_requests"] == 8
        assert payload["shards"] == 2
        assert len(payload["cache"]) > 0

    def test_live_and_final_views_agree(self, program):
        host = Engine(target="mips").serve(processes=2, workers=1)
        with host:
            host.run(ModuleRequest(program=program))
            live = host.stats.to_dict()
        final = host.stats.to_dict()
        assert live["counters"]["ok"] == final["counters"]["ok"] == 1

    def test_pre_start_registrations_are_seeded(self):
        engine = Engine()
        engine.register_module("lib", LIB_SRC)
        engine.register_module("app", APP_SRC)
        with ShardedModuleHost(engine, processes=2, workers=1) as host:
            response = host.run(ModuleRequest(modules=["app"]))
        assert response.ok and response.output == "42"


class TestSingleFlightAcrossProcesses:
    def test_stampede_translates_once_per_worker_set(self, tmp_path):
        # 100 concurrent requests for one uncached module: consistent
        # hashing sends them all to one shard, whose cache admits the
        # translation exactly once (stores == 1); everyone else either
        # waited on the flight or hit the warm entry.
        from repro.cache import TranslationCache

        engine = Engine(
            target="mips",
            cache=TranslationCache(disk_dir=tmp_path / "cold"),
        )
        with engine.serve(processes=2, workers=4) as host:
            pending = [host.submit(ModuleRequest(program=SRC), block=True)
                       for _ in range(100)]
            responses = [p.result(timeout=120.0) for p in pending]
        assert all(r.ok for r in responses)
        cache = host.stats.to_dict()["cache"]
        # Exactly one translation was admitted; every other request
        # resolved as a hit (waiters re-read after the flight landed:
        # 99 hits however the 100 interleave).
        assert cache["stores"] == 1
        assert cache["misses"] >= 1
        assert cache["hits"] == 99
