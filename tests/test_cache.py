"""The content-addressed translation cache."""

import itertools
import json
import random
from pathlib import Path

import pytest

from repro import metrics
from repro.cache import (
    TranslationCache,
    cache_key,
    options_digest,
    program_digest,
)
from repro.compiler import CompileOptions, compile_and_link
from repro.native.profiles import MOBILE_NOSFI, MOBILE_SFI
from repro.runtime.loader import run_module
from repro.runtime.native_loader import load_for_target, run_on_target
from repro.translators import translate
from repro.translators.base import TranslationOptions

SRC = "int main() { emit_int(5 + 6); return 0; }"
OTHER_SRC = "int main() { emit_int(9); return 0; }"


@pytest.fixture
def program():
    return compile_and_link([SRC])


@pytest.fixture
def other_program():
    return compile_and_link([OTHER_SRC])


class TestKeying:
    def test_digest_is_content_addressed(self, program):
        rebuilt = compile_and_link([SRC])
        assert rebuilt is not program
        assert program_digest(rebuilt) == program_digest(program)

    def test_digest_differs_for_different_programs(self, program,
                                                   other_program):
        assert program_digest(program) != program_digest(other_program)

    def test_options_sensitivity(self, program):
        sfi_key = cache_key(program, "mips", MOBILE_SFI)
        nosfi_key = cache_key(program, "mips", MOBILE_NOSFI)
        assert sfi_key != nosfi_key
        # every TranslationOptions field participates
        assert (options_digest(TranslationOptions(sfi_reads=True))
                != options_digest(TranslationOptions(sfi_reads=False)))

    def test_arch_sensitivity(self, program):
        assert cache_key(program, "mips", MOBILE_SFI) != cache_key(
            program, "x86", MOBILE_SFI)

    def test_none_options_means_defaults(self, program):
        assert cache_key(program, "mips", None) == cache_key(
            program, "mips", TranslationOptions())

    def test_options_digest_strings_are_pinned(self):
        """The digest is encoded once per options value, and the
        strings, which name disk-tier files too, are the field-complete
        JSON of the value, asked for twice."""
        want = {
            None: (True, True, True, None, None, False),
            MOBILE_SFI: (True, True, True, None, None, False),
            MOBILE_NOSFI: (False, True, True, None, None, False),
            TranslationOptions(native_profile="cc"):
                (True, True, True, None, "cc", False),
            TranslationOptions(global_pointer=False, sfi_reads=True):
                (True, True, True, False, None, True),
        }
        for options, values in want.items():
            names = ("sfi", "schedule", "peephole", "global_pointer",
                     "native_profile", "sfi_reads")
            expected = json.dumps(dict(zip(names, values)), sort_keys=True,
                                  separators=(",", ":"))
            for _ in range(2):
                assert options_digest(options) == expected


class TestHitMiss:
    def test_miss_then_hit(self, program):
        cache = TranslationCache()
        assert cache.get(program, "mips", MOBILE_SFI) is None
        translated = translate(program, "mips", MOBILE_SFI)
        cache.put(program, "mips", MOBILE_SFI, translated)
        assert cache.get(program, "mips", MOBILE_SFI) is translated
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.stores) == (1, 1, 1)

    def test_rebuilt_program_hits_same_entry(self, program):
        cache = TranslationCache()
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        rebuilt = compile_and_link([SRC])
        assert cache.get(rebuilt, "mips", MOBILE_SFI) is not None

    def test_options_never_cross_contaminate(self, program):
        cache = TranslationCache()
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        assert cache.get(program, "mips", MOBILE_NOSFI) is None

    def test_lru_eviction(self, program):
        cache = TranslationCache(capacity=2)
        for arch in ("mips", "sparc", "ppc"):
            cache.put(program, arch, MOBILE_SFI,
                      translate(program, arch, MOBILE_SFI))
        # ppc was never looked up, so it cannot displace a resident.
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        assert set(cache._entries) == {mips_key(program),
                                       cache_key(program, "sparc",
                                                 MOBILE_SFI)}
        for _ in range(2):
            assert cache.get(program, "ppc", MOBILE_SFI) is None
        cache.put(program, "ppc", MOBILE_SFI,
                  translate(program, "ppc", MOBILE_SFI))
        assert cache.stats().evictions == 2
        assert cache.get(program, "mips", MOBILE_SFI) is None  # oldest out
        assert cache.get(program, "ppc", MOBILE_SFI) is not None

    def test_lru_refresh_on_hit(self, program):
        cache = TranslationCache(capacity=2)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        cache.put(program, "sparc", MOBILE_SFI,
                  translate(program, "sparc", MOBILE_SFI))
        cache.get(program, "mips", MOBILE_SFI)  # refresh mips
        cache.put(program, "ppc", MOBILE_SFI,
                  translate(program, "ppc", MOBILE_SFI))  # refused
        assert len(cache) == 2 and cache.stats().evictions == 1
        for _ in range(2):
            assert cache.get(program, "ppc", MOBILE_SFI) is None
        cache.put(program, "ppc", MOBILE_SFI,
                  translate(program, "ppc", MOBILE_SFI))
        assert cache.get(program, "mips", MOBILE_SFI) is not None
        assert cache.get(program, "sparc", MOBILE_SFI) is None
        assert cache.get(program, "ppc", MOBILE_SFI) is not None

    def test_invalidate_by_program(self, program, other_program):
        cache = TranslationCache()
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        cache.put(other_program, "mips", MOBILE_SFI,
                  translate(other_program, "mips", MOBILE_SFI))
        assert cache.invalidate(program=program) == 1
        assert cache.get(program, "mips", MOBILE_SFI) is None
        assert cache.get(other_program, "mips", MOBILE_SFI) is not None

    def test_clear(self, program):
        cache = TranslationCache()
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        assert cache.clear() == 1
        assert len(cache) == 0


class TestLoaderIntegration:
    def test_warm_load_skips_verify_and_translate(self, program):
        cache = TranslationCache()
        with metrics.collect() as collector:
            code1, module1 = run_on_target(program, "mips", MOBILE_SFI,
                                           cache=cache)
            code2, module2 = run_on_target(program, "mips", MOBILE_SFI,
                                           cache=cache)
        assert (code1, code2) == (0, 0)
        assert module1.host.output_values() == module2.host.output_values()
        # The warm load was a cache hit and ran no pipeline front half.
        assert cache.stats().hits == 1
        assert collector.counters["cache.hit"] == 1
        assert collector.counters["translate.calls"] == 1
        assert collector.stage_calls["verify.module"] == 1
        assert collector.stage_calls["verify.sfi"] == 1
        assert collector.stage_calls["execute"] == 2

    def test_cached_translation_is_shared(self, program):
        cache = TranslationCache()
        module1 = load_for_target(program, "ppc", MOBILE_SFI, cache=cache)
        module2 = load_for_target(program, "ppc", MOBILE_SFI, cache=cache)
        assert module1.translated is module2.translated


class TestDiskPersistence:
    def test_round_trip_produces_identical_output(self, tmp_path, program):
        warm_dir = tmp_path / "txcache"
        first = TranslationCache(disk_dir=warm_dir)
        code, fresh = run_on_target(program, "x86", MOBILE_SFI, cache=first)
        assert code == 0

        # A new process would start with an empty LRU but a warm disk.
        second = TranslationCache(disk_dir=warm_dir)
        code, reloaded = run_on_target(program, "x86", MOBILE_SFI,
                                       cache=second)
        assert code == 0
        stats = second.stats()
        assert stats.disk_hits == 1 and stats.hits == 1
        assert (reloaded.host.output_values()
                == fresh.host.output_values())
        _code, host = run_module(program)
        assert reloaded.host.output_values() == host.output_values()

    def test_disk_entries_are_options_sensitive(self, tmp_path, program):
        warm_dir = tmp_path / "txcache"
        first = TranslationCache(disk_dir=warm_dir)
        first.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        second = TranslationCache(disk_dir=warm_dir)
        assert second.get(program, "mips", MOBILE_NOSFI) is None
        assert second.get(program, "mips", MOBILE_SFI) is not None

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, program):
        warm_dir = tmp_path / "txcache"
        first = TranslationCache(disk_dir=warm_dir)
        first.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        for path in warm_dir.glob("*.json"):
            path.write_text("{ not json")
        second = TranslationCache(disk_dir=warm_dir)
        assert second.get(program, "mips", MOBILE_SFI) is None

    def test_invalidate_removes_disk_entries(self, tmp_path, program):
        warm_dir = tmp_path / "txcache"
        cache = TranslationCache(disk_dir=warm_dir)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        assert list(warm_dir.glob("*.json"))
        cache.invalidate(program=program)
        assert not list(warm_dir.glob("*.json"))
        assert TranslationCache(disk_dir=warm_dir).get(
            program, "mips", MOBILE_SFI) is None

    def test_num_regs_variants_are_distinct(self, tmp_path):
        # Different register-file sizes produce different programs and
        # must occupy different cache entries (Table 2 sweep safety).
        cache = TranslationCache()
        p16 = compile_and_link([SRC], CompileOptions(num_regs=16))
        p8 = compile_and_link([SRC], CompileOptions(num_regs=8))
        cache.put(p16, "mips", MOBILE_SFI,
                  translate(p16, "mips", MOBILE_SFI))
        if program_digest(p8) != program_digest(p16):
            assert cache.get(p8, "mips", MOBILE_SFI) is None


class TestDurability:
    """Regressions for the cache-durability bugs: torn disk writes,
    disk entries surviving a filtered invalidate after LRU eviction, and
    unverified (tampered) disk entries being executed."""

    def test_interrupted_store_never_corrupts_existing_entry(
            self, tmp_path, program, monkeypatch):
        # A good entry is on disk; a later overwrite dies mid-write
        # (e.g. disk full, crash).  The original entry must survive —
        # the bug was an in-place write_text that left a torn file.
        import os

        import repro.cache as cache_module

        cache = TranslationCache(disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))

        def torn_fsync(fd):
            os.ftruncate(fd, 16)  # the data blocks never made it down
            raise OSError("disk full mid-write")

        monkeypatch.setattr(cache_module, "_fsync_file", torn_fsync)
        writer = TranslationCache(disk_dir=tmp_path)  # fresh LRU
        writer.put(program, "mips", MOBILE_SFI,
                   translate(program, "mips", MOBILE_SFI))
        monkeypatch.undo()

        fresh = TranslationCache(disk_dir=tmp_path)
        assert fresh.get(program, "mips", MOBILE_SFI) is not None
        assert fresh.stats().disk_rejects == 0
        assert not list(tmp_path.glob("*.tmp"))  # no torn leftovers

    def test_truncated_entry_is_clean_miss_and_repaired(
            self, tmp_path, program):
        cache = TranslationCache(disk_dir=tmp_path)
        translated = translate(program, "mips", MOBILE_SFI)
        cache.put(program, "mips", MOBILE_SFI, translated)
        [path] = tmp_path.glob("*.json")
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # simulate a torn entry

        fresh = TranslationCache(disk_dir=tmp_path)
        assert fresh.get(program, "mips", MOBILE_SFI) is None
        assert fresh.stats().disk_rejects == 1
        assert not path.exists()  # rejected entries are deleted
        fresh.put(program, "mips", MOBILE_SFI, translated)  # repair
        again = TranslationCache(disk_dir=tmp_path)
        assert again.get(program, "mips", MOBILE_SFI) is not None

    def test_filtered_invalidate_reaches_evicted_disk_entries(
            self, tmp_path, program, other_program):
        # put -> evict past LRU capacity -> invalidate(program) -> the
        # disk copy must die too, or get() resurrects invalidated code.
        cache = TranslationCache(capacity=1, disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        for _ in range(2):  # used more often than program: admitted
            cache.get(other_program, "mips", MOBILE_SFI)
        cache.put(other_program, "mips", MOBILE_SFI,
                  translate(other_program, "mips", MOBILE_SFI))
        assert cache.stats().evictions == 1  # program left the LRU

        dropped = cache.invalidate(program=program)
        assert dropped == 0  # it was not resident ...
        assert cache.stats().invalidations == 1  # ... but disk matched
        assert cache.get(program, "mips", MOBILE_SFI) is None
        assert cache.get(other_program, "mips", MOBILE_SFI) is not None

    def test_filtered_invalidate_by_arch_reaches_disk(
            self, tmp_path, program):
        cache = TranslationCache(capacity=1, disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        for _ in range(2):  # used more often than mips: admitted
            cache.get(program, "sparc", MOBILE_SFI)
        cache.put(program, "sparc", MOBILE_SFI,
                  translate(program, "sparc", MOBILE_SFI))  # evicts mips
        assert cache.stats().evictions == 1
        assert mips_key(program) not in cache._entries  # disk only
        cache.invalidate(arch="mips")
        assert cache.get(program, "mips", MOBILE_SFI) is None
        assert cache.get(program, "sparc", MOBILE_SFI) is not None

    def test_tampered_disk_entry_is_rejected(self, tmp_path, program):
        # Valid JSON whose instruction payload was modified must fail
        # the integrity digest — the bug was executing it unverified.
        cache = TranslationCache(disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        [path] = tmp_path.glob("*.json")
        payload = json.loads(path.read_text())
        payload["instrs"][0], payload["instrs"][1] = (
            payload["instrs"][1], payload["instrs"][0])
        path.write_text(json.dumps(payload))

        fresh = TranslationCache(disk_dir=tmp_path)
        with metrics.collect() as collector:
            assert fresh.get(program, "mips", MOBILE_SFI) is None
        assert fresh.stats().disk_rejects == 1
        assert collector.counters["cache.disk_reject"] == 1
        assert not path.exists()

    def test_bit_flip_anywhere_is_rejected(self, tmp_path, program):
        cache = TranslationCache(disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        [path] = tmp_path.glob("*.json")
        blob = bytearray(path.read_bytes())
        flip_at = blob.find(b'"instrs"') + 24  # inside the payload
        blob[flip_at] ^= 0x01
        path.write_bytes(bytes(blob))

        fresh = TranslationCache(disk_dir=tmp_path)
        entry = fresh.get(program, "mips", MOBILE_SFI)
        # Either the flip landed in structure (reject) or in a value the
        # digest covers (reject); a surviving hit would be the bug.
        assert entry is None
        assert fresh.stats().disk_rejects == 1

    def test_stats_include_disk_rejects(self, program):
        assert TranslationCache().stats().to_dict()["disk_rejects"] == 0


class TestFsyncOrdering:
    """Crash durability of disk stores (regression: the store renamed
    without fsyncing, so a machine crash could commit an entry whose
    data blocks never hit the disk — surfacing later as a torn file)."""

    def test_file_is_fsynced_before_rename_and_dir_after(
            self, tmp_path, program, monkeypatch):
        import repro.cache as cache_module

        events = []
        real_file, real_dir = (cache_module._fsync_file,
                               cache_module._fsync_dir)

        def spy_file(fd):
            # At file-fsync time the rename must not have happened yet.
            events.append(("file", len(list(tmp_path.glob("*.json")))))
            real_file(fd)

        def spy_dir(path):
            events.append(("dir", len(list(tmp_path.glob("*.json")))))
            real_dir(path)

        monkeypatch.setattr(cache_module, "_fsync_file", spy_file)
        monkeypatch.setattr(cache_module, "_fsync_dir", spy_dir)
        cache = TranslationCache(disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        assert events == [("file", 0), ("dir", 1)]

    def test_crash_before_fsync_leaves_no_committed_entry(
            self, tmp_path, program, monkeypatch):
        # Inject the crash between write and fsync: the data is torn
        # and the fsync "never returns".  Nothing may be committed —
        # no *.json, no leftover *.tmp visible as an entry.
        import os

        import repro.cache as cache_module

        def dying_fsync(fd):
            os.ftruncate(fd, 16)
            raise OSError("simulated power loss before fsync")

        monkeypatch.setattr(cache_module, "_fsync_file", dying_fsync)
        cache = TranslationCache(disk_dir=tmp_path)
        cache.put(program, "mips", MOBILE_SFI,
                  translate(program, "mips", MOBILE_SFI))
        monkeypatch.undo()
        assert not list(tmp_path.glob("*.json"))
        fresh = TranslationCache(disk_dir=tmp_path)
        assert fresh.get(program, "mips", MOBILE_SFI) is None
        assert fresh.stats().disk_rejects == 0  # clean miss, not a tear


def mips_key(program):
    return cache_key(program, "mips", MOBILE_SFI)


class TestSingleFlight:
    """translate_once: stampedes on one uncached key translate once."""

    def _translated(self, program):
        return translate(program, "mips", MOBILE_SFI)

    def test_miss_produces_then_hit_skips_produce(self, program):
        cache = TranslationCache()
        calls = []

        def produce():
            calls.append(1)
            return self._translated(program)

        first = cache.translate_once(mips_key(program), produce)
        second = cache.translate_once(mips_key(program), produce)
        assert first is not None and second is first
        assert len(calls) == 1

    def test_thread_stampede_elects_one_leader(self, program):
        import threading
        import time as time_module

        cache = TranslationCache()
        calls = []
        results = []

        def produce():
            calls.append(1)
            time_module.sleep(0.05)  # hold the flight open
            return self._translated(program)

        def contender():
            results.append(cache.translate_once(
                mips_key(program), produce))

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert len(results) == 8 and all(r is not None for r in results)
        assert cache.stats().stores == 1
        assert cache.stats().single_flight_waits >= 1

    def test_failed_leader_crowns_a_waiter(self, program):
        import threading

        cache = TranslationCache()
        gate = threading.Event()
        outcomes = []

        def failing_then_working():
            if not gate.is_set():
                gate.set()
                raise RuntimeError("leader died mid-translation")
            return self._translated(program)

        def contender():
            try:
                outcomes.append(cache.translate_once(
                    mips_key(program), failing_then_working))
            except RuntimeError as err:
                outcomes.append(err)

        threads = [threading.Thread(target=contender) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The first leader raises; some waiter takes over and succeeds,
        # so at least one caller got a real translation.
        assert any(not isinstance(o, Exception) for o in outcomes)

    @pytest.mark.parametrize("disk", [False, True], ids=["memory", "disk"])
    def test_refused_translation_is_produced_once(self, tmp_path, program,
                                                  disk):
        # With a disk tier the waiters must still take the leader's
        # result, not parse the refused entry back from disk.
        import sys
        import threading
        import time as time_module

        cache = TranslationCache(capacity=1,
                                 disk_dir=tmp_path if disk else None)
        resident = cache_key(program, "sparc", MOBILE_SFI)
        sparc = translate(program, "sparc", MOBILE_SFI)
        for _ in range(10):
            cache.translate_once(resident, lambda: sparc)
        calls, results = [], []

        def produce():
            calls.append(1)
            # Hold the flight open until the other three wait on it.
            deadline = time_module.monotonic() + 10.0
            while (cache.stats().single_flight_waits < 3
                   and time_module.monotonic() < deadline):
                time_module.sleep(0.001)
            return self._translated(program)

        def contender():
            results.append(cache.translate_once(mips_key(program), produce))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=contender) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(cache._entries) == {resident}  # the table refused mips
        assert len(calls) == 1
        assert len(results) == 4 and len({id(r) for r in results}) == 1
        stats = cache.stats()
        assert stats.disk_hits == 0
        assert stats.evictions == 1  # the leader's refused store only

    def test_foreign_flight_lock_polls_disk_tier(self, tmp_path, program):
        import threading

        # Process A (simulated): holds the on-disk flight lock.
        a = TranslationCache(disk_dir=tmp_path)
        key = cache_key(program, "mips", MOBILE_SFI)
        assert a._acquire_flight_file(key) is not None
        # Process B: stampedes on the same key; it must wait on the
        # lock, not translate.
        b = TranslationCache(disk_dir=tmp_path)
        produced = []
        result = []

        def b_produce():
            produced.append(1)
            return self._translated(program)

        waiter = threading.Thread(target=lambda: result.append(
            b.translate_once(key, b_produce)))
        waiter.start()
        # A finishes: entry lands on disk, lock released.
        a.put(program, "mips", MOBILE_SFI, self._translated(program))
        a._flight_path(key).unlink()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive()
        assert result and result[0] is not None
        assert not produced  # B read A's entry, never translated
        assert b.stats().disk_hits >= 1
        assert b.stats().single_flight_waits >= 1

    def test_stale_foreign_lock_is_stolen(self, tmp_path, program,
                                          monkeypatch):
        import repro.cache as cache_module

        monkeypatch.setattr(cache_module, "FLIGHT_STALE_SECONDS", 0.05)
        # A crashed process left its flight lock behind; B must break
        # it after the staleness window and translate itself.
        a = TranslationCache(disk_dir=tmp_path)
        key = cache_key(program, "mips", MOBILE_SFI)
        assert a._acquire_flight_file(key) is not None

        b = TranslationCache(disk_dir=tmp_path)
        produced = []

        def b_produce():
            produced.append(1)
            return self._translated(program)

        result = b.translate_once(key, b_produce)
        assert result is not None
        assert produced == [1]
        # The steal cleaned up after itself: no lock file left behind.
        assert not list(tmp_path.glob("*.flight"))

    def test_no_disk_tier_still_single_flights_in_process(self, program):
        cache = TranslationCache()  # memory only
        calls = []
        result = cache.translate_once(
            mips_key(program),
            lambda: (calls.append(1), self._translated(program))[1])
        assert result is not None and calls == [1]


def synthetic_key(i):
    return (f"{i:064x}", "mips", "{}")


def table_loader(cache, table):
    """key -> value through one table; a miss stores a fresh object."""
    if table == "translation":
        return lambda key: cache.translate_once(key, object)
    return lambda key: cache.predecoded(key, object)


def table_hits(cache, table):
    stats = cache.stats()
    return stats.hits if table == "translation" else stats.predecode_hits


class TestSegmentedLRU:
    """Both tables keep an entry used more than once through a scan of
    one-shot keys (:class:`repro.cache._TinyLFU`)."""

    @pytest.mark.parametrize("table", ["translation", "predecode"])
    def test_key_hit_once_survives_a_scan(self, table):
        cache = TranslationCache(capacity=8)
        load = table_loader(cache, table)
        hot = load(synthetic_key(0))
        assert load(synthetic_key(0)) is hot
        for i in range(1, 1 + cache.capacity):
            load(synthetic_key(i))
        assert load(synthetic_key(0)) is hot

    @pytest.mark.parametrize("table", ["translation", "predecode"])
    def test_zipf_stream_beats_lru(self, table):
        import random
        from collections import OrderedDict

        keys = [synthetic_key(i) for i in range(96)]
        stream = random.Random(1).choices(
            keys, weights=[1 / rank for rank in range(1, 97)], k=4000)
        lru, lru_hits = OrderedDict(), 0
        for key in stream:
            if key in lru:
                lru.move_to_end(key)
                lru_hits += 1
            else:
                lru[key] = True
                if len(lru) > 64:
                    lru.popitem(last=False)
        cache = TranslationCache(capacity=64)
        load = table_loader(cache, table)
        for key in stream:
            load(key)
        hits = table_hits(cache, table)
        # LRU hits 3,506 of these draws and frequency admission 3,564.
        assert hits > lru_hits
        assert hits >= 0.885 * len(stream)

    def test_promoted_entry_is_invalidated(self, program, other_program):
        cache = TranslationCache(capacity=4)
        promoted = [mips_key(program), mips_key(other_program)]
        for table in ("translation", "predecode"):
            load = table_loader(cache, table)
            for key in promoted:
                load(key)
                load(key)
            for i in range(cache.capacity):
                load(synthetic_key(i))  # a scan the promoted keys outlive
        for table in (cache._entries, cache._predecoded):
            assert set(promoted) <= set(table) and len(table) == 4
        assert cache.invalidate(program=program) == 1
        for table in (cache._entries, cache._predecoded):
            assert promoted[0] not in table and promoted[1] in table
        assert cache.clear() == 3
        assert len(cache) == len(cache._predecoded) == 0

    def test_one_shot_keys_never_displace_a_full_table(self):
        cache = TranslationCache(capacity=5)
        load = table_loader(cache, "translation")
        keys = [synthetic_key(i) for i in range(5)]
        for key in keys:
            load(key)
        for i in range(5, 105):
            load(synthetic_key(i))  # each refused, across two halvings
        assert len(cache) == 5
        assert set(cache._entries) == set(keys)
        assert cache.stats().evictions == 100

    def test_victim_is_the_least_recently_used_resident(self):
        cache = TranslationCache(capacity=5)
        load = table_loader(cache, "translation")
        keys = [synthetic_key(i) for i in range(6)]
        for key in keys[:5]:
            load(key)
        load(keys[0])  # a hit: key 1 is now the least recently used
        load(keys[5])  # used once, like every resident: refused
        load(keys[5])  # used twice: displaces key 1, not key 0
        assert set(cache._entries) == set(keys) - {keys[1]}
        assert cache.stats().evictions == 2

    def test_storing_a_resident_key_replaces_it(self, program,
                                                 other_program):
        cache = TranslationCache(capacity=2)
        first, second = object(), object()
        cache.put(program, "mips", MOBILE_SFI, first)
        cache.get(program, "mips", MOBILE_SFI)  # promoted
        cache.put(program, "mips", MOBILE_SFI, second)
        cache.put(other_program, "mips", MOBILE_SFI, first)
        assert len(cache) == 2 and cache.stats().evictions == 0
        assert cache.get(program, "mips", MOBILE_SFI) is second


#: The hosted mix in miniature: Zipf draws over 96 keys (1.5x the
#: capacity), and every fifth use one of 32 further keys taken in turn,
#: as a host's link requests come back every 160 requests.
PERIODIC_KEYS = [synthetic_key(i) for i in range(32)]
ZIPF_KEYS = [synthetic_key(i) for i in range(32, 128)]


def hosted_shaped_stream(seed):
    rng = random.Random(seed)
    weights = [1 / rank for rank in range(1, 97)]
    for use in itertools.count():
        if use % 5 == 0:
            yield PERIODIC_KEYS[use // 5 % 32]
        else:
            yield rng.choices(ZIPF_KEYS, weights)[0]


class TestFrequencyAdmission:
    """A new key displaces a table's least recently used entry only if
    it has been used more often."""

    @pytest.mark.parametrize("table", ["translation", "predecode"])
    def test_hosted_shaped_stream_whatever_the_warm_up(self, table):
        ratios = []
        for warm_up in ([], PERIODIC_KEYS + ZIPF_KEYS,
                        ZIPF_KEYS + PERIODIC_KEYS):
            cache = TranslationCache(capacity=64)
            load = table_loader(cache, table)
            stream = hosted_shaped_stream(4204)
            for key in warm_up + list(itertools.islice(stream, 1000)):
                load(key)
            before = table_hits(cache, table)
            for key in itertools.islice(stream, 5000):
                load(key)
            ratios.append((table_hits(cache, table) - before) / 5000)
        # Admission reads 0.820-0.821 here, segmented LRU 0.697-0.769.
        assert min(ratios) >= 0.80
        assert max(ratios) - min(ratios) <= 0.01

    @pytest.mark.parametrize("table", ["translation", "predecode"])
    @pytest.mark.parametrize("first_use", [0, 8])
    def test_key_reused_among_one_shot_keys_stays(self, table, first_use):
        cache = TranslationCache(capacity=8)
        load = table_loader(cache, table)
        hot, hits = synthetic_key(0), []
        for use in range(first_use + 40 * cache.capacity):
            if use >= first_use and (use - first_use) % 16 == 0:
                before = table_hits(cache, table)
                load(hot)
                hits.append(table_hits(cache, table) > before)
            else:
                load(synthetic_key(1 + use))
        assert len(hits) == 20 and all(hits[2:])

    @pytest.mark.parametrize("table", ["translation", "predecode"])
    def test_counts_stay_bounded(self, table):
        cache = TranslationCache(capacity=8)
        load = table_loader(cache, table)
        policy = (cache._entries if table == "translation"
                  else cache._predecoded)
        largest = 0
        for i in range(100 * cache.capacity):
            load(synthetic_key(i))
            largest = max(largest, len(policy._counts))
        assert largest <= 16 * cache.capacity


class TestPredecodeRace:
    def test_racing_build_keeps_the_resident_artifact(self):
        cache = TranslationCache()
        key = synthetic_key(0)
        inner = object()

        def build():
            # Another load of the same key builds and stores first.
            assert cache.predecoded(key, lambda: inner) is inner
            return object()

        assert cache.predecoded(key, build) is inner
        assert cache._predecoded[key] is inner
        assert cache.predecoded(key, object) is inner

    def test_concurrent_loads_share_one_artifact_per_key(self):
        import sys
        import threading
        import time as time_module

        cache = TranslationCache(capacity=8)
        keys = [synthetic_key(i) for i in range(4)]
        seen = {key: set() for key in keys}

        def build():
            time_module.sleep(0.005)  # hold the miss window open
            return object()

        def worker():
            for _ in range(50):
                for key in keys:
                    seen[key].add(cache.predecoded(key, build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # Every caller got the one resident artifact of its key.
        assert all(len(artifacts) == 1 for artifacts in seen.values())
        assert {key: cache._predecoded[key] for key in keys} == {
            key: next(iter(artifacts)) for key, artifacts in seen.items()}
        stats = cache.stats()
        assert stats.predecode_hits + stats.predecode_misses == 4 * 50 * 4
