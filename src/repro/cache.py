"""Content-addressed translation cache.

The paper's load-time translator is fast, but a host that loads the same
mobile module twice (the common case for a popular applet) should not
pay verification + translation twice.  This module provides a
:class:`TranslationCache` keyed by ``(linked-program digest, arch,
TranslationOptions)``:

* the **program digest** is content-addressed: SHA-256 over the encoded
  text image, the data image, the entry address and the function-range
  table — everything translation output depends on.  Two structurally
  identical programs hit the same entry no matter how they were built;
* the **options digest** covers every field of
  :class:`~repro.translators.base.TranslationOptions`, so e.g. an
  SFI-off translation can never satisfy an SFI-on request;
* entries are held **in memory** (bounded by ``capacity``, admitted by
  frequency; see below) with optional **on-disk persistence** (one
  JSON file per entry under ``disk_dir``) that survives process
  restarts;
* hit / miss / eviction (or refusal) / store counters are exported
  through :meth:`TranslationCache.stats` and mirrored into
  :mod:`repro.metrics` counters (``cache.hit`` / ``cache.miss`` / ...)
  when a collector is active.

**Admission** is stated once, in :func:`cached_translation` and
:func:`cached_predecode`, and every loader goes through them: the cache
is read and written only under the default sandbox policy (its keys do
not carry the policy).  Every loader runs both verifiers on what it
translates, so a cache hit returns a verified translation, and
the loader skips *both* module verification and SFI verification — the
translated code was checked when it entered the cache and its content
hash pins the exact input it was produced from.

**One key per load**: the caller derives :func:`cache_key` once (arch
``"omnivm"`` for the interpreter) and hands it to both tables — the
translation table and the predecode side table — so a load digests its
program once.

**One eviction policy** serves both tables: an LRU behind a frequency
admission filter (:class:`_TinyLFU`, after TinyLFU; Einziger, Friedman
and Manes, ACM TOS 2017).  A host's traffic is popular modules loaded
again and again among rarer ones; under a plain LRU a run of rare loads
flushes the popular modules, whose next loads then pay verification,
translation and SFI verification again and lose their JIT heat.  Here
a new key displaces the least recently used entry only if it has been
used more often, by an exact count that halves every ``10 * capacity``
uses.  A one-shot key is refused: its translation serves its own
request and dies with it instead of churning the table, and traffic
that never repeats a key keeps the first ``capacity`` keys resident.

Durability guarantees (the service layer leans on all three):

* **atomic, durable disk writes** — entries are written to a temporary
  file in the cache directory, ``fsync``\\ ed, :func:`os.replace`\\ d
  into place, and the directory is ``fsync``\\ ed, so a reader never
  observes a truncated entry, an interrupted writer leaves no
  half-entry behind (a later store repairs any stale temp file's slot),
  and a crash *after* the store returns cannot roll a committed entry
  back to a truncated one;
* **integrity-checked disk reads** — every entry carries a SHA-256 over
  its serialized instruction payload; a corrupted or tampered entry
  fails the check, is deleted, and reads as a miss
  (``cache.disk_reject``), so nothing unverified ever executes;
* **disk-aware invalidation** — ``invalidate(program=...)`` /
  ``(arch=...)`` matches persisted entries (each payload stores its own
  key) as well as resident ones, so an entry evicted from memory
  cannot be resurrected after its program was invalidated.

All public methods are safe to call from multiple threads: one internal
:class:`threading.RLock` serializes mutation of both tables, the
counters, and the disk directory (see :class:`repro.service.ModuleHost`).

**Single-flight translation** (:meth:`TranslationCache.translate_once`):
when a thundering herd of requests misses on the same uncached key, one
caller (the *leader*) translates while the rest wait and then read the
leader's result — in-process from a per-key flight record, which
carries the result even when the table refuses to keep it, and across
processes sharing a ``disk_dir`` via an exclusive ``*.flight`` lock
file plus polling of the disk tier.  A crashed leader's stale flight
lock is broken after :data:`FLIGHT_STALE_SECONDS`, so single-flight
degrades to duplicate work, never to a deadlock.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

from repro import metrics
from repro.omnivm.linker import LinkedProgram
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.targets.base import MInstr
from repro.translators import target_spec
from repro.translators.base import TranslatedModule, TranslationOptions

#: Bump when the on-disk entry layout changes; mismatched files are
#: treated as misses and rewritten.  Format 2 added the mandatory
#: ``instr_sha256`` integrity digest; format 3 added ``extern_fixups``
#: (covered by the digest) for per-module dynamic-link chunks.
DISK_FORMAT = 3

#: A cross-process flight lock older than this is presumed abandoned
#: (its owner crashed mid-translation) and is broken by the next leader.
#: Translations are milliseconds; seconds of silence means a dead owner.
FLIGHT_STALE_SECONDS = 5.0

#: Poll period while waiting on another process's in-flight translation.
_FLIGHT_POLL_SECONDS = 0.002


def _fsync_file(fd: int) -> None:
    """Flush one file's data to stable storage (hook: the crash-injection
    tests monkeypatch this to simulate a crash before the fsync)."""
    os.fsync(fd)


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


#: MInstr fields persisted to disk (caches/latencies are recomputed).
_MINSTR_FIELDS = (
    "op", "rd", "rs", "rt", "fd", "fs", "ft",
    "imm", "target", "pred", "annul", "omni_addr", "category",
)


def program_digest(program: LinkedProgram) -> str:
    """Content hash of everything translation output depends on.

    A linked program is sealed, so its digest is computed once and kept
    as its ``digest_hint``; every later call returns the hint."""
    hint = program.digest_hint
    if hint is not None:
        return hint
    digest = hashlib.sha256()
    digest.update(program.text_image)
    digest.update(b"\x00data\x00")
    digest.update(bytes(program.data_image))
    digest.update(f"\x00entry\x00{program.entry_address}".encode())
    for name, (start, end) in sorted(program.function_ranges.items()):
        digest.update(f"\x00fn\x00{name}\x00{start}\x00{end}".encode())
    # Dynamic-link translation units: the placement and the set of
    # foreign targets change the emitted code, so they key the entry.
    # Whole programs (base 0, no externs) keep their historical digest.
    base_index = getattr(program, "base_index", 0)
    extern_addrs = getattr(program, "extern_addrs", frozenset())
    if base_index:
        digest.update(f"\x00base\x00{base_index}".encode())
    if extern_addrs:
        digest.update(
            ("\x00extern\x00"
             + ",".join(str(a) for a in sorted(extern_addrs))).encode()
        )
    program.digest_hint = digest.hexdigest()
    return program.digest_hint


_DEFAULT_OPTIONS = TranslationOptions()


def options_digest(options: TranslationOptions | None) -> str:
    """Stable, field-complete digest of a TranslationOptions value."""
    return _options_digest(options or _DEFAULT_OPTIONS)


@functools.lru_cache(maxsize=64)
def _options_digest(options: TranslationOptions) -> str:
    # Options are frozen and hashable, and a process sees a handful of
    # values, so each value is encoded once.
    payload = {f.name: getattr(options, f.name)
               for f in fields(TranslationOptions)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(program: LinkedProgram, arch: str,
              options: TranslationOptions | None) -> tuple[str, str, str]:
    """The key of everything the cache holds for one load of *program*:
    its translation for *arch* under *options* and the predecoded
    artifact built from it (arch ``"omnivm"``, options ``None`` for the
    interpreter's artifact)."""
    return (program_digest(program), arch, options_digest(options))


def _serves(cache: "TranslationCache | None",
            policy: SandboxPolicy) -> bool:
    # Keys do not carry the sandbox policy, so a load under another
    # policy (e.g. the padded variant) must neither read nor poison
    # default-policy entries.
    return cache is not None and policy == DEFAULT_POLICY


def cached_translation(cache: "TranslationCache | None", key, produce,
                       policy: SandboxPolicy = DEFAULT_POLICY
                       ) -> TranslatedModule:
    """The translation for *key*: from *cache*, or made by *produce*.

    The admission rule of the cache: it serves default-policy loads
    only.  *produce* runs both verifiers on what it translates, because
    every later hit skips verification; when either refuses, it raises
    and nothing is stored.  Misses are single-flight
    (:meth:`TranslationCache.translate_once`)."""
    if not _serves(cache, policy):
        return produce()
    return cache.translate_once(key, produce)


def cached_predecode(cache: "TranslationCache | None", key, build,
                     policy: SandboxPolicy = DEFAULT_POLICY):
    """The threaded-engine artifact for *key*: from *cache*'s side
    table, or made by *build* (under the admission rule's policy half)."""
    if not _serves(cache, policy):
        return build()
    return cache.predecoded(key, build)


@dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    #: entries displaced by a new key, plus new keys the table refused
    #: (a store, or a disk-tier hit, that the table would not keep)
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0
    invalidations: int = 0
    #: disk entries rejected as unreadable, stale-format, or failing the
    #: integrity digest (each read as a miss, never executed)
    disk_rejects: int = 0
    #: predecode side-table traffic (threaded-engine artifacts; memory
    #: only, never persisted — closures do not serialize)
    predecode_hits: int = 0
    predecode_misses: int = 0
    #: callers that waited on another caller's in-flight translation of
    #: the same key instead of translating it again (stampede control)
    single_flight_waits: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
            "invalidations": self.invalidations,
            "disk_rejects": self.disk_rejects,
            "predecode_hits": self.predecode_hits,
            "predecode_misses": self.predecode_misses,
            "single_flight_waits": self.single_flight_waits,
        }


class _TinyLFU(Mapping):
    """A bounded LRU table behind a frequency admission filter (TinyLFU;
    Einziger, Friedman and Manes, ACM TOS 2017), the cache's one policy.

    Every :meth:`use` of a key, hit or miss, adds one to its count in an
    exact frequency table; every ``10 * capacity`` uses all counts
    halve, and a key whose count reaches 0 is forgotten unless it is
    resident (a resident keeps a count of at least 1).  A hit moves the
    entry to the most recently used (MRU) end.  A new key stored into a
    full table displaces the least recently used (LRU) entry only if
    its count is strictly greater than that entry's; otherwise the
    table refuses it.  Every load looks its key up before it stores it,
    so a key used once never displaces a resident, and a stream that
    never repeats a key keeps its first ``capacity`` keys.

    Read as a mapping (``[]``, ``in``, iteration, ``len``) it is a peek:
    only :meth:`use` counts.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._counts: dict = {}
        self._uses = 0

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def use(self, key):
        """The value under *key*, counting the use; None when absent."""
        self._counts[key] = self._counts.get(key, 0) + 1
        self._uses += 1
        if self._uses == 10 * self.capacity:
            # The halving bounds the counts near 16 * capacity keys;
            # the floor keeps a halving from opening the whole table
            # to the next run of one-shot keys.
            self._uses = 0
            self._counts = {k: max(count // 2, 1)
                            for k, count in self._counts.items()
                            if count > 1 or k in self._entries}
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def add(self, key, value) -> bool:
        """Keep *value* under *key*; storing a resident key replaces its
        value and refreshes it.  Returns whether an entry was evicted to
        make room or *key* was refused."""
        entries = self._entries
        full = key not in entries and len(entries) >= self.capacity
        if full:
            victim = next(iter(entries))
            if self._counts.get(key, 0) <= self._counts.get(victim, 0):
                return True
            del entries[victim]
        entries[key] = value
        entries.move_to_end(key)
        return full

    def drop(self, doomed) -> list:
        """Remove every key for which *doomed* holds; returns them."""
        keys = [key for key in self._entries if doomed(key)]
        for key in keys:
            del self._entries[key]
        return keys


class _Flight:
    """One in-process translation in flight: waiters block on ``landed``
    and then take ``result``, which stays None when the leader failed."""

    def __init__(self):
        self.landed = threading.Event()
        self.result = None


class TranslationCache:
    """Cache of verified :class:`TranslatedModule` values.

    ``capacity`` bounds the in-memory entry count of each table, and
    each table is an LRU behind a frequency admission filter
    (:class:`_TinyLFU`): a new key displaces the table's least recently
    used entry only if it has been used more often, so a host's popular
    modules outlive runs of one-shot loads, which die with their
    request; ``disk_dir`` (optional) enables persistence — evicted,
    refused or restart-lost entries are reloaded from disk on the next
    request and re-enter memory once their use count admits them.

    Instances are thread-safe: every public method takes the internal
    reentrant lock, so a :class:`repro.service.ModuleHost` worker pool
    can share one cache without lost updates or torn counters.
    """

    def __init__(self, capacity: int = 64,
                 disk_dir: str | Path | None = None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._entries = _TinyLFU(capacity)
        # Predecoded threaded-engine artifacts (repro.omnivm.threaded /
        # repro.targets.threaded), one per translation; each carries the
        # superblock JIT's state for it (heat and compiled factories),
        # which is evicted and invalidated with it.
        # Held beside the translation table, same capacity bound, policy
        # and keys, but memory-only: the artifacts are closure tables
        # and cannot be persisted.
        self._predecoded = _TinyLFU(capacity)
        self._stats = CacheStats()
        self._lock = threading.RLock()
        # Single-flight coordination: key -> the leader's flight, which
        # lands with its translation (or without one, when it fails).
        # Guarded by its own lock so a translating leader never holds
        # the cache lock.
        self._flights: dict[tuple[str, str, str], _Flight] = {}
        self._flight_lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lookup ---------------------------------------------------------------

    def get(self, program: LinkedProgram, arch: str,
            options: TranslationOptions | None = None
            ) -> TranslatedModule | None:
        """Return the cached translation for this exact (program, arch,
        options) content, or None on a miss."""
        return self.lookup(cache_key(program, arch, options))

    def lookup(self, key: tuple[str, str, str]) -> TranslatedModule | None:
        """Return the cached translation for *key*, or None on a miss."""
        with self._lock:
            entry = self._entries.use(key)
            if entry is not None:
                self._stats.hits += 1
                metrics.count("cache.hit")
                return entry
            entry = self._disk_load(key)
            if entry is not None:
                self._insert(key, entry)
                self._stats.hits += 1
                self._stats.disk_hits += 1
                metrics.count("cache.hit")
                metrics.count("cache.disk_hit")
                return entry
            self._stats.misses += 1
            metrics.count("cache.miss")
            return None

    def put(self, program: LinkedProgram, arch: str,
            options: TranslationOptions | None,
            translated: TranslatedModule) -> None:
        """Offer a (verified) translation: a store the table may refuse
        (counted as an eviction) when its key has not been used more
        often than the entry it would displace; the disk tier, if any,
        keeps it either way."""
        self._store(cache_key(program, arch, options), translated)

    def _store(self, key: tuple[str, str, str],
               translated: TranslatedModule) -> None:
        with self._lock:
            self._insert(key, translated)
            self._stats.stores += 1
            metrics.count("cache.store")
            self._disk_store(key, translated)

    def _insert(self, key: tuple[str, str, str],
                translated: TranslatedModule) -> None:
        if self._entries.add(key, translated):
            self._stats.evictions += 1
            metrics.count("cache.eviction")

    # -- single-flight translation --------------------------------------------

    def translate_once(self, key: tuple[str, str, str], produce,
                       timeout: float = 30.0) -> TranslatedModule:
        """Return the cached translation for *key* (see :func:`cache_key`),
        or run *produce* exactly once per stampede to create it.

        Concurrent callers missing on the same key elect one leader;
        the rest wait (``cache.single_flight_wait``) and then read the
        leader's stored entry, or take its translation from the flight
        when the table refused to keep it, so a refused translation is
        still produced once per stampede.  If the leader fails, a waiter
        is crowned and retries — every caller eventually returns a
        translation or raises its own error, never a stale one.  Across
        processes sharing a ``disk_dir``, an exclusive flight-lock file
        makes the first process the leader and the others poll the disk
        tier.  *produce* must return a **verified**
        :class:`TranslatedModule` (the cache's usual admission contract).
        """
        deadline = time.monotonic() + timeout
        while True:
            cached = self.lookup(key)
            if cached is not None:
                return cached
            with self._flight_lock:
                flight = self._flights.get(key)
                leader = flight is None
                if leader:
                    flight = self._flights[key] = _Flight()
            if not leader:
                with self._lock:
                    self._stats.single_flight_waits += 1
                metrics.count("cache.single_flight_wait")
                flight.landed.wait(max(0.0, deadline - time.monotonic()))
                if flight.result is not None:
                    # The leader's work is done: take its entry from
                    # memory (a hit), or its result when the table
                    # refused it, never reloading from disk.
                    with self._lock:
                        cached = self._entries.use(key)
                        if cached is not None:
                            self._stats.hits += 1
                            metrics.count("cache.hit")
                            return cached
                    return flight.result
                if time.monotonic() >= deadline:
                    # Leader wedged: give up on waiting and translate
                    # ourselves rather than stall the request forever.
                    return produce()
                continue  # the leader failed: re-probe, and maybe lead
            try:
                flight_file = self._acquire_flight_file(key)
                if flight_file is None and self.disk_dir is not None:
                    # Another *process* is translating this key: poll
                    # the shared disk tier until its entry lands or the
                    # owner goes stale.
                    entry = self._await_foreign_flight(key)
                    if entry is not None:
                        flight.result = entry
                        return entry
                    flight_file = self._acquire_flight_file(key,
                                                            steal=True)
                try:
                    translated = produce()
                    self._store(key, translated)
                    flight.result = translated
                    return translated
                finally:
                    if flight_file is not None:
                        try:
                            flight_file.unlink()
                        except OSError:
                            pass
            finally:
                with self._flight_lock:
                    self._flights.pop(key, None)
                flight.landed.set()

    def _flight_path(self, key: tuple[str, str, str]) -> Path | None:
        path = self._disk_path(key)
        if path is None:
            return None
        return path.with_suffix(".flight")

    def _acquire_flight_file(self, key: tuple[str, str, str],
                             steal: bool = False) -> Path | None:
        """Try to take the cross-process flight lock for *key*; returns
        the lock path when acquired, None when another process holds a
        fresh lock (or there is no disk tier to coordinate through)."""
        path = self._flight_path(key)
        if path is None:
            return None
        if steal:
            try:
                path.unlink()
            except OSError:
                pass
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return path
        except FileExistsError:
            return None
        except OSError:
            # Unwritable disk tier: fall back to in-process-only
            # single-flight (persistence is always best-effort).
            return path if steal else None

    def _await_foreign_flight(self, key: tuple[str, str, str]
                              ) -> TranslatedModule | None:
        """Poll the disk tier while another process translates *key*;
        returns its entry, or None when the owner's lock went stale."""
        path = self._flight_path(key)
        metrics.count("cache.single_flight_wait")
        with self._lock:
            self._stats.single_flight_waits += 1
        while True:
            with self._lock:
                entry = self._disk_load(key)
                if entry is not None:
                    self._insert(key, entry)
                    self._stats.disk_hits += 1
                    return entry
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                age = None  # lock released without an entry: owner failed
            if age is None or age > FLIGHT_STALE_SECONDS:
                return None
            time.sleep(_FLIGHT_POLL_SECONDS)

    # -- predecode side table -------------------------------------------------

    def predecoded(self, key: tuple[str, str, str], build) -> object:
        """Return the threaded-engine artifact for *key* (see
        :func:`cache_key`), calling *build* and offering its result to
        the side table on a miss.  The side table is memory only, and its
        evictions and refusals are silent — translation
        ``stats().evictions`` stays untouched.  A refused artifact is
        returned to its own caller.

        *build* runs outside the lock, so two loads of one key may both
        build; when the first artifact stored was admitted, it stays
        resident (with its JIT heat and compiled superblocks) and is
        returned to both."""
        with self._lock:
            artifact = self._predecoded.use(key)
            if artifact is not None:
                self._stats.predecode_hits += 1
                metrics.count("cache.predecode_hit")
                return artifact
            self._stats.predecode_misses += 1
            metrics.count("cache.predecode_miss")
        artifact = build()
        with self._lock:
            resident = self._predecoded.get(key)
            if resident is not None:
                return resident
            self._predecoded.add(key, artifact)
        return artifact

    # -- invalidation ---------------------------------------------------------

    def invalidate(self, program: LinkedProgram | None = None,
                   arch: str | None = None,
                   digest: str | None = None) -> int:
        """Drop entries matching *program* and/or *arch* (both None =
        everything).  Removes matching disk entries too — including
        entries memory already evicted but disk still holds (each
        payload stores its own key, which is matched against the
        filter), so an invalidated translation can never be resurrected
        by a later :meth:`get`.  Disk-only removals are counted in
        ``stats().invalidations``; the return value is the number of
        in-memory entries dropped.

        *digest* filters by a raw program digest directly — the module
        registry uses this to revoke a module's per-layout translation
        chunks without reconstructing the translation units."""
        if program is not None:
            digest = program_digest(program)

        def doomed(key: tuple[str, str, str]) -> bool:
            return ((digest is None or key[0] == digest)
                    and (arch is None or key[1] == arch))

        with self._lock:
            dropped = self._entries.drop(doomed)
            for key in dropped:
                self._disk_remove(key)
            # Predecoded artifacts derive from the same translation
            # inputs, so they go with it.
            self._predecoded.drop(doomed)
            self._stats.invalidations += len(dropped)
            self._stats.invalidations += self._disk_invalidate(digest, arch)
            return len(dropped)

    def _disk_invalidate(self, digest: str | None, arch: str | None) -> int:
        """Remove persisted entries matching the filter whose keys are
        no longer resident (evicted or written by another process).
        Returns the number of files removed."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return 0
        removed = 0
        for path in self.disk_dir.glob("*.json"):
            if digest is None and arch is None:
                matches = True
            else:
                try:
                    key = json.loads(path.read_text()).get("key")
                except (OSError, ValueError):
                    # Unreadable entries match every filter: they can
                    # only ever read as misses, so invalidation may
                    # reclaim them.
                    key = None
                matches = (
                    key is None
                    or not isinstance(key, list) or len(key) != 3
                    or ((digest is None or key[0] == digest)
                        and (arch is None or key[1] == arch))
                )
            if matches:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Drop every entry (memory and disk)."""
        return self.invalidate()

    # -- introspection --------------------------------------------------------

    def stats(self) -> CacheStats:
        return self._stats

    @property
    def lock(self) -> threading.RLock:
        """The internal lock (exposed for multi-step atomic sections)."""
        return self._lock

    # -- disk persistence -----------------------------------------------------

    def _disk_path(self, key: tuple[str, str, str]) -> Path | None:
        if self.disk_dir is None:
            return None
        name = hashlib.sha256("|".join(key).encode()).hexdigest()[:32]
        return self.disk_dir / f"{name}.json"

    @staticmethod
    def _instr_digest(instrs_json: str) -> str:
        return hashlib.sha256(instrs_json.encode()).hexdigest()

    def _disk_store(self, key: tuple[str, str, str],
                    translated: TranslatedModule) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        instrs_json = json.dumps([
            {name: getattr(instr, name) for name in _MINSTR_FIELDS}
            for instr in translated.instrs
        ])
        fixups_json = json.dumps(
            [list(pair) for pair in translated.extern_fixups]
        )
        payload = {
            "format": DISK_FORMAT,
            "key": list(key),
            "arch": key[1],
            "options": json.loads(key[2]),
            "entry_native": translated.entry_native,
            "omni_to_native": {
                str(omni): native
                for omni, native in translated.omni_to_native.items()
            },
            "extern_fixups": json.loads(fixups_json),
            "instr_sha256": self._instr_digest(
                instrs_json + "|" + fixups_json
            ),
            "instrs": json.loads(instrs_json),
        }
        # Write-fsync-rename-fsync: a concurrent reader sees either the
        # old entry or the complete new one, never a truncated file; an
        # interrupted writer leaves at most a stale *.tmp the next store
        # replaces; and because the data is fsynced *before* the rename
        # (and the directory after it), a machine crash cannot surface a
        # committed entry with truncated contents — without the fsync,
        # the rename could reach the journal before the data blocks,
        # persisting an entry the SHA-256 check would later reject.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                os.write(fd, json.dumps(payload).encode())
                _fsync_file(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
            _fsync_dir(path.parent)
        except OSError:
            # persistence is best-effort; memory still has it
            try:
                tmp.unlink()
            except OSError:
                pass

    def _disk_load(self, key: tuple[str, str, str]
                   ) -> TranslatedModule | None:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if (payload.get("format") != DISK_FORMAT
                    or payload.get("key") != list(key)):
                raise ValueError("stale format or foreign key")
            instrs_json = json.dumps(payload["instrs"])
            fixups_json = json.dumps(payload["extern_fixups"])
            if payload.get("instr_sha256") != self._instr_digest(
                instrs_json + "|" + fixups_json
            ):
                raise ValueError("integrity digest mismatch")
            arch = key[1]  # already verified equal to the payload key
            options = TranslationOptions(**payload["options"])
            module = TranslatedModule(
                spec=target_spec(arch, options),
                options=options,
                instrs=[MInstr(**fields_) for fields_ in payload["instrs"]],
                omni_to_native={
                    int(omni): native
                    for omni, native in payload["omni_to_native"].items()
                },
                entry_native=payload["entry_native"],
                extern_fixups=[
                    (int(idx), int(addr))
                    for idx, addr in payload["extern_fixups"]
                ],
            )
        except (OSError, ValueError, TypeError, KeyError):
            # Truncated, tampered, stale-format, or otherwise unusable:
            # reject it (never execute it), delete it so the slot reads
            # clean, and let the caller re-translate and repair.
            self._stats.disk_rejects += 1
            metrics.count("cache.disk_reject")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return module

    def _disk_remove(self, key: tuple[str, str, str]) -> None:
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                path.unlink()
            except OSError:
                pass


__all__ = [
    "CacheStats",
    "TranslationCache",
    "cache_key",
    "cached_predecode",
    "cached_translation",
    "options_digest",
    "program_digest",
]
