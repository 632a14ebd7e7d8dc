"""Pipeline metrics: counters and timers for the mobile-code pipeline.

The paper's evaluation rests on precise per-stage measurements — how long
load-time translation takes, how many SFI sequences the translator
inlines, how many of them the module actually executes, how much the
code expands (Figure 1).  This module is the measurement substrate: a
tiny counter/timer registry threaded through the compiler front end, the
optimizer, the code generator, the verifiers, the translators, and both
execution engines.

Design constraints:

* **zero cost when idle** — every instrumentation point first asks
  :func:`active`, which is one global list check, so the hot paths
  (translation, simulation) pay one ``if`` when nobody is measuring;
* **no global mutable results** — measurements accumulate into an
  explicitly installed :class:`MetricsCollector`; nesting is allowed
  (an :class:`~repro.engine.Engine` collector and an ad-hoc one can be
  active at once) and every active collector observes every event
  once, however many threads installed it;
* **no dependencies** — this module imports only the standard library,
  so any layer of the package may import it without cycles.

Usage::

    from repro import metrics

    collector = metrics.MetricsCollector()
    with metrics.collect(collector):
        program = compile_and_link([source])
        run_on_target(program, "mips")
    print(collector.render())

Stage names are dotted paths (``frontend.lex``, ``translate``,
``verify.sfi``, ``execute``); counters likewise (``translate.native_instrs``,
``translate.schedule_hits`` / ``translate.schedule_misses`` (scheduled
blocks whose order the translators' schedule table held, or computed),
``execute.sfi.dynamic``, ``cache.hit``, ``cache.disk_reject``, and the
module-hosting service's ``service.request`` / ``service.fallback`` /
``service.timeout`` family).  The threaded-code
execution engines add ``execute.predecode_ms`` (wall milliseconds spent
predecoding a program into closures), ``execute.blocks`` (basic blocks
dispatched), and the
cache's ``cache.predecode_hit`` / ``cache.predecode_miss`` pair for the
in-memory predecode side table.  The CFG-based SFI verifier reports its
graph shape per verification — ``verify.sfi.blocks`` /
``verify.sfi.edges`` / ``verify.sfi.joins`` (meet operations at join
points) alongside the existing ``verify.sfi.instrs`` /
``verify.sfi.stores_checked`` / ``verify.sfi.ijumps_checked`` — and the
sandbox-escape mutation fuzzer adds the ``difftest.sfi.*`` family
(``modules``, ``mutants``, ``killed``, ``survivors``, ``accepted``,
``overtight``, ``shrink_checks``).  See DESIGN.md §"Engine, cache and
metrics" for the full vocabulary.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "MetricsCollector",
    "active",
    "collect",
    "count",
    "current",
    "stage",
]


class MetricsCollector:
    """Accumulates named counters and per-stage wall-clock timings.

    Recording is thread-safe (one internal lock guards the read-modify-
    write updates), so a :class:`repro.service.ModuleHost` worker pool
    can share the engine's collector without losing increments."""

    __slots__ = ("counters", "stage_seconds", "stage_calls", "_lock")

    def __init__(self) -> None:
        #: name -> accumulated integer count
        self.counters: dict[str, int] = {}
        #: stage name -> accumulated wall seconds
        self.stage_seconds: dict[str, float] = {}
        #: stage name -> number of times the stage ran
        self.stage_calls: dict[str, int] = {}
        self._lock = threading.RLock()

    # -- recording ------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def record_stage(self, name: str, seconds: float) -> None:
        with self._lock:
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + seconds
            )
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_stage(name, time.perf_counter() - start)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold *other*'s measurements into this collector."""
        with self._lock:
            for name, amount in other.counters.items():
                self.count(name, amount)
            for name, seconds in other.stage_seconds.items():
                self.stage_seconds[name] = (
                    self.stage_seconds.get(name, 0.0) + seconds
                )
                self.stage_calls[name] = (
                    self.stage_calls.get(name, 0)
                    + other.stage_calls.get(name, 0)
                )

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.stage_seconds.clear()
            self.stage_calls.clear()

    # -- derived quantities ---------------------------------------------------

    def expansion_ratio(self) -> float | None:
        """Static code expansion: native instructions per OmniVM
        instruction over everything translated while collecting."""
        omni = self.counters.get("translate.omni_instrs", 0)
        native = self.counters.get("translate.native_instrs", 0)
        return (native / omni) if omni else None

    def dynamic_expansion_ratio(self) -> float | None:
        """Dynamic expansion: native instructions retired per OmniVM
        instruction the same program retires on the reference VM (needs
        both engines to have run while collecting)."""
        omni = self.counters.get("execute.omni.instret", 0)
        native = self.counters.get("execute.native.instret", 0)
        return (native / omni) if omni else None

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict = {
            "counters": dict(sorted(self.counters.items())),
            "stage_seconds": dict(sorted(self.stage_seconds.items())),
            "stage_calls": dict(sorted(self.stage_calls.items())),
        }
        ratio = self.expansion_ratio()
        if ratio is not None:
            payload["expansion_ratio"] = ratio
        dyn = self.dynamic_expansion_ratio()
        if dyn is not None:
            payload["dynamic_expansion_ratio"] = dyn
        return payload

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human-readable report (the ``--stats`` output)."""
        lines = []
        if self.stage_seconds:
            lines.append("stage timings:")
            width = max(len(name) for name in self.stage_seconds)
            for name in sorted(self.stage_seconds):
                seconds = self.stage_seconds[name]
                calls = self.stage_calls.get(name, 1)
                lines.append(
                    f"  {name.ljust(width)}  {seconds * 1e3:10.3f} ms"
                    f"  ({calls} call{'s' if calls != 1 else ''})"
                )
        if self.counters:
            lines.append("counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"  {name.ljust(width)}  {self.counters[name]}")
        ratio = self.expansion_ratio()
        if ratio is not None:
            lines.append(f"static expansion ratio:  {ratio:.2f}")
        dyn = self.dynamic_expansion_ratio()
        if dyn is not None:
            lines.append(f"dynamic expansion ratio: {dyn:.2f}")
        return "\n".join(lines) if lines else "(no measurements)"


#: The active collectors, each once, in installation order; module-level
#: so instrumentation points can test "anyone listening?" with one
#: truthiness check.  Installation is process-wide (a collector installed
#: by one thread observes events of every thread) and replaces the tuple,
#: so recording iterates a snapshot.
_ACTIVE: tuple[MetricsCollector, ...] = ()
#: How many open :func:`collect` blocks, in any thread, hold each active
#: collector: overlapping blocks install it once, and it stays active
#: until the last one closes.
_HOLDS: dict[MetricsCollector, int] = {}
_HOLDS_LOCK = threading.Lock()


def active() -> bool:
    """True when at least one collector is installed."""
    return bool(_ACTIVE)


def current() -> MetricsCollector | None:
    """The most recently installed active collector, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collect(collector: MetricsCollector | None = None
            ) -> Iterator[MetricsCollector]:
    """Install *collector* (a fresh one when omitted) for the duration
    of the ``with`` block and yield it.  A collector that is already
    installed, by this thread or another, is not installed twice, so
    every event counts once per collector."""
    global _ACTIVE
    collector = collector or MetricsCollector()
    with _HOLDS_LOCK:
        holds = _HOLDS.get(collector, 0)
        if not holds:
            _ACTIVE = _ACTIVE + (collector,)
        _HOLDS[collector] = holds + 1
    try:
        yield collector
    finally:
        with _HOLDS_LOCK:
            holds = _HOLDS.pop(collector) - 1
            if holds:
                _HOLDS[collector] = holds
            else:
                _ACTIVE = tuple(c for c in _ACTIVE if c is not collector)


def count(name: str, amount: int = 1) -> None:
    """Add *amount* to counter *name* on every active collector."""
    for collector in _ACTIVE:
        collector.count(name, amount)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Time the enclosed block as pipeline stage *name* (no-op when no
    collector is active)."""
    if not _ACTIVE:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for collector in _ACTIVE:
            collector.record_stage(name, elapsed)
