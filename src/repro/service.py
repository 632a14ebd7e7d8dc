"""Concurrent module-hosting service: deadlines, quotas, degradation.

The paper's premise is a *host* that safely runs many untrusted mobile
modules at once; everything below :class:`~repro.engine.Engine` executes
exactly one module per call.  This module adds the host-side runtime:
a :class:`ModuleHost` that accepts concurrent translate/run requests and
governs each one.

Request lifecycle::

    submit -> bounded queue -> worker thread
        compile (if source text) or link (if modules)
        verify+translate+load for the requested target, once
            |- load fails?        fall back to the reference interpreter
        execute under watchdog
            |- wall-clock deadline -> DeadlineExceeded
            |- fuel quota          -> FuelExhausted
            |- output-byte quota   -> QuotaExceeded
    -> ModuleResponse (never an unhandled exception for module faults)

Governance mechanisms:

* **worker pool + bounded queue** — ``workers`` threads drain one
  :class:`queue.Queue` of at most ``queue_depth`` requests; a full
  queue rejects with :class:`~repro.errors.ServiceOverloaded` instead
  of accepting unbounded work (callers that want backpressure pass
  ``block=True``).  The shared
  :class:`~repro.cache.TranslationCache` is thread-safe, so all
  workers serve warm loads from one cache.
* **deadlines** — a watchdog thread tracks every running machine; when
  a request's wall-clock deadline expires it cuts the machine's fuel,
  so the simulator stops at its next instruction boundary and the
  resulting :class:`~repro.errors.FuelExhausted` is converted into a
  typed :class:`~repro.errors.DeadlineExceeded`.  A runaway module
  therefore times out without stalling the other workers.
* **quotas** — per-request :class:`RequestQuota`: ``fuel`` (dynamic
  instructions), ``segment_size`` (module address-space size), and
  ``max_output_bytes`` (enforced inside the host-call boundary by
  :class:`CappedHost`, so a module cannot flood the host).
* **graceful degradation** — when the load for the requested target
  fails (translation is deterministic, so it is attempted once), the
  request runs on the reference interpreter instead of failing
  (``service.fallback``); a quota refusal is not degraded.  Module-level
  faults (traps, violations) become typed error responses, never
  worker crashes.  Corrupted disk-cache entries self-heal as misses.
* **fault injection** — :class:`FaultInjector` lets tests force
  translator crashes, cache corruption, and slow modules
  deterministically.

Observability: every request is counted (``service.request`` /
``service.ok`` / ``service.error`` / ``service.fallback`` /
``service.timeout`` / ``service.rejected``) both in
:meth:`ModuleHost.stats` and in any active :mod:`repro.metrics`
collector; per-request latencies aggregate into p50/p90/p99, and the
queue's high-water depth is tracked.

Quick start::

    from repro import Engine
    from repro.service import ModuleRequest

    engine = Engine(target="mips")
    with engine.serve(workers=4) as host:
        response = host.run(ModuleRequest(
            program="int main() { emit_int(42); return 0; }",
            deadline_seconds=2.0,
        ))
    assert response.ok and response.output == "42"
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro import metrics
from repro.engine import INTERPRETER, Engine, RunConfig
from repro.errors import (
    CrossModuleViolation,
    DeadlineExceeded,
    DuplicateExportError,
    DynamicLinkError,
    FuelExhausted,
    ModuleCycleError,
    ModuleRevokedError,
    QuotaExceeded,
    ReproError,
    ServiceOverloaded,
    TranslationError,
    UnresolvedImportError,
)
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.objfile import ObjectModule
from repro.runtime.host import Host
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.translators.base import TranslationOptions

__all__ = [
    "CappedHost",
    "FaultInjector",
    "ModuleHost",
    "ModuleRequest",
    "ModuleResponse",
    "PendingRequest",
    "RequestQuota",
    "ServiceStats",
]


# -- request / response types -------------------------------------------------


@dataclass(frozen=True)
class RequestQuota:
    """Per-request resource caps.

    ``fuel`` bounds dynamic instructions (the existing simulator
    mechanism); ``segment_size`` shrinks the module address space;
    ``max_output_bytes`` caps what the module may emit through host
    calls (None = service default, enforced by :class:`CappedHost`).
    """

    fuel: int = 50_000_000
    segment_size: int | None = None
    max_output_bytes: int | None = 1 << 20


@dataclass
class ModuleRequest:
    """One unit of hosted work: a module (or source text) to execute.

    Either *program* (a linked module or MiniC source) or *modules*
    (root module names to dynamically link out of the host's registry —
    see :meth:`ModuleHost.register_module`) must be set, not both.
    Link failures come back as typed error responses
    (``UnresolvedImportError``, ``ModuleRevokedError``,
    ``ModuleCycleError``, ...) with per-kind service counters.
    """

    program: LinkedProgram | str | None = None
    target: str | None = None  # None = the engine's default target
    options: TranslationOptions | str | None = None
    entry: str | None = None
    deadline_seconds: float | None = None
    quota: RequestQuota = field(default_factory=RequestQuota)
    request_id: str = ""
    modules: tuple[str, ...] | list[str] | None = None


@dataclass
class ModuleResponse:
    """The outcome of one request (module faults included — a response
    with ``ok=False`` and a typed ``error``, never a worker crash)."""

    request_id: str
    ok: bool
    exit_code: int | None = None
    output: str = ""
    arch: str = INTERPRETER
    fallback: bool = False
    error: str | None = None
    error_message: str | None = None
    latency_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "output": self.output,
            "arch": self.arch,
            "fallback": self.fallback,
            "error": self.error,
            "error_message": self.error_message,
            "latency_seconds": self.latency_seconds,
        }


# -- output quota enforcement -------------------------------------------------

#: Accounted size of one emitted value, by output kind.
_KIND_BYTES = {"char": 1, "double": 8, "int": 4, "uint": 4}


def _entry_bytes(kind: str, value: object) -> int:
    if kind == "str":
        return len(value) if isinstance(value, (bytes, str)) else 4
    return _KIND_BYTES.get(kind, 4)


class CappedHost(Host):
    """A :class:`~repro.runtime.host.Host` that enforces the
    output-byte quota at the host-call boundary: the module is stopped
    (typed :class:`~repro.errors.QuotaExceeded`) the moment its
    cumulative emitted bytes exceed the cap, not after the fact."""

    def __init__(self, max_output_bytes: int | None = None, **kwargs):
        super().__init__(**kwargs)
        self.max_output_bytes = max_output_bytes
        self.output_bytes = 0
        self._accounted = 0

    def hostcall(self, machine, index: int) -> None:
        super().hostcall(machine, index)
        while self._accounted < len(self.output):
            kind, value = self.output[self._accounted]
            self._accounted += 1
            self.output_bytes += _entry_bytes(kind, value)
        if (self.max_output_bytes is not None
                and self.output_bytes > self.max_output_bytes):
            raise QuotaExceeded(
                f"module emitted {self.output_bytes} bytes "
                f"(cap {self.max_output_bytes})",
                quota="output_bytes", limit=self.max_output_bytes,
            )


# -- fault injection ----------------------------------------------------------


class FaultInjector:
    """Deterministic fault injection for tests and benchmarks.

    The service calls :meth:`on_translate` before every native load
    and :meth:`on_execute` before every module run; armed faults fire
    in arming order and then disarm (``count=-1`` arms a permanent
    fault).  All methods are thread-safe.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._translate_faults: list[dict] = []
        self._delay_seconds = 0.0
        self.fired = 0

    # -- arming ---------------------------------------------------------------

    def fail_translations(self, count: int = 1,
                          arch: str | None = None) -> None:
        """Arm *count* translator crashes (``-1`` = every load) for
        *arch* (None = any target).  Each raises
        :class:`~repro.errors.TranslationError`, which the service
        degrades to the interpreter."""
        with self._lock:
            self._translate_faults.append({"count": count, "arch": arch})

    def delay_execution(self, seconds: float) -> None:
        """Make every hosted module 'slow': sleep *seconds* inside the
        execution window so deadline enforcement is exercised."""
        with self._lock:
            self._delay_seconds = seconds

    def corrupt_disk_entries(self, cache) -> int:
        """Flip one byte in every persisted cache entry (simulating
        external corruption); returns the number of files corrupted.
        The durable cache must reject each on its integrity digest."""
        if cache.disk_dir is None:
            return 0
        corrupted = 0
        for path in cache.disk_dir.glob("*.json"):
            blob = bytearray(path.read_bytes())
            if not blob:
                continue
            blob[len(blob) // 2] ^= 0x5A
            path.write_bytes(bytes(blob))
            corrupted += 1
        return corrupted

    def reset(self) -> None:
        with self._lock:
            self._translate_faults.clear()
            self._delay_seconds = 0.0

    # -- cross-process shipping -----------------------------------------------

    def snapshot(self) -> dict:
        """The armed faults as a picklable spec.  The sharded service
        snapshots its injector when worker processes spawn, so faults
        armed before ``start()`` fire inside every worker exactly as
        they would in the threaded host."""
        with self._lock:
            return {
                "translate_faults": [dict(f)
                                     for f in self._translate_faults],
                "delay_seconds": self._delay_seconds,
            }

    def arm(self, spec: dict) -> None:
        """Arm the faults a :meth:`snapshot` captured (worker side)."""
        with self._lock:
            self._translate_faults.extend(
                dict(f) for f in spec.get("translate_faults", ())
            )
            self._delay_seconds = max(
                self._delay_seconds, spec.get("delay_seconds", 0.0)
            )

    # -- hooks (called by the service) ----------------------------------------

    def on_translate(self, arch: str) -> None:
        with self._lock:
            for fault in self._translate_faults:
                if fault["arch"] is not None and fault["arch"] != arch:
                    continue
                if fault["count"] == 0:
                    continue
                if fault["count"] > 0:
                    fault["count"] -= 1
                self.fired += 1
                raise TranslationError(
                    f"injected translator crash ({arch})"
                )

    def on_execute(self, request: ModuleRequest) -> None:
        with self._lock:
            delay = self._delay_seconds
        if delay > 0.0:
            time.sleep(delay)


# -- service statistics -------------------------------------------------------


#: Bound on retained latency samples (a sliding window).  A long-lived
#: host once accumulated one float per request forever; the window
#: keeps percentile memory O(1) while reflecting recent traffic.
LATENCY_WINDOW = 4096


class ServiceStats:
    """Thread-safe aggregate of service counters, request latencies,
    and the queue-depth high-water mark.

    Counters are mirrored as ``service.*`` into every active
    :mod:`repro.metrics` collector and into *collector* (normally the
    owning engine's) even when it is not globally installed — service
    bookkeeping happens outside the engine's collecting sections.

    Latency samples are bounded: a ring buffer keeps the most recent
    :data:`LATENCY_WINDOW` observations, so percentiles describe current
    behaviour and a host serving millions of requests does not leak one
    float per request.  ``completed_requests`` still counts them all."""

    def __init__(self, collector: metrics.MetricsCollector | None = None):
        self._lock = threading.Lock()
        self._collector = collector
        self.counters: dict[str, int] = {}
        self.latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self.completed = 0
        self.queue_high_water = 0

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount
        qualified = f"service.{name}"
        metrics.count(qualified, amount)
        if self._collector is not None and self._collector not in \
                metrics._ACTIVE:
            self._collector.count(qualified, amount)

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self.latencies.append(seconds)
            self.completed += 1

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.queue_high_water:
                self.queue_high_water = depth

    def latency_percentiles(self) -> dict[str, float]:
        with self._lock:
            samples = sorted(self.latencies)
        return _percentiles(samples)

    def snapshot(self) -> dict:
        """Raw mergeable state (the sharded router aggregates these
        across worker processes — percentiles cannot be merged, samples
        can)."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "latencies": list(self.latencies),
                "completed": self.completed,
                "queue_high_water": self.queue_high_water,
            }

    def to_dict(self) -> dict:
        with self._lock:
            counters = dict(sorted(self.counters.items()))
            high_water = self.queue_high_water
            requests = self.completed
        payload = {
            "counters": counters,
            "queue_high_water": high_water,
            "completed_requests": requests,
        }
        payload["latency_seconds"] = self.latency_percentiles()
        return payload


def _percentiles(samples: list[float]) -> dict[str, float]:
    """p50/p90/p99 of pre-sorted samples (empty -> zeros)."""
    if not samples:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0}

    def pct(p: float) -> float:
        index = min(len(samples) - 1, int(round(p * (len(samples) - 1))))
        return samples[index]

    return {"p50": pct(0.50), "p90": pct(0.90), "p99": pct(0.99)}


# -- deadline watchdog --------------------------------------------------------

#: Seconds between the watchdog's scans for expired deadlines: how late
#: past its deadline a running module is cut.
WATCHDOG_INTERVAL = 0.002


class _DeadlineGuard:
    """One running machine with a wall-clock deadline."""

    __slots__ = ("machine", "deadline_at", "expired")

    def __init__(self, machine, deadline_at: float):
        self.machine = machine
        self.deadline_at = deadline_at
        self.expired = False


class _Watchdog:
    """Scans active executions and cuts fuel on expired deadlines.

    Cutting ``machine.fuel`` below the retired-instruction count makes
    the existing fuel check fire at the next check boundary — no new
    state in the hot simulator loops, and a module that never makes
    another host call still stops.  Under the legacy engines that
    boundary is the next instruction; under the threaded engines it is
    the next basic-block boundary (at most one block of straight-line
    code late), which is still bounded: blocks cannot span branches, so
    a runaway loop hits a boundary every iteration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._guards: set[_DeadlineGuard] = set()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="modulehost-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def watch_until(self, machine, deadline_at: float) -> _DeadlineGuard:
        """Watch with an absolute :func:`time.monotonic` deadline — the
        service uses this so compile, link and load time spent before
        execution count against the same wall-clock budget."""
        guard = _DeadlineGuard(machine, deadline_at)
        with self._lock:
            self._guards.add(guard)
        return guard

    def unwatch(self, guard: _DeadlineGuard) -> None:
        with self._lock:
            self._guards.discard(guard)

    def _run(self) -> None:
        while not self._stop.wait(WATCHDOG_INTERVAL):
            now = time.monotonic()
            with self._lock:
                expired = [g for g in self._guards
                           if not g.expired and now >= g.deadline_at]
            for guard in expired:
                guard.expired = True
                guard.machine.fuel = -1  # next fuel check raises


# -- future-style handle ------------------------------------------------------


class PendingRequest:
    """Handle for a submitted request; :meth:`result` blocks until the
    worker pool produces the :class:`ModuleResponse`."""

    def __init__(self, request: ModuleRequest):
        self.request = request
        self._done = threading.Event()
        self._response: ModuleResponse | None = None
        self._callbacks: list = []
        self._cb_lock = threading.Lock()

    def _resolve(self, response: ModuleResponse) -> None:
        self._response = response
        with self._cb_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(response)

    def on_done(self, callback) -> None:
        """Invoke *callback(response)* when the response arrives (now,
        if it already has).  The sharded worker uses this to stream
        responses back over its pipe without a thread per request."""
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self._response)

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> ModuleResponse:
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id!r} still running"
            )
        assert self._response is not None
        return self._response


# -- the service --------------------------------------------------------------

#: Sentinel shutting one worker down.
_SHUTDOWN = object()

#: Dynamic-link failure kinds the service counts individually (on top of
#: the generic ``service.error``), so operators can tell a revoked
#: dependency from a genuinely missing one at a glance.
_LINK_FAILURE_COUNTERS = {
    CrossModuleViolation: "cross_module_violation",
    DuplicateExportError: "link_duplicate_export",
    ModuleCycleError: "link_cycle",
    ModuleRevokedError: "module_revoked",
    UnresolvedImportError: "link_unresolved_import",
}


class ModuleHost:
    """A concurrent execution service for mobile modules.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.Engine` to serve with (None = a fresh
        default engine).  Its translation cache is shared by all
        workers (the cache is internally locked).
    workers:
        Worker-thread count (each runs interp/target simulation).
    queue_depth:
        Bound on queued-but-unstarted requests; a full queue rejects
        non-blocking submits with
        :class:`~repro.errors.ServiceOverloaded`.
    faults:
        Optional :class:`FaultInjector` consulted before every native
        load and every execution.
    default_deadline:
        Deadline (seconds) applied when a request does not set one
        (None = no deadline).
    """

    def __init__(
        self,
        engine: Engine | None = None,
        workers: int = 4,
        queue_depth: int = 32,
        faults: FaultInjector | None = None,
        default_deadline: float | None = None,
    ):
        if workers < 1:
            raise ValueError("ModuleHost needs at least one worker")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.engine = engine or Engine()
        self.workers = workers
        self.faults = faults
        self.default_deadline = default_deadline
        self.stats = ServiceStats(self.engine.metrics)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._watchdog = _Watchdog()
        self._threads: list[threading.Thread] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ModuleHost":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._watchdog.start()
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"modulehost-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain queued requests, then stop the workers and watchdog."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        for thread in threads:
            thread.join()
        self._watchdog.stop()

    def __enter__(self) -> "ModuleHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- submission -----------------------------------------------------------

    def submit(self, request: ModuleRequest,
               block: bool = False) -> PendingRequest:
        """Enqueue *request*; returns a :class:`PendingRequest`.

        A full queue raises :class:`~repro.errors.ServiceOverloaded`
        when ``block`` is False (the degradation policy: shed load
        early and visibly); ``block=True`` applies backpressure
        instead."""
        self.start()
        if not request.request_id:
            request.request_id = f"req-{next(self._ids)}"
        pending = PendingRequest(request)
        try:
            self._queue.put((request, pending), block=block)
        except queue.Full:
            self.stats.count("rejected")
            raise ServiceOverloaded(
                f"request queue full ({self._queue.maxsize} deep); "
                f"request {request.request_id!r} rejected"
            ) from None
        self.stats.observe_queue_depth(self._queue.qsize())
        return pending

    def run(self, request: ModuleRequest,
            timeout: float | None = None) -> ModuleResponse:
        """Submit (with backpressure) and wait for the response."""
        return self.submit(request, block=True).result(timeout)

    def run_batch(self, requests: list[ModuleRequest],
                  timeout: float | None = None) -> list[ModuleResponse]:
        """Submit every request (with backpressure) and collect the
        responses in request order."""
        pending = [self.submit(request, block=True) for request in requests]
        return [p.result(timeout) for p in pending]

    # -- module management ----------------------------------------------------

    def register_module(self, name: str, module: "ObjectModule | str",
                        policy: SandboxPolicy = DEFAULT_POLICY):
        """Register (or hot-reload) a named module in the engine's
        registry; subsequent ``modules=``-style requests link against
        it.  Reloading invalidates only that module's cached translation
        chunks — other modules keep their warm translations."""
        definition = self.engine.register_module(name, module, policy)
        self.stats.count("module_register")
        return definition

    def revoke_module(self, name: str):
        """Revoke *name*: requests whose link closure needs it fail with
        a typed ``ModuleRevokedError`` response; in-flight executions of
        images already linked against it run to completion."""
        definition = self.engine.revoke_module(name)
        self.stats.count("module_revoke")
        return definition

    # -- workers --------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            request, pending = item
            try:
                response = self._execute(request)
            except BaseException as err:  # defensive: never kill a worker
                response = ModuleResponse(
                    request_id=request.request_id, ok=False,
                    error=type(err).__name__, error_message=str(err),
                )
                self.stats.count("error")
            finally:
                self._queue.task_done()
            pending._resolve(response)

    def _execute(self, request: ModuleRequest) -> ModuleResponse:
        start = time.perf_counter()
        self.stats.count("request")
        engine = self.engine
        response = ModuleResponse(request_id=request.request_id, ok=False)
        # One wall-clock budget for the whole request: compile, link
        # and load spend from the same deadline as execution, which
        # checks it before it starts.
        deadline = (request.deadline_seconds
                    if request.deadline_seconds is not None
                    else self.default_deadline)
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        try:
            if request.modules:
                if request.program is not None:
                    raise DynamicLinkError(
                        "a request takes program= or modules=, not both"
                    )
                program: LinkedProgram = engine.link_modules(
                    list(request.modules), entry=request.entry or "main"
                )
            elif request.program is None:
                raise DynamicLinkError(
                    "a request needs program= or modules="
                )
            else:
                program = request.program
                if not isinstance(program, LinkedProgram):
                    program = engine.compile(program)
            # Named before the load, so a load refused for its quota
            # reports the arch it was refused on.
            arch = response.arch = engine._resolve_target(request.target)
            quota = request.quota
            config = RunConfig(host=CappedHost(quota.max_output_bytes),
                               fuel=quota.fuel,
                               segment_size=quota.segment_size)
            module = None
            if arch != INTERPRETER:
                try:
                    if self.faults is not None:
                        self.faults.on_translate(arch)
                    module = engine.load(program, arch, request.options,
                                         config=config)
                except QuotaExceeded:
                    raise
                except ReproError:
                    # Graceful degradation: serve the request on the
                    # reference interpreter rather than failing it.
                    self.stats.count("fallback")
                    response.fallback = True
                    arch = response.arch = INTERPRETER
                    config = replace(
                        config, host=CappedHost(quota.max_output_bytes))
            if module is None:
                module = engine.load(program, arch, request.options,
                                     config=config)
            response.exit_code = self._run_with_deadline(
                module, request, deadline, deadline_at)
            response.ok = True
            response.output = config.host.output_text()
            self.stats.count("ok")
        except DeadlineExceeded as err:
            self.stats.count("timeout")
            self.stats.count("error")
            response.error = type(err).__name__
            response.error_message = str(err)
        except QuotaExceeded as err:
            self.stats.count("quota_exceeded")
            self.stats.count("error")
            response.error = type(err).__name__
            response.error_message = str(err)
        except ReproError as err:
            counter = _LINK_FAILURE_COUNTERS.get(type(err))
            if counter is not None:
                self.stats.count(counter)
            self.stats.count("error")
            response.error = type(err).__name__
            response.error_message = str(err)
        response.latency_seconds = time.perf_counter() - start
        self.stats.observe_latency(response.latency_seconds)
        return response

    def _run_with_deadline(self, module, request: ModuleRequest,
                           deadline: float | None,
                           deadline_at: float | None) -> int:
        machine = getattr(module, "machine", None) or module.vm
        guard = None
        if deadline_at is not None:
            if deadline_at - time.monotonic() <= 0.0:
                # Budget already spent (e.g. on compile or translation):
                # fail fast rather than start an execution we must kill.
                raise DeadlineExceeded(
                    f"request {request.request_id!r} exceeded its "
                    f"{deadline:.3f}s deadline before execution",
                    deadline_seconds=deadline,
                )
            guard = self._watchdog.watch_until(machine, deadline_at)
        try:
            if self.faults is not None:
                self.faults.on_execute(request)
            with self.engine._collecting():
                return module.run(request.entry)
        except FuelExhausted:
            if guard is not None and guard.expired:
                raise DeadlineExceeded(
                    f"request {request.request_id!r} exceeded its "
                    f"{deadline:.3f}s deadline", deadline_seconds=deadline,
                ) from None
            raise
        finally:
            if guard is not None:
                self._watchdog.unwatch(guard)
