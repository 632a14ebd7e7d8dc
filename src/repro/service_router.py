"""Sharded module-hosting service: a router over worker processes.

The threaded :class:`~repro.service.ModuleHost` scales until the
interpreter loops saturate the GIL — simulation is pure Python, so
worker *threads* time-slice one core.  :class:`ShardedModuleHost` keeps
the exact same request/response surface but fans requests out to N
worker **processes** (:mod:`repro.service_worker`), each running a full
threaded host around its own engine:

* **consistent-hash sharding** — requests are routed by module content
  digest over a 64-points-per-shard hash ring, so repeat loads of one
  module always land on the same worker and hit that worker's private
  in-memory :class:`~repro.cache.TranslationCache`.  Adding/removing a
  shard remaps only ~1/N of the key space (the ring property), which
  keeps the other shards' caches hot across resizes.
* **shared cold tier** — every worker layers its memory cache over the
  same on-disk cache directory; its atomic, fsynced, integrity-checked
  writes make cross-process sharing safe, and the cache's single-flight
  protocol (in-process events plus on-disk flight locks) means a
  thundering herd on one uncached module translates exactly once even
  across processes.
* **bit-for-bit governance parity** — deadlines, quotas, interpreter
  fallback, and overload rejection all run *inside* the worker's
  ordinary :class:`ModuleHost`; the router adds only transport.  Typed
  control-plane errors cross the pipe via
  :func:`repro.errors.serialize_error` and re-raise as the same
  classes.
* **crash containment** — a worker process dying (segfault, kill, OOM)
  fails only its in-flight requests, each with a retryable
  ``TransientFault`` response; the router respawns the shard, replays
  the module-registry operation log into it, and keeps serving.
* **aggregated observability** — ``host.stats`` merges every shard's
  counters, bounded latency windows, and queue high-water marks into
  one :class:`ServiceStats`-shaped view (same counter names, same
  ``to_dict`` schema), live while running and frozen at ``stop()``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import threading

from repro.cache import program_digest
from repro.engine import Engine
from repro.errors import ReproError, ServiceOverloaded, deserialize_error
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.objfile import ObjectModule
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.service import (
    FaultInjector,
    ModuleRequest,
    ModuleResponse,
    PendingRequest,
    ServiceStats,
    _percentiles,
)
from repro.service_worker import WorkerConfig, worker_main

__all__ = ["ShardedModuleHost", "ShardedStats"]


# -- consistent hashing -------------------------------------------------------

#: Virtual points per shard on the hash ring.  Enough that the key
#: space splits near-evenly across small shard counts; few enough that
#: building the ring is microseconds.
RING_REPLICAS = 64


def _ring_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class _HashRing:
    """A consistent-hash ring mapping string keys to shard indices."""

    def __init__(self, shard_count: int, replicas: int = RING_REPLICAS):
        points = sorted(
            (_ring_hash(f"shard-{shard}-point-{replica}"), shard)
            for shard in range(shard_count)
            for replica in range(replicas)
        )
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def lookup(self, key: str) -> int:
        index = bisect.bisect(self._hashes, _ring_hash(key))
        return self._shards[index % len(self._shards)]


def shard_key(request: ModuleRequest) -> str:
    """The routing key for *request*: a stable content identity.

    Routing by *content* (not request id) is what makes sharding a
    cache-affinity mechanism — every load of the same module lands on
    the shard whose memory cache already holds its translation."""
    if request.modules:
        return "modules|" + "|".join(request.modules)
    program = request.program
    if isinstance(program, LinkedProgram):
        return program_digest(program)
    if isinstance(program, str):
        return hashlib.sha256(program.encode()).hexdigest()
    return request.request_id


# -- control-plane futures ----------------------------------------------------

#: Seconds the router waits for a shard to answer a control message
#: (register, revoke, stats, shutdown) or to exit before giving up.
CTL_TIMEOUT = 30.0


class _CtlFuture:
    """One outstanding control message (register/revoke/stats/shutdown)."""

    __slots__ = ("_done", "ok", "payload")

    def __init__(self):
        self._done = threading.Event()
        self.ok = False
        self.payload = None

    def resolve(self, ok: bool, payload) -> None:
        self.ok = ok
        self.payload = payload
        self._done.set()

    def wait(self, timeout: float | None):
        if not self._done.wait(timeout):
            raise TimeoutError("worker control operation timed out")
        if not self.ok:
            raise deserialize_error(self.payload)
        return self.payload


# -- aggregated stats ---------------------------------------------------------


class ShardedStats:
    """A :class:`~repro.service.ServiceStats`-shaped aggregate view.

    Counters, bounded latency windows, and completion totals are summed
    across every worker's snapshot plus the router's own stats (which
    hold router-side events: overload rejections, worker restarts, and
    the error counts of crash-failed requests); queue high-water is the
    max over shards.  Live while the host runs (each access polls the
    workers); frozen from the final drain snapshots after ``stop()``.
    """

    def __init__(self, host: "ShardedModuleHost"):
        self._host = host

    def _merged(self) -> dict:
        local = self._host._router_stats.snapshot()
        merged = {
            "counters": dict(local["counters"]),
            "latencies": list(local["latencies"]),
            "completed": local["completed"],
            "queue_high_water": local["queue_high_water"],
            "shards": 0,
            "cache": {},
        }
        for snapshot in self._host._shard_snapshots():
            merged["shards"] += 1
            for name, value in snapshot["counters"].items():
                merged["counters"][name] = (
                    merged["counters"].get(name, 0) + value
                )
            merged["latencies"].extend(snapshot["latencies"])
            merged["completed"] += snapshot["completed"]
            merged["queue_high_water"] = max(
                merged["queue_high_water"], snapshot["queue_high_water"]
            )
            for name, value in snapshot.get("cache", {}).items():
                merged["cache"][name] = (
                    merged["cache"].get(name, 0) + value
                )
        return merged

    @property
    def counters(self) -> dict[str, int]:
        return self._merged()["counters"]

    @property
    def queue_high_water(self) -> int:
        return self._merged()["queue_high_water"]

    def latency_percentiles(self) -> dict[str, float]:
        return _percentiles(sorted(self._merged()["latencies"]))

    def to_dict(self) -> dict:
        merged = self._merged()
        return {
            "counters": dict(sorted(merged["counters"].items())),
            "queue_high_water": merged["queue_high_water"],
            "completed_requests": merged["completed"],
            "latency_seconds": _percentiles(sorted(merged["latencies"])),
            "shards": merged["shards"],
            "cache": dict(sorted(merged["cache"].items())),
        }


# -- shard bookkeeping --------------------------------------------------------


class _Shard:
    """Router-side state for one worker process."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.receiver: threading.Thread | None = None
        self.generation = 0
        self.lock = threading.Lock()
        self.not_full = threading.Condition(self.lock)
        self.inflight: dict[str, PendingRequest] = {}


class ShardedModuleHost:
    """A front-end router over N worker-process shards.

    Drop-in for :class:`~repro.service.ModuleHost`: same ``submit`` /
    ``run`` / ``run_batch`` / ``register_module`` / ``revoke_module`` /
    ``stats`` surface, same typed errors, same counter names.
    Construct via ``engine.serve(processes=N)``.

    Parameters mirror the threaded host where they overlap; ``workers``
    is the *thread* count inside each shard, so total concurrency is
    ``processes * workers``.  The prototype *engine* contributes the
    target, profile, compile options, execution engine, and (critically)
    the disk cache directory every shard shares as its cold tier; the
    engine object itself never crosses the process boundary — each
    worker builds its own from the shipped :class:`WorkerConfig`.
    """

    #: Per-shard cap on router-accepted, not-yet-responded requests.
    #: Mirrors the threaded host's admission bound of ``queue_depth``
    #: queued plus ``workers`` executing.
    def _capacity(self) -> int:
        return self._queue_depth + self._workers

    def __init__(
        self,
        engine: Engine | None = None,
        processes: int = 2,
        workers: int = 2,
        queue_depth: int = 32,
        faults: FaultInjector | None = None,
        default_deadline: float | None = None,
    ):
        if processes < 1:
            raise ValueError("ShardedModuleHost needs at least one process")
        if workers < 1:
            raise ValueError("each shard needs at least one worker thread")
        if queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.engine = engine or Engine()
        self.processes = processes
        self._workers = workers
        self._queue_depth = queue_depth
        self.faults = faults
        self.default_deadline = default_deadline
        self._ring = _HashRing(processes)
        self._shards = [_Shard(index) for index in range(processes)]
        self._ctl: dict[str, _CtlFuture] = {}
        self._ctl_lock = threading.Lock()
        self._ctl_ids = itertools.count(1)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        # Module-registry operation log, replayed into respawned shards
        # so a crash never forgets registrations (or revocations).
        self._registry_log: list[tuple] = []
        self._registry_lock = threading.Lock()
        self._router_stats = ServiceStats(self.engine.metrics)
        self._final_snapshots: list[dict] | None = None
        self.stats = ShardedStats(self)
        # Fork shares the parent's memory page cache and skips module
        # re-import; fall back to spawn where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # -- worker config --------------------------------------------------------

    def _worker_config(self, index: int) -> WorkerConfig:
        cache = self.engine.cache
        return WorkerConfig(
            shard_index=index,
            shard_count=self.processes,
            target=self.engine.target,
            profile=self.engine.profile,
            compile_options=self.engine.compile_options,
            execution_engine=self.engine.execution_engine,
            disk_cache_dir=(
                str(cache.disk_dir)
                if cache is not None and cache.disk_dir is not None
                else None
            ),
            cache_capacity=cache.capacity if cache is not None else 64,
            threads=self._workers,
            queue_depth=self._queue_depth,
            default_deadline=self.default_deadline,
            fault_spec=(self.faults.snapshot()
                        if self.faults is not None else None),
        )

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ShardedModuleHost":
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._stopping = False
            self._seed_registry_log()
            for shard in self._shards:
                self._spawn(shard)
        return self

    def _seed_registry_log(self) -> None:
        """Modules registered on the engine before ``start()`` become
        the head of the op log, so workers begin with the same registry
        view the threaded host would have."""
        with self._registry_lock:
            if self._registry_log:
                return
            for name in self.engine.registry.names():
                definition = self.engine.registry.lookup(name)
                if definition is None:
                    continue
                self._registry_log.append(
                    ("register", name,
                     ("obj", definition.obj.to_bytes()), definition.policy)
                )
                if definition.revoked:
                    self._registry_log.append(("revoke", name))

    def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) one worker process and its receiver."""
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(self._worker_config(shard.index), child_conn),
            name=f"modulehost-shard-{shard.index}",
            daemon=True,
        )
        process.start()
        # Close the router's copy of the child end immediately: the
        # worker then holds the only write end, so its death — even
        # SIGKILL — surfaces as EOF on our receiver.  (Shards spawn
        # sequentially, so no other fork can inherit this end.)
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.generation += 1
        generation = shard.generation
        replay = list(self._registry_log)
        shard.receiver = threading.Thread(
            target=self._receive_loop,
            args=(shard, parent_conn, generation),
            name=f"modulehost-router-recv-{shard.index}",
            daemon=True,
        )
        shard.receiver.start()
        for op in replay:
            self._ctl_send(shard, op[0], *op[1:])

    def stop(self) -> None:
        """Drain every shard, collect final stats, reap the workers."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._stopping = True
        snapshots: list[dict] = []
        futures = []
        for shard in self._shards:
            if shard.conn is None:
                continue
            try:
                futures.append(self._ctl_send(shard, "shutdown"))
            except OSError:
                futures.append(None)
        for future in futures:
            if future is None:
                continue
            try:
                snapshots.append(future.wait(CTL_TIMEOUT))
            except (ReproError, TimeoutError):
                pass
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            process.join(timeout=CTL_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:
                    pass
            shard.conn = None
            shard.process = None
        self._final_snapshots = snapshots

    def __enter__(self) -> "ShardedModuleHost":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- receive / crash handling ---------------------------------------------

    def _receive_loop(self, shard: _Shard, conn, generation: int) -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "response":
                response: ModuleResponse = message[1]
                with shard.lock:
                    pending = shard.inflight.pop(response.request_id, None)
                    shard.not_full.notify()
                if pending is not None:
                    pending._resolve(response)
            elif kind == "ctl_ok":
                self._resolve_ctl(message[1], True, message[2])
            elif kind == "ctl_err":
                self._resolve_ctl(message[1], False, message[2])
        self._shard_down(shard, generation)

    def _resolve_ctl(self, token: str, ok: bool, payload) -> None:
        with self._ctl_lock:
            future = self._ctl.pop(token, None)
        if future is not None:
            future.resolve(ok, payload)

    def _shard_down(self, shard: _Shard, generation: int) -> None:
        """The shard's pipe hit EOF: crash, or normal shutdown."""
        with self._lock:
            if self._stopping or not self._started:
                return
            if shard.generation != generation:
                return  # a newer incarnation already took over
            self._router_stats.count("worker_restart")
            with shard.lock:
                orphans = list(shard.inflight.values())
                shard.inflight.clear()
                shard.not_full.notify_all()
            if shard.process is not None:
                shard.process.join(timeout=1.0)
            self._spawn(shard)
        # Resolve outside the locks: callbacks may resubmit.
        for pending in orphans:
            self._router_stats.count("error")
            pending._resolve(ModuleResponse(
                request_id=pending.request.request_id,
                ok=False,
                error="TransientFault",
                error_message=(
                    f"worker process for shard {shard.index} died with "
                    f"the request in flight; safe to retry"
                ),
            ))

    # -- control plane --------------------------------------------------------

    def _ctl_send(self, shard: _Shard, kind: str, *payload) -> _CtlFuture:
        token = f"ctl-{next(self._ctl_ids)}"
        future = _CtlFuture()
        with self._ctl_lock:
            self._ctl[token] = future
        try:
            shard.conn.send((kind, token) + payload)
        except (OSError, ValueError):
            with self._ctl_lock:
                self._ctl.pop(token, None)
            raise
        return future

    def _broadcast(self, kind: str, *payload) -> None:
        self.start()
        futures = []
        with self._lock:
            for shard in self._shards:
                futures.append(self._ctl_send(shard, kind, *payload))
        first_error: ReproError | None = None
        for future in futures:
            try:
                future.wait(CTL_TIMEOUT)
            except ReproError as err:
                first_error = first_error or err
        if first_error is not None:
            raise first_error

    def register_module(self, name: str, module: "ObjectModule | str",
                        policy: SandboxPolicy = DEFAULT_POLICY) -> None:
        """Register (or hot-reload) *name* in every shard's registry.

        Source text crosses the pipe as text (each worker compiles it —
        the registered object must exist in the worker's process);
        object modules cross as their canonical byte encoding.  A
        failure in any shard re-raises as the worker's typed error."""
        if isinstance(module, ObjectModule):
            payload = ("obj", module.to_bytes())
        else:
            payload = ("src", module)
        with self._registry_lock:
            self._registry_log.append(("register", name, payload, policy))
        self._broadcast("register", name, payload, policy)

    def revoke_module(self, name: str) -> None:
        """Revoke *name* in every shard; unknown names raise the same
        :class:`~repro.errors.DynamicLinkError` the threaded host
        raises, re-raised from the workers' serialized errors."""
        with self._registry_lock:
            self._registry_log.append(("revoke", name))
        self._broadcast("revoke", name)

    def _shard_snapshots(self) -> list[dict]:
        """Per-shard stats snapshots: live polls while running, the
        frozen drain snapshots after ``stop()``."""
        if self._final_snapshots is not None:
            return list(self._final_snapshots)
        with self._lock:
            if not self._started:
                return []
            futures = []
            for shard in self._shards:
                try:
                    futures.append(self._ctl_send(shard, "stats"))
                except OSError:
                    pass
        snapshots = []
        for future in futures:
            try:
                snapshots.append(future.wait(CTL_TIMEOUT))
            except (ReproError, TimeoutError):
                pass
        return snapshots

    # -- submission -----------------------------------------------------------

    def submit(self, request: ModuleRequest,
               block: bool = False) -> PendingRequest:
        """Route *request* to its shard; returns a
        :class:`~repro.service.PendingRequest`.

        Admission control matches the threaded host: each shard accepts
        ``queue_depth + workers`` outstanding requests; beyond that a
        non-blocking submit raises
        :class:`~repro.errors.ServiceOverloaded` (and counts
        ``service.rejected``), while ``block=True`` applies
        backpressure."""
        self.start()
        if not request.request_id:
            request.request_id = f"req-{next(self._ids)}"
        shard = self._shards[self._ring.lookup(shard_key(request))]
        pending = PendingRequest(request)
        capacity = self._capacity()
        with shard.lock:
            if len(shard.inflight) >= capacity:
                if not block:
                    self._router_stats.count("rejected")
                    raise ServiceOverloaded(
                        f"shard {shard.index} at capacity ({capacity} "
                        f"outstanding); request {request.request_id!r} "
                        f"rejected"
                    )
                while len(shard.inflight) >= capacity:
                    shard.not_full.wait()
            shard.inflight[request.request_id] = pending
            self._router_stats.observe_queue_depth(len(shard.inflight))
            conn = shard.conn
        try:
            conn.send(("request", request))
        except (OSError, ValueError, AttributeError):
            # The shard died between routing and send.  Its receiver
            # respawns it and fails the in-flight set, but this request
            # may have been added after the receiver drained the set —
            # resolve it here (idempotently: pop wins exactly once) so
            # it can never hang.
            with shard.lock:
                still = shard.inflight.pop(request.request_id, None)
                shard.not_full.notify()
            if still is not None:
                self._router_stats.count("error")
                still._resolve(ModuleResponse(
                    request_id=request.request_id,
                    ok=False,
                    error="TransientFault",
                    error_message=(
                        f"worker process for shard {shard.index} died "
                        f"before accepting the request; safe to retry"
                    ),
                ))
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

    # -- introspection --------------------------------------------------------

    def shard_of(self, request: ModuleRequest) -> int:
        """Which shard *request* routes to (stable for fixed N)."""
        return self._ring.lookup(shard_key(request))

    def alive(self) -> list[bool]:
        """Liveness of each shard's worker process."""
        return [shard.process is not None and shard.process.is_alive()
                for shard in self._shards]
