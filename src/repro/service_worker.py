"""Worker-process side of the sharded module-hosting service.

One worker process serves one shard of the request space (see
:mod:`repro.service_router` for the consistent-hash front end).  Inside
the process lives an ordinary :class:`~repro.service.ModuleHost` — the
same worker threads, deadline watchdog, quota enforcement, retry policy,
and fault injection as the single-process service — fronted by a small
message loop over the router's pipe.  That composition is the point:
every governance mechanism is the *same code* on both sides of the
process boundary, so deadline/quota/retry/fallback semantics cannot
drift between the threaded and sharded hosts.

Protocol (pickled tuples over a :class:`multiprocessing.Pipe`):

router -> worker
    ``("request", ModuleRequest)``          run it, reply when done
    ``("register", token, name, payload, policy)``  register a module
    ``("revoke", token, name)``             revoke a module
    ``("stats", token)``                    reply with a stats snapshot
    ``("shutdown", token)``                 drain, reply stats, exit

worker -> router
    ``("response", ModuleResponse)``        a finished request
    ``("ctl_ok", token, result)``           control op succeeded
    ``("ctl_err", token, serialized)``      control op raised; the
    router re-raises the same class via
    :func:`repro.errors.deserialize_error`.

The worker's engine owns a *private* in-memory translation cache —
that is what sharding keeps hot — layered over the shared on-disk cold
tier (``disk_cache_dir``), whose atomic, integrity-checked, fsynced
writes (:mod:`repro.cache`) make cross-process sharing safe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.compiler import CompileOptions
from repro.errors import serialize_error
from repro.service import FaultInjector, ModuleHost, RetryPolicy
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.translators.base import TranslationOptions

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its service stack.

    Picklable by construction (plain data + frozen dataclasses): the
    router ships one of these to every shard, including respawns after
    a crash."""

    shard_index: int
    shard_count: int
    target: str | None = None
    profile: TranslationOptions = field(default_factory=TranslationOptions)
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    execution_engine: str = "jit"
    disk_cache_dir: str | None = None
    cache_capacity: int = 64
    threads: int = 2
    queue_depth: int = 32
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    default_deadline: float | None = None
    watchdog_interval: float = 0.002
    fault_spec: dict | None = None


def _build_host(config: WorkerConfig) -> ModuleHost:
    from repro.cache import TranslationCache
    from repro.engine import Engine

    cache = TranslationCache(capacity=config.cache_capacity,
                             disk_dir=config.disk_cache_dir)
    engine = Engine(
        target=config.target,
        profile=config.profile,
        cache=cache,
        compile_options=config.compile_options,
        execution_engine=config.execution_engine,
    )
    faults = None
    if config.fault_spec is not None:
        faults = FaultInjector()
        faults.arm(config.fault_spec)
    host = ModuleHost(
        engine,
        workers=config.threads,
        queue_depth=config.queue_depth,
        retry=config.retry,
        faults=faults,
        default_deadline=config.default_deadline,
        watchdog_interval=config.watchdog_interval,
    )
    return host


def _stats_payload(host: ModuleHost) -> dict:
    payload = host.stats.snapshot()
    payload["cache"] = host.engine.cache.stats().to_dict() \
        if host.engine.cache is not None else {}
    return payload


def _register_payload_module(payload):
    """Reverse the router's wire encoding of a module definition."""
    kind, body = payload
    if kind == "obj":
        from repro.omnivm.objfile import ObjectModule

        return ObjectModule.from_bytes(body)
    return body  # MiniC source text; the worker's engine compiles it


def worker_main(config: WorkerConfig, conn) -> None:
    """Process entry point: serve requests from *conn* until shutdown.

    Responses are streamed back as the inner host finishes them (its
    worker threads invoke the :class:`~repro.service.PendingRequest`
    done-callbacks), so a slow request never blocks the message loop —
    the loop only ever blocks on ``conn.recv()``.
    """
    host = _build_host(config).start()
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                # Router is gone; the process is about to be reaped.
                pass

    def respond(response) -> None:
        send(("response", response))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # router died or closed our pipe: exit quietly
            kind = message[0]
            if kind == "request":
                host.submit(message[1], block=True).on_done(respond)
            elif kind == "register":
                token, name, payload, policy = message[1:]
                try:
                    host.register_module(
                        name, _register_payload_module(payload),
                        policy if isinstance(policy, SandboxPolicy)
                        else DEFAULT_POLICY)
                    send(("ctl_ok", token, None))
                except Exception as err:
                    send(("ctl_err", token, serialize_error(err)))
            elif kind == "revoke":
                token, name = message[1:]
                try:
                    host.revoke_module(name)
                    send(("ctl_ok", token, None))
                except Exception as err:
                    send(("ctl_err", token, serialize_error(err)))
            elif kind == "stats":
                send(("ctl_ok", message[1], _stats_payload(host)))
            elif kind == "shutdown":
                host.stop()  # drains queued requests first
                send(("ctl_ok", message[1], _stats_payload(host)))
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass
