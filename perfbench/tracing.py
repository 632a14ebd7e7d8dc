"""Span tracing around the public calls into each layer of the system.

The benchmark's traced run installs wrappers around the functions each
layer exposes, records one span per call, and removes the wrappers when
the run ends.  Loaders import several of these functions by name, so a
wrapper is installed at every name the callers look up, not only at the
defining module (``repro.runtime.native_loader.translate`` is a
different binding from ``repro.translators.translate``).

Spans stay in memory; :meth:`Tracer.chrome_trace` renders them as
Chrome trace-event JSON (``chrome://tracing`` and Perfetto open it).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str           # the layer
    start: float        # perf_counter seconds
    end: float
    thread: int
    parent: "Span | None"
    request: int = -1   # request index, assigned after the traced pass
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


def _segments_bytes(memory) -> int:
    return sum(segment.size for segment in memory.segments)


def _instret(module) -> int:
    machine = getattr(module, "machine", None)
    if machine is not None:
        return machine.instret
    return module.vm.state.instret


#: (layer, owner, attribute, counter).  Every (owner, attribute) is a
#: binding some caller resolves at call time; entries naming the same
#: function share one wrapper.  The counter, when set, derives per-call
#: counts from (args, result).
def _patch_sites():
    import repro.engine as engine
    import repro.omnivm.memory as memory
    import repro.omnivm.threaded as omni_threaded
    import repro.omnivm.verifier as verifier
    import repro.runtime.linker as linker
    import repro.runtime.loader as loader
    import repro.runtime.native_loader as native_loader
    import repro.sfi.verifier as sfi
    import repro.targets.threaded as native_threaded
    import repro.translators as translators

    compiled = lambda args, out: {"omni_instrs": len(out.instrs)}
    translated = lambda args, out: {"native_instrs": len(out.instrs)}
    mapped = lambda args, out: {"mapped_bytes": _segments_bytes(out)}
    ran = lambda args, out: {"instret": _instret(args[0])}
    return [
        ("compiler", engine.Engine, "compile", compiled),
        ("verifier", verifier, "verify_program", None),
        ("verifier", loader, "verify_program", None),
        ("verifier", native_loader, "verify_program", None),
        ("translators", translators, "translate", translated),
        ("translators", native_loader, "translate", translated),
        ("translators", engine, "translate", translated),
        ("sfi", sfi, "verify_sfi", None),
        ("memory", memory, "standard_module_memory", mapped),
        ("memory", loader, "standard_module_memory", mapped),
        ("memory", native_loader, "standard_module_memory", mapped),
        ("memory", linker, "image_memory", mapped),
        ("threaded", omni_threaded, "predecode_program", None),
        ("threaded", loader, "predecode_program", None),
        ("threaded", native_threaded, "predecode_native", None),
        ("execute", loader.LoadedModule, "run", ran),
        ("execute", native_loader.NativeModule, "run", ran),
        ("linker", engine.Engine, "link_modules", None),
        ("linker", linker, "translate_image", None),
    ]


class Tracer:
    """Collects spans from every thread while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, layer: str, original, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(layer, time.perf_counter(), 0.0,
                        threading.get_ident(), parent)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    parent.children_s += span.seconds
                with tracer._lock:
                    tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        wrappers: dict[int, object] = {}
        try:
            for layer, owner, name, counter in _patch_sites():
                original = getattr(owner, name)
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = self._wrap(
                        layer, original, counter)
                saved.append((owner, name, original))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def chrome_trace(self, roots: list[dict]) -> dict:
        """Trace-event JSON: one complete event per span, plus the
        request root events in *roots* (already in trace-event form)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min([span.start for span in self.spans]
                     + [root["ts"] / 1e6 for root in roots], default=0.0)
        events = [dict(root, ts=root["ts"] - origin * 1e6) for root in roots]
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": span.thread,
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "args": {
                    "id": index, "request": span.request,
                    "parent": (ids[id(span.parent)]
                               if span.parent is not None else None),
                    **span.counts,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
