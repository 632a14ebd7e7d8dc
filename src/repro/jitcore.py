"""Shared machinery for the superblock JIT tiers.

Two trace JITs live in this codebase: :mod:`repro.omnivm.jit` compiles
hot OmniVM block chains and :mod:`repro.targets.jit` compiles hot
translated-native block chains for the four target simulators.  Both
follow the same architecture — heat-counted entry dispatch, static
entry-directed/BTFN trace formation, Python source generation with
``compile()``/``exec``, guarded deopt side exits, per-site inline
memory caches keyed on ``Memory.perm_epoch`` — so the pieces that are
not ISA-specific are hoisted here:

* the source :class:`Emitter` and the instret bookkeeping of
  :class:`Acct`;
* the heat/trace-limit constants;
* the per-site inline memory-cache emission helpers, the fuel check
  at a looped trace's backedge, and :func:`assemble`, the one
  superblock assembler (factory, cache cells, entry guard, loop
  wrapper, and the ``FLUSH`` placeholder expanded after inlined
  hostcalls);
* the fresh-namespace builder for ``exec``'d superblocks;
* :class:`BlockDispatch`, the state and counters of each ISA's one
  block-dispatch loop; :class:`JitState`, the JIT's state for one
  translation, shared by every machine running it; and
  :class:`SuperblockTier`, the one tier-up path: heat-triggered
  compilation and one superblock closure per machine.

Traces are static: each entry's superblock is formed once per
translation from the instruction stream alone, and a guarded side exit
only counts itself (``execute.deopts``) on its way back to the
dispatcher.  Emitted source must stay a pure function of the
instruction stream and the entry: no ``id()``, hashes, or dict
iteration order may leak into generated code.
"""

from __future__ import annotations

import struct
import time

from repro import metrics
from repro.errors import FuelExhausted
from repro.optable import exec_env

#: Block-entry dispatch count at which a superblock is formed, counted
#: per translation.  Ski-rental break-even: the smallest executor's
#: cold-corpus break-even (384-490 threaded dispatches of the entry
#: block, each saving ~70%) when native superblocks still folded the
#: cycle model, rounded down to a multiple of 32.  With per-path cycle
#: charges it is 177-213 on the targets and 477-523 on OmniVM
#: (DESIGN.md §3a); the SPEC kernels' longer traces break even later.
JIT_HEAT = 384
#: Heat threshold of a machine that never tiers up: ``engine="threaded"``
#: runs the same dispatch loop, and its superblock probe never fires.
NO_TIER_UP = 1 << 62
#: Formation limits: constituent blocks / instructions per superblock.
MAX_TRACE_BLOCKS = 32
MAX_TRACE_INSTRS = 512

#: Assembly-time placeholder for "invalidate every inline cache site".
FLUSH = "_FLUSHSITES_"

__all__ = [
    "JIT_HEAT",
    "MAX_TRACE_BLOCKS",
    "MAX_TRACE_INSTRS",
    "FLUSH",
    "Emitter",
    "Acct",
    "BlockDispatch",
    "JitState",
    "SuperblockTier",
    "assemble",
    "base_exec_globals",
    "emit_fuel_check",
    "emit_lines",
    "emit_mem_access",
]


def base_exec_globals() -> dict:
    """Names the generated source may reference; a fresh copy becomes
    the module namespace of each exec'd superblock.  The ``*_at`` /
    ``put_*`` struct helpers back the inlined memory fast paths: IEEE
    bit reinterpretation through them is byte-identical to the
    :mod:`repro.utils.bits` helpers, which are struct-based themselves.
    """
    return {
        **exec_env(),
        "FuelExhausted": FuelExhausted,
        "u16_at": struct.Struct("<H").unpack_from,
        "u32_at": struct.Struct("<I").unpack_from,
        "f32_at": struct.Struct("<f").unpack_from,
        "f64_at": struct.Struct("<d").unpack_from,
        "put_u16": struct.Struct("<H").pack_into,
        "put_u32": struct.Struct("<I").pack_into,
        "put_f64": struct.Struct("<d").pack_into,
    }


class Emitter:
    """Accumulates generated statements at explicit nesting depths.

    A sub-emitter (``Emitter(parent)``) shares the parent's inline-cache
    site lists — only the line buffer is private — so nested arms
    allocate cache sites from the same sequence as the enclosing trace.
    """

    __slots__ = ("lines", "load_sites", "store_sites")

    def __init__(self, parent: "Emitter | None" = None):
        self.lines: list[str] = []
        if parent is None:
            self.load_sites: list[int] = []
            self.store_sites: list[int] = []
        else:
            self.load_sites = parent.load_sites
            self.store_sites = parent.store_sites

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * depth + line)

    def load_site(self) -> int:
        sid = len(self.load_sites)
        self.load_sites.append(sid)
        return sid

    def store_site(self) -> int:
        sid = len(self.store_sites)
        self.store_sites.append(sid)
        return sid


class Acct:
    """Instret-offset bookkeeping for the generated source.

    Until the trace inlines a diamond, every commit site knows the
    retired count as a compile-time constant.  A diamond's arms retire
    different counts, so the first one switches the trace to *runtime*
    mode: a local ``_n`` holds the instructions retired up to the last
    join, and commits become ``_n + <constant>``.  (The native JIT never
    inlines diamonds, so its accounting stays constant throughout.)
    """

    __slots__ = ("runtime",)

    def __init__(self):
        self.runtime = False

    def expr(self, offset: int) -> str:
        if not self.runtime:
            return str(offset)
        return "_n" if offset == 0 else f"_n + {offset}"


def emit_lines(em, text, depth=0):
    """Emit a (possibly multi-line, possibly empty) rendered statement."""
    if text:
        for line in text.split("\n"):
            em.emit(line, depth)


# ---------------------------------------------------------------------------
# per-site inline memory caches
# ---------------------------------------------------------------------------
# The generated code keeps a *per-site* inline cache for every static
# load and store in the trace: locals ``(_lb{s}, _ll{s}, _ld{s})`` for
# the segment a load site last hit and ``(_sb{s}, _sl{s}, _sd{s})`` for
# a store site — base, limit, and backing bytearray.  A hit costs two
# local-int compares and a struct access, no attribute lookups and no
# calls.  A miss takes the Memory accessor (which raises the exact
# documented AccessViolation) and refills that site's cache from
# ``memory._last``, which every successful slow-path access leaves
# pointing at the serving segment with the permission just exercised.
# One shared cache thrashes as soon as a loop touches two segments
# (table in data, buffer on the heap); per-site caches miss once each
# and then hit for the rest of the loop.  Only a hostcall can change
# segment permissions mid-trace, so every site is flushed after each
# inlined hostcall (patched in at assembly time via ``FLUSH`` so a
# hostcall early in a loop also drops sites emitted after it).


def emit_mem_access(em, access, reg, addr, depth, guard):
    """Emit one memory access of shape *access* (a
    :class:`repro.optable.Access`) on operand *reg* at address *addr*:
    the per-site inline-cache hit path, and the accessor call with the
    site refill on a miss.  ``guard(depth)`` emits the ``except
    AccessViolation`` clause the slow path needs."""
    if access.fast is None:
        em.emit("try:", depth)
        em.emit(access.slow(reg, addr), depth + 1)
        guard(depth)
        return
    if access.store:
        sid = em.store_site()
        base, limit, data = f"_sb{sid}", f"_sl{sid}", f"_sd{sid}"
    else:
        sid = em.load_site()
        base, limit, data = f"_lb{sid}", f"_ll{sid}", f"_ld{sid}"
    em.emit(f"_ad = {addr}", depth)
    if access.size == 1:
        em.emit(f"if {base} <= _ad < {limit}:", depth)
    else:
        em.emit(f"if {base} <= _ad and _ad + {access.size} <= {limit}:",
                depth)
    for line in access.fast(reg, sid):
        em.emit(line, depth + 1)
    if access.store:
        em.emit(f"memory.write_count += {access.writes}", depth + 1)
    em.emit("else:", depth)
    em.emit("try:", depth + 1)
    em.emit(access.slow(reg, "_ad"), depth + 2)
    guard(depth + 1)
    em.emit("_sg = memory._last", depth + 1)
    em.emit(f"{base} = _sg.base", depth + 1)
    em.emit(f"{limit} = {base} + _sg.size", depth + 1)
    em.emit(f"{data} = _sg.data", depth + 1)


def emit_fuel_check(em, over, fuel_exit, error, depth=0):
    """Emit the block-boundary fuel check: when *over* holds, run the
    *fuel_exit* lines and raise ``FuelExhausted(error)``.  A looped
    trace ends each iteration with one, after committing the
    iteration's retired count, so the watchdog's asynchronous fuel cut
    lands at the backedge."""
    em.emit(f"if {over}:", depth)
    for line in fuel_exit:
        em.emit("    " + line, depth)
    em.emit(f"    raise FuelExhausted({error})", depth)


def assemble(em, title, blocks, instrs, params, prologue=(), looped=False,
             expand=None) -> str:
    """The source of a superblock factory ``_make_superblock`` over the
    statements of *em* (both JITs assemble through here).

    The superblock is a closure: the inline-cache sites live in cells
    of the enclosing ``_make_superblock`` scope, so they survive across
    invocations — a short trace dispatched thousands of times warms each
    site once, not once per call.  Each machine calls the factory for a
    closure of its own.  The entry guard flushes every site on the first
    call (``_mem`` starts as None) and whenever segment permissions
    changed since the last call; the *prologue* lines follow it.  A
    *looped* trace runs its statements in ``while True``, the last of
    them its backedge.  A statement that is a placeholder — :data:`FLUSH`
    or a key of *expand* — becomes its lines, at its own indentation;
    :data:`FLUSH` invalidates every site, which is known only once the
    whole trace is formed (a loop revisits sites emitted after it).
    """
    cells = []
    for s in em.load_sites:
        cells += [f"_lb{s}", f"_ll{s}", f"_ld{s}"]
    for s in em.store_sites:
        cells += [f"_sb{s}", f"_sl{s}", f"_sd{s}"]
    invalidate = " = ".join(
        [f"_lb{s} = _ll{s}" for s in em.load_sites]
        + [f"_sb{s} = _sl{s}" for s in em.store_sites]
    )
    expand = {FLUSH: [f"{invalidate} = 0", "_ep = memory.perm_epoch"]
              if cells else [], **(expand or {})}
    out = [f"# {title} ({blocks} blocks, {instrs} instrs"
           f"{', looped' if looped else ''})",
           "def _make_superblock():"]
    if cells:
        out.append("    _mem = None")
        out.append("    _ep = 0")
        out.append(f"    {invalidate} = 0")
        names = " = ".join(f"_ld{s}" for s in em.load_sites)
        if names:
            out.append(f"    {names} = None")
        names = " = ".join(f"_sd{s}" for s in em.store_sites)
        if names:
            out.append(f"    {names} = None")
    out.append(f"    def _superblock({params}):")
    body = "        "
    if cells:
        decl = ["_mem", "_ep"] + cells
        for i in range(0, len(decl), 8):
            out.append(body + "nonlocal " + ", ".join(decl[i:i + 8]))
        out.append(body + "if _mem is not memory "
                          "or _ep != memory.perm_epoch:")
        out.append(body + "    _mem = memory")
        out.append(body + "    _ep = memory.perm_epoch")
        out.append(body + f"    {invalidate} = 0")
    out.extend(body + line for line in prologue)
    pad = body
    if looped:
        out.append(body + "while True:")
        pad = body + "    "
    for line in em.lines:
        stripped = line.lstrip()
        lines = expand.get(stripped)
        if lines is None:
            out.append(pad + line)
        else:
            indent = pad + line[:len(line) - len(stripped)]
            out.extend(indent + text for text in lines)
    out.append("    return _superblock")
    out.append("_superblock = _make_superblock()")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# the dispatch loop's state and the tier-up path
# ---------------------------------------------------------------------------

class JitState:
    """The JIT's state for one translation.

    Created with the predecoded artifact (``ThreadedProgram.jit`` /
    ``ThreadedNativeProgram.jit``) and shared by every JIT machine that
    runs it, so heat accumulates across requests for the same program
    and the translation cache holds, evicts and invalidates it with the
    artifact.  ``heat`` counts block-entry dispatches and ``makers``
    holds the ``_make_superblock`` factory of each compiled entry.
    """

    __slots__ = ("heat", "makers")

    def __init__(self, length: int):
        self.heat = [0] * length
        self.makers: dict[int, object] = {}


class BlockDispatch:
    """State and counters of the one block-dispatch loop per ISA
    (:meth:`repro.omnivm.threaded.ThreadedVM._run_loop` and
    :meth:`repro.targets.threaded.ThreadedTargetMachine._run`).

    The loop probes ``_superblocks`` at every block entry and counts the
    entry's heat in ``_heat``.  As set up here the heat list is the
    machine's own and the probe never fires — ``engine="threaded"`` —
    and :class:`SuperblockTier` switches it on over the translation's
    shared heat.  Each ``run`` reports the growth of the
    :attr:`COUNTERS` as metrics.
    """

    #: (metrics counter, attribute) pairs, in reporting order.
    COUNTERS = (("execute.blocks", "_blocks_run"),)

    def _init_dispatch(self, length: int) -> None:
        self._blocks_run = 0
        self._superblocks: dict[int, object] = {}
        self._heat = [0] * length
        self._jit_heat = NO_TIER_UP
        self._superblocks_run = 0

    def run(self, *args):
        before = [getattr(self, attr) for _name, attr in self.COUNTERS]
        try:
            return super().run(*args)
        finally:
            if metrics.active():
                for (name, attr), then in zip(self.COUNTERS, before):
                    delta = getattr(self, attr) - then
                    if delta:
                        metrics.count(name, delta)


class SuperblockTier(BlockDispatch):
    """Tier-up path shared by both JIT machines.

    A JIT machine is its ISA's threaded machine with this class in
    front, counting heat in the :class:`JitState` of its translation:
    an entry that reaches ``_jit_heat`` dispatches goes through
    :meth:`_compile_entry`, which installs the translation's superblock
    for it, compiling it first if no machine has.  Heat is shared, so on
    a warm translation a hot entry crosses the threshold at its first
    dispatch.  Each ISA supplies only its compile function
    ``_compile_superblock(program, index)`` returning ``(source,
    factory)`` (``(None, None)`` for an entry outside the emitter's
    vocabulary).

    **One closure per machine.**  A superblock keeps its per-site inline
    memory caches in the cells of its ``_make_superblock`` closure.  The
    shared state therefore holds that *factory*, never a closure, and
    every machine calls it once per entry it installs: machines running
    the same module on other threads never see (or overwrite) each
    other's cached segments.

    **Static traces.**  An entry's trace is compiled once per
    translation and never re-formed.  (Two machines that reach a cold
    entry at the same moment may both compile it; its source is a pure
    function of the program and the entry, so either factory serves.)
    A guarded side exit the static prediction got wrong adds one to
    ``_jit_deopts`` and hands the rest of the path to the dispatcher,
    so a hot mispredicted exit shows as ``execute.deopts`` close to
    ``execute.superblock_runs``.
    """

    COUNTERS = BlockDispatch.COUNTERS + (
        ("execute.superblocks", "_superblocks_compiled"),
        ("execute.deopts", "_jit_deopts"),
        ("execute.jit_compile_ms", "_jit_compile_ms"),
        ("execute.superblock_runs", "_superblocks_run"),
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        jit = self._threaded.jit
        self._heat = jit.heat
        self._jit_heat = JIT_HEAT
        self._makers = jit.makers
        self._superblocks_compiled = 0
        self._jit_deopts = 0
        self._jit_compile_ms = 0.0

    def _compile_entry(self, index):
        """Install the superblock at *index* in the dispatch map, from
        the translation's factory for it, compiled here if no machine
        has.  An entry that cannot be compiled has its heat pinned so
        the threaded tier keeps it for good."""
        make = self._makers.get(index)
        if make is None:
            start = time.perf_counter()
            _source, make = self._compile_superblock(self._threaded, index)
            self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
            if make is None:
                self._heat[index] = -(1 << 30)
                return None
            self._superblocks_compiled += 1
            self._makers[index] = make
        fn = self._superblocks[index] = make()
        return fn
