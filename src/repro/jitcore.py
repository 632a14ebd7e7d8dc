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
* the per-site inline memory-cache emission helpers and the assembly
  scaffolding (cache cells, entry guard, the ``_FLUSH`` placeholder
  expanded after inlined hostcalls);
* the fresh-namespace builder for ``exec``'d superblocks;
* :class:`SideExitPromotion`, the shared deopt-promotion policy: when a
  guarded side exit's counter crosses the JIT heat threshold, re-form a
  trace that covers the hot path instead of deopting forever.

Emitted source must stay a pure function of the instruction stream (and
the per-entry override table): no ``id()``, hashes, or dict iteration
order may leak into generated code.
"""

from __future__ import annotations

import struct

from repro.errors import FuelExhausted
from repro.optable import exec_env

#: Block-entry dispatch count at which a superblock is formed.
JIT_HEAT = 16
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
    "SideExitPromotion",
    "base_exec_globals",
    "cache_cells",
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


def cache_cells(em) -> tuple[list[str], str]:
    """The closure-cell names and the "invalidate every site" statement
    for the sites allocated through *em* (used by both assemblers)."""
    cells = []
    for s in em.load_sites:
        cells += [f"_lb{s}", f"_ll{s}", f"_ld{s}"]
    for s in em.store_sites:
        cells += [f"_sb{s}", f"_sl{s}", f"_sd{s}"]
    invalidate = " = ".join(
        [f"_lb{s} = _ll{s}" for s in em.load_sites]
        + [f"_sb{s} = _sl{s}" for s in em.store_sites]
    )
    return cells, invalidate


# ---------------------------------------------------------------------------
# side-exit heat promotion
# ---------------------------------------------------------------------------

class SideExitPromotion:
    """Deopt-promotion policy shared by both JIT tiers.

    Every guarded side exit calls ``vm._note_exit(entry, site, taken,
    exit_loc)`` on its way back to the dispatcher.  When one site's
    counter crosses the VM's heat threshold the trace is re-formed so
    the hot path stops deopting:

    * if the exit target leads back to the trace entry (a cycle the
      static predictor laid out the wrong way), the branch's prediction
      is recorded in the per-entry **override table** and the entry's
      superblock is recompiled with the formerly-exiting direction on
      trace — the cycle now closes inside one frame;
    * otherwise a trace is **anchored at the exit target** immediately,
      bypassing the dispatch heat ramp, so the deopt lands on compiled
      code instead of warming up the threaded tier again.

    Loop-closure edges (branches to/from the trace entry) are never
    overridden: a loop *exit* legitimately fires once per superblock
    entry, and flipping it would destroy the loop trace.  A flip is
    **provisional**: the site's counter resets at promotion time, and
    if the flipped trace deopts just as hard (the branch is unstable,
    or the first crossing was a slow trickle from a minority direction
    rather than a real bias) the override is reverted and the site
    **pinned** to the static layout — predictions cannot flip-flop,
    and a wrong flip costs at most one more heat ramp plus two
    recompiles.

    The learned state — exit heat, overrides, pinned sites, and the
    override-compiled superblocks — forms the entry's **promotion
    profile**.  With a translation cache the profile object lives in
    the in-memory side table under a digest-derived key and is adopted
    *by reference* by every machine of the same translation, so the
    heat ramp, flips, and reverts are paid once per program, not once
    per machine; digest-filtered invalidation drops the profile with
    the translations.  Without a cache the profile is per-machine.

    Hosting classes provide ``_jit_heat``, ``_jit_deopts``, and the
    hooks ``_promotion_profitable``, ``_repromote_entry`` and
    ``_anchor_exit``.
    """

    #: Hard cap on overridden branches per trace entry.
    PROMOTE_LIMIT = 8

    @staticmethod
    def fresh_profile() -> dict:
        return {"exit_heat": {}, "overrides": {}, "promoted": set(),
                "pinned": set(), "fns": {}}

    def _init_promotion(self, profile: dict | None = None) -> None:
        if profile is None:
            profile = self.fresh_profile()
        self._jit_profile = profile
        self._exit_heat: dict[tuple, int] = profile["exit_heat"]
        self._trace_overrides: dict = profile["overrides"]
        self._promoted_sites: set[tuple] = profile["promoted"]
        self._pinned_sites: set[tuple] = profile["pinned"]
        self._promoted_fns: dict = profile["fns"]
        self._jit_promotions = 0
        self._jit_reverts = 0

    def _note_exit(self, entry, site, taken, exit_loc) -> None:
        self._jit_deopts += 1
        key = (entry, site)
        count = self._exit_heat.get(key, 0) + 1
        self._exit_heat[key] = count
        if count < self._jit_heat or key in self._pinned_sites:
            return
        if key in self._promoted_sites:
            # The flipped direction crossed the threshold too: revert
            # to the static layout and pin the site.
            self._pinned_sites.add(key)
            overrides = self._trace_overrides.get(entry)
            if overrides and site in overrides:
                del overrides[site]
                self._jit_reverts += 1
                self._repromote_entry(entry)
            return
        self._promoted_sites.add(key)
        self._exit_heat[key] = 0
        if self._promotion_profitable(entry, site, exit_loc):
            overrides = self._trace_overrides.setdefault(entry, {})
            if len(overrides) >= self.PROMOTE_LIMIT:
                self._pinned_sites.add(key)
                return
            overrides[site] = taken
            self._jit_promotions += 1
            self._repromote_entry(entry)
        else:
            self._pinned_sites.add(key)
            self._anchor_exit(exit_loc)

    # Hooks ----------------------------------------------------------------

    def _promotion_profitable(self, entry, site, exit_loc) -> bool:
        raise NotImplementedError

    def _repromote_entry(self, entry) -> None:
        raise NotImplementedError

    def _anchor_exit(self, exit_loc) -> None:
        raise NotImplementedError
