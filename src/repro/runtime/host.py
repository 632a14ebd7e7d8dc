"""The host application side of the Omniware runtime.

A *host* embeds the runtime, loads untrusted mobile modules, and exports a
vetted set of library functions to them (:mod:`repro.runtime.hostapi`).
This module implements those functions over an abstract
:class:`MachineAdapter`, so the same host services back the OmniVM
reference interpreter *and* every translated-native target simulator —
the module cannot tell the difference, which is the point of a
software-defined computer architecture.

Safety properties implemented here:

* **export control** — the host chooses which API entries each module may
  call; anything else raises :class:`~repro.errors.HostCallError` (the
  "calling unauthorized host functions" threat in the paper);
* **pointer vetting** — host functions that take module pointers
  (``emit_str``, ``host_send``...) access memory through the module's own
  segmented memory object, so they can never read or write host state;
* **deterministic services** — the clock counts retired instructions and
  the RNG is a fixed-seed LCG, keeping every benchmark bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import HostCallError, VMRuntimeError
from repro.omnivm.memory import HEAP_BASE, Memory
from repro.runtime import hostapi
from repro.utils.bits import s32, u32


class MachineAdapter:
    """What the host needs from a machine to service a hostcall."""

    memory: Memory

    def get_int_arg(self, index: int) -> int:
        raise NotImplementedError

    def get_fp_arg(self, index: int) -> float:
        raise NotImplementedError

    def set_int_result(self, value: int) -> None:
        raise NotImplementedError

    def set_fp_result(self, value: float) -> None:
        raise NotImplementedError

    def halt(self, code: int) -> None:
        raise NotImplementedError

    def instret(self) -> int:
        raise NotImplementedError


@dataclass
class HeapAllocator:
    """A simple first-fit free-list allocator over the heap segment.

    This is the "memory management" library function set the paper's
    runtime exports to modules.
    """

    base: int = HEAP_BASE + 16  # never hand out the segment base
    limit: int = HEAP_BASE + (1 << 24)
    cursor: int = 0
    free_lists: dict[int, list[int]] = field(default_factory=dict)
    live: dict[int, int] = field(default_factory=dict)  # addr -> size

    def __post_init__(self) -> None:
        self.cursor = self.base

    @staticmethod
    def _round(size: int) -> int:
        size = max(size, 8)
        return 1 << (size - 1).bit_length()  # power-of-two size classes

    def alloc(self, size: int) -> int:
        if size < 0:
            raise VMRuntimeError(f"halloc of negative size {size}")
        bucket = self._round(size)
        free = self.free_lists.get(bucket)
        if free:
            address = free.pop()
        else:
            address = self.cursor
            if address + bucket > self.limit:
                return 0  # out of memory: NULL, as the C convention expects
            self.cursor += bucket
        self.live[address] = bucket
        return address

    def free(self, address: int) -> None:
        if address == 0:
            return
        bucket = self.live.pop(address, None)
        if bucket is None:
            raise VMRuntimeError(f"hfree of non-allocated address {address:#x}")
        self.free_lists.setdefault(bucket, []).append(address)


class Host:
    """Host services and export policy for one loaded module."""

    def __init__(self, exports: frozenset[str] | set[str] | None = None):
        self.exports = frozenset(
            exports if exports is not None else hostapi.DEFAULT_EXPORTS
        )
        self.heap = HeapAllocator()
        #: Everything the module emitted, as (kind, value) pairs.
        self.output: list[tuple[str, object]] = []
        self.exit_code: int | None = None
        self._rng_state = 0x12345678
        #: Messages "sent" through host_send (mail-filter example).
        self.sent: list[bytes] = []
        self.inbox: list[bytes] = []
        self._inbox_cursor = 0
        #: Pixels drawn through gfx_draw (document applet example).
        self.canvas: dict[tuple[int, int], int] = {}

    # -- observability helpers -------------------------------------------------

    def output_text(self) -> str:
        """Render the emit stream as text (what `stdout` would show)."""
        parts: list[str] = []
        for kind, value in self.output:
            if kind == "char":
                parts.append(chr(int(value) & 0xFF))
            elif kind == "str":
                parts.append(value.decode("latin-1") if isinstance(value, bytes)
                             else str(value))
            elif kind == "double":
                parts.append(f"{value:.6g}")
            else:
                parts.append(str(value))
        return "".join(parts)

    def output_values(self) -> list[object]:
        return [value for _kind, value in self.output]

    # -- the dispatcher -----------------------------------------------------------

    def hostcall(self, machine: MachineAdapter, index: int) -> None:
        spec = hostapi.HOST_FUNCTIONS_BY_INDEX.get(index)
        if spec is None:
            raise HostCallError(f"unknown host function index {index}")
        if spec.name not in self.exports:
            raise HostCallError(
                f"module is not authorized to call {spec.name!r}"
            )
        args: list[object] = []
        int_cursor = 0
        fp_cursor = 0
        for param in spec.params:
            if param == "double":
                args.append(machine.get_fp_arg(fp_cursor))
                fp_cursor += 1
            else:
                args.append(machine.get_int_arg(int_cursor))
                int_cursor += 1
        result = self._invoke(spec.name, machine, args)
        if spec.result == "double":
            machine.set_fp_result(float(result))
        elif spec.result != "void":
            machine.set_int_result(u32(int(result)))

    def _invoke(self, name: str, machine: MachineAdapter, args: list) -> object:
        memory = machine.memory
        if name == "exit":
            machine.halt(s32(args[0]))
            self.exit_code = s32(args[0])
            return 0
        if name == "emit_int":
            self.output.append(("int", s32(args[0])))
            return 0
        if name == "emit_uint":
            self.output.append(("uint", u32(args[0])))
            return 0
        if name == "emit_char":
            self.output.append(("char", args[0] & 0xFF))
            return 0
        if name == "emit_double":
            self.output.append(("double", float(args[0])))
            return 0
        if name == "emit_str":
            self.output.append(("str", memory.read_cstring(u32(args[0]))))
            return 0
        if name == "halloc":
            return self.heap.alloc(s32(args[0]))
        if name == "hfree":
            self.heap.free(u32(args[0]))
            return 0
        if name == "host_exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                return math.inf
        # Every math call gives C99 Annex F's result.  Python's math
        # module already does for ±inf and NaN arguments of exp, log,
        # sqrt and pow, and raises exactly where a finite argument
        # overflows, leaves the domain or hits a pole.
        if name == "host_log":
            x = args[0]
            try:
                return math.log(x)
            except ValueError:
                return -math.inf if x == 0 else math.nan
        if name == "host_sqrt":
            try:
                return math.sqrt(args[0])
            except ValueError:
                return math.nan
        if name == "host_pow":
            x, y = args
            try:
                return math.pow(x, y)
            except OverflowError:
                pass
            except ValueError:
                if x != 0:
                    return math.nan  # a negative base, a fractional power
            # Overflow, or the pole at ±0: an infinity that keeps the
            # sign of x only under an odd integer power.
            odd = y.is_integer() and math.fmod(y, 2.0) != 0
            return math.copysign(math.inf, x) if odd else math.inf
        # sin and cos of ±inf are NaN, and floor of ±inf or NaN is the
        # argument itself, where Python's math module raises.
        if name == "host_sin":
            return math.nan if math.isinf(args[0]) else math.sin(args[0])
        if name == "host_cos":
            return math.nan if math.isinf(args[0]) else math.cos(args[0])
        if name == "host_floor":
            x = args[0]
            return math.floor(x) if math.isfinite(x) else x
        if name == "host_clock":
            return machine.instret() & 0x7FFFFFFF
        if name == "host_rand":
            self._rng_state = u32(self._rng_state * 1103515245 + 12345)
            return (self._rng_state >> 16) & 0x7FFF
        if name == "host_srand":
            self._rng_state = u32(args[0]) or 0x12345678
            return 0
        if name == "host_send":
            payload = memory.read_bytes(u32(args[0]), s32(args[1]))
            self.sent.append(payload)
            return len(payload)
        if name == "host_recv":
            if self._inbox_cursor >= len(self.inbox):
                return -1 & 0xFFFFFFFF
            message = self.inbox[self._inbox_cursor]
            self._inbox_cursor += 1
            limit = s32(args[1])
            payload = message[:limit]
            memory.write_bytes(u32(args[0]), payload)
            return len(payload)
        if name == "gfx_draw":
            self.canvas[(s32(args[0]), s32(args[1]))] = s32(args[2])
            return 0
        if name == "gfx_clear":
            self.canvas.clear()
            return 0
        raise HostCallError(f"host function {name!r} has no implementation")
