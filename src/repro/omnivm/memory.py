"""Segmented virtual memory with host-imposed permissions.

OmniVM presents modules with a segmented 32-bit address space; the host
assigns each segment read/write/execute permissions, and the VM raises an
access violation (delivered through the virtual exception model) on any
unauthorized access.  The same class backs the *target machine* simulators,
where it additionally hosts the host-application segment that SFI must
protect: an unsandboxed wild store can land there, and the safety tests
show SFI preventing exactly that.

Addresses are 32-bit.  The default layout gives every module:

========  ===========  =====================================
segment   base         permissions
========  ===========  =====================================
code      0x1000_0000  read + execute
data      0x2000_0000  read + write
heap      0x3000_0000  read + write
stack     0x4000_0000  read + write
========  ===========  =====================================

Segment sizes are powers of two so the SFI masks are single and/or pairs.
Address 0 is never mapped: null dereferences always fault.

Every segment is a private anonymous ``mmap``: the operating system
zeroes a page on first touch, so mapping a 16 MiB segment costs the same
as mapping a 64-byte one, and a module is resident only in the pages it
touches.  The map is ``MAP_PRIVATE`` (Python's default for an anonymous
map is ``MAP_SHARED``), so a process forked from the host copies a
segment on write rather than sharing its stores.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

from repro.errors import AccessViolation, QuotaExceeded
from repro.utils.bits import bits_to_f32, bits_to_f64, f32_to_bits, f64_to_bits, u32

PERM_READ = 1
PERM_WRITE = 2
PERM_EXEC = 4

CODE_BASE = 0x10000000
# The three writable segments live inside ONE 64 MiB sandbox region
# [0x2000_0000, 0x2400_0000): SFI sandboxes stores with a single and/or
# pair (offset mask + region base), exactly like the original single
# data-segment design of Wahbe et al.  A wild store can land anywhere in
# the region (possibly faulting on an unmapped hole, possibly corrupting
# the module's *own* data) but never outside it.
DATA_BASE = 0x20000000
HEAP_BASE = 0x21000000
STACK_BASE = 0x22000000
HOST_BASE = 0x50000000

#: SFI sandbox region parameters (see repro.sfi.policy).
SANDBOX_BASE = 0x20000000
SANDBOX_MASK = 0x03FFFFFF  # 64 MiB of offset bits

#: Default segment size: 16 MiB, so offsets fit in 24 bits and the SFI
#: mask is ``0x00FF_FFFF`` with the segment tag in the top byte.
DEFAULT_SEGMENT_SIZE = 1 << 24

SEGMENT_OFFSET_MASK = DEFAULT_SEGMENT_SIZE - 1


@dataclass
class Segment:
    name: str
    base: int
    size: int
    perms: int
    data: mmap.mmap = field(repr=False)

    @property
    def limit(self) -> int:
        return self.base + self.size

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.limit


class Memory:
    """A collection of segments with permission-checked accessors."""

    def __init__(self) -> None:
        self.segments: list[Segment] = []
        self._last: Segment | None = None
        #: Incremented on every successful write; tests use it to detect
        #: unexpected mutation.
        self.write_count = 0
        #: Bumped whenever segment permissions change; the JIT's inline
        #: memory caches are valid only while this stands still.
        self.perm_epoch = 0

    # -- segment management -------------------------------------------------

    def add_segment(self, name: str, base: int, size: int, perms: int,
                    data: bytes | None = None) -> Segment:
        """Map *size* bytes at *base*, initialised from *data*.  Raises
        :class:`~repro.errors.QuotaExceeded` when *data* does not fit."""
        base = u32(base)
        if data is not None and len(data) > size:
            raise QuotaExceeded(
                f"segment {name}: {len(data)}-byte image does not fit "
                f"its {size}-byte segment",
                quota="segment_size", limit=size,
            )
        for seg in self.segments:
            if base < seg.limit and seg.base < base + size:
                raise ValueError(
                    f"segment {name} [{base:#x},{base + size:#x}) overlaps {seg.name}"
                )
        payload = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if data is not None:
            payload[: len(data)] = data
        segment = Segment(name, base, size, perms, payload)
        self.segments.append(segment)
        return segment

    def segment_named(self, name: str) -> Segment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"no segment named {name!r}")

    def set_perms(self, name: str, perms: int) -> None:
        """Host-imposed permission change (e.g. revoke write on a page)."""
        self.segment_named(name).perms = perms
        self.perm_epoch += 1

    def find(self, address: int, length: int = 1) -> Segment | None:
        last = self._last
        if last is not None and last.contains(address, length):
            return last
        for seg in self.segments:
            if seg.contains(address, length):
                self._last = seg
                return seg
        return None

    def _segment_for(self, address: int, length: int, perm: int,
                     kind: str) -> Segment:
        address = u32(address)
        seg = self.find(address, length)
        if seg is None:
            raise AccessViolation(
                f"{kind} of {length} bytes at unmapped address {address:#010x}",
                address, kind,
            )
        if not seg.perms & perm:
            raise AccessViolation(
                f"{kind} at {address:#010x} denied by segment {seg.name!r} "
                f"permissions", address, kind,
            )
        return seg

    # -- typed accessors ----------------------------------------------------

    def load(self, address: int, size: int, signed: bool = False) -> int:
        seg = self._segment_for(address, size, PERM_READ, "load")
        offset = address - seg.base
        raw = int.from_bytes(seg.data[offset:offset + size], "little")
        if signed and raw & (1 << (size * 8 - 1)):
            raw -= 1 << (size * 8)
        return raw

    def store(self, address: int, size: int, value: int) -> None:
        seg = self._segment_for(address, size, PERM_WRITE, "store")
        offset = address - seg.base
        seg.data[offset:offset + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )
        self.write_count += 1

    # -- word fast path ------------------------------------------------------
    #
    # The predecoded execution engines issue almost all of their traffic as
    # aligned 32-bit words.  These accessors hit the one-entry segment
    # cache, check permission and bounds inline, and fall back to the
    # generic size-dispatching path (which raises the exact same
    # AccessViolation messages) for anything unusual: a different segment,
    # a segment-straddling access, or a permission the cached segment
    # lacks.

    def load_u32(self, address: int) -> int:
        seg = self._last
        if (seg is not None and seg.perms & PERM_READ
                and seg.base <= address and address + 4 <= seg.limit):
            offset = address - seg.base
            return int.from_bytes(seg.data[offset:offset + 4], "little")
        return self.load(address, 4, False)

    def store_u32(self, address: int, value: int) -> None:
        seg = self._last
        if (seg is not None and seg.perms & PERM_WRITE
                and seg.base <= address and address + 4 <= seg.limit):
            offset = address - seg.base
            seg.data[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(
                4, "little")
            self.write_count += 1
            return
        self.store(address, 4, value)

    def load_f32(self, address: int) -> float:
        return bits_to_f32(self.load(address, 4))

    def load_f64(self, address: int) -> float:
        return bits_to_f64(
            self.load(address, 4) | (self.load(address + 4, 4) << 32)
        )

    def store_f32(self, address: int, value: float) -> None:
        self.store(address, 4, f32_to_bits(value))

    def store_f64(self, address: int, value: float) -> None:
        bits = f64_to_bits(value)
        self.store(address, 4, bits & 0xFFFFFFFF)
        self.store(address + 4, 4, bits >> 32)

    def fetch_check(self, address: int, size: int = 1) -> None:
        """Verify that *address* is executable (instruction fetch)."""
        self._segment_for(address, size, PERM_EXEC, "execute")

    # -- bulk helpers ---------------------------------------------------------

    def write_bytes(self, address: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self.store(address + i, 1, byte)

    def read_bytes(self, address: int, length: int) -> bytes:
        return bytes(self.load(address + i, 1) for i in range(length))

    def read_cstring(self, address: int, max_len: int = 1 << 16) -> bytes:
        out = bytearray()
        for i in range(max_len):
            byte = self.load(address + i, 1)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise AccessViolation("unterminated string", address, "load")


#: Every module's stack segment; the stack pointer starts just below its top.
STACK_SIZE = 1 << 20
STACK_TOP = STACK_BASE + STACK_SIZE - 16


def standard_module_memory(code_image: bytes, data_image: bytes,
                           segment_size: int | None = None) -> Memory:
    """The address space of one module: code, data and heap segments of
    *segment_size* bytes each (``None`` means
    :data:`DEFAULT_SEGMENT_SIZE`) and the stack.  Raises
    :class:`~repro.errors.QuotaExceeded` when the code or data image
    does not fit its segment.  (Multi-module images get
    :func:`repro.runtime.linker.image_memory`, the same shape with one
    data segment per module.)"""
    size = segment_size or DEFAULT_SEGMENT_SIZE
    memory = Memory()
    memory.add_segment("code", CODE_BASE, size,
                       PERM_READ | PERM_EXEC, code_image)
    memory.add_segment("data", DATA_BASE, size,
                       PERM_READ | PERM_WRITE, data_image)
    add_heap_and_stack(memory, size)
    return memory


def add_heap_and_stack(memory: Memory, segment_size: int) -> None:
    """Map the heap (*segment_size* bytes) and the stack: the part of
    the address space both builders share."""
    memory.add_segment("heap", HEAP_BASE, segment_size,
                       PERM_READ | PERM_WRITE)
    memory.add_segment("stack", STACK_BASE, STACK_SIZE,
                       PERM_READ | PERM_WRITE)
