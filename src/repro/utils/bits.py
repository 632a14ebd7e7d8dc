"""32-bit two's-complement arithmetic and IEEE float helpers.

Every simulated machine in this package (OmniVM and the four targets) is a
32-bit architecture.  Python integers are unbounded, so all arithmetic that
lands in a register must be normalized through these helpers.  The
convention throughout the package is that **register values are stored as
unsigned 32-bit integers** (0 <= v < 2**32); signed interpretation happens
at the instruction that needs it.
"""

from __future__ import annotations

import struct

MASK32 = 0xFFFFFFFF
MASK16 = 0xFFFF
MASK8 = 0xFF
SIGN32 = 0x80000000

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
UINT32_MAX = 2**32 - 1


def u32(value: int) -> int:
    """Truncate an arbitrary Python int to an unsigned 32-bit value."""
    return value & MASK32


def s32(value: int) -> int:
    """Interpret the low 32 bits of *value* as a signed integer."""
    value &= MASK32
    return value - 0x100000000 if value & SIGN32 else value


def u16(value: int) -> int:
    return value & MASK16


def s16(value: int) -> int:
    value &= MASK16
    return value - 0x10000 if value & 0x8000 else value


def u8(value: int) -> int:
    return value & MASK8


def s8(value: int) -> int:
    value &= MASK8
    return value - 0x100 if value & 0x80 else value


def sext(value: int, bits: int) -> int:
    """Sign-extend the low *bits* bits of *value* to a signed Python int."""
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def fits_signed(value: int, bits: int) -> bool:
    """True if *value*, read as a 32-bit encoding, fits in *bits* signed bits.

    The value is interpreted through :func:`s32` regardless of how the
    caller happens to hold it (unsigned register encoding or already
    signed), so e.g. ``0xFFFF8000`` and ``-0x8000`` are both in-range
    for ``bits=16``.
    """
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo <= s32(value) <= hi


def add32(a: int, b: int) -> int:
    return (a + b) & MASK32


def sub32(a: int, b: int) -> int:
    return (a - b) & MASK32


def mul32(a: int, b: int) -> int:
    return (a * b) & MASK32


def div32(a: int, b: int) -> int:
    """Signed 32-bit division truncating toward zero (C semantics)."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        raise ZeroDivisionError("integer division by zero")
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return u32(quotient)


def rem32(a: int, b: int) -> int:
    """Signed 32-bit remainder with C semantics (sign follows dividend)."""
    sa, sb = s32(a), s32(b)
    if sb == 0:
        raise ZeroDivisionError("integer modulo by zero")
    remainder = abs(sa) % abs(sb)
    if sa < 0:
        remainder = -remainder
    return u32(remainder)


def divu32(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("integer division by zero")
    return (a & MASK32) // (b & MASK32)


def remu32(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("integer modulo by zero")
    return (a & MASK32) % (b & MASK32)


def sll32(a: int, shift: int) -> int:
    return (a << (shift & 31)) & MASK32


def srl32(a: int, shift: int) -> int:
    return (a & MASK32) >> (shift & 31)


def sra32(a: int, shift: int) -> int:
    return u32(s32(a) >> (shift & 31))


def f32_to_bits(value: float) -> int:
    """Round a Python float to IEEE single precision and return its bits.

    Values beyond the f32 range overflow to the correctly-signed
    infinity, as IEEE round-to-nearest does.
    """
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        return 0xFF800000 if value < 0 else 0x7F800000


def bits_to_f32(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & MASK32))[0]


def f64_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & 0xFFFFFFFFFFFFFFFF))[0]


def round_f32(value: float) -> float:
    """Round a Python float (double) to the nearest representable f32
    (overflowing to signed infinity, as IEEE single arithmetic does)."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return float("-inf") if value < 0 else float("inf")


def align_up(value: int, alignment: int) -> int:
    """Round *value* up to the next multiple of *alignment* (a power of 2)."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of a power of two; raises ValueError otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value:#x} is not a power of two")
    return value.bit_length() - 1
