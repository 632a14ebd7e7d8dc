"""Segmented memory: permissions, violations, typed access, and
lazily zeroed private segments."""

import os

import pytest

from repro.engine import INTERPRETER, Engine
from repro.errors import AccessViolation
from repro.jitcore import JIT_HEAT
from repro.omnivm.memory import (
    CODE_BASE,
    DATA_BASE,
    DEFAULT_SEGMENT_SIZE,
    HEAP_BASE,
    PERM_EXEC,
    PERM_READ,
    PERM_WRITE,
    SANDBOX_BASE,
    SANDBOX_MASK,
    STACK_BASE,
    STACK_SIZE,
    STACK_TOP,
    Memory,
    standard_module_memory,
)


@pytest.fixture
def memory():
    return standard_module_memory(b"\x01" * 64, b"\x02" * 64)


class TestLayout:
    def test_standard_segments(self, memory):
        names = {seg.name for seg in memory.segments}
        assert names == {"code", "data", "heap", "stack"}

    def test_writable_segments_inside_sandbox(self, memory):
        for name in ("data", "heap", "stack"):
            seg = memory.segment_named(name)
            assert seg.base & ~SANDBOX_MASK == SANDBOX_BASE
            assert (seg.limit - 1) & ~SANDBOX_MASK == SANDBOX_BASE

    def test_code_outside_sandbox(self):
        assert CODE_BASE & ~SANDBOX_MASK != SANDBOX_BASE

    def test_overlap_rejected(self):
        memory = Memory()
        memory.add_segment("a", 0x1000, 0x1000, PERM_READ)
        with pytest.raises(ValueError):
            memory.add_segment("b", 0x1800, 0x1000, PERM_READ)


class TestPermissions:
    def test_code_not_writable(self, memory):
        with pytest.raises(AccessViolation):
            memory.store(CODE_BASE, 4, 0xBAD)

    def test_code_readable_and_executable(self, memory):
        assert memory.load(CODE_BASE, 4) == 0x01010101
        memory.fetch_check(CODE_BASE)

    def test_data_not_executable(self, memory):
        with pytest.raises(AccessViolation):
            memory.fetch_check(DATA_BASE)

    def test_unmapped_faults(self, memory):
        with pytest.raises(AccessViolation) as info:
            memory.load(0, 4)
        assert info.value.address == 0
        with pytest.raises(AccessViolation):
            memory.store(0x05000000, 1, 1)

    def test_straddling_segment_end_faults(self, memory):
        seg = memory.segment_named("data")
        with pytest.raises(AccessViolation):
            memory.load(seg.limit - 2, 4)

    def test_host_imposed_permission_change(self, memory):
        # The host revokes write on the data segment (the paper's
        # host-imposed permissions on multi-page segments).
        memory.store(DATA_BASE, 4, 7)
        memory.set_perms("data", PERM_READ)
        with pytest.raises(AccessViolation):
            memory.store(DATA_BASE, 4, 8)
        assert memory.load(DATA_BASE, 4) == 7

    def test_violation_records_kind(self, memory):
        try:
            memory.store(CODE_BASE, 4, 1)
        except AccessViolation as violation:
            assert violation.kind == "store"


class TestTypedAccess:
    def test_sizes_and_sign(self, memory):
        memory.store(HEAP_BASE, 4, 0xFFFF8080)
        assert memory.load(HEAP_BASE, 1) == 0x80
        assert memory.load(HEAP_BASE, 1, signed=True) == -128
        assert memory.load(HEAP_BASE, 2, signed=True) == -32640
        assert memory.load(HEAP_BASE, 4) == 0xFFFF8080

    def test_little_endian(self, memory):
        memory.store(HEAP_BASE, 4, 0x11223344)
        assert memory.load(HEAP_BASE, 1) == 0x44
        assert memory.load(HEAP_BASE + 3, 1) == 0x11

    def test_floats(self, memory):
        memory.store_f64(STACK_BASE, 2.5)
        assert memory.load_f64(STACK_BASE) == 2.5
        memory.store_f32(STACK_BASE + 8, 1.5)
        assert memory.load_f32(STACK_BASE + 8) == 1.5

    def test_f32_rounds(self, memory):
        memory.store_f32(STACK_BASE, 0.1)
        assert memory.load_f32(STACK_BASE) != 0.1  # rounded to single

    def test_cstring(self, memory):
        memory.write_bytes(HEAP_BASE, b"hello\x00")
        assert memory.read_cstring(HEAP_BASE) == b"hello"

    def test_unterminated_cstring_faults(self, memory):
        memory.write_bytes(HEAP_BASE, b"x" * 32)
        with pytest.raises(AccessViolation):
            memory.read_cstring(HEAP_BASE, max_len=16)

    def test_write_count_tracks_mutation(self, memory):
        before = memory.write_count
        memory.store(HEAP_BASE, 4, 1)
        assert memory.write_count == before + 1


def per_byte_read(memory, address, length):
    """The reference for :meth:`Memory.read_bytes`: one load a byte."""
    return bytes(memory.load(address + i, 1) for i in range(length))


def per_byte_cstring(memory, address, max_len=1 << 16):
    """The reference for :meth:`Memory.read_cstring`."""
    out = bytearray()
    for i in range(max_len):
        byte = memory.load(address + i, 1)
        if byte == 0:
            return bytes(out)
        out.append(byte)
    raise AccessViolation("unterminated string", address, "load")


def outcome(read, *args):
    try:
        return read(*args)
    except AccessViolation as err:
        return str(err), err.address, err.kind


STACK_END = STACK_BASE + STACK_SIZE
CODE_END = CODE_BASE + DEFAULT_SEGMENT_SIZE


@pytest.fixture
def marked():
    """Default segments with text on both sides of every boundary of the
    data, heap and stack run; the heap's text starts with a NUL and holds
    another, the stack's holds none."""
    memory = standard_module_memory(b"\x01" * 64, b"\x02" * 64)
    for boundary in (HEAP_BASE, STACK_BASE, STACK_END):
        memory.write_bytes(boundary - 8, b"ABCDEFGH")
    memory.write_bytes(HEAP_BASE, b"\0ijk\0lmn")
    memory.write_bytes(STACK_BASE, b"opqrstuv")
    return memory


class TestBulkReads:
    """``read_bytes`` and ``read_cstring`` copy one slice per segment,
    with the results and faults of one load per byte."""

    @pytest.mark.parametrize("address, length", [
        (HEAP_BASE, 0), (HEAP_BASE, -5),
        (HEAP_BASE - 4, 4), (HEAP_BASE - 4, 5),        # data's last byte
        (STACK_END - 8, 8), (STACK_END - 8, 9),        # stack's last byte
        (HEAP_BASE - 8, 16), (HEAP_BASE - 4096, 8192),  # data -> heap
        (STACK_BASE - 8, 16),                          # heap -> stack
        (STACK_END - 8, 4096), (CODE_END - 3, 8),      # into the gap
        (STACK_END, 4), (0, 1), (DATA_BASE - 1, 2),    # unmapped start
    ])
    def test_read_bytes_matches_per_byte_loads(self, marked, address,
                                               length):
        assert (outcome(marked.read_bytes, address, length)
                == outcome(per_byte_read, marked, address, length))

    @pytest.mark.parametrize("address, max_len", [
        (HEAP_BASE - 8, 1 << 16), (HEAP_BASE - 8, 8),  # NUL at heap's base
        (HEAP_BASE - 8, 9), (HEAP_BASE + 1, 1 << 16), (HEAP_BASE + 1, 3),
        (HEAP_BASE + 4, 4), (STACK_BASE - 8, 1 << 16),  # heap -> stack
        (STACK_END - 8, 1 << 16), (STACK_END - 8, 8),  # into the gap
        (STACK_END - 8, 9), (HEAP_BASE, 0), (HEAP_BASE, -1),
        (STACK_END, 4), (DATA_BASE, 64),
    ])
    def test_read_cstring_matches_per_byte_loads(self, marked, address,
                                                 max_len):
        assert (outcome(marked.read_cstring, address, max_len)
                == outcome(per_byte_cstring, marked, address, max_len))

    def test_unreadable_segment_faults_at_its_first_byte(self, marked):
        marked.set_perms("heap", PERM_WRITE)
        for read, reference in ((marked.read_bytes, per_byte_read),
                                (marked.read_cstring, per_byte_cstring)):
            fault = outcome(read, HEAP_BASE - 8, 16)
            assert fault == outcome(reference, marked, HEAP_BASE - 8, 16)
            assert fault[1] == HEAP_BASE and "denied" in fault[0]


#: What one default address space maps: code, data and heap segments
#: and the stack (49 MiB).
DEFAULT_SPACE = 3 * DEFAULT_SEGMENT_SIZE + STACK_SIZE

#: Sums an untouched heap block, past the JIT heat, so the loads go
#: through the accessors first and the superblock's inline caches after.
UNTOUCHED_SUM = f"""
int main() {{
  int *p = (int *) halloc(1 << 16);
  int s = 0; int i;
  for (i = 0; i < {2 * JIT_HEAT}; i = i + 1) {{ s = s + p[i * 13]; }}
  emit_int(s); return 0;
}}
"""


def _resident_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class TestLazilyZeroedSegments:
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_untouched_pages_are_not_resident(self):
        before = _resident_bytes()
        spaces = []
        for _ in range(20):
            memory = standard_module_memory(b"\x01" * 64, b"\x02" * 64)
            memory.store(HEAP_BASE, 4, 1)
            memory.store(STACK_TOP, 4, 1)
            spaces.append(memory)
        grown = _resident_bytes() - before
        mapped = sum(seg.size for memory in spaces for seg in memory.segments)
        assert mapped == 20 * DEFAULT_SPACE
        # Twenty live spaces cost less than one eagerly zeroed one.
        assert grown < DEFAULT_SPACE

    @pytest.mark.parametrize("engine", ["legacy", "threaded", "jit"])
    @pytest.mark.parametrize("target",
                             [INTERPRETER, "mips", "sparc", "ppc", "x86"])
    def test_never_written_memory_reads_zero(self, target, engine):
        runner = Engine(execution_engine=engine)
        code, module = runner.run(UNTOUCHED_SUM, target)
        assert code == 0 and module.host.output_values() == [0]
        if engine == "jit":
            assert runner.metrics.counters["execute.superblock_runs"] >= 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_childs_stores_stay_in_the_child(self):
        memory = standard_module_memory(b"\x01" * 64, b"\x02" * 64)
        memory.store(HEAP_BASE, 4, 7)
        pid = os.fork()
        if pid == 0:  # the child: store over a touched and a fresh page
            status = 1
            try:
                memory.store(HEAP_BASE, 4, 99)
                memory.store(HEAP_BASE + (1 << 16), 4, 99)
                status = 0
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert memory.load(HEAP_BASE, 4) == 7
        assert memory.load(HEAP_BASE + (1 << 16), 4) == 0
