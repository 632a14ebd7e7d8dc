"""Block-level cycle charging on the threaded native tier.

:class:`~repro.targets.threaded.ThreadedTargetMachine` charges each
block's cycles once, from a one-entry memo on the predecoded block
(:class:`~repro.targets.threaded.BlockCharge`), and replays the
per-instruction charges of the retired prefix when the body raises.
These tests run hand-laid native programs on every target under the
legacy per-instruction executor (the oracle), under the threaded
tier twice — on a freshly predecoded artifact (a cold memo) and as a
second machine on the same artifact (a warm memo) — and under the JIT
with every entry compiled, and compare the outcome, registers, memory
digest, ``fault_pc``, ``instret`` and ``cycles``.  The shapes are the ones the block charge has to get right:
faults in mid-block, annulled and ``jr`` delay slots, the FP divide
trap, latencies and dual-issue pairs that cross a block boundary, x86
memory-resident registers, and one block entered from two states in
turn.  A stress test runs one artifact from four threads at once.
"""

import sys
import threading
import time

import pytest

from repro.difftest.harness import DEFAULT_SEGMENT_SIZE, memory_digest
from repro.errors import (
    AccessViolation,
    SandboxViolation,
    VMRuntimeError,
    VMTrap,
)
from repro.omnivm.memory import CODE_BASE, DATA_BASE, standard_module_memory
from repro.targets.base import MInstr as M
from repro.targets.base import TargetMachine
from repro.targets.jit import JitTargetMachine
from repro.targets.threaded import ThreadedTargetMachine, predecode_native
from repro.translators import ARCHITECTURES, target_spec
from repro.utils.bits import f64_to_bits

#: Module addresses the indirect jumps of the programs below name.
HANDLER = CODE_BASE + 0x400
TARGET = CODE_BASE + 0x800
UNMAPPED = CODE_BASE + 0xC00


def br(instr, label=None, slot=None):
    """A control transfer to *label*; on a delay-slot target *slot*
    (default a nop) follows it."""
    return ("br", instr, label, slot)


def layout(spec, items):
    """(instrs, omni_to_native) from labels, instructions and
    :func:`br` items.  A label that names a module address in
    :data:`ADDRESSES` is mapped for indirect transfers."""
    instrs, labels, fixups = [], {}, []
    for item in items:
        if isinstance(item, str):
            labels[item] = len(instrs)
        elif isinstance(item, tuple):
            _, instr, label, slot = item
            if label is not None:
                fixups.append((instr, label))
            instrs.append(instr)
            if spec.delay_slots:
                instrs.append(slot if slot is not None else M("nop"))
        else:
            instrs.append(item)
    for instr, label in fixups:
        instr.target = labels[label]
    omni_to_native = {ADDRESSES[name]: index
                      for name, index in labels.items() if name in ADDRESSES}
    return instrs, omni_to_native


ADDRESSES = {"handler": HANDLER, "target": TARGET}


def ret(spec):
    return br(M("jr", rs=spec.reserved.get("ra", 31)))


def counted_loop(trips, body, counter=2, limit=3):
    """*body* items inside a loop of *trips* iterations."""
    return ([M("li", rd=counter, imm=0), M("li", rd=limit, imm=trips),
             "loop"] + body
            + [M("addi", rd=counter, rs=counter, imm=1),
               M("cmp", rs=counter, rt=limit),
               br(M("bcc", pred="lt"), "loop")])


# -- the programs -----------------------------------------------------------

def mid_block_fault(spec):
    """A load faults in mid-block after a multiply; the handler reads
    the multiply's result, so the replayed charges decide its stall."""
    return [M("li", rd=9, imm=HANDLER), M("sethnd", rs=9),
            M("li", rd=2, imm=0x40), M("li", rd=3, imm=7),
            M("mul", rd=4, rs=3, rt=3), M("addi", rd=5, rs=4, imm=1),
            M("lw", rd=6, rs=2, imm=0),
            M("addi", rd=7, rs=6, imm=1), ret(spec),
            "handler", M("add", rd=10, rs=4, rt=5), ret(spec)]


def unhandled_fault(spec):
    """A store faults in mid-block with no handler: the violation
    reaches the host."""
    return [M("li", rd=2, imm=0x40), M("li", rd=3, imm=7),
            M("mul", rd=4, rs=3, rt=3), M("addi", rd=5, rs=4, imm=1),
            M("sw", rs=2, rt=5, imm=0), M("addi", rd=7, rs=5, imm=1),
            ret(spec)]


def annulled_slots(spec):
    """Annulling branches, taken (the slot runs) and untaken (it is
    squashed), inside a loop so the warm memo is exercised."""
    return counted_loop(4, [
        M("li", rd=20, imm=1), M("li", rd=21, imm=2),
        M("cmp", rs=20, rt=21),
        br(M("bcc", pred="lt", annul=True), "taken",
           slot=M("mul", rd=22, rs=21, rt=21)),
        M("addi", rd=23, rs=22, imm=1),
        "taken", M("cmp", rs=21, rt=20),
        br(M("bcc", pred="lt", annul=True), "skip",
           slot=M("mul", rd=24, rs=21, rt=21)),
        M("add", rd=25, rs=24, rt=22),
        "skip", M("addi", rd=26, rs=25, imm=1),
    ]) + [ret(spec)]


def jr_slots(spec):
    """``jr`` to a mapped address, then to an unmapped one: the first
    runs its slot, the second raises before its slot."""
    return [M("li", rd=8, imm=TARGET), M("li", rd=3, imm=5),
            M("mul", rd=4, rs=3, rt=3),
            br(M("jr", rs=8), slot=M("addi", rd=9, rs=4, imm=1)),
            M("addi", rd=10, rs=9, imm=1),
            "target", M("add", rd=11, rs=9, rt=4),
            M("li", rd=12, imm=UNMAPPED),
            br(M("jr", rs=12), slot=M("addi", rd=13, rs=11, imm=1)),
            ret(spec)]


def fp_divide(spec):
    """An FP divide by zero in mid-block, after a multiply and a load
    whose latencies the replay must charge."""
    return [M("li", rd=2, imm=DATA_BASE), M("li", rd=3, imm=0),
            M("li", rd=4, imm=5), M("cvtdw", fd=2, rs=3),
            M("cvtdw", fd=4, rs=4), br(M("j"), "next"),
            "next", M("mul", rd=5, rs=4, rt=4), M("lw", rd=6, rs=2, imm=0),
            M("add", rd=7, rs=6, rt=5),
            M("fdivd", fd=6, fs=4, ft=2),
            M("addi", rd=8, rs=7, imm=1), ret(spec)]


def latency_across_blocks(spec):
    """Multiply, divide and load results read in the next block."""
    return counted_loop(5, [
        M("li", rd=20, imm=DATA_BASE), M("addi", rd=21, rs=2, imm=9),
        M("mul", rd=22, rs=21, rt=21), br(M("j"), "div"),
        "div", M("add", rd=23, rs=22, rt=21),
        M("div", rd=24, rs=23, rt=21), br(M("j"), "load"),
        "load", M("add", rd=25, rs=24, rt=24),
        M("lw", rd=26, rs=20, imm=4), br(M("j"), "use"),
        "use", M("add", rd=27, rs=26, rt=25),
    ]) + [ret(spec)]


def two_states(spec):
    """Block ``B`` is entered by a taken branch on even trips and by
    falling through an untaken branch on odd ones.  Its first
    instruction pairs with the instruction issued last (on PPC, and on
    x86 behind a zero-cost fused branch) only when it falls through,
    and its ready state is the same both ways, so the two entry states
    differ only in whether the first instruction pairs."""
    fused = "fused" if spec.name == "x86" else "base"
    return counted_loop(6, [
        M("andi", rd=4, rs=2, imm=1), M("cmpi", rs=4, imm=0),
        br(M("bcc", pred="eq"), "B"),
        M("addi", rd=5, rs=2, imm=0), M("cmpi", rs=5, imm=-1),
        br(M("bcc", pred="eq", category=fused), "loop"),
        "B", M("addi", rd=20, rs=21, imm=1),
        M("addi", rd=22, rs=20, imm=1),
    ]) + [ret(spec)]


def two_ready_states(spec):
    """Block ``B`` is entered with the multiply that writes ``r21``
    still in flight on odd trips, and with every register ready on
    even ones."""
    return counted_loop(6, [
        M("andi", rd=4, rs=2, imm=1), M("cmpi", rs=4, imm=0),
        br(M("bcc", pred="eq"), "B"),
        M("mul", rd=21, rs=3, rt=3), M("cmpi", rs=4, imm=-1),
        br(M("bcc", pred="eq"), "loop"),
        "B", M("add", rd=20, rs=21, rt=2),
        M("addi", rd=22, rs=20, imm=1),
    ]) + [ret(spec)]


def memory_registers(spec):
    """x86 memory-resident registers (indexes 32 and up) read and
    written across block boundaries: each extra memory operand costs
    an issue cycle."""
    return counted_loop(4, [
        M("addi", rd=33, rs=34, imm=3), M("add", rd=35, rs=33, rt=34),
        br(M("j"), "next"),
        "next", M("add", rd=36, rs=35, rt=33), M("mov", rd=34, rs=36),
        M("mul", rd=37, rs=36, rt=35),
    ]) + [ret(spec)]


PROGRAMS = {
    "mid_block_fault": mid_block_fault,
    "unhandled_fault": unhandled_fault,
    "annulled_slots": annulled_slots,
    "jr_slots": jr_slots,
    "fp_divide": fp_divide,
    "latency_across_blocks": latency_across_blocks,
    "two_states": two_states,
    "two_ready_states": two_ready_states,
    "memory_registers": memory_registers,
}


# -- running ------------------------------------------------------------------

def fresh_memory():
    return standard_module_memory(b"\0" * 64, bytes(range(64)),
                                  DEFAULT_SEGMENT_SIZE)


def observe(machine):
    """Outcome, registers, memory digest, pc, instret and cycles."""
    try:
        outcome = ("exit", machine.run(0))
    except AccessViolation as violation:
        outcome = ("violation", violation.kind, violation.address)
    except SandboxViolation as violation:
        outcome = ("sandbox", str(violation))
    except VMTrap as trap:
        outcome = ("trap", trap.code)
    except VMRuntimeError as err:
        outcome = ("vmerror", str(err))
    return {"outcome": outcome, "regs": tuple(machine.regs),
            "fregs": tuple(f64_to_bits(f) for f in machine.fregs),
            "memory": memory_digest(machine.memory), "pc": machine.pc,
            "instret": machine.instret, "cycles": machine.cycles}


def build(arch, name):
    spec = target_spec(arch)
    instrs, omni_to_native = layout(spec, PROGRAMS[name](spec))
    return spec, instrs, omni_to_native


def threaded_machine(spec, instrs, omni_to_native, program):
    return ThreadedTargetMachine(spec, instrs, fresh_memory(),
                                 omni_to_native, threaded=program)


def run_three(arch, name):
    """(legacy, cold, warm, jit) observations: the threaded tier on a
    fresh artifact and again on the same one, and the JIT compiling
    every entry at its first dispatch."""
    spec, instrs, omni_to_native = build(arch, name)
    legacy = observe(TargetMachine(spec, instrs, fresh_memory(),
                                   omni_to_native))
    program = predecode_native(spec, instrs)
    cold = observe(threaded_machine(spec, instrs, omni_to_native, program))
    warm = observe(threaded_machine(spec, instrs, omni_to_native, program))
    jit_machine = JitTargetMachine(
        spec, instrs, fresh_memory(), omni_to_native,
        threaded=predecode_native(spec, instrs))
    jit_machine._jit_heat = 1
    return legacy, cold, warm, observe(jit_machine)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_threaded_matches_legacy_cold_and_warm(arch, name):
    legacy, cold, warm, jit = run_three(arch, name)
    if name == "fp_divide":
        # The FP divide trap leaves pc and instret at the last block
        # boundary (the documented relaxation): the threaded tier has
        # retired neither the three instructions of the block before
        # the divide nor the divide itself.  Its cycles are exact.
        assert legacy["outcome"][0] == "vmerror"
        legacy = dict(legacy, pc=legacy["pc"] - 3,
                      instret=legacy["instret"] - 4)
    assert cold == legacy, f"{arch}/{name}: cold memo"
    assert warm == legacy, f"{arch}/{name}: warm memo"
    assert jit == legacy, f"{arch}/{name}: jit"


def test_programs_reach_their_shapes():
    """The programs fault, trap and exit where they are meant to."""
    outcomes = {name: run_three("sparc", name)[0]["outcome"][0]
                for name in PROGRAMS}
    assert outcomes == {
        "mid_block_fault": "exit", "unhandled_fault": "violation",
        "annulled_slots": "exit", "jr_slots": "sandbox",
        "fp_divide": "vmerror", "latency_across_blocks": "exit",
        "two_states": "exit", "two_ready_states": "exit",
        "memory_registers": "exit"}


def entry_states_of_b(arch, name):
    """The (ready state, pairs) entry states block ``B`` of program
    *name* is charged from, in order."""
    spec, instrs, omni_to_native = build(arch, name)
    program = predecode_native(spec, instrs)
    machine = threaded_machine(spec, instrs, omni_to_native, program)
    states = []
    charge_block = machine._charge_block

    def recording(charge):
        if charge.first.rd == 20:
            lic = machine._last_issue_cycle
            ready = tuple(max(machine._ready[slot] - lic, 0)
                          for slot in charge.reads)
            states.append((ready, bool(
                machine._pair_open and machine._dual
                and spec.timing.pairs(machine._last_issued, charge.first))))
        charge_block(charge)

    machine._charge_block = recording
    observe(machine)
    return states


@pytest.mark.parametrize("arch", ["ppc", "x86"])
def test_pairing_across_a_block_boundary(arch):
    """On the dual-issue targets block B's first instruction pairs with
    the instruction issued last when B is entered by falling through;
    the ready state is the same both ways."""
    states = entry_states_of_b(arch, "two_states")
    assert len(states) == 6
    assert len({ready for ready, _ in states}) == 1
    assert [pairs for _, pairs in states] == [False, True] * 3


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_block_entered_from_two_ready_states(arch):
    """Block B is entered with r21 in flight every other trip."""
    states = entry_states_of_b(arch, "two_ready_states")
    readies = [ready for ready, _ in states]
    assert len(readies) == 6 and len(set(readies)) == 2
    assert readies[0::2] == readies[0:1] * 3
    assert readies[1::2] == readies[1:2] * 3


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_hot_loop_hits_the_memo(arch):
    """Each block of a loop sees one entry state once the loop runs, so
    a warm machine misses only where the loop is entered, however long
    the loop runs, and a cold one at most once more per block."""
    spec = target_spec(arch)
    instrs, omni_to_native = layout(spec, counted_loop(40, [
        M("li", rd=20, imm=DATA_BASE), br(M("j"), "body"),
        "body", M("lw", rd=21, rs=20, imm=0), M("add", rd=22, rs=21, rt=2),
        M("mul", rd=23, rs=22, rt=3),
    ]) + [M("add", rd=24, rs=23, rt=22), ret(spec)])
    program = predecode_native(spec, instrs)
    cold = threaded_machine(spec, instrs, omni_to_native, program)
    observe(cold)
    blocks = sum(block is not None for block in program.blocks)
    assert cold._charge_misses <= 2 * blocks
    warm = threaded_machine(spec, instrs, omni_to_native, program)
    observe(warm)
    assert warm._charge_misses <= 2
    assert warm.cycles == cold.cycles


@pytest.mark.parametrize("arch", ["mips", "ppc", "x86"])
def test_machines_sharing_an_artifact_across_threads(arch):
    """Four threads run one artifact at once, each machine replacing
    the memo entries the others read, under a short switch interval:
    every run charges the cycles of the serial run."""
    spec, instrs, omni_to_native = build(arch, "two_ready_states")
    serial = observe(TargetMachine(spec, instrs, fresh_memory(),
                                   omni_to_native))
    program = predecode_native(spec, instrs)
    deadline = time.monotonic() + 1.0
    results, errors = [], []

    def worker():
        try:
            while time.monotonic() < deadline:
                machine = threaded_machine(spec, instrs, omni_to_native,
                                           program)
                run = observe(machine)
                results.append((run["cycles"], run["instret"]))
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(results) >= 4
    assert set(results) == {(serial["cycles"], serial["instret"])}
