"""Block-level cycle charging on the threaded native tier.

:class:`~repro.targets.threaded.ThreadedTargetMachine` charges each
block's cycles once, from a one-entry memo on the predecoded block
(:class:`~repro.targets.threaded.BlockCharge`), and replays the
per-instruction charges of the retired prefix when the body raises.
These tests run hand-laid native programs on every target under the
legacy per-instruction executor (the oracle), under the threaded
tier twice — on a freshly predecoded artifact (a cold memo) and as a
second machine on the same artifact (a warm memo) — and under the JIT
twice, with every entry compiled, where each superblock charges its
static paths from memos of their own (cold for the first machine, warm
for the second), and compare the outcome, registers, memory digest,
``fault_pc``, ``instret`` and ``cycles``.  The shapes are the ones the
block charge has to get right: faults in mid-block, annulled and
``jr`` delay slots, the FP divide trap, latencies and dual-issue pairs
that cross a block boundary, x86 memory-resident registers, one block
entered from two states in turn, and a looped trace that deopts at a
different iteration on each pass.  Path charges with taken-branch
penalties are checked against per-item charges from several entry
states, and a stress test runs one artifact from four threads at once.
The threaded tier shares one block charge among all blocks of one shape
under one timing (:func:`~repro.targets.threaded.block_charge`), so
programs that differ only in immediates, and the PPC default and cc
profiles, run alternately against the legacy executor too.
"""

import random
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
from repro.targets import threaded
from repro.targets.base import MInstr as M
from repro.targets.base import ShapeTable, TargetMachine, instr_shape
from repro.targets.jit import JitTargetMachine
from repro.targets.threaded import (
    BlockCharge,
    ThreadedTargetMachine,
    block_charge,
    predecode_native,
)
from repro.translators import ARCHITECTURES, target_spec
from repro.translators.base import TranslationOptions
from repro.utils.bits import f64_to_bits
from tests.test_sched import one_field_variants

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


def looped_deopts(spec):
    """Two passes over a loop whose forward skip is laid out untaken but
    taken on trip 3 of the first pass and trip 1 of the second, so the
    loop's superblock deopts at a different iteration each pass.  The
    first pass enters the loop with the multiply that writes ``r21``,
    which the loop head reads, still in flight; the second enters it
    with every register ready."""
    return ([M("li", rd=6, imm=0),
             "pass", M("li", rd=2, imm=0), M("li", rd=3, imm=6),
             M("li", rd=23, imm=3), M("cmpi", rs=6, imm=0),
             M("mul", rd=21, rs=3, rt=3), br(M("bcc", pred="eq"), "loop"),
             M("li", rd=23, imm=1)]
            + [M("addi", rd=22, rs=22, imm=1) for _ in range(12)]
            + ["loop", M("add", rd=20, rs=21, rt=2),
               M("cmp", rs=2, rt=23), br(M("bcc", pred="eq"), "skip"),
               M("addi", rd=24, rs=20, imm=1),
               "skip", M("addi", rd=2, rs=2, imm=1),
               M("cmp", rs=2, rt=3), br(M("bcc", pred="lt"), "loop"),
               M("addi", rd=6, rs=6, imm=1), M("cmpi", rs=6, imm=2),
               br(M("bcc", pred="lt"), "pass"), ret(spec)])


def fused_jump_entry(spec):
    """The program's first instruction is a zero-cost (fused) jump, so
    the superblock at the entry meets the jump's taken-branch penalty
    before it charges anything: first on a new machine, whose
    ``cycles`` is one past its issue cursor, and again, through the
    dispatcher, in step.  The path it then charges reads no register
    before writing it, so both entries share one memo state."""
    return ["target", br(M("j", category="fused"), "body"),
            "body", M("li", rd=20, imm=9), M("cmpi", rs=20, imm=9),
            br(M("bcc", pred="eq"), "out"), ret(spec),
            "out", M("addi", rd=2, rs=2, imm=1), M("cmpi", rs=2, imm=2),
            br(M("bcc", pred="eq"), "done"), M("li", rd=12, imm=TARGET),
            br(M("jr", rs=12)), "done", ret(spec)]


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
    "looped_deopts": looped_deopts,
    "fused_jump_entry": fused_jump_entry,
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


def jit_machine(spec, instrs, omni_to_native, program):
    """A JIT machine that compiles every entry at its first dispatch."""
    machine = JitTargetMachine(spec, instrs, fresh_memory(), omni_to_native,
                               threaded=program)
    machine._jit_heat = 1
    return machine


def run_three(arch, name):
    """(legacy, cold, warm, jit, jit_warm) observations: the threaded
    tier on a fresh artifact and again on the same one, and the JIT
    compiling every entry at its first dispatch on another fresh
    artifact and again on that one, where the superblocks' path memos
    are warm."""
    spec, instrs, omni_to_native = build(arch, name)
    legacy = observe(TargetMachine(spec, instrs, fresh_memory(),
                                   omni_to_native))
    program = predecode_native(spec, instrs)
    cold = observe(threaded_machine(spec, instrs, omni_to_native, program))
    warm = observe(threaded_machine(spec, instrs, omni_to_native, program))
    program = predecode_native(spec, instrs)
    jit = observe(jit_machine(spec, instrs, omni_to_native, program))
    jit_warm = observe(jit_machine(spec, instrs, omni_to_native, program))
    return legacy, cold, warm, jit, jit_warm


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_threaded_matches_legacy_cold_and_warm(arch, name):
    legacy, cold, warm, jit, jit_warm = run_three(arch, name)
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
    assert jit_warm == legacy, f"{arch}/{name}: jit, warm path memos"


def test_programs_reach_their_shapes():
    """The programs fault, trap and exit where they are meant to."""
    outcomes = {name: run_three("sparc", name)[0]["outcome"][0]
                for name in PROGRAMS}
    assert outcomes == {
        "mid_block_fault": "exit", "unhandled_fault": "violation",
        "annulled_slots": "exit", "jr_slots": "sandbox",
        "fp_divide": "vmerror", "latency_across_blocks": "exit",
        "two_states": "exit", "two_ready_states": "exit",
        "memory_registers": "exit", "looped_deopts": "exit",
        "fused_jump_entry": "exit"}


def entry_states_of_b(arch, name, make=threaded_machine):
    """The (ready state, pairs) entry states block ``B`` of program
    *name* is charged from, in order: the charges whose first
    instruction writes ``r20``, on a machine from *make*."""
    spec, instrs, omni_to_native = build(arch, name)
    program = predecode_native(spec, instrs)
    machine = make(spec, instrs, omni_to_native, program)
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
    return states, machine


@pytest.mark.parametrize("arch", ["ppc", "x86"])
def test_pairing_across_a_block_boundary(arch):
    """On the dual-issue targets block B's first instruction pairs with
    the instruction issued last when B is entered by falling through;
    the ready state is the same both ways."""
    states, _ = entry_states_of_b(arch, "two_states")
    assert len(states) == 6
    assert len({ready for ready, _ in states}) == 1
    assert [pairs for _, pairs in states] == [False, True] * 3


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_block_entered_from_two_ready_states(arch):
    """Block B is entered with r21 in flight every other trip."""
    states, _ = entry_states_of_b(arch, "two_ready_states")
    readies = [ready for ready, _ in states]
    assert len(readies) == 6 and len(set(readies)) == 2
    assert readies[0::2] == readies[0:1] * 3
    assert readies[1::2] == readies[1:2] * 3


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_looped_trace_deopts_at_different_iterations(arch):
    """The loop's forward skip is taken at trip 3 of the first pass and
    at trip 1 of the second, so its superblock deopts at a different
    iteration each pass, and its paths from the loop head are charged
    from two ready states: with the multiply in flight on the first
    pass's entry, and with every register ready after it."""
    states, machine = entry_states_of_b(arch, "looped_deopts", jit_machine)
    assert machine._jit_deopts >= 2
    assert machine._superblocks_run > 0
    # Every path from the loop head reads r21 first.
    in_flight = [ready for ready, _ in states if ready[0]]
    assert 0 < len(in_flight) < len(states)


# -- superblock path charges ---------------------------------------------------

#: Static superblock paths: the instructions a path charges, in order,
#: with None for each on-trace taken-branch penalty, and one at the end
#: as a taken side exit charges it.  A path starts with an instruction.
PATHS = {
    "int": [M("addi", rd=5, rs=2, imm=1), M("mul", rd=4, rs=3, rt=5), None,
            M("lw", rd=6, rs=5, imm=0), M("add", rd=7, rs=4, rt=6),
            M("addi", rd=8, rs=2, imm=2), None,
            M("add", rd=9, rs=7, rt=8), M("cmp", rs=9, rt=8), None],
    "fp": [M("cvtdw", fd=2, rs=3), M("addi", rd=5, rs=2, imm=1), None,
           M("fmuld", fd=4, fs=2, ft=2), M("faddd", fd=6, fs=4, ft=2),
           M("mul", rd=7, rs=5, rt=3), None, M("add", rd=8, rs=7, rt=5)],
}

#: The charges that leave a machine in each entry state (None: a
#: taken-branch penalty).  ``fresh`` is a new machine, whose ``cycles``
#: is 0 and issue cursor -1; ``shifted`` leaves the same relative state
#: as ``multiply_in_flight`` at a later cycle.
ENTRY_STATES = {
    "fresh": [],
    "pairable": [M("addi", rd=10, rs=11, imm=1)],
    "multiply_in_flight": [M("mul", rd=3, rs=11, rt=11)],
    "load_in_flight": [M("lw", rd=2, rs=11, imm=0)],
    "after_a_penalty": [M("addi", rd=2, rs=11, imm=1), None],
    "shifted": [M("addi", rd=10, rs=11, imm=1) for _ in range(4)]
    + [M("mul", rd=3, rs=11, rt=11)],
}


def charge_items(machine, items):
    for mi in items:
        if mi is None:
            machine._branch_taken_penalty()
        else:
            machine._charge(mi)


def timing_state(spec, entry, charge):
    """The timing state after the *entry* charges and then *charge*
    (a BlockCharge, or its items charged one by one), and the memo
    misses it took."""
    machine = ThreadedTargetMachine(spec, [M("nop")], fresh_memory(), {})
    charge_items(machine, entry)
    if isinstance(charge, BlockCharge):
        machine._charge_block(charge)
    else:
        charge_items(machine, charge)
    return ((machine.cycles, machine._last_issue_cycle, list(machine._ready),
             machine._last_issued, machine._pair_open),
            machine._charge_misses)


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_a_path_charge_matches_per_item_charges(arch):
    """A BlockCharge with penalty items, charged from a cold memo and
    then from the warm one, leaves the timing state that charging its
    items one by one leaves, from every entry state; so does one charge
    whose memo each state in turn replaces or hits."""
    spec = target_spec(arch)
    pairable = ENTRY_STATES["pairable"][-1]
    pairs = []
    for path, items in PATHS.items():
        shared = BlockCharge(items, spec.timing)
        for name, entry in list(ENTRY_STATES.items()) * 2:
            oracle, _ = timing_state(spec, entry, items)
            charge = BlockCharge(items, spec.timing)
            context = f"{arch}/{path} from {name}"
            assert timing_state(spec, entry, charge) == (oracle, 1), context
            assert timing_state(spec, entry, charge) == (oracle, 0), context
            assert timing_state(spec, entry, shared)[0] == oracle, context
        assert shared.last is items[-1]
        pairs.append(spec.timing.dual_issue is not None
                     and spec.timing.pairs(pairable, items[0]))
    # On PPC and x86 some path's first instruction pairs with the
    # ``pairable`` state's last, so the memo's pairing bit is exercised.
    assert any(pairs) == (arch in ("ppc", "x86"))


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


# -- block charges shared by shape ---------------------------------------------

def immediates_program(k):
    """A program whose instruction shapes do not depend on *k*: only
    its immediates, and so its trip count, loads and branch outcomes,
    do."""
    def make(spec):
        return counted_loop(3 + k, [
            M("li", rd=20, imm=DATA_BASE + 4 * k),
            M("addi", rd=21, rs=2, imm=k), M("mul", rd=22, rs=21, rt=21),
            br(M("j"), "next"),
            "next", M("lw", rd=23, rs=20, imm=4 * k),
            M("add", rd=24, rs=23, rt=22), M("cmpi", rs=24, imm=40 * k),
            br(M("bcc", pred="lt"), "skip"),
            M("addi", rd=25, rs=24, imm=k),
            "skip", M("addi", rd=26, rs=25, imm=-k),
        ]) + [ret(spec)]
    return make


def block_charges(program):
    """The charge of every block the artifact has built, by entry."""
    return {index: block[8] for index, block in enumerate(program.blocks)
            if block is not None and block[8] is not None}


def run_alternately(runs, make):
    """For each ``(spec, items)`` in turn: the legacy observation, the
    observation of a machine from *make* on a fresh artifact, and the
    artifact's block charges."""
    results = []
    for spec, items in runs:
        instrs, omni_to_native = layout(spec, items)
        legacy = observe(TargetMachine(spec, instrs, fresh_memory(),
                                       omni_to_native))
        program = predecode_native(spec, instrs)
        seen = observe(make(spec, instrs, omni_to_native, program))
        results.append((legacy, seen, block_charges(program)))
    return results


def jit_machine_after_one_visit(spec, instrs, omni_to_native, program):
    """A JIT machine that runs each entry once on the threaded tier, so
    it builds the entry's block (and takes its charge), and compiles it
    at the second dispatch."""
    machine = jit_machine(spec, instrs, omni_to_native, program)
    machine._jit_heat = 2
    return machine


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("make", [threaded_machine,
                                  jit_machine_after_one_visit],
                         ids=["threaded", "jit"])
def test_programs_differing_in_immediates_share_charges(arch, make):
    """Two programs that differ only in immediates, run alternately on
    fresh artifacts, each match the legacy executor, and their blocks
    share charge objects: a charge hit from one program's entry state
    charges the other's blocks."""
    spec = target_spec(arch)
    runs = [(spec, immediates_program(k)(spec)) for k in (1, 2, 1, 2)]
    results = run_alternately(runs, make)
    for n, (legacy, seen, _charges) in enumerate(results):
        assert seen == legacy, f"{arch}: run {n}"
    assert results[0][0]["cycles"] != results[1][0]["cycles"]
    first, second = results[0][2], results[1][2]
    assert first and first.keys() == second.keys()
    assert all(first[index] is second[index] for index in first)


def test_the_cc_profile_gets_charges_of_its_own():
    """The PPC cc profile's timing differs from the default one only in
    ``cmp_latency`` (1 against 2).  One compare-heavy program, run
    alternately under each profile, matches each profile's legacy
    cycles; two default-profile artifacts share their charges, and the
    two profiles share none."""
    default = target_spec("ppc")
    cc = target_spec("ppc", TranslationOptions(native_profile="cc"))

    def items(spec):
        return counted_loop(5, [
            M("cmpi", rs=2, imm=3), M("setcc", rd=20, pred="lt"),
            M("add", rd=21, rs=20, rt=2), br(M("j"), "next"),
            "next", M("cmp", rs=21, rt=2), M("setcc", rd=22, pred="eq"),
        ]) + [ret(spec)]

    runs = [(spec, items(spec)) for spec in (default, cc, default, cc)]
    results = run_alternately(runs, threaded_machine)
    for n, (legacy, seen, _charges) in enumerate(results):
        assert seen == legacy, f"run {n}"
    assert results[0][0]["cycles"] > results[1][0]["cycles"]
    ((_, _, d1), (_, _, c1), (_, _, d2), (_, _, c2)) = results
    assert d1.keys() == d2.keys() == c1.keys() == c2.keys()
    assert all(d1[i] is d2[i] and c1[i] is c2[i] for i in d1)
    assert not {id(charge) for charge in d1.values()} & \
        {id(charge) for charge in c1.values()}


def test_charges_of_blocks_differing_in_one_shape_field(monkeypatch):
    """Random blocks, each followed by its variants that differ in one
    field of one instruction's shape, all twice over, charged from one
    shared table and from several entry states, leave the timing state
    that charging their own instructions one by one leaves."""
    monkeypatch.setattr(threaded, "_CHARGES",
                        ShapeTable(threaded.CHARGE_TABLE_INSTRS))
    rng = random.Random(29)

    def state(spec, entry, charge):
        machine = ThreadedTargetMachine(spec, [M("nop")], fresh_memory(), {})
        charge_items(machine, entry)
        if isinstance(charge, BlockCharge):
            machine._charge_block(charge)
        else:
            charge_items(machine, charge)
        last = machine._last_issued
        return (machine.cycles, machine._last_issue_cycle,
                list(machine._ready), machine._pair_open,
                None if last is None else instr_shape(last))

    shared = blocks = 0
    for arch in ARCHITECTURES:
        spec = target_spec(arch)
        for _ in range(25):
            for shapes in one_field_variants(rng, branch=None) * 2:
                own = [M(**fields) for fields in shapes]
                charge = block_charge(own, spec.timing)
                shared += charge.first is not own[0]
                blocks += 1
                for name in ("fresh", "pairable", "multiply_in_flight"):
                    entry = ENTRY_STATES[name]
                    other = [M(**fields) for fields in shapes]
                    assert state(spec, entry, charge) == \
                        state(spec, entry, other), (arch, name, shapes)
    assert shared == blocks // 2


def test_more_charge_shapes_than_the_bound(monkeypatch):
    """Distinct shapes worth more instructions than the bound leave the
    charge table at or under it, each charge reads and writes what a
    charge of its own would, and the programs above still charge the
    legacy cycles afterwards."""
    table = ShapeTable(threaded.CHARGE_TABLE_INSTRS)
    monkeypatch.setattr(threaded, "_CHARGES", table)
    spec = target_spec("mips")
    limit = threaded.CHARGE_TABLE_INSTRS
    stored = 0
    for k in range(limit // 4 + 64):
        rd, rs = divmod(k, 60)
        instrs = [M("lw", rd=2 + rd % 60, rs=2 + rs, imm=0),
                  M("addi", rd=3, rs=2 + rd % 60, imm=1),
                  M("li", rd=4 + k // 3600, imm=k),
                  M("sw", rd=3, rs=2 + rs, imm=4)]
        charge = block_charge(instrs, spec.timing)
        own = BlockCharge(instrs, spec.timing)
        assert (charge.reads, charge.writes) == (own.reads, own.writes)
        assert charge.instrs == own.instrs
        stored += len(instrs)
        held = sum(len(key[1]) for key in table.entries)
        assert held == table.held <= limit
    assert stored > limit
    assert len(table.entries) < stored // 4
    for name in PROGRAMS:
        legacy, cold, warm, _jit, _jit_warm = run_three("mips", name)
        if name == "fp_divide":
            legacy = dict(legacy, pc=legacy["pc"] - 3,
                          instret=legacy["instret"] - 4)
        assert cold == warm == legacy, name
