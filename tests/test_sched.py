"""Instruction scheduler and delay-slot filler unit tests."""

import pytest

from repro.difftest import ProgramGenerator
from repro.native.profiles import PROFILES
from repro.targets.base import MInstr
from repro.translators import ARCHITECTURES, target_spec, translate
from repro.translators import base as translator_base
from repro.translators.sched import (
    build_dependences,
    finalize_block,
    list_schedule,
)
from repro.workloads import suite
from tests import sched_reference as reference


def names(block):
    return [f"{i.op}:{i.rd}" for i in block]


class TestDependences:
    def test_raw_dependency(self):
        block = [
            MInstr("lw", rd=8, rs=29, imm=0),
            MInstr("addi", rd=9, rs=8, imm=1),
        ]
        succs = build_dependences(block)
        assert 1 in succs[0]

    def test_waw_and_war(self):
        block = [
            MInstr("li", rd=8, imm=1),
            MInstr("addi", rd=9, rs=8, imm=0),   # reads r8
            MInstr("li", rd=8, imm=2),           # WAR with 1, WAW with 0
        ]
        succs = build_dependences(block)
        assert 2 in succs[0]  # WAW
        assert 2 in succs[1]  # WAR

    def test_store_orders_memory(self):
        block = [
            MInstr("sw", rt=8, rs=29, imm=0),
            MInstr("lw", rd=9, rs=29, imm=0),
            MInstr("sw", rt=9, rs=29, imm=4),
        ]
        succs = build_dependences(block)
        assert 1 in succs[0]  # load after store
        assert 2 in succs[1]  # store after load

    def test_loads_can_reorder(self):
        block = [
            MInstr("lw", rd=8, rs=29, imm=0),
            MInstr("lw", rd=9, rs=29, imm=4),
        ]
        succs = build_dependences(block)
        assert 1 not in succs[0]

    def test_cc_dependence(self):
        block = [
            MInstr("cmp", rs=8, rt=9),
            MInstr("bcc", pred="lt", target=0),
        ]
        succs = build_dependences(block)
        assert 1 in succs[0]


class TestListScheduler:
    def _permutation_of(self, scheduled, original):
        assert sorted(map(id, scheduled)) == sorted(map(id, original))

    def test_hides_load_latency(self):
        spec = target_spec("mips")
        load = MInstr("lw", rd=8, rs=29, imm=0)
        use = MInstr("addi", rd=9, rs=8, imm=1)
        filler = MInstr("li", rd=10, imm=7)
        block = [load, use, filler]
        scheduled = list_schedule(block, spec)
        self._permutation_of(scheduled, block)
        # The independent li moves between load and its use.
        assert scheduled.index(filler) < scheduled.index(use)

    def test_preserves_dependences(self):
        spec = target_spec("mips")
        block = [
            MInstr("li", rd=8, imm=1),
            MInstr("addi", rd=9, rs=8, imm=1),
            MInstr("addi", rd=10, rs=9, imm=1),
            MInstr("li", rd=11, imm=2),
        ]
        scheduled = list_schedule(block, spec)
        order = {id(i): n for n, i in enumerate(scheduled)}
        assert order[id(block[0])] < order[id(block[1])] < order[id(block[2])]

    def test_branch_stays_last(self):
        spec = target_spec("ppc")
        block = [
            MInstr("li", rd=8, imm=1),
            MInstr("cmpi", rs=8, imm=0),
            MInstr("bcc", pred="ne", target=3),
        ]
        scheduled = list_schedule(block, spec)
        assert scheduled[-1].op == "bcc"

    def test_deterministic(self):
        spec = target_spec("mips")
        block = [MInstr("li", rd=8 + i, imm=i) for i in range(6)]
        a = list_schedule(list(block), spec)
        b = list_schedule(list(block), spec)
        assert names(a) == names(b)


class TestDelaySlots:
    def test_fills_with_independent_instruction(self):
        spec = target_spec("mips")
        block = [
            MInstr("li", rd=8, imm=1),
            MInstr("li", rd=10, imm=3),
            MInstr("beq", rs=8, rt=9, target=7),
        ]
        out = finalize_block(block, spec, schedule=True)
        assert out[-2].op == "beq"
        assert out[-1].op == "li" and out[-1].rd == 10

    def test_nop_when_branch_depends(self):
        spec = target_spec("mips")
        block = [
            MInstr("li", rd=8, imm=1),
            MInstr("beq", rs=8, rt=0, target=7),
        ]
        out = finalize_block(block, spec, schedule=True)
        assert out[-1].op == "nop"
        assert out[-1].category == "bnop"

    def test_nop_when_scheduling_disabled(self):
        spec = target_spec("mips")
        block = [
            MInstr("li", rd=10, imm=3),
            MInstr("beq", rs=8, rt=9, target=7),
        ]
        out = finalize_block(block, spec, schedule=False)
        assert out[-1].op == "nop"

    def test_no_slot_on_non_delay_targets(self):
        spec = target_spec("ppc")
        block = [MInstr("bcc", pred="lt", target=0)]
        assert finalize_block(block, spec, schedule=True) == block

    def test_fallthrough_block_untouched(self):
        spec = target_spec("mips")
        block = [MInstr("li", rd=8, imm=1)]
        assert finalize_block(block, spec, schedule=True) == block


class TestDelaySlotHazards:
    def test_link_register_store_not_moved_into_call_slot(self):
        """Regression: `sw ra, sp, 0` must not fill a jal's delay slot —
        jal writes ra before the slot executes (found by the alvinn
        workload returning into the wrong frame)."""
        spec = target_spec("mips")
        ra = spec.reserved["ra"]
        block = [
            MInstr("addi", rd=29, rs=29, imm=-8),
            MInstr("sw", rt=ra, rs=29, imm=0),
            MInstr("jal", target=0, imm=0x10000098),
        ]
        out = finalize_block(block, spec, schedule=True)
        assert out[-1].op == "nop"  # slot NOT filled with the ra store
        assert [i.op for i in out[:3]] == ["addi", "sw", "jal"]

    def test_link_register_consumer_not_moved_into_call_slot(self):
        spec = target_spec("mips")
        ra = spec.reserved["ra"]
        block = [
            MInstr("mov", rd=8, rs=ra),
            MInstr("jal", target=0, imm=0x10000098),
        ]
        out = finalize_block(block, spec, schedule=True)
        assert out[-1].op == "nop"

    def test_unrelated_instruction_still_fills_call_slot(self):
        spec = target_spec("mips")
        block = [
            MInstr("li", rd=8, imm=5),
            MInstr("jal", target=0, imm=0x10000098),
        ]
        out = finalize_block(block, spec, schedule=True)
        assert out[-1].op == "li"


def scheduled_blocks() -> list:
    """Every block the translators schedule, with the spec and the
    precise flag they schedule it under: the four SPEC kernels and a
    fixed-seed difftest corpus, on all four targets under every profile
    that schedules."""
    recorded = []

    def recording(block, spec, precise=False):
        recorded.append((list(block), spec, precise))
        return list_schedule(block, spec, precise)

    programs = [suite.build(name) for name in suite.WORKLOAD_NAMES]
    programs += [ProgramGenerator("sched").program(index).build()
                 for index in range(24)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator_base, "list_schedule", recording)
        for program in programs:
            for arch in ARCHITECTURES:
                for options in PROFILES.values():
                    if options.schedule:
                        translate(program, arch, options)
    return recorded


class TestMatchesReference:
    """The scheduler returns the order of the reference scheduler in
    ``sched_reference.py`` (the one that rebuilt register sets and
    re-sorted the ready list at every pick) for every block the
    translators schedule, with and without *precise*."""

    @pytest.fixture(scope="class")
    def blocks(self):
        return scheduled_blocks()

    def test_corpus_covers_both_modes_and_every_target(self, blocks):
        assert {precise for _block, _spec, precise in blocks} == \
            {False, True}
        assert {spec.name for _block, spec, _precise in blocks} == \
            set(ARCHITECTURES)

    def test_same_dependences(self, blocks):
        for block, _spec, _precise in blocks:
            for precise in (False, True):
                assert build_dependences(block, precise) == \
                    reference.build_dependences(block, precise)

    def test_same_order(self, blocks):
        for block, spec, _precise in blocks:
            for precise in (False, True):
                want = reference.list_schedule(list(block), spec, precise)
                got = list_schedule(list(block), spec, precise)
                assert list(map(id, got)) == list(map(id, want))

    def test_scheduling_leaves_issue_records_alone(self, blocks):
        assert all(instr.cissue is None
                   for block, _spec, _precise in blocks for instr in block)
