"""Instruction scheduler and delay-slot filler unit tests."""

import random

import pytest

from repro.difftest import ProgramGenerator
from repro.native.profiles import PROFILES
from repro.targets.base import MInstr, ShapeTable
from repro.translators import ARCHITECTURES, sched, target_spec, translate
from repro.translators import base as translator_base
from repro.translators.base import TranslationOptions
from repro.translators.sched import (
    build_dependences,
    finalize_block,
    list_schedule,
    schedule_block,
)
from repro.workloads import suite
from tests import sched_reference as reference


def names(block):
    return [f"{i.op}:{i.rd}" for i in block]


#: Opcodes of the random blocks below, and the values of their operand
#: fields (-1 is no operand).
RANDOM_OPS = ("add", "mul", "addi", "lw", "sw", "cmp", "setcc", "faddd",
              "fmuld", "lfd", "sfd", "cvtdw", "div")
RANDOM_OPERANDS = (-1, 2, 3)


def one_field_variants(rng, ops=RANDOM_OPS, branch="bcc"):
    """A random block of two to five instructions, as field dicts, then
    every block that differs from it in one field of one instruction:
    the opcode or one operand.  Some blocks end in *branch*."""
    base = [dict(op=rng.choice(ops),
                 **{name: rng.choice(RANDOM_OPERANDS)
                    for name in ("rd", "rs", "rt", "fd", "fs", "ft")})
            for _ in range(rng.randint(2, 5))]
    variants = [base]
    for index, fields in enumerate(base):
        for name, value in fields.items():
            choices = ops if name == "op" else RANDOM_OPERANDS
            other = rng.choice([v for v in choices if v != value])
            variant = [dict(f) for f in base]
            variant[index][name] = other
            variants.append(variant)
    if branch and rng.random() < 0.3:
        variants = [v + [dict(op=branch)] for v in variants]
    return variants


def ids(block):
    return [id(instr) for instr in block]


def positions(scheduled, block):
    """Where each scheduled instruction sat in *block*, by identity."""
    index = {id(instr): n for n, instr in enumerate(block)}
    return [index[id(instr)] for instr in scheduled]


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty schedule table, of the module's size, for one test."""
    table = ShapeTable(sched.SCHEDULE_TABLE_INSTRS)
    monkeypatch.setattr(sched, "_ORDERS", table)
    return table


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
        return schedule_block(block, spec, precise)

    programs = [suite.build(name) for name in suite.WORKLOAD_NAMES]
    programs += [ProgramGenerator("sched").program(index).build()
                 for index in range(24)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator_base, "schedule_block", recording)
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
        """Each block, from an empty schedule table (a miss) and again
        (a hit), gets the reference order."""
        for block, spec, _precise in blocks:
            for precise in (False, True):
                want = ids(reference.list_schedule(list(block), spec,
                                                   precise))
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(sched, "_ORDERS", ShapeTable(
                        sched.SCHEDULE_TABLE_INSTRS))
                    cold, hit = schedule_block(list(block), spec, precise)
                    assert not hit and ids(cold) == want
                    warm, hit = schedule_block(list(block), spec, precise)
                    assert hit and ids(warm) == want
                assert ids(list_schedule(list(block), spec, precise)) == want

    def test_same_order_from_other_programs_entries(self, blocks,
                                                    fresh_table):
        """With one table over the whole corpus, a block gets the
        reference order also when a block of another program, of the
        same shape, filled its entry."""
        hits = 0
        for block, spec, precise in blocks:
            want = ids(reference.list_schedule(list(block), spec, precise))
            got, hit = schedule_block(list(block), spec, precise)
            assert ids(got) == want
            hits += hit
        assert hits > len(blocks) // 2

    def test_scheduling_leaves_issue_records_alone(self, blocks):
        assert all(instr.cissue is None
                   for block, _spec, _precise in blocks for instr in block)


class TestScheduleTable:
    """:func:`schedule_block` keeps each order by the block's shapes,
    the translator timing's latencies and *precise*."""

    def test_one_order_for_blocks_of_one_shape(self, fresh_table):
        """Two blocks that differ only in immediates share one entry,
        and each result holds only its caller's instructions."""
        spec = target_spec("mips")

        def block(k):
            return [MInstr("lw", rd=8, rs=29, imm=4 * k),
                    MInstr("addi", rd=9, rs=8, imm=k),
                    MInstr("li", rd=10, imm=100 + k)]

        first, second = block(1), block(2)
        got_first, first_hit = schedule_block(first, spec)
        got_second, second_hit = schedule_block(second, spec)
        assert (first_hit, second_hit) == (False, True)
        assert len(fresh_table.entries) == 1
        assert positions(got_first, first) == [0, 2, 1]
        assert positions(got_second, second) == [0, 2, 1]
        assert sorted(ids(got_first)) == sorted(ids(first))
        assert sorted(ids(got_second)) == sorted(ids(second))

    def test_each_compare_latency_gets_its_own_order(self, fresh_table):
        """Under PPC timing the compare's latency decides whether the
        independent ``addi`` fills the gap before ``setcc``: the default
        timing (2 cycles) and the cc profile's (1) get their own
        orders, whichever filled the table first."""
        default = target_spec("ppc")
        cc = target_spec("ppc", TranslationOptions(native_profile="cc"))
        assert (default.timing.cmp_latency, cc.timing.cmp_latency) == (2, 1)

        def block():
            return [MInstr("cmpi", rs=3, imm=0),
                    MInstr("setcc", rd=4, pred="lt"),
                    MInstr("addi", rd=5, rs=6, imm=1)]

        orders = []
        for spec in (default, cc, default, cc):
            instrs = block()
            want = positions(reference.list_schedule(list(instrs), spec),
                             instrs)
            got, _hit = schedule_block(instrs, spec)
            assert positions(got, instrs) == want
            orders.append(want)
        assert orders == [[0, 2, 1], [0, 1, 2]] * 2
        assert len(fresh_table.entries) == 2

    def test_precise_gets_its_own_order(self, fresh_table):
        """With *precise* the load is a barrier the ``li`` before it
        cannot cross; without, the load moves first."""
        spec = target_spec("mips")
        for precise, want in ((False, [1, 0, 2]), (True, [0, 1, 2])) * 2:
            instrs = [MInstr("li", rd=11, imm=3),
                      MInstr("lw", rd=8, rs=29, imm=0),
                      MInstr("addi", rd=9, rs=8, imm=1)]
            got, _hit = schedule_block(instrs, spec, precise)
            assert positions(got, instrs) == want
        assert len(fresh_table.entries) == 2

    def test_blocks_differing_in_one_shape_field(self, fresh_table):
        """Random blocks, each followed by its variants that differ in
        one field of one instruction's shape, all twice over, get the
        reference order from one shared table."""
        rng = random.Random(29)
        hits = blocks = 0
        for arch in ARCHITECTURES:
            spec = target_spec(arch)
            for _ in range(20):
                for shapes in one_field_variants(rng) * 2:
                    block = [MInstr(**fields) for fields in shapes]
                    want = ids(reference.list_schedule(list(block), spec))
                    got, hit = schedule_block(list(block), spec)
                    assert ids(got) == want, shapes
                    hits += hit
                    blocks += 1
        assert hits == blocks // 2

    def test_a_block_longer_than_the_bound_is_not_kept(self, monkeypatch):
        """A block of more instructions than the table's bound gets the
        reference order and leaves the table empty."""
        table = ShapeTable(4)
        monkeypatch.setattr(sched, "_ORDERS", table)
        spec = target_spec("mips")
        for _ in range(2):
            block = [MInstr("lw", rd=8, rs=29, imm=0),
                     MInstr("addi", rd=9, rs=8, imm=1),
                     MInstr("li", rd=10, imm=2), MInstr("li", rd=11, imm=3),
                     MInstr("addi", rd=12, rs=9, imm=4)]
            want = ids(reference.list_schedule(list(block), spec))
            got, hit = schedule_block(list(block), spec)
            assert not hit and ids(got) == want
        assert table.entries == {} and table.held == 0

    def test_more_shapes_than_the_bound(self, fresh_table):
        """Distinct shapes worth more instructions than the bound leave
        the table at or under it, and every order stays the reference
        one."""
        spec = target_spec("mips")
        limit = sched.SCHEDULE_TABLE_INSTRS
        stored = 0
        for k in range(limit // 4 + 64):
            rd, rs = divmod(k, 60)
            block = [MInstr("lw", rd=2 + rd % 60, rs=2 + rs, imm=0),
                     MInstr("addi", rd=3, rs=2 + rd % 60, imm=1),
                     MInstr("li", rd=4 + k // 3600, imm=k),
                     MInstr("sw", rd=3, rs=2 + rs, imm=4)]
            want = ids(reference.list_schedule(list(block), spec))
            got, hit = schedule_block(list(block), spec)
            assert not hit and ids(got) == want
            stored += len(block)
            held = sum(len(key[2]) for key in fresh_table.entries)
            assert held == fresh_table.held <= limit
        assert stored > limit
        assert len(fresh_table.entries) < stored // 4
