"""Shape assertions: the reproduction must match the paper's *qualitative*
results (who wins, roughly by how much, where the effects appear).

Absolute numbers differ — the substrate is a first-order simulator — but
each check below encodes a sentence from the paper's evaluation section.
These share the cached experiment runner, so the first test pays the
simulation cost and the rest are free.
"""

import json
from pathlib import Path

import pytest

from repro.evalharness import tables
from repro.evalharness.figures import figure1
from repro.evalharness.runner import ARCHS, RunKey, global_runner
from repro.workloads.suite import WORKLOAD_NAMES

pytestmark = [pytest.mark.slow, pytest.mark.shapes]

#: The simulated results behind the tables and figures below, one per
#: run key the shape tests simulate (keyed like the runner's disk cache).
PINNED = Path(__file__).with_name("paper_cycles.json")


@pytest.fixture(scope="module")
def runner():
    return global_runner()


class TestTable1Shape:
    def test_sfi_mobile_within_35_percent_of_cc(self, runner):
        """Paper: 'within 21% as fast as ... vendor-supplied compiler'
        on average; we allow a wider band for the simulated substrate."""
        table = tables.table1(runner)
        for arch in ARCHS:
            average = table.ratios["average"][arch]
            assert 0.9 <= average <= 1.40, (arch, average)

    def test_every_cell_reasonable(self, runner):
        table = tables.table1(runner)
        for workload in WORKLOAD_NAMES:
            for arch in ARCHS:
                ratio = table.ratios[workload][arch]
                assert 0.8 <= ratio <= 1.7, (workload, arch, ratio)


class TestSFICost:
    def test_sfi_overhead_is_modest(self, runner):
        """Paper: 'on all platforms, there is a performance penalty of
        approximately 10%' for SFI."""
        for arch in ARCHS:
            for workload in WORKLOAD_NAMES:
                sfi = runner.run(RunKey(workload, arch, "mobile-sfi")).cycles
                nosfi = runner.run(
                    RunKey(workload, arch, "mobile-nosfi")).cycles
                overhead = sfi / nosfi - 1
                assert -0.01 <= overhead <= 0.30, (arch, workload, overhead)

    def test_scheduling_helps_sfi_code(self, runner):
        """Paper: translator scheduling recovers a substantial share of
        SFI's cost ('hide some of the software fault isolation overhead
        within pipeline interlock cycles').  We assert the strong form —
        scheduling speeds up SFI'd code materially on every scheduled
        RISC target — and the differential form (helps SFI *more* than
        no-SFI code) only directionally: our first-order pipeline model
        reproduces it on some workload/target pairs but not the majority
        (recorded as a known deviation in EXPERIMENTS.md)."""
        differential_wins = 0
        for arch in ("mips", "ppc"):  # the scheduled RISC targets
            gains = []
            for workload in WORKLOAD_NAMES:
                sfi_opt = runner.run(
                    RunKey(workload, arch, "mobile-sfi")).cycles
                sfi_noopt = runner.run(
                    RunKey(workload, arch, "mobile-sfi-noopt")).cycles
                nosfi_opt = runner.run(
                    RunKey(workload, arch, "mobile-nosfi")).cycles
                nosfi_noopt = runner.run(
                    RunKey(workload, arch, "mobile-nosfi-noopt")).cycles
                gains.append(sfi_noopt / sfi_opt)
                if sfi_noopt / sfi_opt >= nosfi_noopt / nosfi_opt:
                    differential_wins += 1
            average_gain = sum(gains) / len(gains)
            assert average_gain > 1.03, (arch, average_gain)
        assert differential_wins >= 1


class TestTable4Shape:
    def test_mobile_tracks_gcc(self, runner):
        """Paper: mobile code is 'virtually indistinguishable' from gcc
        native (both come from the same code generator)."""
        sfi_table, nosfi_table = tables.table4(runner)
        for arch in ARCHS:
            assert abs(nosfi_table.ratios["average"][arch] - 1.0) < 0.02, arch
            assert sfi_table.ratios["average"][arch] < 1.30, arch


class TestTable5Shape:
    def test_translator_optimizations_matter(self, runner):
        """Paper: unoptimized translation is measurably slower."""
        noopt, _ = tables.table5(runner)
        opt = tables.table1(runner)
        for arch in ARCHS:
            assert noopt.ratios["average"][arch] >= \
                opt.ratios["average"][arch]
        # And at least somewhere the effect is substantial (>5%).
        gaps = [
            noopt.ratios["average"][arch] - opt.ratios["average"][arch]
            for arch in ARCHS
        ]
        assert max(gaps) > 0.05


class TestTable6Shape:
    def test_cc_beats_gcc_where_it_should(self, runner):
        """Paper: cc ≥ gcc everywhere; biggest gap on the PPC (1.27),
        negligible on SPARC (1.01)."""
        table = tables.table6(runner)
        averages = table.ratios["average"]
        for arch in ARCHS:
            assert averages[arch] >= 0.99, arch
        assert averages["sparc"] == pytest.approx(1.0, abs=0.02)
        # cc's machine-dependent edge is substantial off-SPARC...
        for arch in ("mips", "ppc", "x86"):
            assert averages[arch] >= averages["sparc"] + 0.02, arch
        # ...and the reproduction understates the PPC gap relative to the
        # paper (XLC's global scheduling is modeled only partially; see
        # EXPERIMENTS.md), so we require direction, not magnitude.
        assert averages["ppc"] > averages["sparc"]


class TestTable2Shape:
    def test_fewer_registers_cost_more(self, runner):
        table = tables.table2(runner)
        averages = [table.ratios["average"][str(s)] for s in
                    (8, 10, 12, 14, 16)]
        # Monotone non-increasing overhead as the file grows, and the
        # 8-register file is measurably worse than the full file.
        assert averages[0] >= averages[-1]
        assert averages[0] - averages[-1] > 0.01
        for small, big in zip(averages, averages[1:]):
            assert small >= big - 0.03  # allow simulator noise


class TestFigure1Shape:
    def test_category_composition(self, runner):
        fig = figure1(runner)
        # PPC executes substantially more compare expansion than MIPS.
        ppc_cmp = sum(fig.expansion["ppc"][w]["cmp"] for w in WORKLOAD_NAMES)
        mips_cmp = sum(fig.expansion["mips"][w]["cmp"] for w in WORKLOAD_NAMES)
        assert ppc_cmp > mips_cmp
        # PPC executes fewer SFI instructions (indexed-store sequence).
        ppc_sfi = sum(fig.expansion["ppc"][w]["sfi"] for w in WORKLOAD_NAMES)
        mips_sfi = sum(fig.expansion["mips"][w]["sfi"] for w in WORKLOAD_NAMES)
        assert ppc_sfi < mips_sfi
        # Only MIPS has branch-nop overhead (PPC has no delay slots).
        ppc_bnop = sum(fig.expansion["ppc"][w]["bnop"] for w in WORKLOAD_NAMES)
        mips_bnop = sum(fig.expansion["mips"][w]["bnop"] for w in WORKLOAD_NAMES)
        assert ppc_bnop == 0
        assert mips_bnop > 0

    def test_expansion_totals_bounded(self, runner):
        fig = figure1(runner)
        for arch in ("mips", "ppc"):
            for workload in WORKLOAD_NAMES:
                total = fig.total(arch, workload)
                assert 0.0 < total < 1.2, (arch, workload, total)


class TestPinnedCycles:
    def test_runner_reproduces_pinned_results(self, runner):
        """Absolute simulated cycles, retired counts and Figure-1
        categories are the paper's measured quantities: a change to a
        cycle model shifts them even when it shifts every execution
        tier alike, which the cross-engine tests cannot see."""
        pinned = json.loads(PINNED.read_text())
        differ = []
        for disk_key, expected in pinned.items():
            workload, arch, profile, num_regs = disk_key.split("|")
            result = runner.run(RunKey(workload, arch, profile,
                                       int(num_regs)))
            got = {"cycles": result.cycles, "instret": result.instret,
                   "omni_instret": result.omni_instret,
                   "categories": result.categories}
            if got != expected:
                differ.append(disk_key)
        assert len(pinned) == 132 and not differ
