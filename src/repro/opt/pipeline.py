"""Optimization pass manager.

Three optimization levels mirror the compilers in the paper's evaluation:

* ``O0`` — no machine-independent optimization (used for ablation).
* ``O1`` — local optimizations only: constant folding, copy/constant
  propagation, local CSE, strength reduction, DCE, CFG cleanup.
* ``O2`` — O1 plus loop-invariant code motion, iterated to a fix point.
  This is "the highest available level of intra-procedural global
  optimization" the paper uses for all measured compilers.

Both the OmniVM code generator and the native back ends consume the same
optimized IR: the mobile-vs-native performance differences measured by the
benchmark harness therefore come from translation effects and SFI, exactly
as in the paper (which notes remaining native-cc advantages come from
machine-dependent optimization, modeled in :mod:`repro.native.profiles`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import metrics
from repro.ir.ir import Function, Module, verify_module
from repro.opt import constfold, dce, licm, localopt, simplifycfg, strength


@dataclass(frozen=True)
class OptOptions:
    """Configuration for the optimizer pipeline."""

    level: int = 2
    max_iterations: int = 8
    run_licm: bool | None = None  # None = derive from level

    @property
    def licm_enabled(self) -> bool:
        if self.run_licm is not None:
            return self.run_licm
        return self.level >= 2


def optimize_function(func: Function, options: OptOptions | None = None) -> int:
    """Run the pipeline on one function; returns total change count.

    Each round runs the passes in a fixed order until a round changes
    nothing (at most ``max_iterations`` rounds).  A pass is skipped when
    the function has not changed since that pass last ran and reported
    no change: every pass is a deterministic function of the IR and
    counts every mutation it makes, so the skipped run would have found
    nothing either.  The result is the same IR the full schedule gives.
    """
    options = options or OptOptions()
    if options.level <= 0:
        return 0
    # localopt's two halves are scheduled separately, in the same order,
    # so that each can be skipped on its own.
    local = [localopt.propagate_copies, localopt.local_cse]
    schedule = [constfold.run, *local, strength.run]
    if options.licm_enabled:
        schedule += [licm.run, *local]
    schedule += [constfold.run, dce.run, simplifycfg.run]
    version = 0  # bumped by every pass run that changes the function
    settled: dict = {}  # pass -> version it last ran at, changing nothing
    runs = skips = 0
    total = 0
    for _ in range(options.max_iterations):
        changes = 0
        for run in schedule:
            if settled.get(run) == version:
                skips += 1
                continue
            runs += 1
            made = run(func)
            if made:
                changes += made
                version += 1
            else:
                settled[run] = version
        total += changes
        if changes == 0:
            break
    if metrics.active():
        metrics.count("opt.pass_runs", runs)
        metrics.count("opt.pass_skips", skips)
    return total


def optimize_module(module: Module, options: OptOptions | None = None) -> int:
    """Optimize every function in *module*; verifies the result."""
    total = 0
    with metrics.stage("opt"):
        for func in module.functions:
            total += optimize_function(func, options)
        verify_module(module)
    if metrics.active():
        metrics.count("opt.functions", len(module.functions))
        metrics.count("opt.changes", total)
    return total
