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

from repro import metrics
from repro.ir.ir import Function, Module, verify_module
from repro.opt import constfold, dce, licm, localopt, simplifycfg, strength


#: Rounds of the pass schedule the optimizer runs at most.
MAX_ROUNDS = 8


def optimize_function(func: Function, level: int = 2) -> int:
    """Run the pipeline of optimization *level* on one function;
    returns total change count.

    Each round runs the passes in a fixed order until a round changes
    nothing (at most :data:`MAX_ROUNDS` rounds).  A pass is skipped when
    the function has not changed since that pass last ran and reported
    no change: every pass is a deterministic function of the IR and
    counts every mutation it makes, so the skipped run would have found
    nothing either.  The result is the same IR the full schedule gives.
    """
    if level <= 0:
        return 0
    # localopt's two halves are scheduled separately, in the same order,
    # so that each can be skipped on its own.
    local = [localopt.propagate_copies, localopt.local_cse]
    schedule = [constfold.run, *local, strength.run]
    if level >= 2:
        schedule += [licm.run, *local]
    schedule += [constfold.run, dce.run, simplifycfg.run]
    version = 0  # bumped by every pass run that changes the function
    settled: dict = {}  # pass -> version it last ran at, changing nothing
    runs = skips = 0
    total = 0
    for _ in range(MAX_ROUNDS):
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


def optimize_module(module: Module, level: int = 2) -> int:
    """Optimize every function in *module* at *level*; verifies the
    result."""
    total = 0
    with metrics.stage("opt"):
        for func in module.functions:
            total += optimize_function(func, level)
        verify_module(module)
    if metrics.active():
        metrics.count("opt.functions", len(module.functions))
        metrics.count("opt.changes", total)
    return total
