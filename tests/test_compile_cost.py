"""The compiler's cost: linear growth, and a pass manager that skips only
what cannot change.

Wall time is too noisy to pin, so growth is measured in Python calls, a
deterministic count of the work every phase does.
"""

import cProfile
import pstats
import re

import pytest

from repro import Engine
from repro.cli import main
from repro.compiler import CompileOptions, compile_to_ir
from repro.opt import constfold, dce, licm, localopt, simplifycfg, strength
from repro.opt.pipeline import OptOptions, optimize_function
from repro.workloads import suite

CYCLE = ["a = (a * k + b) & 65535;", "if (a & m) b = b ^ k;",
         "c = c + a * k - b;", "for (i = 0; i < 3; i++) c = c + a * k;"]


def one_function(statements: int) -> str:
    """A single function of *statements* statements cycling four shapes:
    straight-line arithmetic, a branch, an accumulator and a short loop
    with an invariant to hoist."""
    body = "\n  ".join(CYCLE[s % 4] for s in range(statements))
    return ("int f(int k, int m) {\n  int a = 1; int b = 2; int c = 3; int i;\n  "
            + body + "\n  return a + b + c;\n}\n"
            "int main() { emit_int(f(3, 5)); return 0; }\n")


def calls_to_compile(source: str) -> int:
    profile = cProfile.Profile()
    profile.enable()
    Engine().compile(source)
    profile.disable()
    return sum(entry[1] for entry in pstats.Stats(profile).stats.values())


def test_compile_work_grows_linearly():
    small = calls_to_compile(one_function(100))
    large = calls_to_compile(one_function(1600))
    # 16x the statements may cost at most 1.5 x 16x the calls (the
    # quadratic LICM and DCE of the past cost 78x).
    assert large / small <= 1.5 * 16


SOURCES = {name: w.source for name, w in suite.WORKLOADS.items()}
SOURCES["one_function"] = one_function(40)


def full_schedule(func, options: OptOptions) -> None:
    """Every pass of every round, with no skipping."""
    schedule = [constfold.run, localopt.run, strength.run]
    if options.licm_enabled:
        schedule += [licm.run, localopt.run]
    schedule += [constfold.run, dce.run, simplifycfg.run]
    for _ in range(options.max_iterations):
        if sum(run(func) for run in schedule) == 0:
            return


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", SOURCES)
def test_skipping_passes_changes_nothing(name, level):
    options = OptOptions(level=level)
    skipped = compile_to_ir(SOURCES[name], CompileOptions(opt_level=0))
    full = compile_to_ir(SOURCES[name], CompileOptions(opt_level=0))
    for a, b in zip(skipped.functions, full.functions):
        optimize_function(a, options)
        full_schedule(b, options)
    assert str(skipped) == str(full)


def test_a_pass_that_reports_no_change_made_none(monkeypatch):
    """The skip rule is exact only if every mutation is counted."""
    checked = []

    def checking(name, run):
        def wrapper(func):
            before = str(func)
            made = run(func)
            if not made:
                assert str(func) == before, f"{name} changed IR silently"
            checked.append(name)
            return made
        return wrapper

    for module in (constfold, dce, licm, simplifycfg, strength):
        monkeypatch.setattr(module, "run", checking(module.__name__, module.run))
    for name in ("propagate_copies", "local_cse"):
        monkeypatch.setattr(localopt, name, checking(name, getattr(localopt, name)))
    for source in SOURCES.values():
        Engine().compile(source)
    assert len(set(checked)) == 7


def test_stats_show_what_the_pass_manager_did(tmp_path, capsys):
    path = tmp_path / "loop.c"
    path.write_text(one_function(8))
    assert main(["run", str(path), "--stats"]) == 0
    err = capsys.readouterr().err
    runs = int(re.search(r"opt\.pass_runs\s+(\d+)", err).group(1))
    skips = int(re.search(r"opt\.pass_skips\s+(\d+)", err).group(1))
    assert runs > 0 and skips > 0
