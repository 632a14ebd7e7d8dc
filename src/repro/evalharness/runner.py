"""Experiment runner: builds, translates, executes, and caches results.

Every cell of every table in the paper's evaluation is a ratio of two
deterministic simulated executions, so results are cached aggressively:

* in memory for the lifetime of the process (pytest runs all benchmarks
  in one process);
* optionally on disk (``.bench_cache.json`` at the repository root),
  keyed by a hash of the package sources + workload + configuration, so
  editing any compiler/translator source invalidates stale numbers.

Every run's output is checked against the workload's independent Python
oracle — a configuration that produces wrong output can never contribute
a performance number.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.cache import TranslationCache
from repro.native import profiles
from repro.runtime.loader import load_module
from repro.workloads import suite

ARCHS = ("mips", "sparc", "ppc", "x86")


@dataclass(frozen=True)
class RunKey:
    workload: str
    arch: str  # "omnivm" for the reference interpreter
    profile: str  # name in repro.native.profiles.PROFILES ("interp" for VM)
    num_regs: int = 16


@dataclass
class RunResult:
    key: RunKey
    cycles: int
    instret: int
    omni_instret: int
    categories: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "workload": self.key.workload,
            "arch": self.key.arch,
            "profile": self.key.profile,
            "num_regs": self.key.num_regs,
            "cycles": self.cycles,
            "instret": self.instret,
            "omni_instret": self.omni_instret,
            "categories": self.categories,
        }

    @classmethod
    def from_json(cls, data: dict) -> "RunResult":
        key = RunKey(data["workload"], data["arch"], data["profile"],
                     data["num_regs"])
        return cls(key, data["cycles"], data["instret"],
                   data["omni_instret"], data["categories"])


def _package_hash() -> str:
    """Hash of the package sources: cache invalidation on any code edit."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Runner:
    """Runs experiment configurations with two-level caching."""

    def __init__(self, cache_path: str | os.PathLike | None = None):
        self._memory: dict[RunKey, RunResult] = {}
        self._disk: dict[str, dict] = {}
        #: shared content-addressed translation cache: one workload
        #: translated once per (arch, options) across the whole sweep
        self.translation_cache = TranslationCache(capacity=128)
        if cache_path is None:
            env = os.environ.get("REPRO_CACHE", "")
            if env == "off":
                self.cache_path = None
            else:
                self.cache_path = Path(env) if env else (
                    Path(__file__).resolve().parents[3] / ".bench_cache.json"
                )
        else:
            self.cache_path = Path(cache_path)
        self._stamp = _package_hash()
        self._load_disk()

    # -- disk cache -----------------------------------------------------------

    def _load_disk(self) -> None:
        if self.cache_path is None or not self.cache_path.exists():
            return
        try:
            payload = json.loads(self.cache_path.read_text())
        except (ValueError, OSError):
            return
        if payload.get("stamp") != self._stamp:
            return  # sources changed: everything stale
        self._disk = payload.get("results", {})

    def _save_disk(self) -> None:
        if self.cache_path is None:
            return
        payload = {"stamp": self._stamp, "results": self._disk}
        try:
            self.cache_path.write_text(json.dumps(payload))
        except OSError:
            pass

    @staticmethod
    def _disk_key(key: RunKey) -> str:
        return f"{key.workload}|{key.arch}|{key.profile}|{key.num_regs}"

    # -- execution ----------------------------------------------------------------

    def run(self, key: RunKey) -> RunResult:
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        disk_key = self._disk_key(key)
        if disk_key in self._disk:
            result = RunResult.from_json(self._disk[disk_key])
            self._memory[key] = result
            return result
        result = self._execute(key)
        self._memory[key] = result
        self._disk[disk_key] = result.to_json()
        self._save_disk()
        return result

    def _execute(self, key: RunKey) -> RunResult:
        program = suite.build(key.workload, num_regs=key.num_regs)
        omni = self.omni_instret(key.workload, key.num_regs)
        if key.arch == "omnivm":
            loaded = load_module(program)
            loaded.run()
            if not suite.check_output(key.workload, loaded.host.output_values()):
                raise AssertionError(
                    f"{key}: interpreter output mismatch"
                )
            count = loaded.vm.state.instret
            return RunResult(key, count, count, count)
        options = profiles.PROFILES[key.profile]
        module = load_module(program, key.arch, options,
                             cache=self.translation_cache)
        module.run()
        if not suite.check_output(key.workload, module.host.output_values()):
            raise AssertionError(
                f"{key}: translated output mismatch: "
                f"{module.host.output_values()[:5]}"
            )
        machine = module.machine
        return RunResult(key, machine.cycles, machine.instret, omni,
                         dict(machine.category_counts))

    def omni_instret(self, workload: str, num_regs: int = 16) -> int:
        """Dynamic OmniVM instruction count (Figure 1 denominator)."""
        key = RunKey(workload, "omnivm", "interp", num_regs)
        cached = self._memory.get(key)
        if cached is not None:
            return cached.instret
        disk_key = self._disk_key(key)
        if disk_key in self._disk:
            result = RunResult.from_json(self._disk[disk_key])
            self._memory[key] = result
            return result.instret
        program = suite.build(workload, num_regs=num_regs)
        loaded = load_module(program)
        loaded.run()
        if not suite.check_output(workload, loaded.host.output_values()):
            raise AssertionError(f"{workload}: interpreter output mismatch")
        count = loaded.vm.state.instret
        result = RunResult(key, count, count, count)
        self._memory[key] = result
        self._disk[disk_key] = result.to_json()
        self._save_disk()
        return result.instret

    # -- ratios ------------------------------------------------------------------

    def cycle_ratio(self, workload: str, arch: str, profile: str,
                    baseline_profile: str, num_regs: int = 16,
                    baseline_regs: int = 16) -> float:
        subject = self.run(RunKey(workload, arch, profile, num_regs))
        baseline = self.run(RunKey(workload, arch, baseline_profile,
                                   baseline_regs))
        return subject.cycles / baseline.cycles


#: Process-wide runner (shared by tables, benchmarks, tests).
_GLOBAL: Runner | None = None


def global_runner() -> Runner:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = Runner()
    return _GLOBAL
