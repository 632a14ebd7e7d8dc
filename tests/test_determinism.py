"""Determinism guarantees: every layer is bit-reproducible.

The benchmark harness's cache and the paper-vs-measured comparisons are
only meaningful if repeated builds and runs are identical; these tests
pin that property at each layer.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.compiler import CompileOptions, compile_to_object
from repro.native.profiles import MOBILE_SFI
from repro.omnivm.linker import link
from repro.runtime.loader import run_module
from repro.runtime.native_loader import run_on_target

SOURCE = """
int work(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += i * i + host_rand();
    return s;
}
int main() { emit_int(work(25)); return 0; }
"""


def build():
    return compile_to_object(SOURCE, CompileOptions(module_name="det"))


class TestBuildDeterminism:
    def test_object_bytes_identical(self):
        assert build().to_bytes() == build().to_bytes()

    def test_linked_image_identical(self):
        a = link([build()])
        b = link([build()])
        assert a.text_image == b.text_image
        assert bytes(a.data_image) == bytes(b.data_image)
        assert a.symbols == b.symbols

    def test_translation_identical(self):
        from repro.translators import translate

        program = link([build()])
        first = translate(program, "mips", MOBILE_SFI)
        second = translate(program, "mips", MOBILE_SFI)
        assert [str(i) for i in first.instrs] == [str(i) for i in second.instrs]
        assert first.omni_to_native == second.omni_to_native


class TestHashSeedIndependence:
    """Compiled code must not depend on ``PYTHONHASHSEED``: no pass may
    let the iteration order of a set or dict of strings shape it."""

    SCRIPT = (
        "import hashlib\n"
        "from repro.workloads import suite\n"
        "for name in suite.WORKLOAD_NAMES:\n"
        "    image = bytes(suite.build(name).text_image)\n"
        "    print(name, hashlib.sha256(image).hexdigest())\n"
    )

    def test_spec_kernels_compile_alike_under_two_hash_seeds(self):
        src = Path(__file__).resolve().parents[1] / "src"
        images = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")])))
            done = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=300, check=True)
            images.append(done.stdout)
        assert len(images[0].splitlines()) == 4
        assert images[0] == images[1]


class TestRunDeterminism:
    def test_interpreter_runs_identical(self):
        program = link([build()])
        runs = []
        for _ in range(2):
            _code, host = run_module(program)
            runs.append(host.output_values())
        assert runs[0] == runs[1]

    def test_cycle_counts_identical(self):
        program = link([build()])
        cycles = []
        for _ in range(2):
            _code, module = run_on_target(program, "ppc", MOBILE_SFI)
            cycles.append((module.machine.cycles, module.machine.instret,
                           dict(module.machine.category_counts)))
        assert cycles[0] == cycles[1]

    def test_host_rng_is_part_of_the_determinism(self):
        # host_rand is a fixed-seed LCG per Host instance, so two fresh
        # hosts see the same stream.
        program = link([build()])
        _c1, h1 = run_module(program)
        _c2, h2 = run_module(program)
        assert h1.output_values() == h2.output_values()
