"""Loading mobile modules for translated-native execution.

The native-side counterpart of :mod:`repro.runtime.loader`: build the
address space, verify the module, run the load-time translator for the
chosen architecture, install the runtime's dedicated-register values
(SFI masks, global pointer, stack pointer), attach the host services,
and return a ready machine.

Also provides :func:`run_on_target`, the one-call API used by tests and
the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import metrics
from repro.cache import cache_key, cached_predecode, cached_translation
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import Memory, standard_module_memory
from repro.omnivm.verifier import verify_program
from repro.runtime import linker
from repro.runtime.host import Host, MachineAdapter
from repro.runtime.loader import machine_class
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.targets.base import TargetMachine
from repro.targets.jit import JitTargetMachine
from repro.targets.threaded import ThreadedTargetMachine
from repro.translators import TranslatedModule, TranslationOptions, translate
from repro.translators.base import initial_register_state
from repro.utils.bits import s32, u32

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import TranslationCache

#: The machine each execution engine runs a translated module on: the
#: native counterpart of :data:`repro.runtime.loader.MACHINES`.
MACHINES = {"jit": JitTargetMachine, "threaded": ThreadedTargetMachine,
            "legacy": TargetMachine}


class _TargetAdapter(MachineAdapter):
    """Reads host-call arguments out of the target's mapped registers."""

    def __init__(self, machine: TargetMachine):
        self.machine = machine
        self.memory = machine.memory
        self._int_map = machine.spec.int_map
        self._fp_map = machine.spec.fp_map

    def get_int_arg(self, index: int) -> int:
        return self.machine.regs[self._int_map[1 + index]]

    def get_fp_arg(self, index: int) -> float:
        return self.machine.fregs[self._fp_map[1 + index]]

    def set_int_result(self, value: int) -> None:
        self.machine.regs[self._int_map[1]] = u32(value)

    def set_fp_result(self, value: float) -> None:
        self.machine.fregs[self._fp_map[1]] = value

    def halt(self, code: int) -> None:
        self.machine.halt(s32(code))

    def instret(self) -> int:
        return self.machine.instret


@dataclass
class NativeModule:
    """A module translated and loaded for one target architecture."""

    program: LinkedProgram
    translated: TranslatedModule
    machine: TargetMachine
    memory: Memory
    host: Host

    def run(self, entry: str | None = None) -> int:
        entry_native = self.translated.entry_native
        if entry is not None:
            from repro.omnivm.memory import CODE_BASE
            from repro.omnivm.isa import INSTR_SIZE

            start, _ = self.program.function_ranges[entry]
            entry_native = self.translated.omni_to_native[
                CODE_BASE + start * INSTR_SIZE
            ]
        with metrics.stage("execute"):
            return self.machine.run(entry_native)


def load_for_target(
    program: LinkedProgram,
    arch: str,
    options: TranslationOptions | None = None,
    host: Host | None = None,
    fuel: int = 500_000_000,
    memory: Memory | None = None,
    cache: "TranslationCache | None" = None,
    segment_size: int | None = None,
    engine: str = "jit",
    policy: SandboxPolicy | None = None,
) -> NativeModule:
    """Translate *program* for *arch* and prepare it for execution.

    ``policy`` overrides the sandbox policy for a single-program load
    (e.g. the padded variant for the padding ablation); multi-module
    images carry per-module policies in their layouts and translate
    under those.  With a :class:`~repro.cache.TranslationCache`, loads
    go through its admission rule (:func:`~repro.cache.cached_translation`):
    a content-addressed hit returns the previously verified translation
    and skips module verification, translation, and SFI verification
    entirely, and a load under a non-default policy bypasses the cache.
    A miss verifies the module, translates it and SFI-verifies the
    translation; a failure of either verifier raises
    :class:`~repro.errors.VerifyError` and stores nothing.

    ``engine`` selects the simulator from :data:`MACHINES`:
    ``"legacy"`` runs the original per-instruction loop; ``"threaded"``
    runs the predecoded block-dispatch engine of
    :mod:`repro.targets.threaded` (same cycles, registers, and faults;
    fuel charged per block); ``"jit"`` (default) adds the native
    superblock JIT tier of :mod:`repro.targets.jit` on top of the
    threaded engine.  Threaded predecode artifacts and compiled
    superblocks are reused through the cache's in-memory side table.
    Raises :class:`~repro.errors.QuotaExceeded` when the program does
    not fit *segment_size*, before any verification or translation.
    """
    machine_cls = machine_class(MACHINES, engine)
    policy = policy or DEFAULT_POLICY
    is_image = bool(getattr(program, "modules", None))
    # The address space comes first: mapping it costs little, and a
    # module that does not fit is refused before it is verified,
    # translated or admitted to the cache.
    if memory is None:
        memory = (linker.image_memory(program, segment_size) if is_image
                  else standard_module_memory(program.text_image,
                                              program.data_image,
                                              segment_size))
    key = cache_key(program, arch, options)
    if is_image:
        # Multi-module image: translate_image verifies the whole image
        # (including the cross-module export checks), then translates
        # per module — each unit is content-addressed in the cache and
        # SFI-verified under its own policy, so only the splice is paid
        # per load.  The spliced whole is deliberately *not* cached: its
        # chunks are, and those are what module revocation invalidates.
        translated = linker.translate_image(program, arch, options,
                                            cache=cache)
    else:
        def produce() -> TranslatedModule:
            from repro.sfi.verifier import verify_sfi

            verify_program(program)
            produced = translate(program, arch, options, policy=policy)
            # Run the CFG verifier on every translation, not just SFI
            # ones: without an SFI sandbox claim it enforces nothing,
            # but it still recovers the CFG (catching malformed
            # translator output early) and feeds the verify.sfi.*
            # metrics uniformly.
            verify_sfi(produced, policy=policy)
            return produced

        translated = cached_translation(cache, key, produce, policy=policy)
    host = host or Host()
    args = (translated.spec, translated.instrs, memory,
            translated.omni_to_native)
    if machine_cls is TargetMachine:
        machine = TargetMachine(*args, fuel=fuel)
    else:
        from repro.targets.threaded import predecode_native

        threaded = cached_predecode(
            cache, key,
            lambda: predecode_native(translated.spec, translated.instrs),
            policy=policy)
        machine = machine_cls(*args, fuel=fuel, threaded=threaded)
    # Built per call from the machine passed in, like the interpreter's
    # adapter: a captured one would keep the address space in a cycle.
    machine.hostcall = lambda m, index: host.hostcall(_TargetAdapter(m), index)
    initial_register_state(translated.spec, machine)
    return NativeModule(program, translated, machine, memory, host)


def run_on_target(
    program: LinkedProgram,
    arch: str,
    options: TranslationOptions | None = None,
    host: Host | None = None,
    cache: "TranslationCache | None" = None,
    engine: str = "jit",
    policy: SandboxPolicy | None = None,
) -> tuple[int, NativeModule]:
    """Translate, load, run; returns (exit code, loaded module)."""
    module = load_for_target(program, arch, options, host, cache=cache,
                             engine=engine, policy=policy)
    code = module.run()
    return code, module
