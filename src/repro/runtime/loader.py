"""The Omniware module loader.

Loading a mobile module is the sequence the paper describes:

1. **verify** the module (structural checks on the OmniVM code:
   valid opcodes, in-segment branch targets — :mod:`repro.omnivm.verifier`);
2. build the module's segmented **address space** and copy in the code and
   data images;
3. either hand the module to the **reference interpreter** (the semantic
   oracle), or run the **load-time translator** for the host's processor,
   which inlines SFI checks and performs its cheap machine-dependent
   optimizations;
4. attach the **host services** with the export policy the host chose.

The public entry points return ready-to-run machines with a uniform
``run()``/``host`` interface so examples, tests and the benchmark harness
can treat every execution engine identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import metrics
from repro.cache import cache_key, cached_predecode
from repro.omnivm.interp import OmniVM
from repro.omnivm.jit import JitVM
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import Memory, standard_module_memory
from repro.omnivm.threaded import ThreadedVM, predecode_program
from repro.omnivm.verifier import verify_program
from repro.runtime import linker
from repro.runtime.host import Host, MachineAdapter
from repro.utils.bits import s32, u32

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache import TranslationCache

#: The machine each execution engine runs a module on (see ``engine=``
#: below).  ``"jit"`` (the default) is the trace-based superblock JIT
#: layered over the threaded engine; ``"legacy"`` is the reference
#: per-instruction loop.  :data:`repro.runtime.native_loader.MACHINES`
#: is the same table for the four native targets.
MACHINES = {"jit": JitVM, "threaded": ThreadedVM, "legacy": OmniVM}
ENGINES = tuple(MACHINES)


def machine_class(machines: dict, engine: str):
    """The class *machines* (one ISA's table) runs *engine* on."""
    try:
        return machines[engine]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {engine!r}; expected one of {ENGINES}"
        ) from None


class _OmniVMAdapter(MachineAdapter):
    """Adapts the reference interpreter to the host-services interface."""

    def __init__(self, vm: OmniVM):
        self.vm = vm
        self.memory = vm.memory

    def get_int_arg(self, index: int) -> int:
        return self.vm.state.regs[1 + index]

    def get_fp_arg(self, index: int) -> float:
        return self.vm.state.fregs[1 + index]

    def set_int_result(self, value: int) -> None:
        self.vm.state.regs[1] = u32(value)

    def set_fp_result(self, value: float) -> None:
        self.vm.state.fregs[1] = value

    def halt(self, code: int) -> None:
        self.vm.state.halted = True
        self.vm.state.exit_code = s32(code)

    def instret(self) -> int:
        return self.vm.state.instret


@dataclass
class LoadedModule:
    """A module loaded for reference (interpreted) execution."""

    program: LinkedProgram
    memory: Memory
    vm: OmniVM
    host: Host

    def run(self, entry: str | None = None) -> int:
        with metrics.stage("execute"):
            return self.vm.run(entry)


def load_for_interpretation(
    program: LinkedProgram,
    host: Host | None = None,
    verify: bool = True,
    fuel: int = 200_000_000,
    segment_size: int | None = None,
    engine: str = "jit",
    cache: "TranslationCache | None" = None,
) -> LoadedModule:
    """Load *program* into a fresh address space under the reference VM.

    ``engine`` selects the machine from :data:`MACHINES`: ``"jit"``
    (default) runs the tiering VM of :mod:`repro.omnivm.jit` — the
    threaded engine plus trace-based superblock compilation for hot
    blocks; ``"threaded"`` runs the predecoded threaded-code engine of
    :mod:`repro.omnivm.threaded` alone (block-level fuel accounting,
    observably identical results); ``"legacy"`` runs the original
    per-instruction dispatch loop.  With a ``cache``, the predecode
    artifact — and with it the JIT's heat and compiled superblocks — is
    reused across loads of the same program content.  Raises
    :class:`~repro.errors.QuotaExceeded` when the program does not fit
    *segment_size*.
    """
    vm_class = machine_class(MACHINES, engine)
    if verify:
        verify_program(program)
    memory = (linker.image_memory(program, segment_size)
              if getattr(program, "modules", None) else
              standard_module_memory(program.text_image,
                                     bytes(program.data_image),
                                     segment_size))
    host = host or Host()
    if vm_class is OmniVM:
        vm = OmniVM(program, memory, fuel=fuel)
    else:
        threaded = cached_predecode(
            cache, cache_key(program, "omnivm", None),
            lambda: predecode_program(program))
        vm = vm_class(program, memory, fuel=fuel, threaded=threaded)
    # The adapter is built from the machine the call passes in: one
    # captured here would close a vm -> hostcall -> adapter -> vm cycle
    # and keep the address space alive until a cyclic collection.
    vm.hostcall = lambda vm, index: host.hostcall(_OmniVMAdapter(vm), index)
    return LoadedModule(program, memory, vm, host)


def run_module(program: LinkedProgram, entry: str | None = None,
               host: Host | None = None,
               engine: str = "jit") -> tuple[int, Host]:
    """Convenience: load, run, and return (exit code, host)."""
    loaded = load_for_interpretation(program, host, engine=engine)
    code = loaded.run(entry)
    return code, loaded.host


#: Architecture names :func:`load_module` routes to the interpreter.
INTERPRETER_ARCHS = (None, "omnivm", "interp")


def load_module(
    program: LinkedProgram,
    arch: str | None = None,
    options=None,
    host: Host | None = None,
    verify: bool = True,
    fuel: int | None = None,
    segment_size: int | None = None,
    engine: str = "jit",
    cache: "TranslationCache | None" = None,
):
    """The one loader entry point: load *program* for *arch*.

    ``arch`` of ``None``/``"omnivm"``/``"interp"`` selects the reference
    interpreter (returning a :class:`LoadedModule`); any translator
    architecture name selects native execution (returning a
    :class:`~repro.runtime.native_loader.NativeModule`).  Both results
    expose the same ``run(entry)`` / ``host`` / ``memory`` interface, so
    call sites no longer special-case the interpreter.  *options* is
    ignored by the interpreter path; *fuel* of ``None`` applies each
    path's historical default (200M interpreted, 500M native).
    """
    if arch in INTERPRETER_ARCHS:
        return load_for_interpretation(
            program, host=host, verify=verify,
            fuel=200_000_000 if fuel is None else fuel,
            segment_size=segment_size, engine=engine, cache=cache,
        )
    from repro.runtime.native_loader import load_for_target

    return load_for_target(
        program, arch, options=options, host=host, verify=verify,
        fuel=500_000_000 if fuel is None else fuel,
        segment_size=segment_size, engine=engine, cache=cache,
    )
