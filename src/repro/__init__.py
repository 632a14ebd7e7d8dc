"""Omniware reproduction: efficient, language-independent mobile programs.

A from-scratch Python implementation of the system described in
Adl-Tabatabai, Langdale, Lucco & Wahbe, *Efficient and
Language-Independent Mobile Programs* (PLDI 1996): the OmniVM
software-defined computer architecture, compilers targeting it, software
fault isolation, load-time translators for four simulated processors,
and the runtime that hosts untrusted mobile modules.

Quick start::

    from repro import Engine

    engine = Engine(target="mips")              # SFI on, cache + metrics
    program = engine.compile('int main() { emit_int(42); return 0; }')
    code, module = engine.run(program)          # verify+translate+execute
    code, module = engine.run(program)          # warm: translation cached
    print(engine.stats_text())                  # per-stage timings etc.

The pre-Engine free functions still work and behave identically::

    from repro import compile_and_link, run_module, run_on_target, MOBILE_SFI

    program = compile_and_link(['int main() { emit_int(42); return 0; }'])
    code, host = run_module(program)            # reference interpreter
    code, native = run_on_target(program, "mips", MOBILE_SFI)  # translated

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro import metrics
from repro.cache import TranslationCache
from repro.compiler import CompileOptions, compile_and_link, compile_to_object
from repro.engine import Engine, RunConfig
from repro.errors import (
    AccessViolation,
    CompileError,
    CrossModuleViolation,
    DeadlineExceeded,
    DuplicateExportError,
    DynamicLinkError,
    HostCallError,
    ModuleCycleError,
    ModuleRevokedError,
    QuotaExceeded,
    ReproError,
    SandboxViolation,
    ServiceOverloaded,
    UnknownArchitectureError,
    UnresolvedImportError,
    VerifyError,
)
from repro.metrics import MetricsCollector
from repro.lang2.compiler import compile_minilisp
from repro.native.profiles import (
    MOBILE_NOSFI,
    MOBILE_SFI,
    NATIVE_CC,
    NATIVE_GCC,
    PROFILES,
)
from repro.omnivm.asmparser import assemble
from repro.omnivm.linker import LinkedProgram, link
from repro.omnivm.objfile import ObjectModule
from repro.runtime.host import Host
from repro.runtime.linker import (
    LinkedImage,
    ModuleRegistry,
    dynamic_link,
)
from repro.runtime.loader import (
    load_for_interpretation,
    load_module,
    run_module,
)
from repro.runtime.native_loader import load_for_target, run_on_target
from repro.service import (
    FaultInjector,
    ModuleHost,
    ModuleRequest,
    ModuleResponse,
    RequestQuota,
)
from repro.service_router import ShardedModuleHost
from repro.translators import ARCHITECTURES, TranslationOptions, translate

__version__ = "1.0.0"

__all__ = [
    "ARCHITECTURES",
    "AccessViolation",
    "CompileError",
    "CompileOptions",
    "CrossModuleViolation",
    "DeadlineExceeded",
    "DuplicateExportError",
    "DynamicLinkError",
    "Engine",
    "FaultInjector",
    "Host",
    "HostCallError",
    "LinkedImage",
    "LinkedProgram",
    "MOBILE_NOSFI",
    "MOBILE_SFI",
    "MetricsCollector",
    "ModuleCycleError",
    "ModuleHost",
    "ModuleRegistry",
    "ModuleRequest",
    "ModuleResponse",
    "ModuleRevokedError",
    "NATIVE_CC",
    "NATIVE_GCC",
    "ObjectModule",
    "PROFILES",
    "QuotaExceeded",
    "ReproError",
    "RequestQuota",
    "RunConfig",
    "SandboxViolation",
    "ServiceOverloaded",
    "ShardedModuleHost",
    "TranslationCache",
    "TranslationOptions",
    "UnknownArchitectureError",
    "UnresolvedImportError",
    "VerifyError",
    "assemble",
    "compile_and_link",
    "compile_minilisp",
    "compile_to_object",
    "dynamic_link",
    "link",
    "load_for_interpretation",
    "load_for_target",
    "load_module",
    "metrics",
    "run_module",
    "run_on_target",
    "translate",
]
