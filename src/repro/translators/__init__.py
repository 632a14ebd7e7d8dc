"""Translator registry: architecture name -> (spec factory, translator)."""

from __future__ import annotations

from repro.errors import UnknownArchitectureError
from repro.sfi.policy import DEFAULT_POLICY
from repro.targets import mips as mips_target
from repro.targets import ppc as ppc_target
from repro.targets import sparc as sparc_target
from repro.targets import x86 as x86_target
from repro.targets.base import TargetSpec
from repro.translators.base import (
    BaseTranslator,
    TranslatedModule,
    TranslationOptions,
)
from repro.translators.condcode import ConditionCodeTranslator
from repro.translators.mips import MipsTranslator
from repro.translators.x86 import X86Translator

ARCHITECTURES = ("mips", "sparc", "ppc", "x86")

_REGISTRY = {
    "mips": (mips_target.spec, MipsTranslator),
    "sparc": (sparc_target.spec, ConditionCodeTranslator),
    "ppc": (ppc_target.spec, ConditionCodeTranslator),
    "x86": (x86_target.spec, X86Translator),
}


def _lookup(arch: str):
    """Single point of registry resolution: every unknown-architecture
    report in the package comes from here."""
    try:
        return _REGISTRY[arch]
    except (KeyError, TypeError):
        raise UnknownArchitectureError(arch, ARCHITECTURES) from None


def target_spec(arch: str,
                options: TranslationOptions | None = None) -> TargetSpec:
    """Fresh TargetSpec for *arch*, timed as code made under *options*
    runs: the spec every translation carries.

    Raises :class:`~repro.errors.UnknownArchitectureError` (a
    :class:`KeyError` subclass) on unknown names.
    """
    spec = _lookup(arch)[0]()
    if arch == "ppc" and options is not None \
            and options.native_profile == "cc":
        # XLC's aggressive global instruction scheduling hides the 601's
        # multi-cycle compare latency (the paper singles this out as the
        # PPC cc compiler's main edge); model it as fully hidden.
        spec.timing.cmp_latency = 1
    return spec


def make_translator(arch: str,
                    options: TranslationOptions | None = None,
                    policy=None) -> BaseTranslator:
    spec_factory, translator_cls = _lookup(arch)
    return translator_cls(spec_factory(), options, policy or DEFAULT_POLICY)


def translate(program, arch: str,
              options: TranslationOptions | None = None,
              policy=None) -> TranslatedModule:
    """Translate a linked OmniVM program for *arch*.

    *policy* optionally overrides the sandbox policy the emitted SFI
    sequences are checked against (per-module policies in dynamic
    links); ``None`` keeps each translator's default.

    The translator schedules for the ISA's own latencies; the module it
    returns carries :func:`target_spec` for *options*, the timing its
    code runs under."""
    translated = make_translator(arch, options, policy).translate(program)
    translated.spec = target_spec(arch, options)
    return translated


__all__ = [
    "ARCHITECTURES",
    "BaseTranslator",
    "TranslatedModule",
    "TranslationOptions",
    "make_translator",
    "target_spec",
    "translate",
]
