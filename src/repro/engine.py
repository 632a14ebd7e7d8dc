"""The unified Engine facade over the mobile-code pipeline.

Historically callers juggled three free functions —
``compile_and_link`` / ``load_for_target`` / ``run_on_target`` — plus a
bag of options objects.  :class:`Engine` packages the whole
compile → verify → translate → execute pipeline behind one object that
owns the three cross-cutting concerns the free functions could not:

* a **target** and **profile** chosen once instead of threaded through
  every call (``target=None`` means the reference interpreter, exactly
  as a host without a translator would run the module);
* a content-addressed **translation cache**
  (:class:`~repro.cache.TranslationCache`) shared across every load, so
  re-running a module skips verification and translation entirely;
* a **metrics collector** (:class:`~repro.metrics.MetricsCollector`)
  that accumulates per-stage wall times, instruction counts, SFI check
  counts, and expansion ratios across everything the engine does.

Quick start::

    from repro import Engine, MOBILE_SFI

    engine = Engine(target="mips", profile=MOBILE_SFI)
    program = engine.compile("int main() { emit_int(42); return 0; }")
    code, module = engine.run(program)       # translated, SFI on
    code, module = engine.run(program)       # warm: served from cache
    print(engine.stats_text())               # timings, counters, ratios

:meth:`Engine.load` and :meth:`Engine.run` go through the free
loaders (:func:`~repro.runtime.loader.load_module`);
:meth:`Engine.translate` makes its own verify, translate and SFI-verify
calls and shares the cache's admission rule
(:func:`repro.cache.cached_translation`) with them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro import metrics
from repro.cache import TranslationCache, cache_key, cached_translation
from repro.compiler import CompileOptions, compile_and_link, compile_to_object
from repro.native.profiles import MOBILE_SFI, PROFILES
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.objfile import ObjectModule
from repro.runtime.host import Host
from repro.runtime.linker import (
    LinkedImage,
    ModuleDef,
    ModuleRegistry,
    dynamic_link,
)
from repro.runtime.loader import (
    MACHINES,
    LoadedModule,
    load_module,
    machine_class,
)
from repro.runtime.native_loader import NativeModule
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.translators import ARCHITECTURES, translate
from repro.translators.base import TranslatedModule, TranslationOptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.service import ModuleHost

#: Pseudo-target naming the reference interpreter.
INTERPRETER = "omnivm"


@dataclass(frozen=True)
class RunConfig:
    """How to execute a load/run: everything that is not *what* to run.

    Passed as ``config=`` to :meth:`Engine.load` / :meth:`Engine.run`.
    ``None`` fields mean "the engine's / loader's default".
    """

    fuel: int | None = None
    segment_size: int | None = None
    engine: str | None = None
    verify: bool = True
    host: Host | None = None


class Engine:
    """One object fronting the compile → load → translate → run pipeline.

    Parameters
    ----------
    target:
        Default execution target: one of
        :data:`~repro.translators.ARCHITECTURES`, ``"omnivm"``, or
        ``None`` (both mean the reference interpreter).  Every method
        taking a ``target`` argument can override it per call.
    profile:
        Default :class:`TranslationOptions` — an options value or a
        profile name from :data:`repro.native.profiles.PROFILES`
        (e.g. ``"mobile-sfi"``).  Defaults to :data:`MOBILE_SFI`.
    cache:
        A :class:`TranslationCache` to share, ``None`` for a fresh
        private cache, or ``False`` to disable caching.
    compile_options:
        Default :class:`CompileOptions` for :meth:`compile`.
    collect_metrics:
        When True (default) the engine owns a
        :class:`~repro.metrics.MetricsCollector` active during every
        engine operation; see :meth:`stats`.
    execution_engine:
        Default execution loop: ``"jit"`` (the default — the superblock
        JIT tier on the interpreter and on all four native targets),
        ``"threaded"`` (predecoded threaded-code engine with block-level
        fuel accounting), or ``"legacy"`` (per-instruction dispatch).
        :meth:`load` and :meth:`run` accept a per-call ``engine``
        override via :class:`RunConfig`.
    """

    def __init__(
        self,
        target: str | None = None,
        profile: TranslationOptions | str = MOBILE_SFI,
        cache: "TranslationCache | None | bool" = None,
        compile_options: CompileOptions | None = None,
        collect_metrics: bool = True,
        execution_engine: str = "jit",
        registry: ModuleRegistry | None = None,
    ):
        machine_class(MACHINES, execution_engine)
        self.execution_engine = execution_engine
        self.target = target
        if isinstance(profile, str):
            profile = PROFILES[profile]
        self.profile = profile
        if cache is False:
            self.cache: TranslationCache | None = None
        elif cache is None or cache is True:
            self.cache = TranslationCache()
        else:
            self.cache = cache
        self.compile_options = compile_options or CompileOptions()
        self.metrics: metrics.MetricsCollector | None = (
            metrics.MetricsCollector() if collect_metrics else None
        )
        self.registry = registry if registry is not None else ModuleRegistry()

    # -- internals ------------------------------------------------------------

    def _collecting(self):
        if self.metrics is None:
            return nullcontext()
        return metrics.collect(self.metrics)

    def _resolve_target(self, target: str | None) -> str:
        target = target if target is not None else self.target
        return INTERPRETER if target is None else target

    def _resolve_options(
        self, options: TranslationOptions | str | None
    ) -> TranslationOptions:
        if options is None:
            return self.profile
        if isinstance(options, str):
            return PROFILES[options]
        return options

    # -- pipeline stages ------------------------------------------------------

    def compile(
        self,
        sources: str | Sequence[str],
        options: CompileOptions | None = None,
        entry_symbol: str = "main",
        extra_objects: list[ObjectModule] | None = None,
    ) -> LinkedProgram:
        """Compile MiniC translation unit(s) and link them into a
        mobile module (accepts one source string or a sequence)."""
        if isinstance(sources, str):
            sources = [sources]
        with self._collecting():
            return compile_and_link(
                list(sources),
                options or self.compile_options,
                entry_symbol=entry_symbol,
                extra_objects=extra_objects,
            )

    def translate(
        self,
        program: LinkedProgram,
        target: str | None = None,
        options: TranslationOptions | str | None = None,
    ) -> TranslatedModule:
        """Load-time translation for *target* (cache-aware).

        Raises :class:`~repro.errors.UnknownArchitectureError` when the
        resolved target has no translator (including ``"omnivm"`` — the
        interpreter is not a translation target).
        """
        arch = self._resolve_target(target)
        opts = self._resolve_options(options)
        from repro.omnivm.verifier import verify_program

        with self._collecting():
            if getattr(program, "modules", None):
                # Multi-module image: verified once, then per-module
                # translation units, individually cached and
                # SFI-verified, then spliced (see
                # repro.runtime.linker.translate_image).
                from repro.runtime.linker import translate_image

                return translate_image(program, arch, opts,
                                       cache=self.cache)
            from repro.sfi.verifier import verify_sfi

            def produce() -> TranslatedModule:
                verify_program(program)
                translated = translate(program, arch, opts)
                verify_sfi(translated)
                return translated

            return cached_translation(self.cache,
                                      cache_key(program, arch, opts),
                                      produce)

    def load(
        self,
        program: LinkedProgram,
        target: str | None = None,
        options: TranslationOptions | str | None = None,
        config: RunConfig | None = None,
    ) -> LoadedModule | NativeModule:
        """Verify and load *program* for execution: a
        :class:`NativeModule` for a translated target, a
        :class:`LoadedModule` for the interpreter.

        *config* carries the execution parameters (:class:`RunConfig`:
        fuel, segment size, execution engine, verification toggle, host
        services).
        """
        config = config or RunConfig()
        arch = self._resolve_target(target)
        with self._collecting():
            return load_module(
                program,
                None if arch == INTERPRETER else arch,
                options=self._resolve_options(options),
                host=config.host,
                verify=config.verify,
                fuel=config.fuel,
                segment_size=config.segment_size,
                engine=config.engine or self.execution_engine,
                cache=self.cache,
            )

    def run(
        self,
        program: "LinkedProgram | str | Sequence[str]",
        target: str | None = None,
        options: TranslationOptions | str | None = None,
        entry: str | None = None,
        config: RunConfig | None = None,
    ) -> tuple[int, LoadedModule | NativeModule]:
        """Compile (when given source text), load, and execute; returns
        ``(exit code, loaded module)``.  The module exposes ``.host``
        for the program's emitted output.

        *config* is forwarded to :meth:`load`, so a bounded (or
        unverified, or legacy-loop) run no longer needs to hand-roll the
        compile/load/run sequence.
        """
        if not isinstance(program, LinkedProgram):
            program = self.compile(program)
        module = self.load(program, target, options, config=config)
        with self._collecting():
            code = module.run(entry)
        return code, module

    # -- dynamic linking ------------------------------------------------------

    def register_module(
        self,
        name: str,
        module: "ObjectModule | str",
        policy: SandboxPolicy = DEFAULT_POLICY,
    ) -> ModuleDef:
        """Register (or reload) a named module in the engine's
        :class:`~repro.runtime.linker.ModuleRegistry`.

        *module* is an :class:`~repro.omnivm.objfile.ObjectModule` or
        MiniC source text (compiled as one translation unit; ``extern``
        declarations become imports).  Reloading bumps the module's
        epoch and drops the previous definition's cached translation
        chunks, so the next link translates the new content while other
        modules keep hitting the cache.
        """
        if isinstance(module, str):
            options = replace(self.compile_options, module_name=name)
            with self._collecting():
                module = compile_to_object(module, options)
        previous = self.registry.lookup(name)
        definition = self.registry.register(name, module, policy)
        if previous is not None:
            self._drop_chunks(previous)
        return definition

    def revoke_module(self, name: str) -> ModuleDef:
        """Revoke *name*: new links against it fail with
        :class:`~repro.errors.ModuleRevokedError`, its cached
        translation chunks are dropped, and in-flight executions of
        already-linked images run to completion (their code was spliced
        at link time)."""
        definition = self.registry.revoke(name)
        self._drop_chunks(definition)
        return definition

    def _drop_chunks(self, definition: ModuleDef) -> None:
        if self.cache is None:
            return
        for digest in definition.chunk_digests:
            self.cache.invalidate(digest=digest)
        definition.chunk_digests.clear()

    def link_modules(
        self,
        modules: Sequence[str],
        entry: str = "main",
        name: str | None = None,
    ) -> LinkedImage:
        """Dynamically link registered modules (plus their import
        closure) into a :class:`~repro.runtime.linker.LinkedImage`."""
        with self._collecting():
            return dynamic_link(self.registry, list(modules),
                                entry_symbol=entry, name=name)

    def load_program(
        self,
        modules: Sequence["str | ObjectModule"],
        entry: str = "main",
        target: str | None = None,
        options: TranslationOptions | str | None = None,
        config: RunConfig | None = None,
    ) -> LoadedModule | NativeModule:
        """Link a multi-module program and load it for execution.

        *modules* mixes registered module names and
        :class:`~repro.omnivm.objfile.ObjectModule` values (the latter
        are registered under their object name first).  The listed
        modules are the link roots; imports pull in the rest of the
        closure from the registry.  The returned module runs with
        cross-module calls resolved through SFI-checked trampolines.
        """
        roots: list[str] = []
        for module in modules:
            if isinstance(module, ObjectModule):
                self.register_module(module.name, module)
                roots.append(module.name)
            else:
                roots.append(module)
        image = self.link_modules(roots, entry=entry)
        return self.load(image, target, options, config=config)

    def serve(self, processes: int | None = None, **kwargs):
        """Create a module-hosting service fronting this engine.

        With ``processes=None`` (default): a threaded
        :class:`~repro.service.ModuleHost` — worker threads,
        per-request deadlines and quotas, retry with backoff, and
        interpreter fallback.  With ``processes=N``: a
        :class:`~repro.service_router.ShardedModuleHost` routing over
        *N* worker processes with consistent-hash cache affinity and
        identical request/response semantics (``workers=`` then means
        threads *per process*).  Remaining keyword arguments are
        forwarded to the chosen host's constructor.  Use as a context
        manager (``with engine.serve(workers=4) as host:``) or call
        ``start()`` / ``stop()`` explicitly."""
        if processes is not None:
            from repro.service_router import ShardedModuleHost

            return ShardedModuleHost(self, processes=processes, **kwargs)
        from repro.service import ModuleHost

        return ModuleHost(self, **kwargs)

    # -- measurement ----------------------------------------------------------

    def stats(self) -> dict:
        """Accumulated pipeline metrics plus cache counters as a
        JSON-ready dict."""
        payload: dict = (
            self.metrics.to_dict() if self.metrics is not None
            else {"counters": {}, "stage_seconds": {}, "stage_calls": {}}
        )
        if self.cache is not None:
            payload["cache"] = self.cache.stats().to_dict()
            payload["cache_entries"] = len(self.cache)
        return payload

    def stats_text(self) -> str:
        """Human-readable metrics report (the CLI's ``--stats`` body)."""
        lines = []
        if self.metrics is not None:
            lines.append(self.metrics.render())
        if self.cache is not None:
            stats = self.cache.stats()
            lines.append(
                f"translation cache: {stats.hits} hits "
                f"({stats.disk_hits} from disk), {stats.misses} misses, "
                f"{stats.evictions} evictions, {len(self.cache)} resident; "
                f"predecode {stats.predecode_hits} hits, "
                f"{stats.predecode_misses} misses"
            )
        return "\n".join(lines)

    def reset_stats(self) -> None:
        if self.metrics is not None:
            self.metrics.reset()


__all__ = ["ARCHITECTURES", "Engine", "INTERPRETER", "RunConfig"]
