"""Command-line toolchain: the Omniware developer tools as one binary.

Usage (also via ``python -m repro``):

.. code-block:: none

    omnicc compile  prog.c [-o prog.oof] [-O{0,1,2}] [--lisp]
    omnicc link     a.oof b.oof [-o prog.oom]
    omnicc run      prog.c|prog.oom [--arch mips|sparc|ppc|x86|omnivm]
                    [--link lib.c]... [--no-sfi] [--cycles] [--stats]
    omnicc stats    prog.c|prog.oom [--arch all|mips|...] [--json]
    omnicc disasm   prog.oom [--function main]
    omnicc asm      prog.s [-o prog.oof]
    omnicc bench    [--table 1|2|3|4|5|6] [--figure 1]
    omnicc difftest [--count N] [--seed S] [--targets mips,ppc]
                    [--json] [--no-minimize] [--stats]
                    [--sfi [--mutants N]]
    omnicc sfi-check [--arch mips,ppc] [--json]
    omnicc serve    --requests reqs.json [--workers N] [--processes N]
                    [--deadline SECONDS] [--json] [--stats]

``compile`` produces an Omniware object file; ``link`` produces a mobile
module; ``run`` executes on the reference VM or a translated target
(with SFI by default, exactly as a host would); ``bench`` prints a
reproduced table from the paper; ``difftest`` cross-executes seeded
random programs on the interpreter and every target simulator and
reports any semantic divergence (exit status 1 if one is found) — with
``--sfi`` it instead fuzzes the SFI verifier by mutating verified
translations with sandbox-escape mutations, reporting the kill-rate
(exit status 1 on any surviving unsafe mutant or overtight rejection);
``serve`` drives a batch of requests through the concurrent
:class:`~repro.service.ModuleHost` (worker pool, deadlines, quotas,
interpreter fallback) — the service layer's benchmarking entry point.

``run --link lib.c`` dynamically links the main module against each
``--link`` library (per-module SFI policies, cross-module calls through
checked trampolines); ``serve`` request specs can likewise
``{"register": name, ...}`` / ``{"revoke": name}`` modules and run
``{"modules": [roots]}`` requests against the host's registry.  Dynamic
link failures exit with distinct statuses: unresolved import 4, import
cycle 5, revoked module 6, cross-module violation 7, duplicate export 8.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import metrics
from repro.compiler import CompileOptions, compile_to_object
from repro.errors import (
    CrossModuleViolation,
    DuplicateExportError,
    ModuleCycleError,
    ModuleRevokedError,
    ReproError,
    UnresolvedImportError,
)
from repro.lang2.compiler import compile_minilisp
from repro.omnivm.asmparser import assemble
from repro.omnivm.disasm import disassemble_program
from repro.omnivm.linker import LinkedProgram, link
from repro.omnivm.objfile import ObjectModule
from repro.runtime.loader import ENGINES, run_module
from repro.runtime.native_loader import run_on_target
from repro.translators import ARCHITECTURES, TranslationOptions


def _load_objects(paths: list[str]) -> list[ObjectModule]:
    return [ObjectModule.from_bytes(Path(p).read_bytes()) for p in paths]


def _object_from_path(path: str, opt_level: int) -> ObjectModule:
    """One translation unit (NOT linked): a .c/.lisp/.s source or a
    .oof/.oom object file, for dynamic-link registration."""
    data = Path(path).read_bytes()
    if path.endswith((".oof", ".oom")):
        return ObjectModule.from_bytes(data)
    text = data.decode("utf-8")
    if path.endswith((".lisp", ".ml2")):
        return compile_minilisp(text, module_name=Path(path).stem)
    if path.endswith(".s"):
        return assemble(text, Path(path).stem)
    return compile_to_object(text, CompileOptions(
        opt_level=opt_level, module_name=Path(path).stem))


def _program_from_path(path: str, opt_level: int) -> LinkedProgram:
    """Accept a .c/.lisp/.s source, a .oof object, or a .oom module."""
    data = Path(path).read_bytes()
    if path.endswith(".oom"):
        # A linked module is shipped as its object serialization here.
        return link([ObjectModule.from_bytes(data)], name=path)
    if path.endswith(".oof"):
        return link([ObjectModule.from_bytes(data)], name=path)
    text = data.decode("utf-8")
    if path.endswith((".lisp", ".ml2")):
        return link([compile_minilisp(text, module_name=Path(path).stem)])
    if path.endswith(".s"):
        return link([assemble(text, Path(path).stem)])
    obj = compile_to_object(text, CompileOptions(
        opt_level=opt_level, module_name=Path(path).stem))
    return link([obj], name=path)


def cmd_compile(args: argparse.Namespace) -> int:
    text = Path(args.source).read_text()
    if args.lisp or args.source.endswith((".lisp", ".ml2")):
        obj = compile_minilisp(text, module_name=Path(args.source).stem)
    else:
        obj = compile_to_object(text, CompileOptions(
            opt_level=args.opt, module_name=Path(args.source).stem))
    out = args.output or (Path(args.source).stem + ".oof")
    Path(out).write_bytes(obj.to_bytes())
    print(f"{out}: {len(obj.text)} OmniVM instructions, "
          f"{len(obj.data)} data bytes, {len(obj.symbols)} symbols")
    return 0


def cmd_asm(args: argparse.Namespace) -> int:
    obj = assemble(Path(args.source).read_text(), Path(args.source).stem)
    out = args.output or (Path(args.source).stem + ".oof")
    Path(out).write_bytes(obj.to_bytes())
    print(f"{out}: {len(obj.text)} instructions")
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    objects = _load_objects(args.objects)
    program = link(objects, name=args.output or "a.oom",
                   entry_symbol=args.entry)
    # A linked module round-trips through one merged object.
    merged = ObjectModule(program.name)
    merged.text = program.instrs
    merged.data = bytes(program.data_image)
    for name, address in program.symbols.items():
        from repro.omnivm.memory import CODE_BASE, DATA_BASE

        if address >= DATA_BASE:
            merged.define(name, "data", address - DATA_BASE)
        else:
            merged.define(name, "text", address - CODE_BASE)
    out = args.output or "a.oom"
    Path(out).write_bytes(merged.to_bytes())
    print(f"{out}: {len(program.instrs)} instructions, "
          f"entry {program.entry_symbol!r}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    collector = metrics.MetricsCollector()
    with metrics.collect(collector):
        if args.link:
            code, module = _run_linked(args)
            sys.stdout.write(module.host.output_text())
            if args.cycles:
                machine = getattr(module, "machine", None)
                detail = (f" instructions={machine.instret} "
                          f"cycles={machine.cycles}" if machine else "")
                print(f"\n[{args.arch}] exit={code}{detail} "
                      f"modules={len(module.program.modules)}",
                      file=sys.stderr)
            if args.stats:
                print(f"\n[{args.arch}] pipeline stats\n"
                      f"{collector.render()}", file=sys.stderr)
            return code & 0xFF
        program = _program_from_path(args.module, args.opt)
        if args.arch == "omnivm":
            code, host = run_module(program, engine=args.engine)
            sys.stdout.write(host.output_text())
            if args.cycles:
                print(f"\n[omnivm] exit={code}", file=sys.stderr)
        else:
            options = TranslationOptions(sfi=not args.no_sfi)
            code, module = run_on_target(program, args.arch, options,
                                         engine=args.engine)
            sys.stdout.write(module.host.output_text())
            if args.cycles:
                machine = module.machine
                print(
                    f"\n[{args.arch}] exit={code} "
                    f"instructions={machine.instret} "
                    f"cycles={machine.cycles} "
                    f"sfi={'on' if options.sfi else 'off'}",
                    file=sys.stderr)
    if args.stats:
        print(f"\n[{args.arch}] pipeline stats\n{collector.render()}",
              file=sys.stderr)
    return code & 0xFF


def _run_linked(args: argparse.Namespace):
    """``run --link``: dynamically link the main module against the
    ``--link`` libraries (per-module SFI + trampolines) and execute."""
    from repro.engine import Engine, RunConfig

    engine = Engine(
        target=None if args.arch == "omnivm" else args.arch,
        profile=TranslationOptions(sfi=not args.no_sfi),
    )
    for path in args.link:
        obj = _object_from_path(path, args.opt)
        engine.register_module(obj.name, obj)
    main_obj = _object_from_path(args.module, args.opt)
    engine.register_module(main_obj.name, main_obj)
    module = engine.load_program(
        [main_obj.name], config=RunConfig(engine=args.engine))
    return module.run(), module


def cmd_stats(args: argparse.Namespace) -> int:
    """Pipeline telemetry for one module: per-stage wall times, SFI
    check counts, and static/dynamic code expansion, per target."""
    compile_collector = metrics.MetricsCollector()
    with metrics.collect(compile_collector):
        program = _program_from_path(args.module, args.opt)
    options = TranslationOptions(sfi=not args.no_sfi)
    archs = ARCHITECTURES if args.arch == "all" else (args.arch,)

    # Reference run: the dynamic-expansion denominator (Figure 1).
    omni_collector = metrics.MetricsCollector()
    with metrics.collect(omni_collector):
        run_module(program)
    omni_instret = omni_collector.counters.get("execute.omni.instret", 0)

    per_arch: dict[str, metrics.MetricsCollector] = {}
    report: dict = {
        "module": args.module,
        "omni_instrs": len(program.instrs),
        "omni_instret": omni_instret,
        "sfi": options.sfi,
        "compile": compile_collector.to_dict(),
        "targets": {},
    }
    for arch in archs:
        collector = metrics.MetricsCollector()
        with metrics.collect(collector):
            run_on_target(program, arch, options)
        per_arch[arch] = collector
        payload = collector.to_dict()
        counters = collector.counters
        native_instret = counters.get("execute.native.instret", 0)
        payload["dynamic_expansion_ratio"] = (
            native_instret / omni_instret if omni_instret else None
        )
        report["targets"][arch] = payload

    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    print(f"module: {args.module}  ({len(program.instrs)} OmniVM "
          f"instructions, {omni_instret} interpreted, "
          f"sfi={'on' if options.sfi else 'off'})")
    print("\ncompile stages:")
    for name in sorted(compile_collector.stage_seconds):
        print(f"  {name:<16} {compile_collector.stage_seconds[name] * 1e3:9.3f} ms")
    header = (f"{'arch':<6} {'verify(ms)':>10} {'transl(ms)':>11} "
              f"{'sfiver(ms)':>11} {'exec(ms)':>9} {'expand':>7} "
              f"{'dyn-exp':>8} {'sfi-inl':>8} {'sfi-chk':>8} {'sfi-exec':>9}")
    print(f"\n{header}")
    for arch in archs:
        collector = per_arch[arch]
        seconds = collector.stage_seconds
        counters = collector.counters
        native_instret = counters.get("execute.native.instret", 0)
        dyn = native_instret / omni_instret if omni_instret else 0.0
        checks = (counters.get("verify.sfi.stores_checked", 0)
                  + counters.get("verify.sfi.ijumps_checked", 0))
        print(f"{arch:<6} "
              f"{seconds.get('verify.module', 0.0) * 1e3:10.3f} "
              f"{seconds.get('translate', 0.0) * 1e3:11.3f} "
              f"{seconds.get('verify.sfi', 0.0) * 1e3:11.3f} "
              f"{seconds.get('execute', 0.0) * 1e3:9.3f} "
              f"{collector.expansion_ratio() or 0.0:7.2f} "
              f"{dyn:8.2f} "
              f"{counters.get('translate.static.sfi', 0):8d} "
              f"{checks:8d} "
              f"{counters.get('execute.sfi.dynamic', 0):9d}")
    print("\n(expand = static native/OmniVM instruction ratio; dyn-exp = "
          "dynamic; sfi-inl = SFI instructions inlined;\n sfi-chk = "
          "stores+indirect jumps the SFI verifier checked; sfi-exec = "
          "SFI instructions retired)")
    return 0


def cmd_difftest(args: argparse.Namespace) -> int:
    from repro.difftest import run_difftest
    from repro.engine import Engine

    targets = tuple(args.targets.split(",")) if args.targets else None
    if targets:
        for target in targets:
            if target not in ARCHITECTURES:
                print(f"omnicc: unknown target {target!r}", file=sys.stderr)
                return 2
    if args.sfi:
        from repro.difftest.sfi_mutator import run_sfi_mutation_fuzz

        collector = metrics.MetricsCollector()
        with metrics.collect(collector):
            summary = run_sfi_mutation_fuzz(
                count=args.count,
                seed=args.seed,
                targets=targets,
                mutants_per_module=args.mutants,
                minimize=not args.no_minimize,
            )
        if args.json:
            print(json.dumps(summary.to_dict(), indent=2))
        else:
            print(summary.render())
        if args.stats:
            print(f"\n{collector.render()}", file=sys.stderr)
        return 0 if summary.clean else 1
    engine = Engine(cache=False)
    summary = run_difftest(
        count=args.count,
        seed=args.seed,
        targets=targets,
        engine=engine,
        minimize=not args.no_minimize,
    )
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(summary.render())
        for divergence in summary.divergences:
            print()
            print(divergence.report())
    if args.stats:
        print(f"\n{engine.stats_text()}", file=sys.stderr)
    return 0 if summary.clean else 1


def cmd_sfi_check(args: argparse.Namespace) -> int:
    """Model-check the SFI guard templates; exit 1 on a counterexample."""
    from repro.sfi.modelcheck import check_templates

    archs = tuple(args.arch.split(",")) if args.arch else None
    if archs:
        for arch in archs:
            if arch not in ARCHITECTURES:
                print(f"omnicc: unknown target {arch!r}", file=sys.stderr)
                return 2
    report = check_templates(archs)
    if args.json:
        payload = {
            "ok": report.ok,
            "states_checked": report.states_checked,
            "templates": [
                {
                    "arch": r.arch,
                    "template": r.template,
                    "states": r.states,
                    "counterexample": (str(r.counterexample)
                                       if r.counterexample else None),
                }
                for r in report.results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        per_arch: dict[str, int] = {}
        for r in report.results:
            per_arch[r.arch] = per_arch.get(r.arch, 0) + r.states
        for arch, states in sorted(per_arch.items()):
            print(f"{arch:6s} {states:8d} states")
        if report.ok:
            print(f"all guard templates safe "
                  f"({report.states_checked} states checked)")
        else:
            for cx in report.counterexamples:
                print()
                print(cx)
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Batch mode for the module-hosting service: read a JSON request
    file, run everything through one :class:`ModuleHost`, and report
    per-request outcomes plus service statistics.

    The request file is a JSON array; each element names a module
    (``"path"`` — any format ``run`` accepts — inline ``"source"``, or
    ``"modules"`` — root names to dynamically link out of the host's
    registry) plus optional ``"arch"``, ``"entry"``,
    ``"deadline_seconds"``, ``"fuel"``, ``"max_output_bytes"``, and
    ``"repeat"`` (clone the request N times, for load generation).

    Two action elements manage the registry in file order:
    ``{"register": NAME, "path"|"source": ...}`` and
    ``{"revoke": NAME}``.  Requests preceding an action complete before
    it applies (the pending batch is flushed), so a spec can exercise
    register -> run -> revoke -> run deterministically.
    """
    from repro.engine import Engine
    from repro.service import ModuleRequest, RequestQuota

    spec_list = json.loads(Path(args.requests).read_text())
    if not isinstance(spec_list, list):
        print("omnicc: serve: request file must be a JSON array",
              file=sys.stderr)
        return 2
    programs: dict[str, LinkedProgram] = {}
    responses = []
    engine = Engine(target=args.arch)
    start = time.perf_counter()
    with engine.serve(processes=args.processes, workers=args.workers,
                      queue_depth=args.queue_depth,
                      default_deadline=args.deadline) as host:
        pending: list[ModuleRequest] = []

        def flush() -> None:
            if pending:
                responses.extend(host.run_batch(pending))
                pending.clear()

        for index, spec in enumerate(spec_list):
            if "register" in spec:
                flush()
                if "path" in spec:
                    host.register_module(
                        spec["register"],
                        _object_from_path(spec["path"], args.opt))
                elif "source" in spec:
                    host.register_module(spec["register"], spec["source"])
                else:
                    print(f"omnicc: serve: register action {index} "
                          f"needs 'path' or 'source'", file=sys.stderr)
                    return 2
                continue
            if "revoke" in spec:
                flush()
                host.revoke_module(spec["revoke"])
                continue
            program: LinkedProgram | str | None = None
            modules = None
            if "modules" in spec:
                modules = list(spec["modules"])
            elif "path" in spec:
                if spec["path"] not in programs:
                    programs[spec["path"]] = _program_from_path(
                        spec["path"], args.opt)
                program = programs[spec["path"]]
            elif "source" in spec:
                program = spec["source"]
            else:
                print(f"omnicc: serve: request {index} has neither "
                      f"'path', 'source', nor 'modules'", file=sys.stderr)
                return 2
            quota = RequestQuota(
                fuel=spec.get("fuel", RequestQuota.fuel),
                segment_size=spec.get("segment_size"),
                max_output_bytes=spec.get(
                    "max_output_bytes", RequestQuota.max_output_bytes),
            )
            base_id = spec.get("id", f"{index}")
            repeat = int(spec.get("repeat", 1))
            for clone in range(repeat):
                pending.append(ModuleRequest(
                    program=program,
                    modules=modules,
                    target=spec.get("arch"),
                    entry=spec.get("entry"),
                    deadline_seconds=spec.get("deadline_seconds"),
                    quota=quota,
                    request_id=(base_id if repeat == 1
                                else f"{base_id}#{clone}"),
                ))
        flush()
    elapsed = time.perf_counter() - start

    summary = {
        "requests": len(responses),
        "ok": sum(r.ok for r in responses),
        "fallbacks": sum(r.fallback for r in responses),
        "errors": sum(not r.ok for r in responses),
        "elapsed_seconds": elapsed,
        "throughput_rps": len(responses) / elapsed if elapsed else None,
        "workers": args.workers,
        "processes": args.processes,
        "service": host.stats.to_dict(),
    }
    if args.json:
        summary["responses"] = [r.to_dict() for r in responses]
        print(json.dumps(summary, indent=2))
    else:
        for r in responses:
            status = "ok" if r.ok else f"ERROR {r.error}"
            extras = []
            if r.fallback:
                extras.append("fallback->omnivm")
            if r.retries:
                extras.append(f"retries={r.retries}")
            extra = f"  [{', '.join(extras)}]" if extras else ""
            print(f"{r.request_id:<12} {status:<24} arch={r.arch:<7}"
                  f"exit={r.exit_code!s:<5} "
                  f"{r.latency_seconds * 1e3:8.2f} ms{extra}")
        pct = host.stats.latency_percentiles()
        pool = (f"{args.processes} processes x {args.workers} threads"
                if args.processes else f"{args.workers} workers")
        print(f"\n{summary['requests']} requests in {elapsed:.3f}s "
              f"({summary['throughput_rps']:.1f} req/s, "
              f"{pool}): {summary['ok']} ok, "
              f"{summary['fallbacks']} fallbacks, "
              f"{summary['errors']} errors; "
              f"latency p50 {pct['p50'] * 1e3:.2f} ms / "
              f"p90 {pct['p90'] * 1e3:.2f} ms / "
              f"p99 {pct['p99'] * 1e3:.2f} ms")
    if args.stats:
        if args.processes:
            # The router's engine never translates; the workers'
            # caches (merged into the service stats) are the truth.
            cache = summary["service"].get("cache", {})
            print(
                f"\ntranslation cache (all shards): "
                f"{cache.get('hits', 0)} hits "
                f"({cache.get('disk_hits', 0)} from disk), "
                f"{cache.get('misses', 0)} misses, "
                f"{cache.get('evictions', 0)} evictions; "
                f"predecode {cache.get('predecode_hits', 0)} hits, "
                f"{cache.get('predecode_misses', 0)} misses",
                file=sys.stderr,
            )
        else:
            print(f"\n{engine.stats_text()}", file=sys.stderr)
    return 0 if summary["errors"] == 0 else 1


def cmd_disasm(args: argparse.Namespace) -> int:
    program = _program_from_path(args.module, 2)
    print(disassemble_program(program, args.function))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.evalharness import tables
    from repro.evalharness.figures import figure1

    if args.figure == 1:
        print(figure1().render())
        return 0
    table_fn = tables.ALL_TABLES[f"table{args.table}"]
    result = table_fn()
    if isinstance(result, tuple):
        for part in result:
            print(part.render())
            print()
    else:
        print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnicc", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile MiniC/MiniLisp to an object")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("-O", "--opt", type=int, default=2, choices=(0, 1, 2))
    p.add_argument("--lisp", action="store_true",
                   help="treat the source as MiniLisp")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("asm", help="assemble OmniVM assembly to an object")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("link", help="link objects into a mobile module")
    p.add_argument("objects", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--entry", default="main")
    p.set_defaults(fn=cmd_link)

    p = sub.add_parser("run", help="run a module (interpreted or translated)")
    p.add_argument("module", help="source file, .oof object, or .oom module")
    p.add_argument("--arch", default="omnivm",
                   choices=("omnivm",) + tuple(ARCHITECTURES))
    p.add_argument("--link", action="append", default=[],
                   metavar="PATH",
                   help="dynamically link against this library module "
                        "(repeatable); each module keeps its own SFI "
                        "policy and cross-module calls go through "
                        "checked trampolines")
    p.add_argument("--no-sfi", action="store_true")
    p.add_argument("--engine", default="jit", choices=ENGINES,
                   help="execution loop: jit (default; superblock JIT over "
                        "the threaded-code engine, on the interpreter and "
                        "all four targets), the threaded-code engine alone, "
                        "or the legacy per-instruction loop")
    p.add_argument("--cycles", action="store_true",
                   help="print execution statistics to stderr")
    p.add_argument("--stats", action="store_true",
                   help="print pipeline metrics (per-stage timings, "
                        "counters) to stderr")
    p.add_argument("-O", "--opt", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "stats",
        help="per-stage pipeline telemetry for a module across targets")
    p.add_argument("module", help="source file, .oof object, or .oom module")
    p.add_argument("--arch", default="all",
                   choices=("all",) + tuple(ARCHITECTURES))
    p.add_argument("--no-sfi", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.add_argument("-O", "--opt", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("disasm", help="disassemble a module")
    p.add_argument("module")
    p.add_argument("--function")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("bench", help="reproduce a table/figure from the paper")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("--figure", type=int, choices=(1,))
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "difftest",
        help="cross-execute random programs on the interpreter and the "
             "target simulators, reporting semantic divergences")
    p.add_argument("--count", type=int, default=500,
                   help="number of generated programs (default 500)")
    p.add_argument("--seed", default="difftest",
                   help="corpus seed; same seed -> same programs")
    p.add_argument("--targets",
                   help="comma-separated subset of targets "
                        "(default: all four)")
    p.add_argument("--json", action="store_true",
                   help="emit the summary and divergences as JSON")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip shrinking divergent programs")
    p.add_argument("--stats", action="store_true",
                   help="print engine pipeline metrics to stderr")
    p.add_argument("--sfi", action="store_true",
                   help="fuzz the SFI verifier instead: mutate verified "
                        "translations with sandbox-escape mutations and "
                        "report the kill-rate (exit 1 on any surviving "
                        "unsafe mutant or overtight rejection)")
    p.add_argument("--mutants", type=int, default=6,
                   help="with --sfi: mutants derived per translated "
                        "module (default 6)")
    p.set_defaults(fn=cmd_difftest)

    p = sub.add_parser(
        "sfi-check",
        help="exhaustively model-check the SFI guard templates "
             "(store/jump, every target), exit 1 with a concrete "
             "counterexample if any is unsafe")
    p.add_argument("--arch",
                   help="comma-separated subset of targets "
                        "(default: all four)")
    p.add_argument("--json", action="store_true",
                   help="emit the per-template report as JSON")
    p.set_defaults(fn=cmd_sfi_check)

    p = sub.add_parser(
        "serve",
        help="run a batch of requests through the concurrent "
             "module-hosting service (worker pool, deadlines, quotas, "
             "interpreter fallback)")
    p.add_argument("--requests", required=True,
                   help="JSON array of request specs "
                        "({'path'|'source', 'arch', 'deadline_seconds', "
                        "'fuel', 'max_output_bytes', 'repeat', ...})")
    p.add_argument("--workers", type=int, default=4,
                   help="worker threads (per process when --processes "
                        "is set)")
    p.add_argument("--processes", type=int, default=None,
                   help="shard the service over N worker processes "
                        "(consistent-hash routing by module digest; "
                        "default: one process, threads only)")
    p.add_argument("--queue-depth", type=int, default=64)
    p.add_argument("--arch", default=None,
                   choices=("omnivm",) + tuple(ARCHITECTURES),
                   help="default target for requests that set no 'arch' "
                        "(default: the reference interpreter)")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-request deadline in seconds")
    p.add_argument("--json", action="store_true",
                   help="emit the summary and every response as JSON")
    p.add_argument("--stats", action="store_true",
                   help="print engine pipeline metrics to stderr")
    p.add_argument("-O", "--opt", type=int, default=2, choices=(0, 1, 2))
    p.set_defaults(fn=cmd_serve)

    return parser


#: Distinct exit statuses for the dynamic-link error family, so scripts
#: driving the CLI can react to (say) a revoked dependency without
#: parsing stderr.  Any other pipeline error still exits 1.
LINK_EXIT_CODES = {
    UnresolvedImportError: 4,
    ModuleCycleError: 5,
    ModuleRevokedError: 6,
    CrossModuleViolation: 7,
    DuplicateExportError: 8,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as err:
        print(f"omnicc: error: {err}", file=sys.stderr)
        return LINK_EXIT_CODES.get(type(err), 1)
    except FileNotFoundError as err:
        print(f"omnicc: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
