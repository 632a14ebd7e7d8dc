"""Dynamic-linking benchmark: one shared library, many programs.

The economic case for dynamic linking in a mobile-code host: a library
that N hosted programs share is translated **once** and every
subsequent program links the cached translation chunk, paying only its
own (small) translation plus the splice.  This benchmark measures that
directly and emits ``BENCH_module_linking.json`` at the repository
root:

* **cold load** — the first program's link+translate, which pays the
  full library translation;
* **warm loads** — every other program linking the same library
  (content-addressed chunk hits; the canonical deps-first layout makes
  the library's translation unit byte-identical across images);
* **selective invalidation** — one program is hot-reloaded (new epoch,
  its chunks dropped); relinking re-translates only that program while
  the library stays warm.

The headline metric is ``speedup`` = median cold seconds / median warm
seconds.  The cold time is taken on :data:`COLD_SAMPLES` fresh engines
(the sweep's own first load is one), alternated with the warm sweep, so
a burst of load on the machine moves both sides instead of deciding the
ratio through one cold sample.  The artifact contract (guarded by
:func:`validate_artifact`, invoked from
``tests/test_dynamic_linking.py``) requires the library to be
translated exactly once and linked exactly once across the sweep, and
the warm links to be at least 5x faster than the cold one.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine import Engine

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_module_linking.json"
)

SCHEMA_VERSION = 2

#: keys every per-program entry must carry (the artifact contract)
RESULT_KEYS = frozenset(
    ("program", "seconds", "chunk_hits", "chunk_misses", "unit_hits",
     "exit_code", "output")
)

#: required top-level keys
TOP_KEYS = frozenset(
    ("benchmark", "schema_version", "arch", "lib_instrs", "programs",
     "cold_samples", "cold_seconds", "warm_seconds_median", "speedup",
     "results", "invalidation")
)

#: Minimum cold/warm advantage the artifact must demonstrate.
MIN_SPEEDUP = 5.0

#: Cold loads timed, each on a fresh engine.
COLD_SAMPLES = 3


def library_source(functions: int = 100) -> str:
    """A wide shared library: *functions* small exported kernels (about
    20 OmniVM instructions each, so the default is ~2000 instructions —
    big enough that its translation dominates a cold load)."""
    parts = []
    for k in range(functions):
        parts.append(f"""
int lib_f{k}(int x) {{
    int a;
    int b;
    a = x * {k + 3};
    b = a + {k + 1};
    a = b * 3 - x;
    b = a - b + {k};
    if (b > a) {{ a = a + b; }} else {{ a = a - b; }}
    return a + x;
}}""")
    return "\n".join(parts)


def program_source(index: int, functions: int) -> str:
    """Program *index*: imports three library kernels and emits a
    deterministic combination (distinct per program, so each app is its
    own translation unit)."""
    a = index % functions
    b = (index * 7 + 1) % functions
    c = (index * 13 + 2) % functions
    return f"""
extern int lib_f{a}(int x);
extern int lib_f{b}(int x);
extern int lib_f{c}(int x);
int main() {{
    emit_int(lib_f{a}({index + 1}));
    emit_int(lib_f{b}({index + 2}) + lib_f{c}({index + 3}));
    return 0;
}}"""


@contextmanager
def _gc_paused():
    """Keep cyclic-GC pauses out of a timed region, as :mod:`timeit`
    does: the garbage they collect was made by the untimed loads and
    runs around it, and a pause landing in one timed link would decide
    the cold/warm ratio."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _timed_load(engine: Engine, name: str):
    """Link and translate program *name*; returns the image and the
    seconds it took.  The measured quantity is the translation pipeline
    — dynamic link, whole-image verification, per-chunk
    translate/splice.  Address-space construction and execution are
    identical for cold and warm loads, so they run outside the clock
    (but still run: every program's output is checked)."""
    with _gc_paused():
        start = time.perf_counter()
        image = engine.link_modules([name])
        engine.translate(image)
        seconds = time.perf_counter() - start
    return image, seconds


def collect_benchmark(
    arch: str = "mips",
    programs: int = 12,
    functions: int = 100,
) -> dict:
    """Measure the full sweep; returns the artifact payload (does not
    write it)."""
    engine = Engine(target=arch)
    engine.register_module("libshared", library_source(functions))
    names = []
    for index in range(programs):
        name = f"prog{index}"
        engine.register_module(name, program_source(index, functions))
        names.append(name)
    objects = {name: engine.registry.get(name).obj
               for name in engine.registry.names()}

    lib_instrs = len(objects["libshared"].text)

    def counters() -> tuple[int, int, int]:
        c = engine.metrics.counters
        return (c.get("link.chunk_hit", 0), c.get("link.chunk_miss", 0),
                c.get("link.unit_hit", 0))

    def cold_sample() -> float:
        """The first load on a fresh engine, registry included."""
        fresh = Engine(target=arch)
        for name, obj in objects.items():
            fresh.register_module(name, obj)
        return _timed_load(fresh, names[0])[1]

    # The sweep's first load is the first cold sample; the others are
    # spread evenly through the warm loads.
    cold_before = {programs * k // COLD_SAMPLES
                   for k in range(1, COLD_SAMPLES)}
    cold_samples = []
    results = []
    for index, name in enumerate(names):
        if index in cold_before:
            cold_samples.append(cold_sample())
        hits0, misses0, units0 = counters()
        image, seconds = _timed_load(engine, name)
        if index == 0:
            cold_samples.append(seconds)
        hits1, misses1, units1 = counters()
        module = engine.load(image)
        code = module.run()
        results.append({
            "program": name,
            "seconds": seconds,
            "chunk_hits": hits1 - hits0,
            "chunk_misses": misses1 - misses0,
            "unit_hits": units1 - units0,
            "exit_code": code,
            "output": module.host.output_values(),
        })

    cold_seconds = statistics.median(cold_samples)
    warm_median = statistics.median(entry["seconds"]
                                    for entry in results[1:])

    # Selective invalidation: hot-reload one program (new epoch drops
    # its chunks); the library must stay warm on the relink.
    engine.register_module("prog0", program_source(0, functions))
    hits0, misses0, _units = counters()
    image, reload_seconds = _timed_load(engine, "prog0")
    hits1, misses1, _units = counters()
    reload_code = engine.load(image).run()
    invalidation = {
        "reloaded": "prog0",
        "seconds": reload_seconds,
        "chunk_hits": hits1 - hits0,     # the warm library
        "chunk_misses": misses1 - misses0,  # only the reloaded program
        "exit_code": reload_code,
    }

    return {
        "benchmark": "module_linking",
        "schema_version": SCHEMA_VERSION,
        "arch": arch,
        "lib_instrs": lib_instrs,
        "programs": programs,
        "cold_samples": cold_samples,
        "cold_seconds": cold_seconds,
        "warm_seconds_median": warm_median,
        "speedup": cold_seconds / warm_median,
        "results": results,
        "invalidation": invalidation,
        "cache": engine.cache.stats().to_dict(),
    }


def validate_artifact(payload: dict) -> None:
    """Raise AssertionError unless *payload* matches the artifact
    contract consumed by the benchmark trajectory."""
    assert payload.get("benchmark") == "module_linking", "bad benchmark id"
    assert payload.get("schema_version") == SCHEMA_VERSION, "schema drift"
    missing = TOP_KEYS - payload.keys()
    assert not missing, f"payload missing keys: {sorted(missing)}"
    assert payload["programs"] >= 10, "sweep must cover >= 10 programs"
    assert payload["lib_instrs"] >= 1500, "shared library too small"
    results = payload["results"]
    assert isinstance(results, list)
    assert len(results) == payload["programs"]
    for entry in results:
        missing = RESULT_KEYS - entry.keys()
        assert not missing, f"result entry missing keys: {sorted(missing)}"
        assert entry["exit_code"] == 0, f"{entry['program']} failed"
        assert entry["seconds"] > 0
        assert entry["output"], f"{entry['program']} emitted nothing"
    assert len(payload["cold_samples"]) == COLD_SAMPLES
    # The shared library translates exactly once: the cold load misses
    # (library + program), every warm load misses only its own program
    # and hits the library chunk.  It is linked once too: every warm
    # load splices the library's memoized unit.
    assert results[0]["chunk_misses"] == 2, "cold load shape changed"
    for entry in results[1:]:
        assert entry["chunk_hits"] >= 1, (
            f"{entry['program']}: library chunk was not served warm"
        )
        assert entry["chunk_misses"] == 1, (
            f"{entry['program']}: re-translated more than itself"
        )
        assert entry["unit_hits"] == 1, (
            f"{entry['program']}: library was not linked from its memo"
        )
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"warm link only {payload['speedup']:.1f}x faster than cold "
        f"translate (need >= {MIN_SPEEDUP}x)"
    )
    invalidation = payload["invalidation"]
    assert invalidation["exit_code"] == 0
    assert invalidation["chunk_hits"] >= 1, (
        "library went cold after an unrelated reload"
    )
    assert invalidation["chunk_misses"] == 1, (
        "reload re-translated more than the reloaded program"
    )


def write_artifact(payload: dict, path: Path = ARTIFACT_PATH) -> Path:
    validate_artifact(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def render(payload: dict) -> str:
    lines = [
        f"module linking: 1 shared library "
        f"({payload['lib_instrs']} OmniVM instructions) x "
        f"{payload['programs']} programs on {payload['arch']}",
        f"  cold load  {payload['cold_seconds'] * 1e3:8.2f} ms median of "
        f"{len(payload['cold_samples'])} fresh engines "
        f"(library + program translated)",
        f"  warm load  {payload['warm_seconds_median'] * 1e3:8.2f} ms median "
        f"(library chunk cached, library unit memoized)",
        f"  speedup    {payload['speedup']:8.1f}x",
        f"  reload     {payload['invalidation']['seconds'] * 1e3:8.2f} ms "
        f"(1 program re-translated, library warm)",
    ]
    return "\n".join(lines)


def bench_module_linking(save_result):
    """Full-size run emitting the JSON artifact."""
    payload = collect_benchmark()
    write_artifact(payload)
    text = render(payload)
    save_result("module_linking", text)


if __name__ == "__main__":
    payload = collect_benchmark()
    path = write_artifact(payload)
    print(render(payload))
    print(f"wrote {path}")
