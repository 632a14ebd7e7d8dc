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

The headline metric is ``speedup`` = cold seconds / mean warm seconds;
the artifact contract (guarded by :func:`validate_artifact`, invoked
from ``tests/test_dynamic_linking.py``) requires the library to be
translated exactly once across the whole sweep and the warm links to be
at least 5x faster than the cold one.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine import Engine

ARTIFACT_PATH = Path(__file__).resolve().parents[1] / (
    "BENCH_module_linking.json"
)

SCHEMA_VERSION = 1

#: keys every per-program entry must carry (the artifact contract)
RESULT_KEYS = frozenset(
    ("program", "seconds", "chunk_hits", "chunk_misses", "exit_code",
     "output")
)

#: required top-level keys
TOP_KEYS = frozenset(
    ("benchmark", "schema_version", "arch", "lib_instrs", "programs",
     "cold_seconds", "warm_seconds_mean", "speedup", "results",
     "invalidation")
)

#: Minimum cold/warm advantage the artifact must demonstrate.
MIN_SPEEDUP = 5.0


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

    lib_instrs = len(engine.registry.get("libshared").obj.text)

    def counters() -> tuple[int, int]:
        c = engine.metrics.counters
        return c.get("link.chunk_hit", 0), c.get("link.chunk_miss", 0)

    results = []
    for name in names:
        hits0, misses0 = counters()
        # The measured quantity is the translation pipeline — dynamic
        # link, whole-image verification, per-chunk translate/splice.
        # Address-space construction and execution are identical for
        # cold and warm loads, so they run outside the clock (but still
        # run: every program's output is checked).
        with _gc_paused():
            start = time.perf_counter()
            image = engine.link_modules([name])
            engine.translate(image)
            seconds = time.perf_counter() - start
        hits1, misses1 = counters()
        module = engine.load(image)
        code = module.run()
        results.append({
            "program": name,
            "seconds": seconds,
            "chunk_hits": hits1 - hits0,
            "chunk_misses": misses1 - misses0,
            "exit_code": code,
            "output": module.host.output_values(),
        })

    cold_seconds = results[0]["seconds"]
    warm = [entry["seconds"] for entry in results[1:]]
    warm_mean = sum(warm) / len(warm)

    # Selective invalidation: hot-reload one program (new epoch drops
    # its chunks); the library must stay warm on the relink.
    engine.register_module("prog0", program_source(0, functions))
    hits0, misses0 = counters()
    with _gc_paused():
        start = time.perf_counter()
        image = engine.link_modules(["prog0"])
        engine.translate(image)
        reload_seconds = time.perf_counter() - start
    hits1, misses1 = counters()
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
        "cold_seconds": cold_seconds,
        "warm_seconds_mean": warm_mean,
        "speedup": cold_seconds / warm_mean,
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
    # The shared library translates exactly once: the cold load misses
    # (library + program), every warm load misses only its own program
    # and hits the library chunk.
    assert results[0]["chunk_misses"] == 2, "cold load shape changed"
    for entry in results[1:]:
        assert entry["chunk_hits"] >= 1, (
            f"{entry['program']}: library chunk was not served warm"
        )
        assert entry["chunk_misses"] == 1, (
            f"{entry['program']}: re-translated more than itself"
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
        f"  cold load  {payload['cold_seconds'] * 1e3:8.2f} ms "
        f"(library + program translated)",
        f"  warm load  {payload['warm_seconds_mean'] * 1e3:8.2f} ms mean "
        f"(library chunk cached)",
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
