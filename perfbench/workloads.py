"""The three workloads: set-up, warm-up and a timed phase each.

* ``warm_spec`` — one client, closed loop, ``Engine.run`` on the four
  pre-linked SPEC92 analogues x five executors.  Every load is a
  translation-cache hit, so execution, JIT, the predecode side table and
  address-space set-up do the work.
* ``cold_modules`` — one client, closed loop, a fresh engine, and a
  never-seen generated MiniC program per request.  Compile, verify,
  translate, SFI verify, predecode and JIT tier-up do the work; the
  caches only take writes.
* ``hosted_mix`` — ``Engine.serve(workers=1)`` with four requests kept
  outstanding.  Small pre-linked modules are drawn Zipf-like from 96
  (module, target) pairs, 1.5x the 64-entry translation cache, and every
  fifth request links an application against a registered library.
  Queueing, cache hits beside misses and evictions, the dynamic linker
  and per-request address-space set-up dominate.

Each request's exit code and output are checked against its oracle
(see :mod:`corpus`); a mismatch, an error or a refusal is a failure.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro import Engine, RunConfig
from repro.service import ModuleHost, ModuleRequest, RequestQuota
from repro.workloads import suite

import corpus
from corpus import EXECUTORS, Job

#: Requests each timed phase completes at least, whatever ``--seconds``
#: says, so that ten latency samples lie beyond p90.  The deterministic
#: metrics (``sim_cycles``, ``code_expansion``) are summed over exactly
#: this many leading requests, so they never depend on wall time.
MIN_REQUESTS = 100

#: Requests each pass of the traced run completes at least; the traced
#: run's counts are summed over this many leading requests.
TRACE_REQUESTS = 40

#: Resident-memory ceiling.  Crossing it stops the run and fails it
#: instead of leaving a shared machine to its OOM killer.
RSS_CEILING_MB = 2560

#: Hosted service shape: worker threads, requests kept outstanding, and
#: the generous per-request deadline that keeps the watchdog on the path.
#: One worker, because the JIT tiers are not safe for two threads running
#: the same module at once: a compiled superblock keeps its per-site
#: memory caches in closure cells that every machine running it shares,
#: and the entry guard does not stop a second machine from re-pointing
#: them while the first is still inside the trace.  With two workers
#: about one hosted request in 60,000 came back with a wrong result, and
#: two threads looping over one array program on x86, with a 20 us
#: thread switch interval, got wrong output in half their runs.
HOST_WORKERS = 1
OUTSTANDING = 4
DEADLINE_S = 60.0

#: Hosted modules get 1 MiB segments instead of the default 16 MiB.  A
#: finished request's address space stays resident until the cyclic
#: collector frees it, and small hosted modules allocate so few objects
#: that the collector rarely runs: with 16 MiB segments (49 MiB a
#: request) a 25 s hosted run passed 6 GB.  Every hosted module fits in
#: 1 MiB.
HOSTED_QUOTA = RequestQuota(segment_size=1 << 20)


# -- memory -------------------------------------------------------------------


def rss_mb() -> float:
    """Current resident set size of this process in MiB."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import os

    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


class RssWatch:
    """Samples resident memory on a thread; records the peak and flags a
    crossing of :data:`RSS_CEILING_MB`."""

    def __init__(self, ceiling_mb: float = RSS_CEILING_MB,
                 interval: float = 0.05):
        self.ceiling_mb = ceiling_mb
        self.interval = interval
        self.peak_mb = 0.0
        self.exceeded = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def reset_peak(self) -> None:
        """Start a new peak measurement from the current footprint."""
        self.peak_mb = 0.0
        self.sample()

    def sample(self) -> None:
        current = rss_mb()
        self.peak_mb = max(self.peak_mb, current)
        if current > self.ceiling_mb:
            self.exceeded = True

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssWatch":
        self.sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# -- one request --------------------------------------------------------------


@dataclass
class Outcome:
    """What one request did, as the client saw it."""

    index: int
    job: Job
    start: float                 # call (closed loop) or submit (hosted)
    end: float
    ok: bool
    error: str | None = None
    cycles: int | None = None    # native requests run in-process
    instret: int | None = None
    omni_instrs: int | None = None
    native_instrs: int | None = None
    thread: int | None = None    # the thread that ran it, if known
    exec_start: float | None = None  # hosted: when a worker took it

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _report(error: BaseException) -> str:
    traceback.print_exception(error, file=sys.stderr)
    return f"{type(error).__name__}: {error}"


def run_direct(engine: Engine, job: Job, index: int = 0,
               config: RunConfig | None = None) -> Outcome:
    """One ``Engine.run`` call, checked against the job's oracle."""
    if job.modules:
        program = engine.link_modules(list(job.modules))
    else:
        program = job.program if job.program is not None else job.source
    start = time.perf_counter()
    try:
        code, module = engine.run(program, target=job.target,
                                  config=config)
    except Exception as error:  # a failed request, not a failed run
        return Outcome(index, job, start, time.perf_counter(), False,
                       error=_report(error), thread=threading.get_ident())
    end = time.perf_counter()
    outcome = Outcome(index, job, start, end, ok=(
        code == 0
        and tuple(module.host.output_values()) == job.expected
    ), thread=threading.get_ident())
    if not outcome.ok:
        outcome.error = f"wrong result: exit {code}"
    machine = getattr(module, "machine", None)
    if machine is not None:
        outcome.cycles = machine.cycles
        outcome.instret = machine.instret
        outcome.native_instrs = len(module.translated.instrs)
        outcome.omni_instrs = len(module.program.instrs)
    else:
        outcome.instret = module.vm.state.instret
    return outcome


def closed_loop(engine: Engine, jobs, seconds: float, floor: int,
                watch: RssWatch) -> list[Outcome]:
    """One client: the next request goes out when the previous returns."""
    outcomes: list[Outcome] = []
    began = time.perf_counter()
    for index, job in enumerate(jobs):
        if watch.exceeded or (index >= floor
                              and time.perf_counter() - began >= seconds):
            break
        outcomes.append(run_direct(engine, job, index))
        watch.sample()
    return outcomes


@contextmanager
def hosted_counts():
    """Record the cycles and instructions each hosted run retires, by
    request id.  A response carries no machine, so the counts are read
    where the host runs the module."""
    counts: dict[str, tuple[int, int]] = {}
    original = ModuleHost._run_with_deadline

    def run_with_deadline(host, module, request, *rest):
        code = original(host, module, request, *rest)
        machine = getattr(module, "machine", None)
        if machine is not None:
            counts[request.request_id] = (machine.cycles, machine.instret)
        return code

    ModuleHost._run_with_deadline = run_with_deadline
    try:
        yield counts
    finally:
        ModuleHost._run_with_deadline = original


def hosted_loop(host, jobs, seconds: float, floor: int,
                watch: RssWatch) -> list[Outcome]:
    """Keeps :data:`OUTSTANDING` requests in flight.  This thread submits
    the first ones; each completion submits the next request from the
    thread that completed it, so no wake-up of a waiting thread stands
    between a response and the next submit."""
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    drained = threading.Event()
    main = threading.get_ident()
    submitted = in_flight = 0
    began = time.perf_counter()

    def finish(index: int, job: Job, start: float, response) -> None:
        end = time.perf_counter()
        worker = threading.get_ident()
        ok = (response.ok and not response.fallback
              and response.arch == job.target
              and response.exit_code == 0
              and response.output == job.text)
        outcome = Outcome(
            index, job, start, end, ok,
            error=None if ok else (
                f"{response.error}: {response.error_message}"
                if response.error else
                f"wrong result for {job.key}: arch {response.arch}, "
                f"fallback {response.fallback}, exit {response.exit_code}, "
                f"output {response.output!r}, expected {job.text!r}"),
            thread=None if worker == main else worker,
            exec_start=end - response.latency_seconds,
        )
        outcome.cycles, outcome.instret = counts.get(response.request_id,
                                                     (None, None))
        record(outcome)
        submit_next()

    def record(outcome: Outcome) -> None:
        nonlocal in_flight
        with lock:
            outcomes.append(outcome)
            in_flight -= 1

    def submit_next() -> None:
        nonlocal submitted, in_flight
        while True:
            with lock:
                index = submitted
                if watch.exceeded or (index >= floor and
                                      time.perf_counter() - began >= seconds):
                    if in_flight == 0:
                        drained.set()
                    return
                job = next(jobs)
                submitted += 1
                in_flight += 1
            request = ModuleRequest(
                program=job.program, modules=job.modules, target=job.target,
                deadline_seconds=DEADLINE_S, quota=HOSTED_QUOTA,
                request_id=f"r{index}",
            )
            start = time.perf_counter()
            try:
                pending = host.submit(request)
            except Exception as error:  # refused: counts as failed
                record(Outcome(index, job, start, time.perf_counter(), False,
                               error=_report(error)))
                continue
            pending.on_done(
                lambda response, i=index, j=job, s=start:
                finish(i, j, s, response))
            return

    with hosted_counts() as counts:
        for _ in range(OUTSTANDING):
            submit_next()
        drained.wait()
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes


# -- workloads ----------------------------------------------------------------


@dataclass
class State:
    engine: Engine
    jobs: object                          # iterator of Job
    host: object = None
    pairs: list[Job] = field(default_factory=list)  # every distinct job
    warm: list[Outcome] = field(default_factory=list)


class WarmSpec:
    name = "warm_spec"
    #: Set-ups per untraced run (``setup_s`` is their median).  One
    #: warm_spec set-up takes about 11 s, long enough to average out the
    #: VM's speed swings by itself.
    setup_repeats = 1

    def build(self, seed: int) -> State:
        engine = Engine()
        programs = {name: corpus.spec_program(engine, name)
                    for name in suite.WORKLOAD_NAMES}
        pairs = corpus.spec_jobs(programs)
        return State(engine, corpus.cycled(pairs, random.Random(
            f"warm|{seed}")), pairs=pairs)

    def warm(self, state: State) -> None:
        state.warm = [run_direct(state.engine, job)
                      for job in state.pairs]

    def phase(self, state, jobs, seconds, floor, watch):
        return closed_loop(state.engine, jobs, seconds, floor, watch)

    def expansion_outcomes(self, state, prefix):
        return state.warm

    def close(self, state) -> None:
        pass


class ColdModules(WarmSpec):
    name = "cold_modules"
    setup_repeats = 3

    def build(self, seed: int) -> State:
        stream = corpus.cold_jobs(seed)
        # The corpus build: the programs every run is sure to send.
        first = list(itertools.islice(stream, MIN_REQUESTS))
        return State(Engine(), itertools.chain(first, stream))

    def warm(self, state: State) -> None:
        # Warm the process (lazy imports, first-call paths) on a
        # throwaway engine and programs; the measured engine stays fresh.
        # The warm-up programs are the same for every seed, so set-up
        # does the same work on every run.
        throwaway = Engine()
        warm_jobs = corpus.cold_jobs(-1)
        state.warm = [run_direct(throwaway, job)
                      for job in itertools.islice(warm_jobs,
                                                  len(EXECUTORS) * 2)]

    def expansion_outcomes(self, state, prefix):
        return prefix


class HostedMix(WarmSpec):
    name = "hosted_mix"
    setup_repeats = 3

    def build(self, seed: int) -> State:
        engine = Engine()
        host = engine.serve(workers=HOST_WORKERS)
        programs, links = corpus.hosted_corpus(engine, seed)
        return State(engine, corpus.hosted_stream(programs, links, seed),
                     host=host, pairs=programs + links)

    def warm(self, state: State) -> None:
        config = RunConfig(segment_size=HOSTED_QUOTA.segment_size)
        state.warm = [run_direct(state.engine, job, config=config)
                      for job in state.pairs]
        state.host.start()

    def phase(self, state, jobs, seconds, floor, watch):
        return hosted_loop(state.host, jobs, seconds, floor, watch)

    def close(self, state) -> None:
        state.host.stop()


WORKLOADS = {w.name: w for w in (WarmSpec(), ColdModules(), HostedMix())}
