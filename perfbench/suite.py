"""The benchmark's four workloads: set-up, timed run, output checks.

Each workload calls the package's public API from outside, the way a user
would (``TaskPool``, ``run_serve``, ``parse_arrival_spec``, ``run_mp``,
``uts_expected``), and reads the layer counters the package already
returns (``RunStats.comm``, ``WorkerStats``, ``ServingStats``,
``MpRunResult``).  Why each workload exists, and which layer it isolates,
is in ``perfbench/README.md``.

A workload has ``prepare`` (untimed work done once per run, such as a
sequential oracle), ``expected_units(seed)``, and splits one repeat into

* ``run_once`` — set-up and the timed run, returning an :class:`Outcome`;
* ``check`` — the untimed output check, returning a :class:`Verdict`
  with the units attempted and failed, a fingerprint that must repeat
  exactly for a seed (``None`` where real concurrency makes it vary), and
  the counters the package returned.

In the traced run the same code runs with a :class:`spans.Tracer`; the
untraced run passes :class:`spans.NullTracer`, whose ``wrap`` returns the
function unchanged, so the untimed and timed paths are the same code.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro import QueueConfig, TaskPool, TaskRegistry
from repro.fabric import OracleViolation
from repro.fabric.engine import TICKS_PER_SECOND
from repro.mp.driver import run_mp, uts_expected
from repro.runtime.arrivals import parse_arrival_spec, serving_checksum
from repro.runtime.oracle import check_serving_conservation
from repro.runtime.serving import ServingController, run_serve
from repro.workloads.bpc import BpcParams, BpcWorkload
from repro.workloads.uts.params import BENCH_BIN, TEST_TINY, UtsParams

TICKS_PER_US = TICKS_PER_SECOND / 1e6

#: A p999 is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass
class Outcome:
    """What one repeat returned, before it is checked."""

    seed: int
    setup_s: float
    run_s: float
    stats: object                 # RunStats, or MpRunResult on mp_uts
    pool: TaskPool | None = None
    controller: ServingController | None = None


@dataclass
class Verdict:
    """The untimed check of one repeat."""

    units: int
    failed: int
    fingerprint: tuple | None
    values: dict


def instrument(pool: TaskPool, tracer) -> None:
    """Route a built pool's engine, oracle and task calls through ``tracer``.

    ``Worker.run`` reads the registry's live dispatch table when the
    engine first resumes it, so entries replaced here, before the run,
    are the ones every task call goes through.
    """
    engine = pool.ctx.engine
    engine.run = tracer.wrap("fabric.engine", engine.run)
    engine.observers[:] = [
        tracer.wrap("runtime.oracle", obs) for obs in engine.observers
    ]
    table = pool.registry.dispatch_table()
    table[:] = [tracer.wrap("workloads", fn) for fn in table]


def fabric_values(stats, pool: TaskPool) -> dict:
    """Layer counters of one fabric run, from what ``TaskPool`` returns."""
    comm = stats.comm
    workers = stats.workers
    ok = stats.total_steals
    failed = stats.total_failed_steals
    return {
        "fabric.engine.events": pool.ctx.engine.events_processed,
        "fabric.nic.ops": comm["total"],
        "fabric.nic.blocking_ops": comm["blocking"],
        "fabric.nic.bytes": comm["bytes"],
        "fabric.nic.amo_fetch_add": comm["amo_fetch_add"],
        "fabric.nic.amo_fetch": comm["amo_fetch"],
        "fabric.nic.amo_swap": comm["amo_swap"],
        "fabric.nic.get": comm["get"],
        "fabric.nic.put": comm["put"],
        "core.steals_ok": ok,
        "core.steals_failed": failed,
        "core.steal_success_ratio": ok / (ok + failed) if ok + failed else 0.0,
        "core.tasks_stolen": sum(w.tasks_stolen for w in workers),
        "core.releases": sum(w.releases for w in workers),
        "core.acquires": sum(w.acquires for w in workers),
        "core.damping_probes": sum(w.probes for w in workers),
        "runtime.worker.steal_virtual_ms": stats.total_steal_time * 1e3,
        "runtime.worker.search_virtual_ms": stats.total_search_time * 1e3,
        "runtime.worker.idle_fraction": stats.idle_fraction,
        "runtime.termination.virtual_ms": (
            sum(w.termination_time for w in workers) * 1e3
        ),
        "virtual_makespan_ms": stats.runtime * 1e3,
        "virtual_steal_us": (
            stats.total_steal_time / ok * 1e6 if ok else 0.0
        ),
    }


def fabric_fingerprint(stats, pool: TaskPool) -> tuple:
    """What a seed fixes exactly: events, NIC op counts, virtual makespan."""
    return (
        pool.ctx.engine.events_processed,
        tuple(sorted(stats.comm.items())),
        stats.runtime,
    )


class Bpc:
    """Closed batch on one fabric engine: BPC on 64 PEs, SWS, oracle off.

    The seed is the pool's victim RNG.
    """

    def __init__(self, npes: int = 64, params: BpcParams | None = None):
        self.npes = npes
        self.params = params or BpcParams(
            n_consumers=32, depth=16, consumer_time=1e-3, producer_time=200e-6
        )
        self.queue_config = QueueConfig(qsize=4096, task_size=32)

    def prepare(self) -> None:
        pass

    def expected_units(self, seed: int) -> int:
        return self.params.total_tasks

    def _build(self, seed: int) -> TaskPool:
        registry = TaskRegistry()
        workload = BpcWorkload(registry, self.params)
        pool = TaskPool(
            self.npes, registry, impl="sws",
            queue_config=self.queue_config, seed=seed,
        )
        pool.seed(0, [workload.seed_task()])
        return pool

    def run_once(self, seed: int, tracer) -> Outcome:
        t0 = time.perf_counter()
        pool = tracer.call("runtime.pool", self._build, seed)
        instrument(pool, tracer)
        t1 = time.perf_counter()
        stats = pool.run()
        t2 = time.perf_counter()
        return Outcome(seed, t1 - t0, t2 - t1, stats, pool)

    def check(self, out: Outcome) -> Verdict:
        stats = out.stats
        expected = self.params.total_tasks
        # A lost or duplicated task moves executed (and, for a lost
        # spawn, spawned) away from the workload's exact task count.
        failed = max(
            abs(stats.total_tasks - expected),
            abs(stats.total_spawned - expected),
        )
        return Verdict(
            units=expected,
            failed=failed,
            fingerprint=fabric_fingerprint(stats, out.pool),
            values=fabric_values(stats, out.pool),
        )


class _ServingHook:
    """``run_serve``'s controller factory, as the benchmark's probe.

    ``run_serve`` builds its pool and then asks the factory for a
    controller: that call is where pool construction ends, and the end of
    ``attach`` (which pre-schedules every arrival) is where set-up ends.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.attached = 0.0
        self.pool: TaskPool | None = None
        self.controller: ServingController | None = None

    def factory(self, pool: TaskPool, *args, **kwargs) -> ServingController:
        self.tracer.mark_from_parent_start("runtime.pool")
        instrument(pool, self.tracer)
        controller = ServingController(pool, *args, **kwargs)
        attach = self.tracer.wrap("runtime.serving.attach", controller.attach)

        def timed_attach() -> None:
            attach()
            self.attached = time.perf_counter()

        controller.attach = timed_attach
        self.pool = pool
        self.controller = controller
        return controller


class Serving:
    """Open loop on the fabric: Poisson arrivals into 4 SDC PEs.

    The offered rate is 0.9 times the pool's capacity ``NPES / TASK_S``.
    The seed drives the pool and, unless ``trace_seed`` fixes the arrival
    trace, the trace too.
    """

    NPES = 4
    TASK_S = 2e-6
    SLO_S = 50e-6
    SPEC = f"poisson:{int(0.9 * NPES / TASK_S)}"

    def __init__(self, horizon_s: float, oracle: bool,
                 trace_seed: int | None = None) -> None:
        self.horizon_s = horizon_s
        self.oracle = oracle
        self.trace_seed = trace_seed
        self._expected: dict[int, tuple[int, int]] = {}

    def _arrivals(self, seed: int):
        if self.trace_seed is not None:
            seed = self.trace_seed
        process = parse_arrival_spec(self.SPEC, self.horizon_s, seed)
        process.trace()  # materialize here, so it is timed as set-up
        return process

    def prepare(self) -> None:
        pass

    def expected(self, seed: int) -> tuple[int, int]:
        """(arrivals, checksum) of the seed's trace, computed once, untimed.

        Arrival sequence numbers are the trace indices 0..emitted-1.
        """
        if seed not in self._expected:
            emitted = self._arrivals(seed).emitted
            self._expected[seed] = (emitted, serving_checksum(range(emitted)))
        return self._expected[seed]

    def expected_units(self, seed: int) -> int:
        return self.expected(seed)[0]

    def run_once(self, seed: int, tracer) -> Outcome:
        t0 = time.perf_counter()
        process = tracer.call("runtime.arrivals", self._arrivals, seed)
        hook = _ServingHook(tracer)
        stats = tracer.call(
            "runtime.serving", run_serve, self.NPES,
            impl="sdc", arrival=process, duration_s=self.horizon_s,
            slo_s=self.SLO_S, seed=seed, task_s=self.TASK_S,
            oracle=self.oracle, controller_factory=hook.factory,
        )
        t2 = time.perf_counter()
        return Outcome(
            seed, hook.attached - t0, t2 - hook.attached, stats,
            hook.pool, hook.controller,
        )

    def check(self, out: Outcome) -> Verdict:
        s = out.stats.serving
        expected, checksum = self.expected(out.seed)
        failed = (
            abs(s.emitted - expected)
            + abs(expected - s.completed)
            + s.shed
            + (s.checksum != checksum)
        )
        if self.oracle:
            try:
                check_serving_conservation(out.controller.books())
            except OracleViolation:
                failed = expected
            if out.pool.oracle is None or out.pool.oracle.checks_passed == 0:
                failed = expected  # armed, but never looked
        pct = s.latency.percentiles()
        values = fabric_values(out.stats, out.pool)
        values.update({
            "runtime.serving.emitted": s.emitted,
            "runtime.serving.completed": s.completed,
            "runtime.serving.shed": s.shed,
            "latency_p50_us": pct["p50"] / TICKS_PER_US,
            "latency_p99_us": pct["p99"] / TICKS_PER_US,
            "latency_p999_us": (
                pct["p999"] / TICKS_PER_US
                if s.completed * 0.001 >= TAIL_SAMPLES else 0.0
            ),
            "slo_attainment": s.slo_fraction,
        })
        fingerprint = fabric_fingerprint(out.stats, out.pool) + (
            s.checksum, s.slo_attained, tuple(sorted(pct.items())),
        )
        return Verdict(expected, failed, fingerprint, values)


class MpUts:
    """Real OS processes on the ``mp`` substrate: a UTS tree on 2 PEs, SWS.

    The tree is fixed; the seed drives the PEs' victim RNG.  The expected
    node count and checksum come from ``uts_expected`` in ``prepare``,
    which is neither timed nor part of set-up.
    """

    NPES = 2

    def __init__(self, tree: UtsParams = BENCH_BIN) -> None:
        self.tree = tree
        self.expected = (0, 0)
        self.verify_s = 0.0

    def expected_units(self, seed: int) -> int:
        return self.expected[0]

    def prepare(self) -> None:
        t0 = time.perf_counter()
        self.expected = uts_expected(self.tree)
        self.verify_s = time.perf_counter() - t0

    def run_once(self, seed: int, tracer) -> Outcome:
        t0 = time.perf_counter()
        result = tracer.call(
            "mp", run_mp, "uts", "sws", self.NPES,
            tree=self.tree, seed=seed, join_timeout=60.0,
        )
        total = time.perf_counter() - t0
        # wall_s is the children's window; heap, fork set-up, join and
        # teardown lie outside it.
        return Outcome(seed, total - result.wall_s, result.wall_s, result)

    def check(self, out: Outcome) -> Verdict:
        r = dataclasses.replace(out.stats)
        r.expected_executed, r.expected_checksum = self.expected
        nodes = self.expected[0]
        failed = max(
            abs(r.total_executed - nodes),
            abs(r.created - nodes),
            abs(r.completed - nodes),
        ) + (r.checksum != self.expected[1])
        if not r.conserved:
            failed = max(failed, 1)
        attempts = sum(sum(p.steals.values()) for p in r.pes)
        executed = [p.executed for p in r.pes]
        mean = sum(executed) / len(executed)
        values = {
            "mp.run_s": r.wall_s,
            "mp.verify_s": self.verify_s,
            "mp.steals_ok": r.total_steals,
            "mp.steal_attempts": attempts,
            "mp.steal_success_ratio": (
                r.total_steals / attempts if attempts else 0.0
            ),
            "mp.tasks_stolen": sum(p.tasks_stolen for p in r.pes),
            "mp.probes": sum(p.probes for p in r.pes),
            "mp.probe_aborts": sum(p.probe_aborts for p in r.pes),
            "mp.releases": sum(p.releases for p in r.pes),
            "mp.acquires": sum(p.acquires for p in r.pes),
            "mp.pe_imbalance": max(executed) / mean if mean else 0.0,
        }
        # Real processes interleave differently every run: no fingerprint.
        return Verdict(nodes, failed, None, values)


def workloads(smoke: bool = False) -> dict:
    """The four workloads by name; ``smoke`` shrinks each for the tests."""
    if smoke:
        return {
            "bpc64": Bpc(
                npes=8,
                params=BpcParams(n_consumers=8, depth=4,
                                 consumer_time=1e-3, producer_time=200e-6),
            ),
            "serve_sdc": Serving(horizon_s=100e-6, oracle=False),
            "serve_sdc_checked": Serving(horizon_s=50e-6, oracle=True,
                                         trace_seed=0),
            "mp_uts": MpUts(tree=TEST_TINY),
        }
    return {
        "bpc64": Bpc(),
        "serve_sdc": Serving(horizon_s=40e-3, oracle=False),
        # One fixed trace: at a 1 ms horizon, engine events per arrival
        # (and so oracle checks per arrival) vary by 22% between trace
        # seeds, and by 1.6% between pool seeds on one trace.
        "serve_sdc_checked": Serving(horizon_s=1e-3, oracle=True,
                                     trace_seed=0),
        "mp_uts": MpUts(),
    }
