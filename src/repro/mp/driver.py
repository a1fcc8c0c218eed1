"""Process-pool PE driver: end-to-end workloads across real processes.

Each PE is a real OS process owning one mp stealval queue in the shared
symmetric heap; idle PEs steal from victims with steal-half volumes and
(for SWS) the paper's §4.3 damping state machine, exactly as the
simulated runtime does — but here the interleavings come from the
kernel scheduler across address spaces, not from a discrete-event loop.

Workloads:

* ``synthetic`` — a flat bag of ``ntasks`` independent tasks seeded on
  PE 0; every other PE starts empty, so all load balance comes from
  stealing.
* ``uts`` — an Unbalanced Tree Search over a named SHA-1 tree
  (:mod:`repro.workloads.uts`); tasks are 20-byte node states packed
  into 4 shared words, children are enqueued locally and shared on
  demand.
* ``serve`` — open-system arrivals (:func:`run_mp_serve`): 2-word
  ``(seq, post_ns)`` records fed through per-rank inboxes.

All three run the same PE loop (:func:`_pe_loop`); serving and the
crash-tolerant regime switch on hooks that are inert by default.

Termination uses two global counters (``created`` / ``completed``) with
the monotone argument: ``completed <= created`` always, and reading
``completed`` *before* ``created`` makes an observed equality stable —
every created task has executed, nothing is in flight.

Steal attempts are classified with the simulator's own
:class:`repro.core.results.StealStatus`, and per-PE stats aggregate into
:class:`MpRunResult` whose ``summary()`` feeds the sweep runner and the
``python -m repro mp`` subcommand.
"""

from __future__ import annotations

import os
import random
import struct
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from queue import Empty

from ..core.damping import DampingTracker, TargetMode
from ..core.results import StealStatus
from ..core.stealval import StealValEpoch
from ..shmem.heap import SymmetricAllocator
from ..threads.protocol import Backoff
from ..workloads.uts import STATE_BYTES, UtsParams, expander, get_tree
from .atomics import _preferred_context, pid_alive
from .errors import MpStallError, RingOverflowError
from .faults import CrashInjector, CrashPlan, NO_CRASHES
from .heap import MpHeap
from .queue import SdcQueueLayout, SwsQueueLayout
from .recovery import CrashRegions, ShmInbox, scavenge_rank

_U64 = (1 << 64) - 1

#: Local-queue size below which a PE does not bother sharing.
RELEASE_MIN = 4

#: Hard deadline on a PE's idle wait with no global progress: pre-lease
#: deadlocks fail fast with a diagnostic instead of hanging the job.
MP_IDLE_STALL_S = 120.0

#: Completion-wait deadline in crash mode, after which the owner checks
#: for (and voids) claims held by dead thieves.
CRASH_SETTLE_S = 2.0

#: Consecutive stable supervisor sweeps required to declare quiescence.
STABLE_SWEEPS = 3


def _mix64(x: int) -> int:
    """Splitmix64 finalizer: an order-independent task fingerprint."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return (x ^ (x >> 31)) & _U64


# ----------------------------------------------------------------------
# Task codecs: workload payloads <-> tuples of 64-bit words
# ----------------------------------------------------------------------

#: A UTS node's 20-byte state as words 0-2 (little-endian u64, u64, u32).
_UTS_STATE = struct.Struct("<QQI")


def encode_uts(state: bytes, depth: int, is_root: bool) -> tuple[int, int, int, int]:
    """Pack a UTS node (20-byte SHA-1 state + depth + root flag) into 4 words."""
    if len(state) != STATE_BYTES:
        raise ValueError(f"state must be {STATE_BYTES} bytes, got {len(state)}")
    return (*_UTS_STATE.unpack(state), depth | (int(is_root) << 32))


def decode_uts(words) -> tuple[bytes, int, bool]:
    """Inverse of :func:`encode_uts`."""
    w0, w1, w2, w3 = words
    return (_UTS_STATE.pack(w0, w1, w2 & 0xFFFFFFFF), w3 & 0xFFFFFFFF,
            bool(w3 >> 32))


def _fp_uts(words) -> int:
    return _mix64(words[0] ^ words[2])


def synthetic_expected(ntasks: int) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) for the flat synthetic bag."""
    chk = 0
    for i in range(ntasks):
        chk ^= _mix64(i)
    return ntasks, chk


def uts_expected(params: UtsParams, max_nodes: int | None = 2_000_000) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) via a sequential DFS oracle."""
    count = 0
    chk = 0
    children_of = expander(params)
    stack: list[tuple[bytes, int, bool]] = [(params.root(), 0, True)]
    while stack:
        state, depth, is_root = stack.pop()
        count += 1
        if max_nodes is not None and count > max_nodes:
            raise RuntimeError(f"tree exceeded max_nodes={max_nodes}")
        chk ^= _fp_uts(encode_uts(state, depth, is_root))
        for c in children_of(state, depth, is_root):
            stack.append((c, depth + 1, False))
    return count, chk


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------

@dataclass
class MpPeStats:
    """One PE process's accounting for a run."""

    rank: int
    executed: int = 0
    checksum: int = 0
    steals: dict = field(default_factory=dict)      # StealStatus.value -> count
    steal_volumes: list = field(default_factory=list)
    probes: int = 0
    probe_aborts: int = 0
    demotions: int = 0
    promotions: int = 0
    releases: int = 0
    acquires: int = 0

    @property
    def tasks_stolen(self) -> int:
        return sum(self.steal_volumes)


@dataclass
class MpRunResult:
    """Aggregate outcome of one multiprocess run."""

    workload: str
    impl: str
    npes: int
    seed: int
    created: int
    completed: int
    wall_s: float
    pes: list[MpPeStats] = field(default_factory=list)
    expected_executed: int | None = None
    expected_checksum: int | None = None
    # -- crash-mode (at-least-once) accounting -------------------------
    #: True when a CrashPlan was active: tasks may legitimately execute
    #: more than once, and the oracle becomes duplicate-aware.
    at_least_once: bool = False
    crashed_ranks: list[int] = field(default_factory=list)
    respawned_ranks: list[int] = field(default_factory=list)
    #: Tasks recovered from dead PEs, by source (queue/ring/inflight/...).
    scavenged: dict = field(default_factory=dict)
    #: Stripe lease breaks performed across the whole run.
    lease_breaks: int = 0
    #: Wall time spent detecting deaths, repairing and re-injecting.
    recovery_wall_s: float = 0.0
    #: Distinct tasks executed (xlog union) and their xor fingerprint.
    executed_unique: int | None = None
    unique_checksum: int | None = None
    #: multiplicity -> how many distinct tasks ran that many times.
    multiplicity: dict = field(default_factory=dict)

    @property
    def total_executed(self) -> int:
        return sum(p.executed for p in self.pes)

    @property
    def checksum(self) -> int:
        chk = 0
        for p in self.pes:
            chk ^= p.checksum
        return chk

    @property
    def total_steals(self) -> int:
        return sum(
            p.steals.get(StealStatus.STOLEN.value, 0) for p in self.pes
        )

    @property
    def conserved(self) -> bool:
        """No task lost, as far as the books can tell.

        Exactly-once runs require the full counter/checksum equalities.
        At-least-once (crash) runs require the *deduplicated* executed
        set to match the sequential oracle exactly — every task ran at
        least once (``executed >= expected`` follows), and the xor over
        distinct fingerprints reconciles; duplicates are legitimate.
        """
        if self.at_least_once:
            ok = True
            if self.expected_executed is not None:
                ok = (
                    self.executed_unique == self.expected_executed
                    and self.total_executed >= self.expected_executed
                )
            if self.expected_checksum is not None:
                ok = ok and self.unique_checksum == self.expected_checksum
            return ok
        ok = self.created == self.completed == self.total_executed
        if self.expected_executed is not None:
            ok = ok and self.total_executed == self.expected_executed
        if self.expected_checksum is not None:
            ok = ok and self.checksum == self.expected_checksum
        return ok

    def steal_volume_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for p in self.pes:
            for v in p.steal_volumes:
                hist[v] = hist.get(v, 0) + 1
        return dict(sorted(hist.items()))

    def summary(self) -> dict:
        """Flat JSON-ready record (sweep payload / CLI output)."""
        out = {
            "workload": self.workload,
            "impl": self.impl,
            "npes": self.npes,
            "seed": self.seed,
            "created": self.created,
            "completed": self.completed,
            "executed": self.total_executed,
            "conserved": self.conserved,
            "steals": self.total_steals,
            "tasks_stolen": sum(p.tasks_stolen for p in self.pes),
            "wall_s": round(self.wall_s, 4),
        }
        if self.at_least_once:
            out.update({
                "at_least_once": True,
                "crashed_ranks": list(self.crashed_ranks),
                "respawned_ranks": list(self.respawned_ranks),
                "executed_unique": self.executed_unique,
                "duplicates": (
                    None if self.executed_unique is None
                    else self.total_executed - self.executed_unique
                ),
                "multiplicity": dict(self.multiplicity),
                "scavenged": dict(self.scavenged),
                "lease_breaks": self.lease_breaks,
                "recovery_wall_s": round(self.recovery_wall_s, 4),
            })
        return out


# ----------------------------------------------------------------------
# The PE process body
#
# One loop runs every regime: execute local tasks, share half on demand,
# feed, reclaim, steal, and test for termination.  The plain regime is
# the loop with every hook off.  Serving turns on the ``feed`` hook (its
# arrival inbox) and the ``closed`` gate on termination; its execute
# step is the "serve" workload.  Crash mode turns on the hooks of
# :class:`_CrashHooks`.  A hook that is off costs its site one ``is
# None`` test.
# ----------------------------------------------------------------------

def _pe_main(
    rank, npes, heap, layouts, impl, wl, ctl, seed, damping, outq,
    crash=None, inboxes=None,
) -> None:
    """One PE: execute local tasks, share on demand, steal when starved."""
    try:
        stats = _pe_loop(rank, npes, heap, layouts, impl, wl, ctl, seed,
                         damping, crash, inboxes)
        outq.put(("ok", rank, stats))
    except BaseException:
        import traceback

        outq.put(("error", rank, traceback.format_exc()))


def _bind_workload(kind, arg):
    """(rank-0 seed tasks, execute, fingerprint, report) for a workload spec.

    ``report`` is None, or returns extra entries for the PE's stats
    payload.
    """
    if kind == "synthetic":
        return range(arg), (lambda payload: ()), _mix64, None
    if kind == "uts":
        params = arg
        children_of = expander(params)
        pack, unpack = _UTS_STATE.pack, _UTS_STATE.unpack

        def execute(payload):
            # decode_uts/encode_uts inlined: the words come from a
            # 4-word record, so the state is 20 bytes by construction.
            w0, w1, w2, w3 = payload
            depth = w3 & 0xFFFFFFFF
            kids = children_of(pack(w0, w1, w2 & 0xFFFFFFFF), depth, w3 >> 32)
            if not kids:
                return kids
            d1 = depth + 1
            return [(*unpack(c), d1) for c in kids]

        return [encode_uts(params.root(), 0, True)], execute, _fp_uts, None
    if kind == "serve":
        # Records are (arrival seq, post ns): executing one records its
        # post-to-execution latency, and arrivals spawn nothing.
        from ..runtime.stats import QuantileSketch

        slo_ns = arg
        sketch = QuantileSketch()
        attained = [0]

        def execute(payload):
            lat = time.monotonic_ns() - payload[1]
            sketch.add(lat)
            if slo_ns and lat <= slo_ns:
                attained[0] += 1
            return ()

        def report():
            return {"serve_sketch": sketch.to_dict(),
                    "serve_slo_attained": attained[0]}

        return (), execute, (lambda payload: _mix64(payload[0])), report
    raise ValueError(f"unknown workload {kind!r}")


def _shared_work_test(impl, heap, layout):
    """A zero-argument test: does this PE's shared queue expose work?

    The owner runs it after every executed task, and the crash
    supervisor in each sweep.  The seqlock read keeps it off the stripe
    locks the thieves' claims are hammering, and the SWS verdict is
    cached against the raw word (claims change the word, so a stale
    verdict is impossible).
    """
    if impl == "sws":
        stealval = heap.ref(layout.stealval)
        sv_cache = [None, False]

        def shared_has_work() -> bool:
            raw = stealval.load_seq()
            if raw != sv_cache[0]:
                sv_cache[0] = raw
                sv_cache[1] = DampingTracker.view_has_work(
                    StealValEpoch.unpack(raw)
                )
            return sv_cache[1]
    else:
        split, tail = heap.ref(layout.split), heap.ref(layout.tail)

        def shared_has_work() -> bool:
            return split.load_seq() - tail.load_seq() > 0

    return shared_has_work


class _LocalDeque(deque):
    """The private task store, with :class:`ShmRing`'s share-side API."""

    __slots__ = ()

    def peek_left_block(self, count: int) -> list:
        return list(islice(self, count))

    def drop_left(self, count: int) -> None:
        for _ in range(count):
            self.popleft()


class _CrashHooks:
    """The crash regime's hooks into the PE loop (CrashPlan active).

    The local store becomes the PE's shared ring, popped through the
    in-flight journal; every execution is fingerprint-logged; arriving
    work bumps the activity word and clears the idle flag the
    supervisor's quiescence sweep reads; thieves record steal intents
    and skip dead victims; the plan's injector kills the process at its
    trigger.  The PE exits on the supervisor's stop word, because
    created/completed cannot be exactly reconciled once a crash has
    lost batched completions or double-created children.
    """

    def __init__(self, rank, npes, heap, layouts, impl, owner, thieves,
                 plan, regions, fresh) -> None:
        pe = self.pe = regions.bind(heap, rank)
        pe.pid.store(os.getpid())
        self.ring = pe.ring
        self.fresh = fresh
        self.heap = heap
        owner.stall_s = CRASH_SETTLE_S
        if impl == "sws":
            owner.dead_claimant = lambda token: not pid_alive(token)
        for v, thief in thieves.items():
            thief.intent = self._intent_for(v)
            if impl == "sws":
                thief.claim_token = os.getpid()
        self.injector = CrashInjector(plan, rank, npes)
        self.die_at_steal = False
        self.sv_index = heap.index(
            layouts[rank].stealval if impl == "sws" else layouts[rank].lock
        )
        self.hb = 0
        self.idle = pe.idle.load()
        self.act = pe.act.load()

    def _intent_for(self, victim: int):
        def intent(start, count):
            self.pe.intent_set(victim, start, count)
            if self.die_at_steal:
                self.injector.die()   # mid-steal: claim won, loot not copied
        return intent

    def _beat(self) -> None:
        self.hb += 1
        self.pe.hb.store(self.hb)

    def _bump_act(self) -> None:
        self.act += 1
        self.pe.act.store(self.act)

    def active(self) -> None:
        """Work arrived: bump the activity word, clear the idle flag."""
        self._bump_act()
        if self.idle:
            self.idle = 0
            self.pe.idle.store(0)

    def executed(self, fp: int) -> None:
        """Log a task whose children are in the ring; retire its journal."""
        self._beat()
        self.pe.xlog.append(fp)
        self._bump_act()
        self.pe.inflight_clear()
        point = self.injector.maybe_die()
        if point == "steal":
            self.die_at_steal = True      # next winning claim dies mid-copy
        elif point == "lock":
            self.heap.words.die_holding(self.sv_index)

    def feed(self) -> bool:
        """Once per starved pass: beat, then take re-injected orphans."""
        self._beat()
        got = self.pe.inbox.drain()
        if not got:
            return False
        self.ring.extend(got)
        self.active()
        return True

    def stole(self, loot) -> None:
        self.active()
        self.ring.extend(loot)
        self.pe.intent_clear()            # loot durable: intent retired

    def live(self, order):
        dead = self.pe.dead
        return (v for v in order if not dead[v].load_seq())

    def stopped(self) -> bool:
        """Nothing anywhere: flag idle; exit once the stop word is up."""
        if not self.idle:
            self.idle = 1
            self.pe.idle.store(1)
        return bool(self.pe.stop.load_seq())


def _pe_loop(rank, npes, heap, layouts, impl, wl, ctl, seed, damping,
             crash=None, inboxes=None) -> dict:
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])
    closed = heap.ref(ctl["closed"]) if "closed" in ctl else None
    owner = layouts[rank].owner(heap)
    thieves = {
        v: layouts[v].thief(heap) for v in range(npes) if v != rank
    }
    victims = sorted(thieves)
    rng = random.Random((seed * 1_000_003) ^ rank)
    tracker = DampingTracker(npes, enabled=damping and impl == "sws")
    stats = MpPeStats(rank=rank)
    shared_has_work = _shared_work_test(impl, heap, layouts[rank])
    seed_tasks, execute, fingerprint, report = _bind_workload(*wl)

    cr = feed = None
    if crash is not None:
        cr = _CrashHooks(rank, npes, heap, layouts, impl, owner, thieves,
                         *crash)
        local, feed = cr.ring, cr.feed
    else:
        local = _LocalDeque()
    if inboxes is not None:
        inbox = _serve_inbox(heap, inboxes[rank])

        def feed() -> bool:
            fresh = inbox.drain()
            local.extend(fresh)
            return bool(fresh)

    # Tasks the owner takes back (a release's unclaimed remainder, an
    # acquire's half, voided dead claims) land straight in the store.
    owner.owner_kept = local
    if rank == 0 and (cr is None or cr.fresh):
        local.extend(seed_tasks)

    def try_share() -> None:
        # The caller has checked len(local) >= RELEASE_MIN.
        if owner.nfilled >= owner.capacity or shared_has_work():
            return
        batch = local.peek_left_block(len(local) // 2)
        pushed = owner.push_all(batch)
        if pushed:
            owner.release(pushed)
            stats.releases += 1
        # Drop the shared-out records only now (any that did not fit
        # stay): a crash before this point duplicates them (scavenger +
        # steal queue), never loses them.
        local.drop_left(pushed)

    def try_steal_from(victim: int) -> bool:
        thief = thieves[victim]
        if impl == "sws":
            if tracker.mode(victim) is TargetMode.EMPTY:
                view = StealValEpoch.unpack(thief.probe())
                tracker.note_probe(victim, DampingTracker.view_has_work(view))
                if tracker.mode(victim) is TargetMode.EMPTY:
                    return False             # probe said empty: no AMO spent
            res = thief.steal()
            if res.claimed:
                status = StealStatus.STOLEN
                tracker.note_success(victim)
            elif res.aborted_locked:
                status = StealStatus.DISABLED
            else:
                status = StealStatus.EMPTY
                tracker.note_failed_claim(victim, res.view)
        else:
            res = thief.steal(max_spins=200)
            if res.claimed:
                status = StealStatus.STOLEN
            elif res.empty:
                status = StealStatus.EMPTY
            else:
                status = StealStatus.LOCKED_ABORT
        stats.steals[status.value] = stats.steals.get(status.value, 0) + 1
        if res.claimed:
            stats.steal_volumes.append(len(res.claimed))
            if cr is None:
                local.extend(res.claimed)
            else:
                cr.stole(res.claimed)
            return True
        return False

    # Completion increments are batched locally and flushed whenever the
    # local store drains (and before any termination read).  Deferring
    # ``completed`` only ever *understates* it, so the global invariant
    # ``completed <= created`` survives; ``created`` must stay prompt —
    # children become stealable at the next release, and their creation
    # has to be on the books before any other PE can complete them.
    done_pending = 0

    def _idle_stall() -> bool:
        # Repair any dead-holder stripes first; if nothing was stuck on
        # a corpse, this is a genuine livelock — name the rank and die.
        if heap.words.break_dead_leases():
            return True
        raise MpStallError("PE idle loop made no progress", rank=rank,
                           waited_s=MP_IDLE_STALL_S)

    idle = Backoff(sleep_s=1e-5, max_sleep_s=1e-3,
                   deadline_s=MP_IDLE_STALL_S, on_deadline=_idle_stall)
    # Per-task counters live in locals and reach ``stats`` once, at exit.
    executed = checksum = 0
    pop, extend, release_min = local.pop, local.extend, RELEASE_MIN
    while True:
        if local:
            payload = pop()               # crash mode: journaled first
            children = execute(payload)
            if children:
                created.fetch_add(len(children))
                extend(children)
            fp = fingerprint(payload)
            if cr is not None:
                cr.executed(fp)
            done_pending += 1
            executed += 1
            checksum ^= fp
            if len(local) >= release_min:
                try_share()
            continue
        if done_pending:
            completed.fetch_add(done_pending)
            done_pending = 0
        if feed is not None and feed():
            idle.reset()
            continue
        # Local store empty: reclaim our own shared remainder first.
        owner.acquire()
        stats.acquires += 1
        if local:
            if cr is not None:
                cr.active()
            idle.reset()
            continue
        # Steal sweep over victims in a fresh random order.
        order = rng.sample(victims, len(victims))
        if cr is not None:
            order = cr.live(order)
        if any(try_steal_from(v) for v in order):
            idle.reset()
            continue
        # Nothing anywhere: may this PE exit?
        if cr is not None:
            if cr.stopped():
                break
        elif closed is None or closed.load_seq():
            # Are the books balanced?  (completed first!)
            done = completed.load_seq()
            if done == created.load_seq():
                break
        idle.wait()

    stats.executed = executed
    stats.checksum = checksum
    stats.probes = tracker.stats.probes
    stats.probe_aborts = tracker.stats.probe_aborts
    stats.demotions = tracker.stats.demotions
    stats.promotions = tracker.stats.promotions
    payload = stats.__dict__
    if report is not None:
        payload.update(report())
    return payload


# ----------------------------------------------------------------------
# The parent-side runners
# ----------------------------------------------------------------------

class _MpJob:
    """One run's shared heap, PE processes and report queue.

    The constructor reserves the per-PE queues and the ``ctl`` words;
    the caller reserves anything else (crash regions, serving inboxes),
    then :meth:`launch` freezes the heap and starts one process per
    rank.  Leaving the ``with`` block kills any stragglers *before*
    unlinking, so no live mapping outlasts the segment, then destroys it
    exactly once, on every exit path.
    """

    def __init__(self, impl, npes, capacity, wpt,
                 ctl_words=("created", "completed")) -> None:
        self.impl = impl
        self.npes = npes
        self.ctx = _preferred_context()
        self.heap = MpHeap(ctx=self.ctx)
        layout_cls = SwsQueueLayout if impl == "sws" else SdcQueueLayout
        self.layouts = [
            layout_cls.reserve(self.heap, f"pe{r}", capacity,
                               words_per_task=wpt)
            for r in range(npes)
        ]
        alloc = SymmetricAllocator(self.heap, "ctl")
        self.ctl = {name: alloc.word(name) for name in ctl_words}
        alloc.commit()
        self.procs: dict[int, object] = {}
        self.reports: list[dict] = []
        self.errors: list[str] = []

    def __enter__(self) -> "_MpJob":
        return self

    def __exit__(self, *exc) -> None:
        for p in self.procs.values():
            if p.is_alive():
                p.terminate()
        for p in self.procs.values():
            p.join(timeout=5)
        self.heap.close()
        self.heap.unlink()

    def word(self, name: str):
        return self.heap.ref(self.ctl[name])

    def launch(self, wl, seed, damping, created=0, **regime) -> None:
        """Freeze the heap, book ``created`` seed tasks, start every PE."""
        self.heap.freeze()
        self.word("created").store(created)
        self.outq = self.ctx.Queue()
        self._args = (self.npes, self.heap, self.layouts, self.impl, wl,
                      self.ctl, seed, damping, self.outq)
        procs = [self._process(r, regime) for r in range(self.npes)]
        self.t0 = time.perf_counter()
        for p in procs:
            p.start()

    def spawn(self, rank, **regime) -> None:
        """Restart rank's process; ``regime`` goes to :func:`_pe_main`."""
        self._process(rank, regime).start()

    def _process(self, rank, regime):
        p = self.procs[rank] = self.ctx.Process(
            target=_pe_main, args=(rank, *self._args), kwargs=regime,
            daemon=True,
        )
        return p

    def _file(self, report) -> None:
        status, rank, payload = report
        if status == "ok":
            self.reports.append(payload)
        else:
            self.errors.append(f"PE {rank}:\n{payload}")

    def drain(self) -> None:
        """File every report already queued, without waiting."""
        while True:
            try:
                self._file(self.outq.get_nowait())
            except Empty:
                return

    def collect(self, join_timeout: float, what: str) -> float:
        """Wait for one report per rank, reap the processes, and return
        the wall time from launch to the last report."""
        for _ in range(self.npes):
            self._file(self.outq.get(timeout=join_timeout))
        wall = time.perf_counter() - self.t0
        for p in self.procs.values():
            p.join(timeout=join_timeout)
            if p.is_alive():
                p.terminate()
                self.errors.append("PE process failed to exit after reporting")
        self.check(what)
        return wall

    def check(self, what: str) -> None:
        if self.errors:
            raise RuntimeError(f"{what}:\n" + "\n".join(self.errors))

    def pe_stats(self) -> list[MpPeStats]:
        return sorted((MpPeStats(**p) for p in self.reports),
                      key=lambda s: s.rank)


def run_mp(
    workload: str = "synthetic",
    impl: str = "sws",
    npes: int = 4,
    *,
    ntasks: int = 2000,
    tree: str | UtsParams = "test_tiny",
    seed: int = 0,
    damping: bool = True,
    capacity: int | None = None,
    verify: bool = False,
    join_timeout: float = 120.0,
    crash: CrashPlan | None = None,
) -> MpRunResult:
    """Run one workload end-to-end across ``npes`` real processes.

    With ``verify=True`` the expected node count and checksum are
    computed by a sequential oracle and attached to the result, making
    ``result.conserved`` a zero-lost / zero-duplicated proof.

    With an active ``crash`` plan the run switches to the crash-tolerant
    regime: shared-memory rings instead of private deques, a supervisor
    that scavenges and re-injects dead PEs' work, and duplicate-aware
    at-least-once accounting (the oracle is always computed).  Without a
    plan none of that machinery is allocated and the run is bit-identical
    to the non-crash driver.
    """
    if impl not in ("sws", "sdc"):
        raise ValueError(f"impl must be sws|sdc, got {impl!r}")
    if workload not in ("synthetic", "uts"):
        raise ValueError(f"workload must be synthetic|uts, got {workload!r}")
    if npes < 2:
        raise ValueError(f"npes must be >= 2, got {npes}")

    if workload == "synthetic":
        wl = ("synthetic", ntasks)
        wpt = 1
        capacity = capacity or max(256, 2 * ntasks)
        nseed = ntasks
    else:
        params = tree if isinstance(tree, UtsParams) else get_tree(tree)
        wl = ("uts", params)
        wpt = 4
        capacity = capacity or (1 << 14)
        nseed = 1

    with _MpJob(impl, npes, capacity, wpt) as job:
        if crash is not None and crash.active:
            return _run_mp_crash(job, workload, wl, wpt, nseed, seed,
                                 damping, join_timeout, crash)
        job.launch(wl, seed, damping, created=nseed)
        wall = job.collect(join_timeout, "mp run failed")
        result = MpRunResult(
            workload=workload,
            impl=impl,
            npes=npes,
            seed=seed,
            created=job.word("created").load(),
            completed=job.word("completed").load(),
            wall_s=wall,
            pes=job.pe_stats(),
        )
    if verify:
        if workload == "synthetic":
            exp_n, exp_chk = synthetic_expected(ntasks)
        else:
            exp_n, exp_chk = uts_expected(wl[1])
        result.expected_executed = exp_n
        result.expected_checksum = exp_chk
    return result


def _sweep_quiescent(heap, layouts, impl, regions, live_ranks):
    """One supervisor observation: is the system plausibly done?

    Quiescent iff every live PE flags idle, no inbox holds undelivered
    re-injections, no ring holds queued work, and no live shared queue
    exposes stealable tasks.  Returns ``(verdict, act vector)``; the
    caller additionally requires the act vector (per-PE activity
    counters) to hold still across ``STABLE_SWEEPS`` consecutive
    quiescent sweeps, which closes the claim-in-flight races a single
    observation cannot see.
    """
    idle_w = heap.slice(regions.idle)
    for r in live_ranks:
        if not idle_w[r].load_seq():
            return False, None
    acts = tuple(
        (r, heap.slice(regions.act)[r].load_seq()) for r in live_ranks
    )
    for r in live_ranks:
        pe = regions.bind(heap, r)
        if (pe.inbox.pending() or len(pe.ring)
                or _shared_work_test(impl, heap, layouts[r])()):
            return False, None
    return True, acts


def _run_mp_crash(job, workload, wl, wpt, nseed, seed, damping,
                  join_timeout, crash) -> MpRunResult:
    """Crash-tolerant mp run: workers + a scavenging supervisor.

    The supervisor watches process liveness (and heartbeat words for
    diagnostics); on a death it quarantines the rank, breaks its stripe
    leases, scavenges every shared structure the corpse owned, re-injects
    the orphans to a survivor's inbox, and optionally respawns the rank.
    Termination is a stop word raised once ``STABLE_SWEEPS`` consecutive
    sweeps observe global quiescence.
    """
    # The sequential oracle runs up front: duplicate-aware accounting
    # needs the expected set anyway, and its size bounds the shared
    # rings and fingerprint logs.
    if workload == "synthetic":
        exp_n, exp_chk = synthetic_expected(wl[1])
    else:
        exp_n, exp_chk = uts_expected(wl[1])

    heap, layouts, impl, procs = job.heap, job.layouts, job.impl, job.procs
    failed = "mp crash run failed"
    regions = CrashRegions.reserve(
        heap, job.npes, wpt,
        ring_cap=2 * exp_n + 64,
        xlog_cap=2 * exp_n + 64,
        inbox_cap=exp_n + 64,
    )
    job.launch(wl, seed, damping, created=nseed,
               crash=(crash, regions, True))

    crashed: list[int] = []
    respawned: list[int] = []
    scavenged: Counter = Counter()
    recovery_wall = 0.0
    dead_flags = heap.slice(regions.dead)
    stop = heap.ref(regions.stop)
    stable = 0
    prev_acts = None
    inject_rr = 0
    accounted: set[int] = set()
    deadline = time.monotonic() + join_timeout

    # -- supervision loop ---------------------------------------------
    while True:
        job.drain()
        job.check(failed)
        for r, p in list(procs.items()):
            if p.is_alive() or r in accounted:
                continue
            accounted.add(r)
            if p.exitcode == 0:
                continue            # clean exit; stats via outq
            # Fail-stop detected: quarantine, repair, scavenge.
            t1 = time.perf_counter()
            crashed.append(r)
            dead_flags[r].store(1)
            heap.words.break_dead_leases()
            tasks, breakdown = scavenge_rank(heap, layouts, impl, regions, r)
            scavenged.update(breakdown)
            # The dead incarnation's durable accounting: its fingerprint
            # log (a respawn appends after this point, so the two
            # incarnations never overlap).
            fps = regions.bind(heap, r).xlog.read_all()
            chk = 0
            for f in fps:
                chk ^= f
            job.reports.append({"rank": r, "executed": len(fps),
                                "checksum": chk})
            if tasks:
                live = [x for x, pp in procs.items() if pp.is_alive()]
                if not live:
                    raise MpStallError(
                        "every PE died; orphan work cannot be re-injected"
                    )
                target = live[inject_rr % len(live)]
                inject_rr += 1
                regions.bind(heap, target).inbox.post(tasks)
            if crash.respawn:
                dead_flags[r].store(0)
                job.spawn(r, crash=(NO_CRASHES, regions, False))
                accounted.discard(r)
                respawned.append(r)
            recovery_wall += time.perf_counter() - t1
            stable, prev_acts = 0, None
        live_ranks = [r for r, p in procs.items() if p.is_alive()]
        if not live_ranks:
            break                  # everyone exited (or crashed out)
        quiet, acts = _sweep_quiescent(heap, layouts, impl, regions,
                                       live_ranks)
        if quiet and acts == prev_acts:
            stable += 1
            if stable >= STABLE_SWEEPS:
                stop.store(1)
                break
        else:
            stable = 0
        prev_acts = acts
        if time.monotonic() > deadline:
            raise MpStallError("crash-mode supervisor saw no quiescence",
                               waited_s=join_timeout)
        time.sleep(0.02)

    # -- shutdown: collect the survivors ------------------------------
    while any(p.is_alive() for p in procs.values()):
        job.drain()
        job.check(failed)
        if time.monotonic() > deadline:
            raise MpStallError("PE processes failed to exit after stop",
                               waited_s=join_timeout)
        time.sleep(0.01)
    job.drain()
    job.check(failed)
    wall = time.perf_counter() - job.t0

    # -- duplicate-aware accounting from the fingerprint logs ----------
    all_fps: list[int] = []
    for r in range(job.npes):
        all_fps.extend(regions.bind(heap, r).xlog.read_all())
    counts = Counter(all_fps)
    unique_chk = 0
    for f in counts:
        unique_chk ^= f
    multiplicity = dict(sorted(Counter(counts.values()).items()))

    return MpRunResult(
        workload=workload,
        impl=impl,
        npes=job.npes,
        seed=seed,
        created=job.word("created").load(),
        completed=job.word("completed").load(),
        wall_s=wall,
        pes=job.pe_stats(),
        expected_executed=exp_n,
        expected_checksum=exp_chk,
        at_least_once=True,
        crashed_ranks=crashed,
        respawned_ranks=respawned,
        scavenged=dict(scavenged),
        lease_breaks=heap.words.repairs_total(),
        recovery_wall_s=recovery_wall,
        executed_unique=len(counts),
        unique_checksum=unique_chk,
        multiplicity=multiplicity,
    )


# ----------------------------------------------------------------------
# Open-system serving mode (docs/serving.md)
#
# The parent process is the arrival feeder: it replays a seeded arrival
# trace (in arrival order) into per-rank SPSC inboxes, bumping the
# global ``created`` counter *before* each post so the created/completed
# books can never balance while an injection is still in flight.  PEs
# run the one loop with the feed hook draining their inbox into the
# local deque; each record carries ``(seq, post_ns)`` so completion
# latency survives steals.  Termination: the feeder sets ``closed`` after
# the last post, and a starved PE exits once ``closed`` is set and
# ``completed == created`` (completed read first, as ever).
# ----------------------------------------------------------------------

#: Serving records are (arrival seq, post timestamp ns) pairs.
_SERVE_WPT = 2


@dataclass
class MpServeResult:
    """Everything one mp serving run produced."""

    impl: str
    npes: int
    seed: int
    created: int
    completed: int
    wall_s: float
    pes: list["MpPeStats"] = field(default_factory=list)
    serving: "ServingStats | None" = None

    @property
    def checksum(self) -> int:
        chk = 0
        for s in self.pes:
            chk ^= s.checksum
        return chk

    def summary(self) -> dict:
        out = {
            "impl": self.impl,
            "npes": self.npes,
            "created": self.created,
            "completed": self.completed,
            "wall_s": round(self.wall_s, 4),
            "tasks_per_s": (
                round(self.completed / self.wall_s, 1) if self.wall_s > 0 else 0.0
            ),
            "checksum": self.checksum,
        }
        if self.serving is not None:
            pct = self.serving.latency.percentiles()
            out.update(
                {
                    "injected": self.serving.injected,
                    "p50_ns": round(pct["p50"], 1),
                    "p99_ns": round(pct["p99"], 1),
                    "p999_ns": round(pct["p999"], 1),
                    "slo_fraction": round(self.serving.slo_fraction, 4),
                }
            )
        return out


def _reserve_serve_inbox(heap, rank: int, capacity: int):
    """Symmetric rd/wr/buf words for one PE's arrival inbox."""
    alloc = SymmetricAllocator(heap, f"serve{rank}")
    rd = alloc.word("rd")
    wr = alloc.word("wr")
    buf = alloc.array("buf", capacity * _SERVE_WPT)
    alloc.commit()
    return (rd, wr, buf, capacity)


def _serve_inbox(heap, region) -> ShmInbox:
    rd, wr, buf, capacity = region
    return ShmInbox(heap, rd, wr, buf, capacity, _SERVE_WPT)


def run_mp_serve(
    arrival="poisson:50000",
    duration_s: float = 2e-3,
    impl: str = "sws",
    npes: int = 4,
    *,
    seed: int = 0,
    slo_s: float = 0.0,
    damping: bool = True,
    capacity: int | None = None,
    inbox_cap: int | None = None,
    nbatches: int = 16,
    pace_s: float = 2e-4,
    join_timeout: float = 120.0,
) -> MpServeResult:
    """Serve one arrival trace across ``npes`` real processes.

    The trace's *order* is replayed (the mp substrate has no virtual
    clock): the parent feeds batches round-robin into per-rank inboxes
    with ``pace_s`` gaps, and latency is wall-clock nanoseconds from post
    to execution, surviving steals because the stamp travels inside the
    2-word task record.  No shedding on this substrate — every emitted
    arrival is injected, so ``checksum`` must equal the fabric/threads
    serving checksum for the same trace length.

    A rank's share of a batch is posted in chunks of at most
    ``inbox_cap`` records.  A chunk that finds no room within
    ``join_timeout`` seconds, or whose PE has exited, raises
    :class:`MpStallError` naming the rank.
    """
    from ..runtime.arrivals import parse_arrival_spec
    from ..runtime.stats import QuantileSketch, ServingStats

    if impl not in ("sws", "sdc"):
        raise ValueError(f"impl must be sws|sdc, got {impl!r}")
    if npes < 2:
        raise ValueError(f"npes must be >= 2, got {npes}")
    for name, value in (("nbatches", nbatches), ("inbox_cap", inbox_cap),
                        ("capacity", capacity)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    n = process.emitted
    capacity = capacity or max(256, 2 * n)
    inbox_cap = inbox_cap or max(64, capacity)
    slo_ns = int(slo_s * 1e9)

    with _MpJob(impl, npes, capacity, _SERVE_WPT,
                ("created", "completed", "closed")) as job:
        inbox_regions = [
            _reserve_serve_inbox(job.heap, r, inbox_cap) for r in range(npes)
        ]
        job.launch(("serve", slo_ns), seed, damping, inboxes=inbox_regions)
        created = job.word("created")
        inboxes = [_serve_inbox(job.heap, reg) for reg in inbox_regions]

        def post(r: int, records: list) -> None:
            t_post = time.monotonic()
            while True:
                try:
                    inboxes[r].post(records)
                    return
                except RingOverflowError:
                    waited = time.monotonic() - t_post
                    if waited > join_timeout or not job.procs[r].is_alive():
                        raise MpStallError(
                            "serving feeder found the inbox full",
                            rank=r, waited_s=waited,
                        ) from None
                    time.sleep(1e-4)

        # -- the feeder: replay the trace in batches, round-robin ------
        batch = -(-n // nbatches)
        injected = 0
        while injected < n:
            seqs = range(injected, min(n, injected + batch))
            by_rank: dict[int, list[int]] = {}
            for s in seqs:
                by_rank.setdefault(s % npes, []).append(s)
            for r in sorted(by_rank):
                group = by_rank[r]
                for i in range(0, len(group), inbox_cap):
                    chunk = group[i:i + inbox_cap]
                    # Count first: the books cannot balance while the
                    # post is still in flight, so no PE exits early.
                    created.fetch_add(len(chunk))
                    stamp = time.monotonic_ns()
                    post(r, [(s, stamp) for s in chunk])
            injected += len(seqs)
            time.sleep(pace_s)
        job.word("closed").store(1)

        wall = job.collect(join_timeout, "mp serve run failed")
        sketch = QuantileSketch()
        slo_attained = 0
        for p in job.reports:
            sketch.merge(QuantileSketch.from_dict(p.pop("serve_sketch")))
            slo_attained += p.pop("serve_slo_attained")
        result = MpServeResult(
            impl=impl,
            npes=npes,
            seed=seed,
            created=created.load(),
            completed=job.word("completed").load(),
            wall_s=wall,
            pes=job.pe_stats(),
        )
    result.serving = ServingStats(
        emitted=n,
        injected=injected,
        shed=0,
        completed=result.completed,
        slo_ticks=slo_ns,
        slo_attained=slo_attained,
        checksum=result.checksum,
        latency=sketch,
    )
    return result
