"""Cross-PE invariant oracles for schedule exploration.

A :class:`PoolOracle` attaches to a :class:`~repro.runtime.pool.TaskPool`
as an engine *observer*: after **every** discrete event it re-checks the
protocol invariants whose violation would mean the steal protocol lost,
duplicated, or corrupted work — exactly the failure modes a racy
interleaving of the paper's fused fetch-add window would produce:

* **per-PE structural sanity** — each queue's ``oracle_check`` hook:
  index ordering, capacity, stealval field ranges, stealval/record
  agreement, epoch accounting (``folded <= claims <= schedule length``);
* **completion-array discipline** — every completion word may only make
  the transitions ``0 -> volume`` (one thief's notification, where the
  steal-half schedule fixes the legal volume), ``volume -> 0`` (owner
  reclaim/turnover) or stay put.  Two thieves claiming the same block
  both add into the same slot, so a **double-claim** surfaces as a
  nonzero-to-different-nonzero transition the instant the second
  notification lands.  A transition can only happen at a word that was
  written, so after a first full pass the check visits only the offsets
  the heap's dirty-word log recorded since the previous check;
* **attempted-steal monotonicity** — within one stealval publication the
  asteals counter may only grow (a shrink means a lost increment);
* **task conservation** — parameterized on the protocol's declared
  semantics contract (:mod:`repro.runtime.protocols`).  Exactly-once
  protocols: tasks resident in queues never exceed ``spawned - executed``
  globally (each event), and at termination the books balance exactly —
  every spawned task executed exactly once and every queue drained.
  At-least-once protocols (the fence-free multiplicity deque): a stale
  tail store may legally re-expose consumed tasks mid-run, so the
  per-event resident bound would false-positive; instead every duplicate
  handout is tallied by the queue *at handout time* and the final books
  must close as ``spawned + dup_handouts == executed`` — a genuinely
  lost task still fails (the sum cannot balance), while a legal
  duplicate cannot.

All checks are read-only; the oracle never perturbs the simulation, so a
clean run under the oracle is bit-identical to the same run without it.
Violations raise :class:`~repro.fabric.errors.OracleViolation`, which the
exploration driver (:mod:`repro.analysis.explore`) pairs with the
scheduler's recorded choice sequence into a replayable failure trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.stealval import StealValEpoch, StealValV1
from ..core.sws_queue import SwsQueue
from ..core.sws_v1_queue import META_REGION as V1_META_REGION
from ..core.sws_v1_queue import STEALVAL as V1_STEALVAL
from ..core.sws_v1_queue import SwsV1Queue
from ..fabric.errors import OracleViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import TaskPool


class PoolOracle:
    """Invariant oracle over every PE of one task pool.

    Construct with the pool, then register :meth:`check` as an engine
    observer (``TaskPool(oracle=True)`` does both).  ``stride`` checks
    every N-th event for long runs; the default checks every event.
    """

    def __init__(self, pool: "TaskPool", stride: int = 1) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.pool = pool
        self.stride = stride
        self.queues = [w.driver.queue for w in pool.workers]
        self.workers = pool.workers
        # Semantics contract: pools built outside the protocol registry
        # (or bare test harnesses) default to strict exactly-once.
        protocol = getattr(pool, "protocol", None)
        self.exactly_once = (
            protocol.semantics.exactly_once if protocol is not None else True
        )
        #: Violations would raise before incrementing, so this counts
        #: clean sweeps — a cheap "the oracle really ran" signal.
        self.checks_passed = 0
        self._events = 0
        # Cross-event tracking state, per PE.  A queue's completion words
        # are tracked through its live heap row plus the heap's log of
        # the offsets written since the last check; ``None`` when the
        # protocol has no completion array.
        heap = pool.ctx.heap
        self._comp: list[tuple[list[int], set[int]] | None] = [
            None if q.oracle_comp_region is None else (
                heap.word_view(q.rank, q.oracle_comp_region),
                heap.dirty_log(q.oracle_comp_region)[q.rank],
            )
            for q in self.queues
        ]
        self._prev_comp: list[list[int] | None] = [None] * pool.npes
        self._prev_sv: list[tuple | None] = [None] * pool.npes

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Run after one engine event; raises :class:`OracleViolation`."""
        self._events += 1
        if self._events % self.stride:
            return
        faults = self.pool.ctx.faults
        now = self.pool.ctx.engine.now
        for q in self.queues:
            if faults is not None and faults.is_dead(q.rank, now):
                continue  # a fail-stopped PE's memory is moot
            q.oracle_check()
            self._check_comp_transitions(q)
            self._check_asteals_monotone(q)
        if faults is None and self.exactly_once:
            self._check_conservation()
        self.checks_passed += 1

    def check_final(self) -> None:
        """End-of-run books: conservation per the semantics contract,
        drained queues."""
        if self.pool.ctx.faults is not None:
            return  # abandoned steals legitimately break conservation
        spawned = sum(w.stats.tasks_spawned for w in self.workers)
        executed = sum(w.stats.tasks_executed for w in self.workers)
        dups = sum(w.driver.spawn_credit for w in self.workers)
        if self.exactly_once:
            if spawned != executed:
                raise OracleViolation(
                    "conservation-final",
                    f"{spawned} tasks spawned but {executed} executed "
                    f"({spawned - executed} lost or duplicated)",
                )
        elif spawned + dups != executed:
            raise OracleViolation(
                "conservation-final",
                f"{spawned} tasks spawned + {dups} duplicate handouts "
                f"but {executed} executed "
                f"({spawned + dups - executed} lost or unaccounted)",
            )
        for w in self.workers:
            drv = w.driver
            if drv.local_count or drv.stealable_remaining:
                raise OracleViolation(
                    "drain-final",
                    f"queue not empty at termination: local={drv.local_count} "
                    f"stealable={drv.stealable_remaining}",
                    pe=w.rank,
                )

    # ------------------------------------------------------------------
    def _check_comp_transitions(self, q) -> None:
        """Completion words: written once per steal, with the legal volume.

        The first check compares the whole row against zeros; later
        checks visit only the offsets written since, in ascending order,
        so the first violation found is the one a full rescan would find.
        """
        comp = self._comp[q.rank]
        if comp is None:
            return
        row, dirty = comp
        prev = self._prev_comp[q.rank]
        if prev is None:
            prev = self._prev_comp[q.rank] = [0] * len(row)
            offsets = range(len(row))
        elif dirty:
            offsets = sorted(dirty)
        else:
            return
        dirty.clear()
        for off in offsets:
            val = row[off]
            old = prev[off]
            if val == old:
                continue
            if val != 0:  # 0 is owner reclaim / epoch turnover
                if old != 0:
                    raise OracleViolation(
                        "double-claim",
                        f"completion word {off} jumped {old} -> {val}: two "
                        f"thieves notified the same steal slot",
                        pe=q.rank,
                    )
                expected = q.oracle_comp_expected()
                if expected is None:
                    if not 1 <= val <= q.cfg.qsize:
                        raise OracleViolation(
                            "comp-volume-range",
                            f"completion word {off} holds {val}, outside "
                            f"[1, {q.cfg.qsize}]",
                            pe=q.rank,
                        )
                elif expected.get(off) != val:
                    raise OracleViolation(
                        "comp-volume",
                        f"completion word {off} holds {val}; the steal-half "
                        f"schedule allows {expected.get(off, 'nothing')}",
                        pe=q.rank,
                    )
            prev[off] = val

    def _check_asteals_monotone(self, q) -> None:
        """asteals only grows within one stealval publication."""
        sv = self._stealval_view(q)
        if sv is None:
            return
        key, asteals = sv
        prev = self._prev_sv[q.rank]
        if prev is not None and prev[0] == key and asteals < prev[1]:
            raise OracleViolation(
                "asteals-monotone",
                f"attempted-steal counter shrank {prev[1]} -> {asteals} "
                f"within publication {key}",
                pe=q.rank,
            )
        self._prev_sv[q.rank] = (key, asteals)

    @staticmethod
    def _stealval_view(q) -> tuple | None:
        """(publication key, asteals) for the SWS family; None for SDC.

        The key includes the owner's monotone publication counter, so two
        different allotments that happen to advertise identical
        (epoch, itasks, tail) fields are never conflated — without it, an
        asteals reset across such a re-publication would look like a lost
        increment.
        """
        if isinstance(q, SwsQueue):
            v = StealValEpoch.unpack(q._load_stealval())
            if v.locked:
                return None
            return ("epoch", q.publications), v.asteals
        if isinstance(q, SwsV1Queue):
            v = StealValV1.unpack(q.pe.local_load(V1_META_REGION, V1_STEALVAL))
            if not v.valid:
                return None
            return ("v1", q.publications), v.asteals
        return None

    def _check_conservation(self) -> None:
        """Resident tasks can never exceed spawned - executed."""
        spawned = sum(w.stats.tasks_spawned for w in self.workers)
        executed = sum(w.stats.tasks_executed for w in self.workers)
        resident = sum(
            w.driver.local_count + w.driver.stealable_remaining
            for w in self.workers
        )
        if resident > spawned - executed:
            raise OracleViolation(
                "conservation",
                f"{resident} tasks resident in queues but only "
                f"{spawned - executed} unexecuted exist "
                f"(spawned={spawned}, executed={executed}): work was "
                f"duplicated",
            )


def check_serving_conservation(books: dict) -> None:
    """Open-system conservation at the end of a serving run.

    ``books`` carries the serving frontend's ledger (``emitted`` from the
    arrival process's own trace, ``injected``/``shed`` counted by the
    injection path) and the pool's closed-system sums (``spawned``
    includes injections, ``executed``, ``resident``).  Two identities
    must hold:

    * every emitted arrival was either injected or shed —
      ``emitted == injected + shed``.  A silently dropped arrival is
      neither, so it is caught here;
    * the generalized four-counter books balance —
      ``(spawned - injected) + emitted == executed + resident + shed``,
      i.e. internal spawns plus the full arrival stream are accounted
      for by executions, queue residue, and shedding.
    """
    emitted = books["emitted"]
    injected = books["injected"]
    shed = books["shed"]
    spawned = books["spawned"]
    executed = books["executed"]
    resident = books["resident"]
    if emitted != injected + shed:
        raise OracleViolation(
            "conservation-open",
            f"{emitted} arrivals emitted but only {injected} injected + "
            f"{shed} shed ({emitted - injected - shed} arrival(s) silently "
            f"dropped)",
        )
    internal = spawned - injected
    if internal + emitted != executed + resident + shed:
        raise OracleViolation(
            "conservation-open",
            f"open-system books unbalanced: {internal} internal spawns + "
            f"{emitted} arrivals != {executed} executed + {resident} "
            f"resident + {shed} shed",
        )
