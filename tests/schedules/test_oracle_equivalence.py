"""The incremental completion-word check agrees with a full rescan.

``PoolOracle`` visits only the completion words the heap's dirty-word
log recorded since its previous check.  The reference below is the
check it replaced: after every event it reads the whole completion
region of every PE and compares it word by word with the previous
snapshot.  Both run side by side after every event of explored
schedules, and must give the same verdict each time — clean, or the
same check, PE, detail (which names the offset) and event count.
"""

import pytest

from repro.analysis.explore import WORKLOADS, build_pool, explore
from repro.core.sdc_queue import SdcQueue
from repro.core.sws_queue import SwsQueue
from repro.fabric.errors import OracleViolation
from repro.runtime.oracle import PoolOracle
from repro.runtime.protocols import protocol_names

pytestmark = pytest.mark.schedules


class RescanOracle(PoolOracle):
    """``PoolOracle`` with the completion check done by a full rescan."""

    def _check_comp_transitions(self, q) -> None:
        """Completion words: written once per steal, with the legal volume."""
        region = q.oracle_comp_region
        heap = self.pool.ctx.heap
        words = (
            [] if region is None
            else heap.load_words(q.rank, region, 0, heap.spec(region).length)
        )
        prev = self._prev_comp[q.rank]
        expected = q.oracle_comp_expected() if words else None
        qsize = q.cfg.qsize
        for off, val in enumerate(words):
            old = prev[off] if prev is not None else 0
            if val == old:
                continue
            if val == 0:
                continue  # owner reclaim / epoch turnover
            if old != 0:
                raise OracleViolation(
                    "double-claim",
                    f"completion word {off} jumped {old} -> {val}: two "
                    f"thieves notified the same steal slot",
                    pe=q.rank,
                )
            if expected is None:
                if not 1 <= val <= qsize:
                    raise OracleViolation(
                        "comp-volume-range",
                        f"completion word {off} holds {val}, outside "
                        f"[1, {qsize}]",
                        pe=q.rank,
                    )
            elif expected.get(off) != val:
                raise OracleViolation(
                    "comp-volume",
                    f"completion word {off} holds {val}; the steal-half "
                    f"schedule allows {expected.get(off, 'nothing')}",
                    pe=q.rank,
                )
        self._prev_comp[q.rank] = words


class Disagreement(AssertionError):
    pass


def paired_factory(workload, impl):
    """Pools checked by both oracles after every event.

    The observer raises :class:`Disagreement` as soon as the verdicts
    differ, and the incremental oracle's violation when both agree on
    one, so the explorer records it as usual.
    """

    def build(scheduler):
        pool = build_pool(workload, impl, scheduler=scheduler, oracle=False)
        engine = pool.ctx.engine
        oracles = (PoolOracle(pool), RescanOracle(pool))

        def check() -> None:
            verdicts = []
            for oracle in oracles:
                try:
                    oracle.check()
                except OracleViolation as exc:
                    verdicts.append(
                        (exc.check, exc.pe, exc.detail, engine.events_processed)
                    )
                else:
                    verdicts.append(None)
            incremental, rescan = verdicts
            if incremental != rescan:
                raise Disagreement(f"incremental {incremental} != rescan {rescan}")
            if incremental is not None:
                check_name, pe, detail, _ = incremental
                raise OracleViolation(check_name, detail, pe=pe)

        engine.observers.append(check)
        pool.oracle = oracles[0]  # end-of-run books
        return pool

    return build


def test_paired_oracles_run_every_event():
    pool = paired_factory("flat", "sdc")(None)
    stats = pool.run()
    assert stats.runtime > 0
    assert pool.oracle.checks_passed == pool.ctx.engine.events_processed


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("impl", protocol_names())
def test_clean_runs_agree(workload, impl):
    report = explore(
        workload, impl, policy="random", seeds=range(3),
        factory=paired_factory(workload, impl),
    )
    assert report.runs == 3
    assert report.clean, report.render()


@pytest.mark.parametrize(
    "writes,first_bad",
    [
        # Two double claims land between checks: the lower offset wins.
        ([(7, 3), (2, 3), None, (7, 5), (2, 5)], "completion word 2 jumped"),
        # Before the first check: the whole row is compared with zeros.
        ([(9, 1 << 40), (4, 1 << 41)], "completion word 4 holds"),
    ],
)
def test_first_violation_matches_rescan(writes, first_bad):
    pool = build_pool("flat", "sdc", oracle=False)
    heap = pool.ctx.heap
    region = pool.workers[1].driver.queue.oracle_comp_region
    oracles = (PoolOracle(pool), RescanOracle(pool))
    for write in writes:
        if write is None:
            for oracle in oracles:
                oracle.check()
        else:
            heap.store(1, region, *write)
    details = []
    for oracle in oracles:
        with pytest.raises(OracleViolation) as err:
            oracle.check()
        assert err.value.pe == 1
        details.append(err.value.detail)
    assert details[0] == details[1]
    assert details[0].startswith(first_bad)


def _doubled(original):
    def doubled(self, victim, offset, ntasks):
        yield from original(self, victim, offset, ntasks)
        yield from original(self, victim, offset, ntasks)

    return doubled


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize(
    "impl,queue", [("sws", SwsQueue), ("localized", SwsQueue), ("sdc", SdcQueue)]
)
def test_doubled_notification_same_verdict(monkeypatch, workload, impl, queue):
    monkeypatch.setattr(
        queue, "_notify_completion", _doubled(queue._notify_completion)
    )
    report = explore(
        workload, impl, policy="random", seeds=range(3), stop_on_failure=True,
        factory=paired_factory(workload, impl),
    )
    assert report.failures, report.render()
    assert report.failures[0].check == "double-claim"
