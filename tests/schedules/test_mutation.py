"""Mutation smoke tests: the explorer must catch planted protocol bugs.

Each test re-introduces a bug the paper's structured-atomic design
exists to rule out, then asserts the oracle-armed explorer detects it,
that the recorded schedule trace reproduces the failure bit-identically,
and that greedy shrinking keeps it failing:

* **un-fused claim** — the thief's discover-and-claim split back into a
  separate read and add (the pre-SWS racy window, paper §4): thieves
  that read between each other's adds claim the same block;
* **spurious completion retry** — a widened notification window where
  the thief's completion fetch-add lands twice: the completion-word
  discipline pins it as a double claim the moment the second add lands,
  in SWS's epoch rows and in SDC's completion ring alike.
"""

import pytest

from repro.analysis.explore import explore, pool_factory, replay_trace, shrink_trace
from repro.core.results import StealResult, StealStatus
from repro.core.sdc_queue import SdcQueue
from repro.core.steal_half import steal_displacement, steal_volume
from repro.core.stealval import StealValEpoch
from repro.core.sws_queue import META_REGION, STEALVAL, SwsQueue

pytestmark = pytest.mark.schedules


def _unfused_steal(self, victim):
    """SwsQueue.steal with the fetch-add split into read THEN add."""
    if victim == self.rank:
        raise AssertionError("a PE cannot steal from itself")
    pe = self.pe
    old = yield pe.atomic_fetch(victim, META_REGION, STEALVAL)
    yield pe.atomic_add_nb(
        victim, META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT
    )
    view = StealValEpoch.unpack(old)
    if view.locked:
        return StealResult(StealStatus.DISABLED, victim)
    ntasks = steal_volume(view.itasks, view.asteals)
    if ntasks == 0:
        return StealResult(StealStatus.EMPTY, victim)
    disp = steal_displacement(view.itasks, view.asteals)
    data = yield from self._fetch_block(victim, view.tail + disp, ntasks)
    yield from self._notify_completion(
        victim, self._comp_offset(view.epoch, view.asteals), ntasks
    )
    ts = self.cfg.task_size
    records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
    return StealResult(StealStatus.STOLEN, victim, ntasks, records)


def test_explorer_catches_unfused_claim(monkeypatch):
    monkeypatch.setattr(SwsQueue, "steal", _unfused_steal)
    report = explore(
        "flat", "sws", policy="random", seeds=range(10), stop_on_failure=True
    )
    assert report.failures, "explorer missed the planted claim race"
    fail = report.failures[0]
    # Thieves racing through the widened window duplicate or misaccount
    # work; whichever oracle trips first, it names a protocol loss.
    assert fail.check in {
        "conservation", "double-claim", "comp-volume", "comp-volume-range"
    }
    assert fail.trace.meta["workload"] == "flat"
    assert fail.trace.meta["impl"] == "sws"
    assert fail.trace.meta["check"] == fail.check

    # Replay is deterministic: same violation at the same event count.
    replayed = replay_trace(fail.trace)
    assert not replayed.ok
    assert replayed.check == fail.check
    assert replayed.events == fail.events

    # Greedy shrink keeps the failure and never grows the trace.
    shrunk, attempts = shrink_trace(fail.trace)
    assert attempts >= 1
    assert len(shrunk.choices) <= len(fail.trace.choices)
    confirm = replay_trace(
        shrunk, factory=pool_factory("flat", "sws")
    )
    assert not confirm.ok
    assert confirm.check == fail.check


def test_explorer_catches_double_notification(monkeypatch):
    original = SwsQueue._notify_completion

    def doubled(self, victim, offset, ntasks):
        yield from original(self, victim, offset, ntasks)
        yield from original(self, victim, offset, ntasks)

    monkeypatch.setattr(SwsQueue, "_notify_completion", doubled)
    report = explore("flat", "sws", policy="fixed", stop_on_failure=True)
    assert report.failures, "oracle missed the doubled completion add"
    fail = report.failures[0]
    assert fail.check == "double-claim"
    assert "jumped" in fail.detail

    replayed = replay_trace(fail.trace)
    assert not replayed.ok
    assert replayed.check == "double-claim"
    assert replayed.events == fail.events


def test_explorer_catches_sdc_double_notification(monkeypatch):
    original = SdcQueue._notify_completion

    def doubled(self, victim, slot, ntasks):
        yield from original(self, victim, slot, ntasks)
        yield from original(self, victim, slot, ntasks)

    monkeypatch.setattr(SdcQueue, "_notify_completion", doubled)
    report = explore("flat", "sdc", policy="fixed", stop_on_failure=True)
    assert report.failures, "oracle missed the doubled SDC completion add"
    fail = report.failures[0]
    # The first thief's 24-task claim on slot 0 lands a second time.
    assert fail.check == "double-claim"
    assert fail.events == 60
    assert "completion word 0 jumped 24 -> 48" in fail.detail

    replayed = replay_trace(fail.trace)
    assert not replayed.ok
    assert (replayed.check, replayed.events, replayed.detail) == (
        fail.check, fail.events, fail.detail
    )


def test_clean_protocol_survives_same_sweep():
    """The exact sweep the mutations fail must pass unmutated."""
    report = explore("flat", "sws", policy="random", seeds=range(10))
    assert report.clean, report.render()
