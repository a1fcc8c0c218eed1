"""End-to-end runs on the multiprocess substrate.

The acceptance bar for the backend: synthetic and UTS workloads run to
completion across ≥ 4 real OS processes with zero lost or duplicated
tasks.  ``verify=True`` checks both the task *count* and an
order-independent execution checksum against a sequential oracle, so a
double-executed or dropped task cannot hide behind a matching total.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp import driver
from repro.mp.driver import (
    decode_uts,
    encode_uts,
    run_mp,
    run_mp_serve,
    synthetic_expected,
    uts_expected,
)
from repro.mp.errors import MpStallError
from repro.runtime.arrivals import serving_checksum
from repro.workloads.uts import expand, get_tree

from .conftest import leaked_segments

pytestmark = [pytest.mark.mp, pytest.mark.timeout(180)]


# ----------------------------------------------------------------------
# The UTS task codec
# ----------------------------------------------------------------------

def _reference_encode(state, depth, is_root):
    """The byte-slicing codec the struct codec replaced."""
    return (
        int.from_bytes(state[0:8], "little"),
        int.from_bytes(state[8:16], "little"),
        int.from_bytes(state[16:20], "little"),
        depth | (int(is_root) << 32),
    )


def _reference_decode(words):
    w0, w1, w2, w3 = words
    state = (
        w0.to_bytes(8, "little")
        + w1.to_bytes(8, "little")
        + (w2 & 0xFFFFFFFF).to_bytes(4, "little")
    )
    return state, w3 & 0xFFFFFFFF, bool(w3 >> 32)


@given(
    state=st.binary(min_size=20, max_size=20),
    depth=st.integers(0, (1 << 32) - 1),
    is_root=st.booleans(),
)
@settings(max_examples=200)
def test_uts_codec_round_trips_word_for_word(state, depth, is_root):
    words = encode_uts(state, depth, is_root)
    assert words == _reference_encode(state, depth, is_root)
    assert decode_uts(words) == (state, depth, is_root)
    assert decode_uts(words) == _reference_decode(words)


@pytest.mark.parametrize("size", [0, 19, 21, 40])
def test_encode_uts_rejects_a_state_of_the_wrong_length(size):
    with pytest.raises(ValueError, match=f"got {size}"):
        encode_uts(bytes(size), 1, False)


def test_uts_execute_emits_the_encoded_children():
    """The PE's execute step == encode_uts over expand, node by node."""
    params = get_tree("test_small")
    seeds, execute, _fp, _report = driver._bind_workload("uts", params)
    stack = list(seeds)
    nodes = 0
    while stack:
        words = stack.pop()
        nodes += 1
        state, depth, is_root = decode_uts(words)
        kids = execute(words)
        assert kids == [encode_uts(c, depth + 1, False)
                        for c in expand(params, state, depth, is_root)]
        stack.extend(kids)
    assert nodes == uts_expected(params)[0]


def test_synthetic_sws_four_processes_conserves():
    result = run_mp("synthetic", "sws", 4, ntasks=1200, verify=True)
    assert result.conserved
    assert result.total_executed == 1200
    assert result.created == result.completed == 1200
    n, chk = synthetic_expected(1200)
    assert (result.total_executed, result.checksum) == (n, chk)
    # Four real processes participated (stats row per PE).
    assert len(result.pes) == 4


def test_synthetic_sdc_four_processes_conserves():
    result = run_mp("synthetic", "sdc", 4, ntasks=1000, verify=True)
    assert result.conserved
    assert result.total_executed == 1000


def test_uts_sws_four_processes_conserves():
    result = run_mp("uts", "sws", 4, tree="test_tiny", verify=True)
    assert result.conserved
    n, chk = uts_expected(get_tree("test_tiny"))
    assert result.total_executed == n
    assert result.checksum == chk


def test_uts_sdc_four_processes_conserves():
    result = run_mp("uts", "sdc", 4, tree="test_tiny", verify=True)
    assert result.conserved


def test_steal_volumes_follow_steal_half():
    """Observed claim volumes are steal-half values: for a shared block
    of B tasks the volumes come from schedule(B), so no single claim may
    exceed half the largest allotment ever published."""
    result = run_mp("synthetic", "sws", 4, ntasks=1500, verify=True)
    assert result.conserved
    volumes = [v for p in result.pes for v in p.steal_volumes]
    assert all(v >= 1 for v in volumes)
    assert sum(volumes) <= 1500
    assert max(volumes, default=0) <= 1500 // 2 + 1

    summary = result.summary()
    assert summary["tasks_stolen"] == sum(volumes)
    assert summary["steals"] == len(volumes)


def test_damping_toggle_controls_probes():
    """With damping off, nobody probes; with it on, counters stay sane."""
    quiet = run_mp("synthetic", "sws", 4, ntasks=600, damping=False,
                   verify=True)
    assert quiet.conserved
    assert all(p.probes == 0 and p.demotions == 0 for p in quiet.pes)

    damped = run_mp("synthetic", "sws", 4, ntasks=600, damping=True,
                    verify=True)
    assert damped.conserved
    for p in damped.pes:
        assert p.probe_aborts <= p.probes
        assert 0 <= p.promotions <= p.demotions


def test_summary_is_json_ready():
    result = run_mp("synthetic", "sws", 4, ntasks=400, verify=True)
    s = result.summary()
    for key in ("workload", "impl", "npes", "created", "completed",
                "executed", "conserved", "steals", "tasks_stolen",
                "wall_s"):
        assert key in s
    assert s["conserved"] is True
    assert s["npes"] == 4


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_mp("synthetic", "nope", 4)
    with pytest.raises(ValueError):
        run_mp("nope", "sws", 4)
    with pytest.raises(ValueError):
        run_mp("synthetic", "sws", 0)


# ----------------------------------------------------------------------
# Serving mode: the feeder and its argument checks
# ----------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patching the PE body reaches the children only through fork",
)


def _never_drains(*args, **kwargs):
    time.sleep(60)


def _dies_at_start(*args, **kwargs):
    raise RuntimeError("PE died before draining its inbox")


def test_serve_completes_and_leaks_no_segment():
    before = leaked_segments()
    res = run_mp_serve("poisson:2000000", 2e-4, impl="sdc", npes=3, seed=7)
    s = res.serving
    assert s.emitted == s.injected == s.completed == res.created
    assert s.checksum == serving_checksum(range(s.emitted))
    assert leaked_segments() == before


@pytest.mark.timeout(60)
def test_serve_posts_batches_larger_than_the_inbox_in_chunks():
    # One batch of ~50 records per rank against a 2-record inbox: the
    # feeder used to retry the whole group forever.
    res = run_mp_serve("poisson:50000", 2e-3, npes=2, inbox_cap=2,
                       nbatches=1, join_timeout=5)
    s = res.serving
    assert s.emitted > 2 * 2
    assert s.injected == s.completed == s.emitted
    assert s.checksum == serving_checksum(range(s.emitted))


@needs_fork
@pytest.mark.timeout(60)
@pytest.mark.parametrize("body", [_never_drains, _dies_at_start],
                         ids=["stuck", "dead"])
def test_serve_feeder_names_the_rank_it_cannot_feed(monkeypatch, body):
    monkeypatch.setattr(driver, "_pe_loop", body)
    before = leaked_segments()
    t0 = time.monotonic()
    with pytest.raises(MpStallError) as exc:
        run_mp_serve("poisson:50000", 2e-3, npes=2, inbox_cap=1,
                     join_timeout=1.0)
    assert exc.value.rank == 0
    assert time.monotonic() - t0 < 30
    assert leaked_segments() == before


def test_serve_rejects_bad_arguments(monkeypatch):
    def no_heap(*args, **kwargs):
        raise AssertionError("a heap was allocated before validation")

    monkeypatch.setattr(driver, "MpHeap", no_heap)
    for kwargs in ({"impl": "nope"}, {"npes": 1}, {"nbatches": 0},
                   {"inbox_cap": 0}, {"capacity": 0}):
        with pytest.raises(ValueError):
            run_mp_serve("poisson:50000", 2e-3, **kwargs)


def test_profile_tool_runs_one_pe_alone():
    """``tools/profile_hotpath.py mp_pe``: one in-process PE, no peers,
    executes the whole tree and agrees with the oracle."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "profile_hotpath.py"
    spec = importlib.util.spec_from_file_location("profile_hotpath", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    params = get_tree("test_small")
    before = leaked_segments()
    nodes, checksum, _wall = tool._pe_alone(params)
    assert (nodes, checksum) == uts_expected(params)
    assert leaked_segments() == before
