"""Tests of the benchmark itself, at smoke size.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import suite  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads(run.SPEC.read_text())
SEED = 3


def smoke(name):
    workload = suite.workloads(smoke=True)[name]
    workload.prepare()
    return workload


def test_names_are_plain_and_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert set(suite.workloads()) == set(run.WORKLOADS)
    layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(run.SELF_TIME_METRICS.values()) <= layer


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_passes_its_checks(name):
    workload = smoke(name)
    first = workload.check(workload.run_once(SEED, NullTracer))
    again = workload.check(workload.run_once(SEED, NullTracer))
    assert first.units > 0 and first.failed == 0 and again.failed == 0
    # A seed fixes every simulated count exactly.
    assert first.fingerprint == again.fingerprint
    assert (first.fingerprint is None) == (name == "mp_uts")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_self_times_add_up_to_the_wall(name):
    workload = smoke(name)
    untraced = run.measure(workload, SEED, 0.0, traced=False)
    traced = run.measure(workload, SEED, 0.0, traced=True)
    m = run.layer_metrics(untraced, traced)
    parts = list(run.SELF_TIME_METRICS.values()) + [
        "mp.run_s", "mp.outside_s", "trace.unattributed_s",
    ]
    assert sum(m.get(p, 0.0) for p in parts) == pytest.approx(
        m["trace.wall_s"], rel=1e-9
    )
    assert m["trace.overhead_ratio"] > 0
    # The isolation each workload was chosen for.
    if name == "serve_sdc_checked":
        assert m["runtime.oracle.host_share"] > 0.5
    else:
        assert m["runtime.oracle.host_share"] == 0.0
    if name == "mp_uts":
        assert m["mp.run_s"] > 0
        assert m["fabric.engine.self_s"] == 0.0
        assert "fabric.nic.ops" not in m
    else:
        assert m["fabric.nic.ops"] > 0
        assert "mp.run_s" not in m


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    tracer.call("outer", lambda: [inner() for _ in range(3)])
    spans = tracer.finished()
    from spans import self_times

    own = self_times(spans)
    outer = next(s for s in spans if s.name == "outer")
    assert own["outer"] + own["inner"] == pytest.approx(outer.end - outer.start)
    assert [s.parent for s in spans] == [-1, 0, 0, 0]


def _doctor_bpc(out):
    out.stats.workers[0].tasks_executed -= 1     # one task lost


def _doctor_serving(out):
    out.stats.serving.completed -= 1             # one arrival not served
    out.stats.serving.checksum ^= 1


def _doctor_mp(out):
    out.stats.pes[0].executed += 1               # one task run twice


@pytest.mark.parametrize("name, doctor", [
    ("bpc64", _doctor_bpc),
    ("serve_sdc", _doctor_serving),
    ("serve_sdc_checked", _doctor_serving),
    ("mp_uts", _doctor_mp),
])
def test_a_doctored_result_is_an_error(name, doctor):
    workload = smoke(name)
    out = workload.run_once(SEED, NullTracer)
    doctor(out)
    assert workload.check(out).failed > 0


class _Doctored:
    """A workload whose second repeat loses a task."""

    def __init__(self, inner):
        self.inner = inner
        self.repeats = 0

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def run_once(self, seed, tracer):
        out = self.inner.run_once(seed, tracer)
        self.repeats += 1
        if self.repeats == 2:
            _doctor_bpc(out)
        return out


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_reports_errors_not_numbers(trace):
    args = argparse.Namespace(workload="bpc64", seed=SEED, seconds=0.5,
                              trace=trace)
    workloads = suite.workloads(smoke=True)
    result, code = run.run(args, workloads)
    assert code == 0 and result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    workloads["bpc64"] = _Doctored(workloads["bpc64"])
    result, code = run.run(args, workloads)
    assert code == 1 and not result["correct"] and result["failed"] > 0
    assert result["attempted"] >= 2 * workloads["bpc64"].expected_units(SEED)


def test_without_sources_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bpc64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_seed_whose_counts_change_between_repeats_fails():
    samples = [
        run.Sample(seed, 1.0, 0.1, 0.9, 10, 0, fingerprint)
        for seed, fingerprint in [(8, (1,)), (9, (2,)), (8, (1,)), (9, (3,))]
    ]
    run.mark_fingerprint_mismatches(samples)
    assert [s.failed for s in samples] == [0, 0, 0, 10]
