"""Run one benchmark workload, check its output and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload bpc64 --seed 1 --seconds 25 --trace 0

The workload repeats, cycling through the input seeds ``--seed`` selects,
until ``--seconds`` have passed.  Each repeat is set up, timed and then
checked, untimed, and a fixed reference loop (``calibrate.py``) runs
between repeats.  With ``--trace 0`` the command reports the end-to-end
metrics of ``BENCHMARK.json``, its times scaled to a nominal host by the
reference loop; with ``--trace 1`` it spends half the time on untraced
repeats and half on traced ones and reports the per-layer metrics.  The
median traced repeat's spans are written to ``.perfbench-out/`` at the
end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every repeat passed its checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("bpc64", "serve_sdc", "serve_sdc_checked", "mp_uts")

#: A run stops, counting as stalled, this long after it starts; the
#: whole command must end within 180 s.
DEADLINE_S = 160

#: ``--seed n`` selects the inputs of seeds ``8n .. 8n+7``; repeat ``i``
#: runs seed ``8n + i % 8``.  The work a seed fixes varies between seeds
#: (engine events by ±2.5% on ``bpc64``), so a run averages over several.
SEEDS_PER_RUN = 8

#: Span names whose self time is reported, and the metric each feeds.
#: ``mp`` is split into the children's window and the rest by
#: ``layer_metrics``.  With ``trace.unattributed_s`` (the repeat's own
#: self time) these add up to ``trace.wall_s``.
SELF_TIME_METRICS = {
    "runtime.pool": "runtime.pool.build_s",
    "runtime.arrivals": "runtime.arrivals.materialize_s",
    "runtime.serving": "runtime.serving.self_s",
    "runtime.serving.attach": "runtime.serving.attach_s",
    "fabric.engine": "fabric.engine.self_s",
    "workloads": "workloads.host_s",
    "runtime.oracle": "runtime.oracle.host_s",
}
ROOT_SPAN = "bench.repeat"


class Stall(Exception):
    """The run passed its deadline."""


def load_package() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        raise SystemExit(
            f"perfbench: no package sources under {SRC} (or no {SPEC.name});"
            " run from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def spec_units() -> tuple[dict, dict]:
    """``{name: unit}`` of the end-to-end and the per-layer metrics."""
    spec = json.loads(SPEC.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------

def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` files (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record() -> dict:
    """Host and code facts printed next to the numbers (not metrics)."""
    from repro.analysis.sweep import code_version

    sources = sorted((SRC / "repro").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "code_version": code_version(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (mp PEs)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One checked repeat (the pool it built is already dropped)."""

    seed: int
    wall_s: float
    setup_s: float
    run_s: float
    units: int
    failed: int
    fingerprint: tuple | None = None
    values: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Reference-loop times taken around this repeat (see calibrate.py).
    ref_s: list = field(default_factory=list)


def measure(workload, seed: int, seconds: float, traced: bool,
            first_run_id: int = 0) -> list[Sample]:
    """Repeat ``workload`` until ``seconds`` pass; stop at the first error.

    A repeat that raises (or stalls) fails every unit it attempted.  The
    reference loop runs once before the first repeat and after each one.
    Repeat ``i`` of a call runs input seed ``SEEDS_PER_RUN * seed + i %
    SEEDS_PER_RUN``.
    """
    from calibrate import reference_after, reference_loop
    from spans import NullTracer, Tracer

    samples: list[Sample] = []
    refs = [reference_loop()]
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        tracer = Tracer(first_run_id + len(samples)) if traced else NullTracer
        input_seed = SEEDS_PER_RUN * seed + len(samples) % SEEDS_PER_RUN
        try:
            gc.collect()
            t0 = time.perf_counter()
            out = tracer.call(ROOT_SPAN, workload.run_once, input_seed,
                              tracer)
            wall = time.perf_counter() - t0
            verdict = workload.check(out)
        except Exception:
            traceback.print_exc()
            units = workload.expected_units(input_seed)
            samples.append(
                Sample(input_seed, 0.0, 0.0, 0.0, units, units, ref_s=refs)
            )
            break
        sample = Sample(
            input_seed, wall, out.setup_s, out.run_s, verdict.units,
            verdict.failed, verdict.fingerprint, verdict.values,
            tracer.finished() if traced else [], refs,
        )
        del out  # drop the pool before the reference loop and next repeat
        sample.ref_s += reference_after(wall)
        samples.append(sample)
        refs = []
    return samples


def mark_fingerprint_mismatches(samples: list[Sample]) -> None:
    """A seed fixes every simulated count: a repeat that differs failed."""
    first: dict[int, tuple] = {}
    for s in samples:
        if s.fingerprint is None:
            continue
        if first.setdefault(s.seed, s.fingerprint) != s.fingerprint:
            s.failed = s.units


def host_metrics(samples: list[Sample]) -> dict:
    """Throughput and set-up time, measured and scaled to the nominal host.

    ``host.slowdown`` is the mean reference-loop time over its nominal
    time; dividing measured times by it removes the host's speed swings.
    """
    from calibrate import REF_NOMINAL_S

    done = [s for s in samples if s.run_s > 0]
    refs = [r for s in samples for r in s.ref_s]
    if not done or not refs:
        return {}
    slowdown = statistics.fmean(refs) / REF_NOMINAL_S
    raw_rate = sum(s.units for s in done) / sum(s.run_s for s in done)
    raw_setup = statistics.median([s.setup_s for s in done])
    return {
        "tasks_per_s": raw_rate * slowdown,
        "setup_s": raw_setup / slowdown,
        "host.slowdown": slowdown,
        "host.raw_tasks_per_s": raw_rate,
        "host.raw_setup_s": raw_setup,
    }


def median_traced(traced: list[Sample]) -> Sample | None:
    """The traced repeat with the median wall time (the lower middle)."""
    done = sorted((s for s in traced if s.spans), key=lambda s: s.wall_s)
    return done[(len(done) - 1) // 2] if done else None


def layer_metrics(untraced: list[Sample], traced: list[Sample]) -> dict:
    """Per-layer values of one traced run.

    Counts come from the first traced repeat, whose input seed is fixed
    by ``--seed``, so they are exact for it; times come from the traced
    repeat with the median wall time.
    """
    from spans import counts, self_times

    rep = median_traced(traced)
    if rep is None:
        return {}
    first = traced[0]
    calls = counts(first.spans)
    out = dict(first.values)
    out["workloads.task_calls"] = calls.get("workloads", 0)
    out["runtime.oracle.checks"] = calls.get("runtime.oracle", 0)

    own = self_times(rep.spans)
    wall = sum(sp.end - sp.start for sp in rep.spans if sp.name == ROOT_SPAN)
    engine_wall = sum(
        sp.end - sp.start for sp in rep.spans if sp.name == "fabric.engine"
    )
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = own.get(span, 0.0)
    if "mp" in own:
        out["mp.run_s"] = rep.values["mp.run_s"]
        out["mp.outside_s"] = own["mp"] - rep.values["mp.run_s"]
    events = rep.values.get("fabric.engine.events", 0)
    out["fabric.engine.events_per_host_s"] = (
        events / engine_wall if engine_wall else 0.0
    )
    out["runtime.oracle.host_share"] = out["runtime.oracle.host_s"] / wall
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = own[ROOT_SPAN]
    base = [s.wall_s for s in untraced if s.run_s > 0]
    walls = [s.wall_s for s in traced if s.spans]
    out["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(base) if base else 0.0
    )
    host = host_metrics(untraced)
    for name in ("host.slowdown", "host.raw_tasks_per_s", "host.raw_setup_s"):
        out[name] = host.get(name, 0.0)
    return out


def write_trace(workload: str, seed: int, record: dict, metrics: dict,
                traced: list[Sample]) -> Path:
    """Write the median traced repeat's spans once, at the end."""
    rep = median_traced(traced)
    spans = rep.spans if rep is not None else []
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "run_record": record,
        "metrics": metrics,
        "span_fields": ["name", "start", "end", "parent", "run_id"],
        "spans": [list(sp) for sp in spans],
    }))
    return path


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _on_alarm(signum, frame):
    raise Stall(f"run exceeded {DEADLINE_S} s")


def run(args, workloads: dict) -> tuple[dict, int]:
    """Measure, check and report one workload; returns (result, exit code)."""
    e2e_units, layer_units = spec_units()
    workload = workloads[args.workload]
    record = run_record()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("run record " + json.dumps(record))

    workload.prepare()
    if args.trace:
        half = args.seconds / 2
        untraced = measure(workload, args.seed, half, traced=False)
        traced = measure(workload, args.seed, half, traced=True,
                         first_run_id=len(untraced))
    else:
        untraced, traced = measure(workload, args.seed, args.seconds,
                                   traced=False), []
    samples = untraced + traced
    mark_fingerprint_mismatches(samples)
    attempted = sum(s.units for s in samples)
    failed = sum(s.failed for s in samples)

    if args.trace:
        values = layer_metrics(untraced, traced)
        values["error_rate"] = failed / attempted if attempted else 1.0
        units = layer_units
    else:
        values = host_metrics(samples)
        values["peak_rss_mb"] = peak_rss_mb()
        units = e2e_units
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(f"{len(untraced)} untraced + {len(traced)} traced repeats, "
          f"{failed} of {attempted} units failed")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        path = write_trace(args.workload, args.seed, record, metrics, traced)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        # Also reported with --trace 1: the measured numbers behind the
        # scaled ones above, and the values exact for the first input seed.
        extra = {**samples[0].values, **values}
        print(f"per-layer values (exact ones for input seed "
              f"{samples[0].seed}):")
        for name in sorted(extra):
            if name in layer_units:
                print(f"  {name:<36} {extra[name]:>16.6g} {layer_units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import suite

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        result, code = run(args, suite.workloads())
    finally:
        signal.alarm(0)
        # run_mp's shared memory starts multiprocessing's resource
        # tracker; stop it and wait for it, so no process outlives the run.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
