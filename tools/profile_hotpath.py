#!/usr/bin/env python3
"""Profile the throughput-critical scenarios under cProfile.

Usage::

    python tools/profile_hotpath.py                  # every scenario
    python tools/profile_hotpath.py fig7             # simulator only
    python tools/profile_hotpath.py mp_synthetic     # mp run, parent side
    python tools/profile_hotpath.py mp_pe            # one mp PE's task loop
    python tools/profile_hotpath.py --top 30 --out profile.txt

Each scenario runs once under ``cProfile`` and prints the top-N entries
by cumulative time — the view that attributes cost to the hot seams
(engine loop, NIC op records, heap word ops; driver loop, queue
push/steal, atomic seam).  ``make profile`` wraps this, and CI's bench
job uploads the output as the ``profile_hotpath`` artifact so a
throughput regression arrives with the profile that explains it.

Caveat for ``mp_synthetic``: cProfile only sees the *parent* process
(run_mp setup, result plumbing, joins); the PE children run
unprofiled.  The parent view still captures the fixed startup overhead
that dominates small runs, and the wall time printed per scenario
covers the whole run either way.  ``mp_pe`` covers the children's side:
it runs one PE's ``_pe_loop`` in this process, alone on a real shared
heap, over the whole ``bench_bin`` tree — once unprofiled for the
microseconds per node it prints, then once under cProfile.  With no
peer there are no steals, so it measures the owner's per-task path
(execute, ``created`` fetch-add, share test), not the steal protocol.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time


def _run_fig7(prof) -> None:
    from repro.analysis.experiments import run_experiment

    run_experiment("fig7", "quick")


def _run_mp_synthetic(prof) -> None:
    from repro.mp.driver import run_mp

    run_mp("synthetic", "sws", 4, ntasks=1200, verify=True)


def _pe_alone(tree) -> tuple[int, int, float]:
    """(nodes, checksum, seconds) of one PE's loop over ``tree``."""
    from repro.mp.driver import _MpJob, _pe_loop

    with _MpJob("sws", 1, 1 << 14, 4) as job:
        job.heap.freeze()
        job.word("created").store(1)         # the root, as launch books it
        t0 = time.perf_counter()
        stats = _pe_loop(0, 1, job.heap, job.layouts, "sws", ("uts", tree),
                         job.ctl, 0, True)
        wall = time.perf_counter() - t0
    return stats["executed"], stats["checksum"], wall


def _run_mp_pe(prof) -> str:
    from repro.workloads.uts import BENCH_BIN

    prof.disable()
    nodes, checksum, plain = _pe_alone(BENCH_BIN)
    prof.enable()
    _nodes, _checksum, profiled = _pe_alone(BENCH_BIN)
    return (f"bench_bin: {nodes} nodes, checksum {checksum:#x}: "
            f"{plain / nodes * 1e6:.2f} us/node "
            f"({profiled / nodes * 1e6:.2f} under cProfile)")


SCENARIOS = {
    "fig7": _run_fig7,
    "mp_synthetic": _run_mp_synthetic,
    "mp_pe": _run_mp_pe,
}


def profile_scenario(name: str, top: int) -> str:
    """Run one scenario under cProfile; return the rendered report."""
    fn = SCENARIOS[name]
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    note = fn(prof)
    prof.disable()
    wall = time.perf_counter() - t0
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    header = f"== {name} (wall {wall:.3f}s, top {top} by cumulative time) =="
    if note:
        header += f"\n{note}"
    return f"{header}\n{buf.getvalue()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="profile_hotpath")
    parser.add_argument(
        "scenarios", nargs="*", default=[],
        help=f"scenarios to profile (default: all of {', '.join(SCENARIOS)})",
    )
    parser.add_argument("--top", type=int, default=20,
                        help="stack entries to print per scenario")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the report to FILE")
    args = parser.parse_args(argv)

    names = args.scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"choose from {', '.join(SCENARIOS)}"
        )
    reports = [profile_scenario(name, args.top) for name in names]
    text = "\n".join(reports)
    print(text, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
