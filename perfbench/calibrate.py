"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the cores slow down and speed up by tens of percent for
seconds to minutes at a time, independently of each other, and process
CPU time slows with them.  The benchmark runs this loop between repeats
and reports times scaled to a nominal host on which the loop takes
``REF_NOMINAL_S``: ``t_nominal = t_measured * REF_NOMINAL_S / mean(ref)``.

The loop is a small discrete-event simulation (a heap of timed events
resuming generators that update per-process dicts), the same kind of
interpreter work the simulator does, so it slows down the way the
workloads do.  It uses only the standard library, so no change to the
package can change its speed.
"""

from __future__ import annotations

import heapq
import time

#: The loop's time on an uncontended core of the 2-core sandbox host the
#: benchmark was built on.  It only sets the scale of the nominal host.
REF_NOMINAL_S = 0.04

#: Events per reference loop (about 40-80 ms on that host).
REF_EVENTS = 60_000

#: Reference time run after each repeat, as a share of the repeat's wall.
REF_SHARE = 0.15


class _Proc:
    __slots__ = ("count", "state")

    def __init__(self) -> None:
        self.count = 0
        self.state: dict[int, int] = {}


def _proc(p: _Proc, k: int):
    while True:
        p.count += 1
        p.state[p.count & 63] = k
        yield (p.count * 7 + k) % 13 + 1


def reference_loop(events: int = REF_EVENTS) -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    heap = [(k, k, _proc(_Proc(), k)) for k in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    for _ in range(events):
        t, _, gen = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (t + next(gen), seq, gen))
    return time.perf_counter() - start


def reference_after(wall_s: float) -> list[float]:
    """Reference loops totalling at least ``REF_SHARE`` of ``wall_s``."""
    times = [reference_loop()]
    while sum(times) < REF_SHARE * wall_s:
        times.append(reference_loop())
    return times
