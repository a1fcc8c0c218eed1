"""Sequential UTS enumeration — the validation oracle.

A plain depth-first traversal of the tree, independent of every runtime
component.  The parallel search must visit exactly this node multiset;
integration tests compare counts (and depth histograms) against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tree import UtsParams, expander


@dataclass
class TreeStats:
    """Shape summary of one enumerated tree."""

    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    depth_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def imbalance_hint(self) -> float:
        """Leaves per node — high values mean bushy, unbalanced trees."""
        return self.leaves / self.nodes if self.nodes else 0.0


def enumerate_tree(params: UtsParams, max_nodes: int | None = None) -> TreeStats:
    """Iterative DFS over the whole tree.

    ``max_nodes`` guards against accidentally enumerating a paper-scale
    tree; exceeding it raises ``RuntimeError`` rather than spinning for
    hours.
    """
    stats = TreeStats()
    children_of = expander(params)
    stack: list[tuple[bytes, int, bool]] = [(params.root(), 0, True)]
    while stack:
        state, depth, is_root = stack.pop()
        stats.nodes += 1
        if max_nodes is not None and stats.nodes > max_nodes:
            raise RuntimeError(
                f"tree exceeded max_nodes={max_nodes}; "
                f"use a smaller configuration"
            )
        stats.max_depth = max(stats.max_depth, depth)
        stats.depth_histogram[depth] = stats.depth_histogram.get(depth, 0) + 1
        children = children_of(state, depth, is_root)
        if not children:
            stats.leaves += 1
        for c in children:
            stack.append((c, depth + 1, False))
    return stats
