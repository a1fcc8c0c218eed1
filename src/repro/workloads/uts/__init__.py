"""Unbalanced Tree Search benchmark (UTS) over SHA-1 splittable trees."""

from .params import (
    BENCH_BIN,
    BENCH_GEO,
    NAMED_TREES,
    SWEEP_GEO,
    T1WL,
    TEST_SMALL,
    TEST_TINY,
    get_tree,
)
from .sequential import TreeStats, enumerate_tree
from .sha1_rng import STATE_BYTES, rand31, root_state, spawn, to_prob
from .tree import (
    GeoShape,
    TreeType,
    UtsParams,
    branching_factor,
    expand,
    expander,
    num_children,
)
from .workload import PAPER_NODE_TIME, PAPER_TASK_SIZE, UtsWorkload, UtsWorkloadParams

__all__ = [
    "UtsParams",
    "UtsWorkload",
    "UtsWorkloadParams",
    "TreeType",
    "GeoShape",
    "branching_factor",
    "num_children",
    "expand",
    "expander",
    "enumerate_tree",
    "TreeStats",
    "root_state",
    "spawn",
    "rand31",
    "to_prob",
    "STATE_BYTES",
    "PAPER_TASK_SIZE",
    "PAPER_NODE_TIME",
    "NAMED_TREES",
    "get_tree",
    "T1WL",
    "TEST_TINY",
    "TEST_SMALL",
    "BENCH_GEO",
    "SWEEP_GEO",
    "BENCH_BIN",
]
