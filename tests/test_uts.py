"""Tests for the UTS workload: RNG, trees, sequential oracle, parallel runs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskContext, TaskRegistry
from repro.workloads.uts import (
    BENCH_BIN,
    BENCH_GEO,
    NAMED_TREES,
    T1WL,
    TEST_SMALL,
    TEST_TINY,
    GeoShape,
    TreeType,
    UtsParams,
    UtsWorkload,
    UtsWorkloadParams,
    branching_factor,
    enumerate_tree,
    expand,
    expander,
    get_tree,
    num_children,
    rand31,
    root_state,
    spawn,
    to_prob,
)


class TestSha1Rng:
    def test_state_is_20_bytes(self):
        assert len(root_state(19)) == 20
        assert len(spawn(root_state(19), 0)) == 20

    def test_deterministic(self):
        assert root_state(19) == root_state(19)
        assert spawn(root_state(19), 3) == spawn(root_state(19), 3)

    def test_children_distinct(self):
        s = root_state(19)
        kids = [spawn(s, i) for i in range(32)]
        assert len(set(kids)) == 32

    def test_different_seeds_different_roots(self):
        assert root_state(1) != root_state(2)

    def test_rand31_is_31_bits(self):
        for seed in range(50):
            r = rand31(root_state(seed))
            assert 0 <= r < (1 << 31)

    def test_to_prob_in_unit_interval(self):
        for seed in range(50):
            assert 0.0 <= to_prob(root_state(seed)) < 1.0

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            spawn(b"short", 0)
        with pytest.raises(ValueError):
            rand31(b"short")
        with pytest.raises(ValueError):
            spawn(root_state(1), -1)


class TestTreeRules:
    def test_geo_linear_tapers_to_zero(self):
        p = UtsParams(b0=4.0, gen_mx=10, shape=GeoShape.LINEAR)
        assert branching_factor(p, 0) == 4.0
        assert branching_factor(p, 5) == pytest.approx(2.0)
        assert branching_factor(p, 10) == 0.0
        assert branching_factor(p, 99) == 0.0

    def test_geo_fixed_constant_until_horizon(self):
        p = UtsParams(b0=4.0, gen_mx=10, shape=GeoShape.FIXED)
        assert branching_factor(p, 9) == 4.0
        assert branching_factor(p, 10) == 0.0

    def test_geo_leaf_beyond_horizon(self):
        p = UtsParams(b0=4.0, gen_mx=3)
        assert num_children(p, root_state(1), depth=3, is_root=False) == 0

    def test_bin_root_has_exactly_b0(self):
        p = UtsParams(tree_type=TreeType.BIN, b0=7.0, q=0.1, m=8)
        assert num_children(p, root_state(1), 0, is_root=True) == 7

    def test_bin_children_all_or_nothing(self):
        p = UtsParams(tree_type=TreeType.BIN, b0=4.0, q=0.5, m=2)
        counts = {
            num_children(p, spawn(root_state(1), i), 1, is_root=False)
            for i in range(64)
        }
        assert counts == {0, 2}  # both outcomes appear at q=0.5

    def test_supercritical_bin_rejected(self):
        with pytest.raises(ValueError, match="supercritical"):
            UtsParams(tree_type=TreeType.BIN, q=0.5, m=8)

    def test_expand_matches_num_children(self):
        p = TEST_TINY
        s = p.root()
        kids = expand(p, s, 0, is_root=True)
        assert len(kids) == num_children(p, s, 0, is_root=True)
        assert all(len(k) == 20 for k in kids)

    def test_validation(self):
        with pytest.raises(ValueError):
            UtsParams(b0=0.0)
        with pytest.raises(ValueError):
            UtsParams(gen_mx=0)
        with pytest.raises(ValueError):
            UtsParams(q=1.5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_geo_child_count_non_negative(self, seed):
        p = UtsParams(b0=8.0, gen_mx=10)
        assert num_children(p, root_state(seed), 2, is_root=False) >= 0


class TestSequentialOracle:
    def test_tiny_tree_exact_count(self):
        s = enumerate_tree(TEST_TINY)
        assert s.nodes == 85
        assert s.max_depth <= TEST_TINY.gen_mx

    def test_small_tree_exact_count(self):
        s = enumerate_tree(TEST_SMALL)
        assert s.nodes == 3542

    def test_histogram_sums_to_nodes(self):
        s = enumerate_tree(TEST_TINY)
        assert sum(s.depth_histogram.values()) == s.nodes
        assert s.depth_histogram[0] == 1

    def test_leaves_counted(self):
        s = enumerate_tree(TEST_TINY)
        assert 0 < s.leaves < s.nodes
        assert 0 < s.imbalance_hint < 1

    def test_max_nodes_guard(self):
        with pytest.raises(RuntimeError, match="max_nodes"):
            enumerate_tree(TEST_SMALL, max_nodes=100)

    def test_deterministic(self):
        assert enumerate_tree(TEST_TINY).nodes == enumerate_tree(TEST_TINY).nodes


class TestNamedTrees:
    def test_lookup(self):
        assert get_tree("t1wl") is T1WL
        with pytest.raises(KeyError):
            get_tree("t999")

    def test_t1wl_matches_paper(self):
        assert T1WL.gen_mx == 18
        assert T1WL.b0 == 2000.0
        assert T1WL.tree_type is TreeType.GEO

    def test_all_named_trees_valid(self):
        for name, p in NAMED_TREES.items():
            assert isinstance(p, UtsParams), name


class TestWorkload:
    def test_root_task_payload(self):
        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_TINY)
        out = reg.execute(wl.seed_task(), TaskContext(0, 1))
        assert len(out.children) == num_children(
            TEST_TINY, TEST_TINY.root(), 0, is_root=True
        )

    def test_node_time_applied(self):
        reg = TaskRegistry()
        wl = UtsWorkload(
            reg, TEST_TINY, UtsWorkloadParams(node_time=1e-3, per_child_time=1e-4)
        )
        out = reg.execute(wl.seed_task(), TaskContext(0, 1))
        assert out.duration == pytest.approx(1e-3 + 1e-4 * len(out.children))

    @pytest.mark.parametrize("npes", [1, 4, 8])
    def test_parallel_search_visits_every_node(self, impl, npes):
        oracle = enumerate_tree(TEST_TINY)
        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_TINY)
        stats = run_pool(npes, reg, [wl.seed_task()], impl=impl)
        assert stats.total_tasks == oracle.nodes

    def test_parallel_matches_oracle_small(self, impl):
        oracle = enumerate_tree(TEST_SMALL)
        reg = TaskRegistry()
        wl = UtsWorkload(reg, TEST_SMALL)
        stats = run_pool(8, reg, [wl.seed_task()], impl=impl)
        assert stats.total_tasks == oracle.nodes

    def test_binomial_tree_searchable(self, impl):
        small_bin = UtsParams(
            tree_type=TreeType.BIN, b0=16.0, q=0.124875, m=8, root_seed=42
        )
        oracle = enumerate_tree(small_bin, max_nodes=100_000)
        reg = TaskRegistry()
        wl = UtsWorkload(reg, small_bin)
        stats = run_pool(4, reg, [wl.seed_task()], impl=impl)
        assert stats.total_tasks == oracle.nodes


# ----------------------------------------------------------------------
# The expander against the generic rule it replaced
# ----------------------------------------------------------------------

def _reference_num_children(p: UtsParams, state: bytes, depth: int, is_root: bool) -> int:
    """The generic expansion rule: branching factor -> to_prob draw."""
    if p.tree_type is TreeType.GEO:
        b = branching_factor(p, depth)
        if b <= 0.0:
            return 0
        log1mp = math.log(1.0 - 1.0 / (1.0 + b))
        if log1mp == 0.0:
            return 0
        return int(math.log(1.0 - to_prob(state)) / log1mp)
    if is_root:
        return int(p.b0)
    return p.m if to_prob(state) < p.q else 0


def _reference_expand(p: UtsParams, state: bytes, depth: int, is_root: bool) -> list[bytes]:
    return [spawn(state, i) for i in range(_reference_num_children(p, state, depth, is_root))]


#: Whole trees compared node by node: every GEO shape and a BIN tree.
EQUIVALENCE_TREES = {
    "test_small": TEST_SMALL,
    "bench_geo": BENCH_GEO,
    "small_bin": UtsParams(tree_type=TreeType.BIN, b0=32.0, q=0.12, m=8, root_seed=7),
    "fixed": UtsParams(b0=3.0, gen_mx=7, shape=GeoShape.FIXED),
    "expdec": UtsParams(b0=6.0, gen_mx=8, shape=GeoShape.EXPDEC),
    # Reaches depth 31, one past the 5 * gen_mx cut.
    "cyclic": UtsParams(b0=4.0, gen_mx=6, shape=GeoShape.CYCLIC, root_seed=8),
}


class TestExpander:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_TREES))
    def test_matches_the_generic_rule_on_every_node(self, name):
        p = EQUIVALENCE_TREES[name]
        stack = [(p.root(), 0, True)]
        nodes = 0
        while stack:
            state, depth, is_root = stack.pop()
            nodes += 1
            kids = expand(p, state, depth, is_root)
            assert kids == _reference_expand(p, state, depth, is_root), (name, nodes)
            assert num_children(p, state, depth, is_root) == len(kids)
            stack.extend((c, depth + 1, False) for c in kids)
        assert nodes > 300

    @given(
        q=st.floats(0.0, 0.125),
        draw=st.integers(0, (1 << 31) - 1),
        tail=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=200)
    def test_bin_integer_threshold_is_exact(self, q, draw, tail):
        p = UtsParams(tree_type=TreeType.BIN, b0=4.0, q=q, m=8)
        state = draw.to_bytes(4, "big") + tail
        assert expand(p, state, 3) == _reference_expand(p, state, 3, False)

    @pytest.mark.parametrize("q", [0.5, 1 / 3, 0.125, 0.124875, 0.1])
    def test_bin_threshold_boundary(self, q):
        # Draws straddling q * 2^31, integer (0.5, 0.125) or not.
        p = UtsParams(tree_type=TreeType.BIN, b0=4.0, q=q, m=2)
        edge = int(q * 2**31)
        sizes = set()
        for draw in range(edge - 2, edge + 3):
            state = draw.to_bytes(4, "big") + bytes(16)
            kids = expand(p, state, 1)
            assert kids == _reference_expand(p, state, 1, False), draw
            sizes.add(len(kids))
        assert sizes == {0, 2}

    def test_built_once_per_tree(self):
        assert expander(BENCH_BIN) is expander(BENCH_BIN)
        assert expander(TEST_SMALL) is not expander(BENCH_BIN)

    def test_expand_checks_its_arguments(self):
        with pytest.raises(ValueError, match="19"):
            expand(TEST_TINY, bytes(19), 1)
        with pytest.raises(ValueError, match="depth"):
            expand(TEST_TINY, TEST_TINY.root(), -1)


#: (nodes, checksum) of the mp oracle, measured with the generic rule.
#: ``--verify`` compares PEs with an oracle that shares their expander,
#: so these pins are what tie both to the rule.
PINNED_TREES = {
    "test_tiny": (85, 0x82FB69AB192CBA3),
    "test_small": (3542, 0x6CA571BC26B258F5),
    "bench_geo": (68221, 0x49A081F4C8A5AE84),
    "sweep_geo": (185317, 0x1EFCC6F7C960FAB6),
    "bench_bin": (147321, 0xBE1317B755E480F5),
}


@pytest.mark.parametrize("name", sorted(PINNED_TREES))
def test_oracle_pins_named_trees(name):
    from repro.mp.driver import uts_expected

    assert uts_expected(get_tree(name)) == PINNED_TREES[name]
