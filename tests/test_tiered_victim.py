"""Property tests for localized (tier-biased) victim selection."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.latency import TIERED_EDR, LatencyModel, TieredLatencyModel
from repro.fabric.topology import TieredTopology, Topology
from repro.runtime.victim import QuarantineSelector, TieredVictim, make_selector


def big_topology():
    """2 racks × 2 nodes × 2 sockets × 4 PEs: every tier populated."""
    return TieredTopology(
        npes=32, pes_per_node=8, pes_per_socket=4, nodes_per_rack=2
    )


def test_tiered_model_is_a_latency_model():
    """The tiered preset is a drop-in LatencyModel for the NIC."""
    assert isinstance(TIERED_EDR, TieredLatencyModel)
    assert isinstance(TIERED_EDR, LatencyModel)


class FakeClock:
    """Callable virtual clock (the selector calls ``clock()``)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestConstruction:
    def test_needs_two_pes(self):
        with pytest.raises(ValueError, match="at least 2 PEs"):
            TieredVictim(Topology(npes=1, pes_per_node=4), rank=0)

    def test_rejects_bad_weights(self):
        topo = big_topology()
        with pytest.raises(ValueError, match="non-negative"):
            TieredVictim(topo, rank=0, weights=(0.5, 0.5, -0.1, 0.1))
        with pytest.raises(ValueError, match="4 non-negative"):
            TieredVictim(topo, rank=0, weights=(1.0, 0.0))

    def test_rejects_all_zero_populated_tiers(self):
        topo = Topology(npes=4, pes_per_node=2)  # tiers 1 and 2 only
        with pytest.raises(ValueError, match="zero weight"):
            TieredVictim(topo, rank=0, weights=(1.0, 0.0, 0.0, 0.0))

    def test_make_selector_requires_topology(self):
        with pytest.raises(ValueError, match="needs a topology"):
            make_selector("tiered", npes=8, rank=0, seed=1, topology=None)

    def test_make_selector_builds_tiered(self):
        sel = make_selector(
            "tiered", npes=32, rank=0, seed=1, topology=big_topology()
        )
        assert isinstance(sel, TieredVictim)


class TestTierGeometry:
    def test_buckets_match_topology_tiers(self):
        topo = big_topology()
        sel = TieredVictim(topo, rank=0)
        for victim in range(1, topo.npes):
            assert sel.tier_of(victim) == topo.tier(0, victim)

    def test_plain_topology_degrades_to_two_tiers(self):
        topo = Topology(npes=8, pes_per_node=4)
        sel = TieredVictim(topo, rank=0)
        weights = sel.tier_weights()
        assert weights[0] == 0.0 and weights[3] == 0.0
        assert weights[1] > weights[2] > 0.0
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_empty_tier_weight_redistributed(self):
        # Single node: only tier-0/1 peers exist.
        topo = TieredTopology(
            npes=8, pes_per_node=8, pes_per_socket=4, nodes_per_rack=2
        )
        sel = TieredVictim(topo, rank=0)
        weights = sel.tier_weights()
        assert weights[2] == weights[3] == 0.0
        assert abs(sum(weights) - 1.0) < 1e-12
        # Renormalized 0.50 : 0.25 keeps the 2:1 near/far ratio.
        assert abs(weights[0] / weights[1] - 2.0) < 1e-12


class TestDrawDistribution:
    @given(rank=st.integers(0, 31), seed=st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_draws_valid_victims(self, rank, seed):
        sel = TieredVictim(big_topology(), rank=rank, seed=seed)
        for _ in range(200):
            v = sel.next_victim()
            assert 0 <= v < 32 and v != rank

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_tier_frequencies_respect_weights(self, seed):
        """Empirical tier frequencies track the declared probabilities."""
        sel = TieredVictim(big_topology(), rank=0, seed=seed)
        ndraws = 4000
        counts = Counter(sel.tier_of(sel.next_victim()) for _ in range(ndraws))
        for t, weight in enumerate(sel.tier_weights()):
            freq = counts[t] / ndraws
            # 4000 draws put the standard error under 0.008; 5 sigma.
            assert abs(freq - weight) < 0.04, (t, freq, weight)

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_within_tier_uniform_coverage(self, seed):
        """Every peer of a populated tier is eventually drawn."""
        sel = TieredVictim(big_topology(), rank=0, seed=seed)
        seen = {sel.next_victim() for _ in range(3000)}
        assert seen == set(range(1, 32))

    def test_deterministic_per_seed(self):
        a = TieredVictim(big_topology(), rank=3, seed=9)
        b = TieredVictim(big_topology(), rank=3, seed=9)
        assert [a.next_victim() for _ in range(50)] == [
            b.next_victim() for _ in range(50)
        ]


class TestQuarantineComposition:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_quarantine_excludes_while_keeping_bias(self, seed):
        """QuarantineSelector over TieredVictim: the bad victim vanishes,
        the surviving draws still come from the tiered distribution."""
        inner = TieredVictim(big_topology(), rank=0, seed=seed)
        sel = QuarantineSelector(inner, FakeClock(), quarantine_after=1)
        bad = 1  # a same-socket (tier 0) peer: drawn often, so the
        sel.note_timeout(bad)  # quarantine actually has to work
        draws = [sel.next_victim() for _ in range(500)]
        assert bad not in draws
        tiers = Counter(inner.tier_of(v) for v in draws)
        assert tiers[0] > 0  # tier 0 still reachable via other peers
        assert set(tiers) <= {0, 1, 2, 3}

    def test_quarantine_expiry_restores_victim(self):
        inner = TieredVictim(big_topology(), rank=0, seed=5)
        clock = FakeClock()
        sel = QuarantineSelector(
            inner, clock, quarantine_after=1, quarantine_time=100e-6
        )
        sel.note_timeout(2)
        assert sel.is_quarantined(2)
        clock.now = 1.0
        assert not sel.is_quarantined(2)
