import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched.actions import ActionSpace
from consched.cluster import (ClusterConfig, ClusterState, Placement, capable_nodes,
                              demand_shapes, first_fit)
from consched.errors import (AllocationConflictError, InvalidDemandError,
                             InvalidPlacementError, NotFoundError)


@pytest.fixture
def cluster():
    return ClusterState(ClusterConfig())


def counts(cluster):
    """The free GPUs per node, the used count and the resident sets, as plain values."""
    return cluster.free_per_node.tolist(), cluster.used, [set(jobs) for jobs in cluster.residents]


def all_placements(cluster, demand):
    """Every feasible placement for the demand, in ascending width then lexicographic order."""
    return [Placement(nodes=nodes, gpus_per_node_used=j)
            for i, j, capable in capable_nodes(cluster, demand)
            for nodes in itertools.combinations(capable, 2 ** i)]


def listed(cluster, demand):
    """The placements an RL head lists for the demand."""
    return ActionSpace(cluster.config).choices(cluster, demand)[0]


def shapes_of(placements):
    return {(len(p.nodes), p.gpus_per_node_used) for p in placements}


class TestPlacement:
    def test_power_of_two_node_count_enforced(self):
        with pytest.raises(InvalidPlacementError):
            Placement(nodes=(0, 1, 2), gpus_per_node_used=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(InvalidPlacementError):
            Placement(nodes=(0, 0), gpus_per_node_used=1)

    def test_total(self):
        assert Placement(nodes=(0, 1), gpus_per_node_used=3).total_gpus == 6


class TestListedPlacements:
    """On 4x8 a head lists every feasible placement (at most 6 per width)."""

    def test_demand_4_has_all_three_shapes(self, cluster):
        shapes = shapes_of(listed(cluster, 4))
        assert {(1, 4), (2, 2), (4, 1)} <= shapes

    def test_demand_8_excludes_mismatched_factorization(self, cluster):
        shapes = shapes_of(listed(cluster, 8))
        assert (2, 2) not in shapes  # 2 nodes x 2 GPUs is 4 GPUs, not 8
        assert (2, 4) in shapes

    def test_demand_3_single_node_only(self, cluster):
        shapes = shapes_of(listed(cluster, 3))
        assert shapes == {(1, 3)}

    def test_ordering_ascending_width_then_lexicographic(self, cluster):
        placements = listed(cluster, 4)
        widths = [len(p.nodes) for p in placements]
        assert widths == sorted(widths)
        two_node = [p.nodes for p in placements if len(p.nodes) == 2]
        assert two_node == sorted(two_node)

    def test_every_placement_on_4_nodes(self, cluster):
        assert listed(cluster, 4) == all_placements(cluster, 4)
        assert len(listed(cluster, 4)) == 4 + 6 + 1

    def test_invalid_demand(self, cluster):
        with pytest.raises(InvalidDemandError):
            listed(cluster, 0)
        with pytest.raises(InvalidDemandError):
            listed(cluster, 33)

    def test_no_feasible_returns_empty(self):
        cluster = ClusterState(ClusterConfig(num_nodes=2, gpus_per_node=2))
        cluster.allocate(0, Placement(nodes=(0, 1), gpus_per_node_used=2))
        assert listed(cluster, 1) == []

    @given(demand=st.integers(min_value=1, max_value=32))
    @settings(max_examples=40, deadline=None)
    def test_listed_placements_never_conflict(self, demand):
        cluster = ClusterState(ClusterConfig())
        for placement in listed(cluster, demand):
            trial = cluster.copy()
            trial.allocate(7, placement)  # must not raise
            trial.audit()


class TestAllocateFree:
    def test_allocate_updates_used(self, cluster):
        cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=2))
        assert cluster.used == 2

    def test_allocate_takes_gpus_on_its_nodes_only(self, cluster):
        cluster.allocate(1, Placement(nodes=(0, 2), gpus_per_node_used=3))
        assert cluster.free_per_node.tolist() == [5, 8, 5, 8]
        assert cluster.used == 6
        assert cluster.residents == [{1}, set(), {1}, set()]

    def test_conflict_leaves_state_unchanged(self, cluster):
        cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=7))
        before = counts(cluster)
        with pytest.raises(AllocationConflictError):
            cluster.allocate(2, Placement(nodes=(0,), gpus_per_node_used=2))
        assert counts(cluster) == before
        assert 2 not in cluster.placements

    def test_double_allocate_same_job(self, cluster):
        cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=1))
        with pytest.raises(AllocationConflictError):
            cluster.allocate(1, Placement(nodes=(1,), gpus_per_node_used=1))

    def test_unknown_node(self, cluster):
        with pytest.raises(InvalidPlacementError):
            cluster.allocate(1, Placement(nodes=(9,), gpus_per_node_used=1))

    def test_allocate_free_roundtrip(self, cluster):
        before = counts(cluster)
        cluster.allocate(1, Placement(nodes=(0, 1), gpus_per_node_used=3))
        cluster.free(1)
        assert counts(cluster) == before
        assert cluster.placements == {}

    def test_free_unknown_job(self, cluster):
        with pytest.raises(NotFoundError):
            cluster.free(42)

    def test_free_keeps_other_jobs(self, cluster):
        cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=2))
        cluster.allocate(2, Placement(nodes=(0,), gpus_per_node_used=2))
        cluster.free(1)
        assert cluster.used == 2
        assert 2 in cluster.placements


class TestUtilization:
    def test_empty(self, cluster):
        assert cluster.utilization() == 0.0

    def test_full(self, cluster):
        for node in range(4):
            cluster.allocate(node, Placement(nodes=(node,), gpus_per_node_used=8))
        assert cluster.utilization() == 1.0

    def test_quarter(self, cluster):
        cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=8))
        assert cluster.utilization() == 0.25

    def test_monotone_by_exact_demand(self, cluster):
        placement = Placement(nodes=(0, 1), gpus_per_node_used=2)
        before = cluster.utilization()
        cluster.allocate(1, placement)
        assert cluster.utilization() == pytest.approx(before + 4 / 32)
        cluster.free(1)
        assert cluster.utilization() == before


@given(ops=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 16)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_random_alloc_free_sequences_stay_consistent(ops):
    """Reconstruction audit under arbitrary allocate/free interleavings."""
    cluster = ClusterState(ClusterConfig())
    for jid, demand in ops:
        if jid in cluster.placements:
            cluster.free(jid)
        else:
            placement = first_fit(cluster, demand)
            if placement is not None:
                cluster.allocate(jid, placement)
        cluster.audit()
        assert cluster.used == sum(p.total_gpus for p in cluster.placements.values())


@given(ops=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 16)), max_size=40))
@settings(max_examples=60, deadline=None)
def test_copy_keeps_counts_apart(ops):
    """A copy's free vector, used count and resident sets are its own."""
    cluster = ClusterState(ClusterConfig())
    for jid, demand in ops:
        dup = cluster.copy()
        if jid in cluster.placements:
            cluster.free(jid)
        elif (placement := first_fit(cluster, demand)) is not None:
            cluster.allocate(jid, placement)
        dup.audit()
        cluster.audit()


@pytest.mark.parametrize("corrupt", [
    lambda c: c.free_per_node.__setitem__(1, 7),
    lambda c: setattr(c, "used", 3),
    lambda c: c.residents[0].add(9),
    lambda c: c.residents[0].discard(1),
    lambda c: c.placements.__setitem__(2, Placement(nodes=(0,), gpus_per_node_used=8)),
])
def test_audit_checks_counts_against_placements(cluster, corrupt):
    cluster.allocate(1, Placement(nodes=(0, 1), gpus_per_node_used=2))
    cluster.audit()
    corrupt(cluster)
    with pytest.raises(AllocationConflictError):
        cluster.audit()


def test_audit_rejects_overfilled_node(cluster):
    """Counts that agree with a placements map holding 10 GPUs on 8-GPU node 0."""
    cluster.allocate(1, Placement(nodes=(0, 1), gpus_per_node_used=2))
    cluster.placements[2] = Placement(nodes=(0,), gpus_per_node_used=8)
    cluster.free_per_node[0] -= 8
    cluster.used += 8
    cluster.residents[0].add(2)
    with pytest.raises(AllocationConflictError, match="overfill"):
        cluster.audit()


def test_demand_shapes_respects_cluster():
    small = ClusterConfig(num_nodes=2, gpus_per_node=2)
    assert demand_shapes(small, 4) == ((1, 2),)
    assert demand_shapes(small, 2) == ((0, 2), (1, 1))


class TestFirstFit:
    @given(data=st.data(), nodes=st.integers(1, 8), gpus=st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_matches_first_enumerated(self, data, nodes, gpus):
        config = ClusterConfig(num_nodes=nodes, gpus_per_node=gpus)
        cluster = ClusterState(config)
        for node in range(nodes):
            used = data.draw(st.integers(0, gpus))
            if used:
                cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=used))
        demand = data.draw(st.integers(1, config.total_gpus))
        assert first_fit(cluster, demand) == (all_placements(cluster, demand) or [None])[0]

    def test_invalid_demand(self, cluster):
        with pytest.raises(InvalidDemandError):
            first_fit(cluster, 33)

    def test_stops_at_first_combination(self):
        """32 nodes with one free GPU each: only 16 nodes x 1 GPU fits demand
        16, a shape with C(32, 16) ~ 6e8 combinations to enumerate."""
        cluster = ClusterState(ClusterConfig(num_nodes=32, gpus_per_node=8))
        cluster.allocate(0, Placement(nodes=tuple(range(32)), gpus_per_node_used=7))
        start = time.perf_counter()
        placement = first_fit(cluster, 16)
        assert time.perf_counter() - start < 1.0
        assert placement == Placement(nodes=tuple(range(16)), gpus_per_node_used=1)


def test_version_counts_allocate_and_free(cluster):
    assert cluster.version == 0
    cluster.allocate(1, Placement(nodes=(0,), gpus_per_node_used=2))
    dup = cluster.copy()
    cluster.free(1)
    assert (cluster.version, dup.version) == (2, 1)
    with pytest.raises(NotFoundError):
        cluster.free(1)
    assert cluster.version == 2  # a failed call changes nothing
