import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched.actions import Action, ActionSpace
from consched.cluster import ClusterConfig, ClusterState, Placement, enumerate_placements
from consched.encoding import (FEATURE_DIM, dump_state_csv, encode_state, feature_vector,
                               window_candidates)
from consched.errors import ConfigError
from consched.workload import JobState, Phase, TraceSpec, generate_trace

CFG = ClusterConfig()
EMPTY_FREE = np.full(CFG.num_nodes, CFG.gpus_per_node)


def jobs_with_demands(demands):
    from dataclasses import replace
    if not demands:
        return []
    base = generate_trace(TraceSpec(num_jobs=len(demands), seed=0))
    return [replace(j, gpu_demand=d) for j, d in zip(base, demands)]


def states_for(specs):
    return {s.id: JobState(spec=s) for s in specs}


class TestSelectCandidates:
    """Candidate selection by window_candidates, the RL policies' window."""

    def test_distinct_demand_rule(self):
        specs = jobs_with_demands([8, 8, 4, 2, 8])
        picked = window_candidates(specs, 3, CFG, EMPTY_FREE)
        assert [c.gpu_demand for c in picked] == [2, 4, 8]
        assert picked[2].id == specs[0].id  # the first 8, not a later one

    def test_empty_queue(self):
        assert window_candidates([], 3, CFG, EMPTY_FREE) == []

    def test_k_one_head_only(self):
        specs = jobs_with_demands([5, 1, 2])
        assert window_candidates(specs, 1, CFG, EMPTY_FREE) == [specs[0]]

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            window_candidates([], 0, CFG, EMPTY_FREE)

    @given(demands=st.lists(st.integers(1, 32), max_size=12), k=st.integers(1, 6),
           used=st.lists(st.integers(0, 8), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, demands, k, used):
        specs = jobs_with_demands(demands)
        cluster = ClusterState(CFG)
        for node, u in enumerate(used):
            if u:
                cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=u))
        picked = window_candidates(specs, k, CFG, cluster.free_gpus_per_node())
        ds = [c.gpu_demand for c in picked]
        assert len(picked) <= k
        assert ds == sorted(set(ds))
        first_of = {}
        for spec in specs:
            first_of.setdefault(spec.gpu_demand, spec)
        fitting = [d for d in first_of if enumerate_placements(cluster, d)]
        assert all(first_of[c.gpu_demand] is c for c in picked)
        assert ds == sorted(fitting[:k])


class TestEncodeState:
    def test_empty_everything_all_zero(self):
        tensor = encode_state(ClusterState(CFG), [], {})
        assert tensor.shape == (4, 16, FEATURE_DIM)
        assert not tensor.any()

    def test_candidate_demand_4_slots(self):
        specs = jobs_with_demands([4])
        tensor = encode_state(ClusterState(CFG), specs, states_for(specs))
        right = tensor[:, 8:, :]
        nonzero = {(i, j) for i in range(4) for j in range(8) if right[i, j].any()}
        assert nonzero == {(0, 3), (1, 1), (2, 0)}  # (i, j-1) for 1x4, 2x2, 4x1

    def test_running_job_slots(self):
        specs = jobs_with_demands([2])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=2))
        states[specs[0].id].phase = Phase.RUNNING
        tensor = encode_state(cluster, [], states)
        left = tensor[:, :8, :]
        nonzero = {(n, g) for n in range(4) for g in range(8) if left[n, g].any()}
        assert nonzero == {(0, 0), (0, 1)}

    def test_left_slot_count_equals_used_gpus(self):
        specs = jobs_with_demands([4, 6, 2])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        cluster.allocate(specs[1].id, Placement(nodes=(1, 2), gpus_per_node_used=3))
        tensor = encode_state(cluster, [specs[2]], states)
        left = tensor[:, :8, :]
        assert sum(1 for n in range(4) for g in range(8) if left[n, g].any()) == cluster.used_gpus()

    def test_pure_function(self):
        specs = jobs_with_demands([4, 8])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        a = encode_state(cluster, [specs[1]], states)
        b = encode_state(cluster, [specs[1]], states)
        assert np.array_equal(a, b)

    def test_features_in_unit_range(self):
        specs = jobs_with_demands([4, 8, 1])
        states = states_for(specs)
        for s in specs:
            states[s.id].last_cs = 7.5  # beyond the cap
            states[s.id].samples_done = s.total_samples / 3
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        tensor = encode_state(cluster, specs[1:], states)
        assert np.isfinite(tensor).all()
        assert tensor.min() >= 0.0 and tensor.max() <= 1.0

    def test_feature_vector_layout(self):
        specs = jobs_with_demands([4])
        state = JobState(spec=specs[0])
        state.last_cs = 2.0
        vec = feature_vector(specs[0], state)
        assert vec.shape == (FEATURE_DIM,)
        assert vec[:6].sum() == 1.0  # one-hot
        assert vec[8] == pytest.approx(0.5)  # CS 2.0 / cap 4.0

    def test_dump_csv(self, tmp_path):
        specs = jobs_with_demands([4])
        tensor = encode_state(ClusterState(CFG), specs, states_for(specs))
        path = tmp_path / "state.csv"
        dump_state_csv(tensor, path)
        text = path.read_text()
        assert "feature 0" in text
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 4 * FEATURE_DIM


class TestActionSpace:
    def test_size_for_default_cluster(self):
        space = ActionSpace(CFG)
        # C(4,1) + C(4,2) + C(4,4) node subsets plus skip
        assert space.size == 4 + 6 + 1 + 1
        assert space.skip_index == 11

    def test_size_at_8_nodes(self):
        # C(8,1) + C(8,2) + C(8,4) + C(8,8) node subsets plus skip
        assert ActionSpace(ClusterConfig(num_nodes=8)).size == 107 + 1

    def test_oversized_cluster_fails_before_building(self):
        # 32 nodes would need about 6.1e8 subsets; the check is arithmetic only
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="subsets"):
            ActionSpace(ClusterConfig(num_nodes=32))
        assert time.perf_counter() - start < 1.0

    def test_placement_for_index(self):
        space = ActionSpace(CFG)
        idx = space.subsets.index((1, (0, 2)))
        placement = space.placement_for(idx, demand=8)
        assert placement.nodes == (0, 2)
        assert placement.gpus_per_node_used == 4

    def test_mask_respects_occupancy(self):
        space = ActionSpace(CFG)
        free = np.array([8, 8, 8, 8])
        mask = space.mask_for(4, free)
        assert mask[space.skip_index]
        assert mask.sum() == 1 + 4 + 6 + 1  # all shapes feasible on empty
        free = np.array([2, 0, 0, 0])
        mask = space.mask_for(4, free)
        feasible = [space.subsets[i] for i in range(space.size - 1) if mask[i]]
        assert feasible == []  # nothing fits: 1x4 needs 4 free, 2x2 two nodes

    def test_mask_skip_only_for_none(self):
        space = ActionSpace(CFG)
        mask = space.mask_for(None, np.array([8, 8, 8, 8]))
        assert mask[space.skip_index] and mask.sum() == 1

    @given(data=st.data(), nodes=st.integers(1, 8), gpus=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_mask_equals_per_subset_check(self, data, nodes, gpus):
        """The vectorised mask against a test of each subset on its own."""
        config = ClusterConfig(num_nodes=nodes, gpus_per_node=gpus)
        space = ActionSpace(config)
        free = np.array(data.draw(st.lists(st.integers(0, gpus), min_size=nodes,
                                           max_size=nodes)))
        demand = data.draw(st.integers(1, config.total_gpus))
        expected = np.zeros(space.size, dtype=bool)
        expected[space.skip_index] = True
        for idx, (i, combo) in enumerate(space.subsets):
            j, rem = divmod(demand, 2 ** i)
            expected[idx] = rem == 0 and 1 <= j <= gpus and all(free[n] >= j for n in combo)
        np.testing.assert_array_equal(space.mask_for(demand, free), expected)

    @given(demand=st.integers(1, 32), free=st.lists(st.integers(0, 8), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_unmasked_indices_always_allocatable(self, demand, free):
        space = ActionSpace(CFG)
        cluster = ClusterState(CFG)
        for node, used in enumerate([8 - f for f in free]):
            if used:
                cluster.allocate(100 + node, Placement(nodes=(node,), gpus_per_node_used=used))
        mask = space.mask_for(demand, np.array(free))
        for idx in np.flatnonzero(mask[:-1]):
            trial = cluster.copy()
            trial.allocate(0, space.placement_for(int(idx), demand))


def test_action_noop():
    assert Action().is_noop
    assert not Action(placements=[(1, Placement(nodes=(0,), gpus_per_node_used=1))]).is_noop
