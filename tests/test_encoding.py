import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched.actions import Action, ActionSpace
from consched.cluster import ClusterConfig, ClusterState, Placement, enumerate_placements
from consched.contention import CS_CAP
from consched.encoding import (BANDWIDTH_SCALE, POOLED_FEATURES, RATIO_SCALE, SCORER_FEATURES,
                               encode_state, job_features, window_candidates, write_scorer_rows)
from consched.engine import EpisodeConfig, EpisodeCS
from consched.errors import ConfigError
from consched.policies import RLBasePolicy
from consched.rl.train import TrainConfig, make_net
from consched.workload import JobState, TraceSpec, generate_trace

CFG = ClusterConfig()
EMPTY_FREE = np.full(CFG.num_nodes, CFG.gpus_per_node)


def jobs_with_demands(demands):
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
        picked = window_candidates(specs, k, CFG, cluster.free_per_node)
        ds = [c.gpu_demand for c in picked]
        assert len(picked) <= k
        assert ds == sorted(set(ds))
        first_of = {}
        for spec in specs:
            first_of.setdefault(spec.gpu_demand, spec)
        fitting = [d for d in first_of if enumerate_placements(cluster, d)]
        assert all(first_of[c.gpu_demand] is c for c in picked)
        assert ds == sorted(fitting[:k])


def decision_on(cluster, specs, states, scale=2.0):
    """A fresh seed-0 RL-base decision on the cluster, with contention_scale at scale."""
    net, space = make_net(CFG, TrainConfig(seed=0))
    net.params["contention_scale"][0] = scale
    cs = EpisodeCS(cluster, states, EpisodeConfig())
    return RLBasePolicy(net, space).decide(cluster, specs, states, None, cs).rl, cs


class TestPooledInput:
    def test_empty_cluster(self):
        specs = jobs_with_demands([4, 8])
        states = states_for(specs)
        pooled = encode_state(ClusterState(CFG), specs, states, {}, queued=5)
        assert pooled.shape == (len(POOLED_FEATURES),)
        own = np.mean([job_features(states[s.id]) for s in specs], axis=0)
        np.testing.assert_allclose(pooled, [0.0, 0.0, 5 / 32, 0.0, 0.0, 12 / 32, *own],
                                   rtol=0, atol=1e-15)

    def test_reads_the_running_jobs(self):
        specs = jobs_with_demands([4, 6, 2])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        cluster.allocate(specs[1].id, Placement(nodes=(1, 2), gpus_per_node_used=3))
        profile = {specs[0].id: 1.5, specs[1].id: 9.0}  # the second beyond the cap
        pooled = dict(zip(POOLED_FEATURES,
                          encode_state(cluster, [specs[2]], states, profile, queued=1)))
        assert pooled["util"] == cluster.used / 32
        assert pooled["running"] == 2 / 32
        assert pooled["mean_cs"] == pytest.approx((0.5 + CS_CAP - 1) / 2)
        assert pooled["max_cs"] == CS_CAP - 1

    def test_pure_function(self):
        specs = jobs_with_demands([4, 8])
        states = states_for(specs)
        cluster = ClusterState(CFG)
        cluster.allocate(specs[0].id, Placement(nodes=(0,), gpus_per_node_used=4))
        a = encode_state(cluster, [specs[1]], states, {specs[0].id: 1.0}, 1)
        b = encode_state(cluster, [specs[1]], states, {specs[0].id: 1.0}, 1)
        assert np.array_equal(a, b)

    def test_job_features_layout(self):
        specs = jobs_with_demands([4])
        state = JobState(spec=specs[0])
        state.samples_done = specs[0].total_samples / 4
        ratio, bandwidth, progress = job_features(state)
        profile = specs[0].profile
        assert ratio == min(profile.comm_comp_ratio / RATIO_SCALE, 1.0)
        assert bandwidth == min(profile.avg_bandwidth / BANDWIDTH_SCALE, 1.0)
        assert progress == pytest.approx(0.25)


class TestScorerRows:
    @given(demands=st.lists(st.integers(1, 32), min_size=1, max_size=8),
           used=st.lists(st.integers(0, 8), min_size=4, max_size=4), done=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_in_range_one_per_unmasked_index(self, demands, used, done):
        specs = jobs_with_demands(demands)
        states = states_for(specs)
        cluster = ClusterState(CFG)
        for node, u in enumerate(used):
            if u:
                runner = replace(specs[0], id=100 + node, gpu_demand=u)
                states[runner.id] = JobState(spec=runner)
                cluster.allocate(runner.id, Placement(nodes=(node,), gpus_per_node_used=u))
        for spec in specs:
            states[spec.id].samples_done = spec.total_samples * done
        rl, _ = decision_on(cluster, specs, states)
        if rl.pooled is None:
            return
        assert rl.features.shape == (int(rl.masks.sum()), len(SCORER_FEATURES))
        assert np.isfinite(rl.features).all() and np.isfinite(rl.pooled).all()
        cs = [SCORER_FEATURES.index(name) for name in ("cs", "max_rise", "sum_rise")]
        assert rl.features.min() >= 0.0
        assert rl.features[:, cs[:2]].max() <= CS_CAP - 1
        assert np.delete(rl.features, cs, axis=1).max() <= 1.0

    def test_skip_row_holds_only_the_candidates_own_features(self):
        specs = jobs_with_demands([4])
        states = states_for(specs)
        rl, _ = decision_on(ClusterState(CFG), specs, states)
        skip_row = rl.features[int(rl.masks[0].sum()) - 1]
        assert np.array_equal(skip_row, [0.0] * 6 + list(job_features(states[specs[0].id])))

    def test_write_scorer_rows(self, tmp_path):
        specs = jobs_with_demands([4, 2])
        rl, _ = decision_on(ClusterState(CFG), specs, states_for(specs))
        path = tmp_path / "scorer.csv"
        write_scorer_rows(rl, 7, path)
        comment, header, *rows = path.read_text().splitlines()
        assert comment.startswith("# round 7; pooled value input: util=")
        assert header.split(",") == ["head", "index", "verdict", "chosen", *SCORER_FEATURES]
        assert len(rows) == rl.masks.sum()
        assert sum(int(row.split(",")[3]) for row in rows) == rl.masks.shape[0]


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
