import logging
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched import engine, workload
from consched.actions import Action
from consched.cluster import ClusterConfig, ClusterState, Placement
from consched.contention import CS_CAP, ContentionParams, ModelClass
from consched.engine import (STRETCH_CHUNK, ComparisonReport, EpisodeConfig, RoundRecord,
                             _accumulate, _defer, advance_stretch, compare_policies,
                             percentile_90, run_episode)
from consched.errors import ConfigError, InvalidPlacementError
from consched.policies import (POLICY_KINDS, GreedyPolicy, RLBasePolicy, SRTFPolicy,
                               decide_fifo_greedy, make_policy)
from consched.reports import ROUND_COLUMNS, write_episode_report
from consched.rl.reward import RewardWeights, reward_from_terms
from consched.rl.train import TrainConfig, make_net, train
from consched.workload import MIX_PRESETS, JobState, TraceSpec, advance, generate_trace
from test_golden import flat, trajectory_rows

CFG = ClusterConfig()
OFF = ContentionParams(mode="off")


class AuditedCluster(ClusterState):
    """A ClusterState that checks its counts against its placements after every allocate and free."""

    def allocate(self, job_id, placement):
        super().allocate(job_id, placement)
        self.audit()
        return self

    def free(self, job_id):
        super().free(job_id)
        self.audit()
        return self


@contextmanager
def audited():
    """Audit the run_episode call inside: rounds one at a time, per-round rows.

    advance_stretch makes no chunk, so every round goes through advance
    on its own; the episode's cluster audits itself after every allocate and
    free. Yields a list that holds, for round k, one row per job the
    round advanced: (job, CS, throughput, samples before, samples
    after, active time, restore time burned). The CS is the job's entry
    in the last map EpisodeCS.profile returned, the map the round used.
    """
    rows = []
    used = [{}]
    profile = engine.EpisodeCS.profile

    def last_profile(self):
        used[0] = profile(self)
        return used[0]

    def advance(state, dt, throughput, now):
        k = round(now / dt)  # now is k * dt
        rows.extend([] for _ in range(k + 1 - len(rows)))
        before, restore = state.samples_done, state.restore_remaining
        active = workload.advance(state, dt, throughput, now=now)
        rows[k].append((state.spec.id, used[0][state.spec.id], throughput, before,
                        state.samples_done, active, restore - state.restore_remaining))
        return active

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine.EpisodeCS, "profile", last_profile)
        patch.setattr(engine, "_accumulate", lambda *args: 0)
        patch.setattr(engine, "advance", advance)
        patch.setattr(engine, "ClusterState", AuditedCluster)
        yield rows


def jobs_with(demands, runtimes=None, models=None):
    base = generate_trace(TraceSpec(num_jobs=len(demands), seed=0))
    out = []
    for k, job in enumerate(base):
        fields = {"gpu_demand": demands[k]}
        if runtimes:
            fields["isolated_runtime"] = runtimes[k]
            fields["total_samples"] = runtimes[k] * job.ideal_throughput
        if models:
            fields["profile"] = replace(job.profile, model_class=models[k])
        out.append(replace(job, **fields))
    return out


def pair_table(value_ab, value_ba, model=ModelClass.LM):
    """Table giving fixed CS for any single-node shape pair of one model."""
    return ContentionParams(mode="table", table={
        ((model, (0, j1)), (model, (0, j2))): value_ab
        for j1 in range(1, 9) for j2 in range(1, 9)})


class ScriptedPolicy:
    """Plays back a fixed list of Actions, then greedy."""

    name = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.greedy = GreedyPolicy()

    def decide(self, cluster, queue, states, rng=None, cs=None):
        if self.script:
            return self.script.pop(0)
        return self.greedy.decide(cluster, queue, states, rng, cs)


class TestSingleJob:
    def test_jct_equals_isolated_runtime(self):
        trace = jobs_with([4], runtimes=[60.0])
        report = run_episode(GreedyPolicy(), trace, EpisodeConfig())
        assert report.jobs[0].jct == pytest.approx(60.0)
        assert report.jobs[0].preemptions == 0

    def test_two_disjoint_jobs(self):
        trace = jobs_with([8, 8], runtimes=[60.0, 60.0])
        report = run_episode(GreedyPolicy(), trace, EpisodeConfig())
        assert all(j.jct == pytest.approx(60.0) for j in report.jobs)


class TestTwoJobTimelineOracle:
    """Hand-simulated oracle: two identical jobs forced onto one node with
    pairwise table CS 2.0 both ways."""

    def setup_trace(self):
        trace = jobs_with([2, 2], runtimes=[60.0, 60.0],
                          models=[ModelClass.LM, ModelClass.LM])
        config = ClusterConfig(num_nodes=1, gpus_per_node=4)
        return trace, config

    def test_threshold_off_both_jct_doubled(self):
        trace, config = self.setup_trace()
        ep = EpisodeConfig(round_interval=1.0, cs_preemption_threshold=None,
                           contention=pair_table(2.0, 2.0))
        report = run_episode(GreedyPolicy(), trace, ep, config)
        # fully overlapped at CS 2: both crawl at half speed for 120s
        assert [j.jct for j in report.jobs] == pytest.approx([120.0, 120.0])
        assert report.aggregates["total_preemptions"] == 0

    def test_threshold_preempts_exactly_one_first_round(self):
        trace, config = self.setup_trace()
        ep = EpisodeConfig(round_interval=1.0, cs_preemption_threshold=1.5,
                           contention=pair_table(2.0, 2.0))
        report = run_episode(GreedyPolicy(), trace, ep, config)
        assert next(iter(report.rounds)).num_preempted == 1
        # ties break toward the later id: job 1 is the victim
        assert report.jobs[1].preemptions >= 1
        assert report.jobs[0].preemptions == 0


class TestPreemptSemantics:
    def test_progress_retained_and_penalty_delays_exactly(self, monkeypatch):
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 0.0)
        trace = jobs_with([2], runtimes=[60.0])
        config = ClusterConfig(num_nodes=1, gpus_per_node=2)
        place = Action(placements=[(trace[0].id, Placement(nodes=(0,), gpus_per_node_used=2))])

        def run(penalty):
            script = [place, Action(preemptions=[trace[0].id])]
            ep = EpisodeConfig(round_interval=1.0, restore_penalty=penalty,
                               cs_preemption_threshold=None)
            return run_episode(ScriptedPolicy(script), trace, ep, config)

        with_penalty = run(5.0)
        without = run(0.0)
        assert with_penalty.jobs[0].preemptions == 1
        delta = with_penalty.jobs[0].jct - without.jobs[0].jct
        assert delta == pytest.approx(5.0)

    def test_preempted_job_first_in_queue_next_round(self, monkeypatch):
        # two jobs contending; the preempted one must come back as the
        # head-of-queue candidate once its checkpoint grace expires
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 0.0)
        trace = jobs_with([2, 2, 1], runtimes=[60.0, 60.0, 60.0],
                          models=[ModelClass.LM, ModelClass.LM, ModelClass.GNN])
        config = ClusterConfig(num_nodes=1, gpus_per_node=8)
        ep = EpisodeConfig(round_interval=1.0, cs_preemption_threshold=1.5,
                           contention=pair_table(2.0, 2.0))
        report = run_episode(GreedyPolicy(), trace, ep, config)
        assert all(j.finish is not None for j in report.jobs)

    def test_requeue_order_follows_preemption_order(self, monkeypatch):
        """Round 1 preempts job 2 (the policy) and then job 1 (CS threshold),
        round 2 preempts job 3; each comes back at the queue head once its
        checkpoint is ready, the round's jobs in preemption order."""
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 2.0)
        trace = jobs_with([2] * 5, runtimes=[600.0] * 5, models=[ModelClass.LM] * 5)

        def on(node):
            return Placement(nodes=(node,), gpus_per_node_used=2)

        policy = QueueRecorder([
            Action(placements=[(0, on(0)), (2, on(1)), (3, on(2))]),
            Action(preemptions=[2], placements=[(1, on(0))]),  # 1 and 0 share node 0
            Action(preemptions=[3]),
            Action(),
        ])
        ep = EpisodeConfig(round_interval=1.0, cs_preemption_threshold=1.5,
                           contention=pair_table(2.0, 2.0))
        report = run_episode(policy, trace, ep)
        assert policy.queues[:5] == [[0, 1, 2, 3, 4], [1, 4], [4], [2, 1, 4], [3, 2, 1, 4]]
        assert [r.num_preempted for r in report.rounds][:4] == [0, 2, 1, 0]


class TestInvariants:
    def test_job_conservation_and_audits(self):
        trace = generate_trace(TraceSpec(num_jobs=24, seed=3))
        with audited() as rows:
            report = run_episode(make_policy("las"), trace, EpisodeConfig())
        assert len(rows) == len(report.rounds)
        assert len(report.jobs) == 24
        assert all(j.finish is not None and j.jct >= j.isolated_runtime - 1e-9
                   for j in report.jobs)
        # work conservation: per-round sample deltas equal throughput times
        # the active time net of restore-penalty burn
        for row in rows:
            for (_, _, thr, before, after, active, burned) in row:
                assert after - before == pytest.approx(thr * (active - burned), abs=1e-9)

    def test_contention_off_jct_is_queueing_plus_isolated(self):
        trace = generate_trace(TraceSpec(num_jobs=16, seed=5))
        ep = EpisodeConfig(contention=OFF)
        report = run_episode(GreedyPolicy(), trace, ep)
        for job in report.jobs:
            queueing = job.start - job.arrival
            assert job.jct == pytest.approx(queueing + job.isolated_runtime)

    def test_aggregates_recomputable(self):
        trace = generate_trace(TraceSpec(num_jobs=16, seed=6))
        report = run_episode(GreedyPolicy(), trace, EpisodeConfig())
        jcts = [j.jct for j in report.jobs]
        assert report.aggregates["avg_jct"] == pytest.approx(
            sum(jcts) / len(jcts), rel=1e-9)
        assert report.aggregates["p90_jct"] == pytest.approx(
            percentile_90(jcts), rel=1e-9)
        utils = [r.utilization for r in report.rounds]
        assert report.aggregates["mean_util"] == pytest.approx(
            sum(utils) / len(utils), rel=1e-9)

    def test_determinism(self):
        trace = generate_trace(TraceSpec(num_jobs=16, seed=7))
        a = run_episode(make_policy("srtf"), trace, EpisodeConfig())
        b = run_episode(make_policy("srtf"), trace, EpisodeConfig())
        assert [j.jct for j in a.jobs] == [j.jct for j in b.jobs]
        assert [r.reward for r in a.rounds] == [r.reward for r in b.rounds]

    def test_poisson_trace_episode(self):
        trace = generate_trace(TraceSpec(num_jobs=16, seed=8, arrival="poisson",
                                         arrival_rate=0.05))
        report = run_episode(GreedyPolicy(), trace, EpisodeConfig())
        for job in report.jobs:
            assert job.start >= job.arrival - 1e-9


class QueueRecorder:
    """Plays back a fixed list of Actions, then greedy; records each queue seen."""

    name = "queue-recorder"

    def __init__(self, script=()):
        self.script = list(script)
        self.greedy = GreedyPolicy()
        self.queues = []

    def decide(self, cluster, queue, states, rng=None, cs=None):
        self.queues.append([s.id for s in queue])
        if self.script:
            return self.script.pop(0)
        return self.greedy.decide(cluster, queue, states, rng, cs)


class ClusterRecorder(ScriptedPolicy):
    """Plays back a fixed list of Actions, then greedy; keeps the cluster and
    the placements each decide saw."""

    def __init__(self, script):
        super().__init__(script)
        self.seen = []

    def decide(self, cluster, queue, states, rng=None, cs=None):
        self.cluster = cluster
        self.seen.append(dict(cluster.placements))
        return super().decide(cluster, queue, states, rng, cs)


class TestDeferral:
    def test_declined_job_moves_behind_same_demand_peers(self):
        trace = jobs_with([4, 2, 4, 4, 2])
        policy = QueueRecorder([Action(deferred=[0]), Action(deferred=[1])])
        run_episode(policy, trace, EpisodeConfig())
        assert policy.queues[0] == [0, 1, 2, 3, 4]
        assert policy.queues[1] == [1, 2, 3, 0, 4]
        assert policy.queues[2] == [2, 3, 0, 4, 1]

    def test_job_without_peers_keeps_its_place(self):
        trace = jobs_with([4, 2, 8])
        policy = QueueRecorder([Action(deferred=[1])])
        run_episode(policy, trace, EpisodeConfig())
        assert policy.queues[1] == [0, 1, 2]

    def test_placed_job_is_not_deferred(self):
        trace = jobs_with([4, 4])
        placement = Placement(nodes=(0,), gpus_per_node_used=4)
        policy = QueueRecorder([Action(placements=[(0, placement)], deferred=[0])])
        report = run_episode(policy, trace, EpisodeConfig())
        assert policy.queues[1] == [1]
        assert report.jobs[0].start == 0.0

    @pytest.mark.parametrize("case", ["not-arrived", "checkpointing"])
    def test_placing_a_job_that_is_not_queued_is_refused(self, case, monkeypatch):
        """The refusal comes before the allocate: the cluster keeps what it had."""
        monkeypatch.setattr(engine, "CHECKPOINT_GRACE", 100.0)
        trace = jobs_with([4, 4], runtimes=[600.0, 600.0])
        on = [Placement(nodes=(node,), gpus_per_node_used=4) for node in (0, 1)]
        if case == "not-arrived":
            trace[1] = replace(trace[1], arrival_time=50.0)
            script = [Action(placements=[(1, on[0])])]
        else:  # job 1 is preempted in round 1 and placed again in round 2
            script = [Action(placements=[(1, on[0])]), Action(preemptions=[1]),
                      Action(placements=[(1, on[1])])]
        policy = ClusterRecorder(script)
        with pytest.raises(InvalidPlacementError, match="job 1: it is not queued"):
            run_episode(policy, trace, EpisodeConfig(round_interval=1.0,
                                                     cs_preemption_threshold=None))
        assert len(policy.seen) == len(script)
        assert policy.cluster.placements == policy.seen[-1] == {}
        policy.cluster.audit()

    def test_job_no_longer_queued_leaves_the_queue_alone(self):
        placed, *queue = jobs_with([4, 2, 4])
        before = list(queue)
        _defer(queue, placed)
        assert queue == before

    def test_baseline_queues_untouched(self):
        trace = generate_trace(TraceSpec(num_jobs=24, seed=4))
        policy = QueueRecorder()
        run_episode(policy, trace, EpisodeConfig(cs_preemption_threshold=None))
        assert all(q == sorted(q) for q in policy.queues)
        states = {s.id: JobState(spec=s) for s in trace}
        cluster = ClusterState(CFG)
        for kind in ("greedy", "las", "srtf", "srtf-np"):
            assert make_policy(kind).decide(cluster, trace, states).deferred == []

    def test_rl_episode_conserves_jobs_under_audit(self):
        net, space = make_net(CFG, TrainConfig(seed=0))
        trace = generate_trace(TraceSpec(num_jobs=24, seed=9))
        with audited():
            report = run_episode(RLBasePolicy(net, space, deterministic=False), trace,
                                 EpisodeConfig(), rng=np.random.default_rng(1),
                                 record_trajectory=True)
        assert sorted(j.id for j in report.jobs) == sorted(s.id for s in trace)
        assert all(j.finish is not None and j.jct >= j.isolated_runtime - 1e-9
                   for j in report.jobs)
        assert any(step.has_choice for step, *_ in trajectory_rows(report.rounds))


class TestLivelockGuard:
    class AllSkip:
        name = "all-skip"

        def decide(self, cluster, queue, states, rng=None, cs=None):
            return Action()

    def test_forced_greedy_after_stall(self, caplog, monkeypatch):
        trace = jobs_with([4], runtimes=[30.0])
        monkeypatch.setattr(engine, "LIVELOCK_ROUNDS", 5)
        with caplog.at_level(logging.WARNING, logger="consched.engine"):
            report = run_episode(self.AllSkip(), trace, EpisodeConfig())
        assert report.jobs[0].finish is not None
        assert any("livelock" in rec.message for rec in caplog.records)

    def test_forced_round_places_every_job_greedy_places(self):
        """The guard applies the whole greedy scan, not one placement."""
        trace = generate_trace(TraceSpec(num_jobs=3, seed=1))  # demands 12, 5 and 3, at 0
        report = run_episode(self.AllSkip(), trace, EpisodeConfig())
        forced = next(record for record, *_ in report.rounds.runs if record.num_placed)
        greedy = decide_fifo_greedy(ClusterState(ClusterConfig()), trace).placements
        assert forced.time == (engine.LIVELOCK_ROUNDS - 1) * 0.25 == 2.25
        assert forced.num_placed == len(greedy) == 3


class TestConfigValidation:
    def test_bad_round_interval(self):
        with pytest.raises(ConfigError):
            EpisodeConfig(round_interval=0.0)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            EpisodeConfig(cs_preemption_threshold=1.0)

    def test_negative_restore_penalty(self):
        """A negative penalty would advance a restoring job past its round."""
        with pytest.raises(ConfigError, match="restore_penalty"):
            EpisodeConfig(restore_penalty=-30.0)
        assert EpisodeConfig(restore_penalty=0.0).restore_penalty == 0.0


class TestComparePolicies:
    def test_identical_policy_zero_delta(self):
        traces = [generate_trace(TraceSpec(num_jobs=12, seed=s)) for s in (1, 2)]
        cmp = compare_policies([("a", GreedyPolicy()), ("b", GreedyPolicy())],
                               traces, EpisodeConfig())
        for metric, delta in cmp.deltas[("a", "b")].items():
            assert delta == pytest.approx(0.0, abs=1e-12)

    def test_contention_off_not_worse(self):
        # same policy under identical placements: disabling contention can
        # only speed jobs up; compare without preemption so schedules stay
        # comparable
        trace = generate_trace(TraceSpec(num_jobs=16, seed=9))
        on = run_episode(GreedyPolicy(), trace,
                         EpisodeConfig(cs_preemption_threshold=None))
        off = run_episode(GreedyPolicy(), trace,
                          EpisodeConfig(cs_preemption_threshold=None, contention=OFF))
        assert off.aggregates["avg_jct"] <= on.aggregates["avg_jct"] + 1e-9

    def test_report_structure(self):
        traces = [generate_trace(TraceSpec(num_jobs=8, seed=4))]
        cmp = compare_policies([("greedy", GreedyPolicy()), ("srtf", SRTFPolicy())],
                               traces, EpisodeConfig())
        assert isinstance(cmp, ComparisonReport)
        assert set(cmp.per_policy) == {"greedy", "srtf"}
        assert ("greedy", "srtf") in cmp.deltas
        assert len(cmp.reports["greedy"]) == 1


def test_percentile_90_nearest_rank():
    values = list(map(float, range(1, 11)))
    assert percentile_90(values) == 9.0
    assert percentile_90([5.0]) == 5.0


class DecideCounter:
    """Delegates decide and counts the calls.

    every_round=True hides the policy's idle_between_events, so the
    engine asks it every round: the reference for the idle fast path.
    """

    def __init__(self, policy, every_round: bool):
        self.policy = policy
        self.name = policy.name
        self.calls = 0
        if not every_round:
            self.idle_between_events = policy.idle_between_events

    def decide(self, cluster, queue, states, rng=None, cs=None):
        self.calls += 1
        return self.policy.decide(cluster, queue, states, rng, cs)


BASELINES = ("greedy", "las", "srtf", "srtf-np")
NORMAL_64 = generate_trace(TraceSpec(num_jobs=64, seed=4))
HEAVY_POISSON = generate_trace(TraceSpec(num_jobs=32, seed=4, mix=MIX_PRESETS["heavy"],
                                         arrival="poisson", arrival_rate=0.05))


class TestIdleBetweenEvents:
    def run_both(self, kind, trace, episode):
        reports, counters = [], []
        for every_round in (True, False):
            counter = DecideCounter(make_policy(kind), every_round)
            reports.append(run_episode(counter, trace, episode))
            counters.append(counter)
        return reports, counters

    @pytest.mark.parametrize("kind", BASELINES)
    @pytest.mark.parametrize("trace", [NORMAL_64, HEAVY_POISSON], ids=["normal64", "heavy-poisson"])
    @pytest.mark.parametrize("threshold", [None, 2.0])
    def test_same_episode_as_deciding_every_round(self, kind, trace, threshold):
        (ref, fast), (ref_calls, fast_calls) = self.run_both(
            kind, trace, EpisodeConfig(cs_preemption_threshold=threshold))
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert fast.aggregates == ref.aggregates
        assert ref_calls.calls == len(ref.rounds)
        if trace is NORMAL_64:  # a backlog: most rounds place nothing
            assert fast_calls.calls < len(fast.rounds) / 10

    @pytest.mark.parametrize("kind", BASELINES)
    def test_same_episode_on_small_cluster_under_audit(self, kind):
        config = ClusterConfig(num_nodes=2, gpus_per_node=4)
        trace = generate_trace(TraceSpec(num_jobs=24, seed=2, demand_cap=8), config)
        reports, rows = [], []
        for every_round in (True, False):
            with audited() as audit_rows:
                reports.append(run_episode(DecideCounter(make_policy(kind), every_round), trace,
                                           EpisodeConfig(), config))
            rows.append(audit_rows)
        (ref, fast), (ref_rows, fast_rows) = reports, rows
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert len(ref_rows) == len(ref.rounds)
        assert fast_rows == ref_rows

    @pytest.mark.parametrize("kind", BASELINES)
    @pytest.mark.parametrize("restore_penalty", [5.0, 1.1, 0.3, 0.0])
    def test_restore_penalties_match_deciding_every_round(self, kind, restore_penalty):
        """Whole-penalty rounds go in chunks, partial ones through advance;
        the episode is the every-round one either way. At 0.25 s rounds a
        1.1 s penalty makes chunks that stop before its partial round,
        and 0.3 s ends in the one-round decisions after a placement."""
        episode = EpisodeConfig(cs_preemption_threshold=2.0, restore_penalty=restore_penalty)
        (ref, fast), _ = self.run_both(kind, HEAVY_POISSON, episode)
        assert ref.aggregates["total_preemptions"] > 0
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert fast.aggregates == ref.aggregates

    @pytest.mark.parametrize("kind", BASELINES)
    def test_synthetic_mode_with_a_slow_bus_matches_deciding_every_round(self, kind):
        """An intra-node bus slower than the network: a finish can raise a CS."""
        config = ClusterConfig(intra_node_bandwidth=400.0)
        episode = EpisodeConfig(cs_preemption_threshold=1.5,
                                contention=ContentionParams(mode="synthetic"))
        ref, fast = (run_episode(DecideCounter(make_policy(kind), every_round), HEAVY_POISSON,
                                 episode, config) for every_round in (True, False))
        assert ref.aggregates["total_preemptions"] > 0
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert fast.aggregates == ref.aggregates

    def test_a_finish_that_raises_a_cs_preempts_in_its_own_round(self):
        """With the intra-node bus slower than the network, a node that loses
        its multi-node job is judged against the bus, so the finish that ends
        an idle stretch raises its co-residents' CS (1.0 -> 1.75 here). The
        threshold preempts in the finishing round, at its time, as deciding
        every round does, and that round is a run of its own."""

        class IdleScripted(ScriptedPolicy):
            idle_between_events = True

        config = ClusterConfig(num_nodes=2, gpus_per_node=4, intra_node_bandwidth=400.0)
        trace = [replace(job, profile=replace(job.profile, avg_bandwidth=500.0,
                                              comm_comp_ratio=1.0))
                 for job in jobs_with([2, 1, 1], runtimes=[10.0, 60.0, 60.0])]
        place = Action(placements=[(0, Placement((0, 1), 1)), (1, Placement((0,), 1)),
                                   (2, Placement((0,), 1))])
        episode = EpisodeConfig(cs_preemption_threshold=1.5,
                                contention=ContentionParams(mode="synthetic"))
        ref, fast = (run_episode(DecideCounter(IdleScripted([place]), every_round), trace,
                                 episode, config) for every_round in (True, False))
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert fast.aggregates == ref.aggregates
        preempting = [(record.time, n) for record, _, n, _, _ in fast.rounds.runs
                      if record.num_preempted]
        assert preempting[0] == (9.75, 1)  # job 0 finishes at 10.0 s, the end of round 39
        assert fast.jobs[0].finish == 10.0
        assert all(n == 1 for _, n in preempting)


def fresh_rl_policy(kind, deterministic):
    net, space = make_net(CFG, TrainConfig(seed=0))
    return make_policy(kind, net=net, action_space=space, deterministic=deterministic)


def assert_same_trajectory(fast, ref):
    assert len(fast) == len(ref)
    for (step, reward, noop), (ref_step, ref_reward, ref_noop) in zip(fast, ref):
        assert (reward, noop) == (ref_reward, ref_noop)
        fields, ref_fields = flat(step), flat(ref_step)
        for name in ("pooled", "features", "prior", "verdicts"):
            if ref_fields[name] is None:
                assert fields[name] is None
            else:
                np.testing.assert_array_equal(fields[name], ref_fields[name])
        assert (step.choices, step.chosen) == (ref_step.choices, ref_step.chosen)
        assert (step.temperature, step.forced) == (ref_step.temperature, ref_step.forced)


class TestRLIdleBetweenEvents:
    """RL policies against a wrapper that asks them every round."""

    @pytest.mark.parametrize("kind, deterministic", [("rl-base", False), ("rl-hybrid", True)],
                             ids=["rl-base-sampling", "rl-hybrid-argmax"])
    @pytest.mark.parametrize("trace", [NORMAL_64, HEAVY_POISSON], ids=["normal64", "heavy-poisson"])
    @pytest.mark.parametrize("threshold", [None, 2.0])
    def test_same_episode_as_deciding_every_round(self, kind, deterministic, trace, threshold):
        episode = EpisodeConfig(cs_preemption_threshold=threshold)
        reports, counters = [], []
        for every_round in (True, False):
            counter = DecideCounter(fresh_rl_policy(kind, deterministic), every_round)
            reports.append(run_episode(counter, trace, episode, rng=np.random.default_rng(5),
                                       record_trajectory=True))
            counters.append(counter)
        ref, fast = reports
        assert fast.jobs == ref.jobs
        assert list(fast.rounds) == list(ref.rounds)
        assert fast.aggregates == ref.aggregates
        assert len(trajectory_rows(ref.rounds)) == len(ref.rounds)
        assert_same_trajectory(trajectory_rows(fast.rounds), trajectory_rows(ref.rounds))
        assert counters[0].calls == len(ref.rounds)
        assert counters[1].calls < len(fast.rounds) / 10

    @pytest.mark.parametrize("kind", ["rl-base", "srtf"])
    def test_round_values_match_the_round_state(self, kind):
        """The values cached per cluster version, recomputed from each round's audit row."""
        episode = EpisodeConfig()
        policy = (fresh_rl_policy(kind, False) if kind == "rl-base"
                  else make_policy(kind))
        with audited() as rows:
            report = run_episode(policy, HEAVY_POISSON, episode, rng=np.random.default_rng(5),
                                 record_trajectory=True)
        demand = {spec.id: spec.gpu_demand for spec in HEAVY_POISSON}
        ideal = {spec.id: spec.ideal_throughput for spec in HEAVY_POISSON}
        weights = RewardWeights()
        assert sum(r.num_preempted for r in report.rounds) > 0
        assert len(rows) == len(report.rounds)
        for rnd, row in zip(report.rounds, rows):
            cs = [entry[1] for entry in row]
            util = sum(demand[entry[0]] for entry in row) / CFG.total_gpus
            assert rnd.num_running == len(row)
            assert rnd.utilization == pytest.approx(util, abs=1e-12)
            assert rnd.mean_cs == pytest.approx(sum(cs) / len(cs) if cs else 0.0, abs=1e-12)
            capped = sum(min(v, CS_CAP) for v in cs) / len(cs) if cs else 0.0
            assert rnd.reward == pytest.approx(reward_from_terms(capped, util, weights), abs=1e-12)
            for jid, job_cs, throughput, *_ in row:
                assert throughput == pytest.approx(ideal[jid] / job_cs, rel=1e-12)
        for rnd, (_, reward, noop) in zip(report.rounds, trajectory_rows(report.rounds)):
            if rnd.num_placed == 0:  # nothing applied before the reward: it is the no-op's
                assert noop == reward

    def test_training_is_unchanged(self, monkeypatch, tmp_path):
        trace = NORMAL_64[:24]
        config = TrainConfig(episodes=2, checkpoint_path=str(tmp_path / "fast.ckpt"))
        fast_net, fast_curves = train(trace, config)
        monkeypatch.setattr(RLBasePolicy, "idle_between_events", False)
        ref_net, ref_curves = train(trace, replace(config, checkpoint_path=str(tmp_path / "ref.ckpt")))
        assert fast_curves == ref_curves
        assert fast_net.params.keys() == ref_net.params.keys()
        for key, value in ref_net.params.items():
            np.testing.assert_array_equal(fast_net.params[key], value)


# jct may undercut isolated_runtime by float rounding of the finish crossing
JCT_RTOL = 1e-9


@st.composite
def random_episodes(draw):
    """(policy kind, trace, episode config, cluster config) over random shapes."""
    config = ClusterConfig(num_nodes=draw(st.integers(1, 4)),
                           gpus_per_node=draw(st.integers(2, 8)))
    arrival = draw(st.sampled_from(["all-at-zero", "poisson"]))
    spec = TraceSpec(num_jobs=draw(st.integers(1, 12)), seed=draw(st.integers(0, 2**16)),
                     demand_cap=config.total_gpus, arrival=arrival,
                     arrival_rate=draw(st.floats(0.02, 1.0)))
    episode = EpisodeConfig(round_interval=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0])),
                            cs_preemption_threshold=draw(st.sampled_from([None, 1.3, 2.0])))
    kind = draw(st.sampled_from(BASELINES + ("rl-base",)))
    return kind, generate_trace(spec, config), episode, config


class TestEpisodeProperties:
    @given(setup=random_episodes())
    @settings(max_examples=60, deadline=None)
    def test_jobs_finish_once_no_faster_than_isolated_and_match_every_round(self, setup):
        kind, trace, episode, config = setup

        def run(every_round):
            if kind == "rl-base":  # a fresh net, sampling
                net, space = make_net(config, TrainConfig(seed=0))
                policy = make_policy(kind, net=net, action_space=space, deterministic=False)
            else:
                policy = make_policy(kind)
            return run_episode(DecideCounter(policy, every_round), trace, episode,
                               config, rng=np.random.default_rng(3))

        # the reference decides every round under audit, which checks the
        # cluster's counts after every change; the other side takes idle stretches
        with audited() as rows:
            ref = run(every_round=True)
        report = run(every_round=False)
        assert report.jobs == ref.jobs
        assert list(report.rounds) == list(ref.rounds)
        assert report.aggregates == ref.aggregates
        assert sorted(job.id for job in report.jobs) == sorted(spec.id for spec in trace)
        last = {}  # job id -> (round, samples done after it) of the job's last running round
        assert len(rows) == len(ref.rounds)
        for k, row in enumerate(rows):
            for jid, _cs, _thr, _before, after, *_ in row:
                last[jid] = (k, after)
        total = {spec.id: spec.total_samples for spec in trace}
        rounds = list(report.rounds)
        for job in report.jobs:
            # the job's finish falls in its last running round, which completes its work
            k, done = last[job.id]
            start = rounds[k].time
            assert start <= job.finish <= start + episode.round_interval * (1 + JCT_RTOL)
            assert done == total[job.id]
            assert job.jct >= job.isolated_runtime * (1.0 - JCT_RTOL)


def per_round_aggregates(rounds) -> dict:
    """The round aggregates summed one round at a time, the reference for the runs."""
    rounds = list(rounds)
    running = [r.mean_cs for r in rounds if r.num_running > 0]
    return {
        "num_rounds": len(rounds),
        "mean_util": sum(r.utilization for r in rounds) / len(rounds) if rounds else 0.0,
        "mean_cs": sum(running) / len(running) if running else 0.0,
        "mean_reward": sum(r.reward for r in rounds) / len(rounds) if rounds else 0.0,
    }


class TestRunLog:
    """The rounds and the trajectory kept as runs, against the per-round reference."""

    @given(setup=random_episodes(), rl=st.sampled_from([None, "rl-base", "rl-hybrid"]))
    @settings(max_examples=40, deadline=None)
    def test_runs_expand_to_the_per_round_reference(self, setup, rl):
        kind, trace, episode, config = setup
        kind = rl or kind

        def run(every_round):
            if kind.startswith("rl-"):
                net, space = make_net(config, TrainConfig(seed=0))
                policy = make_policy(kind, net=net, action_space=space,
                                     deterministic=kind == "rl-hybrid")
            else:
                policy = make_policy(kind)
            return run_episode(DecideCounter(policy, every_round), trace, episode, config,
                               rng=np.random.default_rng(3),
                               record_trajectory=kind.startswith("rl-"))

        with audited():
            ref = run(every_round=True)
        report = run(every_round=False)
        # the reference decides and records every round: one run per round
        assert len(ref.rounds.runs) == len(ref.rounds)
        assert len(ref.rounds.runs) == len(trajectory_rows(ref.rounds))
        expanded = list(report.rounds)
        assert len(expanded) == len(report.rounds) == len(ref.rounds)
        assert expanded == list(ref.rounds)
        assert [r.time for r in expanded] == [k * episode.round_interval
                                               for k in range(len(expanded))]
        for record, first, n, _, _ in report.rounds.runs:
            assert expanded[first:first + n] == [replace(record, time=k * episode.round_interval)
                                                 for k in range(first, first + n)]
        assert report.aggregates == ref.aggregates
        assert {key: report.aggregates[key] for key in per_round_aggregates(expanded)} == (
            per_round_aggregates(expanded))
        utils = [r.utilization for r in expanded]
        counts, edges = np.histogram(utils, bins=20, range=(0.0, 1.0))
        assert report.util_histogram() == [(float(edge), count / max(1, len(utils)))
                                           for edge, count in zip(edges, counts)]
        runs = report.rounds.runs
        if kind.startswith("rl-"):
            rows, ref_rows = trajectory_rows(report.rounds), trajectory_rows(ref.rounds)
            assert len(rows) == len(ref_rows) == len(expanded)
            assert_same_trajectory(rows, ref_rows)
            # a decision with a choice holds for one round: it is one run of one round
            chosen = [run for run in runs if run[3].has_choice]
            assert all(run[2] == 1 for run in chosen)
            assert len({id(run[3]) for run in chosen}) == len(chosen)
        else:
            assert all(run[3] is None and run[4] == 0.0 for run in runs)

    @pytest.mark.parametrize("kind", ["las", "rl-base-recorded"])
    def test_per_round_csv_rows_expand_to_the_rounds(self, kind, tmp_path):
        """A row stands for its run: round k's time is k * interval, and the
        run's rounds are `rounds` copies of the row's values."""
        episode = EpisodeConfig()
        if kind == "las":
            report = run_episode(make_policy("las"), NORMAL_64, episode)
        else:
            report = run_episode(fresh_rl_policy("rl-base", False), HEAVY_POISSON, episode,
                                 rng=np.random.default_rng(5), record_trajectory=True)
        assert len(report.rounds.runs) < len(report.rounds) / 2  # stretches as rows
        write_episode_report(report, tmp_path)
        header, *rows = [line.split(",") for line in
                         (tmp_path / "per_round.csv").read_text().splitlines()
                         if not line.startswith("#")]
        assert header == list(ROUND_COLUMNS)
        assert len(rows) == len(report.rounds.runs)
        expanded = []
        for time, count, utilization, mean_cs, reward, *counts in rows:
            first, n = len(expanded), int(count)
            assert float(time) == first * episode.round_interval
            values = (float(utilization), float(mean_cs), float(reward), *map(int, counts))
            expanded += [RoundRecord(k * episode.round_interval, *values)
                         for k in range(first, first + n)]
            if n > 1:  # an idle stretch
                assert counts[-2:] == ["0", "0"]
        assert expanded == list(report.rounds)
        for column in ("num_placed", "num_preempted"):
            k = ROUND_COLUMNS.index(column)
            assert (sum(int(row[k]) for row in rows)
                    == sum(getattr(r, column) for r in report.rounds) > 0)


def any_policy(kind):
    """make_policy(kind), with a fresh net for the RL kinds."""
    if kind.startswith("rl-"):
        return fresh_rl_policy(kind, deterministic=kind == "rl-hybrid")
    return make_policy(kind)


@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("trace", [NORMAL_64, HEAVY_POISSON], ids=["normal64", "heavy-poisson"])
@pytest.mark.parametrize("restore_penalty", [5.0, 1.1])
def test_one_run_per_decision(kind, trace, restore_penalty):
    """Each pass asks the policy once and applies the decision to every
    round it holds for, partial-penalty and finishing rounds included."""
    counter = DecideCounter(any_policy(kind), every_round=False)
    report = run_episode(counter, trace, EpisodeConfig(restore_penalty=restore_penalty),
                         rng=np.random.default_rng(5), record_trajectory=kind.startswith("rl-"))
    assert len(report.rounds.runs) == counter.calls < len(report.rounds) / 2


class TestRecordedRounds:
    """The RL trajectory rides on the round log: a run keeps its rounds' decision."""

    @pytest.mark.parametrize("kind, deterministic", [("rl-base", False), ("rl-hybrid", True)],
                             ids=["rl-base-sampling", "rl-hybrid-argmax"])
    def test_runs_hold_a_decision_only_when_recorded(self, kind, deterministic):
        off, on = (run_episode(fresh_rl_policy(kind, deterministic), HEAVY_POISSON,
                               EpisodeConfig(), rng=np.random.default_rng(5),
                               record_trajectory=record) for record in (False, True))
        assert off.jobs == on.jobs
        assert list(off.rounds) == list(on.rounds)
        # unrecorded runs keep no RL state alive
        assert all(run[3] is None and run[4] == 0.0 for run in off.rounds.runs)
        assert all(run[3] is not None for run in on.rounds.runs)
        assert len(on.rounds.runs) < len(on.rounds) / 2
        # the rows the runs expand to are those of deciding every round
        ref = run_episode(DecideCounter(fresh_rl_policy(kind, deterministic), every_round=True),
                          HEAVY_POISSON, EpisodeConfig(), rng=np.random.default_rng(5),
                          record_trajectory=True)
        assert len(ref.rounds.runs) == len(ref.rounds)
        assert_same_trajectory(trajectory_rows(on.rounds), trajectory_rows(ref.rounds))


def test_round_times_do_not_drift():
    """t = round index * T: a sum of 0.1 steps would drift off k * 0.1."""
    trace = jobs_with([4], runtimes=[100.0])
    report = run_episode(GreedyPolicy(), trace, EpisodeConfig(round_interval=0.1))
    assert len(report.rounds) >= 1000
    assert [r.time for r in report.rounds] == [k * 0.1 for k in range(len(report.rounds))]


def running_job(total, done, restore=0.0):
    spec = replace(NORMAL_64[0], total_samples=total)
    return JobState(spec=spec, samples_done=done, attained_service=done / 3,
                    cs_integral=done / 7, placed_time=done / 11, restore_remaining=restore)


def job_fields(job):
    return (job.samples_done, job.attained_service, job.cs_integral, job.placed_time,
            job.restore_remaining, job.finish_time)


def step_rounds(jobs, throughputs, cs, dt, limit):
    """The reference for _accumulate: one advance call per round.

    Steps copies of jobs round by round, with the engine's CS
    bookkeeping, up to limit rounds or the first round that finishes a
    job, burns a partial restore penalty, or starts with less than a
    round of penalty left for a job that was burning it at the start;
    returns (the copies, the rounds stepped, whether such a round
    stopped it).
    """
    done, burning = 0, [job.restore_remaining >= dt for job in jobs]
    while True:
        after = [replace(job) for job in jobs]
        for copy, throughput, c in zip(after, throughputs, cs):
            active = advance(copy, dt, throughput, now=0.0)
            copy.cs_integral += c * active
            copy.placed_time += active
        event = (any(job.restore_remaining < dt and (job.restore_remaining > 0 or was)
                     for job, was in zip(jobs, burning))
                 or any(copy.finish_time is not None for copy in after))
        if event or done == limit:
            return jobs, done, event
        jobs = after
        done += 1


def step_to_finish(jobs, throughputs, cs, dt, limit, start):
    """The reference for advance_stretch: one advance call per round, from
    round start, up to limit rounds or the first round that finishes a job;
    returns the rounds stepped."""
    for k in range(limit):
        for job, throughput, c in zip(jobs, throughputs, cs):
            active = advance(job, dt, throughput, now=(start + k) * dt)
            job.cs_integral += c * active
            job.placed_time += active
        if any(job.finish_time is not None for job in jobs):
            return k + 1
    return limit


@st.composite
def restore_penalties(draw, dt):
    """0, a whole number of rounds dt, or a whole number and a part of one."""
    whole = draw(st.integers(0, 40))
    part = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True))
    return float(sum([dt] * whole)) + part * dt


def record_chunks(monkeypatch):
    """Record what each _accumulate call that advance_stretch makes returns."""
    chunks = []

    def recorded(*args):
        chunks.append(_accumulate(*args))
        return chunks[-1]

    monkeypatch.setattr(engine, "_accumulate", recorded)
    return chunks


STRETCH_CASES = dict(
    total=st.floats(1.0, 1e6), start=st.floats(0.0, 0.999),
    rounds=st.lists(st.floats(0.3, 400.0), min_size=1, max_size=3),
    cs=st.floats(1.0, 4.0), limit=st.integers(1, 500), data=st.data(),
    dt=st.sampled_from([0.25, 0.1, 1.0]) | st.floats(0.01, 2.0))


class TestAdvanceStretch:
    """advance_stretch and its chunks against one advance call per round, bit for bit."""

    @given(**STRETCH_CASES)
    @settings(max_examples=400, deadline=None)
    def test_sums_and_finish_round_match_advance(self, total, start, rounds, cs, dt, limit, data):
        # job k finishes about rounds[k] rounds of dt after its restore penalty
        restores = [data.draw(restore_penalties(dt)) for _ in rounds]
        jobs, ref = ([running_job(total, total * start, restore) for restore in restores]
                     for _ in range(2))
        throughputs = [(total - total * start) / (r * dt) for r in rounds]
        first = data.draw(st.integers(0, 10_000))
        got = advance_stretch(jobs, throughputs, [cs] * len(rounds), dt, limit, first)
        assert got == step_to_finish(ref, throughputs, [cs] * len(rounds), dt, limit, first)
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]

    @given(**STRETCH_CASES)
    @settings(max_examples=400, deadline=None)
    def test_chunk_sums_and_finish_round_match_advance(self, total, start, rounds, cs, dt,
                                                       limit, data):
        restores = [data.draw(restore_penalties(dt)) for _ in rounds]
        jobs, ref = ([running_job(total, total * start, restore) for restore in restores]
                     for _ in range(2))
        throughputs = [(total - total * start) / (r * dt) for r in rounds]
        got = _accumulate(jobs, throughputs, [cs] * len(rounds), dt, limit)
        ref, done, _ = step_rounds(ref, throughputs, [cs] * len(rounds), dt, limit)
        assert got == done
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]

    def test_whole_penalty_goes_in_the_stretch_and_a_partial_one_stops_it(self):
        # 5.0 s is 20 whole rounds of 0.25 s: one chunk, and the job gains
        # samples from round 20 on, in the next
        jobs = [running_job(100.0, 10.0), running_job(100.0, 10.0, restore=5.0)]
        ref = [replace(job) for job in jobs]
        _, done, event = step_rounds([replace(job) for job in jobs], [1.0, 1.0],
                                     [1.5, 2.5], 0.25, 100)
        assert _accumulate(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 100) == 20
        assert (done, event) == (20, True)
        assert jobs[1].restore_remaining == 0.0 and jobs[1].samples_done == 10.0
        assert _accumulate(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 80) == 80
        assert step_to_finish(ref, [1.0, 1.0], [1.5, 2.5], 0.25, 100, 0) == 100
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]
        assert jobs[1].restore_remaining == 0.0 and jobs[1].samples_done == 10.0 + 80 * 0.25
        # 1.1 s is 4 whole rounds and 0.1 s of a fifth, which advance must step
        jobs = [running_job(100.0, 10.0), running_job(100.0, 10.0, restore=1.1)]
        ref, done, event = step_rounds([replace(job) for job in jobs], [1.0, 1.0],
                                       [1.5, 2.5], 0.25, 100)
        assert _accumulate(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 100) == 4
        assert (done, event) == (4, True)
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]
        assert 0 < jobs[1].restore_remaining < 0.25 and jobs[1].samples_done == 10.0
        assert _accumulate(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 100) == 0
        # a job one round from its finish burns penalty past the limit: no event
        jobs = [running_job(100.0, 99.9, restore=5.0)]
        ref, done, event = step_rounds([replace(jobs[0])], [1.0], [1.5], 0.25, 10)
        assert _accumulate(jobs, [1.0], [1.5], 0.25, 10) == done == 10 and not event
        assert job_fields(jobs[0]) == job_fields(ref[0])
        # one with no samples left finishes in its first round, penalty or not
        jobs = [running_job(100.0, 100.0, restore=5.0)]
        _, done, event = step_rounds([replace(jobs[0])], [1.0], [1.5], 0.25, 10)
        assert _accumulate(jobs, [1.0], [1.5], 0.25, 10) == done == 0 and event

    def test_a_stretch_goes_on_after_a_partial_penalty_round(self, monkeypatch):
        """The 1.1 s penalty's fifth round goes through advance between two chunks."""
        chunks, stepped = record_chunks(monkeypatch), []

        def recorded_advance(job, *args, **kwargs):
            stepped.append(job)
            return advance(job, *args, **kwargs)

        monkeypatch.setattr(engine, "advance", recorded_advance)
        jobs = [running_job(100.0, 10.0), running_job(100.0, 10.0, restore=1.1)]
        ref = [replace(job) for job in jobs]
        assert advance_stretch(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 100, 7) == 100
        assert step_to_finish(ref, [1.0, 1.0], [1.5, 2.5], 0.25, 100, 7) == 100
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]
        assert chunks == [4, 95] and stepped == jobs

    def test_one_round_goes_straight_to_advance(self, monkeypatch):
        def no_chunk(*args):
            raise AssertionError("a one-round call makes no chunk")

        monkeypatch.setattr(engine, "_accumulate", no_chunk)
        jobs = [running_job(100.0, 99.9), running_job(100.0, 10.0, restore=5.0)]
        ref = [replace(job) for job in jobs]
        assert advance_stretch(jobs, [1.0, 1.0], [1.5, 2.5], 0.25, 1, 3) == 1
        assert step_to_finish(ref, [1.0, 1.0], [1.5, 2.5], 0.25, 1, 3) == 1
        assert [job_fields(job) for job in jobs] == [job_fields(job) for job in ref]
        assert jobs[0].finish_time is not None

    def test_no_running_jobs_take_the_whole_limit(self):
        assert _accumulate([], [], [], 0.25, 17) == 17
        assert advance_stretch([], [], [], 0.25, 17, 0) == 17

    def test_long_stretch_goes_in_chunks(self, monkeypatch):
        # the job finishes in round 10,000; the limit would allow all of them
        total, dt, throughput, cs = 1e6, 0.1, 1000.0, 1.5
        job = running_job(total, 0.0)
        steps = []
        while not steps or steps[-1] == STRETCH_CHUNK:
            steps.append(_accumulate([job], [throughput], [cs], dt, 20_000 - sum(steps)))
        # full chunks, then one that ends before the finish
        assert steps == [STRETCH_CHUNK, STRETCH_CHUNK, 9_999 - 2 * STRETCH_CHUNK]
        ref, done, event = step_rounds([running_job(total, 0.0)], [throughput], [cs], dt, 20_000)
        assert (sum(steps), True) == (done, event) == (9_999, True)
        assert job_fields(job) == job_fields(ref[0])
        # one advance_stretch call steps the round after each chunk through
        # advance: after a full chunk, and the finish
        chunks, stepped = record_chunks(monkeypatch), []

        def recorded_advance(job, *args, **kwargs):
            stepped.append(kwargs["now"])
            return advance(job, *args, **kwargs)

        monkeypatch.setattr(engine, "advance", recorded_advance)
        job, ref = running_job(total, 0.0), running_job(total, 0.0)
        assert advance_stretch([job], [throughput], [cs], dt, 20_000, 0) == 10_000
        assert step_to_finish([ref], [throughput], [cs], dt, 20_000, 0) == 10_000
        assert chunks == [STRETCH_CHUNK, STRETCH_CHUNK, 9_999 - 2 * STRETCH_CHUNK - 2]
        assert stepped == [k * dt for k in (STRETCH_CHUNK, 2 * STRETCH_CHUNK + 1, 9_999)]
        assert job_fields(job) == job_fields(ref) and job.finish_time is not None


class StateCapture(DecideCounter):
    """DecideCounter that keeps the engine's job states for inspection."""

    def decide(self, cluster, queue, states, rng=None, cs=None):
        self.states = states
        return super().decide(cluster, queue, states, rng, cs)


def test_stretches_longer_than_a_chunk_match_every_round():
    """An idle stretch of 10,000 rounds goes in several chunks, bit-identically."""
    trace = jobs_with([4], runtimes=[1000.0])
    config = EpisodeConfig(round_interval=0.1)
    ref, fast = (run_episode(DecideCounter(GreedyPolicy(), every_round), trace, config)
                 for every_round in (True, False))
    assert len(ref.rounds) > 2 * STRETCH_CHUNK
    assert fast.jobs == ref.jobs
    assert list(fast.rounds) == list(ref.rounds)
    assert fast.aggregates == ref.aggregates


@pytest.mark.parametrize("max_rounds", [3, 50, 399])
def test_max_rounds_raises_at_the_same_round(max_rounds, monkeypatch):
    """A stretch stops at MAX_ROUNDS: the jobs have advanced exactly as far as round by round."""
    monkeypatch.setattr(engine, "MAX_ROUNDS", max_rounds)
    trace = jobs_with([4, 8], runtimes=[100.0, 100.0])
    progress = []
    for every_round in (True, False):
        policy = StateCapture(GreedyPolicy(), every_round)
        with pytest.raises(RuntimeError, match=f"exceeded {max_rounds} rounds"):
            run_episode(policy, trace, EpisodeConfig())
        progress.append([job_fields(policy.states[spec.id]) for spec in trace])
    ref, fast = progress
    assert fast == ref
    assert ref[0][0] == pytest.approx(trace[0].ideal_throughput * max_rounds * 0.25)


class LifecycleAudit(DecideCounter):
    """Checks, at every decide, that each job is in one place.

    Queued and placed are disjoint, neither holds a finished job, and a
    started job that is in none of them and unfinished was preempted.
    Counts the decisions that saw such a preempted job.
    """

    def __init__(self, policy):
        super().__init__(policy, every_round=False)
        self.saw_preempted = 0

    def decide(self, cluster, queue, states, rng=None, cs=None):
        queued = {spec.id for spec in queue}
        placed = set(cluster.placements)
        assert not queued & placed
        assert all(states[jid].finish_time is None for jid in queued | placed)
        away = [s for jid, s in states.items() if jid not in queued | placed
                and s.start_time is not None and s.finish_time is None]
        assert all(s.preemption_count > 0 for s in away)
        self.saw_preempted += bool(away)
        return super().decide(cluster, queue, states, rng, cs)


@pytest.mark.parametrize("kind", ["las", "srtf", "rl-hybrid"])
def test_each_job_is_in_one_place_at_every_decision(kind):
    net, space = make_net(CFG, TrainConfig(seed=0))
    audit = LifecycleAudit(make_policy(kind, net, space))
    report = run_episode(audit, HEAVY_POISSON, EpisodeConfig(cs_preemption_threshold=2.0,
                                                             restore_penalty=5.0))
    assert report.aggregates["total_preemptions"] > 0 and audit.saw_preempted > 0
    assert all(j.finish is not None for j in report.jobs)


class TestUnfinishableTrace:
    """run_episode refuses, before round 0, a trace that no episode can finish."""

    def refuse(self, trace, match):
        counter = DecideCounter(GreedyPolicy(), every_round=True)
        with pytest.raises(ConfigError, match=match):
            run_episode(counter, trace, EpisodeConfig())
        assert counter.calls == 0

    def test_demand_no_placement_fits(self):
        # 9 GPUs is neither 9 on one 8-GPU node nor a power-of-two split
        trace = generate_trace(TraceSpec(num_jobs=4, seed=1))
        trace[2] = replace(trace[2], gpu_demand=9)
        self.refuse(trace, "job 2 demands 9 GPUs, which no placement fits on 4 nodes x 8 GPUs")

    def test_repeated_job_id(self):
        trace = generate_trace(TraceSpec(num_jobs=4, seed=1))
        trace[3] = replace(trace[3], id=1)
        self.refuse(trace, "job id 1 is given twice")
