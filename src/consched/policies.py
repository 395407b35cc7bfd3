"""Scheduling policies behind one per-round decision interface.

Baselines (greedy, LAS, SRTF) see the full waiting queue, matching their
classical definitions. Only the RL policies observe the K-candidate
window and score its placements; this asymmetry is deliberate and
affects how comparisons should be read.

A policy whose class sets idle_between_events = True promises that
after an idle decision (no placements, no preemptions, and no RL head
that had a choice) the same decision holds until an event: an arrival,
a checkpoint-ready re-queue, or any allocate or free on the cluster.
The engine then applies it to every round up to the next event in one
pass. Every policy here keeps the promise:

- when nothing fits, a greedy scan places nothing in any order;
- queued jobs keep their LAS and SRTF keys while they wait;
- SRTF's victims (running jobs with more remaining time than the
  target) only leave the set as they progress, so if freeing all of them
  made no room, freeing fewer makes none;
- the RL window (window_candidates) reads only the queue and the free
  GPUs, so an empty window stays empty until an event; a round with an
  empty window scores nothing, defers nothing and draws no rng; and
  the window's fit test is first_fit's, so RL-Hybrid's greedy fallback
  places nothing either.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .actions import Action, ActionSpace, RLDecision
from .cluster import ClusterState, first_fit
from .contention import CS_CAP
from .encoding import clipped_cs, encode_state, job_features, window_candidates
from .errors import ConfigError
from .rl.net import PolicyNet, masked_log_softmax
from .rl.reward import reward_from_terms
from .workload import JobSpec, JobState

POLICY_KINDS = ("greedy", "las", "srtf", "srtf-np", "rl-base", "rl-hybrid")


def _greedy_scan(cluster: ClusterState, ordered: list[JobSpec]):
    """Place each job at its first feasible placement, in the given order.

    Returns the scanned copy of the cluster, the placements and the first
    job that did not fit (None when all did). A demand that found no fit
    is not tried again in the same scan: the scan's allocations only
    shrink the free GPUs, so it would fail again.
    """
    sim = cluster.copy()
    placements = []
    unfit: set[int] = set()
    first_unplaced = None
    for spec in ordered:
        placement = None if spec.gpu_demand in unfit else first_fit(sim, spec.gpu_demand)
        if placement is not None:
            sim.allocate(spec.id, placement)
            placements.append((spec.id, placement))
        else:
            unfit.add(spec.gpu_demand)
            if first_unplaced is None:
                first_unplaced = spec
    return sim, placements, first_unplaced


def decide_fifo_greedy(cluster: ClusterState, queue: list[JobSpec]) -> Action:
    """Head-first greedy packing; also the RL-Hybrid safety rule."""
    return Action(placements=_greedy_scan(cluster, queue)[1])


def las_order(queue: list[JobSpec], states: dict[int, JobState]) -> list[JobSpec]:
    """Ascending attained service (GPU-seconds); ties by arrival, then id."""
    return sorted(queue, key=lambda s: (states[s.id].attained_service, s.arrival_time, s.id))


def srtf_order(queue: list[JobSpec], states: dict[int, JobState]) -> list[JobSpec]:
    """Ascending contention-free remaining time; ties by arrival, then id."""
    return sorted(queue, key=lambda s: (states[s.id].remaining_time_ideal, s.arrival_time, s.id))


def decide_las(cluster: ClusterState, queue: list[JobSpec],
               states: dict[int, JobState]) -> Action:
    return Action(placements=_greedy_scan(cluster, las_order(queue, states))[1])


def decide_srtf(cluster: ClusterState, queue: list[JobSpec],
                states: dict[int, JobState], preemptive: bool = True) -> Action:
    """SRTF with optional classic preemption.

    When the shortest unplaced waiting job cannot fit, running jobs with
    strictly larger remaining time are preempted (largest first) until it
    fits; if even freeing all of them would not help, nothing is preempted.
    """
    sim, placements, target = _greedy_scan(cluster, srtf_order(queue, states))
    if not preemptive or target is None:
        return Action(placements=placements)
    victims = [jid for jid in cluster.placements
               if states[jid].remaining_time_ideal > states[target.id].remaining_time_ideal]
    # free the longest-remaining victims first; youngest breaks ties
    victims.sort(key=lambda jid: (-states[jid].remaining_time_ideal,
                                  -states[jid].spec.arrival_time, -jid))
    chosen = []
    placement = None
    for jid in victims:
        sim.free(jid)
        chosen.append(jid)
        placement = first_fit(sim, target.gpu_demand)
        if placement is not None:
            break
    if placement is None:
        return Action(placements=placements)
    placements.append((target.id, placement))
    return Action(placements=placements, preemptions=chosen)


class GreedyPolicy:
    name = "greedy"
    idle_between_events = True

    def decide(self, cluster, queue, states, rng=None, cs=None) -> Action:
        return decide_fifo_greedy(cluster, queue)


class LASPolicy:
    name = "las"
    idle_between_events = True

    def decide(self, cluster, queue, states, rng=None, cs=None) -> Action:
        return decide_las(cluster, queue, states)


class SRTFPolicy:
    idle_between_events = True

    def __init__(self, preemptive: bool = True):
        self.preemptive = preemptive
        self.name = "srtf" if preemptive else "srtf-np"

    def decide(self, cluster, queue, states, rng=None, cs=None) -> Action:
        return decide_srtf(cluster, queue, states, preemptive=self.preemptive)


class RLBasePolicy:
    """Acts from the trained policy alone; may decline to schedule.

    Each round the window of queued jobs that fit (see window_candidates)
    gives one head per job, and the heads act in ascending demand order,
    each seeing the GPUs the earlier heads left free. A head chooses from
    its list (ActionSpace.choices): the feasible placements, at most M per
    width, then skip. A head that declines a job it could have placed
    defers it behind its same-demand peers.

    A choice's logit is its pack-first prior, plus contention_scale
    times the placement's contention verdict, plus the net's score of
    the placement's scorer row. The verdict is +1 when the profiled
    contention model predicts that adding the placement, after the
    earlier heads' choices, raises the round reward under the net's
    reward_weights (the weights it was trained for), -1 when it lowers
    it; the same trial gives the scorer row (see _trials). The contention
    model, its switch and the CS cap are the episode's: decide starts
    from the CS map of the engine's EpisodeCS (cs), prices with it and
    hands it the map of the last placed head. The decision keeps each
    head's prior, verdicts and scorer rows, and the pooled value input as
    an encode_state call made when it is read (RLDecision).
    Training learns contention_scale and the scorer, from 0 and a zero
    score. Sampled logits are divided by temperature.
    """

    name = "rl-base"
    idle_between_events = True

    def __init__(self, net: PolicyNet, action_space: ActionSpace,
                 deterministic: bool = True):
        self.net = net
        self.space = action_space
        self.deterministic = deterministic
        self.temperature = 1.0  # sampling only; training anneals it
        self.k = net.arch.k

    def _trials(self, cs, cand, choices, listed, base, sim, own):
        """The verdict and scorer row of each choice (skip last), and each listed
        placement's trial (changed CS entries, reward, ...), in list order.

        The head sees sim, the cluster with the earlier heads' placements
        allocated; base is sim's (CS map, reward); listed is the
        per-placement part of ActionSpace.choices. A trial re-profiles only
        the candidate and the jobs sharing its nodes (cs.trial), and copies
        and changes no cluster; placements on nodes no job holds get CS 1,
        change no other CS and share a trial. A trial's reward is
        compute_reward's of base's map with the changed entries put in:
        their capped values replace or join base's, summed in job-id order.
        """
        profile, reward = base
        ids, capped = list(profile), [min(v, CS_CAP) for v in profile.values()]
        at = bisect.bisect(ids, cand.id)  # the candidate's place in job-id order
        weights = self.net.reward_weights
        utilization = (sim.used + cand.gpu_demand) / sim.config.total_gpus
        trials, rows, verdicts = [], [], []
        alone = None
        for placement, (shares, columns) in zip(choices, listed):
            if shares or alone is None:
                changed, sharing = cs.trial(cand.id, placement, sim, profile)
                values = capped.copy()  # the trial map's capped values, in job-id order
                for o in sharing:
                    values[bisect.bisect_left(ids, o)] = min(changed[o], CS_CAP)
                values.insert(at, min(changed[cand.id], CS_CAP))
                priced = reward_from_terms(sum(values) / len(values), utilization, weights)
                rises = [clipped_cs(changed[o]) - clipped_cs(profile[o]) for o in sharing]
                trials.append((changed, priced, clipped_cs(changed[cand.id]),
                               max(rises, default=0.0), sum(rises)))
                if not shares:
                    alone = trials[-1]
            else:
                trials.append(alone)
            priced = trials[-1][1]
            verdicts.append(1.0 if priced > reward else -1.0 if priced < reward else 0.0)
            rows.append(trials[-1][2:] + columns + own)
        rows.append((0.0,) * 6 + own)
        verdicts.append(0.0)
        return np.array(verdicts), np.array(rows), trials

    def decide(self, cluster, queue, states, rng, cs) -> Action:
        candidates = window_candidates(queue, self.k, cluster.config, cluster.free_per_node)
        if not candidates:
            # no head has a choice: nothing to score or sample
            return Action(rl=RLDecision())
        profile, utilization = cs.profile(), cluster.utilization()
        decision = RLDecision(temperature=self.temperature)
        owns = []
        # each head sees the cluster plus the earlier heads' placements, on a
        # copy made once a head places and another follows
        sim = cluster
        # the predicted round reward; an empty cluster counts as uncontended (CS 1)
        weights = self.net.reward_weights
        base = (profile, cs.reward(utilization, profile, weights) if profile
                else reward_from_terms(1.0, 0.0, weights))
        placed, deferred = [], []
        for cand in candidates:
            choices, prior, listed = self.space.choices(sim, cand.gpu_demand)
            owns.append(job_features(states[cand.id]))
            head_verdicts, rows, trials = self._trials(cs, cand, choices, listed, base, sim,
                                                       owns[-1])
            logits = self.net.head_logits(rows, prior, head_verdicts)
            # every listed choice is feasible, so none is masked
            probs, _ = masked_log_softmax(logits / self.temperature, True)
            if self.deterministic:
                pick = int(probs.argmax())
            else:
                pick = int(rng.choice(len(probs), p=probs))
            decision.choices.append(choices)
            decision.chosen.append(pick)
            decision.heads.append((prior, head_verdicts, rows))
            if pick < len(choices):
                placed.append((cand.id, choices[pick]))
                if cand is not candidates[-1]:
                    sim = cluster.copy() if sim is cluster else sim
                    sim.allocate(cand.id, choices[pick])
                changed, reward = trials[pick][:2]
                base = (dict(sorted({**base[0], **changed}.items())), reward)
            elif choices:
                deferred.append(cand.id)
        if placed:
            cs.adopt({**cluster.placements, **dict(placed)}, base[0])
        decision.encode = functools.partial(encode_state, utilization, cluster.config.total_gpus,
                                            profile, len(queue),
                                            sum(cand.gpu_demand for cand in candidates), owns)
        return Action(placements=placed, deferred=deferred, rl=decision)


def hybridize(base_action: Action, cluster, queue) -> Action:
    """Apply the greedy safety rule when the policy scheduled nothing.

    An RL decision with no choice had an empty window: no queued job
    fits (the window's fit test is first_fit's), so there is no scan.
    """
    if base_action.placements or (base_action.rl and not base_action.rl.has_choice):
        return base_action
    greedy = decide_fifo_greedy(cluster, queue)
    if not greedy.placements:
        return base_action
    return Action(placements=greedy.placements, preemptions=base_action.preemptions,
                  rl=base_action.rl, deferred=base_action.deferred)


class RLHybridPolicy:
    """Decision-level multiplexing: the trained policy, greedy on empty actions."""

    name = "rl-hybrid"
    idle_between_events = True

    def __init__(self, net, action_space, deterministic: bool = True):
        self.base = RLBasePolicy(net, action_space, deterministic)

    def decide(self, cluster, queue, states, rng, cs) -> Action:
        return hybridize(self.base.decide(cluster, queue, states, rng, cs), cluster, queue)


def make_policy(kind: str, net: PolicyNet | None = None,
                action_space: ActionSpace | None = None,
                deterministic: bool = True):
    if kind == "greedy":
        return GreedyPolicy()
    if kind == "las":
        return LASPolicy()
    if kind == "srtf":
        return SRTFPolicy(preemptive=True)
    if kind == "srtf-np":
        return SRTFPolicy(preemptive=False)
    if kind in ("rl-base", "rl-hybrid"):
        if net is None or action_space is None:
            raise ConfigError(f"{kind} needs a loaded policy checkpoint")
        cls = RLBasePolicy if kind == "rl-base" else RLHybridPolicy
        return cls(net, action_space, deterministic)
    raise ConfigError(f"unknown policy kind {kind!r}; valid: {', '.join(POLICY_KINDS)}")
