"""Round-based episode driver.

Each pass of run_episode makes one decision: enqueue arrivals, let the
policy decide, apply preemptions then placements, read the round's CS
and throughput from EpisodeCS, advance every running job through the
rounds the decision holds for (finishing jobs at their exact crossing
times), then preempt CS-threshold offenders one at a time with
re-evaluation. Throughput is piecewise-constant per round: a finishing
neighbor only changes co-residents' CS at the next round boundary.
advance_stretch applies alike rounds in chunks, bit-identically to
stepping them one at a time. The episode keeps one log of its rounds
(RoundLog), a run per decision; a run also carries the RL decision
its rounds applied when the trajectory is recorded, so training reads
the same log.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .actions import Action, RLDecision
from .cluster import ClusterConfig, ClusterState
from .contention import CS_CAP, ContentionParams, contention_sensitivity, pair_cs, shape_of
from .errors import ConfigError, InvalidPlacementError
from .policies import decide_fifo_greedy
from .rl.reward import RewardWeights, compute_reward
from .workload import JobSpec, JobState, advance, check_trace

log = logging.getLogger(__name__)


def default_contention_params() -> ContentionParams:
    """Table mode over the shipped calibration, for any cluster shape."""
    return ContentionParams()


CHECKPOINT_GRACE = 5.0  # sim-seconds; a preempted job re-queues once its checkpoint is written
LIVELOCK_ROUNDS = 10  # no-progress rounds before the livelock guard forces a placement
MAX_ROUNDS = 2_000_000  # an episode that runs longer raises


@dataclass
class EpisodeConfig:
    round_interval: float = 0.25
    cs_preemption_threshold: float | None = 2.0  # None turns preemption off
    restore_penalty: float = 5.0
    contention: ContentionParams = field(default_factory=default_contention_params)

    def __post_init__(self):
        if not 0 < self.round_interval < math.inf:
            raise ConfigError("round_interval must be positive and finite")
        threshold = self.cs_preemption_threshold
        if threshold is not None and not 1 < threshold < math.inf:
            raise ConfigError("cs_preemption_threshold must exceed 1 and be finite")
        if not 0 <= self.restore_penalty < math.inf:
            raise ConfigError("restore_penalty must be >= 0 and finite")


@dataclass
class RoundRecord:
    time: float
    utilization: float
    mean_cs: float
    reward: float
    num_running: int
    num_waiting: int
    num_placed: int
    num_preempted: int


@dataclass
class JobRecord:
    id: int
    model: str
    demand: int
    arrival: float
    start: float
    finish: float
    jct: float
    preemptions: int
    mean_cs: float
    isolated_runtime: float


class RoundLog:
    """An episode's rounds as runs (record, first round, count, decision, no-op reward).

    Round k starts at k * interval, so a run keeps only its first record:
    its other rounds are that record with time k * interval. decision is
    the RLDecision the run's rounds applied and noop_reward their no-op
    reward, when the episode records its trajectory; otherwise None and
    0.0. len costs O(1) and never expands the runs; iteration yields one
    RoundRecord per round.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.runs: list[tuple] = []
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        interval = self.interval
        for r, first, n, _, _ in self.runs:
            yield r
            for k in range(first + 1, first + n):
                yield RoundRecord(k * interval, r.utilization, r.mean_cs, r.reward,
                                  r.num_running, r.num_waiting, r.num_placed,
                                  r.num_preempted)

    def append(self, record: RoundRecord, count: int = 1, decision: RLDecision | None = None,
               noop_reward: float = 0.0) -> None:
        self.runs.append((record, self._len, count, decision, noop_reward))
        self._len += count

    def column(self, name: str) -> np.ndarray:
        """One field of every round, in round order."""
        return np.repeat([getattr(r, name) for r, *_ in self.runs],
                         [run[2] for run in self.runs])


@dataclass
class EpisodeReport:
    jobs: list[JobRecord]
    rounds: RoundLog
    aggregates: dict

    def jct_cdf(self) -> list[tuple[float, float]]:
        jcts = sorted(j.jct for j in self.jobs)
        n = len(jcts)
        return [(v, (k + 1) / n) for k, v in enumerate(jcts)]

    def util_histogram(self) -> list[tuple[float, float]]:
        """(bin left edge, fraction of rounds) over [0, 1] in 20 bins."""
        counts, edges = np.histogram(self.rounds.column("utilization"), bins=20,
                                     range=(0.0, 1.0))
        total = max(1, len(self.rounds))
        return [(float(edge), int(count) / total) for edge, count in zip(edges, counts)]

    def cs_job_histogram(self) -> list[tuple[float, float]]:
        """(bin left edge, fraction of jobs) over per-job mean experienced CS in 15 bins."""
        values = [min(j.mean_cs, CS_CAP) for j in self.jobs]
        counts, edges = np.histogram(values, bins=15, range=(1.0, CS_CAP))
        total = max(1, len(values))
        return [(float(edge), int(count) / total) for edge, count in zip(edges, counts)]


def percentile_90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    idx = math.ceil(0.9 * len(ordered)) - 1
    return ordered[max(0, idx)]


def _mean(col: np.ndarray) -> float:
    """Mean of col added one value after another; 0.0 when empty.

    np.sum adds pairwise (and sum() compensates from Python 3.12 on),
    which would move the last bits of the per-round sums.
    """
    return float(np.add.accumulate(col)[-1]) / col.size if col.size else 0.0


def _aggregate(jobs: list[JobRecord], rounds: RoundLog) -> dict:
    jcts = [j.jct for j in jobs]
    running = rounds.column("num_running") > 0
    return {
        "num_jobs": len(jobs),
        "num_rounds": len(rounds),
        "avg_jct": sum(jcts) / len(jcts) if jcts else 0.0,
        "p90_jct": percentile_90(jcts) if jcts else 0.0,
        "mean_util": _mean(rounds.column("utilization")),
        "mean_cs": _mean(rounds.column("mean_cs")[running]),
        "mean_reward": _mean(rounds.column("reward")),
        "total_preemptions": sum(j.preemptions for j in jobs),
        "avg_queueing": sum(j.start - j.arrival for j in jobs) / len(jobs) if jobs else 0.0,
        "makespan": max((j.finish for j in jobs), default=0.0),
    }


class EpisodeCS:
    """One episode's contention model, its CS map and round values, one per cluster.version.

    The model comes from the episode config, the reward weights from the
    episode; run_episode builds one EpisodeCS and hands it to every
    decide. A new map recomputes only the jobs on nodes that a job
    placed, moved or freed since the last map touches, so it equals a
    full profile. A job's CS reads only the jobs it shares a node with:
    in table mode (and with contention off) it is the max of 1 and its
    pair CS (pair_cs, kept per pair of keys, a job's key being its model
    class and shape) against each; synthetic mode sums per-node demand,
    so there they go in job-id order, as a full profile passes them.
    """

    def __init__(self, cluster: ClusterState, states: dict[int, JobState],
                 episode_config: EpisodeConfig, weights: RewardWeights):
        self.cluster = cluster
        self.states = states
        self.params = episode_config.contention
        self.weights = weights
        # the map, the version and placements it was computed for, its round values
        self._map, self._version, self._placed, self._values = {}, -1, {}, None
        self._keys: dict[tuple[int, int, int], int] = {}  # (job id, nodes, GPUs a node) -> key
        self._codes: dict[tuple, int] = {}  # (model class, shape) -> key
        self._pairs: dict[tuple[int, int], float] = {}  # (key, key) -> pair CS

    def _key(self, jid: int, placement) -> int:
        """jid's key at placement: its (model class, shape) as a small int."""
        sized = (jid, len(placement.nodes), placement.gpus_per_node_used)
        key = self._keys.get(sized)
        if key is None:
            named = (self.states[jid].spec.model_class, shape_of(placement))
            key = self._keys[sized] = self._codes.setdefault(named, len(self._codes))
        return key

    def _pair(self, key: int, other: int) -> float:
        """key's pair CS against other, once per pair (every CS is 1 with contention off)."""
        named = list(self._codes)
        value = self._pairs[key, other] = (pair_cs(self.params.table, named[key], named[other])
                                           if self.params.mode == "table" else 1.0)
        return value

    def _cs(self, jid: int, cluster: ClusterState) -> float:
        """CS of placed job jid on cluster."""
        placements = cluster.placements
        placement = placements[jid]
        neighbours = set().union(*(cluster.residents[node] for node in placement.nodes))
        neighbours.discard(jid)
        if self.params.mode != "synthetic":
            key, pairs, cs = self._key(jid, placement), self._pairs, 1.0
            for o in neighbours:
                other = self._key(o, placements[o])
                cs = max(cs, pairs.get((key, other)) or self._pair(key, other))
            return cs
        states = self.states
        return contention_sensitivity(
            (states[jid].spec.profile, placement),
            [(states[o].spec.profile, placements[o]) for o in sorted(neighbours)],
            self.params, cluster.config)

    def profile(self) -> dict[int, float]:
        """CS of every placed job under the current co-location, in job-id order."""
        cluster = self.cluster
        if self._version == cluster.version:
            return self._map
        placements, old, profile = cluster.placements, self._placed, self._map
        touched = {node for jid, p in old.items() if placements.get(jid) is not p
                   for node in p.nodes}
        touched.update(node for jid, p in placements.items() if old.get(jid) is not p
                       for node in p.nodes)
        if touched:  # else the placements are the map's (an adopted map, applied as is)
            dirty = set().union(*(cluster.residents[node] for node in touched))
            self._map = {jid: self._cs(jid, cluster) if jid in dirty else profile[jid]
                         for jid in sorted(placements)}
            self._placed = dict(placements)
        self._version, self._values = cluster.version, None
        return self._map

    def round_values(self) -> tuple[dict[int, float], dict[int, float], float, float, float]:
        """(CS map, throughput per job, utilization, mean CS, round reward), once per map."""
        cs_map = self.profile()
        if self._values is None:
            utilization = self.cluster.utilization()
            throughput = {jid: self.states[jid].spec.ideal_throughput / cs_map[jid]
                          for jid in cs_map}
            mean_cs = sum(cs_map.values()) / len(cs_map) if cs_map else 0.0
            self._values = (cs_map, throughput, utilization, mean_cs,
                            self.reward(utilization, cs_map, self.weights))
        return self._values

    def trial(self, jid: int, placement, cluster: ClusterState,
              profile: dict[int, float]) -> tuple[dict[int, float], list[int]]:
        """The CS entries that placing jid at placement on cluster changes, and
        the jobs sharing placement's nodes (its neighbours), sorted.

        The entries are jid's and its neighbours'; every other CS stays as
        in profile, cluster's CS map (without jid). cluster is left as it
        is. A neighbour's CS is a max over its pairs, so it becomes
        max(old, its CS against jid alone); in synthetic mode it is
        recomputed on a copy of cluster with jid allocated.
        """
        placements = cluster.placements
        neighbours = sorted(set().union(*(cluster.residents[node] for node in placement.nodes)))
        if self.params.mode == "synthetic":
            after = cluster.copy().allocate(jid, placement)
            return {o: self._cs(o, after) for o in [jid, *neighbours]}, neighbours
        key, pairs, cs, changed = self._key(jid, placement), self._pairs, 1.0, {}
        for nb in neighbours:
            other = self._key(nb, placements[nb])
            cs = max(cs, pairs.get((key, other)) or self._pair(key, other))
            changed[nb] = max(profile[nb], pairs.get((other, key)) or self._pair(other, key))
        changed[jid] = cs
        return changed, neighbours

    def reward(self, utilization: float, profile: dict[int, float],
               weights: RewardWeights) -> float:
        return compute_reward(utilization, profile, weights)

    def adopt(self, placements: dict, profile: dict[int, float]) -> None:
        """Take profile as the CS map of the cluster that placements describe.

        The RL policy hands over its last trial map, so the next profile()
        diffs from the cluster its placements make: nothing is recomputed
        when the engine applies them unchanged.
        """
        self._map, self._version, self._placed = profile, -1, dict(placements)


STRETCH_CHUNK = 4096  # most rounds one _accumulate call applies


def _accumulate(jobs: list[JobState], throughputs: list[float], cs: list[float],
                dt: float, limit: int) -> int:
    """Advance running jobs through copies of one round, as advance steps it.

    Returns the rounds applied: at most limit rounds of length dt
    (STRETCH_CHUNK if fewer, unless no job runs), each at the job's
    fixed throughput and CS. A chunk repeats its first round: a job
    that starts it with restore_remaining >= dt burns a whole interval
    of penalty every round (no samples; attained service, CS integral
    and placed time grow as in any round), any other job gains
    throughput * dt samples. So a finish, a partial penalty or a
    penalty's end stops the chunk: it ends before the first round that
    would finish a job (round k does when gain >= total - s_k, s_k its
    samples before round k) or that a job would start with 0 <
    restore_remaining < dt or with its penalty burnt. np.add.accumulate
    adds in sequence, so samples_done, attained_service, cs_integral,
    placed_time and restore_remaining end bit-identical to as many
    advance calls with the engine's CS bookkeeping; a closed form such
    as s + g * n would not be.
    """
    if not jobs:
        return limit
    n = min(limit, STRETCH_CHUNK)
    start, step, reach, total = [], [], [], []  # five fields a job: samples first
    for job, thr, c in zip(jobs, throughputs, cs):
        s, r = job.samples_done, job.restore_remaining
        gained, left = (0.0 if r else thr * dt), job.spec.total_samples - s
        if 0 < r < dt or (thr > 0 and gained >= left):
            return 0  # round 0 burns a partial penalty or finishes the job
        # about the rounds before its penalty ends or it finishes; +2 covers
        # the rounding of the sums, and a short guess or the chunk cap (which
        # bounds the array at 40 * STRETCH_CHUNK bytes per job) only ends the
        # chunk early: the caller steps the next round and goes on
        ends = r / dt if r else left / gained if gained > 0 else math.inf
        n = min(n, int(min(ends, n)) + 2)
        start += (s, job.attained_service, job.cs_integral, job.placed_time, r)
        step += (gained, job.spec.gpu_demand * dt, c * dt, dt, -dt if r else 0.0)
        reach.append(gained if thr > 0 else -math.inf)
        total.append(job.spec.total_samples)
    steps = np.empty((n + 1, len(start)))
    steps[0] = start
    steps[1:] = step
    np.add.accumulate(steps, axis=0, out=steps)
    # samples never fall and penalties never rise, so a round that finishes
    # job k or takes its penalty below 0 is followed only by such rounds:
    # test round n, and walk back to the last round that passes for every job
    for k in range(len(reach)):
        while n and (steps[n, 5 * k + 4] < 0 or reach[k] >= total[k] - steps[n - 1, 5 * k]):
            n -= 1
    row = steps[n].tolist()
    for k, job in enumerate(jobs):
        (job.samples_done, job.attained_service, job.cs_integral, job.placed_time,
         job.restore_remaining) = row[5 * k:5 * k + 5]
    return n


def advance_stretch(jobs: list[JobState], throughputs: list[float], cs: list[float],
                    dt: float, limit: int, start: int) -> int:
    """Advance the running jobs through up to limit rounds from round start.

    Returns the rounds applied. Every round runs each job for dt at its
    fixed throughput and CS, and the call stops after the first round
    in which a job finishes (its finish_time set, its samples complete).
    The rounds go in chunks (_accumulate): a chunk repeats its first
    round, and a finish, a partial penalty or a penalty's end stops it.
    The round after a chunk that stops short of limit goes through
    advance, the reference, at now = round * dt with the CS bookkeeping:
    it may finish a job, burn part of a round of restore penalty or
    follow a penalty's end, or the chunk may have stopped at
    STRETCH_CHUNK. So does a call of one round.
    """
    done = 0
    while done < limit:
        if limit - done > 1:
            done += _accumulate(jobs, throughputs, cs, dt, limit - done)
            if done == limit:
                break
        for job, throughput, c in zip(jobs, throughputs, cs):
            active = advance(job, dt, throughput, now=(start + done) * dt)
            job.cs_integral += c * active
            job.placed_time += active
        done += 1
        if any(job.finish_time is not None for job in jobs):
            break
    return done


def _round_at(time: float, T: float) -> int:
    """Index of the first round whose start k * T is at or after time."""
    k = max(0, math.ceil(time / T))
    while k > 0 and (k - 1) * T >= time:
        k -= 1
    while k * T < time:
        k += 1
    return k


def _preempt(cluster: ClusterState, state: JobState, cfg: EpisodeConfig,
             checkpointing: list[tuple[float, int]], t: float) -> None:
    """Free a running job and append (ready time, job id) to checkpointing.

    The job re-queues once its checkpoint is written, CHECKPOINT_GRACE
    after t. An episode's t never decreases, so checkpointing stays in
    ready-time order, and in preemption order within one ready time.
    """
    cluster.free(state.spec.id)
    state.restore_remaining = cfg.restore_penalty
    state.preemption_count += 1
    checkpointing.append((t + CHECKPOINT_GRACE, state.spec.id))


def _queued_at(queue: list[JobSpec], spec: JobSpec) -> int | None:
    """spec's position in queue, or None; the scan matches by identity, which
    is equality here because check_trace refuses a repeated job id."""
    return next((k for k, queued in enumerate(queue) if queued is spec), None)


def _defer(queue: list[JobSpec], spec: JobSpec) -> None:
    """Move a declined job behind the last queued job of the same demand.

    The RL window offers the first queued job of each demand, so without
    the move a declined job would block every peer of its demand. A job
    that is no longer queued (RL-Hybrid's greedy pass placed it) is left alone.
    """
    pos = _queued_at(queue, spec)
    if pos is None:
        return
    peers = [k for k in range(pos + 1, len(queue)) if queue[k].gpu_demand == spec.gpu_demand]
    if peers:
        queue.insert(peers[-1] + 1, spec)
        del queue[pos]


def run_episode(policy, trace: list[JobSpec], episode_config: EpisodeConfig,
                cluster_config: ClusterConfig | None = None,
                weights: RewardWeights | None = None,
                rng: np.random.Generator | None = None,
                record_trajectory: bool = False) -> EpisodeReport:
    """Drive one episode to completion and collect metrics.

    Deterministic for a fixed (policy, trace, configs, rng seed); rng
    None means default_rng(0). A trace with a repeated job id, or with a
    job that no placement shape of the cluster fits, raises ConfigError
    before round 0 (check_trace). After LIVELOCK_ROUNDS no-progress rounds
    with an empty cluster and waiting jobs, the livelock guard places
    what the whole decide_fifo_greedy scan places: every queued job it fits.
    Every decide gets the queued JobSpecs (not to be changed) and the
    episode's EpisodeCS; the RL policy prices its verdicts with the
    latter, and baselines ignore it. The values derived from the
    placements (the CS profile, throughput, utilization, mean CS and the
    round reward) are EpisodeCS's, computed once per cluster.version;
    each new CS profile recomputes only the jobs on nodes that a
    placement, preemption or finish touched, so over a cached map the
    threshold check is one max over the running jobs. Preempted jobs
    wait in one list in ready-time order (_preempt); a pass's
    preemptions are that list's growth.

    Each pass asks the policy once and applies the decision to every
    round it holds for: one round, unless the policy declares
    idle_between_events and the decision is idle (it places and
    preempts nothing, and no RL head had a choice) with jobs running or
    the queue empty. The policy then promises the same decision until an
    event (an arrival, a checkpoint-ready re-queue, or an allocate or
    free on the cluster), so it holds up to the round that admits the
    next arrival or checkpoint-ready re-queue, or MAX_ROUNDS, and
    advance_stretch stops after the first round in which a job
    finishes. Those rounds repeat one round but the time. The
    CS-threshold loop cannot fire before their last round: the map
    changes only at events, and it was at or below the threshold when
    they began (the previous pass ended with the threshold loop). When
    the finish that ends them raises a CS over it (synthetic mode with
    an intra-node bus slower than the network), their last round
    preempts at its own time, as a run of its own.

    Each pass appends one run to the RoundLog, but for such a round.
    With record_trajectory the run also keeps the RLDecision its rounds
    applied and their no-op reward (the round reward of the placements
    the pass starts from), so the report's rounds are the RL trajectory
    too; without it a run holds no decision, and keeps no RL state alive.
    """
    cluster_config = cluster_config or ClusterConfig()
    check_trace(trace, cluster_config)
    weights = weights or RewardWeights()
    if rng is None:
        rng = np.random.default_rng(0)
    cluster = ClusterState(cluster_config)
    states = {spec.id: JobState(spec=spec) for spec in trace}
    cs = EpisodeCS(cluster, states, episode_config, weights)
    pending = sorted(trace, key=lambda spec: spec.arrival_time)  # stable: ties keep trace order
    queue: list[JobSpec] = []
    checkpointing: list[tuple[float, int]] = []  # (ready time, job id), see _preempt
    t = 0.0
    T = episode_config.round_interval
    threshold = episode_config.cs_preemption_threshold
    rounds = RoundLog(T)
    stall_rounds = 0
    idle_between_events = getattr(policy, "idle_between_events", False)

    while True:
        while pending and pending[0].arrival_time <= t:
            queue.append(pending.pop(0))
        # preempted jobs re-enter at the queue head once their checkpoint
        # is written (they cannot resume from a checkpoint that does not
        # exist yet), in the order they were preempted
        ready = bisect.bisect_right(checkpointing, t, key=lambda e: e[0])
        if ready:
            queue[:0] = [states[jid].spec for _, jid in checkpointing[:ready]]
            del checkpointing[:ready]
        if not queue and not cluster.placements and not pending and not checkpointing:
            break
        if len(rounds) >= MAX_ROUNDS:
            raise RuntimeError(f"episode exceeded {MAX_ROUNDS} rounds")

        # counterfactual baseline: the reward this round would yield if
        # nothing were placed or preempted (a state-only quantity)
        noop_reward = cs.round_values()[4] if record_trajectory else 0.0
        action = policy.decide(cluster, queue, states, rng, cs)

        # livelock guard: empty cluster, waiting jobs, policy keeps skipping;
        # check_trace made sure the queue head fits the empty cluster
        if not action.placements and not cluster.placements and queue:
            stall_rounds += 1
            if stall_rounds >= LIVELOCK_ROUNDS:
                log.warning("livelock guard forcing greedy placement at t=%s", t)
                rl = action.rl
                if rl is not None:
                    rl.forced = True
                action = Action(placements=decide_fifo_greedy(cluster, queue).placements,
                                preemptions=action.preemptions, rl=rl)
                stall_rounds = 0
        else:
            stall_rounds = 0

        before = len(checkpointing)  # this round's preemptions append to it
        for jid in action.preemptions:
            if jid not in cluster.placements:
                raise InvalidPlacementError(f"cannot preempt non-running job {jid}")
            _preempt(cluster, states[jid], episode_config, checkpointing, t)
        for jid, placement in action.placements:
            state = states[jid]
            if placement.total_gpus != state.spec.gpu_demand:
                raise InvalidPlacementError(
                    f"placement covers {placement.total_gpus} GPUs, "
                    f"job {jid} demands {state.spec.gpu_demand}")
            pos = _queued_at(queue, state.spec)
            if pos is None:
                raise InvalidPlacementError(f"cannot place job {jid}: it is not queued")
            cluster.allocate(jid, placement)
            if state.start_time is None:
                state.start_time = t
            del queue[pos]
        for jid in action.deferred:
            _defer(queue, states[jid].spec)

        cs_map, throughput, utilization, mean_cs, reward = cs.round_values()
        start = len(rounds)
        limit = 1  # an idle decision holds for every round up to the next event
        if (idle_between_events and action.is_noop and not (action.rl and action.rl.has_choice)
                and (cluster.placements or not queue)):
            limit = MAX_ROUNDS - start
            if pending:
                limit = min(limit, _round_at(pending[0].arrival_time, T) - start)
            if checkpointing:
                limit = min(limit, _round_at(checkpointing[0][0], T) - start)
        n = advance_stretch([states[jid] for jid in cs_map], list(throughput.values()),
                            list(cs_map.values()), T, limit, start)
        for jid in cs_map:  # the placed jobs, in job-id order
            if states[jid].finish_time is not None:
                cluster.free(jid)

        record = RoundRecord(t, utilization, mean_cs, reward, len(cs_map), len(queue),
                             len(action.placements), num_preempted=0)
        decision = action.rl if record_trajectory else None
        if threshold is not None:
            cs_now = cs.profile()
            while cs_now and max(cs_now.values()) > threshold:
                if n > 1:  # the last round's finish raised a CS: it preempts on its own
                    rounds.append(record, n - 1, decision, noop_reward)
                    t, n = len(rounds) * T, 1
                    record = replace(record, time=t)
                worst = max(cs_now, key=lambda j: (cs_now[j], states[j].spec.arrival_time, j))
                _preempt(cluster, states[worst], episode_config, checkpointing, t)
                cs_now = cs.profile()
        record.num_preempted = len(checkpointing) - before
        rounds.append(record, n, decision, noop_reward)
        t = len(rounds) * T  # a running sum of T would drift by rounding

    job_records = []
    for jid in sorted(states):
        s = states[jid]
        job_records.append(JobRecord(
            id=jid, model=s.spec.model_class.value, demand=s.spec.gpu_demand,
            arrival=s.spec.arrival_time, start=s.start_time, finish=s.finish_time,
            jct=s.jct, preemptions=s.preemption_count, mean_cs=s.mean_cs,
            isolated_runtime=s.spec.isolated_runtime))
    return EpisodeReport(jobs=job_records, rounds=rounds,
                         aggregates=_aggregate(job_records, rounds))


METRICS = ("avg_jct", "p90_jct", "mean_util", "mean_cs")


@dataclass
class ComparisonReport:
    policies: list[str]
    per_policy: dict[str, dict]  # policy -> mean aggregates over traces
    deltas: dict[tuple[str, str], dict[str, float]]
    reports: dict[str, list[EpisodeReport]]


def compare_policies(policies, traces: list[list[JobSpec]],
                     episode_config: EpisodeConfig,
                     cluster_config: ClusterConfig | None = None,
                     weights: RewardWeights | None = None) -> ComparisonReport:
    """Run each named policy over each trace and tabulate pairwise deltas.

    policies: list of (name, policy object). Traces are shared across
    policies so deltas compare like for like.
    """
    reports: dict[str, list[EpisodeReport]] = {}
    per_policy = {}
    names = []
    for name, policy in policies:
        names.append(name)
        reports[name] = [run_episode(policy, trace, episode_config, cluster_config, weights)
                         for trace in traces]
        rows = [rep.aggregates for rep in reports[name]]
        per_policy[name] = {m: sum(r[m] for r in rows) / len(rows) for m in METRICS}
        per_policy[name]["total_preemptions"] = sum(r["total_preemptions"] for r in rows)
    deltas = {}
    for a in names:
        for b in names:
            if a == b:
                continue
            deltas[(a, b)] = {
                m: 100.0 * (per_policy[a][m] - per_policy[b][m]) / per_policy[b][m]
                if per_policy[b][m] != 0 else 0.0
                for m in METRICS}
    return ComparisonReport(policies=names, per_policy=per_policy, deltas=deltas,
                            reports=reports)
