"""Job specifications, per-job progress state and accounting, and traces.

A trace is a list of JobSpec. Communication mixes follow the four named
ratios over GNN:IMG:DLRM:LM:FSDP:MoE. Per-job configuration variety is
abstracted as +-20% multiplicative jitter on avg_bandwidth and
comm_comp_ratio. Every job's isolated runtime is total_samples /
IDEAL_THROUGHPUT; the default of 60 sim-seconds is one "hour" at the
default 1/60 time scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import ClusterConfig, demand_shapes
from .contention import DEFAULT_PROFILES, CommPattern, ModelClass, ModelProfile
from .errors import ConfigError, TraceParseError

MIX_PRESETS = {
    "normal": (1, 1, 1, 1, 1, 1),
    "heavy": (1, 1, 1, 1, 4, 4),
    "medium": (1, 1, 4, 4, 1, 1),
    "low": (4, 4, 1, 1, 1, 1),
}

MODEL_ORDER = [ModelClass.GNN, ModelClass.IMG, ModelClass.DLRM,
               ModelClass.LM, ModelClass.FSDP, ModelClass.MoE]

IDEAL_THROUGHPUT = 10.0  # samples/s of every generated job, uncontended


@dataclass(frozen=True)
class JobSpec:
    """One distributed training job's demand and communication profile."""

    id: int
    gpu_demand: int
    total_samples: float
    arrival_time: float
    profile: ModelProfile
    isolated_runtime: float

    def __post_init__(self):
        # an episode divides by these and runs each job to its samples
        for name, low in (("total_samples", 0.0), ("isolated_runtime", 0.0),
                          ("arrival_time", -math.inf)):
            if not low < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}={getattr(self, name)} is outside ({low}, inf)")

    @property
    def model_class(self) -> ModelClass:
        """The profile's model class: the one the job is reported and priced by."""
        return self.profile.model_class

    @property
    def ideal_throughput(self) -> float:
        """Samples/s with no contention; total_samples / isolated_runtime."""
        return self.total_samples / self.isolated_runtime


@dataclass
class JobState:
    """Mutable progress of one job within an episode. Where the job is, the
    engine's collections say (queued, placed, checkpointing); finish_time
    says it finished."""

    spec: JobSpec
    samples_done: float = 0.0
    attained_service: float = 0.0  # GPU-seconds
    start_time: float | None = None
    finish_time: float | None = None
    preemption_count: int = 0
    restore_remaining: float = 0.0
    cs_integral: float = 0.0  # integral of CS over placed time
    placed_time: float = 0.0

    @property
    def remaining_samples(self) -> float:
        return self.spec.total_samples - self.samples_done

    @property
    def remaining_time_ideal(self) -> float:
        """Contention-free estimate of time to finish."""
        return self.remaining_samples / self.spec.ideal_throughput

    @property
    def fraction_done(self) -> float:
        return self.samples_done / self.spec.total_samples

    @property
    def jct(self) -> float | None:
        if self.finish_time is None:
            return None
        return self.finish_time - self.spec.arrival_time

    @property
    def mean_cs(self) -> float:
        return self.cs_integral / self.placed_time if self.placed_time > 0 else 0.0


def advance(job: JobState, dt: float, throughput: float, now: float) -> float:
    """Integrate progress over a round of length dt at a fixed throughput.

    A pending restore penalty is burned before samples accrue. If the job
    finishes inside the interval the finish timestamp is the exact
    crossing time. Returns the active time consumed (min(dt, crossing)),
    which the caller uses to weight CS exposure. The job is placed and
    unfinished, and dt is the episode's (positive) round interval.
    """
    penalty = min(job.restore_remaining, dt)
    job.restore_remaining -= penalty
    progress_window = dt - penalty
    gained = throughput * progress_window
    if gained >= job.remaining_samples and throughput > 0:
        to_finish = job.remaining_samples / throughput
        active = penalty + to_finish
        job.samples_done = job.spec.total_samples
        job.attained_service += job.spec.gpu_demand * active
        job.finish_time = now + active
        return active
    job.samples_done += gained
    job.attained_service += job.spec.gpu_demand * dt
    return dt


def check_trace(trace: list[JobSpec], config: ClusterConfig) -> None:
    """Refuse a trace that no episode on the cluster can finish: a repeated
    job id, or a job whose demand no placement shape fits."""
    seen: set[int] = set()
    for job in trace:
        if job.id in seen:
            raise ConfigError(f"job id {job.id} is given twice")
        seen.add(job.id)
        if not demand_shapes(config, job.gpu_demand):
            raise ConfigError(
                f"job {job.id} demands {job.gpu_demand} GPUs, which no placement fits "
                f"on {config.num_nodes} nodes x {config.gpus_per_node} GPUs")


def feasible_demands(config: ClusterConfig, cap: int = 32) -> list[int]:
    """Demands in [1, cap] expressible as j * 2^i on the cluster shape."""
    out = [d for d in range(1, min(cap, config.total_gpus) + 1)
           if demand_shapes(config, d)]
    return out


# Default demand histogram (demand -> weight) on an 8-GPU-per-node
# cluster: mostly sub-node jobs with odd sizes that fragment nodes and
# even sizes that can span them, plus a node-scale and two-node tail.
# Mirrors the small-job-heavy demographics of published cluster traces
# while keeping node-spanning placements common.
DEFAULT_DEMAND_WEIGHTS = {3: 0.15, 4: 0.25, 5: 0.15, 6: 0.15, 8: 0.20, 12: 0.10}


def demand_weights(config: ClusterConfig, cap: int = 32,
                   profile: str = "small-skew") -> tuple[list[int], np.ndarray]:
    """(feasible demands, sampling probabilities) for a demand profile.

    "small-skew" uses DEFAULT_DEMAND_WEIGHTS restricted to feasible
    demands (renormalized; falls back to uniform if none are feasible);
    "uniform" is uniform over all feasible demands.
    """
    demands = feasible_demands(config, cap)
    if profile == "uniform":
        probs = np.full(len(demands), 1.0 / len(demands))
        return demands, probs
    if profile != "small-skew":
        raise ConfigError(f"unknown demand profile {profile!r}")
    probs = np.array([DEFAULT_DEMAND_WEIGHTS.get(d, 0.0) for d in demands])
    if probs.sum() <= 0:
        probs = np.full(len(demands), 1.0 / len(demands))
    else:
        probs = probs / probs.sum()
    return demands, probs


@dataclass(frozen=True)
class TraceSpec:
    """Recipe for one generated job set."""

    num_jobs: int
    mix: tuple[float, ...] = MIX_PRESETS["normal"]
    seed: int = 0
    isolated_hours: float = 1.0
    time_scale: float = 1.0 / 60.0
    jitter: float = 0.2
    demand_cap: int = 32
    demand_profile: str = "small-skew"  # or "uniform"
    arrival: str = "all-at-zero"  # or "poisson"
    arrival_rate: float = 1.0  # jobs per sim-second, poisson mode only

    def __post_init__(self):
        if self.num_jobs < 1:
            raise ConfigError("num_jobs must be >= 1")
        if (len(self.mix) != len(MODEL_ORDER) or not all(0 < r < math.inf for r in self.mix)
                or not sum(self.mix) < math.inf):
            raise ConfigError("mix needs 6 positive finite ratios with a finite sum")
        if self.arrival not in ("all-at-zero", "poisson"):
            raise ConfigError(f"unknown arrival process {self.arrival!r}")
        if not (0 < self.isolated_hours < math.inf and 0 < self.time_scale < math.inf):
            raise ConfigError("isolated_hours and time_scale must be positive and finite")
        if not 0 < self.arrival_rate < math.inf:
            raise ConfigError("arrival_rate must be positive and finite")
        if not 0 <= self.jitter < 1:
            raise ConfigError("jitter must be in [0, 1)")
        if self.demand_cap < 1:
            raise ConfigError("demand_cap must be >= 1")

    @property
    def isolated_runtime(self) -> float:
        """Isolated runtime in sim-seconds."""
        return 3600.0 * self.isolated_hours * self.time_scale


def _pick(probs: np.ndarray, u: np.ndarray) -> list[int]:
    """The indices Generator.choice(len(probs), p=probs) picks with uniform doubles u."""
    cdf = np.cumsum(probs)
    return np.searchsorted(cdf / cdf[-1], u, side="right").tolist()


def generate_trace(spec: TraceSpec, cluster_config: ClusterConfig | None = None) -> list[JobSpec]:
    """Sample a job set; deterministic for a fixed spec."""
    config = cluster_config or ClusterConfig()
    rng = np.random.default_rng(spec.seed)
    ratios = np.asarray(spec.mix, dtype=float)
    probs = ratios / ratios.sum()
    demands, demand_probs = demand_weights(config, spec.demand_cap, spec.demand_profile)
    if spec.arrival == "poisson":
        gaps = rng.exponential(1.0 / spec.arrival_rate, size=spec.num_jobs)
        arrivals = np.cumsum(gaps)
        arrivals[0] = 0.0
    else:
        arrivals = np.zeros(spec.num_jobs)
    # a job's model, demand and two jitters take one uniform double each,
    # drawn as Generator.choice(p=...) and Generator.uniform would draw them
    draws = rng.random((spec.num_jobs, 4))
    models, picks = _pick(probs, draws[:, 0]), _pick(demand_probs, draws[:, 1])
    lo, hi = 1.0 - spec.jitter, 1.0 + spec.jitter
    jitters = (lo + (hi - lo) * draws[:, 2:]).tolist()
    jobs = []
    for k, (bandwidth_jitter, ratio_jitter) in enumerate(jitters):
        model = MODEL_ORDER[models[k]]
        base = DEFAULT_PROFILES[model]
        profile = ModelProfile(
            model_class=model,
            avg_bandwidth=base.avg_bandwidth * bandwidth_jitter,
            comm_comp_ratio=base.comm_comp_ratio * ratio_jitter,
            comm_pattern=base.comm_pattern,
        )
        jobs.append(JobSpec(
            id=k,
            gpu_demand=int(demands[picks[k]]),
            total_samples=IDEAL_THROUGHPUT * spec.isolated_runtime,
            arrival_time=float(arrivals[k]),
            profile=profile,
            isolated_runtime=spec.isolated_runtime,
        ))
    return jobs


def _mix_str(mix) -> str:
    return ":".join(repr(float(r)) if float(r) != int(r) else str(int(r)) for r in mix)


def parse_mix(text: str) -> tuple[float, ...]:
    if text in MIX_PRESETS:
        return MIX_PRESETS[text]
    parts = text.split(":")
    if len(parts) != 6:
        raise ConfigError(f"mix {text!r} is not a preset name or 6 ratios")
    return tuple(float(p) for p in parts)


def write_trace(jobs: list[JobSpec], spec: TraceSpec, path) -> None:
    """Line-delimited key=value records with a provenance header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# trace num_jobs={spec.num_jobs} mix={_mix_str(spec.mix)} "
                 f"seed={spec.seed} isolated_hours={spec.isolated_hours!r} "
                 f"time_scale={spec.time_scale!r} ideal_throughput={IDEAL_THROUGHPUT!r} "
                 f"jitter={spec.jitter!r} demand_cap={spec.demand_cap} "
                 f"demand_profile={spec.demand_profile} "
                 f"arrival={spec.arrival} arrival_rate={spec.arrival_rate!r}\n")
        for job in jobs:
            fh.write(f"id={job.id} model={job.model_class.value} demand={job.gpu_demand} "
                     f"total_samples={job.total_samples!r} arrival={job.arrival_time!r} "
                     f"isolated_runtime={job.isolated_runtime!r} "
                     f"avg_bandwidth={job.profile.avg_bandwidth!r} "
                     f"comm_comp_ratio={job.profile.comm_comp_ratio!r} "
                     f"comm_pattern={job.profile.comm_pattern.value}\n")


def read_trace(path) -> list[JobSpec]:
    """Parse a trace file's jobs; '#' lines, the write_trace header among them, are comments.
    A file with no job record is a TraceParseError."""
    jobs = []
    seen: dict[int, int] = {}  # job id -> the line that gave it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = {}
            for token in line.split():
                key, sep, value = token.partition("=")
                if not sep:
                    raise TraceParseError(f"bad token {token!r}", line=lineno)
                fields[key] = value
            try:
                model = ModelClass(fields["model"])
                profile = ModelProfile(
                    model_class=model,
                    avg_bandwidth=float(fields["avg_bandwidth"]),
                    comm_comp_ratio=float(fields["comm_comp_ratio"]),
                    comm_pattern=CommPattern(fields["comm_pattern"]),
                )
                jobs.append(JobSpec(
                    id=int(fields["id"]),
                    gpu_demand=int(fields["demand"]),
                    total_samples=float(fields["total_samples"]),
                    arrival_time=float(fields["arrival"]),
                    profile=profile,
                    isolated_runtime=float(fields["isolated_runtime"]),
                ))
            except (KeyError, ValueError, ConfigError) as exc:
                raise TraceParseError(f"bad job record: {exc}", line=lineno) from exc
            jid = jobs[-1].id
            if jid in seen:
                raise TraceParseError(f"job id {jid} already given on line {seen[jid]}",
                                      line=lineno)
            seen[jid] = lineno
    if not jobs:
        raise TraceParseError("no job record")
    return jobs


def shuffle_arrival_order(jobs: list[JobSpec], rng: np.random.Generator) -> list[JobSpec]:
    """Re-draw the arrival order of an all-at-zero job set (new episode)."""
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]
