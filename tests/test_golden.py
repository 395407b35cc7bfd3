"""Golden fixture: end-to-end episode and training output pinned to files.

Every case below was run once and its output stored in
tests/data/golden/*.json; the tests compare against those files exactly.
Floats are stored as JSON numbers, which Python writes with repr, so they
round-trip bit for bit. A change that moves an output on purpose
regenerates the files with `python tests/test_golden.py --write` and
says in CHANGES.md what moved and by how much.

Each episode case stores its per-job records, its aggregates and a
digest of its round records; the contention-off cases run with every
CS at 1; RL cases record their trajectory, whose rows the round log's
runs carry, and store a digest of it too. The training case stores a digest per parameter
array and the curves of a 2-episode train(). Two comparison cases store a
sha256 of every file write_comparison writes, so the report bytes
(per_round.csv included) are pinned as well.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "data" / "golden"

if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from consched.cluster import ClusterConfig  # noqa: E402
from consched.contention import ContentionParams  # noqa: E402
from consched.engine import (EpisodeConfig, compare_policies,  # noqa: E402
                             default_contention_params, run_episode)
from consched.policies import make_policy  # noqa: E402
from consched.reports import write_comparison  # noqa: E402
from consched.rl.train import TrainConfig, make_net, train  # noqa: E402
from consched.workload import MIX_PRESETS, TraceSpec, generate_trace  # noqa: E402

SMALL = ClusterConfig(num_nodes=2, gpus_per_node=4)

# trace name -> (trace spec, cluster config, contention params)
TRACES = {
    "normal64": (TraceSpec(num_jobs=64, seed=11), None, default_contention_params()),
    "heavy-poisson": (TraceSpec(num_jobs=32, seed=12, mix=MIX_PRESETS["heavy"],
                                arrival="poisson", arrival_rate=0.05), None,
                      default_contention_params()),
    "synthetic": (TraceSpec(num_jobs=32, seed=13), None, ContentionParams(mode="synthetic")),
    "small-2x4": (TraceSpec(num_jobs=24, seed=14, demand_cap=8), SMALL,
                  default_contention_params()),
}
# policy case -> (policy kind, argmax)
POLICIES = {
    "greedy": ("greedy", True),
    "las": ("las", True),
    "srtf": ("srtf", True),
    "srtf-np": ("srtf-np", True),
    "rl-base-argmax": ("rl-base", True),
    "rl-base-sample": ("rl-base", False),
    "rl-hybrid-argmax": ("rl-hybrid", True),
}
THRESHOLDS = {"cs2": 2.0, "cs-off": None}
# A fresh net has contention_scale 0, so the cases above pin the verdicts
# only through the trajectory digest. These argmax cases fix the scale at
# 2, where the contention verdicts decide every head with a choice.
VERDICT_SCALE = 2.0
VERDICT_CASES = [("heavy-poisson", "cs2"), ("synthetic", "cs2")]
VERDICT_POLICY = "rl-base-argmax-scale2"
SAMPLE_SEED = 7
TRAIN_SPEC = TraceSpec(num_jobs=24, seed=15)
# contention-off cases: (trace name, policy case, threshold name); every CS is 1
OFF_CASES = [("normal64", "greedy", "cs2"), ("normal64", "srtf", "cs2"),
             ("normal64", "rl-base-argmax", "cs2"), ("normal64", "rl-base-sample", "cs2"),
             ("normal64", "rl-hybrid-argmax", "cs2"), ("heavy-poisson", "las", "cs2"),
             ("heavy-poisson", "rl-base-sample", "cs2"), ("heavy-poisson", VERDICT_POLICY, "cs2"),
             ("small-2x4", "srtf-np", "cs-off")]
# comparison case -> (trace name, policy cases, threshold name)
COMPARISONS = {
    "baselines-normal64": ("normal64", ("las", "srtf"), "cs-off"),
    "rl-heavy-poisson": ("heavy-poisson", ("rl-base-sample", "rl-hybrid-argmax"), "cs2"),
}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def rounds_digest(rounds) -> str:
    return hashlib.sha256("\n".join(_floats(astuple(r)) for r in rounds).encode()).hexdigest()


def trajectory_rows(rounds) -> list[tuple]:
    """A recorded episode's (decision, reward, no-op reward) rows, one per round."""
    return [(step, record.reward, noop)
            for record, _, n, step, noop in rounds.runs for _ in range(n)]


def flat(step) -> dict:
    """A recorded decision's pooled input, and its prior, verdicts and features
    over every (head, choice) in that order; each None when no head was listed."""
    arrays = [np.concatenate(a) for a in zip(*step.heads)] if step.heads else [None] * 3
    return {"pooled": step.pooled, **dict(zip(("prior", "verdicts", "features"), arrays))}


def split_heads(choices, prior, verdicts, features) -> list[tuple]:
    """Per-(head, choice) arrays as RLDecision.heads: one (prior, verdicts,
    features) entry per head of choices, skip's row last in each."""
    cuts = np.cumsum([len(listed) + 1 for listed in choices])[:-1]
    return list(zip(*(np.split(a, cuts) for a in (prior, verdicts, features))))


def trajectory_digest(rows) -> str:
    h = hashlib.sha256()
    for step, reward, noop in rows:
        fields = flat(step)
        for a in (fields[name] for name in ("pooled", "features", "prior", "verdicts")):
            h.update(b"-" if a is None else _array_digest(a).encode())
        for choices, pick in zip(step.choices, step.chosen):
            listed = ",".join(f"{p.nodes}x{p.gpus_per_node_used}" for p in choices)
            h.update(f"[{listed}]->{pick};".encode())
        h.update(f"{step.temperature!r},{step.forced!r},{_floats((reward, noop))};".encode())
    return h.hexdigest()


def _plain(value):
    """JSON-ready copy: numpy scalars become Python ints and floats."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _make_policy(policy_name: str, config: ClusterConfig):
    if policy_name == VERDICT_POLICY:
        net, space = make_net(config, TrainConfig(seed=0))
        net.params["contention_scale"][0] = VERDICT_SCALE
        return make_policy("rl-base", net=net, action_space=space)
    kind, argmax = POLICIES[policy_name]
    if kind.startswith("rl-"):
        net, space = make_net(config, TrainConfig(seed=0))
        return make_policy(kind, net=net, action_space=space, deterministic=argmax)
    return make_policy(kind)


def run_case(trace_name: str, policy_name: str, threshold_name: str,
             contention_off: bool = False) -> dict:
    spec, cluster_config, contention = TRACES[trace_name]
    config = cluster_config or ClusterConfig()
    trace = generate_trace(spec, config)
    episode = EpisodeConfig(cs_preemption_threshold=THRESHOLDS[threshold_name],
                            contention=ContentionParams(mode="off") if contention_off
                            else contention)
    rl = policy_name == VERDICT_POLICY or POLICIES[policy_name][0].startswith("rl-")
    policy = _make_policy(policy_name, config)
    report = run_episode(policy, trace, episode, config, rng=np.random.default_rng(SAMPLE_SEED),
                         record_trajectory=rl)
    out = {
        "jobs": [_plain(asdict(j)) for j in report.jobs],
        "aggregates": _plain(report.aggregates),
        "rounds_digest": rounds_digest(report.rounds),
    }
    if rl:
        rows = trajectory_rows(report.rounds)
        out["trajectory_rows"] = len(rows)
        out["trajectory_digest"] = trajectory_digest(rows)
    return out


def run_comparison(case: str, out_dir: Path) -> dict:
    """sha256 of every file write_comparison writes, by path under out_dir."""
    trace_name, policy_names, threshold_name = COMPARISONS[case]
    spec, cluster_config, contention = TRACES[trace_name]
    config = cluster_config or ClusterConfig()
    episode = EpisodeConfig(cs_preemption_threshold=THRESHOLDS[threshold_name],
                            contention=contention)
    policies = [(name, _make_policy(name, config)) for name in policy_names]
    cmp = compare_policies(policies, [generate_trace(spec, config)], episode, config)
    write_comparison(cmp, out_dir, {"case": case})
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def run_training(tmp_dir: Path) -> dict:
    config = TrainConfig(episodes=2, checkpoint_path=str(tmp_dir / "golden.ckpt"))
    net, curves = train(generate_trace(TRAIN_SPEC), config)
    return {
        "params": {key: _array_digest(value) for key, value in net.params.items()},
        "curves": [_plain(row) for row in curves],
    }


def _roundtrip(data: dict) -> dict:
    return json.loads(json.dumps(data))


_loaded: dict[str, dict] = {}


def golden(name: str) -> dict:
    if name not in _loaded:
        _loaded[name] = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    return _loaded[name]


@pytest.mark.parametrize("threshold_name", THRESHOLDS)
@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("trace_name", TRACES)
def test_episode_matches_golden(trace_name, policy_name, threshold_name):
    expected = golden(trace_name)[f"{policy_name}/{threshold_name}"]
    actual = _roundtrip(run_case(trace_name, policy_name, threshold_name))
    assert actual["aggregates"] == expected["aggregates"]
    assert actual["jobs"] == expected["jobs"]
    assert actual["rounds_digest"] == expected["rounds_digest"]
    assert actual.get("trajectory_rows") == expected.get("trajectory_rows")
    assert actual.get("trajectory_digest") == expected.get("trajectory_digest")


@pytest.mark.parametrize("trace_name,threshold_name", VERDICT_CASES)
def test_verdict_case_matches_golden(trace_name, threshold_name):
    expected = golden(trace_name)[f"{VERDICT_POLICY}/{threshold_name}"]
    actual = _roundtrip(run_case(trace_name, VERDICT_POLICY, threshold_name))
    assert actual == expected


@pytest.mark.parametrize("trace_name,policy_name,threshold_name", OFF_CASES)
def test_contention_off_case_matches_golden(trace_name, policy_name, threshold_name):
    expected = golden("contention-off")[f"{trace_name}/{policy_name}/{threshold_name}"]
    actual = _roundtrip(run_case(trace_name, policy_name, threshold_name, contention_off=True))
    assert actual == expected


def test_training_matches_golden(tmp_path):
    expected = golden("train")
    actual = _roundtrip(run_training(tmp_path))
    assert actual["curves"] == expected["curves"]
    assert actual["params"] == expected["params"]


@pytest.mark.parametrize("case", COMPARISONS)
def test_report_files_match_golden(case, tmp_path):
    assert run_comparison(case, tmp_path / case) == golden("reports")[case]


def write_all(tmp_dir: Path) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for trace_name in TRACES:
        cases = {f"{p}/{t}": run_case(trace_name, p, t) for p in POLICIES for t in THRESHOLDS}
        cases.update({f"{VERDICT_POLICY}/{t}": run_case(trace_name, VERDICT_POLICY, t)
                      for name, t in VERDICT_CASES if name == trace_name})
        (GOLDEN / f"{trace_name}.json").write_text(json.dumps(cases, indent=1) + "\n",
                                                   encoding="utf-8")
    off = {"/".join(case): run_case(*case, contention_off=True) for case in OFF_CASES}
    (GOLDEN / "contention-off.json").write_text(json.dumps(off, indent=1) + "\n",
                                               encoding="utf-8")
    (GOLDEN / "train.json").write_text(json.dumps(run_training(tmp_dir), indent=1) + "\n",
                                       encoding="utf-8")
    reports = {case: run_comparison(case, tmp_dir / case) for case in COMPARISONS}
    (GOLDEN / "reports.json").write_text(json.dumps(reports, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write_all(Path(tmp))
    print(f"wrote {GOLDEN}")
