"""In-memory span tracer that times calls into consched's layers from outside.

Spans are recorded by wrapping functions at the attribute the caller looks
them up through (the engine and policies import most layer functions by
name, so `consched.engine.advance` is patched rather than
`consched.workload.advance`). Each span keeps its name, start, end and
parent; a span's self time is its duration minus the time its child
spans cover. Aggregates (calls and self seconds) are kept for
every call; raw spans are kept up to a cap and written out at the end.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []  # outermost calls only (see wrap)
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []  # open frames: [name id, start, child s, span index]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, nid: int, start: float) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.span_start)
        if idx < MAX_SPANS:
            self.span_name.append(nid)
            self.span_parent.append(parent[3] if parent is not None else -1)
            self.span_start.append(start - self.t0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, start, 0.0, idx]
        stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> bool:
        """Pop the frame; returns True when it was the outermost of its name."""
        stack = self._stack
        stack.pop()
        nid = frame[0]
        dur = end - frame[1]
        self.self_s[nid] += dur - frame[2]
        if frame[3] >= 0:
            self.span_end[frame[3]] = end - self.t0
        if stack:
            parent = stack[-1]
            parent[2] += dur
            if parent[0] == nid:
                return False
        self.calls[nid] += 1
        return True

    @contextmanager
    def span(self, name: str):
        frame = self._open(self._id(name), perf_counter())
        try:
            yield
        finally:
            self._close(frame, perf_counter())

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr with a spanned version.

        A call nested directly inside a span of the same name (RL-Hybrid's
        decide calling RL-base's) adds to self time but not to the call
        count, and on_result(result, args) runs for outermost calls only.
        """
        original = getattr(owner, attr)
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_(nid, perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                outermost = close(frame, perf_counter())
            if outermost and on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self, name: str) -> tuple[int, float]:
        """(outermost calls, self seconds) for a span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def write(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 dropped=np.array(self.dropped))


def install_layer_spans(tracer: Tracer, m) -> None:
    """Wrap the public entry points of each consched layer.

    m is the namespace of imported consched modules (see run.py). Span
    names are '<layer>.<function>'; the metric names built from them live
    in layer_metrics.
    """
    count = tracer.count

    def on_episode(report, _args):
        count("engine.rounds", len(report.rounds))
        count("engine.idle_rounds", sum(
            1 for r in report.rounds if r.num_placed == 0 and r.num_preempted == 0))

    def on_decide(action, _args):
        if action.placements or action.preemptions:
            count("policies.useful_decisions")

    def on_first_fit(placement, _args):
        if placement is not None:
            count("cluster.first_fit_hits")

    def on_mask(mask, _args):
        if int(mask.sum()) == 1:
            count("actions.skip_only_masks")

    def on_build_batch(_batch, args):
        count("rl.train.trajectory_rows", len(args[1]))

    for module in (m.engine, m.rl_train):
        tracer.wrap(module, "run_episode", "engine.run_episode", on_episode)
    for cls in (m.policies.GreedyPolicy, m.policies.LASPolicy, m.policies.SRTFPolicy,
                m.policies.RLBasePolicy, m.policies.RLHybridPolicy):
        tracer.wrap(cls, "decide", "policies.decide", on_decide)
    tracer.wrap(m.policies, "first_fit", "cluster.first_fit", on_first_fit)
    for method in ("copy", "allocate", "free"):
        tracer.wrap(m.cluster.ClusterState, method, f"cluster.{method}")
    tracer.wrap(m.engine, "contention_sensitivity", "contention.cs")
    tracer.wrap(m.engine, "advance", "workload.advance")
    tracer.wrap(m.policies, "encode_state", "encoding.encode")
    tracer.wrap(m.actions.ActionSpace, "mask_for", "actions.mask", on_mask)
    tracer.wrap(m.rl_net.PolicyNet, "head_logits", "rl.net.forward")
    tracer.wrap(m.policies, "masked_log_softmax", "rl.net.softmax")
    tracer.wrap(m.engine, "compute_reward", "rl.reward")
    tracer.wrap(m.rl_train, "value_step", "rl.train.value_step")
    tracer.wrap(m.rl_train, "update", "rl.train.update")
    tracer.wrap(m.rl_train, "build_batch", "rl.train.build_batch", on_build_batch)
    tracer.wrap(m.rl_train, "save_checkpoint", "rl.checkpoint.save")
    for fn in ("write_comparison", "write_training_curves"):
        tracer.wrap(m.reports, fn, "reports.write")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup_phases: dict[str, float],
                  final_mean_reward: float, overhead_share: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over one traced pass: name -> (value, unit).

    Times are self seconds (span time minus wrapped children), so the
    layers' times add up to the traced pass without double counting.
    """
    def calls(name):
        return tracer.stats(name)[0]

    def self_s(name):
        return tracer.stats(name)[1]

    c = tracer.counters
    rounds = c.get("engine.rounds", 0)
    ff_calls = calls("cluster.first_fit")
    cs_calls = calls("contention.cs")
    mask_calls = calls("actions.mask")
    decide_calls = calls("policies.decide")
    sample_calls, sample_self = tracer.stats("bench.sample")
    return {
        "engine.rounds": (rounds, "count"),
        "engine.idle_round_share": (_share(c.get("engine.idle_rounds", 0), rounds), "ratio"),
        "engine.self_s": (self_s("engine.run_episode"), "s"),
        "policies.decide_calls": (decide_calls, "count"),
        "policies.decide_s": (self_s("policies.decide"), "s"),
        "policies.decide_useful_share": (
            _share(c.get("policies.useful_decisions", 0), decide_calls), "ratio"),
        "cluster.first_fit_calls": (ff_calls, "count"),
        "cluster.first_fit_per_round": (_share(ff_calls, rounds), "1/round"),
        "cluster.first_fit_s": (self_s("cluster.first_fit"), "s"),
        "cluster.first_fit_hit_share": (_share(c.get("cluster.first_fit_hits", 0), ff_calls),
                                        "ratio"),
        "cluster.copy_calls": (calls("cluster.copy"), "count"),
        "cluster.allocate_calls": (calls("cluster.allocate"), "count"),
        "cluster.free_calls": (calls("cluster.free"), "count"),
        "contention.cs_calls": (cs_calls, "count"),
        "contention.cs_per_round": (_share(cs_calls, rounds), "1/round"),
        "contention.cs_s": (self_s("contention.cs"), "s"),
        "contention.table_build_s": (setup_phases["table"], "s"),
        "workload.advance_calls": (calls("workload.advance"), "count"),
        "workload.advance_s": (self_s("workload.advance"), "s"),
        "workload.generate_trace_s": (setup_phases["traces"], "s"),
        "encoding.encode_calls": (calls("encoding.encode"), "count"),
        "encoding.encode_s": (self_s("encoding.encode"), "s"),
        "actions.mask_calls": (mask_calls, "count"),
        "actions.mask_s": (self_s("actions.mask"), "s"),
        "actions.skip_only_share": (_share(c.get("actions.skip_only_masks", 0), mask_calls),
                                    "ratio"),
        "rl.net.forward_calls": (calls("rl.net.forward"), "count"),
        "rl.net.forward_s": (self_s("rl.net.forward"), "s"),
        "rl.net.softmax_s": (self_s("rl.net.softmax"), "s"),
        "rl.reward.calls": (calls("rl.reward"), "count"),
        "rl.reward.s": (self_s("rl.reward"), "s"),
        "rl.train.value_step_s": (self_s("rl.train.value_step"), "s"),
        "rl.train.update_s": (self_s("rl.train.update"), "s"),
        "rl.train.build_batch_s": (self_s("rl.train.build_batch"), "s"),
        "rl.train.trajectory_rows": (c.get("rl.train.trajectory_rows", 0), "count"),
        "rl.train.final_mean_reward": (final_mean_reward, "reward"),
        "rl.checkpoint.save_s": (self_s("rl.checkpoint.save"), "s"),
        "reports.write_s": (self_s("reports.write"), "s"),
        "trace.samples": (sample_calls, "count"),
        "trace.unattributed_s": (sample_self, "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
