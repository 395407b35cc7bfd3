import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched.cluster import ClusterConfig, demand_shapes
from consched.contention import DEFAULT_PROFILES, ModelClass, ModelProfile
from consched.errors import ConfigError, TraceParseError
from consched.workload import (IDEAL_THROUGHPUT, MODEL_ORDER, JobSpec, JobState, MIX_PRESETS,
                               TraceSpec, advance, demand_weights,
                               feasible_demands, generate_trace, parse_mix,
                               read_trace, shuffle_arrival_order, write_trace)

CFG = ClusterConfig()


def make_state(total=600.0, runtime=60.0, demand=4, arrival=0.0):
    spec = generate_trace(TraceSpec(num_jobs=1, seed=0))[0]
    from dataclasses import replace
    spec = replace(spec, total_samples=total, isolated_runtime=runtime,
                   gpu_demand=demand, arrival_time=arrival)
    return JobState(spec=spec)


class TestGenerateTrace:
    def test_deterministic(self):
        spec = TraceSpec(num_jobs=32, seed=9)
        assert generate_trace(spec) == generate_trace(spec)

    def test_class_counts_within_binomial_bounds(self):
        # Oracle: scipy.stats.binom.ppf([0.005, 0.995], 600, 1/6) = (77, 124);
        # frozen here so the test needs no scipy at runtime.
        jobs = generate_trace(TraceSpec(num_jobs=600, seed=3))
        for model in ModelClass:
            count = sum(1 for j in jobs if j.model_class is model)
            assert 77 <= count <= 124, f"{model}: {count}"

    def test_heavy_mix_fraction(self):
        jobs = generate_trace(TraceSpec(num_jobs=1200, seed=5, mix=MIX_PRESETS["heavy"]))
        frac = sum(1 for j in jobs if j.model_class in (ModelClass.FSDP, ModelClass.MoE)) / 1200
        assert abs(frac - 8 / 12) < 0.05

    def test_isolated_runtime_invariant(self):
        for job in generate_trace(TraceSpec(num_jobs=20, seed=1)):
            assert job.total_samples / job.ideal_throughput == pytest.approx(job.isolated_runtime)

    def test_demands_schedulable(self):
        feasible = set(feasible_demands(CFG))
        for job in generate_trace(TraceSpec(num_jobs=200, seed=2, demand_profile="uniform")):
            assert job.gpu_demand in feasible

    def test_jitter_bounds(self):
        from consched.contention import DEFAULT_PROFILES
        for job in generate_trace(TraceSpec(num_jobs=100, seed=4)):
            base = DEFAULT_PROFILES[job.model_class]
            assert 0.8 * base.avg_bandwidth <= job.profile.avg_bandwidth <= 1.2 * base.avg_bandwidth
            assert 0.8 * base.comm_comp_ratio <= job.profile.comm_comp_ratio <= 1.2 * base.comm_comp_ratio

    def test_poisson_arrivals_sorted_start_zero(self):
        jobs = generate_trace(TraceSpec(num_jobs=50, seed=6, arrival="poisson", arrival_rate=0.1))
        arrivals = [j.arrival_time for j in jobs]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigError):
            TraceSpec(num_jobs=0)
        with pytest.raises(ConfigError):
            TraceSpec(num_jobs=1, mix=(1, 1, 1))
        with pytest.raises(ConfigError):
            TraceSpec(num_jobs=1, arrival="burst")

    @pytest.mark.parametrize("field,value", [
        ("arrival_rate", 0.0), ("arrival_rate", -1.0), ("jitter", -0.1), ("jitter", 1.0),
        ("jitter", 1.5), ("demand_cap", 0), ("time_scale", 0.0), ("isolated_hours", -1.0)])
    def test_specs_that_cannot_generate_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TraceSpec(num_jobs=4, arrival="poisson", **{field: value})


def per_job_trace(spec, config):
    """generate_trace as it drew each job's values: two choice and two uniform calls a job."""
    rng = np.random.default_rng(spec.seed)
    ratios = np.asarray(spec.mix, dtype=float)
    demands, demand_probs = demand_weights(config, spec.demand_cap, spec.demand_profile)
    if spec.arrival == "poisson":
        arrivals = np.cumsum(rng.exponential(1.0 / spec.arrival_rate, size=spec.num_jobs))
        arrivals[0] = 0.0
    else:
        arrivals = np.zeros(spec.num_jobs)
    lo, hi = 1.0 - spec.jitter, 1.0 + spec.jitter
    jobs = []
    for k in range(spec.num_jobs):
        model = MODEL_ORDER[rng.choice(len(MODEL_ORDER), p=ratios / ratios.sum())]
        demand = int(demands[rng.choice(len(demands), p=demand_probs)])
        base = DEFAULT_PROFILES[model]
        profile = ModelProfile(model_class=model,
                               avg_bandwidth=base.avg_bandwidth * rng.uniform(lo, hi),
                               comm_comp_ratio=base.comm_comp_ratio * rng.uniform(lo, hi),
                               comm_pattern=base.comm_pattern)
        jobs.append(JobSpec(id=k, gpu_demand=demand,
                            total_samples=IDEAL_THROUGHPUT * spec.isolated_runtime,
                            arrival_time=float(arrivals[k]), profile=profile,
                            isolated_runtime=spec.isolated_runtime))
    return jobs


@pytest.mark.parametrize("shape", [(4, 8), (2, 4), (16, 8), (3, 5)])
@pytest.mark.parametrize("arrival", ["all-at-zero", "poisson"])
def test_trace_draws_match_one_draw_per_call(shape, arrival):
    config = ClusterConfig(num_nodes=shape[0], gpus_per_node=shape[1])
    for mix, jitter, profile, seed in itertools.product(
            [*MIX_PRESETS.values(), (0.5, 2.0, 1.0, 3.5, 0.25, 1.0)], [0.0, 0.2, 0.7],
            ["small-skew", "uniform"], [0, 7, 12345]):
        spec = TraceSpec(num_jobs=40, mix=mix, seed=seed, jitter=jitter, demand_profile=profile,
                         arrival=arrival, arrival_rate=0.3)
        assert generate_trace(spec, config) == per_job_trace(spec, config)


class TestDemandDistribution:
    def test_sampled_demands_in_range(self):
        values = [job.gpu_demand for job in generate_trace(TraceSpec(num_jobs=300, seed=1))]
        assert all(1 <= v <= 32 for v in values)
        feasible = set(feasible_demands(CFG))
        assert set(values) <= feasible

    def test_24_is_expressible_and_sampled_under_uniform(self):
        # 24 = 6 * 2^2: six GPUs on each of four nodes
        assert (2, 6) in demand_shapes(CFG, 24)
        demands, probs = demand_weights(CFG, profile="uniform")
        assert probs[demands.index(24)] > 0
        trace = generate_trace(TraceSpec(num_jobs=2000, seed=2, demand_profile="uniform"))
        assert 24 in {job.gpu_demand for job in trace}

    def test_18_not_feasible(self):
        # 18 = 9 * 2: nine GPUs per node exceeds the 8-GPU nodes
        assert demand_shapes(CFG, 18) == ()
        assert 18 not in feasible_demands(CFG)

    def test_weights_sum_to_one(self):
        for profile in ("small-skew", "uniform"):
            _, probs = demand_weights(CFG, profile=profile)
            assert probs.sum() == pytest.approx(1.0)

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            demand_weights(CFG, profile="zipf")


class TestAdvance:
    def test_exact_boundary_finish(self):
        state = make_state(total=600.0, runtime=60.0)
        active = advance(state, dt=60.0, throughput=10.0, now=0.0)
        assert state.finish_time is not None
        assert state.finish_time == 60.0
        assert active == 60.0

    def test_dt_zero_identity(self):
        state = make_state()
        before = (state.samples_done, state.attained_service)
        assert advance(state, 0.0, 10.0, now=5.0) == 0.0
        assert (state.samples_done, state.attained_service) == before

    def test_isolated_runtime_jct(self):
        state = make_state(total=36000.0, runtime=3600.0)
        advance(state, 3600.0, 10.0, now=0.0)
        assert state.jct == 3600.0

    def test_mid_interval_crossing(self):
        state = make_state(total=100.0, runtime=60.0)
        state.samples_done = 95.0
        active = advance(state, 1.0, 10.0, now=7.0)
        assert state.finish_time is not None
        assert state.finish_time == pytest.approx(7.5)
        assert active == pytest.approx(0.5)

    def test_restore_penalty_burns_first(self):
        state = make_state(total=100.0)
        state.restore_remaining = 2.0
        advance(state, 1.0, 10.0, now=0.0)
        assert state.samples_done == 0.0
        assert state.restore_remaining == 1.0
        advance(state, 2.0, 10.0, now=1.0)
        assert state.samples_done == pytest.approx(10.0)

    @given(steps=st.lists(st.tuples(st.floats(0, 20), st.floats(0.1, 50)), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_samples_monotone_and_capped(self, steps):
        state = make_state(total=500.0)
        t, prev = 0.0, 0.0
        for dt, thr in steps:
            if state.finish_time is not None:
                break
            advance(state, dt, thr, now=t)
            t += dt
            assert state.samples_done >= prev
            assert state.samples_done <= state.spec.total_samples
            prev = state.samples_done
        assert (state.finish_time is not None) == (
            state.samples_done == state.spec.total_samples)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        spec = TraceSpec(num_jobs=16, seed=11)
        jobs = generate_trace(spec)
        path = tmp_path / "trace.txt"
        write_trace(jobs, spec, path)
        loaded = read_trace(path)
        assert loaded == jobs
        header = path.read_text().splitlines()[0].split()
        assert header[:2] == ["#", "trace"]
        assert {"seed=11", "mix=1:1:1:1:1:1", "ideal_throughput=10.0"} <= set(header)
        assert all(j.ideal_throughput == IDEAL_THROUGHPUT for j in loaded)

    def test_byte_identical_for_same_spec(self, tmp_path):
        spec = TraceSpec(num_jobs=16, seed=11)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_trace(generate_trace(spec), spec, a)
        write_trace(generate_trace(spec), spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id=0 model=LM demand=oops total_samples=1 arrival=0 "
                        "isolated_runtime=60 avg_bandwidth=1 comm_comp_ratio=1 "
                        "comm_pattern=AllReduce\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace(path)

    @pytest.mark.parametrize("field,value", [
        ("total_samples", "-5"), ("total_samples", "0"), ("arrival", "nan"), ("arrival", "inf"),
        ("arrival", "-inf"), ("isolated_runtime", "0"), ("isolated_runtime", "-60"),
        ("avg_bandwidth", "-3"), ("comm_comp_ratio", "0")])
    def test_job_values_that_cannot_run_report_line(self, tmp_path, field, value):
        """Each rejected value names its line; the first job line stays good."""
        spec = TraceSpec(num_jobs=2, seed=11)
        path = tmp_path / "trace.txt"
        write_trace(generate_trace(spec), spec, path)
        header, good, bad = path.read_text().splitlines()
        bad = re.sub(rf"\b{field}=\S+", f"{field}={value}", bad)
        path.write_text("\n".join((header, good, bad)) + "\n")
        with pytest.raises(TraceParseError, match=f"line 3: .*{field}"):
            read_trace(path)

    def test_parse_mix(self):
        assert parse_mix("heavy") == MIX_PRESETS["heavy"]
        assert parse_mix("1:2:3:4:5:6") == (1, 2, 3, 4, 5, 6)
        with pytest.raises(ConfigError):
            parse_mix("1:2:3")


def test_shuffle_preserves_multiset():
    jobs = generate_trace(TraceSpec(num_jobs=32, seed=0))
    shuffled = shuffle_arrival_order(jobs, np.random.default_rng(5))
    assert sorted(j.id for j in shuffled) == sorted(j.id for j in jobs)
    assert shuffled != jobs
