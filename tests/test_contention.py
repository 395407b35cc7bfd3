import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consched import contention
from consched.cluster import ClusterConfig, Placement
from consched.contention import (ContentionParams, DEFAULT_PROFILES,
                                 ModelClass, ModelProfile, CommPattern,
                                 calibrated_cs, contention_sensitivity,
                                 default_cs_table, load_cs_table, write_cs_table,
                                 feasible_shapes)
from consched.engine import EpisodeConfig, default_contention_params, run_episode
from consched.errors import ConfigError, TraceParseError
from consched.policies import make_policy
from consched.workload import MIX_PRESETS, TraceSpec, generate_trace

CFG = ClusterConfig()
SYNTH = ContentionParams(mode="synthetic")


def profile(bw, ratio, model=ModelClass.LM):
    return ModelProfile(model_class=model, avg_bandwidth=bw, comm_comp_ratio=ratio,
                        comm_pattern=CommPattern.ALL_REDUCE)


def block_max(table, target_model, coloc_model):
    """Max CS of table over every shape pair of one (target, coloc) model pair."""
    return max(value for ((target, _), (coloc, _)), value in table.items()
               if target is target_model and coloc is coloc_model)


def brute_force_cs(target, others, config):
    """Independent oracle: accumulate per-node demand with explicit loops.

    Mirrors the documented model (per-node demand = bandwidth / node count;
    nodes with any inter-node traffic judged against the link bandwidth,
    all-internal nodes against the bus) without sharing code paths with
    the implementation's dict bookkeeping.
    """
    t_profile, t_placement = target
    sharing = [(p, pl) for p, pl in others
               if set(pl.nodes) & set(t_placement.nodes)]
    if not sharing:
        return 1.0
    everyone = [target] + list(others)
    worst = 1.0
    for node in t_placement.nodes:
        demand = 0.0
        any_multi = len(t_placement.nodes) > 1
        for p, pl in everyone:
            if node in pl.nodes:
                demand += p.avg_bandwidth / len(pl.nodes)
                if len(pl.nodes) > 1:
                    any_multi = True
        if any_multi:
            s = demand / config.inter_node_bandwidth
        else:
            s = demand / config.intra_node_bandwidth
        worst = max(worst, s, 1.0)
    f = t_profile.comm_comp_ratio / (1.0 + t_profile.comm_comp_ratio)
    return 1.0 + f * (worst - 1.0)


class TestSyntheticMode:
    def test_isolated_job_is_exactly_one(self):
        job = (profile(2000, 5), Placement(nodes=(0, 1), gpus_per_node_used=4))
        other = (profile(2000, 5), Placement(nodes=(2, 3), gpus_per_node_used=4))
        assert contention_sensitivity(job, [other], SYNTH, CFG) == 1.0
        assert contention_sensitivity(job, [], SYNTH, CFG) == 1.0

    def test_closed_form_half_comm_double_demand(self):
        # f = 0.5 (ratio 1) and per-node demand exactly twice the link:
        # two 2-node jobs on the same nodes, each with bw = link rate.
        bw = CFG.inter_node_bandwidth
        job = (profile(2 * bw, 1.0), Placement(nodes=(0, 1), gpus_per_node_used=2))
        other = (profile(2 * bw, 1.0), Placement(nodes=(0, 1), gpus_per_node_used=2))
        cs = contention_sensitivity(job, [other], SYNTH, CFG)
        assert cs == pytest.approx(1.5)  # 1 + 0.5 * (2 - 1), from Eq. form
        assert cs == pytest.approx(brute_force_cs(job, [other], CFG))

    def test_matches_brute_force_oracle_on_fixed_scenario(self):
        jobs = [
            (profile(2672.40, 7.32, ModelClass.FSDP), Placement(nodes=(0, 1), gpus_per_node_used=4)),
            (profile(929.48, 13.79, ModelClass.MoE), Placement(nodes=(1, 2), gpus_per_node_used=2)),
            (profile(854.82, 1.87, ModelClass.LM), Placement(nodes=(1,), gpus_per_node_used=2)),
        ]
        for k, target in enumerate(jobs):
            others = [j for i, j in enumerate(jobs) if i != k]
            assert contention_sensitivity(target, others, SYNTH, CFG) == pytest.approx(
                brute_force_cs(target, others, CFG))

    def test_no_oversubscription_no_penalty(self):
        job = (profile(100, 3), Placement(nodes=(0, 1), gpus_per_node_used=2))
        other = (profile(100, 3), Placement(nodes=(0, 1), gpus_per_node_used=2))
        assert contention_sensitivity(job, [other], SYNTH, CFG) == 1.0

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounds_identity_and_monotonicity(self, data):
        def random_job(draw):
            bw = draw(st.floats(10, 5000))
            ratio = draw(st.floats(0.1, 15))
            width = draw(st.sampled_from([1, 1, 2, 4]))
            nodes = tuple(sorted(draw(st.permutations(range(4)))[:width]))
            j = draw(st.integers(1, 8))
            return (profile(bw, ratio), Placement(nodes=nodes, gpus_per_node_used=j))

        target = random_job(data.draw)
        others = [random_job(data.draw) for _ in range(data.draw(st.integers(0, 4)))]
        cs = contention_sensitivity(target, others, SYNTH, CFG)
        assert cs >= 1.0
        shared = any(set(o[1].nodes) & set(target[1].nodes) for o in others)
        if not shared:
            assert cs == 1.0
        if cs > 1.0:
            assert shared
        assert cs == pytest.approx(brute_force_cs(target, others, CFG))
        # monotone under an added contender on a shared node
        extra = (profile(3000, 10), Placement(nodes=target[1].nodes[:1], gpus_per_node_used=1))
        assert contention_sensitivity(target, others + [extra], SYNTH, CFG) >= cs - 1e-12


class TestSensitivityValues:
    """CS, which divides a job's ideal throughput each round."""

    def test_one_when_isolated(self):
        job = (profile(500, 2), Placement(nodes=(0,), gpus_per_node_used=4))
        assert contention_sensitivity(job, [], SYNTH, CFG) == 1.0

    def test_two_in_engineered_table(self):
        bw = 3 * CFG.inter_node_bandwidth
        # engineered so CS is exactly 2: f = 1? impossible; use table
        table = {((ModelClass.LM, (0, 4)), (ModelClass.LM, (0, 2))): 2.0}
        params = ContentionParams(mode="table", table=table)
        job = (profile(bw, 2), Placement(nodes=(0,), gpus_per_node_used=4))
        other = (profile(bw, 2), Placement(nodes=(0,), gpus_per_node_used=2))
        assert contention_sensitivity(job, [other], params, CFG) == 2.0

    @given(bw=st.floats(10, 5000), ratio=st.floats(0.1, 15))
    @settings(max_examples=50, deadline=None)
    def test_finite_and_at_least_one(self, bw, ratio):
        job = (profile(bw, ratio), Placement(nodes=(0, 1), gpus_per_node_used=2))
        other = (profile(bw, ratio), Placement(nodes=(0, 1), gpus_per_node_used=2))
        cs = contention_sensitivity(job, [other], SYNTH, CFG)
        assert 1.0 <= cs < float("inf")


class TestDefaultTable:
    def test_published_extremes_exact(self):
        table = default_cs_table()
        assert block_max(table, ModelClass.FSDP, ModelClass.MoE) == 1.96
        assert block_max(table, ModelClass.MoE, ModelClass.FSDP) == 3.00
        assert block_max(table, ModelClass.FSDP, ModelClass.IMG) == 1.35
        assert block_max(table, ModelClass.IMG, ModelClass.FSDP) == 1.43

    def test_all_entries_at_least_one(self):
        table = default_cs_table()
        assert all(v >= 1.0 for v in table.values())

    def test_asymmetry(self):
        table = default_cs_table()
        a = table[(ModelClass.FSDP, (0, 4)), (ModelClass.MoE, (0, 4))]
        b = table[(ModelClass.MoE, (0, 4)), (ModelClass.FSDP, (0, 4))]
        assert a != b

    def test_covers_all_feasible_shape_pairs(self):
        table = default_cs_table()
        shapes = feasible_shapes(CFG)
        assert len(table) == 36 * len(shapes) ** 2

    def test_degradation_matches_published_percentages(self):
        # 1 - 1/CS within 0.5 percentage points of the published 49.1/66.7
        assert abs((1 - 1 / 1.96) * 100 - 49.1) < 0.5
        assert abs((1 - 1 / 3.00) * 100 - 66.7) < 0.5


def no_synthetic(*_):
    raise AssertionError("the default calibration fell back to the synthetic model")


class TestCalibration:
    """The default mode evaluates the shipped calibration per pair (calibrated_cs)."""

    def test_4x8_table_equals_default_lookup_bit_for_bit(self):
        table = default_cs_table()  # fills the cache, which the lookups below read
        closed_form = calibrated_cs.__wrapped__
        assert all(calibrated_cs(*key).hex() == closed_form(*key).hex() == value.hex()
                   for key, value in table.items())

    def test_default_params_are_table_mode_over_the_calibration(self):
        assert ContentionParams() == default_contention_params() == EpisodeConfig().contention
        assert (ContentionParams().mode, ContentionParams().table) == ("table", None)

    @pytest.mark.parametrize("config,digest", [
        (None, "9aa61857cfceb2321f09c481512d3374595d3d3a7eb3e19aca15ec22de1839d9"),
        (ClusterConfig(num_nodes=2, gpus_per_node=4),
         "3ba78ad474523e181609cd782d4d8a8d88911f5c79f72a0f288ce012da0fb1f7"),
    ])
    def test_shipped_tables_are_pinned(self, config, digest, tmp_path):
        """The 4x8 and 2x4 tables, written with repr'd floats, keep their bytes."""
        path = tmp_path / "table.csv"
        write_cs_table(default_cs_table(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("nodes", [8, 16])
    def test_default_mode_equals_table_built_for_the_cluster(self, nodes, monkeypatch):
        config = ClusterConfig(num_nodes=nodes)
        table = ContentionParams(mode="table", table=default_cs_table(config))
        default = default_contention_params()
        monkeypatch.setattr(contention, "_synthetic_cs", no_synthetic)
        placed = [Placement(nodes=tuple(range(2 ** i)), gpus_per_node_used=j)
                  for i, j in feasible_shapes(config)]
        for tm in ModelClass:
            for cm in ModelClass:
                for tp in placed:
                    target = (DEFAULT_PROFILES[tm], tp)
                    for cp in placed:
                        coloc = [(DEFAULT_PROFILES[cm], cp)]
                        got = contention_sensitivity(target, coloc, default, config)
                        assert got == contention_sensitivity(target, coloc, table, config)

    def test_16_node_episode_never_reaches_the_synthetic_model(self, monkeypatch):
        """SRTF spreads some jobs over 8 nodes here, a shape no 4-node table holds."""
        trace = generate_trace(TraceSpec(num_jobs=64, mix=MIX_PRESETS["heavy"], seed=1))
        monkeypatch.setattr(contention, "_synthetic_cs", no_synthetic)
        report = run_episode(make_policy("srtf"), trace, EpisodeConfig(),
                             ClusterConfig(num_nodes=16))
        assert report.aggregates["mean_cs"] > 1.0


class TestTableMode:
    def test_worst_case_lookup_through_contention_sensitivity(self):
        params = ContentionParams(mode="table", table=default_cs_table())
        fsdp = DEFAULT_PROFILES[ModelClass.FSDP]
        moe = DEFAULT_PROFILES[ModelClass.MoE]
        target = (fsdp, Placement(nodes=(0,), gpus_per_node_used=4))
        coloc = (moe, Placement(nodes=(0,), gpus_per_node_used=4))
        assert contention_sensitivity(target, [coloc], params, CFG) == 1.96
        assert contention_sensitivity(coloc, [target], params, CFG) == 3.00

    def test_pairwise_max_combination(self):
        table = {((ModelClass.LM, (0, 2)), (ModelClass.LM, (0, 2))): 1.3,
                 ((ModelClass.LM, (0, 2)), (ModelClass.GNN, (0, 2))): 1.1}
        params = ContentionParams(mode="table", table=table)
        target = (profile(100, 1, ModelClass.LM), Placement(nodes=(0,), gpus_per_node_used=2))
        lm = (profile(100, 1, ModelClass.LM), Placement(nodes=(0,), gpus_per_node_used=2))
        gnn = (profile(100, 1, ModelClass.GNN), Placement(nodes=(0,), gpus_per_node_used=2))
        assert contention_sensitivity(target, [lm, gnn], params, CFG) == 1.3

    def test_partial_table_overrides_its_pair_and_calibration_gives_the_rest(self, monkeypatch):
        fsdp, moe = (ModelClass.FSDP, (0, 4)), (ModelClass.MoE, (3, 2))
        params = ContentionParams(mode="table", table={(fsdp, moe): 1.25})
        monkeypatch.setattr(contention, "_synthetic_cs", no_synthetic)
        target = (DEFAULT_PROFILES[ModelClass.FSDP], Placement(nodes=(0,), gpus_per_node_used=4))
        coloc = (DEFAULT_PROFILES[ModelClass.MoE], Placement(nodes=tuple(range(8)),
                                                             gpus_per_node_used=2))
        config = ClusterConfig(num_nodes=8)
        assert contention_sensitivity(target, [coloc], params, config) == 1.25
        assert contention_sensitivity(coloc, [target], params, config) == calibrated_cs(moe, fsdp)
        assert calibrated_cs(moe, fsdp) > 1.0

    def test_no_shared_node_short_circuits_table(self):
        params = ContentionParams(mode="table", table=default_cs_table())
        fsdp = DEFAULT_PROFILES[ModelClass.FSDP]
        moe = DEFAULT_PROFILES[ModelClass.MoE]
        target = (fsdp, Placement(nodes=(0,), gpus_per_node_used=4))
        coloc = (moe, Placement(nodes=(1,), gpus_per_node_used=4))
        assert contention_sensitivity(target, [coloc], params, CFG) == 1.0


class TestOffMode:
    def test_every_cs_is_one(self):
        fsdp, moe = DEFAULT_PROFILES[ModelClass.FSDP], DEFAULT_PROFILES[ModelClass.MoE]
        shared = Placement(nodes=(0,), gpus_per_node_used=4)
        assert contention_sensitivity((fsdp, shared), [(moe, shared)],
                                      ContentionParams(mode="off"), CFG) == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown contention mode"):
            ContentionParams(mode="none")


class TestTableIO:
    def test_roundtrip(self, tmp_path):
        table = default_cs_table()
        path = tmp_path / "table.csv"
        write_cs_table(table, path)
        loaded = load_cs_table(path)
        assert loaded == table

    def test_row_shape_convention(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("FSDP,2,4,MoE,2,4,1.96\n")
        table = load_cs_table(path)
        assert table == {((ModelClass.FSDP, (1, 4)), (ModelClass.MoE, (1, 4))): 1.96}

    def test_empty_file_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n\n")
        assert load_cs_table(path) == {}

    def test_value_below_one_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("FSDP,2,4,MoE,2,4,0.9\n")
        with pytest.raises(TraceParseError, match="line 1"):
            load_cs_table(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("FSDP,2,4\n")
        with pytest.raises(TraceParseError, match="line 1"):
            load_cs_table(path)

    @pytest.mark.parametrize("row", ["FSDP,2,4,MoE,2,4,nan", "FSDP,2,4,MoE,2,4,inf",
                                     "FSDP,2,0,MoE,2,4,1.5", "FSDP,2,4,MoE,2,-2,1.5"])
    def test_non_finite_value_or_gpu_count_below_one_rejected_with_line(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"FSDP,1,4,MoE,1,4,1.5\n{row}\n")
        with pytest.raises(TraceParseError, match="line 2"):
            load_cs_table(path)

    @pytest.mark.parametrize("row", ["FSDP,1,4,MoE,1,4,nan", "FSDP,1,4,MoE,1,4,inf",
                                     "FSDP,1,0,MoE,1,4,1.5", "FSDP,1,4,MoE,0,4,1.5"])
    def test_rejects_non_finite_value_or_bad_shape_after_comments(self, row, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(f"# header\n\nFSDP,1,4,MoE,1,4,1.5  # fine\n{row}\n")
        with pytest.raises(TraceParseError, match="line 4"):
            load_cs_table(path)

    def test_non_power_of_two_nodes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("FSDP,3,4,MoE,2,4,1.5\n")
        with pytest.raises(TraceParseError):
            load_cs_table(path)
