import pytest

from consched.cli import main
from consched.config import merge_config, output_root, parse_config_file
from consched.errors import ConfigError
from consched.workload import read_trace


def run(argv):
    return main(argv)


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    assert run(["gen-trace", "--mix", "normal", "--jobs", "12", "--seed", "5",
                "--out", str(path)]) == 0
    return path


class TestGenTrace:
    def test_writes_jobs(self, trace_file):
        jobs, header = read_trace(trace_file)
        assert len(jobs) == 12
        assert header["seed"] == "5"

    def test_byte_identical_repeat(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run(["gen-trace", "--mix", "heavy", "--jobs", "16",
                        "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heavy_mix_fraction(self, tmp_path):
        path = tmp_path / "t.txt"
        run(["gen-trace", "--mix", "heavy", "--jobs", "600", "--seed", "7",
             "--out", str(path)])
        jobs, _ = read_trace(path)
        frac = sum(1 for j in jobs if j.model_class.value in ("FSDP", "MoE")) / 600
        assert abs(frac - 2 / 3) < 0.06

    def test_zero_jobs_usage_error(self, tmp_path):
        assert run(["gen-trace", "--jobs", "0", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_mix_usage_error(self, tmp_path, capsys):
        assert run(["gen-trace", "--mix", "spicy", "--jobs", "4",
                    "--out", str(tmp_path / "x")]) == 2
        assert "normal" in capsys.readouterr().err

    def test_zero_nodes_usage_error(self, tmp_path, capsys):
        assert run(["gen-trace", "--jobs", "4", "--nodes", "0",
                    "--out", str(tmp_path / "x")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_ratio_mix(self, tmp_path):
        path = tmp_path / "t.txt"
        assert run(["gen-trace", "--mix", "1:1:1:1:4:4", "--jobs", "8",
                    "--seed", "1", "--out", str(path)]) == 0


class TestTrain:
    def test_train_writes_checkpoint_and_curves(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["train", "--trace", str(trace_file), "--branch", "B",
                    "--episodes", "2", "--seed", "1", "--name", "tiny",
                    "--out-dir", str(out)]) == 0
        assert (out / "checkpoints" / "tiny.ckpt").exists()
        curves = (out / "checkpoints" / "tiny_curves.csv").read_text()
        assert "mean_reward" in curves
        assert len([l for l in curves.splitlines() if not l.startswith("#")]) == 3

    def test_branch_e_sets_w1(self, trace_file, tmp_path):
        from consched.rl.checkpoint import load_checkpoint
        out = tmp_path / "out"
        run(["train", "--trace", str(trace_file), "--branch", "E",
             "--episodes", "1", "--name", "e", "--out-dir", str(out)])
        _, meta = load_checkpoint(out / "checkpoints" / "e.ckpt")
        assert meta["w1"] == 0.7

    def test_w1_flag_implies_w2(self, trace_file, tmp_path):
        from consched.rl.checkpoint import load_checkpoint
        out = tmp_path / "out"
        run(["train", "--trace", str(trace_file), "--w1", "0.4",
             "--episodes", "1", "--name", "w", "--out-dir", str(out)])
        _, meta = load_checkpoint(out / "checkpoints" / "w.ckpt")
        assert meta["w1"] == 0.4

    def test_invalid_w1(self, trace_file, tmp_path):
        assert run(["train", "--trace", str(trace_file), "--w1", "1.5",
                    "--out-dir", str(tmp_path)]) == 2

    def test_inconsistent_w1_w2(self, trace_file, tmp_path):
        assert run(["train", "--trace", str(trace_file), "--w1", "0.4",
                    "--w2", "0.7", "--out-dir", str(tmp_path)]) == 2

    def test_cluster_beyond_action_space_usage_error(self, trace_file, tmp_path, capsys):
        assert run(["train", "--trace", str(trace_file), "--nodes", "32",
                    "--episodes", "1", "--out-dir", str(tmp_path)]) == 2
        assert "node subsets" in capsys.readouterr().err

    def test_checkpoint_deterministic(self, trace_file, tmp_path):
        paths = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["train", "--trace", str(trace_file), "--episodes", "2",
                 "--seed", "3", "--name", "p", "--out-dir", str(out)])
            paths.append(out / "checkpoints" / "p.ckpt")
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEval:
    def test_eval_greedy_writes_reports(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--policy", "greedy", "--trace", str(trace_file),
                    "--name", "e1", "--out-dir", str(out)]) == 0
        base = out / "reports" / "e1"
        for name in ("summary.txt", "manifest.txt"):
            assert (base / name).exists()
        for name in ("per_job.csv", "per_round.csv", "jct_cdf.csv",
                     "util_hist.csv", "cs_hist.csv", "summary.txt"):
            assert (base / "set00" / name).exists()

    def test_eval_deterministic_bytes(self, trace_file, tmp_path):
        out = tmp_path / "out"
        argv = ["eval", "--policy", "srtf", "--trace", str(trace_file),
                "--name", "e", "--seed", "4", "--out-dir", str(out)]
        run(argv)
        base = out / "reports" / "e"
        first = {rel: (base / rel).read_bytes()
                 for rel in ("summary.txt", "set00/per_job.csv", "set00/jct_cdf.csv")}
        run(argv)  # identical flags: byte-identical outputs
        for rel, blob in first.items():
            assert (base / rel).read_bytes() == blob

    def test_rl_requires_checkpoint(self, trace_file, tmp_path):
        assert run(["eval", "--policy", "rl-base", "--trace", str(trace_file),
                    "--out-dir", str(tmp_path)]) == 2

    def test_missing_trace_file_error(self, tmp_path):
        assert run(["eval", "--policy", "greedy", "--trace",
                    str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)]) == 3

    def test_no_contention_flag(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--policy", "greedy", "--trace", str(trace_file),
                    "--no-contention", "--name", "nc", "--out-dir", str(out)]) == 0
        summary = (out / "reports" / "nc" / "summary.txt").read_text()
        assert "mean_mean_cs = 1.0" in summary

    def test_unknown_policy(self, trace_file, tmp_path):
        assert run(["eval", "--policy", "edf", "--trace", str(trace_file),
                    "--out-dir", str(tmp_path)]) == 2

    def test_state_dump(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--policy", "greedy", "--trace", str(trace_file),
                    "--dump-state-rounds", "2", "--name", "d",
                    "--out-dir", str(out)]) == 0
        assert (out / "reports" / "d" / "state_set00_round0.csv").exists()
        assert (out / "reports" / "d" / "state_set00_round1.csv").exists()

    def test_eval_rl_roundtrip(self, trace_file, tmp_path):
        out = tmp_path / "out"
        run(["train", "--trace", str(trace_file), "--episodes", "1",
             "--name", "p", "--out-dir", str(out)])
        ckpt = out / "checkpoints" / "p.ckpt"
        assert run(["eval", "--policy", "rl-hybrid", "--checkpoint", str(ckpt),
                    "--trace", str(trace_file), "--name", "rl",
                    "--out-dir", str(out)]) == 0


class TestCompare:
    def test_compare_writes_all_outputs(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["compare", "--policies", "greedy,las,srtf",
                    "--trace", str(trace_file), "--name", "c",
                    "--out-dir", str(out)]) == 0
        base = out / "reports" / "c"
        for name in ("comparison.csv", "deltas_pct.csv", "jct_util_scatter.csv",
                     "summary.txt", "manifest.txt"):
            assert (base / name).exists()
        assert (base / "las" / "set00" / "per_job.csv").exists()
        assert "reference deltas" in (base / "summary.txt").read_text()

    def test_single_policy_usage_error(self, trace_file, tmp_path):
        assert run(["compare", "--policies", "greedy",
                    "--trace", str(trace_file), "--out-dir", str(tmp_path)]) == 2

    def test_self_comparison_zero_deltas(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["compare", "--policies", "greedy,greedy",
                    "--trace", str(trace_file), "--name", "s",
                    "--out-dir", str(out)]) == 0
        # duplicate names collapse in dict; the deltas file exists regardless
        assert (out / "reports" / "s" / "deltas_pct.csv").exists()


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nnodes = 2\ngpus_per_node = 4\n")
        values = parse_config_file(cfg)
        merged = merge_config(values, {"nodes": None, "gpus_per_node": 8},
                              {"nodes": 4, "gpus_per_node": 8})
        assert merged["nodes"] == 2  # file beats default
        assert merged["gpus_per_node"] == 8

    def test_cli_beats_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = 2\n")
        merged = merge_config(parse_config_file(cfg), {"nodes": 3}, {"nodes": 4})
        assert merged["nodes"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigError):
            merge_config(parse_config_file(cfg), {}, {"nodes": 4})

    def test_gen_trace_with_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = 2\ngpus_per_node = 2\n")
        path = tmp_path / "t.txt"
        assert run(["gen-trace", "--jobs", "6", "--seed", "1", "--config",
                    str(cfg), "--out", str(path)]) == 0
        jobs, _ = read_trace(path)
        assert all(j.gpu_demand <= 4 for j in jobs)

    def test_output_root_env(self, monkeypatch):
        monkeypatch.setenv("CONSCHED_OUT", "/some/root")
        assert output_root(None) == "/some/root"
        assert output_root("explicit") == "explicit"
        monkeypatch.delenv("CONSCHED_OUT")
        assert output_root(None) == "."
