import argparse
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from consched import engine
from consched.actions import ActionSpace
from consched.cli import _cluster_config, build_parser, main
from consched.cluster import ClusterConfig, demand_shapes
from consched.config import output_root
from consched.contention import default_cs_table, write_cs_table
from consched.encoding import SCORER_FEATURES
from consched.engine import EpisodeConfig, run_episode
from consched.policies import make_policy
from consched.rl.checkpoint import load_checkpoint, save_checkpoint
from consched.rl.train import TrainConfig, make_net
from consched.workload import read_trace
from test_golden import flat, trajectory_rows
from test_rl import write_format_2_checkpoint


def run(argv):
    return main(argv)


def fresh_checkpoint(tmp_path):
    """An untrained seed-0 policy for the default cluster, saved to disk."""
    net, _ = make_net(ClusterConfig(), TrainConfig(seed=0))
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(net, path)
    return path


def read_scorer_csv(path):
    """Inverse of write_scorer_rows: (pooled, header, rows as lists of strings)."""
    comment, header, *rows = path.read_text().splitlines()
    pooled = [float(item.partition("=")[2]) for item in comment.split(": ", 1)[1].split(",")]
    return np.array(pooled), header.split(","), [row.split(",") for row in rows]


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.txt"
    assert run(["gen-trace", "--mix", "normal", "--jobs", "12", "--seed", "5",
                "--out", str(path)]) == 0
    return path


# inputs that cannot work; each is a usage error (exit 2) before any output
BAD_INPUTS = {
    "arrival-rate-0": ["gen-trace", "--arrival", "poisson", "--arrival-rate", "0"],
    "arrival-rate-negative": ["gen-trace", "--arrival", "poisson", "--arrival-rate", "-1"],
    "demand-cap-0": ["gen-trace", "--demand-cap", "0"],
    "jitter-1.5": ["gen-trace", "--jitter", "1.5"],
    "time-scale-0": ["gen-trace", "--time-scale", "0"],
    "negative-restore-penalty": ["eval", "--policy", "srtf", "--restore-penalty", "-30",
                                 "--cs-threshold", "1.2"],
    "episodes-0": ["train", "--episodes", "0"],
    "k-0": ["train", "--k", "0"],
    "negative-lr": ["train", "--lr", "-1"],
    "negative-gamma": ["train", "--gamma", "-3"],
    "negative-entropy-coef": ["train", "--entropy-coef", "-0.5"],
}
# nan and inf pass an order test such as `value <= 0`; they are usage errors too
NON_FINITE = {
    "round-interval": ["eval", "--policy", "las", "--round-interval"],
    "cs-threshold": ["eval", "--policy", "las", "--cs-threshold"],
    "restore-penalty": ["eval", "--policy", "las", "--restore-penalty"],
    "lr": ["train", "--lr"],
    "entropy-coef": ["train", "--entropy-coef"],
    "isolated-hours": ["gen-trace", "--isolated-hours"],
    "time-scale": ["gen-trace", "--time-scale"],
    "arrival-rate": ["gen-trace", "--arrival", "poisson", "--arrival-rate"],
    "inter-bw": ["eval", "--policy", "las", "--contention-mode", "synthetic", "--inter-bw"],
    "intra-bw": ["eval", "--policy", "las", "--contention-mode", "synthetic", "--intra-bw"],
}
BAD_INPUTS.update({f"{name}-{value}": [*argv, value]
                   for name, argv in NON_FINITE.items() for value in ("nan", "inf")})


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_is_a_one_line_usage_error(argv, trace_file, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[0] == "gen-trace":
        argv = [*argv, "--jobs", "8", "--seed", "1", "--out", str(out / "trace.txt")]
    else:
        argv = [argv[0], "--trace", str(trace_file), *argv[1:], "--out-dir", str(out)]
    capsys.readouterr()  # drop the trace_file fixture's output
    assert run(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: "), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def rewrite_trace(path, edit):
    """Apply edit to the trace file's first job line, keeping the other lines."""
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    lines[first] = edit(lines[first])
    path.write_text("\n".join(lines) + "\n")


def run_fast(argv, monkeypatch):
    """run(argv) with MAX_ROUNDS cut, so an episode that cannot finish fails in
    well under a second; returns (exit code, seconds)."""
    monkeypatch.setattr(engine, "MAX_ROUNDS", 20_000)
    start = time.perf_counter()
    code = run(argv)
    return code, time.perf_counter() - start


def assert_one_line_error(capsys, prefix, *parts):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err
    for part in parts:
        assert part in lines[0]


def test_failed_eval_leaves_no_report_directory(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "t8.txt"
    assert run(["gen-trace", "--jobs", "8", "--seed", "1", "--out", str(trace)]) == 0
    out = tmp_path / "out"
    code, seconds = run_fast(["eval", "--policy", "las", "--trace", str(trace),
                              "--round-interval", "1e-6", "--out-dir", str(out)], monkeypatch)
    assert code == 4 and seconds < 1.0
    assert_one_line_error(capsys, "runtime error: ", "episode exceeded 20000 rounds")
    assert not (out / "reports").exists()


def test_failed_train_leaves_no_checkpoint_directory(tmp_path, monkeypatch, capsys):
    trace = tmp_path / "t8.txt"
    assert run(["gen-trace", "--jobs", "8", "--seed", "1", "--out", str(trace)]) == 0
    out = tmp_path / "out"
    code, seconds = run_fast(["train", "--trace", str(trace), "--episodes", "1",
                              "--round-interval", "1e-6", "--out-dir", str(out)], monkeypatch)
    assert code == 4 and seconds < 1.0
    assert_one_line_error(capsys, "runtime error: ", "episode exceeded 20000 rounds")
    assert not out.exists()


# trace edits that leave a file no episode can run: (edit, words the error names)
UNRUNNABLE = {
    "repeated-id": (lambda line: line.replace("id=0 ", "id=1 ", 1), ["line", "job id 1"]),
    "demand-9": (lambda line: re.sub(r"demand=\d+", "demand=9", line),
                 ["job 0", "demands 9", "4 nodes x 8 GPUs"]),
}


def set_field(name, value):
    """An edit that sets the job line's field name to value."""
    return lambda line: re.sub(rf"\b{name}=\S+", f"{name}={value}", line)


# job values read_trace rejects, or that the job's own checks reject, each
# named with its line: the trace's first job is on line 2
for name, value in (("total_samples", "-5"), ("total_samples", "0"), ("arrival", "nan"),
                    ("arrival", "inf"), ("isolated_runtime", "0"), ("avg_bandwidth", "-3"),
                    ("avg_bandwidth", "nan"), ("avg_bandwidth", "inf"),
                    ("comm_comp_ratio", "nan"), ("comm_comp_ratio", "inf")):
    UNRUNNABLE[f"{name}={value}"] = (set_field(name, value), ["line 2", name])
COMMANDS = {
    "eval": ["eval", "--policy", "las"],
    "compare": ["compare", "--policies", "las,srtf"],
    "train": ["train", "--episodes", "1"],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", UNRUNNABLE)
def test_unrunnable_trace_is_a_file_error(case, command, trace_file, tmp_path, monkeypatch,
                                          capsys):
    edit, parts = UNRUNNABLE[case]
    rewrite_trace(trace_file, edit)
    out = tmp_path / "out"
    capsys.readouterr()
    code, seconds = run_fast([*COMMANDS[command], "--trace", str(trace_file),
                              "--out-dir", str(out)], monkeypatch)
    assert code == 3 and seconds < 1.0
    assert_one_line_error(capsys, "file error: ", str(trace_file), *parts)
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_trace_with_no_job_record_is_a_file_error(command, trace_file, tmp_path, capsys):
    """A file of comment lines alone has no job to run."""
    trace_file.write_text("".join(line for line in trace_file.read_text().splitlines(True)
                                  if line.startswith("#")))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*COMMANDS[command], "--trace", str(trace_file), "--out-dir", str(out)]) == 3
    assert_one_line_error(capsys, "file error: ", str(trace_file), "no job record")
    assert not out.exists()


# inputs that exist but cannot be read as text; {dir} is a folder, {bad} a
# trace file with a byte that is not UTF-8, {trace} a good one
EVAL_LAS = ["eval", "--policy", "las", "--out-dir", "{out}", "--trace"]
UNREADABLE = {
    "trace-dir": [*EVAL_LAS, "{dir}"],
    "cs-table-dir": [*EVAL_LAS, "{trace}", "--cs-table", "{dir}"],
    "config-dir": [*EVAL_LAS, "{trace}", "--config", "{dir}"],
    "gen-trace-out-dir": ["gen-trace", "--jobs", "4", "--out", "{dir}"],
    "trace-not-utf-8": [*EVAL_LAS, "{bad}"],
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_is_a_file_error(case, trace_file, tmp_path, capsys):
    paths = {"dir": tmp_path / "folder", "bad": tmp_path / "bad.txt", "trace": trace_file,
             "out": tmp_path / "out"}
    paths["dir"].mkdir()
    paths["bad"].write_bytes(trace_file.read_bytes().replace(b"model=", b"model=\xff", 1))
    capsys.readouterr()
    assert run([arg.format(**paths) for arg in UNREADABLE[case]]) == 3
    named = paths["bad" if "{bad}" in UNREADABLE[case] else "dir"]
    assert_one_line_error(capsys, "file error: ", str(named))
    assert not paths["out"].exists()


# a config file and a CS table that do not parse: (flag, bytes, part of the message)
BAD_FILES = {
    "config-line": ("--config", b"nodes 4\n", "line 1: expected key = value, got 'nodes 4'"),
    "config-not-utf-8": ("--config", b"nodes = 4\xff\n", "can't decode byte 0xff"),
    "cs-table-row": ("--cs-table", b"FSDP,3,4,MoE,1,4,1.5\n",
                     "line 1: node count 3 is not a power of two"),
    "cs-table-not-utf-8": ("--cs-table", b"FSDP,1,4,MoE,1,4,1.5\xff\n",
                           "can't decode byte 0xff"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_a_config_or_cs_table_error_names_the_file(case, trace_file, tmp_path, capsys):
    flag, text, message = BAD_FILES[case]
    path = tmp_path / "input.txt"
    path.write_bytes(text)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(["eval", "--policy", "las", "--trace", str(trace_file), flag, str(path),
                "--out-dir", str(out)]) == 3
    assert_one_line_error(capsys, "file error: ", str(path), message)
    assert not out.exists()


# columns of written CSV files that hold words, not numbers
WORD_COLUMNS = {"policy", "baseline", "model", "nodes"}
POINT_FILES = {"jct_cdf.csv", "util_hist.csv", "cs_hist.csv", "jct_util_scatter.csv"}


def test_every_written_cell_is_a_plain_number(trace_file, tmp_path):
    """Each data cell of each CSV and point file the commands write parses
    with float(), but for the word columns and a skip row's blank placement."""
    out = tmp_path / "out"
    ckpt = fresh_checkpoint(tmp_path)
    for argv in (["train", "--episodes", "1", "--name", "t"],
                 ["eval", "--policy", "rl-base", "--checkpoint", str(ckpt),
                  "--dump-state-rounds", "2", "--name", "e"],
                 ["compare", "--policies", "las,srtf,rl-hybrid", "--checkpoint", str(ckpt),
                  "--name", "c"]):
        assert run([*argv, "--trace", str(trace_file), "--out-dir", str(out)]) == 0
    files = sorted(out.rglob("*.csv"))
    assert {path.name for path in files} >= POINT_FILES | {
        "t_curves.csv", "comparison.csv", "deltas_pct.csv", "per_job.csv", "per_round.csv",
        "scorer_set00_round0.csv"}
    for path in files:
        rows = [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")]
        header = [f"x{k}" for k in range(2)] if path.name in POINT_FILES else rows.pop(0)
        assert rows, path
        for row in rows:
            assert len(row) == len(header), path
            cells = dict(zip(header, row))
            skip = cells.get("nodes") == ""  # a scorer file's skip row
            for column, cell in cells.items():
                if column in WORD_COLUMNS or (skip and column == "gpus_per_node"):
                    continue
                float(cell)  # raises on np.float64(...) and on any word


def test_trace_for_larger_nodes_is_a_file_error(tmp_path, monkeypatch, capsys):
    """A uniform-demand trace made for 16-GPU nodes holds demands that the
    default 8-GPU nodes cannot place."""
    trace = tmp_path / "t16.txt"
    assert run(["gen-trace", "--jobs", "16", "--seed", "1", "--gpus-per-node", "16",
                "--demand-profile", "uniform", "--out", str(trace)]) == 0
    jobs = read_trace(trace)
    assert any(not demand_shapes(ClusterConfig(), job.gpu_demand) for job in jobs)
    out = tmp_path / "out"
    capsys.readouterr()
    code, seconds = run_fast(["eval", "--policy", "greedy", "--trace", str(trace),
                              "--out-dir", str(out)], monkeypatch)
    assert code == 3 and seconds < 1.0
    assert_one_line_error(capsys, "file error: ", str(trace), "4 nodes x 8 GPUs")
    assert not out.exists()


@pytest.mark.parametrize("command", [["eval", "--policy", "las"],
                                     ["compare", "--policies", "las,srtf"]],
                         ids=["eval", "compare"])
def test_checkpoint_without_an_rl_policy_is_a_usage_error(command, trace_file, tmp_path,
                                                          capsys):
    """No baseline reads a checkpoint, so naming one is a mistake; the file is
    not opened."""
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*command, "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--trace", str(trace_file), "--out-dir", str(out)]) == 2
    assert_one_line_error(capsys, "usage error: ", "--checkpoint needs an RL policy",
                          command[2])
    assert not out.exists()


class TestGenTrace:
    def test_writes_jobs(self, trace_file):
        assert len(read_trace(trace_file)) == 12
        assert "seed=5" in trace_file.read_text().splitlines()[0].split()

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
        jobs = read_trace(path)
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

    @pytest.mark.parametrize("mix", ["nan:1:1:1:1:1", "inf:1:1:1:1:1", "1e308:1e308:1:1:1:1"])
    def test_non_finite_mix_usage_error(self, mix, tmp_path, capsys):
        """A ratio that is not finite, or ratios whose sum is not, write no file."""
        out = tmp_path / "t.txt"
        assert run(["gen-trace", "--mix", mix, "--jobs", "4", "--out", str(out)]) == 2
        assert "positive finite ratios with a finite sum" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", [["train"], ["eval", "--policy", "las"],
                                         ["compare", "--policies", "las,srtf"]],
                             ids=["train", "eval", "compare"])
    def test_w2_without_w1_is_a_usage_error(self, trace_file, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert run(command + ["--trace", str(trace_file), "--w2", "0.3",
                              "--out-dir", str(out)]) == 2
        assert "--w2 needs --w1" in capsys.readouterr().err
        assert not out.exists()

    def test_branch_with_w1_is_a_usage_error(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--trace", str(trace_file), "--branch", "E", "--w1", "0.3",
                    "--out-dir", str(out)]) == 2
        assert "--branch or --w1/--w2, not both" in capsys.readouterr().err
        assert not out.exists()

    def test_train_and_eval_on_32_nodes(self, tmp_path):
        """Choice lists are capped per width, so RL runs on 32 nodes too."""
        trace = tmp_path / "t32.txt"
        assert run(["gen-trace", "--jobs", "8", "--seed", "3", "--nodes", "32",
                    "--out", str(trace)]) == 0
        out = tmp_path / "out"
        assert run(["train", "--trace", str(trace), "--nodes", "32", "--episodes", "1",
                    "--name", "p32", "--out-dir", str(out)]) == 0
        assert run(["eval", "--policy", "rl-hybrid", "--nodes", "32",
                    "--checkpoint", str(out / "checkpoints" / "p32.ckpt"),
                    "--trace", str(trace), "--name", "e32", "--out-dir", str(out)]) == 0
        assert (out / "reports" / "e32" / "set00" / "per_job.csv").exists()

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

    def test_contention_mode_off(self, trace_file, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--policy", "greedy", "--trace", str(trace_file),
                    "--contention-mode", "off", "--name", "nc", "--out-dir", str(out)]) == 0
        summary = (out / "reports" / "nc" / "summary.txt").read_text()
        assert "mean_mean_cs = 1.0" in summary

    @pytest.mark.parametrize("mode", ["synthetic", "off"])
    def test_cs_table_with_a_non_table_mode_is_a_usage_error(self, mode, trace_file, tmp_path,
                                                             capsys):
        table = tmp_path / "cs_table.csv"
        write_cs_table(default_cs_table(), table)
        out = tmp_path / "out"
        assert run(["eval", "--policy", "las", "--trace", str(trace_file),
                    "--cs-table", str(table), "--contention-mode", mode,
                    "--out-dir", str(out)]) == 2
        assert ("--cs-table gives table-mode values; it cannot go with "
                f"--contention-mode {mode}") in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_4x8_table_file_on_8_nodes_matches_the_default(self, tmp_path):
        """The file lacks the 8-node shapes; the calibration gives those pairs."""
        trace, table, out = tmp_path / "t.txt", tmp_path / "cs_table.csv", tmp_path / "out"
        assert run(["gen-trace", "--jobs", "64", "--seed", "1", "--mix", "heavy",
                    "--nodes", "8", "--demand-cap", "64", "--out", str(trace)]) == 0
        write_cs_table(default_cs_table(), table)
        rows = []
        for name, extra in (("calibration", []), ("file", ["--cs-table", str(table)])):
            assert run(["eval", "--policy", "srtf", "--nodes", "8", "--trace", str(trace),
                        *extra, "--name", name, "--out-dir", str(out)]) == 0
            text = (out / "reports" / name / "set00" / "per_job.csv").read_text()
            rows.append([line for line in text.splitlines() if not line.startswith("#")])
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("row", ["FSDP,1,4,MoE,1,4,nan", "FSDP,1,4,MoE,1,4,inf",
                                     "FSDP,1,0,MoE,1,4,1.5", "FSDP,1,4,MoE,1,-2,1.5"])
    def test_cs_table_with_a_bad_value_is_a_parse_error(self, row, trace_file, tmp_path, capsys):
        table = tmp_path / "cs_table.csv"
        table.write_text(f"# header\n{row}\n")
        out = tmp_path / "out"
        assert run(["eval", "--policy", "las", "--trace", str(trace_file),
                    "--cs-table", str(table), "--out-dir", str(out)]) == 3
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_policy(self, trace_file, tmp_path):
        assert run(["eval", "--policy", "edf", "--trace", str(trace_file),
                    "--out-dir", str(tmp_path)]) == 2

    def test_state_dump(self, trace_file, tmp_path):
        out = tmp_path / "out"
        ckpt = fresh_checkpoint(tmp_path)
        assert run(["eval", "--policy", "rl-base", "--checkpoint", str(ckpt),
                    "--trace", str(trace_file), "--dump-state-rounds", "2", "--name", "d",
                    "--out-dir", str(out)]) == 0
        dumps = sorted((out / "reports" / "d").glob("scorer_set00_round*.csv"))
        assert len(dumps) == 2
        # the scorer rows of the episode's first two decisions with a window
        net, _ = load_checkpoint(ckpt)
        policy = make_policy("rl-base", net=net, action_space=ActionSpace(ClusterConfig()))
        trace = read_trace(trace_file)
        report = run_episode(policy, trace, EpisodeConfig(), rng=np.random.default_rng([0, 0]),
                             record_trajectory=True)
        scored, seen = [], set()
        for r, (step, _, _) in enumerate(trajectory_rows(report.rounds)):
            if step.pooled is not None and id(step) not in seen:
                seen.add(id(step))
                scored.append((r, step))
        assert [path.name for path in dumps] == sorted(
            f"scorer_set00_round{r}.csv" for r, _ in scored[:2])
        for r, step in scored[:2]:
            pooled, header, rows = read_scorer_csv(
                out / "reports" / "d" / f"scorer_set00_round{r}.csv")
            assert header == ["head", "choice", "nodes", "gpus_per_node", "verdict", "chosen",
                              *SCORER_FEATURES]
            fields = flat(step)
            assert np.array_equal(pooled, fields["pooled"])
            # one row per (head, choice), in that order, skip last in each head
            listed = [(head, choice, placement)
                      for head, choices in enumerate(step.choices)
                      for choice, placement in enumerate([*choices, None])]
            assert [(int(row[0]), int(row[1])) for row in rows] == [h[:2] for h in listed]
            assert [row[2:4] for row in rows] == [
                ["-".join(map(str, p.nodes)), str(p.gpus_per_node_used)] if p else ["", ""]
                for *_, p in listed]
            values = np.array([[float(v) for v in (row[4], *row[6:])] for row in rows])
            assert np.array_equal(values[:, 0], fields["verdicts"])
            assert np.array_equal(values[:, 1:], fields["features"])
            assert [int(row[5]) for row in rows] == [int(step.chosen[h] == c) for h, c, _ in listed]
        # recording the states leaves the episode as it is
        assert run(["eval", "--policy", "rl-base", "--checkpoint", str(ckpt),
                    "--trace", str(trace_file), "--name", "plain", "--out-dir", str(out)]) == 0
        for name in ("per_job.csv", "per_round.csv"):
            dumped, plain = ([line for line in (out / "reports" / exp / "set00" / name)
                              .read_text().splitlines() if not line.startswith("#")]
                             for exp in ("d", "plain"))
            assert dumped == plain

    def test_state_dump_chosen_rows_are_the_applied_placements(self, trace_file, tmp_path):
        """Each dumped round's chosen rows name the placements the episode
        applied that round, and their jobs start at that round."""
        out = tmp_path / "out"
        ckpt = fresh_checkpoint(tmp_path)
        assert run(["eval", "--policy", "rl-base", "--checkpoint", str(ckpt),
                    "--trace", str(trace_file), "--dump-state-rounds", "3", "--name", "d",
                    "--out-dir", str(out)]) == 0
        # the same episode in process, keeping what each decide returned
        net, _ = load_checkpoint(ckpt)
        policy = make_policy("rl-base", net=net, action_space=ActionSpace(ClusterConfig()))
        applied, decide = {}, policy.decide

        def recording(*args):
            action = decide(*args)
            applied[id(action.rl)] = action.placements
            return action

        policy.decide = recording
        trace = read_trace(trace_file)
        report = run_episode(policy, trace, EpisodeConfig(), rng=np.random.default_rng([0, 0]),
                             record_trajectory=True)
        rounds = {first: (record, step) for record, first, _, step, _ in report.rounds.runs}
        starts = {job.id: job.start for job in report.jobs}
        dumps = sorted((out / "reports" / "d").glob("scorer_set00_round*.csv"))
        assert len(dumps) == 3
        for path in dumps:
            record, step = rounds[int(path.stem.rpartition("round")[2])]
            _, _, rows = read_scorer_csv(path)
            chosen = [row[2:4] for row in rows if row[5] == "1" and row[2]]
            placements = applied[id(step)]
            assert chosen and chosen == [["-".join(map(str, p.nodes)), str(p.gpus_per_node_used)]
                                         for _, p in placements]
            assert all(starts[jid] == record.time for jid, _ in placements)

    def test_format_2_checkpoint_is_a_file_error(self, trace_file, tmp_path, capsys):
        ckpt = tmp_path / "old.ckpt"
        write_format_2_checkpoint(ckpt)
        out = tmp_path / "out"
        assert run(["eval", "--policy", "rl-base", "--checkpoint", str(ckpt),
                    "--trace", str(trace_file), "--out-dir", str(out)]) == 3
        assert_one_line_error(capsys, "file error: ", "format version 2", "format version 3")
        assert not out.exists()

    def test_4x8_checkpoint_evaluates_on_8_nodes(self, trace_file, tmp_path):
        """The architecture names no cluster shape, so a checkpoint runs on any."""
        out = tmp_path / "out"
        assert run(["eval", "--policy", "rl-hybrid", "--checkpoint",
                    str(fresh_checkpoint(tmp_path)), "--nodes", "8", "--trace",
                    str(trace_file), "--name", "n8", "--out-dir", str(out)]) == 0
        assert (out / "reports" / "n8" / "set00" / "per_job.csv").exists()

    def test_state_dump_needs_an_rl_policy(self, trace_file, tmp_path, capsys):
        assert run(["eval", "--policy", "greedy", "--trace", str(trace_file),
                    "--dump-state-rounds", "2", "--out-dir", str(tmp_path)]) == 2
        assert "scores no placements" in capsys.readouterr().err

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

    def test_repeated_policy_is_a_usage_error(self, tmp_path, capsys):
        """Refused before any trace loads: the trace file does not exist."""
        out = tmp_path / "out"
        assert run(["compare", "--policies", "las,srtf,las", "--trace",
                    str(tmp_path / "missing.txt"), "--out-dir", str(out)]) == 2
        assert_one_line_error(capsys, "usage error: ", "--policies", "las more than once")
        assert not out.exists()


class TestConfigFile:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# comment\nnodes = 2\ngpus-per-node = 4\n")
        args = build_parser().parse_args(["gen-trace", "--jobs", "1", "--out", "t.txt",
                                          "--config", str(cfg), "--gpus-per-node", "2"])
        assert _cluster_config(args) == ClusterConfig(num_nodes=2, gpus_per_node=2)

    @pytest.mark.parametrize("line", ["round_interval = 5.0", "bogus_key = 3"])
    def test_unread_key_is_a_file_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"nodes = 2\n{line}\n")
        assert run(["gen-trace", "--jobs", "6", "--config", str(cfg),
                    "--out", str(tmp_path / "t.txt")]) == 3
        err = capsys.readouterr().err
        assert repr(line.split()[0]) in err
        assert "nodes, gpus_per_node, inter_bw, intra_bw" in err
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("line", ["inter_bw = nan", "intra_bw = inf"])
    def test_non_finite_bandwidth_is_a_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{line}\n")
        assert run(["gen-trace", "--jobs", "6", "--config", str(cfg),
                    "--out", str(tmp_path / "t.txt")]) == 2
        assert_one_line_error(capsys, "usage error: ", "bandwidths")
        assert not (tmp_path / "t.txt").exists()

    def test_bad_value_is_a_file_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = two\n")
        assert run(["gen-trace", "--jobs", "6", "--config", str(cfg),
                    "--out", str(tmp_path / "t.txt")]) == 3
        assert "'nodes'" in capsys.readouterr().err

    def test_gen_trace_with_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = 2\ngpus_per_node = 2\n")
        path = tmp_path / "t.txt"
        assert run(["gen-trace", "--jobs", "6", "--seed", "1", "--config",
                    str(cfg), "--out", str(path)]) == 0
        jobs = read_trace(path)
        assert all(j.gpu_demand <= 4 for j in jobs)

    def test_reports_record_the_resolved_settings(self, tmp_path):
        """The file's cluster values and the defaults no flag gave reach every report."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nodes = 2\ngpus_per_node = 4\n")
        trace, out = tmp_path / "t.txt", tmp_path / "out"
        assert run(["gen-trace", "--jobs", "6", "--seed", "1", "--config", str(cfg),
                    "--out", str(trace)]) == 0
        assert run(["eval", "--policy", "las", "--trace", str(trace), "--config", str(cfg),
                    "--name", "e", "--out-dir", str(out)]) == 0
        base = out / "reports" / "e"
        manifest = json.loads((base / "manifest.txt").read_text())
        assert {k: manifest[k] for k in ("config", "num_nodes", "gpus_per_node",
                                         "inter_node_bandwidth", "round_interval",
                                         "cs_preemption_threshold", "restore_penalty",
                                         "contention", "w1")} == {
            "config": str(cfg), "num_nodes": 2, "gpus_per_node": 4,
            "inter_node_bandwidth": 1250.0, "round_interval": 0.25,
            "cs_preemption_threshold": 2.0, "restore_penalty": 5.0, "contention": "table",
            "w1": 0.4}
        for path in (base / "summary.txt", base / "set00" / "per_job.csv"):
            lines = path.read_text().splitlines()
            assert {"# num_nodes = 2", "# gpus_per_node = 4", f"# config = {cfg}"} <= set(lines)

    def test_output_root_env(self, monkeypatch):
        monkeypatch.setenv("CONSCHED_OUT", "/some/root")
        assert output_root(None) == "/some/root"
        assert output_root("explicit") == "explicit"
        monkeypatch.delenv("CONSCHED_OUT")
        assert output_root(None) == "."


def test_readme_names_every_flag():
    """README's CLI section lists each command's flags; this keeps it true."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    readme = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    missing = [f"{command} {flag}" for command, parser in commands.items()
               for action in parser._actions if action.dest != "help"
               for flag in action.option_strings
               if not re.search(re.escape(flag) + r"(?![\w-])", readme)]
    assert not missing, f"flags README.md's CLI section does not name: {missing}"
