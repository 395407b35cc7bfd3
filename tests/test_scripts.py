"""The scripts under scripts/ still run against this checkout.

run_branch_sweep.py builds RLBasePolicy and RLHybridPolicy directly, so a
constructor change breaks it without failing any other test.
bench_snapshot.py's reading of bench/run.py's result files is checked on
fabricated files: the script itself runs the whole benchmark.
scale_probe.py and ab.py run at toy size; ab.py as an A/A run, this
checkout against itself.
"""

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from consched.contention import default_cs_table, load_cs_table
from consched.rl.reward import BRANCHES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def test_branch_sweep(tmp_path):
    run_script("run_branch_sweep.py", "--jobs", 8, "--episodes", 1, "--eval-seeds", 1,
               "--out", tmp_path)
    header, *rows = data_rows(tmp_path / "sweep.csv")
    assert header == ["policy", "avg_jct", "p90_jct", "mean_util", "mean_cs"]
    assert [row[0] for row in rows] == ["las", "srtf", "greedy", *(
        f"{kind}-{branch}" for branch in BRANCHES for kind in ("rl-base", "rl-hybrid"))]
    # one (avg_jct, mean_util) point per sweep row
    assert data_rows(tmp_path / "jct_util_scatter.csv") == [[row[1], row[3]] for row in rows]
    for branch in BRANCHES:
        assert (tmp_path / f"branch_{branch}.ckpt").is_file()
        assert len(data_rows(tmp_path / f"branch_{branch}_curves.csv")) == 2  # header, 1 episode


def test_dump_default_cs_table(tmp_path):
    out = tmp_path / "cs_table.csv"
    run_script("dump_default_cs_table.py", "--out", out)
    assert load_cs_table(out) == default_cs_table()


def test_bench_snapshot_reads_the_import_phase(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_snapshot",
                                                  ROOT / "scripts" / "bench_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    paths = []
    for seed, imports in ((1, 0.07), (2, 0.031), (3, 0.05)):
        path = tmp_path / f"result-w-seed{seed}-trace0.json"
        path.write_text(json.dumps({"metrics": {"setup_s": {"value": 0.2, "unit": "s"}},
                                    "info": {"setup_phases_s": {"imports": imports,
                                                                "table": 0.01}}}))
        paths.append(path)
    assert module.median_imports(paths) == 0.05
    assert module.median_imports(paths[1:2]) == 0.031


def test_scale_probe(tmp_path):
    out = tmp_path / "scale.csv"
    run_script("scale_probe.py", "--nodes", 2, 4, "--jobs", 6, "--repeats", 1, "--out", out)
    header, *rows = data_rows(out)
    assert header == ["nodes", "run", "seconds", "heads", "trials", "avg_jct", "peak_rss_mb"]
    assert [row[:2] for row in rows] == [["2", "episode"], ["2", "train"],
                                         ["4", "episode"], ["4", "train"]]
    for row in rows:
        assert float(row[2]) > 0 and int(row[3]) > 0 and int(row[4]) >= 0
        assert float(row[5]) > 0 and float(row[6]) > 0


def test_ab_against_itself(tmp_path):
    out = tmp_path / "ab.json"
    stdout = run_script("ab.py", "--base", ROOT, "--smoke", "--passes", 2, "--imports", 2,
                        "--json", out)
    summaries = json.loads(out.read_text())
    assert sorted(summaries) == ["compare-backlog", "eval-heavy-poisson", "imports",
                                 "train-desk"]
    for name, summary in summaries.items():
        assert summary["pairs"] == 2 and 0 <= summary["lower"] <= 2
        assert summary["q1"] <= summary["median"] <= summary["q3"]
        assert summary["min_ratio"] > 0 and f"{name}: this/base per pass" in stdout
        if name != "imports":  # the same code makes the same calls
            assert summary["calls"]["this"] == summary["calls"]["base"] > 0
            assert f"{name}: function calls per pass" in stdout
