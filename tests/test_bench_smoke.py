"""The benchmark still runs against this checkout.

bench/tracer.py wraps consched functions and methods by attribute name
(PolicyNet.head_logits, rl.train.value_step, policies.encode_state and
others), so renaming one breaks `bench/run.py --trace 1` without failing
any other test. --smoke runs every workload at a tiny size in both modes.
It checks that each metric is emitted, not that a wrapped function is
still called, so a traced pass here also pins the counts of the layers
each workload runs.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
# traced counts of a seed-1 smoke pass that are nonzero there, on every workload and on some
EVERY_WORKLOAD = ("policies.decide_calls", "workload.advance_calls", "rl.reward.calls")
ON_SOME = {"train-desk": ("encoding.encode_calls", "actions.mask_calls", "rl.net.forward_calls"),
           "compare-backlog": ("cluster.first_fit_calls",)}


def test_bench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout.splitlines()[-1]


def is_consched(name: str) -> bool:
    return name == "consched" or name.startswith("consched.")


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py imported here. It imports consched afresh, so the modules
    the other tests hold are put back afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    kept = {name: module for name, module in sys.modules.items() if is_consched(name)}
    yield importlib.import_module("run")
    for name in [name for name in sys.modules if is_consched(name)]:
        del sys.modules[name]
    sys.modules.update(kept)
    for name in ("run", "tracer", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_stay_nonzero(bench_run, workload):
    result = bench_run.run_workload(workload, seed=1, seconds=0, trace=True, smoke=True)
    assert result["correct"], result["info"]["problems"]
    for name in EVERY_WORKLOAD + ON_SOME.get(workload, ()):
        assert result["metrics"][name]["value"] > 0, name
