"""The benchmark still runs against this checkout.

bench/tracer.py wraps consched functions and methods by attribute name
(PolicyNet.head_logits, rl.train.value_step, policies.encode_state and
others), so renaming one breaks `bench/run.py --trace 1` without failing
any other test. --smoke runs every workload at a tiny size in both modes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout.splitlines()[-1]
