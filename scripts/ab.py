#!/usr/bin/env python3
"""In-process A/B of this checkout against another source tree, on the benchmark's workloads.

    git archive REV | tar -x -C /tmp/base
    python3 scripts/ab.py --base /tmp/base --passes 10 --seed 9001

Both trees' consched packages are imported into one process (sys.modules
is purged between the two imports; consched imports nothing inside a
function, so the two module sets then run side by side). Each side sets
up the workload with this checkout's bench/workloads.py, runs one
untimed pass, and then the sides alternate timed passes (every trace of
the workload once), the order flipped every pass, so host noise that
moves between processes moves both sides alike. Every pass's outputs
must match between the sides (the workloads' fingerprints); the run
exits 1 when they do not.

Per workload it prints the median per-pass time ratio (this checkout
over base) with its quartiles, the pairs in which this checkout was
faster, and the ratio of the fastest passes; then one more pass per
side under cProfile gives each side's function calls per pass, a count
that host load does not move. --imports N also alternates
N fresh imports of each tree and prints the same for their times.
bench/run.py, one process per commit, stays the benchmark's gate.
BLAS runs at one thread, as in bench/run.py.
"""

import argparse
import cProfile
import importlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import BLAS_ENV, BLAS_THREADS, MODULES  # noqa: E402  (imports no numpy)
from workloads import WORKLOADS  # noqa: E402


def load(tree: Path) -> SimpleNamespace:
    """Import tree's src/consched afresh, as a module set of its own."""
    for name in [n for n in sys.modules if n == "consched" or n.startswith("consched.")]:
        del sys.modules[name]
    src = str(tree / "src")
    sys.path.insert(0, src)
    try:
        mods = {alias: importlib.import_module(path) for alias, path in MODULES.items()}
    finally:
        sys.path.remove(src)
    origin = Path(mods["engine"].__file__).resolve().parent
    if origin != (tree / "src" / "consched").resolve():
        raise ImportError(f"consched imported from {origin}, not from {tree / 'src'}")
    return SimpleNamespace(**mods)


def one_pass(wl) -> tuple[float, list]:
    """Seconds for every trace of the workload once (the runs only), and their fingerprints."""
    results = []
    t0 = perf_counter()
    for k in range(wl.n):
        results.append(wl.run(k))
    seconds = perf_counter() - t0
    return seconds, [wl.fingerprint(result) for result in results]


def calls(wl) -> int:
    """Function calls in one pass (its fingerprints too), counted under cProfile.

    The raw entries are summed: pstats keys functions by (file, line,
    name), so two functions with one key (dataclass __init__s) would
    count once.
    """
    profile = cProfile.Profile()
    profile.runcall(one_pass, wl)
    return sum(entry.callcount for entry in profile.getstats())


def summary(this: list[float], base: list[float]) -> dict:
    """Per-pair ratios this / base: median, quartiles, pairs lower; and the ratio of the minima."""
    ratios = [t / b for t, b in zip(this, base)]
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"median": median, "q1": q1, "q3": q3, "lower": sum(r < 1 for r in ratios),
            "pairs": len(ratios), "min_ratio": min(this) / min(base),
            "min_this_s": min(this), "min_base_s": min(base)}


def line(name: str, s: dict) -> str:
    return (f"{name}: this/base per pass {s['median'] - 1:+.1%} "
            f"[{s['q1'] - 1:+.1%}, {s['q3'] - 1:+.1%}], {s['lower']}/{s['pairs']} pairs lower, "
            f"min {s['min_base_s']:.4f} -> {s['min_this_s']:.4f} s ({s['min_ratio'] - 1:+.1%})")


def main(argv=None) -> int:
    for var in BLAS_ENV:  # before the first import of numpy
        os.environ[var] = str(BLAS_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path,
                        help="a source tree with src/consched, e.g. from git archive")
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=10, help="timed passes per side")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="the workloads' smoke sizes")
    parser.add_argument("--imports", type=int, default=0, help="timed imports per side")
    parser.add_argument("--json", type=Path, help="also write the summaries here")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.imports < 0 or args.seed < 0:
        parser.error("--passes must be >= 1, --imports and --seed >= 0")
    trees = {"base": args.base.resolve(), "this": ROOT}
    if not (trees["base"] / "src" / "consched" / "__init__.py").is_file():
        parser.error(f"no src/consched under {trees['base']}")
    sides = {side: load(tree) for side, tree in trees.items()}
    results, ok = {}, True
    with tempfile.TemporaryDirectory() as out:
        for name in args.workload:
            wls = {side: WORKLOADS[name](m, args.seed, args.smoke, os.path.join(out, side))
                   for side, m in sides.items()}
            for wl in wls.values():
                wl.setup()
                one_pass(wl)  # warm-up, untimed
            times = {"base": [], "this": []}
            for p in range(args.passes):
                prints = {}
                for side in ("base", "this") if p % 2 == 0 else ("this", "base"):
                    seconds, prints[side] = one_pass(wls[side])
                    times[side].append(seconds)
                if prints["base"] != prints["this"]:
                    ok = False
                    print(f"{name}: pass {p}: the outputs differ between the sides")
            results[name] = summary(times["this"], times["base"])
            results[name]["calls"] = {side: calls(wl) for side, wl in wls.items()}
            print(line(name, results[name]), flush=True)
            base, this = results[name]["calls"]["base"], results[name]["calls"]["this"]
            print(f"{name}: function calls per pass {base:,} -> {this:,} ({this - base:+,})")
    if args.imports:
        times = {"base": [], "this": []}
        for p in range(args.imports):
            for side in ("base", "this") if p % 2 == 0 else ("this", "base"):
                t0 = perf_counter()
                load(trees[side])
                times[side].append(perf_counter() - t0)
        results["imports"] = summary(times["this"], times["base"])
        print(line("imports", results["imports"]))
    if args.json:
        args.json.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
