"""Report files: per-job/per-round CSVs, plot-ready point files, summaries.

Every file is written by _write_lines, so it starts with the same
provenance comment lines (resolved config and seed). Files are
byte-deterministic for identical inputs: floats are written with repr
(shortest round-trip form) and no timestamps appear anywhere.

per_round.csv writes the round log as the engine keeps it, one row per
run: `rounds` rounds, the first at `time` and each one round interval
after the last, that share the row's values. A run of more than one
round is an idle stretch, so its num_placed and num_preempted are 0.
"""

from __future__ import annotations

import os

from .engine import METRICS, ComparisonReport, EpisodeReport

JOB_COLUMNS = ("id", "model", "demand", "arrival", "start", "finish", "jct",
               "preemptions", "mean_cs", "isolated_runtime")
ROUND_COLUMNS = ("time", "rounds", "utilization", "mean_cs", "reward", "num_running",
                 "num_waiting", "num_placed", "num_preempted")

# Reference deltas from the full-scale study this simulator is calibrated
# against; emitted as context lines in comparison summaries, never asserted.
FULL_SCALE_REFERENCE = (
    "rl-base vs srtf: avg JCT -15.4%, p90 JCT -16.4%",
    "rl-base vs las: avg JCT -18.2%, p90 JCT -20.7%",
    "rl-hybrid vs srtf: avg JCT -12.1%",
    "rl-hybrid vs las: avg JCT -15.1%",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_lines(path, lines, provenance: dict | None) -> None:
    """Provenance comment lines, then lines (each without its newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key} = {_fmt(value)}\n"
                      for key, value in sorted((provenance or {}).items()))
        fh.writelines(line + "\n" for line in lines)


def write_csv(path, columns, rows, provenance: dict | None = None) -> None:
    _write_lines(path, [",".join(columns), *(",".join(_fmt(v) for v in row) for row in rows)],
                 provenance)


def write_points(path, points, header: str, provenance: dict | None = None) -> None:
    """Two-column (x, y) point file, directly plottable."""
    _write_lines(path, [f"# {header}", *(f"{_fmt(x)},{_fmt(y)}" for x, y in points)],
                 provenance)


def write_episode_report(report: EpisodeReport, out_dir, provenance: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "per_job.csv"), JOB_COLUMNS,
              [tuple(getattr(j, c) for c in JOB_COLUMNS) for j in report.jobs],
              provenance)
    write_csv(os.path.join(out_dir, "per_round.csv"), ROUND_COLUMNS,
              [(r.time, n, r.utilization, r.mean_cs, r.reward, r.num_running,
                r.num_waiting, r.num_placed, r.num_preempted)
               for r, _, n, _, _ in report.rounds.runs],
              provenance)
    write_points(os.path.join(out_dir, "jct_cdf.csv"), report.jct_cdf(),
                 "jct,cumulative_fraction", provenance)
    write_points(os.path.join(out_dir, "util_hist.csv"), report.util_histogram(),
                 "utilization_bin_left,fraction_of_rounds", provenance)
    write_points(os.path.join(out_dir, "cs_hist.csv"), report.cs_job_histogram(),
                 "mean_cs_bin_left,fraction_of_jobs", provenance)
    write_summary(os.path.join(out_dir, "summary.txt"), report.aggregates, provenance)


def write_summary(path, aggregates: dict, provenance: dict | None = None) -> None:
    _write_lines(path, [f"{key} = {_fmt(aggregates[key])}" for key in sorted(aggregates)],
                 provenance)


def write_training_curves(path, curves: list[dict], provenance: dict | None = None) -> None:
    if not curves:
        return
    columns = list(curves[0].keys())
    write_csv(path, columns, [tuple(c[k] for k in columns) for c in curves], provenance)


def write_comparison(cmp: ComparisonReport, out_dir, provenance: dict | None = None) -> None:
    """Comparison tables, pairwise deltas, and the JCT/utilization scatter."""
    os.makedirs(out_dir, exist_ok=True)
    rows = [(name, *[cmp.per_policy[name][m] for m in METRICS],
             cmp.per_policy[name]["total_preemptions"]) for name in cmp.policies]
    write_csv(os.path.join(out_dir, "comparison.csv"),
              ("policy", *METRICS, "total_preemptions"), rows, provenance)
    delta_rows = [(a, b, *[cmp.deltas[(a, b)][m] for m in METRICS])
                  for (a, b) in sorted(cmp.deltas)]
    write_csv(os.path.join(out_dir, "deltas_pct.csv"),
              ("policy", "baseline", *[m + "_delta_pct" for m in METRICS]),
              delta_rows, provenance)
    write_points(os.path.join(out_dir, "jct_util_scatter.csv"),
                 [(cmp.per_policy[n]["avg_jct"], cmp.per_policy[n]["mean_util"])
                  for n in cmp.policies],
                 "avg_jct,mean_util (one point per policy: " + ",".join(cmp.policies) + ")",
                 provenance)
    _write_lines(os.path.join(out_dir, "summary.txt"),
                 [*(f"{name}: " + " ".join(f"{m}={_fmt(cmp.per_policy[name][m])}"
                                           for m in METRICS) for name in cmp.policies),
                  "# reference deltas from the full-scale study (context, not assertions):",
                  *(f"#   {line}" for line in FULL_SCALE_REFERENCE)],
                 provenance)
    for name in cmp.policies:
        for k, rep in enumerate(cmp.reports[name]):
            write_episode_report(rep, os.path.join(out_dir, name, f"set{k:02d}"), provenance)
