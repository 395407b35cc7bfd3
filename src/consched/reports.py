"""Report files: per-job/per-round CSVs, plot-ready point files, summaries.

Every file starts with provenance comment lines (resolved config and
seed) and is byte-deterministic for identical inputs: floats are written
with repr (shortest round-trip form) and no timestamps appear anywhere.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .engine import METRICS, ComparisonReport, EpisodeReport, RoundLog, RoundRecord

JOB_COLUMNS = ("id", "model", "demand", "arrival", "start", "finish", "jct",
               "preemptions", "mean_cs", "isolated_runtime")
ROUND_COLUMNS = tuple(f.name for f in fields(RoundRecord))

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


def provenance_lines(config_fields: dict) -> list[str]:
    return [f"# {key} = {_fmt(value)}" for key, value in sorted(config_fields.items())]


def _write_lines(path, header: str, lines, provenance: dict | None) -> None:
    """Provenance lines, the header line, then lines (each ending in a newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in provenance_lines(provenance or {}):
            fh.write(line + "\n")
        fh.write(header + "\n")
        fh.writelines(lines)


def _round_suffix(r: RoundRecord) -> str:
    """A round's row after its time: the same for every round of a run."""
    # !r and str write the same text as _fmt for these float and int fields
    return (f",{r.utilization!r},{r.mean_cs!r},{r.reward!r},"
            f"{r.num_running},{r.num_waiting},{r.num_placed},{r.num_preempted}\n")


# the row must write every field in header order, as write_csv would
_PROBE = RoundRecord(*(k + 0.5 if f.type == "float" else k
                       for k, f in enumerate(fields(RoundRecord))))
assert (f"{_PROBE.time!r}{_round_suffix(_PROBE)}"
        == ",".join(_fmt(getattr(_PROBE, c)) for c in ROUND_COLUMNS) + "\n")


def _round_lines(rounds: RoundLog):
    """per_round.csv's rows, one string per run: the suffix is formatted once."""
    interval = rounds.interval
    for record, first, n, _, _ in rounds.runs:
        suffix = _round_suffix(record)
        yield "".join([f"{k * interval!r}{suffix}" for k in range(first, first + n)])


def write_csv(path, columns, rows, provenance: dict | None = None) -> None:
    _write_lines(path, ",".join(columns),
                 (",".join(_fmt(v) for v in row) + "\n" for row in rows), provenance)


def write_points(path, points, header: str, provenance: dict | None = None) -> None:
    """Two-column (x, y) point file, directly plottable."""
    _write_lines(path, f"# {header}", (f"{_fmt(x)},{_fmt(y)}\n" for x, y in points),
                 provenance)


def write_episode_report(report: EpisodeReport, out_dir, provenance: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "per_job.csv"), JOB_COLUMNS,
              [tuple(getattr(j, c) for c in JOB_COLUMNS) for j in report.jobs],
              provenance)
    _write_lines(os.path.join(out_dir, "per_round.csv"), ",".join(ROUND_COLUMNS),
                 _round_lines(report.rounds), provenance)
    write_points(os.path.join(out_dir, "jct_cdf.csv"), report.jct_cdf(),
                 "jct,cumulative_fraction", provenance)
    write_points(os.path.join(out_dir, "util_hist.csv"), report.util_histogram(),
                 "utilization_bin_left,fraction_of_rounds", provenance)
    write_points(os.path.join(out_dir, "cs_hist.csv"), report.cs_job_histogram(),
                 "mean_cs_bin_left,fraction_of_jobs", provenance)
    write_summary(os.path.join(out_dir, "summary.txt"), report.aggregates, provenance)


def write_summary(path, aggregates: dict, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in provenance_lines(provenance or {}):
            fh.write(line + "\n")
        for key in sorted(aggregates):
            fh.write(f"{key} = {_fmt(aggregates[key])}\n")


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
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        for line in provenance_lines(provenance or {}):
            fh.write(line + "\n")
        for name in cmp.policies:
            agg = cmp.per_policy[name]
            fh.write(f"{name}: " + " ".join(f"{m}={_fmt(agg[m])}" for m in METRICS) + "\n")
        fh.write("# reference deltas from the full-scale study (context, not assertions):\n")
        for line in FULL_SCALE_REFERENCE:
            fh.write(f"#   {line}\n")
    for name in cmp.policies:
        for k, rep in enumerate(cmp.reports[name]):
            write_episode_report(rep, os.path.join(out_dir, name, f"set{k:02d}"), provenance)
