"""Command-line front end: run one scenario, sweep a parameter, or check
streaming feasibility against the measured link regimes.

Exit codes: 0 success, 1 input/schema problem, 2 runtime abort.
BIRDSIM_LOG={off,info,trace} controls logging verbosity on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import math
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .channel import SEED_BOUND, Band, LinkBandParams, LinkModel, default_link_params
from .engine import (
    MetricsRecord,
    RunAborted,
    metrics_to_csv,
    plan,
    run,
    samples_to_csv,
    summary_dict,
    summary_to_json,
    trace_to_text,
)
from .scenario import ScenarioError, apply_sweep_value, load_scenario, load_sweep_spec

log = logging.getLogger("birdsim.cli")


# ------------------------------------------------------------------ commands


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _write_csv(out_dir: Path, name: str, columns: list[str], rows: list[list]) -> None:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns, *rows])
    _write(out_dir, name, text.getvalue())


def _fmt_opt(value: float | None) -> str:
    return "n/a" if value is None else repr(value)


# The artifacts written beside trace.log, and the ones each --format writes.
_SERIALIZERS = {
    "metrics.csv": metrics_to_csv,
    "samples.csv": samples_to_csv,
    "summary.json": summary_to_json,
}
_FORMAT_ARTIFACTS = {
    "csv": ("metrics.csv", "samples.csv"),
    "summary": ("summary.json",),
    "both": tuple(_SERIALIZERS),
}


def _write_run(
    out: Path, trace: list[str], metrics: MetricsRecord | None, names: tuple[str, ...]
) -> None:
    """Write trace.log and the named artifacts, and remove the other ones:
    an earlier run's artifacts must never sit beside this run's trace."""
    _write(out, "trace.log", trace_to_text(trace))
    for name, serialize in _SERIALIZERS.items():
        if name in names:
            _write(out, name, serialize(metrics))
        else:
            (out / name).unlink(missing_ok=True)


def cmd_run(scenario_path: str, seed: int | None, out_dir: str, fmt: str) -> int:
    scenario = load_scenario(scenario_path)
    out = Path(out_dir)
    try:
        result = run(scenario, seed=seed)
    except RunAborted as exc:
        # the partial trace, ending in its Abort record, and nothing else
        _write_run(out, exc.trace, None, ())
        raise
    _write_run(out, result.trace, result.metrics, _FORMAT_ARTIFACTS[fmt])
    summary = summary_dict(result.metrics)
    print(
        f"{scenario.name}: "
        f"tasks_completed={summary['tasks_completed']}/{summary['tasks_total']} "
        f"mean_t_e2e_s={_fmt_opt(summary['mean_t_e2e_s'])} "
        f"reported_to_virtual_s={_fmt_opt(summary['reported_to_virtual_s'])}"
    )
    return 0


SWEEP_ROW_COLUMNS = [
    "parameter", "value", "replicate", "seed", "tasks_total", "tasks_completed",
    "mean_t_e2e_s", "mean_t_comm_s", "requests", "responses", "timeouts",
]

SWEEP_AGGREGATE_COLUMNS = [
    "parameter", "value", "replicates", "tasks_completed_mean",
    "t_e2e_mean_s", "t_e2e_std_s", "t_comm_mean_s", "t_comm_std_s",
]


def _std(values: list[float]) -> float:
    # Shifted-data form: translation leaves the spread unchanged but makes
    # identical replicates yield exactly 0 instead of a rounding artifact
    # from the mean subtraction.
    return float(np.std(np.asarray(values) - values[0]))


def cmd_sweep(scenario_path: str, sweep_path: str, out_dir: str) -> int:
    base = load_scenario(scenario_path)
    spec = load_sweep_spec(sweep_path)
    rows: list[list] = []
    aggregates: list[list] = []
    run_plan = None
    for value in spec.values:
        started = perf_counter()
        scenario = apply_sweep_value(base, spec.parameter, value)
        # the runs of every value that leaves the fields a plan reads alone
        # share one plan (engine module docstring)
        if run_plan is None or run_plan.misfit(scenario) is not None:
            run_plan = plan(scenario)
        e2e_means: list[float] = []
        comm_means: list[float] = []
        completed_counts: list[int] = []
        for rep in range(spec.replicates):
            seed = spec.base_seed + rep
            # the sweep reads only the metrics, so its runs keep no trace
            m = run(scenario, seed=seed, trace=False, plan=run_plan).metrics
            completed, mean_e2e, mean_comm = m.outcome_stats()
            if mean_e2e is not None:
                e2e_means.append(mean_e2e)
            if mean_comm is not None:
                comm_means.append(mean_comm)
            completed_counts.append(completed)
            rows.append([
                spec.parameter, value, rep, seed, len(m.tasks),
                completed, mean_e2e, mean_comm,
                m.counts["requests"], m.counts["responses"], m.counts["timeouts"],
            ])
        aggregates.append([
            spec.parameter,
            value,
            spec.replicates,
            float(np.mean(completed_counts)),
            float(np.mean(e2e_means)) if e2e_means else None,
            _std(e2e_means) if e2e_means else None,
            float(np.mean(comm_means)) if comm_means else None,
            _std(comm_means) if comm_means else None,
        ])
        log.info("sweep parameter=%s value=%r replicates=%d wall_s=%.3f",
                 spec.parameter, value, spec.replicates, perf_counter() - started)

    out = Path(out_dir)
    _write_csv(out, "sweep_rows.csv", SWEEP_ROW_COLUMNS, rows)
    _write_csv(out, "sweep_aggregate.csv", SWEEP_AGGREGATE_COLUMNS, aggregates)
    print(
        f"sweep {spec.parameter}: values={len(spec.values)} "
        f"replicates={spec.replicates} rows={len(rows)}"
    )
    return 0


def feasibility_report(
    bitrate: float,
    band: Band,
    bands: dict[Band, LinkBandParams] | None = None,
) -> str:
    """One-line sustainability verdict for a stream bitrate in one regime."""
    link = LinkModel(bands=default_link_params() if bands is None else bands)
    sustainable, headroom = link.sustainable_uplink(bitrate, band)
    return (
        f"band={band.value} bitrate_mbps={bitrate:.2f} "
        f"ul_mean_mbps={link.params_for(band).ul_mean:.2f} "
        f"sustainable={'yes' if sustainable else 'no'} "
        f"headroom_mbps={headroom:.2f}"
    )


def cmd_feasibility(spec_text: str, scenario_path: str | None = None) -> int:
    parts = spec_text.split(",")
    if len(parts) > 2 or not all(part.strip() for part in parts):
        print(
            f"error: --feasibility expects \"BITRATE,BAND\" or \"BITRATE\", "
            f"got {spec_text!r}",
            file=sys.stderr,
        )
        return 1
    try:
        bitrate = float(parts[0])
    except ValueError:
        print(f"error: bitrate {parts[0]!r} is not a number", file=sys.stderr)
        return 1
    if not math.isfinite(bitrate):
        print(f"error: bitrate {parts[0]!r} is not finite", file=sys.stderr)
        return 1
    if bitrate <= 0:
        print(f"error: bitrate must be > 0, got {bitrate}", file=sys.stderr)
        return 1
    bands = None
    if scenario_path is not None:
        bands = load_scenario(scenario_path).bands
    targets = list(Band)
    if len(parts) == 2:
        try:
            targets = [Band(parts[1].strip())]
        except ValueError:
            names = ", ".join([band.value for band in Band])
            print(f"error: unknown band {parts[1]!r}; expected one of {names}", file=sys.stderr)
            return 1
    for band in targets:
        print(feasibility_report(bitrate, band, bands))
    return 0


# ---------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birdsim",
        description=(
            "Deterministic mission simulator for latency-aware task "
            "offloading over an aerial 5G link."
        ),
    )
    parser.add_argument("--scenario", metavar="PATH", help="scenario file to run")
    parser.add_argument(
        "--seed", type=int, metavar="N",
        help="override the scenario's seed (single runs only)",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="artifact directory (runs and sweeps only; default: out)",
    )
    parser.add_argument(
        "--format", choices=("csv", "summary", "both"),
        help="which metrics artifacts to write (single runs only; default: both)",
    )
    parser.add_argument(
        "--sweep", metavar="SPECFILE",
        help="sweep-spec file; runs values x replicates instead of one run",
    )
    parser.add_argument(
        "--feasibility", metavar="BITRATE,BAND",
        help='stream sustainability check, e.g. "25,high" (band optional)',
    )
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("BIRDSIM_LOG", "off").strip().lower()
    if level_name in ("", "off"):
        return
    levels = {"info": logging.INFO, "trace": logging.DEBUG}
    if level_name not in levels:
        print(
            f"warning: BIRDSIM_LOG={level_name!r} not recognized "
            "(expected off|info|trace)",
            file=sys.stderr,
        )
        return
    logging.basicConfig(
        level=levels[level_name],
        stream=sys.stderr,
        format="%(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    modes = {"--sweep": args.sweep, "--feasibility": args.feasibility}
    # (flag, its value, what it applies to, the modes it cannot join)
    for flag, value, scope, excluded in (
        ("--seed", args.seed, "single runs", ("--sweep", "--feasibility")),
        ("--format", args.format, "single runs", ("--sweep", "--feasibility")),
        ("--out", args.out, "runs and sweeps", ("--feasibility",)),
        ("--sweep", args.sweep, "scenario runs", ("--feasibility",)),
    ):
        for mode in excluded:
            if value is not None and modes[mode] is not None:
                print(f"error: {flag} applies to {scope} only; it cannot be "
                      f"combined with {mode}", file=sys.stderr)
                return 1
    if args.seed is not None and not 0 <= args.seed < SEED_BOUND:
        print(f"error: --seed must be in [0, 2**128), got {args.seed}", file=sys.stderr)
        return 1
    try:
        if args.feasibility is not None:
            return cmd_feasibility(args.feasibility, args.scenario)
        if args.scenario is None:
            print(
                "error: --scenario is required (or use --feasibility)",
                file=sys.stderr,
            )
            return 1
        out = "out" if args.out is None else args.out
        if args.sweep is not None:
            return cmd_sweep(args.scenario, args.sweep, out)
        return cmd_run(args.scenario, args.seed, out, args.format or "both")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RunAborted as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an artifact could not be written, e.g. --out lies below a file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
