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
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import Band, LinkBandParams, default_link_params
from .engine import (
    RunAborted,
    RunResult,
    metrics_to_csv,
    run,
    samples_to_csv,
    summary_dict,
    summary_to_json,
    trace_to_text,
)
from .scenario import (
    InvariantViolation,
    Scenario,
    ScenarioError,
    SchemaError,
    Waypoint,
    load_scenario,
    read_yaml,
)

log = logging.getLogger("birdsim.cli")

SWEEP_PARAMETERS = (
    "update_interval",
    "payload_scale",
    "altitude_profile",
    "link_variance_scale",
)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter experiment plan: values × replicates."""

    parameter: str
    values: tuple[float, ...]
    replicates: int
    base_seed: int = 0

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"parameter must be one of {list(SWEEP_PARAMETERS)}, "
                f"got {self.parameter!r}"
            )
        if not self.values:
            raise ValueError("values must be non-empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")

    def seed_for(self, replicate: int) -> int:
        return self.base_seed + replicate


def load_sweep_spec(path: str | Path) -> SweepSpec:
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"sweep spec file not found: {p}")
    doc = read_yaml(p)
    if not isinstance(doc, dict):
        raise SchemaError(f"{p}: expected a mapping at top level")
    unknown = set(doc) - {"parameter", "values", "replicates", "base_seed"}
    if unknown:
        raise SchemaError(f"{p}: unknown keys {sorted(unknown)}")
    raw_values = doc.get("values")
    if not isinstance(raw_values, list):
        raise SchemaError(f"{p}: values: expected a list")
    values = []
    for i, v in enumerate(raw_values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{p}: values[{i}]: expected a number")
        values.append(float(v))
    try:
        return SweepSpec(
            parameter=str(doc.get("parameter", "")),
            values=tuple(values),
            replicates=int(doc.get("replicates", 1)),
            base_seed=int(doc.get("base_seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{p}: {exc}") from None


def apply_sweep_value(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept parameter overridden."""
    if parameter == "update_interval":
        if value <= 0:
            raise InvariantViolation(f"update_interval value must be > 0, got {value}")
        return replace(scenario, t_int=value)
    if parameter == "payload_scale":
        if value < 0:
            raise InvariantViolation(f"payload_scale value must be >= 0, got {value}")
        programs = {
            pid: replace(
                p,
                input_payload=p.input_payload * value,
                output_payload=p.output_payload * value,
            )
            for pid, p in scenario.programs.items()
        }
        return replace(scenario, programs=programs)
    if parameter == "altitude_profile":
        # the value is a constant mission altitude in meters
        if not 0 <= value <= 100:
            raise InvariantViolation(
                f"altitude_profile value must be within [0, 100] m, got {value}"
            )
        return replace(scenario, flight_plan=(Waypoint(0.0, value),))
    if parameter == "link_variance_scale":
        if value < 0:
            raise InvariantViolation(
                f"link_variance_scale value must be >= 0, got {value}"
            )
        return replace(scenario, variance_scale=value)
    raise InvariantViolation(f"unknown sweep parameter {parameter!r}")


# ------------------------------------------------------------------ commands


def _write(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text)


def _fmt_opt(value: float | None) -> str:
    return "n/a" if value is None else repr(value)


def cmd_run(scenario_path: str, seed: int | None, out_dir: str, fmt: str) -> int:
    scenario = load_scenario(scenario_path)
    result = run(scenario, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out, "trace.log", trace_to_text(result.trace))
    if fmt in ("csv", "both"):
        _write(out, "metrics.csv", metrics_to_csv(result.metrics))
        _write(out, "samples.csv", samples_to_csv(result.metrics))
    if fmt in ("summary", "both"):
        _write(out, "summary.json", summary_to_json(result.metrics))
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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _std(values: list[float]) -> float:
    # Shifted-data form: translation leaves the spread unchanged but makes
    # identical replicates yield exactly 0 instead of a rounding artifact
    # from the mean subtraction.
    return float(np.std(np.asarray(values) - values[0]))


def cmd_sweep(scenario_path: str, sweep_path: str, out_dir: str) -> int:
    base = load_scenario(scenario_path)
    spec = load_sweep_spec(sweep_path)
    rows_buf = io.StringIO()
    rows = csv.writer(rows_buf, lineterminator="\n")
    rows.writerow(SWEEP_ROW_COLUMNS)
    agg_buf = io.StringIO()
    agg = csv.writer(agg_buf, lineterminator="\n")
    agg.writerow(SWEEP_AGGREGATE_COLUMNS)

    n_rows = 0
    for value in spec.values:
        scenario = apply_sweep_value(base, spec.parameter, value)
        e2e_means: list[float] = []
        comm_means: list[float] = []
        completed_counts: list[int] = []
        for rep in range(spec.replicates):
            seed = spec.seed_for(rep)
            result: RunResult = run(scenario, seed=seed)
            m = result.metrics
            mean_e2e = m.mean_t_e2e()
            mean_comm = m.mean_t_comm()
            if mean_e2e is not None:
                e2e_means.append(mean_e2e)
            if mean_comm is not None:
                comm_means.append(mean_comm)
            completed_counts.append(m.tasks_completed())
            rows.writerow([
                spec.parameter, _cell(value), rep, seed, len(m.tasks),
                m.tasks_completed(), _cell(mean_e2e), _cell(mean_comm),
                m.counts["requests"], m.counts["responses"], m.counts["timeouts"],
            ])
            n_rows += 1
        agg.writerow([
            spec.parameter,
            _cell(value),
            spec.replicates,
            _cell(float(np.mean(completed_counts))),
            _cell(float(np.mean(e2e_means)) if e2e_means else None),
            _cell(_std(e2e_means) if e2e_means else None),
            _cell(float(np.mean(comm_means)) if comm_means else None),
            _cell(_std(comm_means) if comm_means else None),
        ])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out, "sweep_rows.csv", rows_buf.getvalue())
    _write(out, "sweep_aggregate.csv", agg_buf.getvalue())
    print(
        f"sweep {spec.parameter}: values={len(spec.values)} "
        f"replicates={spec.replicates} rows={n_rows}"
    )
    return 0


_BAND_ALIASES = {
    "low": Band.LOW_ALTITUDE,
    "lowaltitude": Band.LOW_ALTITUDE,
    "high": Band.HIGH_ALTITUDE,
    "highaltitude": Band.HIGH_ALTITUDE,
    "rotation": Band.ROTATION,
    "rotating": Band.ROTATION,
}


def _parse_band(text: str) -> Band:
    key = text.strip().lower().replace("_", "").replace("-", "").replace(" ", "")
    if key not in _BAND_ALIASES:
        raise ValueError(
            f"unknown band {text!r}; expected one of low, high, rotation"
        )
    return _BAND_ALIASES[key]


def feasibility_report(
    bitrate: float,
    band: Band,
    bands: dict[Band, LinkBandParams] | None = None,
) -> str:
    """One-line sustainability verdict for a stream bitrate in one regime."""
    params = (bands or default_link_params())[band]
    headroom = params.ul_mean - bitrate
    sustainable = headroom > 0
    return (
        f"band={band.value} bitrate_mbps={bitrate:.2f} "
        f"ul_mean_mbps={params.ul_mean:.2f} "
        f"sustainable={'yes' if sustainable else 'no'} "
        f"headroom_mbps={headroom:.2f}"
    )


def cmd_feasibility(spec_text: str, scenario_path: str | None = None) -> int:
    parts = [p for p in spec_text.split(",") if p.strip()]
    if not parts or len(parts) > 2:
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
    if bitrate <= 0:
        print(f"error: bitrate must be > 0, got {bitrate}", file=sys.stderr)
        return 1
    bands = None
    if scenario_path is not None:
        bands = load_scenario(scenario_path).bands
    if len(parts) == 2:
        try:
            targets = [_parse_band(parts[1])]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        targets = list(Band)
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
        "--out", metavar="DIR", default="out", help="artifact directory"
    )
    parser.add_argument(
        "--format", choices=("csv", "summary", "both"), default="both",
        help="which metrics artifacts to write (default: both)",
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
    try:
        if args.feasibility is not None:
            return cmd_feasibility(args.feasibility, args.scenario)
        if args.scenario is None:
            print(
                "error: --scenario is required (or use --feasibility)",
                file=sys.stderr,
            )
            return 1
        if args.sweep is not None:
            return cmd_sweep(args.scenario, args.sweep, args.out)
        return cmd_run(args.scenario, args.seed, args.out, args.format)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RunAborted as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
