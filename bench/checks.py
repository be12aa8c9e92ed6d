"""Output checks, written apart from the program.

They read only the artifacts' text (trace lines, CSV, JSON) and the
documented formats in docs/output-formats.md; none of them calls into
birdsim. Each raises CheckFailed naming the check and the first offending
line or row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

METRICS_HEADER = [
    "task_id", "program_id", "origin", "consumer", "issue_time_s",
    "first_served_s", "attempts", "server", "t_enc_s", "t_comm_s", "t_dec_s",
    "t_proc_s", "t_e2e_s", "delivered_s", "status", "task_completed_s",
]
SAMPLES_HEADER = ["t_s", "band", "direction", "throughput_mbps", "one_way_delay_ms"]
SWEEP_ROW_HEADER = [
    "parameter", "value", "replicate", "seed", "tasks_total", "tasks_completed",
    "mean_t_e2e_s", "mean_t_comm_s", "requests", "responses", "timeouts",
]
SWEEP_AGGREGATE_HEADER = [
    "parameter", "value", "replicates", "tasks_completed_mean",
    "t_e2e_mean_s", "t_e2e_std_s", "t_comm_mean_s", "t_comm_std_s",
]
_COMMON = ("t", "seq", "kind", "tpos")
# altitude boundary between the two altitude regimes, metres
_BAND_SPLIT_M = 50.0
# numpy's mean and a plain sum may round differently in the last bits
_MEAN_REL_TOL = 1e-12


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _fail(check: str, detail: str):
    raise CheckFailed(check, detail)


def _records(lines: list[str]) -> list[dict[str, str]]:
    records = []
    for n, line in enumerate(lines, 1):
        rec = {}
        for token in line.split(" "):
            key, sep, value = token.partition("=")
            if not sep or not key:
                _fail("grammar", f"line {n}: token {token!r} is not key=value")
            rec[key] = value
        if tuple(rec)[:4] != _COMMON:
            _fail("grammar", f"line {n}: does not start with t seq kind tpos")
        records.append(rec)
    return records


def check_trace_grammar(lines: list[str]) -> list[dict[str, str]]:
    """Every record is key=value tokens led by t, seq, kind, tpos; records run
    in (t, seq) order. Returns the parsed records."""
    records = _records(lines)
    prev = None
    for n, rec in enumerate(records, 1):
        try:
            key = (float(rec["t"]), int(rec["seq"]))
            int(rec["tpos"])
        except ValueError:
            _fail("grammar", f"line {n}: t, seq or tpos is not a number")
        if prev is not None and key <= prev:
            _fail("grammar", f"line {n}: (t, seq) {key} does not follow {prev}")
        prev = key
    return records


@dataclass(frozen=True)
class Replay:
    opened: int
    resolved: int
    timed_out: int  # expired by Timeout records plus flushed at the horizon
    outstanding_peak: int


def _keys(value: str) -> list[str]:
    return value.split(";") if value else []


def replay(records: list[dict[str, str]]) -> Replay:
    """Re-derive the outstanding-entry ledger and enforce the advancement gate.

    A record's tpos is the phase index when it was written. An advance first
    seen on a record happened either after the previous record's bookkeeping,
    when no entry of the current tick was open, or inside the record itself
    before it opened anything: a Tick that opened no entry, or the Flush.
    """
    open_tick: dict[str, int] = {}
    current_tick = -1
    prev_tpos = 0
    opened = resolved = timed_out = peak = 0
    for n, rec in enumerate(records, 1):
        kind, tpos = rec["kind"], int(rec["tpos"])
        if kind == "Flush" and n != len(records):
            _fail("replay", f"record {n}: the Flush is not the last record")
        if tpos < prev_tpos:
            _fail("replay", f"record {n}: timeline moved back to {tpos}")
        if tpos > prev_tpos:
            gate_open = all(tick != current_tick for tick in open_tick.values())
            advanced_inside = kind == "Flush" or (kind == "Tick" and not rec["entries"])
            if not (gate_open or advanced_inside):
                _fail("replay", f"record {n}: gated advance leaked to tpos {tpos}")
        if kind == "Tick":
            current_tick = int(rec["tick"])
            for key in _keys(rec["entries"]):
                if key in open_tick or int(key.split(":", 1)[0]) != current_tick:
                    _fail("replay", f"record {n}: bad entry {key}")
                open_tick[key] = current_tick
                opened += 1
        for field in ("resolved", "timed_out", "flushed"):
            for key in _keys(rec.get(field, "")):
                if open_tick.pop(key, None) is None:
                    _fail("replay", f"record {n}: {field} {key} was not open")
                if field == "resolved":
                    resolved += 1
                else:
                    timed_out += 1
        if kind == "Timeout" and len(_keys(rec["timed_out"])) != int(rec["count"]):
            _fail("replay", f"record {n}: count does not match timed_out")
        peak = max(peak, len(open_tick))
        prev_tpos = tpos
    if not records or records[-1]["kind"] != "Flush":
        _fail("replay", "the trace does not end with a Flush")
    if open_tick:
        _fail("replay", f"{len(open_tick)} entries open after the Flush")
    return Replay(opened, resolved, timed_out, peak)


def check_conservation(rep: Replay, counts: dict) -> None:
    """The replayed ledger matches the run's counters, and
    requests = responses + timeouts."""
    want = (counts["requests"], counts["responses"], counts["timeouts"])
    got = (rep.opened, rep.resolved, rep.timed_out)
    if got != want:
        _fail("replay", f"trace gives requests/responses/timeouts {got}, counts {want}")
    if counts["requests"] != counts["responses"] + counts["timeouts"]:
        _fail("replay", f"requests != responses + timeouts in {counts}")


def _csv(text: str, header: list[str], check: str) -> list[dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        _fail(check, "unexpected header")
    return [dict(zip(header, row)) for row in rows[1:]]


def metrics_rows(metrics_csv: str) -> list[dict[str, str]]:
    return _csv(metrics_csv, METRICS_HEADER, "additivity")


def check_additivity(rows: list[dict[str, str]]) -> None:
    """t_e2e equals t_enc + t_comm + t_dec + t_proc on every completed row."""
    for n, row in enumerate(rows, 2):
        if row["status"] != "completed":
            continue
        parts = [float(row[c]) for c in ("t_enc_s", "t_comm_s", "t_dec_s", "t_proc_s")]
        if parts[0] + parts[1] + parts[2] + parts[3] != float(row["t_e2e_s"]):
            _fail("additivity", f"metrics.csv row {n}: stages do not sum to t_e2e")


def band_at(plan, t: float) -> str:
    """Link regime at mission time t: altitude interpolated linearly between
    waypoints, rotation held from the last waypoint and overriding altitude."""
    if t <= plan[0][0]:
        _, altitude, rotating = plan[0]
    else:
        _, altitude, rotating = plan[-1]
        for (ta, aa, ra), (tb, ab, _) in zip(plan, plan[1:]):
            if t < tb:
                altitude = aa + (t - ta) / (tb - ta) * (ab - aa)
                rotating = ra
                break
    if rotating:
        return "rotation"
    return "low" if altitude < _BAND_SPLIT_M else "high"


def check_samples(samples_csv: str, plan, floor_mbps: float) -> None:
    """Each sample's band matches the flight plan and its throughput is at or
    above the floor."""
    for n, row in enumerate(_csv(samples_csv, SAMPLES_HEADER, "samples"), 2):
        expected = band_at(plan, float(row["t_s"]))
        if row["band"] != expected:
            _fail("samples", f"samples.csv row {n}: band {row['band']}, plan gives {expected}")
        if row["direction"] not in ("ul", "dl"):
            _fail("samples", f"samples.csv row {n}: direction {row['direction']!r}")
        if not float(row["throughput_mbps"]) >= floor_mbps:
            _fail("samples", f"samples.csv row {n}: throughput below the floor")


def check_summary(summary_json: str, rows: list[dict[str, str]]) -> None:
    """tasks_total, tasks_completed and mean_t_e2e_s agree with metrics.csv."""
    summary = json.loads(summary_json)
    tasks = {row["task_id"] for row in rows}
    done = {row["task_id"] for row in rows if row["task_completed_s"]}
    e2e = [float(row["t_e2e_s"]) for row in rows if row["status"] == "completed"]
    mean = sum(e2e) / len(e2e) if e2e else None
    got = (summary["tasks_total"], summary["tasks_completed"], summary["mean_t_e2e_s"])
    if got != (len(tasks), len(done), mean):
        _fail("summary", f"summary gives {got}, metrics.csv {(len(tasks), len(done), mean)}")


def check_delivery(records: list[dict[str, str]], rows: list[dict[str, str]]) -> None:
    """Every completed (task, program) row has a delivery record at its
    delivered_s, for its program, to its own task's consumer."""
    delivered = {
        (float(rec["t"]), rec["entry"].rsplit(":", 1)[1], rec["delivered"])
        for rec in records
        if "delivered" in rec
    }
    completed = [row for row in rows if row["status"] == "completed"]
    bad = [
        row for row in completed
        if (float(row["delivered_s"]), row["program_id"], row["consumer"]) not in delivered
    ]
    if bad:
        first = bad[0]
        _fail(
            "delivery",
            f"{len(bad)} of {len(completed)} completed rows have no delivery to their "
            f"consumer, first {first['task_id']}/{first['program_id']} "
            f"(consumer {first['consumer']}) at {first['delivered_s']}",
        )


def check_sweep(rows_csv: str, aggregate_csv: str, parameter: str,
                values: list[float], replicates: int, base_seed: int) -> None:
    """values x replicates rows in order, each conserving requests, and each
    aggregate equal to the mean recomputed from its rows."""
    rows = _csv(rows_csv, SWEEP_ROW_HEADER, "sweep")
    if len(rows) != len(values) * replicates:
        _fail("sweep", f"{len(rows)} rows for {len(values)} values x {replicates}")
    aggregates = _csv(aggregate_csv, SWEEP_AGGREGATE_HEADER, "sweep")
    if len(aggregates) != len(values):
        _fail("sweep", f"{len(aggregates)} aggregate rows for {len(values)} values")
    for i, (value, agg) in enumerate(zip(values, aggregates)):
        group = rows[i * replicates:(i + 1) * replicates]
        for rep, row in enumerate(group):
            key = (row["parameter"], float(row["value"]), int(row["replicate"]), int(row["seed"]))
            if key != (parameter, float(value), rep, base_seed + rep):
                _fail("sweep", f"row {key} out of (value, replicate) order")
            if int(row["requests"]) != int(row["responses"]) + int(row["timeouts"]):
                _fail("sweep", f"row {key}: requests != responses + timeouts")
        if (agg["parameter"], float(agg["value"]), int(agg["replicates"])) != (
            parameter, float(value), replicates
        ):
            _fail("sweep", f"aggregate row {i + 1} names the wrong value")
        for column, source in (
            ("tasks_completed_mean", "tasks_completed"),
            ("t_e2e_mean_s", "mean_t_e2e_s"),
            ("t_comm_mean_s", "mean_t_comm_s"),
        ):
            vals = [float(row[source]) for row in group if row[source]]
            if not vals:
                if agg[column]:
                    _fail("sweep", f"value {value}: {column} set without rows")
                continue
            if not agg[column] or not math.isclose(
                float(agg[column]), sum(vals) / len(vals), rel_tol=_MEAN_REL_TOL
            ):
                _fail("sweep", f"value {value}: {column} is not the mean of its rows")
