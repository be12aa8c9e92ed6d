"""birdsim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload reference|storm|wide --seed N \
        --seconds S --trace 0|1

Run from the repository root: the package is imported from ./src and the
scratch files go to ./.bench_work. An operation is one timed call into
birdsim followed by checks on what it returned:

  setup    load_scenario(path) on the workload's scenario file
  mission  run(scenario, seed)
  write    trace_to_text, metrics_to_csv, samples_to_csv, summary_to_json
  sweep    birdsim.cli.main(["--scenario", F, "--sweep", S, "--out", D])

A round is the workload's `repeats` x (setup, mission, write), then one sweep,
and a run is whole rounds.

Untimed warm-up rounds come first. Each timing is the median of the run's
timed calls; untraced, it is scaled to a fixed host speed by a calibration
kernel timed before every operation (README.md says why). The last line of
stdout is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import checks
import workloads
from checks import CheckFailed

ROOT = Path.cwd()
# no timed round starts before this much warm-up, and at least one round runs
WARMUP_S = 1.0
# the consumer fault: a known program fault on `wide`, counted in `failed`
KNOWN_FAULTS = {"wide": {"delivery"}}
GOLDEN = Path("tests") / "golden"
# About the calibration kernel's median on the host README.md describes. That
# shared host runs the same call up to twice as slow in phases of seconds to
# minutes, so each end-to-end timing is scaled to this host speed (README.md).
CALIBRATION_REF_S = 0.010


@dataclass(frozen=True)
class _Point:
    t_s: float
    index: int
    name: str

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be >= 0")


def calibration_kernel() -> float:
    """Fixed pure-Python work that calls no birdsim code, in the mix of the
    simulator's own calls: heap, dict and string operations, then frozen
    dataclasses built, validated and replaced."""
    heap, totals, lines = [], {}, []
    for i in range(4000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        key = i % 97
        totals[key] = totals.get(key, 0.0) + i * 0.5
        if i % 3 == 0:
            heapq.heappop(heap)
        if i % 50 == 0:
            lines.append(f"t={i * 0.1:.3f} k={key} v={totals[key]:.2f}")
    points = [_Point(i * 0.5, i, f"p{i}") for i in range(2000)]
    moved = [replace(p, t_s=p.t_s + 1.0) for p in points[::4]]
    return len(lines) + len({p.name: p for p in points}) + sum(p.t_s for p in moved)


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


class Bench:
    def __init__(self, wl, work: Path, trace: bool):
        import yaml

        from birdsim import cli, engine, scenario

        self.wl, self.trace = wl, trace
        self.engine, self.cli, self.load = engine, cli, scenario.load_scenario
        self.scenario_path = work / "scenario.yaml"
        self.sweep_path = work / "sweep.yaml"
        self.out = work / "sweep-out"
        self.scenario_path.write_text(wl.scenario_text)
        self.sweep_path.write_text(wl.sweep_text)
        self.sweep = yaml.safe_load(wl.sweep_text)
        self.doc = yaml.safe_load(wl.scenario_text) if trace else None
        self.golden = (
            ((ROOT / GOLDEN / "urban_fire_trace.log").read_text(),
             (ROOT / GOLDEN / "urban_fire_summary.json").read_text())
            if wl.golden else None
        )
        self.samples: dict[str, list[float]] = {}  # traced timings and counts
        # untraced: (metric, operation number, seconds) of every timed call or
        # part of one, and (None, None, seconds) of every calibration kernel
        self.timeline: list[tuple[str | None, int | None, float]] = []
        self.attempted = self.failed = 0
        self.unexpected = 0
        self.known_faults = KNOWN_FAULTS.get(wl.name, set())
        self.failures: dict[str, tuple[int, str]] = {}
        self.baseline: dict[str, object] = {}  # warm-up outputs, for determinism
        self.scenario = self.result = None

    # ---------------------------------------------------------------- helpers

    def _time(self, fn, *args):
        gc.collect()
        start = perf_counter()
        result = fn(*args)
        return result, perf_counter() - start

    def _record(self, name: str, value: float) -> None:
        if self.trace:
            self.samples.setdefault(name, []).append(value)
        else:
            self.timeline.append((name, self.attempted, value))

    def _calibrate(self, timed: bool) -> None:
        seconds = self._time(calibration_kernel)[1]
        if timed:
            self.timeline.append((None, None, seconds))

    def _same(self, key: str, value) -> None:
        if self.baseline.setdefault(key, value) != value:
            raise CheckFailed("determinism", f"{key} differs from the first run")

    def _op(self, timed: bool, body) -> None:
        """One operation: body() times its call and then checks the output.
        Untraced, the calibration kernel is timed right before it."""
        if not self.trace:
            self._calibrate(timed)
        try:
            body(timed)
        except CheckFailed as exc:
            if timed:
                self.failed += 1
                self.unexpected += exc.check not in self.known_faults
            count, first = self.failures.get(exc.check, (0, str(exc)))
            self.failures[exc.check] = (count + 1, first)
        if timed:
            self.attempted += 1

    # ------------------------------------------------------------- operations

    def _setup(self, timed: bool) -> None:
        scenario, seconds = self._time(self.load, self.scenario_path)
        if self.trace:
            _, from_map = self._time(self.load, self.doc)
            if timed:
                self._record("scenario.validate_s", from_map)
                self._record("scenario.from_path_s", seconds)
        elif timed:
            self._record("setup_s", seconds)
        if len(scenario.tasks) != self.wl.task_count:
            raise CheckFailed("setup", f"{len(scenario.tasks)} tasks loaded")
        self._same("scenario", scenario)
        self.scenario = scenario

    def _mission(self, timed: bool) -> None:
        result, seconds = self._time(self.engine.run, self.scenario, self.wl.run_seed)
        self.result = result
        if self.trace:
            self.result, layers = self._traced_mission(result, seconds)
        counts = result.metrics.counts
        records = checks.check_trace_grammar(result.trace)
        rep = checks.replay(records)
        checks.check_conservation(rep, counts)
        self._same("trace", _digest(*result.trace))
        self._same("counts", dict(counts))
        if timed and self.trace:
            layers.update({
                "engine.records": len(result.trace),
                "protocol.requests": counts["requests"],
                "protocol.responses": counts["responses"],
                "protocol.timeouts": counts["timeouts"],
                "protocol.answered_ratio": counts["responses"] / max(counts["requests"], 1),
                "protocol.outstanding_peak": rep.outstanding_peak,
            })
            for name, value in layers.items():
                self._record(name, value)
        elif timed:
            self._record("mission_s", seconds)

    def _traced_mission(self, untraced, untraced_s):
        from tracer import MISSION_PATCHES, Tracer, patched

        gc.collect()
        tracer = Tracer()
        with patched(tracer, MISSION_PATCHES, count_heap_pushes=True):
            result, span = tracer.root("engine.run", self.engine.run,
                                       self.scenario, self.wl.run_seed)
        if result.trace != untraced.trace:
            raise CheckFailed("determinism", "traced and untraced runs differ")
        s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
        selects = calls["policy.select_server"]
        layers = {
            "trace.mission_s": span,
            "trace.untraced_mission_s": untraced_s,
            "engine.self_s": s["engine.run"],
            "engine.heap_pushes": counts["heap_pushes"],
            "engine.flight_state_s": s["engine.flight_state"],
            "engine.flight_state_calls": calls["engine.flight_state"],
            "protocol.on_tick_s": s["protocol.on_tick"],
            "protocol.on_tick_calls": calls["protocol.on_tick"],
            "protocol.on_timeout_s": s["protocol.on_timeout"],
            "protocol.try_advance_s": s["protocol.try_advance"],
            "protocol.try_advance_calls": calls["protocol.try_advance"],
            "protocol.on_response_s": s["protocol.on_response"],
            "policy.select_server_s": s["policy.select_server"],
            "policy.select_server_calls": selects,
            "policy.candidates_per_select": counts["candidates"] / max(selects, 1),
            "policy.candidates_for_s": s["policy.candidates_for"],
            "policy.candidates_for_calls": calls["policy.candidates_for"],
            "policy.match_programs_s": s["policy.match_programs"],
            "pipeline.e2e_latency_s": s["pipeline.e2e_latency"],
            "pipeline.e2e_latency_calls": calls["pipeline.e2e_latency"],
            "channel.keyed_draws": calls["channel.keyed_draw"],
            "channel.keyed_draw_s": s["channel.keyed_draw"],
            "channel.sample_throughput_s": s["channel.sample_throughput"],
            "channel.sample_throughput_calls": calls["channel.sample_throughput"],
        }
        return result, layers

    def _write(self, timed: bool) -> None:
        e, result = self.engine, self.result
        calls = (
            ("engine.trace_to_text_s", e.trace_to_text, result.trace),
            ("engine.metrics_to_csv_s", e.metrics_to_csv, result.metrics),
            ("engine.samples_to_csv_s", e.samples_to_csv, result.metrics),
            ("engine.summary_to_json_s", e.summary_to_json, result.metrics),
        )
        gc.collect()
        texts, stamps = [], [perf_counter()]
        for _, fn, arg in calls:
            texts.append(fn(arg))
            stamps.append(perf_counter())
        if timed and self.trace:
            for (name, _, _), start, end in zip(calls, stamps, stamps[1:]):
                self._record(name, end - start)
        elif timed:
            self._record("write_s", stamps[-1] - stamps[0])
        self.result = None
        trace_text, metrics_csv, samples_csv, summary_json = texts
        self._same("artifacts", _digest(*texts))
        if self.golden is not None and (trace_text, summary_json) != self.golden:
            raise CheckFailed("golden", "artifacts differ from tests/golden")
        rows = checks.metrics_rows(metrics_csv)
        checks.check_additivity(rows)
        checks.check_samples(samples_csv, self.wl.flight_plan, self.wl.floor_mbps)
        checks.check_summary(summary_json, rows)
        checks.check_delivery(checks.check_trace_grammar(trace_text.splitlines()), rows)

    def _sweep(self, timed: bool) -> None:
        argv = ["--scenario", str(self.scenario_path), "--sweep", str(self.sweep_path),
                "--out", str(self.out)]
        if self.trace:
            from tracer import SWEEP_PATCHES, Tracer, patched

            gc.collect()
            tracer = Tracer()
            with patched(tracer, SWEEP_PATCHES), redirect_stdout(io.StringIO()):
                code, _ = tracer.root("cli.main", self.cli.main, argv)
            if timed:
                s = tracer.self_s
                self._record("cli.sweep_runs", tracer.calls["cli.run"])
                self._record("cli.sweep_self_s", s["cli.main"] + s["cli.apply_sweep_value"])
                self._record("cli.apply_sweep_value_s", s["cli.apply_sweep_value"])
        else:
            with self._calibrated_runs(timed) as inside, redirect_stdout(io.StringIO()):
                code, seconds = self._time(self.cli.main, argv)
            if timed:
                self._record("sweep_s", seconds - sum(inside))
        if code != 0:
            raise CheckFailed("sweep", f"birdsim exited with {code}")
        rows = (self.out / "sweep_rows.csv").read_text()
        aggregate = (self.out / "sweep_aggregate.csv").read_text()
        self._same("sweep", _digest(rows, aggregate))
        spec = self.sweep
        checks.check_sweep(rows, aggregate, spec["parameter"], spec["values"],
                           spec["replicates"], spec["base_seed"])

    @contextmanager
    def _calibrated_runs(self, timed: bool):
        """Time the calibration kernel before every `run` of a sweep, and
        each run as a part of the sweep, so that a sweep, much longer than
        the host's faster phases, is scaled by the host speed around each
        part. Yields the list of the wrapped calls' seconds, kernel included."""
        run, inside = self.cli.run, []

        def calibrated_run(*args, **kwargs):
            entered = perf_counter()
            self._calibrate(timed)
            start = perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                end = perf_counter()
                inside.append(end - entered)
                if timed:
                    self._record("sweep_s", end - start)

        self.cli.run = calibrated_run
        try:
            yield inside
        finally:
            self.cli.run = run

    def round(self, timed: bool) -> None:
        for _ in range(self.wl.repeats):
            for body in (self._setup, self._mission, self._write):
                self._op(timed, body)
        self._op(timed, self._sweep)

    def _scaled(self):
        """Per timed call, its seconds and its scaled seconds: each part
        times CALIBRATION_REF_S over the mean of the kernel timings right
        before and right after it, summed over the call's parts."""
        raw: dict[tuple[str, int], float] = {}
        scaled: dict[tuple[str, int], float] = {}
        before, pending = None, []
        for name, op, seconds in self.timeline:
            if name is not None:
                pending.append(((name, op), seconds))
                continue
            for key, part in pending:
                raw[key] = raw.get(key, 0.0) + part
                scaled[key] = scaled.get(key, 0.0) + part * 2 * CALIBRATION_REF_S / (before + seconds)
            before, pending = seconds, []
        by_metric = ({}, {})
        for calls, values in zip(by_metric, (raw, scaled)):
            for (name, _), value in values.items():
                calls.setdefault(name, []).append(value)
        return by_metric

    def metrics(self) -> dict[str, float]:
        """The median of each timing's timed calls; counts repeat exactly,
        so their median is their value. Untraced, each timed call is scaled
        first (`_scaled`)."""
        if not self.trace:
            self._calibrate(timed=True)  # the kernel after the last timed call
            raw, scaled = self._scaled()
            kernels = [seconds for name, _, seconds in self.timeline if name is None]
            print("bench: medians before scaling: " + ", ".join(
                f"{name} {statistics.median(values):.6g}" for name, values in raw.items())
                + f"; calibration kernel {statistics.median(kernels):.6g}", file=sys.stderr)
            v = {name: statistics.median(values) for name, values in scaled.items()}
            v["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return v
        v = {name: statistics.median(samples) for name, samples in self.samples.items()}
        v["scenario.parse_s"] = v.pop("scenario.from_path_s") - v["scenario.validate_s"]
        v["trace.overhead_s"] = v["trace.mission_s"] - v["trace.untraced_mission_s"]
        v["engine.self_us_per_record"] = v["engine.self_s"] * 1e6 / v["engine.records"]
        v["channel.us_per_keyed_draw"] = (
            v["channel.keyed_draw_s"] * 1e6 / max(v["channel.keyed_draws"], 1)
        )
        return v


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = workloads.build(workload, seed, ROOT)
    bench = Bench(wl, work, trace)
    start = perf_counter()
    bench.round(timed=False)
    while perf_counter() - start < WARMUP_S:
        bench.round(timed=False)
    # whole rounds only; the last one starts if at least half of it fits
    start = end = perf_counter()
    last = 0.0
    while bench.attempted == 0 or end - start + last / 2 < seconds:
        bench.round(timed=True)
        last, end = perf_counter() - end, perf_counter()
    for check, (count, first) in sorted(bench.failures.items()):
        print(f"bench: {check} check failed {count} times, first: {first}",
              file=sys.stderr)
    measured = bench.metrics()
    units = declared_metrics(trace)
    if set(measured) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(measured) ^ set(units)}")
    return {
        "correct": bench.unexpected == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "birdsim" / "__init__.py").is_file():
        print(f"bench: no birdsim package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
