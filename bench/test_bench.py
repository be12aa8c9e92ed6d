"""Tests of the benchmark itself: every check accepts the program's real
artifacts and rejects a tampered copy, the workload generator is a pure
function of its seed, and the tracer's self times add up.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from birdsim import cli, engine, load_scenario, protocol  # noqa: E402
from checks import CheckFailed  # noqa: E402

SWEEP = {"parameter": "update_interval", "values": [2.0, 4.0], "replicates": 2,
         "base_seed": 7}


@pytest.fixture(scope="module")
def reference():
    """The reference workload's four artifacts at its seed."""
    wl = workloads.build("reference", 0, ROOT)
    result = engine.run(load_scenario(ROOT / workloads.BUNDLED), wl.run_seed)
    return wl, {
        "trace": engine.trace_to_text(result.trace),
        "metrics": engine.metrics_to_csv(result.metrics),
        "samples": engine.samples_to_csv(result.metrics),
        "summary": engine.summary_to_json(result.metrics),
        "counts": dict(result.metrics.counts),
    }


def _check_all(wl, art):
    lines = art["trace"].splitlines()
    records = checks.check_trace_grammar(lines)
    checks.check_conservation(checks.replay(records), art["counts"])
    rows = checks.metrics_rows(art["metrics"])
    checks.check_additivity(rows)
    checks.check_samples(art["samples"], wl.flight_plan, wl.floor_mbps)
    checks.check_summary(art["summary"], rows)
    checks.check_delivery(records, rows)


def test_the_real_artifacts_pass_every_check(reference):
    wl, art = reference
    _check_all(wl, art)
    golden = ROOT / "tests" / "golden"
    assert art["trace"] == (golden / "urban_fire_trace.log").read_text()
    assert art["summary"] == (golden / "urban_fire_summary.json").read_text()


def _swap_first(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


TAMPERS = {
    "grammar: token without =": (
        "grammar", lambda a: {**a, "trace": _swap_first(a["trace"], "due= ", "due ")}),
    "grammar: time goes back": (
        "grammar", lambda a: {**a, "trace": _swap_first(a["trace"], "t=4.0 seq=14", "t=1.0 seq=14")}),
    "replay: entry never closed": (
        "replay", lambda a: {**a, "trace": _swap_first(a["trace"], " resolved=15:1:detect", "")}),
    "replay: advance while the tick's entry is open": (
        "replay", lambda a: {**a, "trace": _swap_first(
            a["trace"], "seq=28 kind=TransferComplete tpos=1", "seq=28 kind=TransferComplete tpos=2")}),
    "replay: counters disagree": (
        "replay", lambda a: {**a, "counts": {**a["counts"], "timeouts": 1, "requests": 5}}),
    "additivity": (
        "additivity", lambda a: {**a, "metrics": _set_cell(a["metrics"], "t_e2e_s", "9.5")}),
    "samples: wrong band": (
        "samples", lambda a: {**a, "samples": _swap_first(a["samples"], ",low,", ",high,")}),
    "samples: below the floor": (
        "samples", lambda a: {**a, "samples": _set_cell(a["samples"], "throughput_mbps", "0.5")}),
    "summary": (
        "summary", lambda a: {**a, "summary": _swap_first(
            a["summary"], '"tasks_completed": 4', '"tasks_completed": 3')}),
    "delivery": (
        "delivery", lambda a: {**a, "trace": _swap_first(
            a["trace"], "delivered=2 moment", "delivered=1 moment")}),
}


def _set_cell(text, column, value):
    """The CSV text with `column` of its first data row set to `value`."""
    lines = text.splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_each_check_rejects_a_tampered_artifact(reference, case):
    wl, art = reference
    check, tamper = TAMPERS[case]
    with pytest.raises(CheckFailed) as info:
        _check_all(wl, tamper(art))
    assert info.value.check == check


@pytest.fixture(scope="module")
def sweep_csvs(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = out / "sweep.yaml"
    spec.write_text(workloads.sweep_text(**SWEEP))
    code = cli.main(["--scenario", str(ROOT / workloads.BUNDLED), "--sweep", str(spec),
                     "--out", str(out)])
    assert code == 0
    return (out / "sweep_rows.csv").read_text(), (out / "sweep_aggregate.csv").read_text()


def test_the_sweep_check_passes_and_rejects_tampering(sweep_csvs):
    rows, aggregate = sweep_csvs
    checks.check_sweep(rows, aggregate, **SWEEP)
    dropped = "\n".join(rows.splitlines()[:-1]) + "\n"
    unbalanced = _set_cell(rows, "timeouts", "3")
    skewed = _set_cell(aggregate, "t_e2e_mean_s", "0.5")
    for bad_rows, bad_aggregate in ((dropped, aggregate), (unbalanced, aggregate),
                                    (rows, skewed)):
        with pytest.raises(CheckFailed):
            checks.check_sweep(bad_rows, bad_aggregate, **SWEEP)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_the_generator_is_a_function_of_the_seed(name):
    first = workloads.build(name, 3, ROOT)
    assert first == workloads.build(name, 3, ROOT)
    other = workloads.build(name, 4, ROOT)
    assert first.sweep_text != other.sweep_text
    if name != "reference":
        assert first.scenario_text != other.scenario_text
        assert first.run_seed == 3


def test_storm_never_merges_waiters_of_different_consumers():
    wl = workloads.build("storm", 1, ROOT)
    doc = yaml.safe_load(wl.scenario_text)
    consumers = {}
    for task in doc["tasks"]:
        for program in task["required_programs"]:
            consumers.setdefault(program, set()).add(task["consumer"])
    assert all(len(c) == 1 for c in consumers.values())


def test_traced_self_times_add_up_and_patches_are_restored():
    from tracer import MISSION_PATCHES, Tracer, patched

    scenario = load_scenario(ROOT / workloads.BUNDLED)
    original = protocol.ProtocolState.on_tick
    tracer = Tracer()
    with patched(tracer, MISSION_PATCHES, count_heap_pushes=True):
        result, span = tracer.root("engine.run", engine.run, scenario, 42)
    assert protocol.ProtocolState.on_tick is original
    assert engine.heapq is heapq
    assert tracer.total_self_s() == pytest.approx(span, abs=1e-6)
    assert tracer.calls["protocol.on_tick"] == 210
    assert tracer.counts["heap_pushes"] == len(result.trace) - 1


def test_every_call_of_a_traced_function_is_traced():
    from tracer import MISSION_PATCHES, Tracer, patched

    scenario = load_scenario(ROOT / workloads.BUNDLED)
    names = {owner.__dict__[attr].__code__: name for owner, attr, name in MISSION_PATCHES}
    executed = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            executed[names[frame.f_code]] += 1

    tracer = Tracer()
    with patched(tracer, MISSION_PATCHES):
        sys.setprofile(profile)
        try:
            tracer.root("engine.run", engine.run, scenario, 42)
        finally:
            sys.setprofile(None)
    assert executed["policy.candidates_for"] > 0
    assert {name: tracer.calls[name] for name in executed} == executed
