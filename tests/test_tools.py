"""The repository's tools: the parent/change pairs summary and the byte
check of two checkouts."""

import hashlib
import json
import re

import pytest
import yaml

from birdsim import load_scenario, run, trace_to_text
from birdsim.scenario import SWEEP_PARAMETERS

from conftest import ROOT, bench_build, load_tool

bench_pairs = load_tool("bench_pairs")
artifact_digests = load_tool("artifact_digests")


def result(mission_s, rss_mb, failed=0):
    return {
        "correct": True, "attempted": 8, "failed": failed,
        "metrics": {"mission_s": {"value": mission_s, "unit": "s"},
                    "peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
    }


PAIRS = [
    {"seed": 901 + i, "first": ("parent", "change")[i % 2],
     "parent": result(parent, 50.0), "change": result(change, rss, failed=i % 2)}
    for i, (parent, change, rss) in enumerate([
        (0.060, 0.050, 50.0), (0.070, 0.055, 51.0), (0.064, 0.066, 50.0),
        (0.062, 0.051, 49.0), (0.066, 0.052, 50.0),
    ])
]


def test_summary_of_fixed_pairs():
    summary = bench_pairs.summarize(
        PAIRS, {"mission_s": "lower", "peak_rss_mb": "lower"})
    mission = summary["metrics"]["mission_s"]
    assert mission["unit"] == "s"
    assert mission["pairs"] == 5
    assert mission["parent"]["values"] == [0.060, 0.070, 0.064, 0.062, 0.066]
    assert mission["parent"]["median"] == pytest.approx(0.064)
    assert mission["parent"]["q1"] == pytest.approx(0.062)
    assert mission["parent"]["q3"] == pytest.approx(0.066)
    assert mission["change"]["median"] == pytest.approx(0.052)
    assert mission["change_over_parent"] == pytest.approx(0.052 / 0.064)
    assert mission["change_wins"] == 4  # pair 2 is a loss
    assert mission["beats_parent_spread"]  # 0.012 > 0.066 - 0.062
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 1  # three ties count for neither side
    assert not rss["beats_parent_spread"]
    assert [run["change"]["failed"] for run in summary["runs"]] == [0, 1, 0, 1, 0]
    assert [run["first"] for run in summary["runs"]] == [
        "parent", "change", "parent", "change", "parent"]
    assert summary["runs"][0]["parent"] == {"correct": True, "attempted": 8, "failed": 0}


def test_higher_is_better_counts_the_other_way():
    summary = bench_pairs.summarize(PAIRS, {"mission_s": "higher"})
    mission = summary["metrics"]["mission_s"]
    assert mission["change_wins"] == 1
    assert not mission["beats_parent_spread"]


def test_one_pair_has_degenerate_quartiles():
    summary = bench_pairs.summarize(PAIRS[:1], {"mission_s": "lower"})
    parent = summary["metrics"]["mission_s"]["parent"]
    assert parent["q1"] == parent["median"] == parent["q3"] == 0.060


def test_a_failed_bench_run_is_reported_with_its_stderr(tmp_path, capsys):
    fake = tmp_path / "checkout"
    (fake / "bench").mkdir(parents=True)
    (fake / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (fake / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(30):\n"
        "    print(f'stderr line {i}', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", str(fake), "--change", str(fake),
                           "--workload", "storm", "--pairs", "2", "--seconds", "1",
                           "--seed", "77", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err[0] == ("error: the parent run of workload storm at seed 77 exited "
                      "with code 3, after 0 complete pairs of it; its last stderr lines:")
    assert err[1:] == [f"stderr line {i}" for i in range(20, 30)]


def test_an_incorrect_bench_run_is_refused_like_a_failed_one(tmp_path, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(checkout, workload, seed, seconds):
        return {"correct": not (checkout.name == "change" and seed == 78),
                "attempted": 8, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in spec["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "checkout_id", lambda path: {"commit": path.name})
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                           "--workload", "reference", "--pairs", "3", "--seconds", "1",
                           "--seed", "77", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: the change run of workload reference at seed 78 read correct: false, "
        "after 1 complete pairs of it")


FAKE_BENCH = """\
import json
from pathlib import Path
value = float(Path(__file__).with_name("value").read_text())
spec = json.loads(Path("BENCHMARK.json").read_text())
print("a line before the result")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    m["name"]: {"value": value * (k + 1), "unit": m["unit"]}
    for k, m in enumerate(spec["end_to_end"])}}))
"""


def fake_checkout(root, value):
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    (root / "bench" / "run.py").write_text(FAKE_BENCH)
    (root / "bench" / "value").write_text(str(value))
    return root


def test_each_pair_prints_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "checkout_id", lambda path: {"commit": path.name})
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 0.5)
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                           "--workload", "wide", "--pairs", "2", "--seconds", "1",
                           "--out", str(out)])
    assert rc == 0
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    cells = "; ".join(f"{name} parent {k + 1:.4g} change {(k + 1) / 2:.4g}"
                      for k, name in enumerate(names))
    assert capsys.readouterr().err.splitlines() == [
        f"wide pair 0: {cells}", f"wide pair 1: {cells}"]
    summary = json.loads(out.read_text())
    assert summary["parent"] == {"commit": "parent"}
    assert summary["checkout_warning"] is None
    assert sorted(summary["workloads"]["wide"]["metrics"]) == sorted(names)


@pytest.mark.parametrize("parent_commit, change_commit, git_side", [
    (None, "c0ffee", "change"),
    ("c0ffee", None, "parent"),
    (None, None, None),
    ("c0ffee", "c0ffee", None),
])
def test_a_git_and_a_plain_checkout_are_warned_of_before_the_first_run(
        tmp_path, monkeypatch, capsys, parent_commit, change_commit, git_side):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stderr_at_first_run = []

    def run_bench(checkout, workload, seed, seconds):
        if not stderr_at_first_run:
            stderr_at_first_run.append(capsys.readouterr().err)
        return {"correct": True, "attempted": 8, "failed": 0,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in spec["end_to_end"]}}

    commits = {"parent": parent_commit, "change": change_commit}
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    monkeypatch.setattr(bench_pairs, "checkout_id",
                        lambda path: {"commit": commits[path.name]})
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "reference", "--pairs", "1", "--seconds", "1",
                             "--out", str(out)]) == 0
    warning = None
    if git_side is not None:
        warning = (f"only the {git_side} checkout is a git work tree; that alone moves "
                   "peak_rss_mb by about 1 % on identical source, so make both "
                   "checkouts the same way")
    assert stderr_at_first_run == ["" if warning is None else f"warning: {warning}\n"]
    assert json.loads(out.read_text())["checkout_warning"] == warning


@pytest.mark.parametrize("option, value, message", [
    ("--pairs", "0", "--pairs must be at least 1, got 0"),
    ("--pairs", "-3", "--pairs must be at least 1, got -3"),
    ("--seconds", "0", "--seconds must be positive, got 0.0"),
    ("--seconds", "-1", "--seconds must be positive, got -1.0"),
    ("--seconds", "nan", "--seconds must be positive, got nan"),
    ("--workload", "gale",
     "--workload gale is not in BENCHMARK.json, which declares reference, storm, wide"),
    ("--out", "missing/bench.json",
     "--out missing/bench.json: directory missing does not exist"),
])
def test_a_pairless_or_timeless_request_is_refused_before_any_run(
        tmp_path, monkeypatch, capsys, option, value, message):
    def no_run(*args):
        raise AssertionError("a bench run started")

    monkeypatch.setattr(bench_pairs, "run_bench", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    argv = {"--parent": str(tmp_path), "--change": str(tmp_path), "--workload": "wide",
            "--pairs": "2", "--seconds": "1", "--out": "bench.json"}
    argv[option] = value
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main([item for pair in argv.items() for item in pair])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")
    assert not (tmp_path / "bench.json").exists()


def test_a_checkout_without_git_is_identified_before_the_first_run(
        tmp_path, monkeypatch):
    """A checkout made without git (as `git archive` makes one) has no commit,
    and both checkouts are identified before any run, so a failure there
    costs no runs."""
    parent = fake_checkout(tmp_path / "parent", 1.0)
    change = fake_checkout(tmp_path / "change", 0.5)
    (change / "src").mkdir()
    (change / "src" / "mod.py").write_text("x = 1\n")
    identified = []
    checkout_id, run_bench = bench_pairs.checkout_id, bench_pairs.run_bench

    def recording_id(path):
        identified.append(path.name)
        return checkout_id(path)

    def checked_run(checkout, *args):
        assert identified == ["parent", "change"]
        return run_bench(checkout, *args)

    monkeypatch.setattr(bench_pairs, "checkout_id", recording_id)
    monkeypatch.setattr(bench_pairs, "run_bench", checked_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "storm", "--pairs", "1", "--seconds", "1",
                             "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    empty = hashlib.sha256().hexdigest()
    source = hashlib.sha256(b"src/mod.py\0x = 1\n").hexdigest()
    assert summary["parent"] == {"commit": None, "dirty": None, "source_sha256": empty}
    assert summary["change"] == {"commit": None, "dirty": None, "source_sha256": source}


# ---------------------------------------------------------- artifact digests


def test_the_reference_digest_is_the_golden_trace():
    wl = bench_build("reference", 1)
    golden = (ROOT / "tests" / "golden" / "urban_fire_trace.log").read_bytes()
    digests = artifact_digests.run_digests(wl, 1.0, 1.0)
    assert digests["trace"] == hashlib.sha256(golden).hexdigest()
    assert sorted(digests) == ["metrics", "samples", "summary", "trace"]


def test_the_byte_check_runs_reference_at_each_grid_seed(monkeypatch):
    """The bench runs `reference` at the golden seed whatever seed builds
    it; the grid runs it, and its deferred case, at each of its seeds, so
    no two of its runs repeat each other."""
    monkeypatch.setattr(artifact_digests, "NAMES", ("reference",))
    monkeypatch.setattr(artifact_digests, "VARIANCES", (1.0,))
    monkeypatch.setattr(artifact_digests, "CUTS", (1.0,))
    monkeypatch.setattr(artifact_digests, "sweep_digests", lambda wl, text: {})
    found = artifact_digests.digests(ROOT)
    for case in ("variance=1.0 cut=1.0", "deferred"):
        traces = {found[f"reference seed={seed} {case} trace"]
                  for seed in artifact_digests.SEEDS}
        assert len(traces) == len(artifact_digests.SEEDS)


def test_the_byte_check_sweeps_every_parameter_with_admitted_values():
    bench = {yaml.safe_load(bench_build(name, 1).sweep_text)["parameter"]
             for name in artifact_digests.NAMES}
    extra = artifact_digests.EXTRA_SWEEPS
    assert bench.isdisjoint(extra)
    assert bench | set(extra) == set(SWEEP_PARAMETERS)
    for parameter, values in extra.items():
        assert len(values) > 1 and all(SWEEP_PARAMETERS[parameter][1](v) for v in values)


def test_the_byte_check_sees_idle_ticks_after_a_deferral(tmp_path):
    """The deferred case's task is deferred on the first tick, and every
    later Tick record, idle ones among them, lists it in `unserved=`."""
    path = tmp_path / "scenario.yaml"
    for name in artifact_digests.NAMES:
        wl = bench_build(name, 1)
        path.write_text(artifact_digests.with_deferred_task(wl.scenario_text))
        result = run(load_scenario(path), wl.run_seed)
        ticks = [line for line in trace_to_text(result.trace).splitlines()
                 if " kind=Tick " in line]
        assert ticks[0].startswith("t=0.0 ") and " due=deferred " in ticks[0]
        assert sum(" due= entries= locals= " in line for line in ticks) > 1
        assert all(re.search(r" unserved=(\S+;)?deferred:thermal[; ]", line) for line in ticks)


def test_compare_names_every_differing_or_one_sided_key():
    parent = {"a trace": "1", "a samples": "2", "b trace": "3"}
    change = {"a trace": "1", "a samples": "9", "c trace": "4"}
    assert artifact_digests.compare(parent, change) == [
        "a samples: parent 2 change 9",
        "b trace: parent 3 change missing",
        "c trace: parent missing change 4",
    ]
    assert artifact_digests.compare(parent, dict(parent)) == []
