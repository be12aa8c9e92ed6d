"""Command-line behavior: artifacts, reproducibility, sweeps, feasibility."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from birdsim import load_scenario, run
from birdsim.scenario import apply_sweep_value
from birdsim.cli import main

RUN_ARTIFACTS = ("trace.log", "metrics.csv", "samples.csv", "summary.json")


def mini_doc():
    return {
        "name": "mini",
        "duration_s": 12.0,
        "update_interval_s": 2.0,
        "nodes": [
            {"node_id": 0, "kind": "uav5gp", "compute_capacity": 25.0,
             "mobile": True},
            {"node_id": 1, "kind": "ecs", "compute_capacity": 100.0,
             "location": [58.9, 0.0, 0.0]},
        ],
        "programs": [
            {"program_id": "p", "task_kind": "object_detection",
             "compute_cost": 40.0, "input_payload_bits": 1000000.0,
             "output_payload_bits": 100000.0, "encode_cost": 2.0,
             "decode_cost": 2.0},
        ],
        "tables": [{"server_id": 1, "program_id": "p"}],
        "tasks": [{"task_id": "t1", "required_programs": ["p"],
                   "issue_time_s": 0.0, "consumer": 1}],
        "link": {"variance_scale": 0.0},
    }


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def read_artifacts(out_dir, names=RUN_ARTIFACTS):
    return {name: (out_dir / name).read_bytes() for name in names}


# ----------------------------------------------------------------- run layout


def test_run_writes_every_artifact(tmp_path, scenario_path, capsys):
    out = tmp_path / "out"
    rc = main(["--scenario", str(scenario_path), "--out", str(out)])
    assert rc == 0
    for name in RUN_ARTIFACTS:
        assert (out / name).exists(), name
    line = capsys.readouterr().out
    assert line.startswith("urban-fire: tasks_completed=4/4 ")
    assert "mean_t_e2e_s=" in line
    assert "reported_to_virtual_s=" in line
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "urban-fire"
    assert summary["tasks_completed"] == 4


def test_format_csv_skips_the_summary(tmp_path, scenario_path):
    out = tmp_path / "out"
    main(["--scenario", str(scenario_path), "--out", str(out),
          "--format", "csv"])
    assert (out / "trace.log").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "samples.csv").exists()
    assert not (out / "summary.json").exists()


def test_format_summary_skips_the_tables(tmp_path, scenario_path):
    out = tmp_path / "out"
    main(["--scenario", str(scenario_path), "--out", str(out),
          "--format", "summary"])
    assert (out / "trace.log").exists()
    assert (out / "summary.json").exists()
    assert not (out / "metrics.csv").exists()
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("fmt, kept", [
    ("csv", ["metrics.csv", "samples.csv"]),
    ("summary", ["summary.json"]),
])
def test_a_format_run_removes_an_earlier_runs_other_artifacts(
        tmp_path, scenario_path, fmt, kept):
    """A run that writes some metrics artifacts removes the others an
    earlier run left, so no artifact of seed 42 sits beside a seed-7 trace,
    and touches no other file."""
    out = tmp_path / "out"
    assert main(["--scenario", str(scenario_path), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    assert main(["--scenario", str(scenario_path), "--out", str(out),
                 "--seed", "7", "--format", fmt]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["notes.txt", "trace.log", *kept])
    seven = tmp_path / "seven"
    assert main(["--scenario", str(scenario_path), "--out", str(seven),
                 "--seed", "7"]) == 0
    for name in ["trace.log", *kept]:
        assert (out / name).read_bytes() == (seven / name).read_bytes(), name


def test_seed_override_lands_in_the_summary(tmp_path, scenario_path):
    out = tmp_path / "out"
    main(["--scenario", str(scenario_path), "--out", str(out), "--seed", "7"])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7


# ------------------------------------------------------------ reproducibility


def test_reruns_are_byte_identical(tmp_path, scenario_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["--scenario", str(scenario_path), "--out", str(out_a)])
    main(["--scenario", str(scenario_path), "--out", str(out_b)])
    assert read_artifacts(out_a) == read_artifacts(out_b)


def test_runs_do_not_depend_on_the_hash_seed(tmp_path, scenario_path):
    outs = []
    for hash_seed, sub in (("0", "a"), ("12345", "b")):
        out = tmp_path / sub
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "birdsim.cli",
             "--scenario", str(scenario_path), "--out", str(out)],
            capture_output=True, env=env, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(read_artifacts(out))
    assert outs[0] == outs[1]


# -------------------------------------------------------------------- sweeps


def test_sweep_produces_rows_and_aggregates(tmp_path, scenario_path):
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval",
        "values": [2.0, 4.0],
        "replicates": 3,
        "base_seed": 5,
    })
    out = tmp_path / "out"
    rc = main(["--scenario", str(scenario_path), "--sweep", spec,
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader((out / "sweep_rows.csv").open()))
    assert len(rows) == 6
    assert sorted({r["value"] for r in rows}) == ["2.0", "4.0"]
    assert [r["seed"] for r in rows[:3]] == ["5", "6", "7"]
    agg = list(csv.DictReader((out / "sweep_aggregate.csv").open()))
    assert len(agg) == 2
    assert all(a["replicates"] == "3" for a in agg)


def test_aggregates_recompute_exactly_from_the_rows(tmp_path, scenario_path):
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "link_variance_scale",
        "values": [0.0, 1.0],
        "replicates": 3,
    })
    out = tmp_path / "out"
    main(["--scenario", str(scenario_path), "--sweep", spec, "--out", str(out)])
    rows = list(csv.DictReader((out / "sweep_rows.csv").open()))
    agg = {a["value"]: a for a in csv.DictReader((out / "sweep_aggregate.csv").open())}
    def spread(vals):
        return float(np.std(np.asarray(vals) - vals[0]))

    for value in ("0.0", "1.0"):
        group = [r for r in rows if r["value"] == value]
        e2e = [float(r["mean_t_e2e_s"]) for r in group if r["mean_t_e2e_s"]]
        comm = [float(r["mean_t_comm_s"]) for r in group if r["mean_t_comm_s"]]
        done = [int(r["tasks_completed"]) for r in group]
        assert agg[value]["tasks_completed_mean"] == repr(float(np.mean(done)))
        assert agg[value]["t_e2e_mean_s"] == repr(float(np.mean(e2e)))
        assert agg[value]["t_e2e_std_s"] == repr(spread(e2e))
        assert agg[value]["t_comm_mean_s"] == repr(float(np.mean(comm)))
        assert agg[value]["t_comm_std_s"] == repr(spread(comm))
    # with the noise off, replicates cannot disagree
    assert float(agg["0.0"]["t_comm_std_s"]) == 0.0
    assert float(agg["0.0"]["t_e2e_std_s"]) == 0.0


def test_altitude_sweep_shows_the_band_penalty(tmp_path):
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "altitude_profile",
        "values": [30.0, 70.0],
        "replicates": 1,
    })
    out = tmp_path / "out"
    rc = main(["--scenario", scenario, "--sweep", spec, "--out", str(out)])
    assert rc == 0
    agg = {a["value"]: a for a in csv.DictReader((out / "sweep_aggregate.csv").open())}
    low_band = float(agg["30.0"]["t_comm_mean_s"])
    high_band = float(agg["70.0"]["t_comm_mean_s"])
    assert high_band > low_band


def sweep_digests(tmp_path, scenario, sweep):
    """sha256 of sweep_rows.csv and sweep_aggregate.csv of one CLI sweep."""
    spec = write_yaml(tmp_path / "sweep.yaml", sweep)
    out = tmp_path / "out"
    assert main(["--scenario", str(scenario), "--sweep", spec, "--out", str(out)]) == 0
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("sweep_rows.csv", "sweep_aggregate.csv")]


def test_bundled_sweep_bytes_are_pinned(tmp_path, scenario_path):
    # ints, 0.0, and floats such as 0.15749999999999997 in both tables
    assert sweep_digests(tmp_path, scenario_path, {
        "parameter": "payload_scale", "values": [0.0, 1.0, 1000.0],
        "replicates": 2, "base_seed": 3,
    }) == [
        "c58ce60e637c53758fec76b3c2b9ad9d1dc3a54f16919a7e7e75f53a305be688",
        "1a7cb9556293e27105053634b74384c417b1af17bb926f7bf427bddd6d3ed0d2",
    ]


def test_sweep_bytes_with_empty_cells_are_pinned(tmp_path):
    # at payload scale 1e6 no input transfer ends within the mission, so
    # mean_t_e2e_s, mean_t_comm_s and the value's aggregate cells are empty
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    assert sweep_digests(tmp_path, scenario, {
        "parameter": "payload_scale", "values": [1.0, 1000000.0], "replicates": 2,
    }) == [
        "ffadd4af1e229c28f2125f5fb2b5ba990fadb7981da7351257398d62cf295d6f",
        "1230d5d6f4cbcf14238ebf4dddb87ea4f7febe78687e567ef7936fd0ef0dd4b1",
    ]


# The sweep of each other parameter over the bundled mission. The runs of an
# update_interval or link_variance_scale sweep share one run plan, while each
# altitude_profile value, like each payload_scale value, needs its own: a
# plan shared with a value it does not fit moves these digests.
OTHER_SWEEP_PINS = {
    "update_interval": ([0.5, 1.0, 4.0], 5, [
        "873924ea48ffccaa2c32e7c7f66d4e2a7c89c1e6cd1dd06226adaaa62ae576df",
        "1b212eda9246efe0b3e3ea9020f3430dcc4ae8a9171ed62237ee1bb55c3c9fac",
    ]),
    "link_variance_scale": ([0.0, 0.5, 1.0], 1, [
        "cd2da7c4bb7d23b0ae980e8f1b9e061d1e74a2c490828a2cb3185bda3c55dc4e",
        "8d9685c9f1072df8e70b0c2b815e339ff80fcbe4551cf8ac3a81acd659b96e67",
    ]),
    # 30 m flies in the low band, 70 m and 100 m in the high one
    "altitude_profile": ([30.0, 70.0, 100.0], 2, [
        "e47745b4f28543dfa21648fcfe609a60d9460c6f3167062af72e7af35ceddd20",
        "d242cfdb0167fc734c5be1d95aff10a2fe2b2e9f0798e723a64ec7ae346fa1e2",
    ]),
}


@pytest.mark.parametrize("parameter", sorted(OTHER_SWEEP_PINS))
def test_the_sweep_bytes_of_every_other_parameter_are_pinned(tmp_path, scenario_path, parameter):
    values, base_seed, digests = OTHER_SWEEP_PINS[parameter]
    assert sweep_digests(tmp_path, scenario_path, {
        "parameter": parameter, "values": values, "replicates": 2, "base_seed": base_seed,
    }) == digests


def test_bad_sweep_specs_are_rejected(tmp_path, scenario_path, capsys):
    bad = write_yaml(tmp_path / "bad.yaml", {
        "parameter": "warp_factor", "values": [1.0], "replicates": 1,
    })
    assert main(["--scenario", str(scenario_path), "--sweep", bad,
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    unknown_key = write_yaml(tmp_path / "bad2.yaml", {
        "parameter": "update_interval", "values": [1.0], "knob": 3,
    })
    assert main(["--scenario", str(scenario_path), "--sweep", unknown_key,
                 "--out", str(tmp_path / "o")]) == 1


# --------------------------------------------------------------- feasibility


def test_feasibility_line_for_one_band(capsys):
    """Spaces around the band are ignored."""
    assert main(["--feasibility", "25,high"]) == 0
    assert main(["--feasibility", "25, high"]) == 0
    out = capsys.readouterr().out
    assert out == ("band=high bitrate_mbps=25.00 ul_mean_mbps=37.12 "
                   "sustainable=yes headroom_mbps=12.12\n") * 2


def test_feasibility_boundary_is_not_sustainable(capsys):
    assert main(["--feasibility", "48.13,low"]) == 0
    out = capsys.readouterr().out
    assert "sustainable=no" in out
    assert "headroom_mbps=0.00" in out


def test_feasibility_without_a_band_covers_all_regimes(capsys):
    assert main(["--feasibility", "25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines] == ["band=low", "band=high",
                                             "band=rotation"]


def test_feasibility_uses_scenario_band_overrides(tmp_path, capsys):
    doc = mini_doc()
    doc["link"]["bands"] = {"high": {"ul_mean_mbps": 20.0}}
    scenario = write_yaml(tmp_path / "mini.yaml", doc)
    assert main(["--feasibility", "25,high", "--scenario", scenario]) == 0
    out = capsys.readouterr().out
    assert "ul_mean_mbps=20.00" in out
    assert "sustainable=no" in out


def test_feasibility_rejects_bad_input(capsys):
    """Each bad spec exits 1 with one error line. An empty field is a bad
    spec, and a band is spelled as link.bands and the report spell it."""
    empty = ["25,,high", ",25", "25,"]
    misspelled = ["rotating", "low_altitude"]
    for spec in ["fast,high", "-3,high", "25,stratosphere", "25,high,extra", *empty,
                 *[f"25,{band}" for band in misspelled]]:
        assert main([f"--feasibility={spec}"]) == 1, spec
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 9 and all(line.startswith("error: ") for line in err)
    assert err[4:] == [
        *[f'error: --feasibility expects "BITRATE,BAND" or "BITRATE", got {spec!r}'
          for spec in empty],
        *[f"error: unknown band {band!r}; expected one of low, high, rotation"
          for band in misspelled],
    ]


@pytest.mark.parametrize("spec", ["nan,high", "1e400", "inf,low"])
def test_feasibility_rejects_a_non_finite_bitrate(capsys, spec):
    assert main(["--feasibility", spec]) == 1
    bitrate = spec.split(",")[0]
    assert capsys.readouterr().err == f"error: bitrate {bitrate!r} is not finite\n"


# --------------------------------------------------------------------- seeds


@pytest.mark.parametrize("seed", [-1, 2**128, 2**128 + 5],
                         ids=["negative", "key-bound", "past-key-bound"])
def test_seed_outside_the_generator_key_exits_one(tmp_path, capsys, scenario_path, seed):
    out = tmp_path / "o"
    rc = main(["--scenario", str(scenario_path), "--out", str(out), "--seed", str(seed)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --seed must be in [0, 2**128), got {seed}\n"
    assert not out.exists()


def test_seeds_at_the_ends_of_the_key_range_run(tmp_path, scenario_path):
    for seed in (0, 2**128 - 1):
        out = tmp_path / str(seed)
        assert main(["--scenario", str(scenario_path), "--out", str(out),
                     "--seed", str(seed)]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == seed


@pytest.mark.parametrize("base_seed, replicates, ok", [
    (2**128 - 2, 2, True), (2**128 - 1, 2, False), (2**128, 1, False),
], ids=["last-seed-in-key", "last-seed-past-key", "base-seed-past-key"])
def test_sweep_seeds_stay_inside_the_generator_key(tmp_path, capsys, base_seed,
                                                  replicates, ok):
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [4.0], "replicates": replicates,
        "base_seed": base_seed,
    })
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    rc = main(["--scenario", scenario, "--sweep", spec, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if ok:
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "o" / "sweep_rows.csv").open()))
        assert [int(r["seed"]) for r in rows] == [2**128 - 2, 2**128 - 1]
    else:
        assert rc == 1
        assert err == (f"error: {spec}: sweep.base_seed: base_seed + replicates - 1 "
                       "must be < 2**128\n")


def check_single_run_only(tmp_path, capsys, monkeypatch, mode, flag, value):
    """`flag value` with mode, --sweep or --feasibility, exits 1, naming both
    flags, before the mode runs."""
    monkeypatch.setattr("birdsim.cli.run", None)  # a run would raise TypeError
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [4.0], "base_seed": 3,
    })
    args = {"--sweep": ["--scenario", scenario, "--sweep", spec],
            "--feasibility": ["--feasibility", "25,high"]}[mode]
    out = tmp_path / "o"
    assert main([*args, flag, value, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {flag} applies to single runs only; it cannot be "
                            f"combined with {mode}\n")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("mode", ["--sweep", "--feasibility"])
def test_seed_is_for_single_runs_only(tmp_path, capsys, monkeypatch, mode):
    check_single_run_only(tmp_path, capsys, monkeypatch, mode, "--seed", "99")


@pytest.mark.parametrize("mode", ["--sweep", "--feasibility"])
@pytest.mark.parametrize("fmt", ["summary", "both"])
def test_format_is_for_single_runs_only(tmp_path, capsys, monkeypatch, mode, fmt):
    # even the single run's default is an error outside a single run
    check_single_run_only(tmp_path, capsys, monkeypatch, mode, "--format", fmt)


def test_out_is_for_runs_and_sweeps(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--feasibility", "25,high", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --out applies to runs and sweeps only; it cannot be "
                            "combined with --feasibility\n")
    assert captured.out == ""
    assert not out.exists()


def test_sweep_cannot_join_feasibility(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("birdsim.cli.run", None)  # a run would raise TypeError
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [4.0],
    })
    assert main(["--scenario", scenario, "--sweep", spec,
                 "--feasibility", "25,high"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: --sweep applies to scenario runs only; it cannot be "
                            "combined with --feasibility\n")
    assert captured.out == ""


def test_sweep_values_are_checked_before_any_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr("birdsim.cli.run", lambda *a, **k: runs.append(a))
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [2.0, -1.0],
    })
    out = tmp_path / "o"
    assert main(["--scenario", scenario, "--sweep", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {spec}: sweep.values[1]: update_interval must be > 0, got -1.0\n"
    )
    assert runs == []
    assert not out.exists()


# ---------------------------------------------------------------- exit codes


def test_missing_scenario_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "absent.yaml"
    rc = main(["--scenario", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(missing) in err


def _directory(tmp_path):
    path = tmp_path / "a_directory.yaml"
    path.mkdir()
    return path


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("name: caf\u00e9\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("make", [_directory, _not_utf8], ids=["directory", "not-utf8"])
def test_unreadable_scenario_exits_one(tmp_path, capsys, make):
    path = make(tmp_path)
    rc = main(["--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not readable: ")
    assert len(err.splitlines()) == 1


def test_unreadable_sweep_spec_exits_one(tmp_path, capsys, scenario_path):
    spec = _not_utf8(tmp_path)
    rc = main(["--scenario", str(scenario_path), "--sweep", str(spec),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: not readable: ")


def test_out_below_a_regular_file_exits_one(tmp_path, capsys):
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["--scenario", scenario, "--out", str(blocker / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_invalid_scenario_exits_one(tmp_path, capsys):
    doc = mini_doc()
    doc["tasks"][0]["required_programs"] = ["ghost"]
    scenario = write_yaml(tmp_path / "bad.yaml", doc)
    rc = main(["--scenario", scenario, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "ghost" in capsys.readouterr().err


def test_a_program_listed_twice_exits_one(tmp_path, capsys):
    doc = mini_doc()
    doc["tasks"][0]["required_programs"] = ["p", "p"]
    scenario = write_yaml(tmp_path / "twice.yaml", doc)
    rc = main(["--scenario", scenario, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: tasks[0].required_programs[1]: duplicate"
    )
    assert not (tmp_path / "o").exists()


def _set_update_interval(doc):
    doc["update_interval_s"] = float("inf")


def _set_compute_cost(doc):
    doc["programs"][0]["compute_cost"] = float("nan")


def _set_predicate(doc):
    doc["timeline"] = [{"phase_id": "a", "completes_when": {"task_completed": []}},
                       {"phase_id": "b"}]


@pytest.mark.parametrize("mutate, path", [
    (_set_update_interval, "scenario.update_interval_s: must be finite"),
    (_set_compute_cost, "programs[0].compute_cost: must be finite"),
    (_set_predicate, "timeline[0].completes_when.task_completed: expected a string"),
])
def test_non_finite_or_mistyped_fields_exit_one(tmp_path, capsys, mutate, path):
    doc = mini_doc()
    mutate(doc)
    scenario = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   pytest.param(10**400, id="int-beyond-float-range")])
def test_non_finite_sweep_value_exits_one(tmp_path, capsys, value):
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [1.0, value],
    })
    rc = main(["--scenario", scenario, "--sweep", spec, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "values[1]: must be finite" in err


@pytest.mark.parametrize("key, value, message", [
    ("replicates", 2.5, "expected an integer, got float"),
    ("replicates", True, "expected an integer, got bool"),
    ("replicates", [1], "expected an integer, got list"),
    ("base_seed", -0.5, "expected an integer, got float"),
    ("base_seed", float("inf"), "expected an integer, got float"),
], ids=["replicates-float", "replicates-bool", "replicates-list", "base_seed-float",
        "base_seed-inf"])
def test_sweep_spec_integer_fields_exit_one(tmp_path, capsys, key, value, message):
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [1.0], key: value,
    })
    rc = main(["--scenario", scenario, "--sweep", spec, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"sweep.{key}: {message}" in err


def make_runs_abort(monkeypatch):
    """From here on every run aborts at its first wire response, as a module
    error surfacing mid-run would, after its first Tick record."""
    def fault(self, key, t, breakdown):
        raise RuntimeError(f"injected fault at {key}")

    monkeypatch.setattr("birdsim.protocol.ProtocolState.on_response", fault)


def test_aborting_run_exits_two(tmp_path, capsys, monkeypatch):
    """An aborted run writes its partial trace, ending in the Abort record,
    and no other artifact."""
    make_runs_abort(monkeypatch)
    scenario = write_yaml(tmp_path / "aborts.yaml", mini_doc())
    out = tmp_path / "o"
    rc = main(["--scenario", scenario, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("abort:")
    assert sorted(p.name for p in out.iterdir()) == ["trace.log"]
    lines = (out / "trace.log").read_text().splitlines()
    assert " kind=Abort " in lines[-1]
    assert not any(" kind=Abort " in line for line in lines[:-1])
    assert any(" kind=Tick " in line for line in lines)


def test_aborted_run_leaves_no_earlier_run_artifacts(tmp_path, capsys, monkeypatch):
    """An aborted run into a directory that holds a good run's artifacts
    removes the good run's metrics, samples and summary, so the partial
    trace is never paired with them, and touches no other file."""
    out = tmp_path / "o"
    assert main(["--scenario", write_yaml(tmp_path / "ok.yaml", mini_doc()),
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_ARTIFACTS)
    (out / "notes.txt").write_text("kept")
    make_runs_abort(monkeypatch)
    rc = main(["--scenario", write_yaml(tmp_path / "aborts.yaml", mini_doc()),
               "--out", str(out)])
    assert rc == 2
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "trace.log"]
    assert (out / "notes.txt").read_text() == "kept"
    assert " kind=Abort " in (out / "trace.log").read_text().splitlines()[-1]


def test_aborting_sweep_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch):
    make_runs_abort(monkeypatch)
    scenario = write_yaml(tmp_path / "aborts.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [2.0],
    })
    out = tmp_path / "o"
    assert main(["--scenario", scenario, "--sweep", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("abort:")
    assert not out.exists()


def test_scenario_is_required_without_feasibility(capsys):
    assert main([]) == 1
    assert "--scenario" in capsys.readouterr().err


# ------------------------------------------------------------------- logging


def test_log_env_var_controls_stderr(tmp_path, scenario_path):
    def run_cli(log_value):
        env = dict(os.environ, BIRDSIM_LOG=log_value)
        return subprocess.run(
            [sys.executable, "-m", "birdsim.cli",
             "--scenario", str(scenario_path),
             "--out", str(tmp_path / log_value)],
            capture_output=True, env=env, text=True,
        )

    quiet = run_cli("off")
    assert quiet.returncode == 0
    assert quiet.stderr == ""
    chatty = run_cli("trace")
    assert chatty.returncode == 0
    assert "birdsim" in chatty.stderr
    assert len(chatty.stderr) > len(quiet.stderr)


def test_a_logged_sweep_reports_each_value_run_and_record(tmp_path):
    """Under BIRDSIM_LOG=trace a sweep, whose runs keep no trace, still logs
    every record of every run, each run's `done` line with the events it
    handled, and one progress line per value."""
    scenario = write_yaml(tmp_path / "mini.yaml", mini_doc())
    spec = write_yaml(tmp_path / "sweep.yaml", {
        "parameter": "update_interval", "values": [1.0, 2.0], "replicates": 2,
        "base_seed": 5,
    })
    proc = subprocess.run(
        [sys.executable, "-m", "birdsim.cli", "--scenario", scenario,
         "--sweep", spec, "--out", str(tmp_path / "o")],
        capture_output=True, env=dict(os.environ, BIRDSIM_LOG="trace"), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    base = load_scenario(scenario)
    records, events = [], []
    for value in (1.0, 2.0):
        for seed in (5, 6):
            trace = run(apply_sweep_value(base, "update_interval", value), seed=seed).trace
            records += trace
            # the Flush record's seq is the number of events the run handled
            events.append(int(trace[-1].split(" seq=")[1].split(" ")[0]))
    engine_lines = [line.removeprefix("birdsim.engine: ") for line in lines
                    if line.startswith("birdsim.engine: t=")]
    assert engine_lines == records
    done = [line for line in lines if line.startswith("birdsim.engine: done ")]
    assert [int(line.split(" events=")[1].split(" ")[0]) for line in done] == events
    assert min(events) > 0
    progress = [line for line in lines if line.startswith("birdsim.cli: sweep ")]
    assert [line.split(" wall_s=")[0] for line in progress] == [
        f"birdsim.cli: sweep parameter=update_interval value={value} replicates=2"
        for value in (1.0, 2.0)
    ]
