"""The docs are the contract. docs/scenario-schema.md lists, in its key
tables, the keys that the loader accepts, and in its parameter table the
sweepable parameters. docs/output-formats.md lists the fields of each trace
record kind, the columns of each CSV and the keys of summary.json. A
mismatch names the doc, the section and the name, so a doc edit and a code
edit land together."""

import copy
import json
import re

import pytest
import yaml

from birdsim import Band, RunAborted, default_link_params, load_scenario, run
from birdsim.cli import SWEEP_AGGREGATE_COLUMNS, SWEEP_ROW_COLUMNS
from birdsim.engine import METRICS_COLUMNS, SAMPLES_COLUMNS, summary_dict
from birdsim.scenario import SECTION_KEYS, SWEEP_PARAMETERS, load_sweep_spec

from conftest import BUNDLED_SCENARIO, ROOT
from test_cli import make_runs_abort
from test_digests import trace_variants
from test_engine import reported_tie_scenario

SCHEMA = "docs/scenario-schema.md"
OUTPUTS = "docs/output-formats.md"
GOLDEN_TRACE = ROOT / "tests" / "golden" / "urban_fire_trace.log"

# the SECTION_KEYS entry of each schema heading that does not name it itself
SCHEMA_SECTIONS = {"Top-level keys": "scenario", "Sweep spec": "sweep"}


def sections(doc: str) -> dict[str, str]:
    """The text of each `##` or `###` section of a doc, by its heading."""
    parts = re.split(r"^#{2,3} (.*)\n", (ROOT / doc).read_text(), flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def section(doc: str, prefix: str) -> tuple[str, str]:
    """The heading and text of the one section of doc whose heading starts
    with prefix."""
    found = [(h, text) for h, text in sections(doc).items() if h.startswith(prefix)]
    if len(found) != 1:
        pytest.fail(f"{doc}: {len(found)} sections start with {prefix!r}, not one")
    return found[0]


def tables(text: str) -> list[list[list[str]]]:
    """Each table in text as its rows, header first and the separator left
    out, each row a list of cells; `\\|` inside a cell does not split it."""
    found: list[list[list[str]]] = []
    rows: list[list[str]] = []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            if set(line) - set("|-: "):
                rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
        elif rows:
            found.append(rows)
            rows = []
    return found


def fences(text: str) -> list[str]:
    """The contents of each fenced block in text."""
    return re.findall(r"^```\w*\n(.*?)^```", text, flags=re.M | re.S)


def compare(doc: str, heading: str, what: str, documented, actual, ordered=False) -> list[str]:
    """How documented names differ from the names the code has, one line
    per name, each naming the doc and the section."""
    where = f"{doc}, section {heading!r}"
    problems = [f"{where}: {what} {name!r} is missing from the doc"
                for name in actual if name not in documented]
    problems += [f"{where}: {what} {name!r} is documented but not in the code"
                 for name in documented if name not in actual]
    if ordered and not problems and list(documented) != list(actual):
        problems.append(f"{where}: {what}s are documented in the order "
                        f"{list(documented)}, the code's is {list(actual)}")
    return problems


def grammar_fields(line: str) -> list[str]:
    """The field names of a record, or of a documented grammar line."""
    return re.findall(r"(\w+)=", line)


# ------------------------------------------------------------------- schema


def test_schema_tables_list_the_loader_keys():
    problems: list[str] = []
    documented = set()
    parameter_tables = 0
    for heading, text in sections(SCHEMA).items():
        for table in tables(text):
            names = [row[0].strip("`") for row in table[1:]]
            problems += [f"{SCHEMA}, section {heading!r}: the row of {name!r} has "
                         f"{len(row)} cells under {len(table[0])} headings"
                         for name, row in zip(names, table[1:]) if len(row) != len(table[0])]
            if table[0][0] == "key":
                entry = SCHEMA_SECTIONS.get(heading, heading.strip("`"))
                documented.add(entry)
                problems += compare(SCHEMA, heading, f"{entry} key", names,
                                    SECTION_KEYS.get(entry, ()))
            elif table[0][0] == "`parameter`":
                parameter_tables += 1
                problems += compare(SCHEMA, heading, "sweep parameter", names,
                                    SWEEP_PARAMETERS)
    problems += [f"{SCHEMA}: no section has a key table for {entry!r}"
                 for entry in SECTION_KEYS if entry not in documented]
    if parameter_tables != 1:
        problems.append(f"{SCHEMA}: {parameter_tables} sweep parameter tables, not one")
    assert not problems, "\n".join(problems)


# The smallest scenario, with every optional top-level key left out, and one
# with an item of each list section (node 0, the platform, first) and an
# override of each regime, each with every optional key left out.
BARE = {"name": "defaults", "duration_s": 60.0,
        "nodes": [{"node_id": 0, "kind": "uav5gp", "compute_capacity": 10.0}]}
ITEMS = dict(
    BARE,
    nodes=BARE["nodes"] + [{"node_id": 1, "kind": "ecs", "compute_capacity": 20.0}],
    programs=[{"program_id": "p"}],
    tables=[{"server_id": 1, "program_id": "p"}],
    tasks=[{"task_id": "t", "required_programs": ["p"]}],
    flight_plan=[{"t_s": 0.0, "altitude_m": 10.0}],
    link={"bands": {band.value: {} for band in Band}},
    incident={},
)
SWEEP = {"parameter": "update_interval", "values": [1.0]}


def holders(doc: dict, entry: str) -> list[tuple[Band | None, dict]]:
    """The mappings of doc that hold the keys of the SECTION_KEYS entry, each
    with the regime it overrides, if it overrides one."""
    if entry in ("scenario", "sweep"):
        return [(None, doc)]
    if entry == "link.bands.<band>":
        return [(Band(name), fields) for name, fields in doc["link"]["bands"].items()]
    held = doc[entry]
    return [(None, held[0] if isinstance(held, list) else held)]


def measured(band: Band, key: str) -> float:
    """The regime's measured value of a `link.bands.<band>` key."""
    return getattr(default_link_params()[band], key.rsplit("_", 1)[0])


# each default that the schema states in words, as the value that states it
# explicitly, given the key and the regime its mapping overrides
PROSE = {
    "defaults": lambda key, band: {},  # each `link` key at its own default
    "measured defaults": lambda key, band: {
        b.value: {k: measured(b, k) for k in SECTION_KEYS["link.bands.<band>"]}
        for b in Band},
    "measured": lambda key, band: measured(band, key),
    "one `mission` phase": lambda key, band: [{"phase_id": "mission"}],
    "hold 0 m": lambda key, band: [{"t_s": 0.0, "altitude_m": 0.0}],
    "`1200.0` on node 0": lambda key, band: 1200.0,  # nodes[0] is node 0
}
# the field that each key documented as `absent` loads as, which is None
ABSENT = {
    ("scenario", "truck_arrival_s"): lambda sc: sc.truck_arrival,
    ("incident", "start_s"): lambda sc: sc.incident.start,
    ("incident", "observed_s"): lambda sc: sc.incident.observed,
    ("incident", "reported_s"): lambda sc: sc.incident.reported,
}


def test_each_documented_default_is_what_a_left_out_key_loads_as(tmp_path):
    """For each row of a key table with a default, other than the keys that
    are not simulated: a document that leaves the key out loads as one that
    gives it its documented default."""

    def load(entry, doc):
        if entry != "sweep":
            return load_scenario(doc)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        return load_sweep_spec(path)

    problems: list[str] = []
    checked = set()
    for heading, text in sections(SCHEMA).items():
        for table in tables(text):
            if table[0][0] != "key" or "default" not in table[0]:
                continue
            entry = SCHEMA_SECTIONS.get(heading, heading.strip("`"))
            base = {"scenario": BARE, "sweep": SWEEP}.get(entry, ITEMS)
            for row in table[1:]:
                cells = dict(zip(table[0], row))
                key, default = cells["key"].strip("`"), cells["default"]
                if default == "—" or "not simulated" in cells["meaning"]:
                    continue
                checked.add(entry)
                where = f"{SCHEMA}, section {heading!r}, key {key!r}, default {default!r}"
                left_out = copy.deepcopy(base)
                for _, held in holders(left_out, entry):
                    held.pop(key, None)
                if default == "absent":
                    if (entry, key) not in ABSENT:
                        problems.append(f"{where}: no field is named for it")
                    elif ABSENT[entry, key](load(entry, left_out)) is not None:
                        problems.append(f"{where}: a left-out key loads as a value")
                    continue
                literal = re.fullmatch(r"`([^`]*)`", default)
                if literal is None and default not in PROSE:
                    problems.append(f"{where}: neither a literal nor a mapped phrase")
                    continue
                given = copy.deepcopy(base)
                for band, held in holders(given, entry):
                    held[key] = (yaml.safe_load(literal[1]) if literal
                                 else PROSE[default](key, band))
                if load(entry, left_out) != load(entry, given):
                    problems.append(f"{where}: a left-out key loads otherwise")
    problems += [f"{SCHEMA}: no default of {entry!r} is checked"
                 for entry in ("scenario", "nodes", "programs", "tables", "tasks",
                               "flight_plan", "link", "link.bands.<band>", "incident",
                               "sweep")
                 if entry not in checked]
    assert not problems, "\n".join(problems)


# ------------------------------------------------------------------ outputs


def test_record_fields_are_the_documented_ones(monkeypatch):
    """Over the golden trace, the trace variants, the `reported` tie and an
    aborted run, each kind's fields after the common four are those of its
    row in the kind table, `Abort`'s those of its grammar line, and every
    record starts with the common four."""
    lines = GOLDEN_TRACE.read_text().splitlines()
    lines += run(load_scenario(trace_variants())).trace
    lines += run(reported_tie_scenario()).trace
    make_runs_abort(monkeypatch)
    with pytest.raises(RunAborted) as aborted:
        run(load_scenario(BUNDLED_SCENARIO))
    lines += aborted.value.trace

    heading, text = section(OUTPUTS, "`trace.log`")
    grammar, abort = fences(text)
    common = grammar_fields(grammar)
    documented = {row[0].strip("`"): grammar_fields(row[1])
                  for table in tables(text) if table[0] == ["kind", "fields"]
                  for row in table[1:]}
    documented["Abort"] = grammar_fields(abort)[len(common):]
    emitted: dict[str, set[str]] = {}
    problems: list[str] = []
    for line in lines:
        fields = grammar_fields(line)
        if fields[:len(common)] != common:
            problems.append(f"{OUTPUTS}, section {heading!r}: {line!r} does not "
                            f"start with {common}")
        kind = re.search(r" kind=(\w+)", line)[1]
        emitted.setdefault(kind, set()).update(fields[len(common):])
    problems += compare(OUTPUTS, heading, "record kind", documented, emitted)
    for kind in sorted(documented.keys() & emitted.keys()):
        problems += compare(OUTPUTS, heading, f"{kind} field", documented[kind], emitted[kind])
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("prefix, constants", [
    ("`metrics.csv`", [METRICS_COLUMNS]),
    ("`samples.csv`", [SAMPLES_COLUMNS]),
    ("Sweep artifacts", [SWEEP_ROW_COLUMNS, SWEEP_AGGREGATE_COLUMNS]),
])
def test_column_blocks_are_the_column_constants(prefix, constants):
    heading, text = section(OUTPUTS, prefix)
    blocks = fences(text)
    assert len(blocks) == len(constants), (
        f"{OUTPUTS}, section {heading!r}: {len(blocks)} column blocks, not {len(constants)}")
    problems: list[str] = []
    for block, columns in zip(blocks, constants):
        documented = [name.strip() for name in block.split(",")]
        problems += compare(OUTPUTS, heading, "column", documented, columns, ordered=True)
    assert not problems, "\n".join(problems)


def test_summary_example_has_the_summary_keys():
    heading, text = section(OUTPUTS, "`summary.json`")
    (example,) = [json.loads(block) for block in fences(text)]
    summary = summary_dict(run(load_scenario(BUNDLED_SCENARIO)).metrics)
    problems = compare(OUTPUTS, heading, "summary key", example, summary, ordered=True)
    for key in ("counts", "moments"):
        problems += compare(OUTPUTS, heading, f"{key} key", example.get(key, {}),
                            summary[key], ordered=True)
    assert not problems, "\n".join(problems)
