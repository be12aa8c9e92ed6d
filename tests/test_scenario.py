"""Scenario loading and validation: schema, references, domain invariants."""

import copy
import hashlib
import json
import re
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from birdsim import (
    Band,
    DanglingReference,
    InvariantViolation,
    NodeKind,
    Origin,
    Phase,
    ScenarioError,
    SchemaError,
    load_scenario,
    metrics_to_csv,
    run,
    samples_to_csv,
    summary_to_json,
    trace_to_text,
)
from birdsim import scenario as scenario_module
from birdsim.cli import apply_sweep_value
from birdsim.scenario import SWEEP_PARAMETERS, load_sweep_spec
from conftest import BUNDLED_SCENARIO, bench_build


def minimal_doc():
    return {
        "name": "mini",
        "duration_s": 100.0,
        "nodes": [
            {"node_id": 0, "kind": "uav5gp", "compute_capacity": 25.0,
             "cached_programs": ["p"], "mobile": True},
            {"node_id": 1, "kind": "ecs", "compute_capacity": 100.0,
             "location": [58.9, 0.0, 0.0]},
        ],
        "programs": [
            {"program_id": "p", "task_kind": "object_detection",
             "compute_cost": 40.0, "input_payload_bits": 1000000.0,
             "output_payload_bits": 100000.0},
        ],
        "tables": [{"server_id": 1, "program_id": "p"}],
        "tasks": [{"task_id": "t1", "required_programs": ["p"],
                   "issue_time_s": 5.0, "consumer": 1}],
    }


def with_(mutate):
    doc = minimal_doc()
    mutate(doc)
    return doc


# ------------------------------------------------------------------- loading


def test_bundled_scenario_loads(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.name == "urban-fire"
    assert scenario.seed == 42
    assert scenario.duration == 420.0
    assert scenario.t_int == 2.0
    assert sorted(scenario.nodes) == [0, 1, 2]
    assert len(scenario.tasks) == 4
    assert scenario.truck_arrival == 300.0
    assert scenario.incident.reported == 25.0
    assert scenario.loss == {1: 0.05}


def test_mapping_input_is_accepted():
    scenario = load_scenario(minimal_doc())
    assert scenario.name == "mini"
    assert scenario.nodes[0].battery_budget == 1200.0  # aerial default
    assert scenario.nodes[1].location == (58.9, 0.0, 0.0)
    assert scenario.tasks[0].origin is Origin.COMMANDER_ORDER
    assert scenario.phases == (Phase("mission"),)


def test_json_documents_load(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(minimal_doc()))
    assert load_scenario(path).name == "mini"


def json_round_trip_cases():
    from test_digests import mixed, retry_heavy

    return {
        "bundled": lambda: yaml.safe_load(BUNDLED_SCENARIO.read_text()),
        "retry_heavy": retry_heavy,
        "mixed": lambda: mixed(1.0),
    }


@pytest.mark.parametrize("case", ["bundled", "retry_heavy", "mixed"])
def test_a_document_dumped_as_json_loads_as_the_same_scenario(tmp_path, case):
    """JSON object keys are strings, so the `loss` table reaches the loader
    as {"1": 0.05}; the scenario is the one its YAML form gives."""
    doc = json_round_trip_cases()[case]()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == load_scenario(doc)


def test_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(SchemaError) as err:
        load_scenario(missing)
    assert str(missing) in str(err.value)


def test_unparseable_yaml_is_a_schema_error(monkeypatch, tmp_path):
    """Under the default loader and the pure-Python one, the error names the
    file, for scenarios and sweep specs alike."""
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    for loader in (scenario_module.YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
        for load in (load_scenario, load_sweep_spec):
            with pytest.raises(SchemaError, match="not parseable") as err:
                load(path)
            assert str(path) in str(err.value)


ANCHORED_YAML = """
name: anchored
duration_s: 100.0
nodes:
  - {node_id: 0, kind: uav5gp, compute_capacity: 25.0, mobile: true}
  - &server {node_id: 1, kind: ecs, compute_capacity: 100.0, location: [58.9, 0.0, 0.0]}
  - {<<: *server, node_id: 2, kind: gcs}
programs:
  - &detect
    program_id: p
    task_kind: object_detection
    compute_cost: 40.0
    input_payload_bits: 1000000.0
    output_payload_bits: 100000.0
  - {<<: *detect, program_id: q, compute_cost: 80.0}
tables:
  - {server_id: 1, program_id: p}
  - {server_id: 2, program_id: q}
tasks:
  - {task_id: t1, required_programs: &both [p, q], issue_time_s: 5.0, consumer: 1}
  - {task_id: t2, required_programs: *both, issue_time_s: 9.0, consumer: 2}
"""


def test_both_yaml_loaders_give_equal_scenarios(monkeypatch, tmp_path, scenario_path):
    """The default loader (libyaml's when PyYAML has it) and the pure-Python
    one build equal scenarios, anchors, aliases and merge keys included."""
    if yaml.__with_libyaml__:
        assert scenario_module.YAML_LOADER is yaml.CSafeLoader
    anchored = tmp_path / "anchored.yaml"
    anchored.write_text(ANCHORED_YAML)
    default = [load_scenario(scenario_path), load_scenario(anchored)]
    monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
    assert [load_scenario(scenario_path), load_scenario(anchored)] == default
    assert default[1].nodes[2].compute_capacity == 100.0
    assert default[1].programs["q"].input_payload == 1000000.0
    assert default[1].tasks[1].required_programs == ("p", "q")


# -------------------------------------------------------------- YAML and JSON


def test_json_numbers_with_exponents_are_numbers(tmp_path):
    """json.dumps writes 0.00001 as 1e-05, and a hand-written 1e2 is JSON
    too; YAML 1.1 reads both as strings, JSON as numbers. This is the one
    difference from yaml.load on JSON text."""
    doc = minimal_doc()
    doc["tasks"][0]["issue_time_s"] = 1e-05
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc).replace('"duration_s": 100.0', '"duration_s": 1e2'))
    assert "1e-05" in path.read_text() and "1e2" in path.read_text()
    for loader in LOADERS:
        as_yaml = yaml.load(path.read_text(), Loader=loader)
        assert (as_yaml["duration_s"], as_yaml["tasks"][0]["issue_time_s"]) == ("1e2", "1e-05")
    scenario = load_scenario(path)
    assert scenario.duration == 100.0
    assert scenario.tasks[0].issue_time == 1e-05
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"parameter": "update_interval", "values": [1e-05, 2.0]}))
    assert load_sweep_spec(sweep).values == (1e-05, 2.0)


def test_json_nan_and_yaml_flow_mappings_are_read_as_yaml(tmp_path):
    """NaN is not JSON, so the text is read as YAML, where NaN is a string;
    a flow mapping that is not JSON is read as YAML too."""
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(minimal_doc()).replace('"duration_s": 100.0', '"duration_s": NaN'))
    with pytest.raises(SchemaError, match=r"scenario\.duration_s: expected a number, got str"):
        load_scenario(path)
    flow = tmp_path / "flow.yaml"
    flow.write_text("  {parameter: update_interval, values: [0.5, 1e2], replicates: 2}\n")
    with pytest.raises(SchemaError, match=r"sweep\.values\[1\]: expected a number, got str"):
        load_sweep_spec(flow)
    flow.write_text("{parameter: update_interval, values: [0.5, 1.0e+2], replicates: 2}\n")
    assert load_sweep_spec(flow).values == (0.5, 100.0)


def same_document(a, b, seen=None) -> bool:
    """a and b are equal with equal types throughout, mapping keys in the
    same order, and their lists and dicts aliased alike: where a meets one
    of its containers again, b meets the matching one."""
    if seen is None:
        seen = ({}, {})
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, dict)):
        there, back = seen
        if id(a) in there or id(b) in back:
            return there.get(id(a)) is b and back.get(id(b)) is a
        there[id(a)], back[id(b)] = b, a
        if isinstance(a, dict):
            a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_document(x, y, seen) for x, y in zip(a, b))
    if isinstance(a, float) and a != a:
        return b != b
    return a == b


LOADERS = (scenario_module.YAML_LOADER, yaml.SafeLoader)


def read_text(text, directory):
    path = directory / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    return scenario_module.read_yaml(path)


def check_read_as_safeloader_reads(text, directory):
    """Under each loader, read_yaml gives what yaml.load gives, or rejects
    the text as not parseable where yaml.load raises."""
    for loader in LOADERS:
        with mock.patch.object(scenario_module, "YAML_LOADER", loader):
            try:
                expected = yaml.load(text, Loader=loader)
            except Exception:
                with pytest.raises(SchemaError, match="not parseable"):
                    read_text(text, directory)
            else:
                assert same_document(read_text(text, directory), expected), (loader, text)


SCALAR_TEXTS = (
    "1_000", "0x1f", "0o17", "017", "0b101", "1:30", "-7", "+3", "3.25", "-1_0.5", "1e2",
    "1.0e+5", ".inf", "-.inf", ".nan", "~", "null", "yes", "No", "on", "OFF", "true",
    "2001-01-01", "2001-12-14t21:59:43.10-05:00", "''", "'1'", '"2.5"', "'yes'", "abc",
    "x y", "!!str 1", "!!float 2", "!!int '7'", "!!bool on", "!!null ''", "!!binary aGk=",
)
KEY_TEXTS = ("a", "b", "c", "1", "'1'", "~", "yes", "2001-01-01", "x y")


def yaml_nodes():
    """Trees of ("scalar", text, anchored), ("alias", n), ("seq", children,
    anchored, flow) and ("map", entries, anchored, flow); a map entry is
    (key text, child) or (("<<", [n, ...]), unused child)."""
    leaf = st.one_of(
        st.tuples(st.just("scalar"), st.sampled_from(SCALAR_TEXTS), st.booleans()),
        st.tuples(st.just("alias"), st.integers(0, 20)),
    )
    key = st.one_of(st.sampled_from(KEY_TEXTS),
                    st.tuples(st.just("<<"), st.lists(st.integers(0, 20), min_size=1, max_size=3)))
    return st.recursive(leaf, lambda children: st.one_of(
        st.tuples(st.just("seq"), st.lists(children, max_size=4), st.booleans(), st.booleans()),
        st.tuples(st.just("map"), st.lists(st.tuples(key, children), max_size=4),
                  st.booleans(), st.booleans()),
    ), max_leaves=12)


class YamlWriter:
    """Writes a yaml_nodes() tree as YAML text. An alias names one of the
    anchors written so far, an open collection's too, so aliases can
    recurse; a merge takes closed anchored mappings or flow mappings."""

    def __init__(self):
        self.anchors = []  # [name, is a mapping, closed]

    def document(self, node):
        return "---" + self.after(node, 0) + "\n"

    def _anchor(self, is_map, closed):
        entry = [f"a{len(self.anchors)}", is_map, closed]
        self.anchors.append(entry)
        return entry

    def _open(self, node):
        if not node[2]:
            return None, ""
        entry = self._anchor(node[0] == "map", False)
        return entry, f"&{entry[0]} "

    def _merge(self, picks):
        """An alias of a closed anchored mapping for a pick below 10, if
        there is one, else a flow mapping whose keys overlap the others'."""
        maps = [name for name, is_map, closed in self.anchors if is_map and closed]
        merged = [f"*{maps[n % len(maps)]}" if maps and n < 10 else f"{{a: {n}, 'b': {n % 3}}}"
                  for n in picks]
        return merged[0] if len(merged) == 1 else "[" + ", ".join(merged) + "]"

    def flow(self, node):
        if node[0] == "scalar":
            return (f"&{self._anchor(False, True)[0]} " if node[2] else "") + node[1]
        if node[0] == "alias":
            return f"*{self.anchors[node[1] % len(self.anchors)][0]}" if self.anchors else "'none'"
        entry, anchor = self._open(node)
        if node[0] == "seq":
            text = anchor + "[" + ", ".join(self.flow(child) for child in node[1]) + "]"
        else:
            text = anchor + "{" + ", ".join(
                f"<<: {self._merge(key[1])}" if isinstance(key, tuple)
                else f"{key}: {self.flow(child)}" for key, child in node[1]) + "}"
        if entry:
            entry[2] = True
        return text

    def after(self, node, indent):
        """node as the text that follows `key:`, `-` or `---`."""
        if node[0] in ("scalar", "alias") or node[3] or not node[1]:
            return " " + self.flow(node)
        entry, anchor = self._open(node)
        text = " " + anchor.strip() if anchor else ""
        pad = "\n" + " " * indent
        for item in node[1]:
            if node[0] == "seq":
                text += pad + "-" + self.after(item, indent + 2)
            elif isinstance(item[0], tuple):
                text += pad + "<<: " + self._merge(item[0][1])
            else:
                text += pad + f"{item[0]}:" + self.after(item[1], indent + 2)
        if entry:
            entry[2] = True
        return text


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(yaml_nodes())
def test_documents_read_as_safeloader_reads_them(tmp_path, node):
    check_read_as_safeloader_reads(YamlWriter().document(node), tmp_path)


READ_CASES = {
    "empty stream": "",
    "comment only": "# nothing\n",
    "empty document": "---\n",
    "core scalars": "[1_000, 0x1f, 0o17, 1:30, .inf, ~, yes, No, 2001-01-01, '', '1', \"2\"]\n",
    "duplicate keys": "a: 1\nb: 2\na: 3\n",
    "merge": "x: &x {a: 1, b: 2}\ny: {c: 0, <<: *x, b: 9}\n",
    "merge list": "x: &x {a: 1, b: 2}\ny: &y {b: 3, c: 4}\nz: {<<: [*x, *y], d: 5}\n",
    "two merge keys": "x: &x {a: 1}\ny: &y {a: 2, b: 2}\nz: {<<: *x, <<: *y}\n",
    "merged merge": "x: &x {a: 1}\ny: &y {<<: *x, b: 2}\nz: {<<: *y, c: 3}\n",
    "explicit tags": "a: !!str 1\nb: !!float 2\nc: !!int '3'\nd: !!binary aGk=\ne: ! 4\n",
}
ERROR_CASES = {
    "undefined alias": "a: *nowhere\n",
    "duplicate anchor": "a: &x 1\nb: &x 2\n",
    "second document": "a: 1\n---\nb: 2\n",
    "unhashable key": "? [a]\n: 1\n",
    "unhashable alias key": "a: &l [1]\n*l : 2\n",
    "unknown tag": "a: !unknown 1\n",
    "bad merge value": "a: {<<: 1}\n",
    "bad merge list": "a: &m {x: 1}\nb: {<<: [*m, 2]}\n",
    "value key as a value": "a: =\n",
    "tag on the wrong node": "a: !!map [1]\n",
    "text the tag cannot read": "a: !!int x\n",
    "impossible date": "a: 2001-13-45\n",
}


@pytest.mark.parametrize("case", READ_CASES)
def test_read_cases(tmp_path, case):
    check_read_as_safeloader_reads(READ_CASES[case], tmp_path)


# a text written plain and in another form, each used as a key and as a
# value, in both orders: the scalar memo must not read either as the other
MEMO_KEY_CASES = {
    f"{first} then {second}": f"{first}: {second}\n{second}: {first}\n"
    for text in ("1", "yes", "~")
    for other in (f"'{text}'", f'"{text}"', f"!!str {text}")
    for first, second in ((text, other), (other, text))
}


@pytest.mark.parametrize("case", MEMO_KEY_CASES)
def test_a_plain_scalar_and_its_quoted_or_tagged_text_read_apart(tmp_path, case):
    check_read_as_safeloader_reads(MEMO_KEY_CASES[case], tmp_path)


# yaml.load reads these, but each uses `!!set`, `!!omap`, `!!pairs` or the
# `=` key, which build what no field of a scenario or a sweep spec reads
NARROWED_CASES = {
    "set": "site: !!set {a, b}\n",
    "omap": "site: {o: !!omap [{a: 1}]}\n",
    "pairs": "site: {p: !!pairs [{a: 1}, {a: 2}]}\n",
    "value key": "site: {=: 1}\n",
    "value key under a scalar tag": "a: !!str {=: x}\n",
    "merged set": "m: &m !!set {a, b}\nn: {<<: *m}\n",
    "merged omap": "a: {<<: !!omap [{p: 1}]}\n",
    "merged pairs": "a: {<<: !!pairs [{p: 1}]}\n",
}


def check_not_parseable(text, directory, loader):
    with mock.patch.object(scenario_module, "YAML_LOADER", loader):
        with pytest.raises(SchemaError, match="not parseable") as err:
            read_text(text, directory)
    assert str(directory / "doc.yaml") in str(err.value)


@pytest.mark.parametrize("case", ERROR_CASES)
def test_error_cases_are_not_parseable(tmp_path, case):
    """Each is rejected under both loaders, with the path; yaml.load
    rejects it too, `!!int x` and the date with a bare ValueError."""
    for loader in LOADERS:
        with pytest.raises((yaml.YAMLError, ValueError)):
            yaml.load(ERROR_CASES[case], Loader=loader)
        check_not_parseable(ERROR_CASES[case], tmp_path, loader)


# a `<<` that is no mapping's key; the last two come after a valid `<<` key,
# so the builder already holds the merge key's value when it meets them
MISPLACED_MERGE_KEYS = {
    "merge key as a value": "a: <<\n",
    "merge key as an item": "x: [<<]\n",
    "merge key as a value after a merge": "m: {<<: {a: 1}}\na: <<\n",
    "merge key as an item after a merge": "m: {<<: {a: 1}}\nx: [<<]\n",
}


@pytest.mark.parametrize("case", MISPLACED_MERGE_KEYS)
def test_a_misplaced_merge_key_is_not_parseable_with_yaml_loads_problem(tmp_path, case):
    text = MISPLACED_MERGE_KEYS[case]
    for loader in LOADERS:
        with pytest.raises(yaml.constructor.ConstructorError) as expected:
            yaml.load(text, Loader=loader)
        assert expected.value.problem == (
            "could not determine a constructor for the tag 'tag:yaml.org,2002:merge'")
        with mock.patch.object(scenario_module, "YAML_LOADER", loader):
            with pytest.raises(SchemaError) as err:
                read_text(text, tmp_path)
        assert str(err.value) == f"{tmp_path / 'doc.yaml'}: not parseable: {expected.value}"


@pytest.mark.parametrize("case", NARROWED_CASES)
def test_tags_that_no_scenario_can_hold_are_not_parseable(tmp_path, case):
    """Each is rejected under both loaders, with the path, where yaml.load
    reads it."""
    for loader in LOADERS:
        yaml.load(NARROWED_CASES[case], Loader=loader)
        check_not_parseable(NARROWED_CASES[case], tmp_path, loader)


def test_recursive_aliases_are_the_containers_themselves(tmp_path):
    for loader in LOADERS:
        with mock.patch.object(scenario_module, "YAML_LOADER", loader):
            d = read_text("a: &r [*r, {b: *r}]\nc: &m {self: *m, <<: {x: 1}}\n", tmp_path)
            root = read_text("&r [*r]\n", tmp_path)
        assert d["a"][0] is d["a"] and d["a"][1]["b"] is d["a"]
        assert d["c"]["self"] is d["c"] and d["c"]["x"] == 1
        assert root[0] is root


@pytest.mark.parametrize("name", ["reference", "storm", "wide"])
def test_the_bench_documents_read_as_safeloader_reads_them(tmp_path, name):
    for seed in (1, 2, 7):
        text = bench_build(name, seed).scenario_text
        expected = yaml.load(text, Loader=scenario_module.YAML_LOADER)
        assert same_document(read_text(text, tmp_path), expected)


JSON_KEYS = ("name", "duration_s", "nodes", "node_id", "kind", "location", "programs",
             "program_id", "tasks", "required_programs", "loss", "1", "site", "")


def json_documents():
    """Scenario-shaped JSON documents: mappings at the top, with numbers
    whose JSON text YAML 1.1 reads as a number. Floats are drawn only where
    that text has a dot; YAML 1.1 reads one such as 1e-05 as a string
    (test_json_numbers_with_exponents_are_numbers)."""
    number = st.one_of(st.integers(-2**70, 2**70),
                       st.floats(allow_nan=False, allow_infinity=False).filter(
                           lambda x: "." in repr(x)))
    text = st.text(st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)), max_size=6)
    key = st.one_of(st.sampled_from(JSON_KEYS), text)
    value = st.recursive(st.one_of(st.none(), st.booleans(), number, text), lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(key, children, max_size=4)
    ), max_leaves=16)
    return st.dictionaries(key, value, max_size=6)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_documents())
def test_json_documents_read_as_safeloader_reads_them(tmp_path, doc):
    text = json.dumps(doc)
    read = read_text(text, tmp_path)
    for loader in LOADERS:
        assert same_document(read, yaml.load(text, Loader=loader)), (loader, text)


def test_empty_task_list_is_valid():
    doc = minimal_doc()
    del doc["tasks"]
    scenario = load_scenario(doc)
    assert scenario.tasks == ()


# -------------------------------------------------------------------- schema


def test_unknown_top_level_key_is_rejected():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d.update(extra_knob=1)))
    assert "extra_knob" in str(err.value)


def test_unknown_nested_key_names_its_path():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["nodes"][0].update(wings=2)))
    assert "nodes[0]" in str(err.value)
    assert "wings" in str(err.value)


def test_wrong_types_name_the_field():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d.update(duration_s="long")))
    assert "duration_s" in str(err.value)
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d["nodes"][0].update(mobile="yes")))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(seed=-1)))


def test_seed_is_bounded_by_the_generator_key():
    # seed and seed + 2**128 would key the same draws
    assert load_scenario(with_(lambda d: d.update(seed=2**128 - 1))).seed == 2**128 - 1
    for seed in (2**128, 2**128 + 5):
        with pytest.raises(SchemaError, match=r"^scenario\.seed: must be < 2\*\*128$"):
            load_scenario(with_(lambda d: d.update(seed=seed)))


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(site=5), "site"),
    (lambda d: d.update(description=3), "scenario.description"),
    (lambda d: d.update(timeline=[{"phase_id": "a", "implied_task_kinds": [""]}]),
     "timeline[0].implied_task_kinds[0]"),
    (lambda d: d["nodes"][1].update(location=[1.0, 2.0]), "nodes[1].location"),
    (lambda d: d["nodes"][1].update(location=[1.0, 2.0, float("nan")]),
     "nodes[1].location"),
    pytest.param(lambda d: d["nodes"][1].update(location=[1.0, 2.0, 10**400]),
                 "nodes[1].location", id="huge-int-nodes[1].location"),
])
def test_unread_keys_are_still_checked(mutate, path):
    """site, description, implied_task_kinds and a node's location are not
    simulated, but a malformed value is still rejected by its field path."""
    with pytest.raises(SchemaError, match=re.escape(path)):
        load_scenario(with_(mutate))
    doc = with_(lambda d: d.update(
        site={"gnb_height_m": 26.5}, description="text",
        timeline=[{"phase_id": "a", "implied_task_kinds": ["vr_stitching"]}],
    ))
    assert load_scenario(doc).phases == (Phase("a"),)


NAN, INF = float("nan"), float("inf")
HUGE = 10**400  # an integer beyond float range


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(update_interval_s=INF), "scenario.update_interval_s"),
    (lambda d: d.update(duration_s=INF), "scenario.duration_s"),
    (lambda d: d["programs"][0].update(compute_cost=NAN), "programs[0].compute_cost"),
    (lambda d: d["programs"][0].update(encode_cost=NAN), "programs[0].encode_cost"),
    (lambda d: d["programs"][0].update(decode_cost=-INF), "programs[0].decode_cost"),
    (lambda d: d["programs"][0].update(input_payload_bits=NAN),
     "programs[0].input_payload_bits"),
    (lambda d: d["programs"][0].update(output_payload_bits=INF),
     "programs[0].output_payload_bits"),
    (lambda d: d["tasks"][0].update(issue_time_s=NAN), "tasks[0].issue_time_s"),
    pytest.param(lambda d: d["tasks"][0].update(issue_time_s=HUGE),
                 "tasks[0].issue_time_s", id="huge-int-tasks[0].issue_time_s"),
    pytest.param(lambda d: d.update(duration_s=-HUGE),
                 "scenario.duration_s", id="huge-negative-int-scenario.duration_s"),
    (lambda d: d.update(incident={"reported_s": NAN}), "incident.reported_s"),
    (lambda d: d["nodes"][1].update(compute_capacity=INF), "nodes[1].compute_capacity"),
    (lambda d: d.update(link={"bands": {"low": {"ul_std_mbps": NAN}}}),
     "link.bands.low.ul_std_mbps"),
    (lambda d: d.update(timeline=[{"phase_id": "a", "completes_when": {"elapsed_s": NAN}}]),
     "timeline[0].completes_when.elapsed_s"),
])
def test_non_finite_numbers_are_rejected(mutate, path):
    with pytest.raises(SchemaError, match=re.escape(f"{path}: must be finite")):
        load_scenario(with_(mutate))


@pytest.mark.parametrize("key, value", [
    ("task_completed", []), ("task_completed", {}), ("task_completed", 5),
    ("program_result", ["p"]), ("program_result", 1.0),
])
def test_predicate_targets_must_be_strings(key, value):
    doc = with_(lambda d: d.update(timeline=[
        {"phase_id": "a", "completes_when": {key: value}}, {"phase_id": "b"},
    ]))
    with pytest.raises(SchemaError, match=re.escape(
        f"timeline[0].completes_when.{key}: expected a string"
    )):
        load_scenario(doc)


def test_an_empty_task_kind_is_rejected():
    with pytest.raises(SchemaError, match=re.escape("programs[0].task_kind: must be non-empty")):
        load_scenario(with_(lambda d: d["programs"][0].update(task_kind="")))
    assert load_scenario(with_(lambda d: d["programs"][0].pop("task_kind"))) \
        .programs["p"].task_kind == "other"


def _leaves(value, path):
    """(path, keys) of every value below a document, by the loader's field
    paths: top-level scalars as scenario.<key>, site's free-form contents
    excluded."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else str(key), key, v) for key, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(value)]
    else:
        return
    for child_path, key, child in items:
        if not path and not isinstance(child, (dict, list)):
            child_path = f"scenario.{key}"
        yield child_path, (key,), child
        if child_path != "site":
            for sub_path, keys, sub in _leaves(child, child_path):
                yield sub_path, (key, *keys), sub


def _field_mutations():
    doc = yaml.safe_load(BUNDLED_SCENARIO.read_text())
    for path, keys, value in _leaves(doc, ""):
        if isinstance(value, dict):
            wrong = [("string", "text")]
        elif isinstance(value, list):
            wrong = [("number", 1.0)]
        else:
            wrong = [("list", [value])]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                wrong += [("nan", NAN), ("inf", INF)]
        for name, replacement in wrong:
            yield pytest.param(doc, path, keys, replacement, id=f"{path}-{name}")


FIELD_MUTATIONS = list(_field_mutations())


def test_the_field_walk_covers_every_field():
    assert len(FIELD_MUTATIONS) == 284


_DELETE = object()


def _mutated(doc, keys, replacement):
    """A copy of doc with the value at keys replaced, or removed when the
    replacement is _DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = replacement
    return doc


@pytest.mark.parametrize("doc, path, keys, replacement", FIELD_MUTATIONS)
def test_every_field_names_itself(doc, path, keys, replacement):
    """One field of the bundled scenario replaced by a wrong type, NaN or
    inf: the error starts with that field's path."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(_mutated(doc, keys, replacement))
    assert str(err.value).startswith(f"{path}: ")


def _loader_message(doc) -> str:
    try:
        load_scenario(doc)
    except ScenarioError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "loads"


# sha256 of the loader's `Type: message` lines, one per FIELD_MUTATIONS case
# and then one per deletion of a field of the bundled scenario, joined by
# newlines; a document that still loads contributes `loads`
LOADER_MESSAGES_SHA256 = "f7b9e76fe4a1dcd3891ae079b7b621e490fe912988dab1d7428ea7a53f57d734"


def test_every_loader_message_is_pinned():
    doc = yaml.safe_load(BUNDLED_SCENARIO.read_text())
    cases = [case.values[2:] for case in FIELD_MUTATIONS]  # (keys, replacement)
    cases += [(keys, _DELETE) for _, keys, _ in _leaves(doc, "")]
    lines = [_loader_message(_mutated(doc, keys, replacement)) for keys, replacement in cases]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == LOADER_MESSAGES_SHA256


def test_bad_identifier_is_rejected():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["tasks"][0].update(task_id="no spaces")))
    assert "task_id" in str(err.value)


def test_unknown_node_kind_lists_the_choices():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["nodes"][1].update(kind="mainframe")))
    assert "ecs" in str(err.value)


# each field that names an enum member: the record it is edited in, and the
# exact refusal of a text that names no member's value
CHOICE_FIELDS = {
    "kind": ("nodes", 1, NodeKind, "nodes[1].kind: expected one of ['uav5gp', 'ecs', 'gcs']"),
    "origin": ("tasks", 0, Origin,
               "tasks[0].origin: expected one of ['commander_order', 'timeline_implied']"),
}


# a member's name, a value in the wrong case, the empty string
@pytest.mark.parametrize("field, value", [
    ("kind", "ECS"), ("kind", "Ecs"), ("kind", ""),
    ("origin", "COMMANDER_ORDER"), ("origin", "Commander_Order"), ("origin", ""),
])
def test_a_choice_field_refuses_what_its_enum_refuses(field, value):
    section, index, choices, refusal = CHOICE_FIELDS[field]
    with pytest.raises(ValueError):
        choices(value)
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d[section][index].update({field: value})))
    assert str(err.value) == refusal


# ---------------------------------------------------------------- references


def test_dangling_program_in_table():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tables"][0].update(program_id="ghost")))


def test_dangling_server_in_table():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tables"][0].update(server_id=9)))


def test_advertised_latency_has_no_effect_in_a_scenario_file():
    # every table server must be a node and every node has a compute profile,
    # so the policy never falls back to a row's advertised latency
    artifacts = []
    for latency in (0.0, 99.0):
        doc = yaml.safe_load(BUNDLED_SCENARIO.read_text())
        for row in doc["tables"]:
            row["advertised_latency_s"] = latency
        scenario = load_scenario(doc)
        assert {entry.advertised_latency for entry in scenario.tables} == {latency}
        result = run(scenario)
        artifacts.append([trace_to_text(result.trace), metrics_to_csv(result.metrics),
                          samples_to_csv(result.metrics), summary_to_json(result.metrics)])
    assert artifacts[0] == artifacts[1]


def test_dangling_program_in_task():
    with pytest.raises(DanglingReference):
        load_scenario(
            with_(lambda d: d["tasks"][0].update(required_programs=["ghost"]))
        )


def test_dangling_cached_program():
    with pytest.raises(DanglingReference):
        load_scenario(
            with_(lambda d: d["nodes"][0].update(cached_programs=["ghost"]))
        )


def test_dangling_task_consumer():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tasks"][0].update(consumer=7)))


def test_dangling_predicate_targets():
    doc = minimal_doc()
    doc["timeline"] = [
        {"phase_id": "a", "completes_when": {"task_completed": "ghost"}},
        {"phase_id": "b"},
    ]
    with pytest.raises(DanglingReference):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = {"program_result": "ghost"}
    with pytest.raises(DanglingReference):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = {"moon_phase": "full"}
    with pytest.raises(SchemaError):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = "always"
    assert load_scenario(doc).phases[0].completes_when.kind == "always"


# ---------------------------------------------------------------- invariants


def test_duplicate_ids_are_rejected():
    with pytest.raises(InvariantViolation):
        load_scenario(with_(lambda d: d["nodes"][1].update(node_id=0)))
    doc = minimal_doc()
    doc["programs"].append(copy.deepcopy(doc["programs"][0]))
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc = minimal_doc()
    doc["tasks"].append(copy.deepcopy(doc["tasks"][0]))
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


PLATFORM_RULE = "node 0, and only node 0, is the aerial platform (uav5gp)"


@pytest.mark.parametrize("mutate, error, message", [
    (lambda d: d["nodes"][0].update(kind="ecs"), InvariantViolation,
     f"nodes[0].kind: {PLATFORM_RULE}; node 0 is ecs"),
    (lambda d: d["nodes"][1].update(kind="uav5gp"), InvariantViolation,
     f"nodes[1].kind: {PLATFORM_RULE}; node 1 is uav5gp"),
    (lambda d: d["nodes"][1].update(compute_capacity=0), InvariantViolation,
     "nodes[1].compute_capacity: must be positive"),
    (lambda d: d["nodes"][0].update(compute_capacity=-2.5), InvariantViolation,
     "nodes[0].compute_capacity: must be positive"),
    (lambda d: d["nodes"][0].update(battery_budget_s=0), InvariantViolation,
     "nodes[0].battery_budget_s: must be in (0, 1200.0], got 0.0"),
    (lambda d: d["nodes"][0].update(battery_budget_s=1200.5), InvariantViolation,
     "nodes[0].battery_budget_s: must be in (0, 1200.0], got 1200.5"),
    (lambda d: d["nodes"][1].update(battery_budget_s=100.0), InvariantViolation,
     "nodes[1].battery_budget_s: applies only to the aerial platform"),
    (lambda d: d["nodes"].pop(0), InvariantViolation,
     "nodes: the aerial platform (node 0, uav5gp) is required"),
    (lambda d: d.update(nodes=[]), InvariantViolation,
     "nodes: the aerial platform (node 0, uav5gp) is required"),
    (lambda d: d["nodes"][1].update(node_id=0), InvariantViolation,
     "nodes[1].node_id: duplicate node id 0"),
    (lambda d: d["nodes"][1].update(location=[1.0, 2.0]), SchemaError,
     "nodes[1].location: expected [x, y, z], got 2 items"),
    (lambda d: d["nodes"][1].update(location=[1.0, True, 3.0]), SchemaError,
     "nodes[1].location[1]: expected a number, got bool"),
], ids=["node-0-not-the-platform", "platform-not-node-0", "capacity-zero",
        "capacity-negative", "battery-zero", "battery-beyond-budget",
        "battery-on-a-server", "no-platform", "no-nodes", "duplicate-node-id",
        "location-not-a-triple", "location-element-bool"])
def test_node_rules_name_their_field(mutate, error, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(with_(mutate))
    assert type(err.value) is error
    assert str(err.value) == message


def bundled_with(mutate):
    doc = yaml.safe_load(BUNDLED_SCENARIO.read_text())
    mutate(doc)
    return doc


@pytest.mark.parametrize("mutate, error, message", [
    (lambda d: d["programs"][0].update(compute_cost=-1), SchemaError,
     "programs[0].compute_cost: must be >= 0.0"),
    (lambda d: d["tasks"][0].update(issue_time_s=-1), SchemaError,
     "tasks[0].issue_time_s: must be >= 0.0"),
    (lambda d: d["flight_plan"][0].update(t_s=-1), SchemaError,
     "flight_plan[0].t_s: must be >= 0.0"),
    (lambda d: d["timeline"][1].update(phase_id="transit"), InvariantViolation,
     "timeline[1].phase_id: duplicate 'transit'"),
    (lambda d: d.update(timeline=[]), SchemaError,
     "timeline: must be non-empty when present"),
    (lambda d: d.update(flight_plan=[]), SchemaError,
     "flight_plan: must be non-empty when present"),
    (lambda d: d.update(link={"bands": {"low": {"ul_mean_mbps": 0}}}), InvariantViolation,
     "link.bands.low: ul_mean must be positive"),
    (lambda d: d.update(name=""), SchemaError, "scenario.name: must be non-empty"),
], ids=["compute-cost-negative", "issue-time-negative", "waypoint-time-negative",
        "duplicate-phase-id", "empty-timeline", "empty-flight-plan", "band-mean-zero",
        "empty-name"])
def test_range_and_shape_rules_name_their_field(mutate, error, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(bundled_with(mutate))
    assert type(err.value) is error
    assert str(err.value) == message


def test_node_rules_admit_their_boundaries():
    doc = with_(lambda d: d["nodes"][0].update(battery_budget_s=1200))
    assert load_scenario(doc).nodes[0].battery_budget == 1200.0
    doc = with_(lambda d: d["nodes"][1].update(compute_capacity=1e-9))
    assert load_scenario(doc).nodes[1].compute_capacity == 1e-9


def test_nodes_are_keyed_by_their_node_id():
    doc = minimal_doc()
    doc["nodes"].append({"node_id": 7, "kind": "gcs", "compute_capacity": 400.0})
    doc["nodes"].reverse()
    nodes = load_scenario(doc).nodes
    assert list(nodes) == [7, 1, 0]
    assert all(key == profile.node_id for key, profile in nodes.items())


def test_a_program_listed_twice_in_one_task_is_rejected():
    doc = with_(lambda d: d["tasks"][0].update(required_programs=["p", "p"]))
    with pytest.raises(InvariantViolation,
                       match=re.escape("tasks[0].required_programs[1]: duplicate")):
        load_scenario(doc)


def test_platform_table_entry_is_rejected():
    with pytest.raises(InvariantViolation) as err:
        load_scenario(with_(lambda d: d["tables"][0].update(server_id=0)))
    assert "cached_programs" in str(err.value)


def test_altitude_outside_the_measured_envelope():
    doc = minimal_doc()
    doc["flight_plan"] = [{"t_s": 0.0, "altitude_m": 0.0},
                          {"t_s": 10.0, "altitude_m": 120.0}]
    with pytest.raises(InvariantViolation) as err:
        load_scenario(doc)
    assert "altitude" in str(err.value)


def test_waypoint_times_must_strictly_increase():
    doc = minimal_doc()
    doc["flight_plan"] = [{"t_s": 10.0, "altitude_m": 0.0},
                          {"t_s": 10.0, "altitude_m": 50.0}]
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_duration_beyond_the_battery_budget():
    with pytest.raises(InvariantViolation) as err:
        load_scenario(with_(lambda d: d["nodes"][0].update(battery_budget_s=50.0)))
    assert "battery" in str(err.value)


def test_incident_moments_must_be_ordered():
    doc = minimal_doc()
    doc["incident"] = {"start_s": 10.0, "observed_s": 5.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc["incident"] = {"start_s": 10.0, "observed_s": 20.0, "reported_s": 15.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_incident_moments_must_fit_the_mission():
    doc = minimal_doc()
    doc["incident"] = {"start_s": 500.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_physical_response_cannot_precede_the_report():
    doc = minimal_doc()
    doc["incident"] = {"reported_s": 50.0}
    doc["truck_arrival_s"] = 40.0
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc["truck_arrival_s"] = 60.0
    assert load_scenario(doc).truck_arrival == 60.0


def test_loss_table_is_validated():
    with pytest.raises(InvariantViolation):
        load_scenario(with_(lambda d: d.update(loss={0: 0.5})))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(loss={1: 1.5})))
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d.update(loss={9: 0.5})))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(loss={"ecs": 0.5})))
    assert load_scenario(with_(lambda d: d.update(loss={1: 0.25}))).loss == {1: 0.25}


def test_loss_keys_may_be_canonical_decimal_strings():
    assert load_scenario(with_(lambda d: d.update(loss={"1": 0.25}))).loss == {1: 0.25}
    with pytest.raises(DanglingReference, match=r"^loss\.9: "):
        load_scenario(with_(lambda d: d.update(loss={"9": 0.5})))
    with pytest.raises(InvariantViolation, match=r"^loss\.0: "):
        load_scenario(with_(lambda d: d.update(loss={"0": 0.5})))
    for key in (" 1", "01", "+1", "1.0", "1_0", "\u0661", ""):
        with pytest.raises(SchemaError, match=f"^loss\\.{re.escape(key)}: server keys"):
            load_scenario(with_(lambda d: d.update(loss={key: 0.5})))
    with pytest.raises(SchemaError, match=r"^loss\.1: server 1 is listed twice"):
        load_scenario(with_(lambda d: d.update(loss={1: 0.5, "1": 0.5})))


# ---------------------------------------------------------------------- link


def test_link_band_overrides_apply_per_field():
    doc = minimal_doc()
    doc["link"] = {"bands": {"low": {"ul_mean_mbps": 10.0}}}
    scenario = load_scenario(doc)
    low = scenario.bands[Band.LOW_ALTITUDE]
    assert low.ul_mean == 10.0
    assert low.dl_mean == 356.77  # untouched fields keep their defaults
    assert scenario.bands[Band.HIGH_ALTITUDE].ul_mean == 37.12


def test_unknown_band_regime_is_rejected():
    doc = minimal_doc()
    doc["link"] = {"bands": {"stratosphere": {}}}
    with pytest.raises(SchemaError):
        load_scenario(doc)


# a member's name, a value in the wrong case, the empty string
@pytest.mark.parametrize("regime", ["LOW_ALTITUDE", "Low", ""])
def test_a_band_key_refuses_what_band_refuses(regime):
    with pytest.raises(ValueError):
        Band(regime)
    doc = minimal_doc()
    doc["link"] = {"bands": {regime: {}}}
    with pytest.raises(SchemaError) as err:
        load_scenario(doc)
    assert str(err.value) == (f"link.bands: unknown regime {regime!r}, expected one of "
                              "['high', 'low', 'rotation']")


def test_one_way_fraction_bounds():
    doc = minimal_doc()
    doc["link"] = {"one_way_fraction": 1.5}
    with pytest.raises(SchemaError):
        load_scenario(doc)
    doc["link"] = {"one_way_fraction": 0.0}
    with pytest.raises(SchemaError):
        load_scenario(doc)


def test_link_defaults():
    scenario = load_scenario(minimal_doc())
    assert scenario.floor_mbps == 1.0
    assert scenario.one_way_fraction == 0.5
    assert scenario.variance_scale == 1.0


# ---------------------------------------------------------------- sweep spec


def load_sweep(tmp_path, doc):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(doc))
    return load_sweep_spec(path)


@pytest.mark.parametrize("doc, error, message", [
    ({"parameter": "update_interval", "values": [2.0, 0.0]}, InvariantViolation,
     "sweep.values[1]: update_interval must be > 0, got 0.0"),
    ({"parameter": "update_interval", "values": [2.0, -1.0]}, InvariantViolation,
     "sweep.values[1]: update_interval must be > 0, got -1.0"),
    ({"parameter": "payload_scale", "values": [-0.5]}, InvariantViolation,
     "sweep.values[0]: payload_scale must be >= 0, got -0.5"),
    ({"parameter": "altitude_profile", "values": [30, 100.5]}, InvariantViolation,
     "sweep.values[1]: altitude_profile must be within [0, 100.0] m, got 100.5"),
    ({"parameter": "altitude_profile", "values": [-1]}, InvariantViolation,
     "sweep.values[0]: altitude_profile must be within [0, 100.0] m, got -1.0"),
    ({"parameter": "link_variance_scale", "values": [-2]}, InvariantViolation,
     "sweep.values[0]: link_variance_scale must be >= 0, got -2.0"),
    ({"parameter": "warp_factor", "values": [1.0]}, SchemaError,
     "sweep.parameter: expected one of ['update_interval', 'payload_scale', "
     "'altitude_profile', 'link_variance_scale'], got 'warp_factor'"),
    ({"values": [1.0]}, SchemaError, "sweep.parameter: required"),
    ({"parameter": "update_interval"}, SchemaError,
     "sweep.values: expected a list, got NoneType"),
    ({"parameter": "update_interval", "values": []}, SchemaError,
     "sweep.values: must be non-empty"),
    ({"parameter": "update_interval", "values": [1.0, "fast"]}, SchemaError,
     "sweep.values[1]: expected a number, got str"),
    ({"parameter": "update_interval", "values": [1.0], "replicates": 0}, SchemaError,
     "sweep.replicates: must be >= 1"),
    ({"parameter": "update_interval", "values": [1.0], "base_seed": -1}, SchemaError,
     "sweep.base_seed: must be >= 0"),
    ({"parameter": "update_interval", "values": [1.0], "knob": 3}, SchemaError,
     "sweep: unknown key 'knob'"),
    ([1.0], SchemaError, "sweep: expected a mapping, got list"),
], ids=["update_interval-zero", "update_interval-negative", "payload_scale-negative",
        "altitude_profile-above", "altitude_profile-below", "link_variance_scale-negative",
        "unknown-parameter", "no-parameter", "no-values", "empty-values", "value-string",
        "replicates-zero", "base_seed-negative", "unknown-key", "not-a-mapping"])
def test_sweep_rules_name_their_field(tmp_path, doc, error, message):
    with pytest.raises(ScenarioError) as err:
        load_sweep(tmp_path, doc)
    assert type(err.value) is error
    assert str(err.value) == f"{tmp_path / 'sweep.yaml'}: {message}"


def test_a_missing_sweep_file_names_the_path(tmp_path):
    path = tmp_path / "absent.yaml"
    with pytest.raises(ScenarioError) as err:
        load_sweep_spec(path)
    assert type(err.value) is SchemaError
    assert str(err.value) == f"sweep spec file not found: {path}"


@pytest.mark.parametrize("parameter, values, field", [
    ("update_interval", [1e-9, 4], "t_int"),
    ("payload_scale", [0, 2.5], "programs"),
    ("altitude_profile", [0, 100], "flight_plan"),
    ("link_variance_scale", [0, 3], "variance_scale"),
], ids=["update_interval", "payload_scale", "altitude_profile", "link_variance_scale"])
def test_every_sweep_parameter_admits_its_range_and_sets_its_field(
        tmp_path, parameter, values, field):
    assert set(SWEEP_PARAMETERS) == {"update_interval", "payload_scale",
                                 "altitude_profile", "link_variance_scale"}
    spec = load_sweep(tmp_path, {"parameter": parameter, "values": values,
                                 "replicates": 2, "base_seed": 5})
    assert spec == scenario_module.SweepSpec(parameter, tuple(map(float, values)), 2, 5)
    base = load_scenario(BUNDLED_SCENARIO)
    for value in spec.values:
        swept = apply_sweep_value(base, parameter, value)
        changed = [name for name in vars(base) if getattr(swept, name) != getattr(base, name)]
        assert changed == [field]


def test_an_unknown_sweep_parameter_raises():
    base = load_scenario(BUNDLED_SCENARIO)
    with pytest.raises(KeyError, match="bogus"):
        apply_sweep_value(base, "bogus", 2.0)
