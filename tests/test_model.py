"""Fleet profiles, program/task validation, and critical-moment bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from birdsim import (
    NodeKind,
    Origin,
    PhasePredicate,
    ProgramSpec,
    Task,
    default_profiles,
)
from birdsim.model import (
    MOMENT_NAMES,
    PRE_ARRIVAL_BUDGET_S,
    AlreadySet,
    CriticalMoments,
    OrderingViolation,
    record_moment,
)


# ------------------------------------------------------------------ profiles


def test_default_profiles_capacities_and_kinds():
    nodes = default_profiles()
    assert set(nodes) == {0, 1, 2}
    assert nodes[0].kind is NodeKind.UAV5GP
    assert nodes[1].kind is NodeKind.ECS
    assert nodes[2].kind is NodeKind.GCS
    assert nodes[0].compute_capacity == 25.0
    assert nodes[1].compute_capacity == 100.0
    assert nodes[2].compute_capacity == 400.0
    # capability strictly increases toward the ground station
    assert nodes[0].compute_capacity < nodes[1].compute_capacity < nodes[2].compute_capacity


def test_default_platform_battery_is_pre_arrival_budget():
    nodes = default_profiles()
    assert nodes[0].battery_budget == PRE_ARRIVAL_BUDGET_S == 1200.0
    assert nodes[1].battery_budget is None
    assert nodes[2].battery_budget is None


# ---------------------------------------------------------- programs / tasks


def test_program_spec_rejects_negative_costs():
    with pytest.raises(ValueError):
        ProgramSpec("p", "object_detection", compute_cost=-1.0,
                    input_payload=0.0, output_payload=0.0)
    with pytest.raises(ValueError):
        ProgramSpec("p", "object_detection", compute_cost=1.0,
                    input_payload=-5.0, output_payload=0.0)


def test_task_requires_programs():
    with pytest.raises(ValueError):
        Task("t", required_programs=(), origin=Origin.COMMANDER_ORDER, issue_time=0.0)


def test_phase_predicate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PhasePredicate("sometimes")


# --------------------------------------------------------- critical moments


def test_record_moment_happy_chain():
    m = CriticalMoments()
    for name, t in [
        ("start", 0.0), ("observed", 5.0), ("reported", 12.0),
        ("virtual_awareness", 30.0), ("physical_awareness", 300.0),
        ("termination", 400.0),
    ]:
        m = record_moment(m, name, t)
    d = m.as_dict()
    assert list(d) == list(MOMENT_NAMES)
    assert d["virtual_awareness"] == 30.0
    assert m.span("reported", "virtual_awareness") == 18.0


def test_record_moment_rejects_unknown_name():
    with pytest.raises(ValueError):
        record_moment(CriticalMoments(), "awareness", 1.0)


def test_record_moment_write_once():
    m = record_moment(CriticalMoments(), "start", 1.0)
    with pytest.raises(AlreadySet):
        record_moment(m, "start", 2.0)


def test_record_moment_rejects_report_before_observation():
    m = record_moment(CriticalMoments(), "observed", 10.0)
    with pytest.raises(OrderingViolation):
        record_moment(m, "reported", 9.0)


def test_record_moment_rejects_awareness_before_report():
    m = record_moment(CriticalMoments(), "reported", 25.0)
    with pytest.raises(OrderingViolation):
        record_moment(m, "virtual_awareness", 20.0)
    with pytest.raises(OrderingViolation):
        record_moment(m, "physical_awareness", 24.0)


def test_record_moment_rejects_termination_before_any_set_moment():
    m = record_moment(CriticalMoments(), "physical_awareness", 300.0)
    with pytest.raises(OrderingViolation):
        record_moment(m, "termination", 299.0)


def test_span_is_none_when_either_end_missing():
    m = record_moment(CriticalMoments(), "reported", 25.0)
    assert m.span("reported", "virtual_awareness") is None
    assert m.span("start", "reported") is None


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=6, max_size=6,
    )
)
def test_moments_recorded_in_sorted_order_always_valid(times):
    """Any six timestamps, sorted and assigned in causal order, are accepted,
    and every recorded value reads back exactly."""
    times = sorted(times)
    m = CriticalMoments()
    for name, t in zip(MOMENT_NAMES, times):
        m = record_moment(m, name, t)
    assert [m.as_dict()[name] for name in MOMENT_NAMES] == times


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_moments_never_accept_regression(a, b):
    """reported < observed is rejected for every value pair where it applies."""
    lo, hi = min(a, b), max(a, b)
    m = record_moment(CriticalMoments(), "observed", hi)
    if lo < hi:
        with pytest.raises(OrderingViolation):
            record_moment(m, "reported", lo)
    else:
        record_moment(m, "reported", lo)
