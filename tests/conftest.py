"""Shared fixtures: default fleet, deterministic links, bundled scenario,
and the repository's tools and bench workloads as modules."""

import functools
import importlib.util
from pathlib import Path

import pytest

import birdsim
from birdsim import (
    Band,
    FlightState,
    LinkBandParams,
    LinkModel,
    default_profiles,
)

BUNDLED_SCENARIO = Path(birdsim.__file__).parent / "scenarios" / "urban_fire.yaml"
ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    """`tools/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def bench_workloads():
    """`bench/workloads.py` as a module, loaded once, by the loader that the
    byte check of two checkouts uses."""
    return load_tool("artifact_digests").load_workloads(ROOT)


@functools.cache
def bench_build(name, seed):
    """The bench workload `name` built for `seed`, once per session: a
    Workload is frozen, so the tests that read it share one build."""
    return bench_workloads().build(name, seed, ROOT)


@pytest.fixture
def nodes():
    return default_profiles()


@pytest.fixture
def mean_link():
    """Variance-free link: every sample is exactly the band mean."""
    return LinkModel(noise_seed=0, variance_scale=0.0)


@pytest.fixture
def noisy_link():
    return LinkModel(noise_seed=7)


@pytest.fixture
def ground_state():
    return FlightState(t=0.0, altitude=30.0)


@pytest.fixture
def scenario_path():
    return BUNDLED_SCENARIO


def make_flat_bands(ul: float, dl: float, rtt: float) -> dict[Band, LinkBandParams]:
    """All three regimes identical and noise-free; handy for arithmetic tests."""
    return {
        band: LinkBandParams(dl_mean=dl, ul_mean=ul, rtt_mean=rtt, dl_std=0.0, ul_std=0.0)
        for band in Band
    }
