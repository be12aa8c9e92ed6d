"""Link regimes, keyed sampling, and transfer arithmetic.

The measured defaults asserted here are frozen literals; they are the
model's ground truth and must never drift.
"""

import math
import struct
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from birdsim import (
    Band,
    Direction,
    FlightState,
    LinkBandParams,
    LinkModel,
    OutOfMeasuredRange,
    default_link_params,
)
from birdsim import channel
from birdsim.channel import (
    LinkSample,
    band_for,
    keyed_normal,
    keyed_uniform,
    transfer_seconds,
)
from birdsim.model import PLATFORM
from birdsim.pipeline import leg_sample

# (dl_mean, ul_mean, rtt_mean) per regime — frozen measured values.
EXPECTED_DEFAULTS = {
    Band.LOW_ALTITUDE: (356.77, 48.13, 20.06),
    Band.HIGH_ALTITUDE: (264.62, 37.12, 22.28),
    Band.ROTATION: (339.97, 57.99, 19.8),
}
EXPECTED_UL_STD = 11.83
EXPECTED_DL_STD = 72.09


def test_default_params_match_measured_values_exactly():
    params = default_link_params()
    for band, (dl, ul, rtt) in EXPECTED_DEFAULTS.items():
        p = params[band]
        assert (p.dl_mean, p.ul_mean, p.rtt_mean) == (dl, ul, rtt)
        assert p.ul_std == EXPECTED_UL_STD
        assert p.dl_std == EXPECTED_DL_STD


def test_downlink_exceeds_uplink_in_every_default_band():
    for p in default_link_params().values():
        assert p.dl_mean > p.ul_mean


def test_uplink_is_less_variable_than_downlink():
    for p in default_link_params().values():
        assert p.ul_std < p.dl_std


def test_band_params_validation():
    with pytest.raises(ValueError):
        LinkBandParams(dl_mean=0.0, ul_mean=1.0, rtt_mean=1.0)
    with pytest.raises(ValueError):
        LinkBandParams(dl_mean=1.0, ul_mean=1.0, rtt_mean=1.0, ul_std=-0.1)


# --------------------------------------------------------------------- bands


def test_band_for_altitude_ranges():
    assert band_for(0.0) is Band.LOW_ALTITUDE
    assert band_for(30.0) is Band.LOW_ALTITUDE
    assert band_for(49.999) is Band.LOW_ALTITUDE
    assert band_for(50.0) is Band.HIGH_ALTITUDE
    assert band_for(100.0) is Band.HIGH_ALTITUDE


def test_band_for_rotation_overrides_altitude():
    assert band_for(10.0, rotating=True) is Band.ROTATION
    assert band_for(70.0, rotating=True) is Band.ROTATION


def test_band_for_rejects_unmeasured_altitudes():
    with pytest.raises(OutOfMeasuredRange):
        band_for(-0.1)
    with pytest.raises(OutOfMeasuredRange):
        band_for(100.001)
    with pytest.raises(OutOfMeasuredRange):
        band_for(120.0)
    for rotating in (False, True):
        with pytest.raises(OutOfMeasuredRange, match=r"^altitude nan m outside \[0, 100.0\]$"):
            band_for(math.nan, rotating)


# ------------------------------------------------------------------ sampling


def test_zero_variance_sample_is_exactly_the_mean(mean_link):
    s = mean_link.sample_throughput(3.5, 30.0, False, Direction.UL)
    assert s.throughput == 48.13
    s = mean_link.sample_throughput(3.5, 70.0, False, Direction.DL)
    assert s.throughput == 264.62


def test_one_way_delay_is_half_rtt(mean_link):
    s = mean_link.sample_throughput(0.0, 70.0, False, Direction.DL)
    assert s.one_way_delay == 22.28 * 0.5 == 11.14
    s = mean_link.sample_throughput(0.0, 30.0, False, Direction.UL)
    assert s.one_way_delay == 10.03


def test_one_way_fraction_is_configurable():
    link = LinkModel(noise_seed=0, variance_scale=0.0, one_way_fraction=1.0)
    s = link.sample_throughput(0.0, 30.0, False, Direction.UL)
    assert s.one_way_delay == 20.06


def test_samples_are_deterministic_in_their_key():
    link = LinkModel(noise_seed=99)
    a = link.sample_throughput(12.25, 30.0, False, Direction.UL)
    b = link.sample_throughput(12.25, 30.0, False, Direction.UL)
    assert a == b
    c = link.sample_throughput(12.250001, 30.0, False, Direction.UL)
    assert c.throughput != a.throughput


def test_sample_independent_of_query_order():
    link = LinkModel(noise_seed=5)
    forward = [link.sample_throughput(t, 30.0, False, Direction.UL).throughput
               for t in (1.0, 2.0, 3.0)]
    backward = [link.sample_throughput(t, 30.0, False, Direction.UL).throughput
                for t in (3.0, 2.0, 1.0)]
    assert forward == backward[::-1]


def test_direction_and_band_change_the_draw():
    link = LinkModel(noise_seed=5)
    ul = link.sample_throughput(1.0, 30.0, False, Direction.UL)
    dl = link.sample_throughput(1.0, 30.0, False, Direction.DL)
    hi = link.sample_throughput(1.0, 70.0, False, Direction.UL)
    assert len({ul.throughput, dl.throughput, hi.throughput}) == 3


def test_seed_changes_the_draw():
    a = LinkModel(noise_seed=1).sample_throughput(1.0, 30.0, False, Direction.UL)
    b = LinkModel(noise_seed=2).sample_throughput(1.0, 30.0, False, Direction.UL)
    assert a.throughput != b.throughput


def test_samples_clamp_at_the_floor():
    bands = {
        band: LinkBandParams(dl_mean=2.0, ul_mean=2.0, rtt_mean=10.0, dl_std=50.0, ul_std=50.0)
        for band in Band
    }
    link = LinkModel(bands=bands, noise_seed=3, floor_mbps=1.0)
    draws = [link.sample_throughput(float(t), 30.0, False, Direction.UL).throughput
             for t in range(500)]
    assert min(draws) == 1.0  # the clamp engages for this mean/std
    assert all(d >= 1.0 for d in draws)


def test_keyed_draw_helpers_are_pure_functions():
    assert keyed_normal(9, 4, 1.25) == keyed_normal(9, 4, 1.25)
    assert keyed_uniform(9, 3, 5, 7) == keyed_uniform(9, 3, 5, 7)
    assert keyed_uniform(9, 3, 5, 7) != keyed_uniform(9, 3, 5, 8)
    assert 0.0 <= keyed_uniform(9, 3, 5, 7) < 1.0


def _fresh_generator(seed, c0, c1, c2):
    """Reference: a new Philox and Generator per draw, keyed as documented."""
    counter = np.array([c0, c1, c2, 0], dtype=np.uint64)
    return np.random.Generator(
        np.random.Philox(key=seed & ((1 << 128) - 1), counter=counter)
    )


WORDS = st.integers(min_value=0, max_value=2**64 - 1)
NORMAL_CALLS = st.tuples(
    st.just("normal"), st.integers(min_value=0, max_value=2**128), WORDS,
    st.floats(allow_nan=False),
)
UNIFORM_CALLS = st.tuples(
    st.just("uniform"), st.integers(min_value=0, max_value=2**128), WORDS, WORDS,
    st.one_of(WORDS, st.just(1 << 63)),
)


@given(st.lists(st.one_of(NORMAL_CALLS, UNIFORM_CALLS), min_size=1, max_size=12))
def test_keyed_draws_equal_a_fresh_generator_per_draw(calls):
    """The reused generator gives a fresh Philox's bits for any seed, any
    counter words, and any interleaving of normal and uniform draws."""
    for kind, seed, *words in calls:
        if kind == "normal":
            code, t = words
            t_bits = struct.unpack("<Q", struct.pack("<d", t))[0]
            expected = _fresh_generator(seed, t_bits, code, 0).standard_normal()
            assert keyed_normal(seed, code, t) == expected
        else:
            c0, c1, c2 = words
            expected = _fresh_generator(seed, c0, c1, c2 | (1 << 63)).random()
            assert keyed_uniform(seed, c0, c1, c2) == expected


def test_keyed_draws_are_plain_floats():
    # a numpy scalar would print as np.float64(...) in the artifacts
    assert type(keyed_normal(9, 4, 1.25)) is float
    assert type(keyed_uniform(9, 3, 5, 7)) is float


def test_keyed_draws_from_two_threads_equal_the_single_threaded_draws(monkeypatch):
    """Both draw kinds share one generator state, and the lock keeps each
    update-set-draw whole. To open that window on every draw, the state
    update yields the interpreter to the other thread before the draw."""
    normal_keys = [(11, 257 + i % 3, i * 0.25) for i in range(300)]
    uniform_keys = [(12, i, i % 5, i % 7) for i in range(300)]
    expected = [(keyed_normal(*n), keyed_uniform(*u))
                for n, u in zip(normal_keys, uniform_keys)]
    keyed_generator = channel._keyed_generator

    def yielding_keyed_generator(*args):
        generator = keyed_generator(*args)
        time.sleep(0)  # let the other thread run between set and draw
        return generator

    monkeypatch.setattr(channel, "_keyed_generator", yielding_keyed_generator)
    got = {}
    start = threading.Barrier(2)

    def draw(name, order):
        start.wait(timeout=30)
        got[name] = {i: (keyed_normal(*normal_keys[i]), keyed_uniform(*uniform_keys[i]))
                     for i in order}

    threads = [
        threading.Thread(target=draw, args=("forward", range(300))),
        threading.Thread(target=draw, args=("backward", range(299, -1, -1))),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    for name in ("forward", "backward"):
        assert [got[name][i] for i in range(300)] == expected


def test_flight_states_and_link_samples_are_immutable_values():
    state = FlightState(t=0.0, altitude=70.0)
    assert state.rotating is False
    assert state == FlightState(0.0, 70.0, False)
    assert hash(state) == hash(FlightState(t=0.0, altitude=70.0, rotating=False))
    assert FlightState._fields == ("t", "altitude", "rotating")
    sample = LinkSample(t=1.0, band=Band.HIGH_ALTITUDE, direction=Direction.UL,
                        throughput=37.12, one_way_delay=11.14)
    same = LinkModel(variance_scale=0.0, one_way_fraction=0.5).sample_throughput(
        1.0, 70.0, False, Direction.UL
    )
    assert same == sample and hash(same) == hash(sample)
    assert LinkSample._fields == ("t", "band", "direction", "throughput", "one_way_delay")
    for record, name in ((state, "altitude"), (sample, "throughput")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)


def test_mean_link_predictions_match_mean(noisy_link):
    frozen = noisy_link.mean()
    s = frozen.sample_throughput(42.0, 30.0, False, Direction.UL)
    assert s.throughput == 48.13
    # the original stays noisy
    assert noisy_link.variance_scale == 1.0


def test_monte_carlo_mean_and_std_track_configuration():
    """10k samples at (70 m, UL): empirical mean within 2% and std within
    10% of the configured values."""
    link = LinkModel(noise_seed=123)
    draws = np.array([
        link.sample_throughput(float(t), 70.0, False, Direction.UL).throughput
        for t in range(10_000)
    ])
    assert abs(draws.mean() - 37.12) / 37.12 < 0.02
    assert abs(draws.std() - EXPECTED_UL_STD) / EXPECTED_UL_STD < 0.10


# ------------------------------------------------------------------ transfer


def uplink_seconds(link, payload_bits, t, altitude):
    """Seconds of one platform-to-server leg, priced as the pipeline does."""
    sample = leg_sample(link, FlightState(t, altitude), PLATFORM, 1)
    assert sample.direction is Direction.UL
    return transfer_seconds(payload_bits, sample)


def test_transfer_time_zero_payload_is_delay_only(mean_link):
    t = uplink_seconds(mean_link, 0.0, 1.0, 30.0)
    assert t == 10.03 / 1e3


def test_transfer_time_large_upload_oracle(mean_link):
    """500 MB (4e9 bits) at exactly 48.13 Mbps: serialization alone is
    4_000_000_000 / 48_130_000 ≈ 83.11 s, plus the one-way delay."""
    total = uplink_seconds(mean_link, 4_000_000_000.0, 0.0, 30.0)
    serialization = 4_000_000_000.0 / (48.13 * 1e6)
    assert total == serialization + 10.03 / 1e3
    assert abs(serialization - 83.11) < 0.01


def test_transfer_seconds_matches_sample_arithmetic(mean_link):
    s = mean_link.sample_throughput(2.0, 30.0, False, Direction.DL)
    assert transfer_seconds(8e6, s) == s.one_way_delay / 1e3 + 8e6 / (s.throughput * 1e6)


def test_transfer_time_monotone_in_payload_and_rate(mean_link):
    t_small = uplink_seconds(mean_link, 1e6, 0.0, 30.0)
    t_big = uplink_seconds(mean_link, 2e6, 0.0, 30.0)
    assert t_big > t_small
    # high band has the lower UL mean, so the same payload takes longer
    t_high = uplink_seconds(mean_link, 1e6, 0.0, 70.0)
    assert t_high > t_small


def test_sustainable_uplink_thresholds(mean_link):
    for band in Band:
        ok, headroom = mean_link.sustainable_uplink(25.0, band)
        assert ok and headroom > 0
        ok, _ = mean_link.sustainable_uplink(150.0, band)
        assert not ok
    # sitting exactly at the mean is not sustainable: strict headroom rule
    ok, headroom = mean_link.sustainable_uplink(48.13, Band.LOW_ALTITUDE)
    assert not ok and headroom == 0.0


# ------------------------------------------------------------ the leg table

# a flight state in each regime, and the draw code of each band and direction
# (frozen: the codes key every noisy sample of every artifact)
REGIME_STATES = {
    Band.LOW_ALTITUDE: (30.0, False),
    Band.HIGH_ALTITUDE: (70.0, False),
    Band.ROTATION: (70.0, True),
}
BAND_CODES = {Band.LOW_ALTITUDE: 1, Band.HIGH_ALTITUDE: 2, Band.ROTATION: 3}
DIRECTION_CODES = {Direction.UL: 1, Direction.DL: 2}


class HashableBands(dict):
    def __hash__(self):
        return hash(frozenset(self.items()))


def distinct_bands():
    """Every regime with its own means, stds and RTT, so a leg that read
    another regime's or direction's parameters would show."""
    return HashableBands({
        band: LinkBandParams(dl_mean=300.0 + 7.3 * i, ul_mean=40.0 + 3.1 * i,
                             rtt_mean=18.0 + 1.7 * i, dl_std=60.0 + 5.9 * i,
                             ul_std=9.0 + 2.3 * i)
        for i, band in enumerate(Band)
    })


def formula_sample(link, t, band, direction):
    """(throughput, one-way delay) worked out from bands[band] on the spot."""
    p = link.bands[band]
    if direction is Direction.DL:
        mean, std = p.dl_mean, p.dl_std
    else:
        mean, std = p.ul_mean, p.ul_std
    std *= link.variance_scale
    throughput = mean
    if std > 0:
        code = (BAND_CODES[band] << 8) | DIRECTION_CODES[direction]
        throughput = mean + std * keyed_normal(link.noise_seed, code, t)
    return max(link.floor_mbps, throughput), p.rtt_mean * link.one_way_fraction


def links_at(variance_scale):
    """The same link three ways: built directly, by replace() and by mean()."""
    built = LinkModel(bands=distinct_bands(), noise_seed=11, floor_mbps=1.0,
                      variance_scale=variance_scale, one_way_fraction=0.3)
    base = LinkModel(bands=distinct_bands(), noise_seed=11, one_way_fraction=0.9)
    links = [built, replace(base, variance_scale=variance_scale, one_way_fraction=0.3)]
    if variance_scale == 0:
        links.append(replace(base, one_way_fraction=0.3).mean())
    return links


@pytest.mark.parametrize("variance_scale", [0.0, 0.37, 1.0])
def test_every_leg_sample_equals_the_formula_bit_for_bit(variance_scale):
    for link in links_at(variance_scale):
        for band, (altitude, rotating) in REGIME_STATES.items():
            for direction in Direction:
                for t in (0.0, 0.5, 7.25, 61.125):
                    s = link.sample_throughput(t, altitude, rotating, direction)
                    assert (s.t, s.band, s.direction) == (t, band, direction)
                    got = (s.throughput.hex(), s.one_way_delay.hex())
                    want = tuple(x.hex() for x in formula_sample(link, t, band, direction))
                    assert got == want, (variance_scale, band, direction, t)


def test_the_leg_table_is_rebuilt_for_new_values_and_is_not_part_of_the_value():
    link = LinkModel(bands=distinct_bands(), noise_seed=4, variance_scale=0.37,
                     one_way_fraction=0.3)
    for other in (replace(link, variance_scale=1.0), replace(link, one_way_fraction=0.6),
                  link.mean()):
        fresh = LinkModel(bands=other.bands, noise_seed=other.noise_seed,
                          variance_scale=other.variance_scale,
                          one_way_fraction=other.one_way_fraction)
        assert other._legs == fresh._legs != link._legs
    assert all(std == 0.0 for _, std, _, _ in link.mean()._legs.values())
    (legs,) = [f for f in fields(LinkModel) if f.name == "_legs"]
    assert not (legs.init or legs.repr or legs.compare)
    assert "_legs" not in repr(link)
    twin = replace(link)
    object.__setattr__(twin, "_legs", {})
    assert twin == link
    assert hash(twin) == hash(link)
    assert repr(twin) == repr(link)


def test_variance_scale_zero_skips_rng_but_keeps_means():
    a = LinkModel(noise_seed=1, variance_scale=0.0)
    b = LinkModel(noise_seed=2, variance_scale=0.0)
    sa = a.sample_throughput(9.0, 30.0, False, Direction.UL)
    sb = b.sample_throughput(9.0, 30.0, False, Direction.UL)
    assert sa.throughput == sb.throughput == 48.13


def test_flight_state_carries_rotation_flag():
    s = FlightState(t=1.0, altitude=10.0, rotating=True)
    assert band_for(s.altitude, s.rotating) is Band.ROTATION
