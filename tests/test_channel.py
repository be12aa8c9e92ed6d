"""Link regimes, keyed sampling, and transfer arithmetic.

The measured defaults asserted here are frozen literals; they are the
model's ground truth and must never drift.
"""

import struct

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
    band_for,
    default_link_params,
    transfer_seconds,
)
from birdsim.channel import keyed_normal, keyed_uniform

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
        LinkBandParams(Band.LOW_ALTITUDE, dl_mean=0.0, ul_mean=1.0, rtt_mean=1.0)
    with pytest.raises(ValueError):
        LinkBandParams(Band.LOW_ALTITUDE, dl_mean=1.0, ul_mean=1.0, rtt_mean=1.0,
                       ul_std=-0.1)


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
        band: LinkBandParams(band=band, dl_mean=2.0, ul_mean=2.0, rtt_mean=10.0,
                             dl_std=50.0, ul_std=50.0)
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


def test_transfer_time_zero_payload_is_delay_only(mean_link):
    t = mean_link.transfer_time(0.0, 1.0, 30.0, False, Direction.UL)
    assert t == 10.03 / 1e3


def test_transfer_time_large_upload_oracle(mean_link):
    """500 MB (4e9 bits) at exactly 48.13 Mbps: serialization alone is
    4_000_000_000 / 48_130_000 ≈ 83.11 s, plus the one-way delay."""
    total = mean_link.transfer_time(4_000_000_000.0, 0.0, 30.0, False, Direction.UL)
    serialization = 4_000_000_000.0 / (48.13 * 1e6)
    assert total == serialization + 10.03 / 1e3
    assert abs(serialization - 83.11) < 0.01


def test_transfer_seconds_matches_sample_arithmetic(mean_link):
    s = mean_link.sample_throughput(2.0, 30.0, False, Direction.DL)
    assert transfer_seconds(8e6, s) == s.one_way_delay / 1e3 + 8e6 / (s.throughput * 1e6)


def test_transfer_time_monotone_in_payload_and_rate(mean_link):
    t_small = mean_link.transfer_time(1e6, 0.0, 30.0, False, Direction.UL)
    t_big = mean_link.transfer_time(2e6, 0.0, 30.0, False, Direction.UL)
    assert t_big > t_small
    # high band has the lower UL mean, so the same payload takes longer
    t_high = mean_link.transfer_time(1e6, 0.0, 70.0, False, Direction.UL)
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


def test_variance_scale_zero_skips_rng_but_keeps_means():
    a = LinkModel(noise_seed=1, variance_scale=0.0)
    b = LinkModel(noise_seed=2, variance_scale=0.0)
    sa = a.sample_throughput(9.0, 30.0, False, Direction.UL)
    sb = b.sample_throughput(9.0, 30.0, False, Direction.UL)
    assert sa.throughput == sb.throughput == 48.13


def test_flight_state_carries_rotation_flag():
    s = FlightState(t=1.0, altitude=10.0, rotating=True)
    assert band_for(s.altitude, s.rotating) is Band.ROTATION
