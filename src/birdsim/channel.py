"""Aerial 5G link model.

Throughput and round-trip latency are drawn from per-regime Gaussian
distributions parameterized from field measurements of a commercial NSA
deployment: one regime below 50 m, one from 50 m up to the 100 m ceiling, and
one that applies while the airframe is yawing regardless of altitude.

Sampling is counter-based: every draw is a pure function of
(seed, t, direction, band), so a run's samples do not depend on the order in
which the simulation asks for them. Each sample carries the band it was drawn
in.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np


class Band(str, Enum):
    LOW_ALTITUDE = "low"
    HIGH_ALTITUDE = "high"
    ROTATION = "rotation"


class Direction(str, Enum):
    UL = "ul"
    DL = "dl"


class OutOfMeasuredRange(ValueError):
    """Altitude outside the measured envelope; the model refuses to guess."""


# Measured flight envelope and the boundary between the two altitude regimes.
MAX_ALTITUDE_M = 100.0
BAND_SPLIT_M = 50.0

# Direction-wide throughput variability (Mbps); the downlink swings far more
# than the uplink.
UL_STD_MBPS = 11.83
DL_STD_MBPS = 72.09


@dataclass(frozen=True)
class LinkBandParams:
    """Gaussian throughput means and RTT mean for one link regime; the
    regime is the key that maps to it in a band table."""

    dl_mean: float  # Mbps
    ul_mean: float  # Mbps
    rtt_mean: float  # ms
    dl_std: float = DL_STD_MBPS  # Mbps
    ul_std: float = UL_STD_MBPS  # Mbps

    def __post_init__(self) -> None:
        for name in ("dl_mean", "ul_mean", "rtt_mean"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("dl_std", "ul_std"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


def default_link_params() -> dict[Band, LinkBandParams]:
    """Field-measured defaults for the three link regimes."""
    return {
        Band.LOW_ALTITUDE: LinkBandParams(dl_mean=356.77, ul_mean=48.13, rtt_mean=20.06),
        Band.HIGH_ALTITUDE: LinkBandParams(dl_mean=264.62, ul_mean=37.12, rtt_mean=22.28),
        Band.ROTATION: LinkBandParams(dl_mean=339.97, ul_mean=57.99, rtt_mean=19.8),
    }


def band_for(altitude: float, rotating: bool = False) -> Band:
    """Map a flight state to its link regime.

    Rotation overrides altitude. Altitudes outside [0, 100] m, and NaN,
    raise OutOfMeasuredRange.
    """
    if not 0 <= altitude <= MAX_ALTITUDE_M:
        raise OutOfMeasuredRange(f"altitude {altitude} m outside [0, {MAX_ALTITUDE_M}]")
    if rotating:
        return Band.ROTATION
    if altitude < BAND_SPLIT_M:
        return Band.LOW_ALTITUDE
    return Band.HIGH_ALTITUDE


class FlightState(NamedTuple):
    """Instantaneous flight condition used to pick the link regime."""

    t: float
    altitude: float
    rotating: bool = False


class LinkSample(NamedTuple):
    t: float
    band: Band
    direction: Direction
    throughput: float  # Mbps
    one_way_delay: float  # ms


_new_tuple = tuple.__new__
_BAND_CODE = {Band.LOW_ALTITUDE: 1, Band.HIGH_ALTITUDE: 2, Band.ROTATION: 3}
_DIR_CODE = {Direction.UL: 1, Direction.DL: 2}
_WORD_MASK = (1 << 64) - 1
# A seed is the generator's 128-bit key, so seeds run over [0, 2**128): any
# other integer would share its key with one of them.
SEED_BOUND = 1 << 128

# One generator serves every keyed draw. Philox is counter-based, so a draw is
# a pure function of (key, counter): setting the whole bit-generator state
# before each draw (key, counter and an empty buffer, exactly what a fresh
# Philox(key=..., counter=...) holds) gives the fresh generator's bits without
# building one per draw. Only the counter and the key change between draws,
# so one state mapping is updated in place and assigned. The lock keeps
# update-set-draw atomic across threads.
_PHILOX = np.random.Philox()
_GENERATOR = np.random.Generator(_PHILOX)
_KEYED_LOCK = threading.Lock()
_KEYED_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
    "buffer": (0, 0, 0, 0),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_COUNTER_AND_KEY = _KEYED_STATE["state"]
_DOUBLE = struct.Struct("<d")


def _keyed_generator(seed: int, c0: int, c1: int, c2: int = 0) -> np.random.Generator:
    # the 128-bit key is two uint64 words, low word first; counters are
    # Python ints, which the state setter converts to uint64 exactly
    _COUNTER_AND_KEY["counter"] = (c0, c1, c2, 0)
    _COUNTER_AND_KEY["key"] = (seed & _WORD_MASK, (seed >> 64) & _WORD_MASK)
    _PHILOX.state = _KEYED_STATE
    return _GENERATOR


def keyed_normal(seed: int, code: int, t: float) -> float:
    """Standard-normal draw fully determined by (seed, code, t). The counter's
    first word is t's IEEE-754 bits, as an unsigned 64-bit int, and its
    second the code."""
    bits = int.from_bytes(_DOUBLE.pack(t), "little")
    with _KEYED_LOCK:
        return float(_keyed_generator(seed, bits, code).standard_normal())


def keyed_uniform(seed: int, c0: int, c1: int, c2: int = 0) -> float:
    """Uniform [0,1) draw fully determined by (seed, c0, c1, c2).

    The high counter bit is set so these draws never share a counter block
    with keyed_normal ones.
    """
    with _KEYED_LOCK:
        return float(_keyed_generator(seed, c0, c1, c2 | (1 << 63)).random())


@dataclass(frozen=True)
class LinkModel:
    """Sampling interface over the per-regime distributions.

    noise_seed is the keyed generator's key: an int in [0, SEED_BOUND).
    variance_scale scales every std; 0 collapses sampling to the means.
    one_way_fraction converts the measured RTT into a one-way delay.
    Construction works out each leg's parameters once: (band, direction) maps
    to (mean, std * variance_scale, draw code, rtt_mean * one_way_fraction).
    The table is derived from the fields, so replace() and mean() build their
    own, and it takes no part in repr, == or hash.
    """

    bands: Mapping[Band, LinkBandParams] = field(default_factory=default_link_params)
    noise_seed: int = 0
    floor_mbps: float = 1.0
    variance_scale: float = 1.0
    one_way_fraction: float = 0.5
    _legs: dict[tuple[Band, Direction], tuple[float, float, int, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = [b.value for b in Band if b not in self.bands]
        if missing:
            raise ValueError(f"bands missing regimes: {missing}")
        seed = self.noise_seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < SEED_BOUND:
            raise ValueError(f"noise_seed must be an int in [0, 2**128), got {seed!r}")
        if not self.floor_mbps > 0:
            raise ValueError("floor_mbps must be positive")
        if not self.variance_scale >= 0:
            raise ValueError("variance_scale must be >= 0")
        if not 0 < self.one_way_fraction <= 1:
            raise ValueError("one_way_fraction must be in (0, 1]")
        legs = {}
        for band in Band:
            p = self.bands[band]
            one_way = p.rtt_mean * self.one_way_fraction
            for direction, mean, std in (
                (Direction.UL, p.ul_mean, p.ul_std),
                (Direction.DL, p.dl_mean, p.dl_std),
            ):
                code = (_BAND_CODE[band] << 8) | _DIR_CODE[direction]
                legs[band, direction] = (mean, std * self.variance_scale, code, one_way)
        object.__setattr__(self, "_legs", legs)

    def mean(self) -> "LinkModel":
        """Variance-free copy used for reproducible predictions; a link that
        is already variance-free is its own copy."""
        if self.variance_scale == 0:
            return self
        return replace(self, variance_scale=0.0)

    def params_for(self, band: Band) -> LinkBandParams:
        return self.bands[band]

    def sample(self, t: float, band: Band, direction: Direction) -> LinkSample:
        """Draw the instantaneous throughput for one transfer in band.

        Gaussian around the regime mean with the direction's std, clamped at
        the floor; deterministic given (seed, t, direction, band). A
        variance-free link returns the mean and makes no draw.
        """
        mean, std, code, one_way = self._legs[band, direction]
        throughput = mean
        if std > 0:
            throughput = mean + std * keyed_normal(self.noise_seed, code, t)
        floor = self.floor_mbps
        if not throughput > floor:  # max(floor, throughput), NaN included
            throughput = floor
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        return _new_tuple(LinkSample, (t, band, direction, throughput, one_way))

    def sample_throughput(
        self, t: float, altitude: float, rotating: bool, direction: Direction
    ) -> LinkSample:
        """sample() in the band of the flight state (altitude, rotating)."""
        return self.sample(t, band_for(altitude, rotating), direction)

    def sustainable_uplink(self, bitrate_mbps: float, band: Band) -> tuple[bool, float]:
        """Whether a constant uplink stream fits under the regime's mean.

        Returns (sustainable, headroom in Mbps); sustainable requires the
        bitrate strictly below the mean.
        """
        headroom = self.bands[band].ul_mean - bitrate_mbps
        return headroom > 0, headroom


def transfer_seconds(payload_bits: float, sample: LinkSample) -> float:
    """Propagation plus serialization time for one sampled hop."""
    return sample.one_way_delay / 1e3 + payload_bits / (sample.throughput * 1e6)
