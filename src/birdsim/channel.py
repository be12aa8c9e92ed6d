"""Aerial 5G link model.

Throughput and round-trip latency are drawn from per-regime Gaussian
distributions parameterized from field measurements of a commercial NSA
deployment: one regime below 50 m, one from 50 m up to the 100 m ceiling, and
one that applies while the airframe is yawing regardless of altitude.

Sampling is counter-based: every draw is a pure function of
(seed, t, direction, band), so a run's samples do not depend on the order in
which the simulation asks for them.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

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
    """Gaussian throughput means and RTT mean for one link regime."""

    band: Band
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def default_link_params() -> dict[Band, LinkBandParams]:
    """Field-measured defaults for the three link regimes."""
    return {
        Band.LOW_ALTITUDE: LinkBandParams(
            band=Band.LOW_ALTITUDE, dl_mean=356.77, ul_mean=48.13, rtt_mean=20.06
        ),
        Band.HIGH_ALTITUDE: LinkBandParams(
            band=Band.HIGH_ALTITUDE, dl_mean=264.62, ul_mean=37.12, rtt_mean=22.28
        ),
        Band.ROTATION: LinkBandParams(
            band=Band.ROTATION, dl_mean=339.97, ul_mean=57.99, rtt_mean=19.8
        ),
    }


def band_for(altitude: float, rotating: bool = False) -> Band:
    """Map a flight state to its link regime.

    Rotation overrides altitude. Altitudes outside [0, 100] m raise
    OutOfMeasuredRange.
    """
    if altitude < 0 or altitude > MAX_ALTITUDE_M:
        raise OutOfMeasuredRange(f"altitude {altitude} m outside [0, {MAX_ALTITUDE_M}]")
    if rotating:
        return Band.ROTATION
    if altitude < BAND_SPLIT_M:
        return Band.LOW_ALTITUDE
    return Band.HIGH_ALTITUDE


@dataclass(frozen=True)
class FlightState:
    """Instantaneous flight condition used to pick the link regime."""

    t: float
    altitude: float
    rotating: bool = False


@dataclass(frozen=True)
class LinkSample:
    t: float
    direction: Direction
    throughput: float  # Mbps
    one_way_delay: float  # ms


_BAND_CODE = {Band.LOW_ALTITUDE: 1, Band.HIGH_ALTITUDE: 2, Band.ROTATION: 3}
_DIR_CODE = {Direction.UL: 1, Direction.DL: 2}
_WORD_MASK = (1 << 64) - 1

# One generator serves every keyed draw. Philox is counter-based, so a draw is
# a pure function of (key, counter): setting the whole bit-generator state
# before each draw (key, counter and an empty buffer, exactly what a fresh
# Philox(key=..., counter=...) holds) gives the fresh generator's bits without
# building one per draw. The lock keeps set-then-draw atomic across threads.
_PHILOX = np.random.Philox()
_GENERATOR = np.random.Generator(_PHILOX)
_KEYED_LOCK = threading.Lock()
_EMPTY_BUFFER = (0, 0, 0, 0)


def _float_bits(t: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(t)))[0]


def _keyed_generator(seed: int, c0: int, c1: int, c2: int = 0) -> np.random.Generator:
    # the 128-bit key is two uint64 words, low word first; counters are
    # Python ints, which the state setter converts to uint64 exactly
    _PHILOX.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": (c0, c1, c2, 0),
            "key": (seed & _WORD_MASK, (seed >> 64) & _WORD_MASK),
        },
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _GENERATOR


def keyed_normal(seed: int, code: int, t: float) -> float:
    """Standard-normal draw fully determined by (seed, code, t)."""
    with _KEYED_LOCK:
        return float(_keyed_generator(seed, _float_bits(t), code).standard_normal())


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

    attachment is the node id of the wireless platform the link serves.
    variance_scale scales every std; 0 collapses sampling to the means.
    one_way_fraction converts the measured RTT into a one-way delay.
    """

    bands: Mapping[Band, LinkBandParams] = field(default_factory=default_link_params)
    noise_seed: int = 0
    attachment: int = 0
    floor_mbps: float = 1.0
    variance_scale: float = 1.0
    one_way_fraction: float = 0.5

    def __post_init__(self) -> None:
        missing = [b.value for b in Band if b not in self.bands]
        if missing:
            raise ValueError(f"bands missing regimes: {missing}")
        if not self.floor_mbps > 0:
            raise ValueError("floor_mbps must be positive")
        if self.variance_scale < 0:
            raise ValueError("variance_scale must be >= 0")
        if not 0 < self.one_way_fraction <= 1:
            raise ValueError("one_way_fraction must be in (0, 1]")

    def mean(self) -> "LinkModel":
        """Variance-free copy used for reproducible predictions; a link that
        is already variance-free is its own copy."""
        if self.variance_scale == 0:
            return self
        return replace(self, variance_scale=0.0)

    def params_for(self, band: Band) -> LinkBandParams:
        return self.bands[band]

    def mean_throughput(self, band: Band, direction: Direction) -> float:
        p = self.bands[band]
        return p.dl_mean if direction is Direction.DL else p.ul_mean

    def sample_throughput(
        self, t: float, altitude: float, rotating: bool, direction: Direction
    ) -> LinkSample:
        """Draw the instantaneous throughput for one transfer.

        Gaussian around the regime mean with the direction's std, clamped at
        the floor; deterministic given (seed, t, direction, band).
        """
        band = band_for(altitude, rotating)
        p = self.bands[band]
        if direction is Direction.DL:
            mean, std = p.dl_mean, p.dl_std
        else:
            mean, std = p.ul_mean, p.ul_std
        std *= self.variance_scale
        throughput = mean
        if std > 0:
            code = (_BAND_CODE[band] << 8) | _DIR_CODE[direction]
            throughput = mean + std * keyed_normal(self.noise_seed, code, t)
        throughput = max(self.floor_mbps, throughput)
        return LinkSample(
            t=t,
            direction=direction,
            throughput=throughput,
            one_way_delay=p.rtt_mean * self.one_way_fraction,
        )

    def transfer_time(
        self,
        payload_bits: float,
        t: float,
        altitude: float,
        rotating: bool,
        direction: Direction,
    ) -> float:
        """Seconds to move payload_bits over one hop at flight state (t, alt)."""
        if payload_bits < 0:
            raise ValueError("payload must be >= 0 bits")
        sample = self.sample_throughput(t, altitude, rotating, direction)
        return transfer_seconds(payload_bits, sample)

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
