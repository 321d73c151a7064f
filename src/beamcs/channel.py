"""Clustered multipath channel for a single mmWave link.

Geometry: one transmit ULA, one receive ULA, frequency response evaluated
per OFDM subcarrier. Paths come in N_CLUSTERS clusters of N_RAYS rays; rays
of a cluster share one delay, uniform on [0, delay_max] (DELAY_MAX by
default), and scatter around the cluster mean angle with a Laplace profile
of standard deviation RAY_ANGLE_STD.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arrays import steering_vector

ANGLE_RANGE = (-math.pi / 2, math.pi / 2)  # field of view of path angles
# 5G NR numerology mu = 3: 4096 subcarriers of 120 kHz. A path's delay enters
# the response only as the subcarrier spacing times the delay, SAMPLE_RATE /
# N_FFT * delay; the pilot block's centre offset N_FFT / 2 adds one phase per
# path, which the circularly symmetric gains absorb in distribution. So
# delay_max alone sets the frequency selectivity.
N_FFT = 4096
SAMPLE_RATE = 491.52e6


N_CLUSTERS = 2
N_RAYS = 3
RAY_ANGLE_STD = math.radians(2.0)
DELAY_MAX = 200e-9


def check_delay_max(delay_max: float) -> None:
    # written as `not (...)` so that NaN fails too
    if not (delay_max >= 0 and math.isfinite(delay_max)):
        raise ValueError("delay_max must be non-negative and finite")
    # a delay acts only as a phase of period N_FFT / SAMPLE_RATE, one OFDM symbol
    if delay_max > N_FFT / SAMPLE_RATE:
        raise ValueError("delay_max must be at most one OFDM symbol, N_FFT / SAMPLE_RATE "
                         "= %.6g s" % (N_FFT / SAMPLE_RATE))


@dataclass(frozen=True)
class PathComponent:
    gain: complex
    delay: float
    aod: float
    aoa: float
    cluster: int
    ray: int


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    paths: list
    n_tx: int
    n_rx: int

    @property
    def gain_scale(self) -> float:
        """sqrt(n_rx*n_tx / n_paths), which fixes E||H||_F^2 = n_rx*n_tx."""
        return math.sqrt(self.n_rx * self.n_tx / len(self.paths))


def sample_channel(n_tx: int, n_rx: int, rng: np.random.Generator,
                   delay_max: float = DELAY_MAX) -> ChannelRealization:
    """Draw one realization.

    Per cluster: mean AoD/AoA uniform over ANGLE_RANGE, one shared delay
    uniform on [0, delay_max]. Per ray: Laplace angle offsets of standard
    deviation RAY_ANGLE_STD (scale = std/sqrt(2)) and a complex normal
    gain of unit variance. Angles clip to the array's field of view
    rather than wrapping.
    """
    if n_tx < 1 or n_rx < 1:
        raise ValueError("n_ant must be positive")
    check_delay_max(delay_max)
    lo, hi = ANGLE_RANGE
    scale = RAY_ANGLE_STD / math.sqrt(2.0)
    sigma = math.sqrt(0.5)
    paths = []
    for c in range(N_CLUSTERS):
        mean_aod = rng.uniform(lo, hi)
        mean_aoa = rng.uniform(lo, hi)
        delay = rng.uniform(0.0, delay_max)
        for r in range(N_RAYS):
            aod = float(np.clip(mean_aod + rng.laplace(0.0, scale), lo, hi))
            aoa = float(np.clip(mean_aoa + rng.laplace(0.0, scale), lo, hi))
            gain = complex(rng.normal(0.0, sigma), rng.normal(0.0, sigma))
            paths.append(PathComponent(gain, delay, aod, aoa, c, r))
    return ChannelRealization(paths, n_tx, n_rx)


def freq_channel(ch: ChannelRealization, subcarriers) -> np.ndarray:
    """(n_sub, n_rx, n_tx) response at each subcarrier, as the sum over paths.

    Each path's steering outer product is built once and added at every
    subcarrier at once, scaled by the path's per-subcarrier weights (gain
    times delay phase).
    """
    subcarriers = [int(k) for k in subcarriers]  # the phase below is scalar arithmetic
    h = np.zeros((len(subcarriers), ch.n_rx, ch.n_tx), dtype=complex)
    for p in ch.paths:
        outer = np.outer(steering_vector(ch.n_rx, p.aoa), steering_vector(ch.n_tx, p.aod).conj())
        w = np.array([p.gain * np.exp(-2j * np.pi * SAMPLE_RATE * p.delay * k / N_FFT)
                      for k in subcarriers], dtype=complex)
        h += w[:, None, None] * outer
    return ch.gain_scale * h

