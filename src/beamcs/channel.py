"""Clustered multipath channel for a single mmWave link.

Geometry: one transmit ULA, one receive ULA, frequency response evaluated
per OFDM subcarrier. Paths come in clusters; rays of a cluster share one
delay and scatter around the cluster mean angle with a Laplace profile.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import ArrayGeometry, steering_vector

ANGLE_RANGE = (-math.pi / 2, math.pi / 2)  # field of view of path angles
# 5G NR numerology mu = 3: 4096 subcarriers of 120 kHz. A path's delay enters
# the response only as the subcarrier spacing times the delay, SAMPLE_RATE /
# N_FFT * delay; the pilot block's centre offset N_FFT / 2 adds one phase per
# path, which the circularly symmetric gains absorb in distribution. So
# delay_max alone sets the frequency selectivity.
N_FFT = 4096
SAMPLE_RATE = 491.52e6


@dataclass(frozen=True)
class ChannelParams:
    n_clusters: int = 2
    n_rays: int = 3
    delay_max: float = 200e-9
    ray_angle_std: float = math.radians(2.0)

    def __post_init__(self):
        # written as `not (...)` so that NaN fails too
        for name in ("n_clusters", "n_rays"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError("%s must be positive and finite" % name)
        for name in ("delay_max", "ray_angle_std"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ValueError("%s must be non-negative and finite" % name)


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
    gain_scale: float  # sqrt(n_rx*n_tx / n_paths), fixes E||H||_F^2 = n_rx*n_tx
    tx_geometry: ArrayGeometry
    rx_geometry: ArrayGeometry

    @property
    def gains(self) -> np.ndarray:
        return np.array([p.gain for p in self.paths])

    @property
    def delays(self) -> np.ndarray:
        return np.array([p.delay for p in self.paths])


def sample_channel(params: ChannelParams, tx_geometry: ArrayGeometry,
                   rx_geometry: ArrayGeometry, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization.

    Per cluster: mean AoD/AoA uniform over ANGLE_RANGE, one shared delay
    uniform on [0, delay_max]. Per ray: Laplace angle offsets with the
    requested standard deviation (scale = std/sqrt(2)) and a complex
    normal gain of unit variance. Angles clip to the array's field of
    view rather than wrapping.
    """
    lo, hi = ANGLE_RANGE
    scale = params.ray_angle_std / math.sqrt(2.0)
    sigma = math.sqrt(0.5)
    paths = []
    for c in range(params.n_clusters):
        mean_aod = rng.uniform(lo, hi)
        mean_aoa = rng.uniform(lo, hi)
        delay = rng.uniform(0.0, params.delay_max)
        for r in range(params.n_rays):
            aod = float(np.clip(mean_aod + rng.laplace(0.0, scale), lo, hi))
            aoa = float(np.clip(mean_aoa + rng.laplace(0.0, scale), lo, hi))
            gain = complex(rng.normal(0.0, sigma), rng.normal(0.0, sigma))
            paths.append(PathComponent(gain, delay, aod, aoa, c, r))
    n_paths = params.n_clusters * params.n_rays
    gain_scale = math.sqrt(rx_geometry.n_ant * tx_geometry.n_ant / n_paths)
    return ChannelRealization(paths, gain_scale, tx_geometry, rx_geometry)


def freq_channel(ch: ChannelRealization, subcarriers) -> np.ndarray:
    """(n_sub, n_rx, n_tx) response at each subcarrier, as the sum over paths.

    Each path's steering outer product is built once and scaled by its
    gain and delay phase per subcarrier.
    """
    subcarriers = [int(k) for k in subcarriers]  # the phase below is scalar arithmetic
    h = np.zeros((len(subcarriers), ch.rx_geometry.n_ant, ch.tx_geometry.n_ant),
                 dtype=complex)
    for p in ch.paths:
        outer = np.outer(steering_vector(ch.rx_geometry, p.aoa),
                         steering_vector(ch.tx_geometry, p.aod).conj())
        for ki, k in enumerate(subcarriers):
            phase = np.exp(-2j * np.pi * SAMPLE_RATE * p.delay * k / N_FFT)
            h[ki] += p.gain * phase * outer
    return ch.gain_scale * h


def factorized_channel(ch: ChannelRealization, subcarrier: int):
    """Same response split as (A_rx, H_d, A_tx) with H_d diagonal.

    A_rx @ H_d @ A_tx^H equals freq_channel; columns of the A factors are
    the per-path steering vectors, H_d holds scaled gains with the delay
    phase of this subcarrier.
    """
    a_rx = np.stack([steering_vector(ch.rx_geometry, p.aoa) for p in ch.paths], axis=1)
    a_tx = np.stack([steering_vector(ch.tx_geometry, p.aod) for p in ch.paths], axis=1)
    phases = np.exp(-2j * np.pi * SAMPLE_RATE * ch.delays * subcarrier / N_FFT)
    h_d = np.diag(ch.gain_scale * ch.gains * phases)
    return a_rx, h_d, a_tx
