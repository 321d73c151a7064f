import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from beamcs.arrays import steering_vector
from beamcs.channel import (N_CLUSTERS, N_FFT, SAMPLE_RATE, ChannelRealization,
                            PathComponent, freq_channel, sample_channel)
from oracles import factorized_channel

BS = 64
UE = 8


def test_path_count_and_shared_cluster_delays():
    ch = sample_channel(BS, UE, np.random.default_rng(0))
    assert len(ch.paths) == 6
    delays = {}
    for p in ch.paths:
        delays.setdefault(p.cluster, set()).add(p.delay)
    # one delay per cluster, distinct across clusters
    assert all(len(v) == 1 for v in delays.values())
    assert len({next(iter(v)) for v in delays.values()}) == 2
    assert all(0.0 <= p.delay <= 200e-9 for p in ch.paths)


def test_zero_spread_collapses_rays_to_cluster_mean(monkeypatch):
    monkeypatch.setattr("beamcs.channel.RAY_ANGLE_STD", 0.0)
    ch = sample_channel(BS, UE, np.random.default_rng(3))
    for c in range(N_CLUSTERS):
        aods = {p.aod for p in ch.paths if p.cluster == c}
        aoas = {p.aoa for p in ch.paths if p.cluster == c}
        assert len(aods) == 1 and len(aoas) == 1


def test_angles_stay_in_field_of_view(monkeypatch):
    monkeypatch.setattr("beamcs.channel.RAY_ANGLE_STD", 0.5)  # huge spread forces clipping
    rng = np.random.default_rng(11)
    for _ in range(20):
        ch = sample_channel(BS, UE, rng)
        for p in ch.paths:
            assert -np.pi / 2 <= p.aod <= np.pi / 2
            assert -np.pi / 2 <= p.aoa <= np.pi / 2


def test_same_seed_same_channel():
    a = sample_channel(BS, UE, np.random.default_rng(42))
    b = sample_channel(BS, UE, np.random.default_rng(42))
    assert a.paths == b.paths


def test_single_path_zero_delay_is_scaled_outer_product():
    path = PathComponent(gain=1.5 - 0.5j, delay=0.0, aod=0.3, aoa=-0.2, cluster=0, ray=0)
    ch = ChannelRealization([path], n_tx=BS, n_rx=UE)
    h, = freq_channel(ch, [2048])
    want = ch.gain_scale * path.gain * np.outer(
        steering_vector(UE, path.aoa), steering_vector(BS, path.aod).conj())
    assert_allclose(h, want, atol=1e-12)


def per_subcarrier_sum(ch, subcarrier):
    """The path sum at one subcarrier, one outer product per path."""
    h = np.zeros((ch.n_rx, ch.n_tx), dtype=complex)
    for p in ch.paths:
        phase = np.exp(-2j * np.pi * SAMPLE_RATE * p.delay * subcarrier / N_FFT)
        a_rx = steering_vector(ch.n_rx, p.aoa)
        a_tx = steering_vector(ch.n_tx, p.aod)
        h += p.gain * phase * np.outer(a_rx, a_tx.conj())
    return ch.gain_scale * h


@pytest.mark.parametrize("n_tx, n_rx", [(8, 8), (64, 8), (128, 4), (256, 16)])
def test_batched_subcarriers_equal_per_subcarrier_sum_bitwise(n_tx, n_rx):
    rng = np.random.default_rng(n_tx + n_rx)
    for _ in range(4):
        ch = sample_channel(n_tx, n_rx, rng)
        for ks in ([2048], np.arange(2043, 2053), [0, 1, 777, 2048, 4095] * 3):
            h = freq_channel(ch, ks)
            assert h.shape == (len(ks), n_rx, n_tx)
            for k, hk in zip(ks, h):
                assert np.array_equal(hk, per_subcarrier_sum(ch, int(k)))


def test_delay_phase_periodic_in_fft_length():
    # delay of N_FFT/SAMPLE_RATE rotates every subcarrier by a full turn
    rng = np.random.default_rng(5)
    base = sample_channel(BS, UE, rng)
    shifted_paths = [PathComponent(p.gain, p.delay + N_FFT / SAMPLE_RATE, p.aod, p.aoa, p.cluster, p.ray)
                     for p in base.paths]
    shifted = ChannelRealization(shifted_paths, BS, UE)
    ks = (1, 777, 2048)
    assert_allclose(freq_channel(shifted, ks), freq_channel(base, ks),
                    atol=1e-10)


def test_factorized_matches_sum_form():
    ch = sample_channel(BS, UE, np.random.default_rng(9))
    ks = (2043, 2048, 2052)
    for k, h in zip(ks, freq_channel(ch, ks)):
        a_rx, h_d, a_tx = factorized_channel(ch, k)
        scale = np.max(np.abs(h))
        assert np.max(np.abs(a_rx @ h_d @ a_tx.conj().T - h)) < 1e-12 * scale


def test_factorized_diagonal_moduli():
    ch = sample_channel(BS, UE, np.random.default_rng(10))
    _, h_d, _ = factorized_channel(ch, 2048)
    gains = np.array([p.gain for p in ch.paths])
    assert_allclose(np.abs(np.diag(h_d)), ch.gain_scale * np.abs(gains), atol=1e-12)


def test_mean_frobenius_energy_matches_array_sizes():
    rng = np.random.default_rng(123)
    total = 0.0
    n = 1500
    for _ in range(n):
        ch = sample_channel(BS, UE, rng)
        total += np.linalg.norm(freq_channel(ch, [2048])) ** 2
    mean = total / n
    want = UE * BS
    assert abs(mean - want) / want < 0.05


def test_params_validation():
    # NaN passed the `< 0` test, inf passed every test
    for value in (-1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="^delay_max must be non-negative and finite$"):
            sample_channel(BS, UE, np.random.default_rng(0), value)
    with pytest.raises(ValueError, match=r"^delay_max must be at most one OFDM symbol, "
                                         r"N_FFT / SAMPLE_RATE = 8\.33333e-06 s$"):
        sample_channel(BS, UE, np.random.default_rng(0), 1e300)
