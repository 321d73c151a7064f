"""
Clustered multipath channel realizations
========================================

The channel model groups rays into clusters: each cluster has a mean
departure/arrival angle and one shared delay, and its rays scatter
around the means with a small Laplace spread. This demo samples a
realization, prints the path table, and verifies the two equivalent
ways of building the frequency response.
"""

import math

import numpy as np

from beamcs import N_FFT, SAMPLE_RATE, freq_channel, sample_channel, steering_vector

rng = np.random.default_rng(7)
n_bs, n_ue = 64, 8  # antennas at the base station and at the user

# the model's constants: 2 clusters x 3 rays, 2 deg ray spread, 200 ns max delay
ch = sample_channel(n_bs, n_ue, rng)
print("paths:", len(ch.paths), " gain scale: %.3f" % ch.gain_scale)
print("cluster ray   |gain|   delay(ns)   AoD(deg)   AoA(deg)")
for p in ch.paths:
    print("   %d     %d    %5.2f     %6.1f     %7.2f    %7.2f"
          % (p.cluster, p.ray, abs(p.gain), p.delay * 1e9,
             math.degrees(p.aod), math.degrees(p.aoa)))

# rays of one cluster share the delay and stay near the cluster mean
delays = sorted({p.delay for p in ch.paths})
print("distinct delays:", len(delays))

# frequency response at a few of the 4096 subcarriers of 120 kHz (5G NR,
# numerology 3)
ks = (0, 1024, 2048)
for k, h in zip(ks, freq_channel(ch, ks)):
    print("subcarrier %4d  ||H||_F = %.3f" % (k, np.linalg.norm(h)))

# the sum over paths and the factored array-response form A_rx H_d A_tx^H
# agree: the A factors stack the paths' steering vectors, and the diagonal
# H_d holds each path's scaled gain times its delay phase at the subcarrier
a_rx = np.stack([steering_vector(n_ue, p.aoa) for p in ch.paths], axis=1)
a_tx = np.stack([steering_vector(n_bs, p.aod) for p in ch.paths], axis=1)
ks = (0, 777, 2048)
for k, h_sum in zip(ks, freq_channel(ch, ks)):
    h_d = np.diag([ch.gain_scale * p.gain * np.exp(-2j * np.pi * SAMPLE_RATE * p.delay * k / N_FFT)
                   for p in ch.paths])
    h_fac = a_rx @ h_d @ a_tx.conj().T
    rel = np.linalg.norm(h_sum - h_fac) / np.linalg.norm(h_sum)
    print("subcarrier %4d  relative difference: %.2e" % (k, rel))

# the normalization keeps the mean squared Frobenius norm near
# n_tx_antennas * n_rx_antennas
norms = []
for _ in range(300):
    c = sample_channel(n_bs, n_ue, rng)
    norms.append(np.linalg.norm(freq_channel(c, [2048])) ** 2)
print("mean ||H||_F^2 over 300 draws: %.1f (target %d)"
      % (np.mean(norms), n_bs * n_ue))
