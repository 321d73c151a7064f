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

from beamcs import (ArrayGeometry, ChannelParams, factorized_channel, freq_channel,
                    sample_channel)

rng = np.random.default_rng(7)
bs = ArrayGeometry(64)
ue = ArrayGeometry(8)
params = ChannelParams()  # 2 clusters x 3 rays, 2 deg ray spread, 200 ns max delay

ch = sample_channel(params, bs, ue, rng)
print("paths:", len(ch.paths), " gain scale: %.3f" % ch.gain_scale)
print("cluster ray   |gain|   delay(ns)   AoD(deg)   AoA(deg)")
for p in ch.paths:
    print("   %d     %d    %5.2f     %6.1f     %7.2f    %7.2f"
          % (p.cluster, p.ray, abs(p.gain), p.delay * 1e9,
             math.degrees(p.aod), math.degrees(p.aoa)))

# rays of one cluster share the delay and stay near the cluster mean
delays = sorted({p.delay for p in ch.paths})
print("distinct delays:", len(delays))

# frequency response at a few subcarriers (2 GHz-class OFDM numerology)
cfg = dict(n_fft=4096, sample_rate=491.52e6)
ks = (0, 1024, 2048)
for k, h in zip(ks, freq_channel(ch, ks, **cfg)):
    print("subcarrier %4d  ||H||_F = %.3f" % (k, np.linalg.norm(h)))

# the sum over paths and the factored array-response form agree
ks = (0, 777, 2048)
for k, h_sum in zip(ks, freq_channel(ch, ks, **cfg)):
    a_rx, h_d, a_tx = factorized_channel(ch, k, **cfg)
    h_fac = a_rx @ h_d @ a_tx.conj().T
    rel = np.linalg.norm(h_sum - h_fac) / np.linalg.norm(h_sum)
    print("subcarrier %4d  relative difference: %.2e" % (k, rel))

# the normalization keeps the mean squared Frobenius norm near
# n_tx_antennas * n_rx_antennas
norms = []
for _ in range(300):
    c = sample_channel(params, bs, ue, rng)
    norms.append(np.linalg.norm(freq_channel(c, [2048], **cfg)) ** 2)
print("mean ||H||_F^2 over 300 draws: %.1f (target %d)"
      % (np.mean(norms), bs.n_ant * ue.n_ant))
