"""
One beam sweep, two detectors
=============================

A single trial end to end: sample a channel, sweep all transmit beams
while the receiver cycles its combiners, then detect the dominant beam
pairs once by exhaustive energy ranking and once by sparse recovery on
the grid-domain operator.
"""

import numpy as np

from beamcs import (ArrayGeometry, ChannelParams, acquire, beam_index_errors, build_grid,
                    build_sensing_operator, cs_detect, dft_codebook, exhaustive_search,
                    group_columns, pilot_response, sample_channel, sweep_signal, true_pairs)

rng = np.random.default_rng(21)
bs, ue = ArrayGeometry(64), ArrayGeometry(8)

# 64 single-beam transmit entries; the 8 receive beams are grouped into
# 2 sweep slots of 4 simultaneous combiner columns (one per RF chain)
tx_cb = dft_codebook(64, 64, 6)
rx_cb = group_columns(dft_codebook(8, 8, 6), 4)

# 10 pilot subcarriers, shared by every SNR point; +10 dB transmit SNR
n_pilots = 10
noise_var = 10.0 ** (-1.0)

ch = sample_channel(ChannelParams(), bs, ue, rng)
truth = true_pairs(ch, 64, 8)
print("true pairs:", sorted(truth))

# the noiseless sweep over the channel, then combined receiver noise
y = acquire(sweep_signal(pilot_response(ch, n_pilots), tx_cb, rx_cb), rx_cb, noise_var, rng)
print("measurement shape (pilot, tx entry, rx entry, chain):", y.shape)

# exhaustive search ranks (tx entry, combiner column) energies
es = exhaustive_search(y, n_pairs=len(truth))
print("ES estimates: ", list(es.estimated))

# sparse recovery sees the same measurements through the sensing operator,
# one pilot block that every pilot shares; cs_detect fits it to the pilot mean.
# It takes any number of measurements of one sweep (the experiment passes one
# per SNR point, fitted together) and returns one outcome for each
op = build_sensing_operator(tx_cb, rx_cb, build_grid(bs, 3), build_grid(ue, 3))
print("operator shape (one pilot block):", op.shape)

cs = cs_detect(op, [y], sparsity=6, n_tx_beams=64, n_rx_beams=8, n_pairs=len(truth))[0]
print("OMP estimates:", list(cs.estimated))
print("OMP support bins:", cs.support)

# per true pair, signed circular index error of the nearest estimate
for name, out in (("ES ", es), ("OMP", cs)):
    tx_err, rx_err = beam_index_errors(out.estimated, truth, 64, 8)
    print("%s errors  tx: %s  rx: %s" % (name, tx_err, rx_err))
