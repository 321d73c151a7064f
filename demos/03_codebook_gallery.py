"""
Beam codebooks and total coherence
==================================

All sweep codebooks are constant-modulus with phases restricted to a
b-bit phase-shifter alphabet. This demo builds each kind, shows the
quantization, and compares total coherence, the figure of merit that
predicts sparse-recovery quality: lower is better.
"""

import numpy as np

from beamcs import (build_grid, designed_codebook, dft_codebook, multi_beam_dft_codebook,
                    random_codebook, total_coherence)

rng = np.random.default_rng(11)

# a DFT codebook at 6-bit phase resolution: entry m points at sin = 2m/n
dft = dft_codebook(64, 64, phase_bits=6)
print("DFT codebook:", dft.kind, dft.entries.shape)

# constant modulus holds exactly: every entry has |w| = 1/sqrt(n_ant)
mags = np.abs(dft.entries)
print("modulus spread: %.1e (amplitude %.4f)" % (np.ptp(mags), mags.flat[0]))

# phases live on the 64-point grid; the stored integer indices say where
print("entry 1 phase indices:", dft.phase_indices[1, :8, 0])

# random codebooks draw phases uniformly from the same alphabet
rnd = random_codebook(64, 64, 1, 6, rng)
print("random codebook:", rnd.kind, rnd.entries.shape)

# with more antennas than sweep slots the DFT beams do not fit; the
# multi-beam codebook packs ceil(n_ant / n_entries) DFT beams per entry
mb = multi_beam_dft_codebook(128, 64, 6)
print("multi-beam codebook:", mb.kind, mb.entries.shape)

# the designed codebook lowers total coherence by coordinate descent on
# per-beam rotations (a few sweeps already help; the default is 200)
grid = build_grid(128, 3)
dz = designed_codebook(128, grid, 64, 6, rng, sweeps=25)

print("\ntotal coherence over the multiplier-3 grid, 128 antennas:")
print("  multi-beam DFT: %10.2f" % total_coherence(mb, grid))
print("  designed:       %10.2f" % total_coherence(dz, grid))

# 64 antennas fit in 64 slots, so multi-beam reduces to plain DFT and
# the designed construction returns it unchanged
grid64 = build_grid(64, 3)
print("\n64 antennas for reference:")
print("  DFT:            %10.2f" % total_coherence(dft, grid64))
