"""Beam-swept pilot acquisition and the induced sparse sensing operator.

One sweep transmits every tx codebook entry against every rx codebook
entry, and each rx entry feeds one RF chain per column. The codebooks
alone fix the sweep's shape, and the pilot count is its only setting: the
pilots are the centred block of that many subcarriers (`pilots`). A
measurement is the C-ordered array

    y[k, i, j, r]   pilot k, tx entry i, rx entry j, chain r

so its flat form, which the sensing operator maps to, is pilot-major,
then tx entry, then rx entry, then chain.

A sweep is a noiseless signal (`sweep_signal`: free of noise_var, so one
serves every SNR point of a channel) plus combined noise (`acquire`, given
noise_var). Noise is drawn per receive antenna and passed through the
combiner, so its covariance is noise_var * W^H W by construction, never
assumed white. The combine is one BLAS matrix product per rx entry j,
W_j^H applied to the noise of every (pilot, tx entry) at once.

The sensing operator maps a vectorized grid-domain channel h (tx bin
major: g = g_tx * n_rx_bins + g_rx) to one pilot's noiseless measurements.
With analog-only, frequency-flat beams every pilot sees that one block, so
the operator stores that block's transmit-side and receive-side factors,
never the dense matrix; only `_stacked_omp` repeats it over the pilots.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import N_FFT, ChannelRealization, freq_channel
from .codebooks import Codebook


def pilots(n_pilots: int) -> np.ndarray:
    """Pilot subcarrier indices: the centred block of n_pilots."""
    # written as `not (...)` so that NaN fails too
    if not 1 <= n_pilots <= N_FFT:
        raise ValueError("n_pilots must be positive and at most the FFT size %d" % N_FFT)
    start = N_FFT // 2 - n_pilots // 2
    return np.arange(start, start + n_pilots)


def transmit_vectors(tx_cb: Codebook) -> np.ndarray:
    """Unit-norm transmit vector per entry of a single-column codebook."""
    if tx_cb.n_cols != 1:
        raise ValueError("a transmit codebook has one column per entry, not %d" % tx_cb.n_cols)
    # C-ordered, so the norms below sum over antennas in one fixed order
    x = tx_cb.columns
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def sweep_signal(ch: ChannelRealization, tx_cb: Codebook, rx_cb: Codebook,
                 n_pilots: int) -> np.ndarray:
    """Noiseless sweep over one channel: (pilot, tx entry, rx entry, chain)."""
    if tx_cb.n_ant != ch.tx_geometry.n_ant or rx_cb.n_ant != ch.rx_geometry.n_ant:
        raise ValueError("codebook antenna counts do not match the channel")
    w_h = rx_cb.columns.conj().T
    x = transmit_vectors(tx_cb)
    h = freq_channel(ch, pilots(n_pilots))
    sig = w_h @ h @ x
    return sig.reshape(n_pilots, rx_cb.n_entries, rx_cb.n_cols,
                       tx_cb.n_entries).transpose(0, 3, 1, 2)


def acquire(signal: np.ndarray, rx_cb: Codebook, noise_var: float,
            rng: np.random.Generator) -> np.ndarray:
    """Add combined noise of per-antenna variance noise_var to a noiseless
    sweep from `sweep_signal`. Returns the C-ordered (pilot, tx entry,
    rx entry, chain) measurement.

    Each (pilot, tx entry, rx entry) draws one antenna-domain noise vector
    z, and rx entry j's chains see W_j^H z, so the combined noise has
    covariance exactly noise_var * W_j^H W_j. The combine runs as one BLAS
    product per rx entry, written into the result's own layout.
    """
    if not (noise_var >= 0 and math.isfinite(noise_var)):
        raise ValueError("noise_var must be non-negative and finite")
    if signal.shape[2:] != (rx_cb.n_entries, rx_cb.n_cols):
        raise ValueError("rx codebook shape does not match the signal")
    n_rx, n_ant, n_cols = rx_cb.entries.shape
    # one antenna-domain noise vector per (pilot, tx entry, rx entry)
    draws = rng.standard_normal(size=signal.shape[:3] + (n_ant, 2))
    z = draws.view(complex)[..., 0] * np.sqrt(noise_var / 2.0)  # pairs as (re, im)
    # W_j^H z as rows: (pilot * tx entry, antenna) @ conj(W_j) for each rx
    # entry j, over rx-entry-major views of z and y, so it lands in y's layout
    y = np.empty(signal.shape, dtype=complex)
    np.matmul(z.reshape(-1, n_rx, n_ant).transpose(1, 0, 2), rx_cb.entries.conj(),
              out=y.reshape(-1, n_rx, n_cols).transpose(1, 0, 2))
    y += signal
    return y


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Matrix-free operator of one pilot block, as one Kronecker factor pair.

    tx_factor = X^T conj(A_tx_grid), rx_factor = W^H A_rx_grid. Every pilot
    sees this block (frequency-flat beams), and only `col_norms` counts the
    pilots. The adjoint reduces to two small matrix products per call,
    whatever the number of leading axes; `columns` builds a support's
    columns, and a Gram column A^H a_g is kept as its two Kronecker factors
    (`gram_factors`), never as one n_bins-long row.

    `cs_detect` fits only alias-free operators to pilot means (`aliased`).
    """

    tx_factor: np.ndarray  # (n_tx_entries, n_tx_bins)
    rx_factor: np.ndarray  # (n_rx_slots, n_rx_bins)

    @cached_property
    def aliased(self) -> bool:
        """True when either factor has two exactly parallel columns
        (`parallel_columns`), as the multi-beam transmit factor has at 128
        and 256 antennas. Worked out on the first read, by the first
        `cs_detect` on this operator, so building an operator forms no Gram."""
        return any(parallel_columns(f).any() for f in (self.tx_factor, self.rx_factor))

    @property
    def n_tx_bins(self) -> int:
        return self.tx_factor.shape[1]

    @property
    def n_rx_bins(self) -> int:
        return self.rx_factor.shape[1]

    @property
    def shape(self) -> tuple:
        return (len(self.tx_factor) * len(self.rx_factor), self.n_tx_bins * self.n_rx_bins)

    def adjoint_apply(self, r: np.ndarray) -> np.ndarray:
        """A^H r over the last axis of r; leading axes are kept.

        The receive side is contracted first, and the result comes out in
        bin order (tx bin major).
        """
        n_tx, n_rx = self.tx_factor.shape[0], self.rx_factor.shape[0]
        lead = np.shape(r)[:-1]
        g = self.tx_factor.conj().T @ (np.reshape(r, lead + (n_tx, n_rx)) @ self.rx_factor.conj())
        return g.reshape(lead + (self.shape[1],))

    def columns(self, support) -> np.ndarray:
        """The C-ordered (rows, len(support)) block of the support's columns,
        tx_factor[:, g_tx] * rx_factor[:, g_rx]."""
        gt, gr = np.divmod(support, self.n_rx_bins)
        block = np.multiply(self.tx_factor[:, gt][:, None], self.rx_factor[:, gr], order="C")
        return block.reshape(-1, gt.size)

    def gram_factors(self, g: np.ndarray) -> tuple:
        """Kronecker factors (t, r) of the Gram columns of the bins g, one
        row each: A^H a_g[i] = kron(t[i], r[i])."""
        gt, gr = np.divmod(g, self.n_rx_bins)
        # one vector-matrix product per bin, so a row does not depend on
        # how many bins are asked for at once
        t = np.conj(self.tx_factor.T[gt].conj()[:, None] @ self.tx_factor)[:, 0]
        r = np.conj(self.rx_factor.T[gr].conj()[:, None] @ self.rx_factor)[:, 0]
        return t, r

    def col_norms(self, n_pilots: int) -> np.ndarray:
        """Column norms of the block repeated over n_pilots pilots."""
        tn = np.linalg.norm(self.tx_factor, axis=0)
        rn = np.linalg.norm(self.rx_factor, axis=0)
        return np.repeat(np.sqrt(n_pilots) * tn, self.n_rx_bins) * np.tile(rn, self.n_tx_bins)


def parallel_columns(factor: np.ndarray) -> np.ndarray:
    """Mask of the columns parallel to a lower-index column, i.e. whose
    unit-normalized inner product with it has modulus above 1 - 1e-9.

    The Gram is built 64 columns at a time, so memory stays linear in the
    column count.
    """
    u = factor / np.linalg.norm(factor, axis=0)
    n = u.shape[1]
    mask = np.zeros(n, dtype=bool)
    for start in range(0, n, 64):
        stop = min(start + 64, n)
        cos = np.abs(u[:, start:stop].conj().T @ u[:, :stop])
        lower = np.arange(stop) < np.arange(start, stop)[:, None]
        mask[start:stop] = ((cos > 1.0 - 1e-9) & lower).any(axis=1)
    return mask


def build_sensing_operator(tx_cb: Codebook, rx_cb: Codebook, tx_grid: np.ndarray,
                           rx_grid: np.ndarray) -> SensingOperator:
    if tx_grid.shape[0] != tx_cb.n_ant or rx_grid.shape[0] != rx_cb.n_ant:
        raise ValueError("grid and codebook antenna counts differ")
    tx_factor = transmit_vectors(tx_cb).T @ tx_grid.conj()
    rx_factor = rx_cb.columns.conj().T @ rx_grid
    return SensingOperator(tx_factor, rx_factor)
