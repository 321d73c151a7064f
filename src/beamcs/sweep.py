"""Beam-swept pilot acquisition and the induced sparse sensing operator.

One sweep transmits every tx codebook entry against every rx codebook
entry. Block m = i * n_rx_entries + j (tx entry i, rx entry j) yields
n_rf_ue samples per pilot subcarrier. The stacked measurement vector is
pilot-major:

    y[k * n_blocks * n_rf_ue + m * n_rf_ue + r]   pilot k, block m, chain r

A sweep is a noiseless signal (`sweep_signal`: free of noise_var, so one
serves every SNR point of a channel) plus combined noise (`acquire`). Noise
is drawn per receive antenna and passed through the combiner, so its
covariance is noise_var * W^H W by construction, never assumed white.

The sensing operator maps a vectorized grid-domain channel h (tx bin
major: g = g_tx * n_rx_bins + g_rx) to stacked noiseless measurements.
With analog-only, frequency-flat beams the per-pilot factors coincide, so
the operator stores one transmit-side factor and one receive-side factor
and never materializes the dense matrix outside the test path.
"""

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .arrays import GridDictionary
from .channel import ChannelRealization, freq_channel
from .codebooks import Codebook


@dataclass(frozen=True)
class SweepConfig:
    n_tx_entries: int = 64
    n_rx_entries: int = 2
    n_rf_ue: int = 4
    n_pilots: int = 10
    n_fft: int = 4096
    sample_rate: float = 491.52e6
    tx_power: float = 1.0
    noise_var: float = 1.0

    def __post_init__(self):
        if min(self.n_tx_entries, self.n_rx_entries, self.n_rf_ue, self.n_pilots) < 1:
            raise ValueError("sweep dimensions must be positive")
        if self.tx_power <= 0 or self.noise_var < 0:
            raise ValueError("tx_power must be positive and noise_var non-negative")

    @property
    def pilots(self) -> np.ndarray:
        """Pilot subcarrier indices: the centered block of n_pilots."""
        start = self.n_fft // 2 - self.n_pilots // 2
        return start + np.arange(self.n_pilots)

    @property
    def n_blocks(self) -> int:
        return self.n_tx_entries * self.n_rx_entries


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """One sweep's worth of combined pilot samples, stacked pilot-major
    as described in the module docstring."""

    y: np.ndarray
    config: SweepConfig


def transmit_vectors(tx_cb: Codebook, cfg: SweepConfig) -> np.ndarray:
    """Unit-norm effective transmit vector per codebook entry.

    Multi-column entries are driven with the equal-gain baseband vector,
    then renormalized.
    """
    if tx_cb.n_entries != cfg.n_tx_entries:
        raise ValueError("tx codebook length does not match the sweep")
    s = np.ones(tx_cb.n_cols) / np.sqrt(tx_cb.n_cols)
    # built C-ordered, so the norms below sum over antennas in one fixed order
    x = tx_cb.entries.transpose(1, 0, 2) @ s
    return x / np.linalg.norm(x, axis=0, keepdims=True)


def _combiner(rx_cb: Codebook, cfg: SweepConfig) -> np.ndarray:
    """W: the rx entries side by side, one column per (rx entry, chain)."""
    if rx_cb.n_entries != cfg.n_rx_entries or rx_cb.n_cols != cfg.n_rf_ue:
        raise ValueError("rx codebook shape does not match the sweep")
    return rx_cb.columns


def sweep_signal(ch: ChannelRealization, tx_cb: Codebook, rx_cb: Codebook,
                 cfg: SweepConfig) -> np.ndarray:
    """Noiseless sweep over one channel: (pilot, tx entry, rx entry, chain)."""
    if tx_cb.n_ant != ch.tx_geometry.n_ant or rx_cb.n_ant != ch.rx_geometry.n_ant:
        raise ValueError("codebook antenna counts do not match the channel")
    w_h = _combiner(rx_cb, cfg).conj().T
    x = transmit_vectors(tx_cb, cfg)
    h = freq_channel(ch, cfg.pilots, cfg.sample_rate, cfg.n_fft)
    sig = np.empty((cfg.n_pilots, w_h.shape[0], cfg.n_tx_entries), dtype=complex)
    for ki in range(cfg.n_pilots):
        sig[ki] = w_h @ h[ki] @ x
    sig_b = sig.reshape(cfg.n_pilots, cfg.n_rx_entries, cfg.n_rf_ue,
                        cfg.n_tx_entries).transpose(0, 3, 1, 2)
    return np.sqrt(cfg.tx_power) * sig_b


def acquire(signal: np.ndarray, rx_cb: Codebook, cfg: SweepConfig,
            rng: np.random.Generator) -> MeasurementSet:
    """Add combined noise to a noiseless sweep from `sweep_signal`."""
    if signal.shape != (cfg.n_pilots, cfg.n_tx_entries, cfg.n_rx_entries, cfg.n_rf_ue):
        raise ValueError("signal shape does not match the sweep")
    w_h = _combiner(rx_cb, cfg).conj().T
    # one antenna-domain noise vector per (pilot, tx entry, rx entry)
    draws = rng.standard_normal(
        size=(cfg.n_pilots, cfg.n_tx_entries, cfg.n_rx_entries, rx_cb.n_ant, 2))
    z = draws.view(complex)[..., 0] * np.sqrt(cfg.noise_var / 2.0)  # pairs as (re, im)
    w_h_split = w_h.reshape(cfg.n_rx_entries, cfg.n_rf_ue, rx_cb.n_ant)
    noise = np.einsum("jre,kije->kijr", w_h_split, z)
    return MeasurementSet((signal + noise).reshape(-1), cfg)


@dataclass(frozen=True, eq=False)
class SensingOperator:
    """Matrix-free stacked operator, one Kronecker factor pair per pilot.

    tx_factor = X^T conj(A_tx_grid), rx_factor = W^H A_rx_grid. Both are
    shared by all pilots (frequency-flat beams), so apply/adjoint reduce
    to two small matrix products per call.
    """

    tx_factor: np.ndarray  # (n_tx_entries, n_tx_bins)
    rx_factor: np.ndarray  # (n_rx_slots, n_rx_bins)
    n_pilots: int

    @property
    def n_tx_bins(self) -> int:
        return self.tx_factor.shape[1]

    @property
    def n_rx_bins(self) -> int:
        return self.rx_factor.shape[1]

    @property
    def shape(self) -> tuple:
        rows = self.n_pilots * self.tx_factor.shape[0] * self.rx_factor.shape[0]
        return (rows, self.n_tx_bins * self.n_rx_bins)

    def apply(self, h: np.ndarray) -> np.ndarray:
        hm = np.reshape(h, (self.n_rx_bins, self.n_tx_bins), order="F")
        block = self.rx_factor @ hm @ self.tx_factor.T
        return np.tile(block.reshape(-1, order="F"), self.n_pilots)

    def adjoint_apply(self, r: np.ndarray) -> np.ndarray:
        rows = self.tx_factor.shape[0] * self.rx_factor.shape[0]
        acc = np.reshape(r, (self.n_pilots, rows)).sum(axis=0)
        rm = np.reshape(acc, (self.rx_factor.shape[0], self.tx_factor.shape[0]), order="F")
        g = self.rx_factor.conj().T @ rm @ self.tx_factor.conj()
        return g.reshape(-1, order="F")

    def column(self, g: int) -> np.ndarray:
        gt, gr = divmod(g, self.n_rx_bins)
        block = np.outer(self.tx_factor[:, gt], self.rx_factor[:, gr]).reshape(-1)
        return np.broadcast_to(block, (self.n_pilots, block.size)).reshape(-1)

    def col_norms(self) -> np.ndarray:
        tn = np.linalg.norm(self.tx_factor, axis=0)
        rn = np.linalg.norm(self.rx_factor, axis=0)
        return np.sqrt(self.n_pilots) * np.repeat(tn, self.n_rx_bins) \
            * np.tile(rn, self.n_tx_bins)

    def to_dense(self) -> np.ndarray:
        """Materialized matrix. Test path only; quadratic in grid size."""
        return np.tile(np.kron(self.tx_factor, self.rx_factor), (self.n_pilots, 1))


def build_sensing_operator(tx_cb: Codebook, rx_cb: Codebook, tx_grid: GridDictionary,
                           rx_grid: GridDictionary, cfg: SweepConfig) -> SensingOperator:
    if tx_grid.geometry.n_ant != tx_cb.n_ant or rx_grid.geometry.n_ant != rx_cb.n_ant:
        raise ValueError("grid and codebook antenna counts differ")
    w = _combiner(rx_cb, cfg)
    x = transmit_vectors(tx_cb, cfg)
    tx_factor = x.T @ tx_grid.atoms.conj()
    rx_factor = w.conj().T @ rx_grid.atoms
    return SensingOperator(tx_factor, rx_factor, cfg.n_pilots)


def save_measurements(meas: MeasurementSet, path) -> None:
    """Raw samples as little-endian interleaved complex doubles plus a
    JSON sidecar holding the sweep configuration."""
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(meas.y, dtype="<c16").tobytes())
    sidecar = {"dtype": "<c16", "n_samples": int(meas.y.size),
               "config": asdict(meas.config)}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def load_measurements(path):
    """Returns (y, sidecar_dict) as written by save_measurements."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text(encoding="utf-8"))
    y = np.frombuffer(path.read_bytes(), dtype="<c16").copy()
    if y.size != sidecar["n_samples"]:
        raise ValueError("sample count does not match sidecar")
    return y, sidecar
