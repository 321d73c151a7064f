"""Slow reference implementations that the tests compare the product code
against. None of them runs in a sweep."""

import numpy as np
from scipy import integrate, stats

from beamcs.arrays import steering_vector
from beamcs.channel import N_FFT, SAMPLE_RATE
from beamcs.codebooks import _phasor_table, _quantize_indices
from beamcs.sweep import SensingOperator


class DenseOperator(SensingOperator):
    """A plain dense matrix as a Kronecker operator with a 1 x 1 receive
    factor, so that omp reads it like any sensing operator; cs_detect fits
    it to pilot means whatever its columns, as an alias-free operator."""

    aliased = False

    def __init__(self, a: np.ndarray):
        super().__init__(np.asarray(a), np.ones((1, 1)))


def freq_channel_loop(ch, subcarriers) -> np.ndarray:
    """freq_channel as a loop over paths and, per path, over subcarriers:
    the path's steering outer product scaled by its gain and delay phase
    at one subcarrier at a time."""
    subcarriers = [int(k) for k in subcarriers]
    h = np.zeros((len(subcarriers), ch.rx_geometry.n_ant, ch.tx_geometry.n_ant),
                 dtype=complex)
    for p in ch.paths:
        outer = np.outer(steering_vector(ch.rx_geometry, p.aoa),
                         steering_vector(ch.tx_geometry, p.aod).conj())
        for ki, k in enumerate(subcarriers):
            phase = np.exp(-2j * np.pi * SAMPLE_RATE * p.delay * k / N_FFT)
            h[ki] += p.gain * phase * outer
    return ch.gain_scale * h


def quantize_phases(matrix: np.ndarray, phase_bits: int) -> np.ndarray:
    """Project a complex matrix onto the phase-shifter value set.

    Keeps only the phase of each entry, rounded to the nearest of the
    2**phase_bits grid phases (ties toward the lower neighbor), and sets
    the modulus to sqrt(1/n_ant) with n_ant = number of rows. Entries that
    are exactly zero get phase index 0.
    """
    matrix = np.asarray(matrix)
    idx = _quantize_indices(np.angle(matrix), phase_bits)
    return _phasor_table(phase_bits, matrix.shape[0])[idx]


def apply(op: SensingOperator, h: np.ndarray, n_pilots: int = 1) -> np.ndarray:
    """Forward map of the sensing operator repeated over n_pilots pilots:
    flat noiseless measurements of the grid-domain channel h."""
    hm = np.reshape(h, (op.n_rx_bins, op.n_tx_bins), order="F")
    block = op.rx_factor @ hm @ op.tx_factor.T
    return np.tile(block.reshape(-1, order="F"), n_pilots)


def to_dense(op: SensingOperator, n_pilots: int = 1) -> np.ndarray:
    """Materialized sensing matrix of the block repeated over n_pilots
    pilots; quadratic in grid size."""
    return np.tile(np.kron(op.tx_factor, op.rx_factor), (n_pilots, 1))


def stacked_omp(op: SensingOperator, y: np.ndarray, sparsity: int):
    """Support and coefficients of the residual-domain OMP on the operator
    tiled over the pilots of y (its leading axis), written on the flat
    stacked measurement and the tiled columns: one adjoint of the pilot
    sum, one lstsq (ridge solve if rank deficient) per pick."""
    n_pilots, n_tx, n_rx = len(y), len(op.tx_factor), len(op.rx_factor)
    y = np.asarray(y, dtype=complex).reshape(-1)
    norms = np.sqrt(n_pilots) * np.repeat(np.linalg.norm(op.tx_factor, axis=0), op.n_rx_bins) \
        * np.tile(np.linalg.norm(op.rx_factor, axis=0), op.n_tx_bins)
    safe_norms = np.where(norms > 0.0, norms, np.inf)
    cols = np.empty((y.size, sparsity), dtype=complex)
    residual, support = y, []
    for i in range(sparsity):
        acc = residual.reshape(n_pilots, n_tx, n_rx).sum(axis=-3)
        corr = (op.tx_factor.conj().T @ (acc @ op.rx_factor.conj())).reshape(-1)
        scores = np.abs(corr) / safe_norms
        scores[support] = -1.0
        support.append(int(np.argmax(scores)))
        gt, gr = divmod(support[-1], op.n_rx_bins)
        cols[:, i] = np.tile(np.outer(op.tx_factor[:, gt], op.rx_factor[:, gr]).reshape(-1),
                             n_pilots)
        a = cols[:, :i + 1]
        coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < i + 1:
            gram = a.conj().T @ a + 1e-12 * float(norms.max()) ** 2 * np.eye(i + 1)
            coef = np.linalg.solve(gram, a.conj().T @ y)
        residual = y - a @ coef
    return tuple(support), coef


def combine_noise(z: np.ndarray, rx_cb) -> np.ndarray:
    """W_j^H z of every rx entry j, as one einsum: antenna-domain noise z of
    shape (pilot, tx entry, rx entry, antenna) as each RF chain sees it,
    (pilot, tx entry, rx entry, chain)."""
    w_h = rx_cb.columns.conj().T.reshape(rx_cb.n_entries, rx_cb.n_cols, rx_cb.n_ant)
    return np.einsum("jre,kije->kijr", w_h, z)


def residual(op: SensingOperator, y: np.ndarray, support, coefficients,
             n_pilots: int = 1) -> np.ndarray:
    """y - A_S x, the residual of an omp fit on the operator repeated over
    n_pilots pilots: the forward map of the coefficients scattered onto
    their support. A stacked fit, with a leading row axis on all three,
    gives one residual per row."""
    if np.ndim(y) == 2:
        return np.stack([residual(op, *row, n_pilots) for row in zip(y, support, coefficients)])
    h = np.zeros(op.shape[1], dtype=complex)
    h[list(support)] = coefficients
    return y - apply(op, h, n_pilots)


def _strongest_of(df: int, noncentrality: float, n_cells: int) -> float:
    """P(one noncentral chi^2(df, noncentrality) draw exceeds n_cells - 1
    independent central chi^2(df) draws): the integral of
    f_{chi'^2(df, lambda)} F_{chi^2(df)}^(n_cells - 1). quad rejects break
    points on an infinite range, so the integral stops 40 standard
    deviations above the noncentral mean."""
    signal = stats.ncx2(df, noncentrality)
    noise = stats.chi2(df)
    upper = signal.mean() + 40.0 * signal.std()
    value, _ = integrate.quad(lambda x: signal.pdf(x) * noise.cdf(x) ** (n_cells - 1),
                              0.0, upper, points=[signal.mean(), noise.isf(1.0 / n_cells)],
                              limit=200, epsabs=1e-10)
    return value


def pilot_mean_coherence(delay: float, pilots) -> float:
    """c = |sum_k exp(-j 2 pi SAMPLE_RATE delay k / N_FFT)|^2 / P^2 over the P pilot
    subcarriers: the share of a path's energy that the pilot mean keeps."""
    k = np.asarray(pilots, dtype=float)
    return float(abs(np.exp(-2j * np.pi * SAMPLE_RATE * delay * k / N_FFT).sum()) ** 2
                 / k.size ** 2)


def es_detection_probability(energy: float, noise_var: float, n_pilots: int,
                             n_pairs: int) -> float:
    """Probability that exhaustive search ranks the one signal pair first.

    The signal pair carries `energy` per pilot, every pair has white
    complex noise of variance noise_var per pilot, and the pairs are
    independent. Per pair the pilot-summed energy over noise_var / 2 is
    chi^2 with 2 P degrees of freedom, noncentral with 2 P energy /
    noise_var on the signal pair."""
    return _strongest_of(2 * n_pilots, 2 * n_pilots * energy / noise_var, n_pairs)


def omp_detection_probability(energy: float, noise_var: float, n_pilots: int,
                              coherence: float, n_bins: int) -> float:
    """Probability that one OMP pick on an orthogonal operator finds the
    one signal bin.

    The pilot mean keeps energy * coherence of the signal and noise of
    variance noise_var / P on each of n_bins orthogonal unit columns, so per
    bin |correlation|^2 over noise_var / (2 P) is chi^2 with 2 degrees of
    freedom, noncentral with 2 P energy coherence / noise_var on the signal
    bin."""
    return _strongest_of(2, 2 * n_pilots * energy * coherence / noise_var, n_bins)
