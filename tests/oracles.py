"""Slow reference implementations that the tests compare the product code
against. None of them runs in a sweep."""

import numpy as np

from beamcs.codebooks import _phasor_table, _quantize_indices
from beamcs.sweep import SensingOperator


def DenseOperator(a: np.ndarray) -> SensingOperator:
    """A plain dense matrix as a Kronecker operator with a 1 x 1 receive
    factor, so that omp reads it like any sensing operator."""
    return SensingOperator(np.asarray(a), np.ones((1, 1)), aliased=False)


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


def apply(op: SensingOperator, h: np.ndarray) -> np.ndarray:
    """Forward map of the sensing operator: flat noiseless measurements of
    the grid-domain channel h."""
    hm = np.reshape(h, (op.n_rx_bins, op.n_tx_bins), order="F")
    block = op.rx_factor @ hm @ op.tx_factor.T
    return np.tile(block.reshape(-1, order="F"), op.n_pilots)


def to_dense(op: SensingOperator) -> np.ndarray:
    """Materialized sensing matrix; quadratic in grid size."""
    return np.tile(np.kron(op.tx_factor, op.rx_factor), (op.n_pilots, 1))
