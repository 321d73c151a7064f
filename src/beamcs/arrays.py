"""Half-wavelength uniform linear arrays, each given by its antenna count
n_ant, and their sin-domain angle grids: plain (n_ant, n_bins) matrices of
unit-norm atoms, column i at beam_sin_values(n_bins)[i]."""

import numpy as np


def steering_vector(n_ant: int, angle: float) -> np.ndarray:
    """Unit-norm array response at broadside angle `angle` (radians)."""
    if n_ant < 1:
        raise ValueError("n_ant must be positive")
    if np.isnan(angle):
        raise ValueError("angle must not be NaN")
    n = np.arange(n_ant)
    return np.exp(1j * np.pi * n * np.sin(angle)) / np.sqrt(n_ant)


def beam_sin_values(n_beams: int) -> np.ndarray:
    """Sin-domain positions of the n_beams DFT-ordered beams: beam b sits
    at 2b/n for b < n/2 and at 2b/n - 2 above."""
    b = np.arange(n_beams)
    return np.where(b < n_beams / 2, 2.0 * b / n_beams, 2.0 * b / n_beams - 2.0)


def build_grid(n_ant: int, multiplier: int) -> np.ndarray:
    """The C-ordered (n_ant, n_ant * multiplier) matrix of unit-norm array
    responses whose column i sits at beam_sin_values(n_ant * multiplier)[i],
    so multiplier 1 reproduces the DFT codebook order exactly.
    """
    if n_ant < 1:
        raise ValueError("n_ant must be positive")
    if multiplier < 1:
        raise ValueError("multiplier must be positive")
    sin_grid = beam_sin_values(n_ant * multiplier)
    n = np.arange(n_ant)[:, None]
    return np.exp(1j * np.pi * n * sin_grid[None, :]) / np.sqrt(n_ant)
