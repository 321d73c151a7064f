"""Uniform linear arrays and their sin-domain angle grids: plain (n_ant,
n_bins) matrices of unit-norm atoms, column i at beam_sin_values(n_bins)[i]."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayGeometry:
    """Half-wavelength ULA: the element pitch is half a wavelength."""

    n_ant: int

    def __post_init__(self):
        if self.n_ant < 1:
            raise ValueError("n_ant must be positive")


def steering_vector(geometry: ArrayGeometry, angle: float) -> np.ndarray:
    """Unit-norm array response at broadside angle `angle` (radians)."""
    if np.isnan(angle):
        raise ValueError("angle must not be NaN")
    n = np.arange(geometry.n_ant)
    return np.exp(1j * np.pi * n * np.sin(angle)) / np.sqrt(geometry.n_ant)


def beam_sin_values(n_beams: int) -> np.ndarray:
    """Sin-domain positions of the n_beams DFT-ordered beams: beam b sits
    at 2b/n for b < n/2 and at 2b/n - 2 above."""
    b = np.arange(n_beams)
    return np.where(b < n_beams / 2, 2.0 * b / n_beams, 2.0 * b / n_beams - 2.0)


def build_grid(geometry: ArrayGeometry, multiplier: int) -> np.ndarray:
    """The C-ordered (n_ant, n_ant * multiplier) matrix of unit-norm array
    responses whose column i sits at beam_sin_values(n_ant * multiplier)[i],
    so multiplier 1 reproduces the DFT codebook order exactly.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be positive")
    sin_grid = beam_sin_values(geometry.n_ant * multiplier)
    n = np.arange(geometry.n_ant)[:, None]
    return np.exp(1j * np.pi * n * sin_grid[None, :]) / np.sqrt(geometry.n_ant)
