"""Uniform linear arrays and sin-domain grid dictionaries."""

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


@dataclass(frozen=True, eq=False)
class GridDictionary:
    """Array responses sampled on a uniform sin-domain grid, DFT bin order."""

    geometry: ArrayGeometry
    n_bins: int
    sin_grid: np.ndarray
    atoms: np.ndarray  # (n_ant, n_bins), unit-norm columns


def build_grid(geometry: ArrayGeometry, multiplier: int) -> GridDictionary:
    """Dictionary with n_ant * multiplier bins.

    Bin i sits at beam_sin_values(G)[i], so multiplier 1 reproduces the
    DFT codebook order exactly.
    """
    if multiplier < 1:
        raise ValueError("multiplier must be positive")
    g = geometry.n_ant * multiplier
    sin_grid = beam_sin_values(g)
    n = np.arange(geometry.n_ant)[:, None]
    atoms = np.exp(1j * np.pi * n * sin_grid[None, :]) / np.sqrt(geometry.n_ant)
    return GridDictionary(geometry, g, sin_grid, atoms)
