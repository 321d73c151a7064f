import numpy as np
import pytest
from numpy.testing import assert_allclose

from beamcs.arrays import ArrayGeometry, beam_sin_values, build_grid, steering_vector


def test_steering_broadside_is_constant():
    v = steering_vector(ArrayGeometry(4), 0.0)
    assert_allclose(v, 0.5 * np.ones(4), rtol=0, atol=1e-15)


def test_steering_endfire_two_elements():
    v = steering_vector(ArrayGeometry(2), np.pi / 2)
    assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_steering_thirty_degrees_quarter_turn_steps():
    # sin(pi/6) = 1/2 -> phase step of pi/2 per element
    v = steering_vector(ArrayGeometry(8), np.pi / 6)
    want = np.array([1, 1j, -1, -1j, 1, 1j, -1, -1j]) / np.sqrt(8)
    assert_allclose(v, want, atol=1e-12)


def test_steering_rejects_nan():
    with pytest.raises(ValueError):
        steering_vector(ArrayGeometry(4), float("nan"))


def test_steering_unit_norm_and_conjugate_symmetry():
    geom = ArrayGeometry(16)
    rng = np.random.default_rng(7)
    for angle in rng.uniform(-np.pi / 2, np.pi / 2, size=50):
        v = steering_vector(geom, angle)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert_allclose(steering_vector(geom, -angle), v.conj(), atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)


def test_grid_sin_values_dft_order():
    grid = build_grid(ArrayGeometry(4), 2)
    want = [0.0, 0.25, 0.5, 0.75, -1.0, -0.75, -0.5, -0.25]
    assert_allclose(beam_sin_values(grid.shape[1]), want, rtol=0, atol=0)
    assert grid.shape == (4, 8)
    assert grid.dtype == complex and grid.flags.c_contiguous


def test_grid_first_column_is_broadside():
    grid = build_grid(ArrayGeometry(8), 3)
    assert_allclose(grid[:, 0], steering_vector(ArrayGeometry(8), 0.0), atol=1e-15)


def test_grid_columns_match_steering_vectors():
    geom = ArrayGeometry(8)
    grid = build_grid(geom, 4)
    for i, sin in enumerate(beam_sin_values(grid.shape[1])):
        assert_allclose(grid[:, i], steering_vector(geom, np.arcsin(sin)), atol=1e-12)


def test_grid_columns_unit_norm():
    grid = build_grid(ArrayGeometry(32), 3)
    assert_allclose(np.linalg.norm(grid, axis=0), np.ones(grid.shape[1]), atol=1e-12)


def test_grid_multiplier_one_is_unitary():
    grid = build_grid(ArrayGeometry(16), 1)
    gram = grid.conj().T @ grid
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


def test_grid_range_covers_full_sin_interval():
    n_bins = build_grid(ArrayGeometry(64), 3).shape[1]
    sin_grid = beam_sin_values(n_bins)
    assert sin_grid.min() == -1.0
    assert sin_grid.max() < 1.0
    assert np.all(np.abs(np.diff(np.sort(sin_grid)) - 2.0 / n_bins) < 1e-12)


def test_grid_rejects_bad_multiplier():
    with pytest.raises(ValueError):
        build_grid(ArrayGeometry(8), 0)
