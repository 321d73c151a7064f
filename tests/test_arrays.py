import numpy as np
import pytest
from numpy.testing import assert_allclose

from beamcs.arrays import beam_sin_values, build_grid, steering_vector
from beamcs.channel import sample_channel


def test_steering_broadside_is_constant():
    v = steering_vector(4, 0.0)
    assert_allclose(v, 0.5 * np.ones(4), rtol=0, atol=1e-15)


def test_steering_endfire_two_elements():
    v = steering_vector(2, np.pi / 2)
    assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_steering_thirty_degrees_quarter_turn_steps():
    # sin(pi/6) = 1/2 -> phase step of pi/2 per element
    v = steering_vector(8, np.pi / 6)
    want = np.array([1, 1j, -1, -1j, 1, 1j, -1, -1j]) / np.sqrt(8)
    assert_allclose(v, want, atol=1e-12)


def test_steering_rejects_nan():
    with pytest.raises(ValueError):
        steering_vector(4, float("nan"))


def test_steering_unit_norm_and_conjugate_symmetry():
    rng = np.random.default_rng(7)
    for angle in rng.uniform(-np.pi / 2, np.pi / 2, size=50):
        v = steering_vector(16, angle)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert_allclose(steering_vector(16, -angle), v.conj(), atol=1e-12)


@pytest.mark.parametrize("n_ant", [0, -1])
@pytest.mark.parametrize("build", [
    lambda n: steering_vector(n, 0.0),
    lambda n: build_grid(n, 1),
    lambda n: sample_channel(n, 8, np.random.default_rng(0)),
    lambda n: sample_channel(64, n, np.random.default_rng(0)),
], ids=["steering_vector", "build_grid", "sample_channel_tx", "sample_channel_rx"])
def test_nonpositive_n_ant_rejected(build, n_ant):
    with pytest.raises(ValueError, match="^n_ant must be positive$"):
        build(n_ant)


def test_grid_sin_values_dft_order():
    grid = build_grid(4, 2)
    want = [0.0, 0.25, 0.5, 0.75, -1.0, -0.75, -0.5, -0.25]
    assert_allclose(beam_sin_values(grid.shape[1]), want, rtol=0, atol=0)
    assert grid.shape == (4, 8)
    assert grid.dtype == complex and grid.flags.c_contiguous


def test_grid_first_column_is_broadside():
    grid = build_grid(8, 3)
    assert_allclose(grid[:, 0], steering_vector(8, 0.0), atol=1e-15)


def test_grid_columns_match_steering_vectors():
    grid = build_grid(8, 4)
    for i, sin in enumerate(beam_sin_values(grid.shape[1])):
        assert_allclose(grid[:, i], steering_vector(8, np.arcsin(sin)), atol=1e-12)


def test_grid_columns_unit_norm():
    grid = build_grid(32, 3)
    assert_allclose(np.linalg.norm(grid, axis=0), np.ones(grid.shape[1]), atol=1e-12)


def test_grid_multiplier_one_is_unitary():
    grid = build_grid(16, 1)
    gram = grid.conj().T @ grid
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


def test_grid_range_covers_full_sin_interval():
    n_bins = build_grid(64, 3).shape[1]
    sin_grid = beam_sin_values(n_bins)
    assert sin_grid.min() == -1.0
    assert sin_grid.max() < 1.0
    assert np.all(np.abs(np.diff(np.sort(sin_grid)) - 2.0 / n_bins) < 1e-12)


def test_grid_rejects_bad_multiplier():
    with pytest.raises(ValueError):
        build_grid(8, 0)
