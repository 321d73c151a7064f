"""Property tests over codebook construction and layout, the circular beam
difference, codebook serialization and the sensing operator's adjoint."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcs import codebooks
from beamcs.arrays import ArrayGeometry, build_grid
from beamcs.codebooks import (Codebook, _combined_indices, dft_codebook, group_columns,
                              load_codebook, random_codebook, save_codebook)
from beamcs.detect import signed_circular_diff
from beamcs.sweep import SweepConfig, build_sensing_operator

# derandomized and without an example database, so every run draws the
# same examples
PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@contextmanager
def index_valued_entries():
    """Make every codebook entry equal its phase index as a complex number.

    These properties are about indices and layout, which the phasor table
    does not affect. The real table cannot be built for some (n_ant,
    phase_bits), such as (7, 6): no complex double near the target phasor
    has the exact modulus sqrt(1/n_ant) within the searched ulps.
    """
    with mock.patch.object(codebooks, "_phasor_table",
                           lambda phase_bits, n_ant: np.arange(1 << phase_bits) + 0j):
        yield


def dft_indices_oracle(n_ant: int, n_beams: int, phase_bits: int) -> np.ndarray:
    # nearest quantizer index of phase 2*pi*n*b/n_ant, halves rounded down
    levels = 1 << phase_bits
    idx = np.empty((n_beams, n_ant, 1), dtype=np.int64)
    for b in range(n_beams):
        for n in range(n_ant):
            idx[b, n, 0] = math.ceil(Fraction(n * b * levels, n_ant) - Fraction(1, 2)) % levels
    return idx


@PROPS
@given(st.integers(1, 64).flatmap(
    lambda n_ant: st.tuples(st.just(n_ant), st.integers(1, n_ant), st.integers(1, 8))))
def test_dft_indices_match_scalar_oracle(args):
    n_ant, n_beams, phase_bits = args
    with index_valued_entries():
        cb = dft_codebook(n_ant, n_beams, phase_bits)
    assert cb.phase_indices.dtype == np.int64
    assert np.array_equal(cb.phase_indices, dft_indices_oracle(n_ant, n_beams, phase_bits))
    assert np.array_equal(cb.entries, cb.phase_indices + 0j)


@PROPS
@given(n_entries=st.sampled_from([1, 2, 4, 8, 16]), beams_per=st.integers(1, 4),
       phase_bits=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_combined_indices_of_one_entry_match_full_build(n_entries, beams_per, phase_bits,
                                                        seed, data):
    n_ant = n_entries * beams_per
    rotations = np.random.default_rng(seed).integers(
        0, 1 << phase_bits, size=(n_entries, beams_per))
    full = _combined_indices(n_ant, n_entries, phase_bits, rotations)
    assert full.shape == (n_entries, n_ant, 1)
    m = data.draw(st.integers(0, n_entries - 1))
    one = _combined_indices(n_ant, n_entries, phase_bits, rotations, [m])
    assert np.array_equal(one, full[[m]])


@PROPS
@given(n_ant=st.integers(1, 12), n_entries=st.integers(1, 6), n_cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_group_columns_keeps_the_flat_column_order(n_ant, n_entries, n_cols, seed, data):
    total = n_entries * n_cols
    k = data.draw(st.sampled_from([d for d in range(1, total + 1) if total % d == 0]))
    with index_valued_entries():
        cb = random_codebook(n_ant, n_entries, n_cols, 6, np.random.default_rng(seed))
    g = group_columns(cb, k)
    flat = np.concatenate([cb.entry(m) for m in range(cb.n_entries)], axis=1)
    assert g.n_entries == total // k and g.n_cols == k
    assert np.array_equal(g.columns, flat)
    assert np.array_equal(np.concatenate([g.entry(j) for j in range(g.n_entries)], axis=1), flat)
    # entries equal their indices, so the indices follow the same order
    assert np.array_equal(g.phase_indices + 0j, g.entries)


@PROPS
@given(n=st.integers(1, 1024), est=st.integers(-5000, 5000), true=st.integers(-5000, 5000))
def test_signed_circular_diff_range(n, est, true):
    d = signed_circular_diff(est, true, n)
    assert -(n // 2) <= d < n - n // 2
    assert (d - (est - true)) % n == 0


@PROPS
@given(n_ant=st.integers(1, 16), n_entries=st.integers(1, 6), n_cols=st.integers(1, 3),
       phase_bits=st.integers(1, 8), kind=st.sampled_from(codebooks.KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_save_load_round_trip_exact(tmp_path_factory, n_ant, n_entries, n_cols, phase_bits,
                                    kind, seed):
    path = tmp_path_factory.mktemp("cbk") / "cb.txt"
    with index_valued_entries():
        drawn = random_codebook(n_ant, n_entries, n_cols, phase_bits,
                                np.random.default_rng(seed))
        cb = Codebook(kind, n_ant, phase_bits, drawn.phase_indices, drawn.entries)
        save_codebook(cb, path)
        back = load_codebook(path)
    assert (back.kind, back.n_ant, back.phase_bits) == (kind, n_ant, phase_bits)
    assert np.array_equal(back.phase_indices, cb.phase_indices)
    assert np.array_equal(back.entries, cb.entries)


def _raw_codebook(rng, n_entries, n_ant, n_cols):
    entries = rng.standard_normal((n_entries, n_ant, n_cols, 2)) @ np.array([1.0, 1j])
    return Codebook(codebooks.KIND_RANDOM, n_ant, None, None, entries)


@PROPS
@given(n_tx=st.integers(1, 6), n_rx=st.integers(1, 4), n_tx_entries=st.integers(1, 5),
       n_rx_entries=st.integers(1, 3), n_rf=st.integers(1, 3), n_pilots=st.integers(1, 3),
       tx_mult=st.integers(1, 3), rx_mult=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_operator_adjoint_identity(n_tx, n_rx, n_tx_entries, n_rx_entries, n_rf, n_pilots,
                                   tx_mult, rx_mult, seed):
    rng = np.random.default_rng(seed)
    cfg = SweepConfig(n_tx_entries=n_tx_entries, n_rx_entries=n_rx_entries, n_rf_ue=n_rf,
                      n_pilots=n_pilots)
    op = build_sensing_operator(_raw_codebook(rng, n_tx_entries, n_tx, 1),
                                _raw_codebook(rng, n_rx_entries, n_rx, n_rf),
                                build_grid(ArrayGeometry(n_tx), tx_mult),
                                build_grid(ArrayGeometry(n_rx), rx_mult), cfg)
    h = rng.standard_normal((op.shape[1], 2)) @ np.array([1.0, 1j])
    r = rng.standard_normal((op.shape[0], 2)) @ np.array([1.0, 1j])
    lhs = np.vdot(r, op.apply(h))
    rhs = np.vdot(op.adjoint_apply(r), h)
    scale = np.linalg.norm(op.to_dense()) * np.linalg.norm(h) * np.linalg.norm(r)
    assert abs(lhs - rhs) <= 1e-12 * scale
