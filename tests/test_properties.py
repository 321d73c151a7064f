"""Property tests over the phasor table, codebook construction and layout,
the coherence score of the designed search, the circular beam difference,
the sensing operator's adjoint and OMP's exact recovery."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beamcs import codebooks
from beamcs.arrays import ArrayGeometry, build_grid
from beamcs.channel import ChannelRealization, PathComponent
from beamcs.codebooks import (Codebook, _beam_angles, _coherence_of_effective,
                              _combined_indices, _nearest_index, _phasor_table,
                              _quantize_indices, dft_codebook, group_columns, random_codebook)
from beamcs.detect import BeamPair, omp, signed_circular_diff, true_pairs
from beamcs.sweep import build_sensing_operator
from oracles import DenseOperator, apply, residual, to_dense

# derandomized and without an example database, so every run draws the
# same examples
PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@contextmanager
def index_valued_entries():
    """Make every codebook entry equal its phase index as a complex number.

    These properties are about indices and layout, which the phasor table
    does not affect; with index-valued entries a layout error shows in the
    entries too.
    """
    with mock.patch.object(codebooks, "_phasor_table",
                           lambda phase_bits, n_ant: np.arange(1 << phase_bits) + 0j):
        yield


# the examples need a nudge of more than 6 ulps in some component
@PROPS
@example(7, 5)
@example(7, 6)
@example(7, 7)
@example(7, 8)
@example(10, 6)
@example(50, 4)
@example(100, 7)
@given(n_ant=st.integers(1, 256), phase_bits=st.integers(1, 8))
def test_phasor_table_exact_modulus_and_nearest_phase(n_ant, phase_bits):
    table = _phasor_table(phase_bits, n_ant)
    levels = 1 << phase_bits
    amp = math.sqrt(1.0 / n_ant)
    assert np.all(np.abs(table) == amp)
    # each entry is its grid phasor to within rounding, so quantizes back to its index
    assert np.array_equal(_quantize_indices(np.angle(table), phase_bits), np.arange(levels))
    grid = amp * np.exp(2j * np.pi * np.arange(levels) / levels)
    assert np.max(np.abs(table - grid)) < 1e-13 * amp


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
    angles = _beam_angles(n_ant, n_entries)
    full = _combined_indices(angles, rotations, phase_bits)
    assert full.shape == (n_entries, n_ant, 1)
    m = data.draw(st.integers(0, n_entries - 1))
    one = _combined_indices(angles[m:m + 1], rotations[m:m + 1], phase_bits)
    assert np.array_equal(one, full[[m]])


def coherence_of_effective_oracle(eff: np.ndarray) -> float:
    # the score as first written: einsum column energies, complex division
    d = np.einsum("ij,ij->j", eff, eff.conj()).real
    d = np.where(d > 0.0, d, np.inf)
    z = eff / np.sqrt(d)[None, :]
    w = z @ z.conj().T
    n_finite = int(np.isfinite(d).sum())
    return float(np.sum(np.abs(w) ** 2) - n_finite)


# the designed search accepts a candidate on a strict < of this score, and
# many candidates score within rounding of the best, so only equal bits
# keep its accept/reject sequence. Both forms sum a C-ordered matrix down
# the rows one row at a time; a single column is summed pairwise instead,
# so it is left out here (its score is zero up to rounding, and the search
# scores at least 2 * n_entries columns)
@PROPS
@given(rows=st.integers(1, 64), cols=st.integers(2, 800), zero_frac=st.sampled_from([0, 0.2, 1]),
       log_scale=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
def test_coherence_score_bit_equals_the_einsum_division_form(rows, cols, zero_frac, log_scale,
                                                             seed):
    rng = np.random.default_rng(seed)
    eff = rng.standard_normal((rows, cols, 2)) @ np.array([1.0, 1j]) * 10.0 ** log_scale
    eff[:, rng.random(cols) < zero_frac] = 0.0
    assert _coherence_of_effective(eff) == coherence_of_effective_oracle(eff)


@PROPS
@given(n_ant=st.integers(1, 12), n_entries=st.integers(1, 6), n_cols=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_group_columns_keeps_the_flat_column_order(n_ant, n_entries, n_cols, seed, data):
    total = n_entries * n_cols
    k = data.draw(st.sampled_from([d for d in range(1, total + 1) if total % d == 0]))
    with index_valued_entries():
        cb = random_codebook(n_ant, n_entries, n_cols, 6, np.random.default_rng(seed))
    g = group_columns(cb, k)
    flat = np.concatenate([cb.entries[m] for m in range(cb.n_entries)], axis=1)
    assert g.n_entries == total // k and g.n_cols == k
    assert np.array_equal(g.columns, flat)
    assert np.array_equal(np.concatenate([g.entries[j] for j in range(g.n_entries)], axis=1), flat)
    # entries equal their indices, so the indices follow the same order
    assert np.array_equal(g.phase_indices + 0j, g.entries)


@PROPS
@given(n=st.integers(1, 1024), est=st.integers(-5000, 5000), true=st.integers(-5000, 5000))
def test_signed_circular_diff_range(n, est, true):
    d = signed_circular_diff(est, true, n)
    assert -(n // 2) <= d < n - n // 2
    assert (d - (est - true)) % n == 0


def _exact_beam_sin(b: int, n_beams: int) -> Fraction:
    # beam_sin_values(n_beams)[b] in exact arithmetic
    return Fraction(2 * b, n_beams) - (2 if 2 * b >= n_beams else 0)


def _nearest_beam_oracle(n_beams: int, sin: Fraction):
    """The beam of smallest circular sin distance to sin, or None when two
    beams lie within 1e-9 of that distance (a halfway point)."""
    def distance(b):
        d = abs(_exact_beam_sin(b, n_beams) - sin)
        return min(d, 2 - d)

    ranked = sorted(range(n_beams), key=distance)
    if n_beams > 1 and distance(ranked[1]) - distance(ranked[0]) <= Fraction(1, 10**9):
        return None
    return ranked[0]


@PROPS
@given(n=st.integers(1, 256), sin=st.floats(-1.0, 1.0))
def test_true_pairs_snaps_a_path_sine_to_the_circular_argmin(n, sin):
    angle = math.asin(sin)
    want = _nearest_beam_oracle(n, Fraction(math.sin(angle)))
    assume(want is not None)
    ch = ChannelRealization([PathComponent(1.0 + 0.0j, 0.0, angle, angle, 0, 0)], 1.0,
                            ArrayGeometry(1), ArrayGeometry(1))
    assert true_pairs(ch, n, n) == {BeamPair(want, want)}


@PROPS
@given(n=st.integers(1, 256), mult=st.integers(1, 8), data=st.data())
def test_nearest_index_snaps_a_grid_bin_to_the_circular_argmin(n, mult, data):
    # the expression cs_detect rounds bin g of an n * mult grid with
    g = data.draw(st.integers(0, n * mult - 1))
    want = _nearest_beam_oracle(n, _exact_beam_sin(g, n * mult))
    assume(want is not None)
    assert _nearest_index(g * n / (n * mult), n) == want


def _raw_codebook(rng, n_entries, n_ant, n_cols):
    entries = rng.standard_normal((n_entries, n_ant, n_cols, 2)) @ np.array([1.0, 1j])
    return Codebook(codebooks.KIND_RANDOM, None, None, entries)


@PROPS
@given(n_tx=st.integers(1, 6), n_rx=st.integers(1, 4), n_tx_entries=st.integers(1, 5),
       n_rx_entries=st.integers(1, 3), n_rf=st.integers(1, 3), n_pilots=st.integers(1, 3),
       tx_mult=st.integers(1, 3), rx_mult=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_operator_adjoint_identity(n_tx, n_rx, n_tx_entries, n_rx_entries, n_rf, n_pilots,
                                   tx_mult, rx_mult, seed):
    rng = np.random.default_rng(seed)
    op = build_sensing_operator(_raw_codebook(rng, n_tx_entries, n_tx, 1),
                                _raw_codebook(rng, n_rx_entries, n_rx, n_rf),
                                build_grid(ArrayGeometry(n_tx), tx_mult),
                                build_grid(ArrayGeometry(n_rx), rx_mult))
    h = rng.standard_normal((op.shape[1], 2)) @ np.array([1.0, 1j])
    r = rng.standard_normal((n_pilots * op.shape[0], 2)) @ np.array([1.0, 1j])
    # the block repeated over the pilots: its adjoint is the block's adjoint
    # of the pilot sum
    lhs = np.vdot(r, apply(op, h, n_pilots))
    rhs = np.vdot(op.adjoint_apply(r.reshape(n_pilots, -1).sum(axis=0)), h)
    scale = np.linalg.norm(to_dense(op, n_pilots)) * np.linalg.norm(h) * np.linalg.norm(r)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPS
@given(n_cols=st.integers(2, 48), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_omp_recovers_the_support_of_incoherent_sparse_signals(n_cols, seed, data):
    # noiseless y = A x with k nonzeros of modulus in [1, 2]. Mutual coherence
    # mu < 1 / (2k - 1) guarantees OMP picks a true column every iteration
    # (Tropp, IEEE TIT 2004), so k iterations return the true support.
    k = data.draw(st.integers(1, min(3, n_cols - 1)))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((256, n_cols, 2)) @ np.array([1.0, 1j])
    a /= np.linalg.norm(a, axis=0)
    gram = np.abs(a.conj().T @ a)
    np.fill_diagonal(gram, 0.0)
    assume(gram.max() * (2 * k - 1) < 1.0)
    support = rng.choice(n_cols, size=k, replace=False)
    x = rng.uniform(1.0, 2.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
    op = DenseOperator(a)
    y = a[:, support] @ x
    result = omp(op, y, k)
    assert sorted(result.support) == sorted(support)
    assert not result.ridge_flagged
    assert (np.linalg.norm(residual(op, y, result.support, result.coefficients))
            <= 1e-10 * np.linalg.norm(x))
