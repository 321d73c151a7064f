import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from beamcs import detect
from beamcs.arrays import ArrayGeometry, beam_sin_values, build_grid
from beamcs.channel import ChannelParams, ChannelRealization, PathComponent, sample_channel
from beamcs.codebooks import (_nearest_index, designed_codebook, dft_codebook,
                              group_columns, multi_beam_dft_codebook, random_codebook)
from beamcs.detect import (BeamPair, beam_index_errors, cs_detect, exhaustive_search, omp,
                           signed_circular_diff, true_pairs)
from beamcs.metrics import single_beam_match
from beamcs.sweep import acquire, build_sensing_operator, pilot_response, sweep_signal
from oracles import DenseOperator, residual, stacked_omp, to_dense


def make_channel(paths, n_bs=64, n_ue=8):
    scale = math.sqrt(n_bs * n_ue / len(paths))
    return ChannelRealization(list(paths), scale, ArrayGeometry(n_bs), ArrayGeometry(n_ue))


def on_beam_path(tx_beam, rx_beam, n_tx=64, n_rx=8, gain=1.0 + 0.0j, delay=0.0):
    tx_sin = beam_sin_values(n_tx)[tx_beam]
    rx_sin = beam_sin_values(n_rx)[rx_beam]
    return PathComponent(gain, delay, math.asin(tx_sin), math.asin(rx_sin), 0, 0)


def test_true_pairs_exact_directions():
    ch = make_channel([on_beam_path(5, 3), on_beam_path(40, 6)])
    assert true_pairs(ch, 64, 8) == {BeamPair(5, 3), BeamPair(40, 6)}


def test_true_pairs_dedups_nearby_rays():
    base = on_beam_path(12, 2)
    nudged = PathComponent(0.5j, 0.0, base.aod + 1e-4, base.aoa - 1e-4, 0, 1)
    ch = make_channel([base, nudged])
    pairs = true_pairs(ch, 64, 8)
    assert pairs == {BeamPair(12, 2)}


def test_true_pairs_matches_brute_force():
    def circ(a, b):
        d = abs(a - b)
        return min(d, 2.0 - d)

    rng = np.random.default_rng(17)
    for _ in range(25):
        ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8), rng)
        got = true_pairs(ch, 64, 8)
        tx_sins, rx_sins = beam_sin_values(64), beam_sin_values(8)
        want = set()
        for p in ch.paths:
            best_tx = min(range(64), key=lambda b: (circ(tx_sins[b], math.sin(p.aod)), b))
            best_rx = min(range(8), key=lambda b: (circ(rx_sins[b], math.sin(p.aoa)), b))
            want.add(BeamPair(best_tx, best_rx))
        assert got == want


def test_true_pairs_wraps_at_sin_seam():
    # sin +0.99 is 0.01 from the endfire beam (sin -1) on the sin circle,
    # so it must map to beam n/2, not to the largest positive-sin beam
    seam = PathComponent(1.0 + 0.0j, 0.0, math.asin(0.99), math.asin(0.99), 0, 0)
    ch = make_channel([seam])
    assert true_pairs(ch, 64, 8) == {BeamPair(32, 4)}
    # midpoint between the last positive-sin beam and endfire ties low
    mid = PathComponent(1.0 + 0.0j, 0.0, math.asin(63.0 / 64.0), math.asin(7.0 / 8.0), 0, 0)
    ch = make_channel([mid])
    assert true_pairs(ch, 64, 8) == {BeamPair(31, 3)}


@pytest.mark.parametrize("n, at_plus_one, at_last, at_minus_step", [
    (1, 0, 0, 0), (5, 2, 2, 4), (8, 4, 3, 7), (64, 32, 31, 63), (255, 127, 127, 254)])
def test_true_pairs_seams(n, at_plus_one, at_last, at_minus_step):
    # sin +-1 is one point of the sin circle: beam n/2 for even n, else
    # halfway between two beams; (n-1)/n and -1/n are halfway points for
    # even n, and a halfway path goes to the beam at sin - 1/n
    for sin, want in ((1.0, at_plus_one), (-1.0, at_plus_one),
                      ((n - 1) / n, at_last), (-1 / n, at_minus_step)):
        angle = math.asin(sin)
        assert math.sin(angle) == sin
        ch = make_channel([PathComponent(1.0 + 0.0j, 0.0, angle, angle, 0, 0)])
        assert true_pairs(ch, n, n) == {BeamPair(want, want)}


def test_halfway_bin_goes_to_the_lower_beam():
    # at grid multiplier 2 every odd bin is halfway between two beams; a
    # path on such a bin is fitted there, and bin and path both go to the
    # lower beam
    tx, rx, op = cs_setup(2)
    for tx_bin, want in ((41, 20), (127, 63)):
        path = PathComponent(1.0 + 0.0j, 0.0, math.asin(beam_sin_values(128)[tx_bin]),
                             math.asin(beam_sin_values(8)[2]), 0, 0)
        ch = make_channel([path])
        y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0,
                    np.random.default_rng(0))
        out = cs_detect(op, [y], sparsity=1, n_tx_beams=64, n_rx_beams=8, n_pairs=1)[0]
        assert out.support == (tx_bin * op.n_rx_bins + 4,)
        assert out.estimated == (BeamPair(want, 2),)
        assert true_pairs(ch, 64, 8) == {BeamPair(want, 2)}


def dft_pair_codebooks(n_tx=64, n_ue=8):
    return dft_codebook(n_tx, n_tx, 6), group_columns(dft_codebook(n_ue, n_ue, 6), 4)


def test_exhaustive_search_finds_aligned_path():
    ch = make_channel([on_beam_path(23, 5)])
    tx, rx = dft_pair_codebooks()
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0, np.random.default_rng(0))
    out = exhaustive_search(y, 1)
    assert out.estimated == (BeamPair(23, 5),)


def test_exhaustive_search_matches_brute_force_ranking():
    ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                        np.random.default_rng(21))
    tx, rx = dft_pair_codebooks()
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.5, np.random.default_rng(22))
    n_pairs = 5
    out = exhaustive_search(y, n_pairs)
    # independent route: accumulate energies straight from the stacked vector
    metric = {}
    n_rxb = 8
    for k in range(10):
        for i in range(64):
            for j in range(2):
                for r in range(4):
                    flat = k * 128 * 4 + (i * 2 + j) * 4 + r
                    key = (i, j * 4 + r)
                    metric[key] = metric.get(key, 0.0) + abs(y.reshape(-1)[flat]) ** 2
    want = sorted(metric, key=lambda p: (-metric[p], p[0], p[1]))[:n_pairs]
    assert [tuple(p) for p in out.estimated] == want


def test_exhaustive_search_tie_break_prefers_low_indices():
    y = np.ones((3, 4, 1, 2), dtype=complex)  # pilot, tx entry, rx entry, chain
    out = exhaustive_search(y, 3)
    assert out.estimated == (BeamPair(0, 0), BeamPair(0, 1), BeamPair(1, 0))
    with pytest.raises(ValueError):
        exhaustive_search(y, 9)


def test_omp_recovers_single_column():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((12, 20)) + 1j * rng.standard_normal((12, 20))
    y = 2.5 * a[:, 13]
    res = omp(DenseOperator(a), y, 1)
    assert res.support == (13,)
    assert_allclose(res.coefficients, [2.5], atol=1e-10)
    assert not res.ridge_flagged


def test_omp_orthonormal_two_atoms_ordered_by_magnitude():
    a = np.eye(8, dtype=complex)
    y = np.zeros(8, dtype=complex)
    y[1], y[5] = 3.0, 1.0
    op = DenseOperator(a)
    res = omp(op, y, 2)
    assert res.support == (1, 5)
    assert_allclose(res.coefficients, [3.0, 1.0], atol=1e-12)
    assert np.linalg.norm(residual(op, y, res.support, res.coefficients)) < 1e-12


def test_omp_residual_norms_never_increase():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = rng.standard_normal((24, 40)) + 1j * rng.standard_normal((24, 40))
        y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        # the picks for k are a prefix of the picks for k + 1
        op = DenseOperator(a)
        norms = [float(np.linalg.norm(y))]
        fits = [omp(op, y, k) for k in range(1, 9)]
        norms += [float(np.linalg.norm(residual(op, y, f.support, f.coefficients)))
                  for f in fits]
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev + 1e-9 * norms[0]


def test_omp_matches_exhaustive_l0_on_small_instances():
    # sanity subset; the acceptance suite runs the full 100 seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((32, 64)) + 1j * rng.standard_normal((32, 64))) / np.sqrt(2)
        supp = rng.choice(64, size=2, replace=False)
        coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = a[:, supp] @ coef
        best = None
        for combo in itertools.combinations(range(64), 2):
            sub = a[:, combo]
            c, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
            r = float(np.linalg.norm(y - sub @ c))
            if best is None or r < best[0] - 1e-12:
                best = (r, frozenset(combo))
        assert frozenset(omp(DenseOperator(a), y, 2).support) == best[1]


def test_omp_duplicate_columns_trigger_ridge_flag():
    u = np.array([1.0, 1j, -1.0, 2.0]) / np.sqrt(7)
    a = np.stack([u, u], axis=1)
    res = omp(DenseOperator(a), u, 2)
    assert res.support == (0, 1)
    assert res.ridge_flagged


def test_gram_omp_matches_the_residual_loop_on_one_block():
    # omp updates the correlations from Gram columns and solves the Gram
    # system; _stacked_omp applies the adjoint and runs lstsq on every pick
    rng = np.random.default_rng(21)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    grid = build_grid(ArrayGeometry(64), 3)
    txs = (dft_codebook(64, 64, 6), random_codebook(64, 64, 1, 6, rng),
           designed_codebook(64, grid, 64, 6, rng, sweeps=2))
    snrs = np.arange(-30.0, 35.0, 5.0)
    for tx in txs:
        op = build_sensing_operator(tx, rx, grid, build_grid(ArrayGeometry(8), 3))
        assert not op.aliased
        for seed in range(3):
            ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                                np.random.default_rng(seed))
            signal = sweep_signal(pilot_response(ch, 10), tx, rx)
            for snr_db in snrs:
                y = acquire(signal, rx, 10.0 ** (-snr_db / 10.0),
                            np.random.default_rng(200 + seed)).mean(axis=0).reshape(-1)
                got, want = omp(op, y, 6), detect._stacked_omp(op, y[None], 6)
                assert got.support == want.support
                assert_allclose(got.coefficients, want.coefficients, rtol=1e-9)
                assert_allclose(residual(op, y, got.support, got.coefficients),
                                residual(op, y, want.support, want.coefficients), rtol=0,
                                atol=1e-9 * np.abs(y).max())
                assert not got.ridge_flagged and not want.ridge_flagged


def test_batched_omp_rows_equal_the_rows_fitted_alone_bitwise():
    # the 13 SNR points of one sweep, as cs_detect stacks their pilot means
    rng = np.random.default_rng(23)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    grid = build_grid(ArrayGeometry(64), 3)
    txs = (dft_codebook(64, 64, 6), random_codebook(64, 64, 1, 6, rng),
           designed_codebook(64, grid, 64, 6, rng, sweeps=2))
    for tx in txs:
        op = build_sensing_operator(tx, rx, grid, build_grid(ArrayGeometry(8), 3))
        for seed in range(2):
            ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                                np.random.default_rng(seed))
            signal = sweep_signal(pilot_response(ch, 10), tx, rx)
            ys = np.stack([acquire(signal, rx, 10.0 ** (-snr_db / 10.0),
                                   np.random.default_rng(300 + seed)).mean(axis=0).reshape(-1)
                           for snr_db in np.arange(-30.0, 35.0, 5.0)])
            batch = omp(op, ys, 6)
            batch_residual = residual(op, ys, batch.support, batch.coefficients)
            assert batch.coefficients.shape == (13, 6) and batch_residual.shape == ys.shape
            assert batch.ridge_flagged == ()
            for b, y in enumerate(ys):
                alone = omp(op, y, 6)
                assert batch.support[b] == alone.support
                assert np.array_equal(batch.coefficients[b], alone.coefficients)
                assert np.array_equal(batch_residual[b],
                                      residual(op, y, alone.support, alone.coefficients))


def test_batched_omp_flags_only_the_row_that_takes_the_ridge():
    # columns 0 and 1 are equal and orthogonal to column 2: the row equal
    # to u picks both copies, every row v + c u picks column 2 second
    u = np.array([1.0, 1.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, -1.0])
    op = DenseOperator(np.stack([u, u, v], axis=1))
    ys = np.stack([v + 0.5 * b * u for b in range(13)]).astype(complex)
    ys[6] = u
    batch = omp(op, ys, 2)
    assert batch.ridge_flagged == (6,)
    assert batch.support[6] == (0, 1)
    for b, y in enumerate(ys):
        assert omp(op, y, 2).ridge_flagged == (b == 6)
    outs = cs_detect(op, [y[None] for y in ys], sparsity=2, n_tx_beams=3, n_rx_beams=1,
                     n_pairs=1)
    assert [out.ridge_flagged for out in outs] == [b == 6 for b in range(13)]


def test_omp_rejects_bad_sparsity():
    a = DenseOperator(np.eye(4))
    with pytest.raises(ValueError):
        omp(a, np.ones(4), 0)
    with pytest.raises(ValueError):
        omp(a, np.ones(4), 5)


def cs_setup(multiplier, n_tx=64, n_ue=8, seed=7):
    tx, rx = dft_pair_codebooks(n_tx, n_ue)
    tx_grid = build_grid(ArrayGeometry(n_tx), multiplier)
    rx_grid = build_grid(ArrayGeometry(n_ue), multiplier)
    op = build_sensing_operator(tx, rx, tx_grid, rx_grid)
    return tx, rx, op


def test_cs_detect_on_grid_single_path():
    for mult in (1, 3):
        tx, rx, op = cs_setup(mult)
        ch = make_channel([on_beam_path(37, 2)])
        y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0,
                    np.random.default_rng(0))
        out = cs_detect(op, [y], sparsity=1, n_tx_beams=64, n_rx_beams=8, n_pairs=1)[0]
        assert out.estimated == (BeamPair(37, 2),)
        assert not out.ridge_flagged


def test_cs_detect_support_bin_arithmetic():
    tx, rx, op = cs_setup(3)
    ch = make_channel([on_beam_path(10, 6)])
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0, np.random.default_rng(0))
    out = cs_detect(op, [y], sparsity=1, n_tx_beams=64, n_rx_beams=8, n_pairs=1)[0]
    g = out.support[0]
    # bin splits as (tx_bin, rx_bin) with the rx grid minor
    assert (g // op.n_rx_bins, g % op.n_rx_bins) == (10 * 3, 6 * 3)


def test_cs_detect_pads_when_dedup_runs_short():
    tx, rx, op = cs_setup(1)
    ch = make_channel([on_beam_path(20, 4)])
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0, np.random.default_rng(0))
    out = cs_detect(op, [y], sparsity=1, n_tx_beams=64, n_rx_beams=8, n_pairs=2)[0]
    assert len(out.estimated) == 2
    assert out.estimated[0] == BeamPair(20, 4)
    assert out.estimated[1] != out.estimated[0]


def test_cs_detect_fills_from_the_residual_when_support_pairs_coincide():
    # support bins that round to one beam pair leave fewer than n_pairs
    # pairs, so the rest come from y - A_S x; the expected pairs were
    # recorded when omp still returned that residual itself
    def support_pairs(op, out, n_tx_beams):
        return {(_nearest_index(g // op.n_rx_bins * n_tx_beams / op.n_tx_bins, n_tx_beams),
                 _nearest_index(g % op.n_rx_bins * 8 / op.n_rx_bins, 8)) for g in out.support}

    tx, rx, op = cs_setup(3)
    # a quarter beam off beam 20: both picks round to (20, 4)
    path = replace(on_beam_path(20, 4), aod=math.asin(beam_sin_values(64)[20] + 0.5 / 64))
    y = acquire(sweep_signal(pilot_response(make_channel([path]), 10), tx, rx), rx, 0.01,
                np.random.default_rng(0))
    out = cs_detect(op, [y], sparsity=2, n_tx_beams=64, n_rx_beams=8, n_pairs=3)[0]
    assert support_pairs(op, out, 64) == {(20, 4)}
    assert out.estimated == (BeamPair(20, 4), BeamPair(21, 4), BeamPair(19, 4))

    tx = multi_beam_dft_codebook(128, 64, 6)
    op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(128), 3),
                                build_grid(ArrayGeometry(8), 3))
    assert op.aliased
    ch = sample_channel(ChannelParams(), ArrayGeometry(128), ArrayGeometry(8),
                        np.random.default_rng(17))
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.1, np.random.default_rng(117))
    out = cs_detect(op, [y], sparsity=6, n_tx_beams=128, n_rx_beams=8, n_pairs=5)[0]
    assert len(support_pairs(op, out, 128)) == 4
    assert out.estimated == (BeamPair(121, 4), BeamPair(12, 1), BeamPair(55, 5),
                             BeamPair(56, 4), BeamPair(13, 2))


def test_cs_detect_two_separated_paths():
    tx, rx, op = cs_setup(3)
    ch = make_channel([on_beam_path(8, 1, gain=2.0), on_beam_path(50, 6, gain=1.0)])
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0, np.random.default_rng(0))
    out = cs_detect(op, [y], sparsity=2, n_tx_beams=64, n_rx_beams=8, n_pairs=2)[0]
    assert set(out.estimated) == {BeamPair(8, 1), BeamPair(50, 6)}
    # stronger path carries the larger coefficient, so it ranks first
    assert out.estimated[0] == BeamPair(8, 1)


def test_cs_detect_high_snr_monte_carlo_single_beam_rate():
    tx, rx, op = cs_setup(3)
    noise_var = 10.0 ** (-3.0)  # +30 dB transmit SNR
    hits = 0
    n = 500
    for t in range(n):
        ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                            np.random.default_rng(10_000 + t))
        truth = true_pairs(ch, 64, 8)
        y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, noise_var,
                    np.random.default_rng(20_000 + t))
        out = cs_detect(op, [y], sparsity=6, n_tx_beams=64, n_rx_beams=8,
                        n_pairs=len(truth))[0]
        hits += single_beam_match(out.estimated, truth)
    assert hits / n >= 0.99


def test_cs_detect_rejects_more_pairs_than_beam_pairs():
    op = DenseOperator(np.eye(4))
    y = np.array([[4.0, 3.0, 2.0, 1.0]])
    out = cs_detect(op, [y], sparsity=1, n_tx_beams=4, n_rx_beams=1, n_pairs=4)[0]
    assert out.estimated == tuple(BeamPair(i, 0) for i in range(4))
    for n_pairs in (0, 5):
        with pytest.raises(ValueError, match=r"n_pairs must lie in \[1, 4\]"):
            cs_detect(op, [y], sparsity=1, n_tx_beams=4, n_rx_beams=1, n_pairs=n_pairs)


def test_cs_detect_block_fit_matches_the_stacked_dense_fit():
    # alias-free operators are fitted on one pilot block against the pilot
    # mean; the dense oracle fits the stacked pilots (2 of them, so that
    # the dense matrix stays small)
    rng = np.random.default_rng(11)
    rx_dft = group_columns(dft_codebook(8, 8, 6), 4)
    pairs = [(dft_codebook(64, 64, 6), rx_dft),
             (random_codebook(64, 64, 1, 6, rng), random_codebook(8, 2, 4, 6, rng))]
    grids = build_grid(ArrayGeometry(64), 3), build_grid(ArrayGeometry(8), 3)
    for tx, rx in pairs:
        op = build_sensing_operator(tx, rx, *grids)
        assert not op.aliased
        dense = DenseOperator(to_dense(op, 2))
        for seed in range(2):
            ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                                np.random.default_rng(seed))
            signal = sweep_signal(pilot_response(ch, 2), tx, rx)
            for snr_db in (-10.0, 10.0, 30.0):
                y = acquire(signal, rx, 10.0 ** (-snr_db / 10.0),
                            np.random.default_rng(100 + seed))
                out = cs_detect(op, [y], sparsity=6, n_tx_beams=64, n_rx_beams=8, n_pairs=2)[0]
                assert out.support == omp(dense, y.reshape(-1), 6).support


def test_cs_detect_fits_an_aliased_operator_on_the_stacked_pilots(monkeypatch):
    tx = multi_beam_dft_codebook(128, 64, 6)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(128), 3),
                                build_grid(ArrayGeometry(8), 3))
    assert op.aliased
    fits = []
    product_omp = detect._stacked_omp

    def recorded_omp(*args):
        fits.append(product_omp(*args))
        return fits[-1]

    monkeypatch.setattr(detect, "_stacked_omp", recorded_omp)
    for seed in range(3):
        ch = sample_channel(ChannelParams(), ArrayGeometry(128), ArrayGeometry(8),
                            np.random.default_rng(seed))
        y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.01,
                    np.random.default_rng(50 + seed))
        out = cs_detect(op, [y], sparsity=6, n_tx_beams=128, n_rx_beams=8, n_pairs=2)[0]
        # the reference loop on the flat measurement and tiled columns
        support, coefficients = stacked_omp(op, y, 6)
        assert out.support == support == fits[-1].support
        assert np.array_equal(fits[-1].coefficients, coefficients)


def test_cs_detect_fits_each_aliased_measurement_before_reading_the_next(monkeypatch):
    tx = multi_beam_dft_codebook(128, 64, 6)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(128), 3),
                                build_grid(ArrayGeometry(8), 3))
    assert op.aliased
    ch = sample_channel(ChannelParams(), ArrayGeometry(128), ArrayGeometry(8),
                        np.random.default_rng(4))
    signal = sweep_signal(pilot_response(ch, 2), tx, rx)
    drawn = []

    def measurements():
        for k in range(3):
            drawn.append(k)
            yield acquire(signal, rx, 0.01, np.random.default_rng(k))

    want = cs_detect(op, list(measurements()), sparsity=6, n_tx_beams=128, n_rx_beams=8,
                     n_pairs=2)
    drawn.clear()
    drawn_at_fit = []
    stacked_omp = detect._stacked_omp

    def counted_omp(*args):
        drawn_at_fit.append(len(drawn))
        return stacked_omp(*args)

    monkeypatch.setattr(detect, "_stacked_omp", counted_omp)
    got = cs_detect(op, measurements(), sparsity=6, n_tx_beams=128, n_rx_beams=8, n_pairs=2)
    assert drawn_at_fit == [1, 2, 3]
    assert got == want


def test_cs_detect_of_no_measurements_is_empty_for_both_operator_kinds():
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    for n_ant in (64, 128):
        op = build_sensing_operator(multi_beam_dft_codebook(n_ant, 64, 6), rx,
                                    build_grid(ArrayGeometry(n_ant), 3),
                                    build_grid(ArrayGeometry(8), 3))
        assert op.aliased == (n_ant == 128)
        assert cs_detect(op, [], sparsity=6, n_tx_beams=n_ant, n_rx_beams=8, n_pairs=2) == []
        assert cs_detect(op, iter(()), sparsity=6, n_tx_beams=n_ant, n_rx_beams=8,
                         n_pairs=2) == []


def test_signed_circular_diff_representatives():
    assert signed_circular_diff(0, 63, 64) == 1
    assert signed_circular_diff(63, 0, 64) == -1
    assert signed_circular_diff(32, 0, 64) == -32
    assert signed_circular_diff(0, 32, 64) == -32
    assert signed_circular_diff(5, 5, 64) == 0


def test_beam_index_errors_nearest_assignment():
    est = [BeamPair(2, 3), BeamPair(10, 1)]
    truth = {BeamPair(1, 3)}
    tx_err, rx_err = beam_index_errors(est, truth, 16, 8)
    assert tx_err == [1] and rx_err == [0]


def test_beam_index_errors_tie_prefers_confident_estimate():
    est = [BeamPair(1, 0), BeamPair(3, 0)]
    truth = {BeamPair(2, 0)}
    tx_err, rx_err = beam_index_errors(est, truth, 16, 8)
    assert tx_err == [-1] and rx_err == [0]


def test_beam_index_errors_wraparound():
    est = [BeamPair(63, 7)]
    truth = {BeamPair(0, 0)}
    tx_err, rx_err = beam_index_errors(est, truth, 64, 8)
    assert tx_err == [-1] and rx_err == [-1]


def test_beam_index_errors_sides_scored_independently():
    # tx matched by the first estimate, rx by the second: both come out 0
    est = [BeamPair(5, 7), BeamPair(9, 3)]
    truth = {BeamPair(5, 3)}
    tx_err, rx_err = beam_index_errors(est, truth, 16, 8)
    assert tx_err == [0] and rx_err == [0]


def test_beam_index_errors_entries_follow_sorted_truth():
    est = [BeamPair(3, 6)]
    truth = [BeamPair(9, 1), BeamPair(2, 5), BeamPair(2, 0)]
    expected = ([1, 1, -6], [-2, 1, -3])  # for (2, 0), (2, 5), (9, 1)
    assert beam_index_errors(est, frozenset(truth), 16, 8) == expected
    assert beam_index_errors(est, truth, 16, 8) == expected
    assert beam_index_errors(est, truth[::-1], 16, 8) == expected


def test_beam_index_errors_rejects_empty():
    with pytest.raises(ValueError):
        beam_index_errors([], {BeamPair(0, 0)}, 64, 8)
