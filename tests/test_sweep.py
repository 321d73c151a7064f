from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beamcs.sweep
from beamcs.arrays import ArrayGeometry, beam_sin_values, build_grid, steering_vector
from beamcs.channel import (N_FFT, SAMPLE_RATE, ChannelRealization, PathComponent,
                            sample_channel, ChannelParams, freq_channel)
from beamcs.codebooks import (Codebook, designed_codebook, dft_codebook, group_columns,
                              multi_beam_dft_codebook, random_codebook)
from beamcs.sweep import (acquire, build_sensing_operator, parallel_columns, pilot_response,
                          pilots, sweep_signal, transmit_vectors)
from beamcs.detect import omp
from oracles import apply, combine_noise, freq_channel_loop, to_dense


def raw_codebook(entries):
    """Unquantized test codebook from explicit entry matrices."""
    entries = np.asarray(entries, dtype=complex)
    return Codebook("DFT", None, None, entries)


def test_default_pilots_are_centered():
    assert list(pilots(10)) == list(range(2043, 2053))


def test_transmit_vectors_unit_norm_and_single_column():
    rng = np.random.default_rng(0)
    cb = random_codebook(16, 4, 1, 6, rng)
    x = transmit_vectors(cb)
    assert x.shape == (16, 4)
    assert_allclose(np.linalg.norm(x, axis=0), np.ones(4), atol=1e-12)
    assert_allclose(x[:, 0], cb.entries[0, :, 0] / np.linalg.norm(cb.entries[0, :, 0]),
                    atol=1e-12)
    with pytest.raises(ValueError, match="^a transmit codebook has one column per entry, "
                                         "not 2$"):
        transmit_vectors(random_codebook(16, 4, 2, 6, rng))


def test_measurement_vector_length_and_energy_layout():
    bs, ue = ArrayGeometry(64), ArrayGeometry(8)
    ch = sample_channel(ChannelParams(), bs, ue, np.random.default_rng(1))
    tx = dft_codebook(64, 64, 6)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.1, np.random.default_rng(2))
    assert y.shape == (10, 64, 2, 4)  # pilot, tx entry, rx entry, chain
    assert y.flags.c_contiguous
    # flat order: pilot-major, then block m = i*n_rx_entries + j, then chain
    quiet = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.0,
                    np.random.default_rng(2))
    x = transmit_vectors(tx)
    w = np.concatenate([rx.entries[j] for j in range(2)], axis=1)
    h = freq_channel(ch, pilots(10))
    for (i, j, r, k) in [(0, 0, 0, 0), (5, 1, 2, 3), (63, 1, 3, 9), (17, 0, 1, 7)]:
        flat = k * 128 * 4 + (i * 2 + j) * 4 + r
        want = w[:, j * 4 + r].conj() @ h[k] @ x[:, i]
        assert abs(quiet.reshape(-1)[flat] - want) < 1e-12 * (1.0 + abs(want))


def default_sweep_inputs():
    ch = sample_channel(ChannelParams(), ArrayGeometry(64), ArrayGeometry(8),
                        np.random.default_rng(1))
    return ch, dft_codebook(64, 64, 6), group_columns(dft_codebook(8, 8, 6), 4)


def test_acquire_without_noise_returns_the_signal():
    ch, tx, rx = default_sweep_inputs()
    signal = sweep_signal(pilot_response(ch, 10), tx, rx)
    y = acquire(signal, rx, 0.0, np.random.default_rng(3))
    assert np.array_equal(y, signal)


@pytest.mark.parametrize("rx", [group_columns(dft_codebook(8, 8, 6), 4),
                                random_codebook(8, 2, 4, 6, np.random.default_rng(4)),
                                group_columns(dft_codebook(8, 8, 6), 1)],
                         ids=["dft-2x4", "random-2x4", "dft-8x1"])
def test_acquire_combines_the_noise_per_rx_entry(rx):
    # pilot and tx-entry counts differ, so a swapped or misread axis shows
    # as an error of order one, which the covariance test cannot see
    rng = np.random.default_rng(8)
    shape = (3, 5, rx.n_entries, rx.n_cols)
    signal = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise_var = 0.37
    y = acquire(signal, rx, noise_var, np.random.default_rng(21))
    assert y.flags.c_contiguous
    draws = np.random.default_rng(21).standard_normal(shape[:3] + (rx.n_ant, 2))
    z = (draws[..., 0] + 1j * draws[..., 1]) * np.sqrt(noise_var / 2.0)
    want = combine_noise(z, rx)
    assert np.abs((y - signal) - want).max() <= 1e-14 * np.abs(want).max()


def test_acquire_rejects_mismatched_signal_and_combiner():
    ch, tx, rx = default_sweep_inputs()
    signal = sweep_signal(pilot_response(ch, 10), tx, rx)
    with pytest.raises(ValueError, match="rx codebook shape"):
        acquire(signal, group_columns(dft_codebook(8, 8, 6), 2), 0.1,
                np.random.default_rng(0))


def test_acquire_rejects_bad_noise_var():
    ch, tx, rx = default_sweep_inputs()
    signal = sweep_signal(pilot_response(ch, 10), tx, rx)
    for noise_var in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_var must be non-negative and finite"):
            acquire(signal, rx, noise_var, np.random.default_rng(0))


def test_noiseless_aligned_measurement_closed_form():
    bs, ue = ArrayGeometry(32), ArrayGeometry(8)
    path = PathComponent(gain=0.8 - 0.3j, delay=50e-9, aod=0.4, aoa=-0.7, cluster=0, ray=0)
    ch = ChannelRealization([path], gain_scale=np.sqrt(32 * 8), tx_geometry=bs, rx_geometry=ue)
    tx = raw_codebook(steering_vector(bs, path.aod)[None, :, None])
    rx = raw_codebook(steering_vector(ue, path.aoa)[None, :, None])
    y = acquire(sweep_signal(pilot_response(ch, 4), tx, rx), rx, 0.0, np.random.default_rng(0))
    # perfectly matched beams collapse to scale * gain per pilot
    want_mag = ch.gain_scale * abs(path.gain)
    assert_allclose(np.abs(y.reshape(-1)), np.full(4, want_mag), rtol=1e-12)
    k0 = pilots(4)[0]
    want = ch.gain_scale * path.gain * np.exp(
        -2j * np.pi * SAMPLE_RATE * path.delay * k0 / N_FFT)
    assert_allclose(y[0, 0, 0, 0], want, rtol=1e-12)


def test_combined_noise_covariance_is_shaped_by_combiner():
    # zero channel, many tx slots: each block is an i.i.d. stacked noise draw
    bs, ue = ArrayGeometry(4), ArrayGeometry(8)
    ch = ChannelRealization([PathComponent(0.0, 0.0, 0.1, 0.2, 0, 0)],
                            gain_scale=1.0, tx_geometry=bs, rx_geometry=ue)
    rng = np.random.default_rng(9)
    rx = random_codebook(8, 1, 4, 6, rng)
    tx = random_codebook(4, 200, 1, 6, rng)
    noise_var = 0.37
    draws = []
    for rep in range(10):
        y = acquire(sweep_signal(pilot_response(ch, 2), tx, rx), rx, noise_var,
                    np.random.default_rng(100 + rep))
        y = y.reshape(2, 200, 4)                 # pilot, block, chain
        draws.append(y.transpose(1, 0, 2).reshape(200, 8))
    samples = np.concatenate(draws, axis=0)      # (2000, pilots*chains)
    emp = samples[:, :, None] * samples[:, None, :].conj()
    emp = emp.mean(axis=0)
    w = rx.entries[0]
    want = noise_var * np.kron(np.eye(2), w.conj().T @ w)
    err = np.linalg.norm(emp - want) / np.linalg.norm(want)
    assert err < 0.10


def test_operator_logical_shape_default_geometry():
    tx = dft_codebook(64, 64, 6)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(64), 3),
                                build_grid(ArrayGeometry(8), 3))
    assert op.shape == (512, 4608)


def small_operator(seed=4):
    rng = np.random.default_rng(seed)
    tx = random_codebook(16, 8, 1, 6, rng)
    rx = random_codebook(4, 2, 2, 6, rng)
    return build_sensing_operator(tx, rx, build_grid(ArrayGeometry(16), 2),
                                  build_grid(ArrayGeometry(4), 2))


def test_operator_apply_matches_dense():
    op = small_operator()
    rng = np.random.default_rng(5)
    for n_pilots in (1, 3):
        dense = to_dense(op, n_pilots)
        assert dense.shape == (n_pilots * op.shape[0], op.shape[1])
        for _ in range(5):
            h = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
            got = apply(op, h, n_pilots)
            want = dense @ h
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_operator_adjoint_matches_dense():
    # the adjoint of the block repeated over the pilots is the block's
    # adjoint of the pilot sum
    op = small_operator()
    rng = np.random.default_rng(6)
    for n_pilots in (1, 3):
        dense = to_dense(op, n_pilots)
        r = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
        got = op.adjoint_apply(r.reshape(n_pilots, -1).sum(axis=0))
        want = dense.conj().T @ r
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


def test_operator_columns_and_norms_match_dense():
    aliased = build_sensing_operator(multi_beam_dft_codebook(128, 64, 6),
                                     group_columns(dft_codebook(8, 8, 6), 4),
                                     build_grid(ArrayGeometry(128), 3),
                                     build_grid(ArrayGeometry(8), 3))
    assert aliased.aliased
    rng = np.random.default_rng(9)
    for op in (small_operator(), aliased):
        # one block only: at 128 antennas its dense matrix is already 75 MB
        dense = to_dense(op)
        tn, rn = np.linalg.norm(op.tx_factor, axis=0), np.linalg.norm(op.rx_factor, axis=0)
        for n_pilots in (1, 10):
            norms = op.col_norms(n_pilots)
            assert_allclose(norms, np.sqrt(n_pilots) * np.linalg.norm(dense, axis=0), atol=1e-12)
            # bit for bit the product order that the recorded aliased picks
            # were made with; sqrt(10) applied last moves 972 of the aliased
            # operator's 9,216 norms
            assert np.array_equal(norms, np.sqrt(n_pilots) * np.repeat(tn, op.n_rx_bins)
                                  * np.tile(rn, op.n_tx_bins))
        one = [int(rng.integers(op.shape[1]))]
        six = rng.choice(op.shape[1], 5, replace=False).tolist()
        # a repeated bin as the sixth
        for support in (one, six + six[2:3]):
            cols = op.columns(support)
            assert cols.flags.c_contiguous
            assert np.array_equal(cols, dense[:, support])


def test_operator_gram_factors_match_dense():
    op = small_operator()
    dense = to_dense(op)
    t, r = op.gram_factors(np.arange(op.shape[1]))
    assert t.shape == (op.shape[1], op.n_tx_bins) and r.shape == (op.shape[1], op.n_rx_bins)
    for g in range(op.shape[1]):
        want = dense.conj().T @ dense[:, g]
        assert_allclose(np.kron(t[g], r[g]), want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_operator_adjoint_of_a_stack_equals_the_row_calls_bitwise():
    rng = np.random.default_rng(8)
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    grid8 = build_grid(ArrayGeometry(8), 3)
    ops = [small_operator()]
    for tx in (dft_codebook(64, 64, 6), random_codebook(64, 64, 1, 6, rng)):
        ops.append(build_sensing_operator(tx, rx, build_grid(ArrayGeometry(64), 3), grid8))
    ops.append(build_sensing_operator(multi_beam_dft_codebook(128, 64, 6), rx,
                                      build_grid(ArrayGeometry(128), 3), grid8))
    assert ops[-1].aliased
    for op in ops:
        r = rng.standard_normal((13, op.shape[0], 2)).view(complex)[..., 0]
        got = op.adjoint_apply(r)
        assert got.shape == (13, op.shape[1])
        for row, want in zip(got, r):
            assert np.array_equal(row, op.adjoint_apply(want))


def test_operator_reduces_to_grid_kronecker_for_identity_beams():
    # identity precoder and combiner expose the raw dictionary Kronecker
    n_tx, n_rx = 8, 4
    tx = raw_codebook(np.stack([np.eye(n_tx)[:, [i]] for i in range(n_tx)]))
    rx = raw_codebook(np.eye(n_rx)[None])
    tx_grid = build_grid(ArrayGeometry(n_tx), 2)
    rx_grid = build_grid(ArrayGeometry(n_rx), 2)
    op = build_sensing_operator(tx, rx, tx_grid, rx_grid)
    want = np.kron(tx_grid.conj(), rx_grid)
    assert np.max(np.abs(to_dense(op) - want)) < 1e-12


def tx_codebook(kind, n_ant):
    if kind == "multi-beam":
        return multi_beam_dft_codebook(n_ant, 64, 6)
    if kind == "dft":
        return dft_codebook(n_ant, 64, 6)
    return designed_codebook(n_ant, build_grid(ArrayGeometry(n_ant), 3), 64, 6,
                             np.random.default_rng(3), sweeps=5)


@pytest.mark.parametrize("kind, n_ant, marked", [
    ("multi-beam", 128, 63), ("multi-beam", 256, 191), ("dft", 128, 32), ("dft", 256, 112),
    ("multi-beam", 64, 0), ("dft", 64, 0), ("designed", 64, 0), ("designed", 128, 0)])
def test_parallel_columns_marks_aliased_transmit_bins(kind, n_ant, marked):
    # 3x grids and the default 8-antenna combiner; at 128 and 256 antennas
    # the 63 and 32 marks are 63 and 32 parallel pairs, 191 and 112 cover
    # 381 and 208 pairs
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    op = build_sensing_operator(tx_codebook(kind, n_ant), rx, build_grid(ArrayGeometry(n_ant), 3),
                                build_grid(ArrayGeometry(8), 3))
    mask = parallel_columns(op.tx_factor)
    assert mask.shape == (op.n_tx_bins,) and mask.sum() == marked
    assert not parallel_columns(op.rx_factor).any()
    assert op.aliased == (marked > 0)


def test_parallel_columns_marks_only_later_copies():
    u = np.array([1.0, 1j, -1.0]) / np.sqrt(3)
    v = np.array([1.0, 0.0, 0.0])
    # column 2 is column 0 with a phase, column 4 is column 1 scaled
    factor = np.stack([u, v, 1j * u, u + v, 3.0 * v], axis=1)
    assert list(parallel_columns(factor)) == [False, False, True, False, True]
    # the Gram is built 64 columns at a time; a pair across chunks still counts
    rng = np.random.default_rng(0)
    wide = rng.standard_normal((4, 70)) + 1j * rng.standard_normal((4, 70))
    wide[:, 69] = 2j * wide[:, 5]
    assert list(np.flatnonzero(parallel_columns(wide))) == [69]


def test_noiseless_on_grid_acquire_equals_operator_apply():
    bs, ue = ArrayGeometry(16), ArrayGeometry(8)
    tx_grid = build_grid(bs, 2)
    rx_grid = build_grid(ue, 2)
    # zero-delay paths exactly on grid bins make h flat across pilots
    bins = [(3, 5), (20, 11)]
    gains = [1.0 + 0.5j, -0.7 + 0.2j]
    tx_sins, rx_sins = beam_sin_values(tx_grid.shape[1]), beam_sin_values(rx_grid.shape[1])
    paths = [PathComponent(g, 0.0, np.arcsin(tx_sins[bt]), np.arcsin(rx_sins[br]), i, 0)
             for i, (g, (bt, br)) in enumerate(zip(gains, bins))]
    ch = ChannelRealization(paths, gain_scale=np.sqrt(16 * 8 / 2), tx_geometry=bs,
                            rx_geometry=ue)
    rng = np.random.default_rng(3)
    tx = random_codebook(16, 12, 1, 6, rng)
    rx = random_codebook(8, 2, 3, 6, rng)
    y = acquire(sweep_signal(pilot_response(ch, 4), tx, rx), rx, 0.0, np.random.default_rng(0))
    op = build_sensing_operator(tx, rx, tx_grid, rx_grid)
    h = np.zeros(op.shape[1], dtype=complex)
    for g, (bt, br) in zip(gains, bins):
        h[bt * op.n_rx_bins + br] += ch.gain_scale * g
    want = apply(op, h, 4)
    assert np.max(np.abs(y.reshape(-1) - want)) < 1e-10 * np.max(np.abs(want))


def test_config_validation():
    for n_pilots in (0, -1, N_FFT + 1, float("nan")):
        with pytest.raises(ValueError, match="^n_pilots must be positive and at most the FFT "
                                             "size 4096$"):
            pilots(n_pilots)
    assert list(pilots(N_FFT)) == list(range(N_FFT))
    assert list(pilots(1)) == [N_FFT // 2]


def test_random_operator_is_aliased_exactly_when_its_transmit_factor_is():
    # a random codebook with as many slots as antennas need not be injective
    # on the grid: at 4 antennas and 1 phase bit its transmit factor has
    # parallel columns for 43 of these seeds; the DFT combiner never does
    rx = group_columns(dft_codebook(8, 8, 6), 4)
    grids = build_grid(ArrayGeometry(4), 3), build_grid(ArrayGeometry(8), 3)
    aliased, marked = [], []
    for seed in range(100):
        tx = random_codebook(4, 4, 1, 1, np.random.default_rng(seed))
        op = build_sensing_operator(tx, rx, *grids)
        aliased.append(op.aliased)
        marked.append(bool(parallel_columns(op.tx_factor).any()))
    assert aliased == marked
    assert sum(marked) == 43 and marked[0]


def test_aliased_is_worked_out_on_the_first_read_only():
    # building an operator forms no Gram, so a run's set-up carries none
    tx, rx = dft_codebook(64, 64, 6), group_columns(dft_codebook(8, 8, 6), 4)
    with mock.patch.object(beamcs.sweep, "parallel_columns",
                           wraps=beamcs.sweep.parallel_columns) as spy:
        op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(64), 3),
                                    build_grid(ArrayGeometry(8), 3))
        assert spy.call_count == 0
        assert not op.aliased and not op.aliased
        assert spy.call_count == 2  # the two factors, once


def test_broadcast_response_and_one_product_sweep_match_their_loops():
    # 8/64/128/256 tx antennas x flat and 200 ns channels x 1/10/127 pilots,
    # 38 channels each: 912 responses equal to the per-subcarrier loop, and
    # the sweep's one product equal to the per-pilot products w_h @ h @ x
    ue, rng = ArrayGeometry(8), np.random.default_rng(30)
    rxs = [group_columns(dft_codebook(8, 8, 6), 4), random_codebook(8, 2, 4, 6, rng)]
    for n_ant in (8, 64, 128, 256):
        bs, n_entries = ArrayGeometry(n_ant), min(n_ant, 64)
        txs = [dft_codebook(n_ant, n_entries, 6), multi_beam_dft_codebook(n_ant, n_entries, 6),
               random_codebook(n_ant, n_entries, 1, 6, rng)]
        for delay_max in (0.0, 200e-9):
            for n_pilots in (1, 10, 127):
                for i in range(38):
                    ch = sample_channel(ChannelParams(delay_max=delay_max), bs, ue, rng)
                    h = pilot_response(ch, n_pilots)
                    assert h.tobytes() == freq_channel_loop(ch, pilots(n_pilots)).tobytes()
                    tx, rx = txs[i % 3], rxs[i % 2]
                    want = (rx.columns.conj().T @ h @ transmit_vectors(tx)).reshape(
                        n_pilots, rx.n_entries, rx.n_cols, tx.n_entries).transpose(0, 3, 1, 2)
                    got = sweep_signal(h, tx, rx)
                    assert np.ascontiguousarray(got).tobytes() == \
                        np.ascontiguousarray(want).tobytes()


def test_codebook_and_operator_constants_are_formed_once_and_read_only():
    ch, tx, rx = default_sweep_inputs()
    op = build_sensing_operator(tx, rx, build_grid(ArrayGeometry(64), 3),
                                build_grid(ArrayGeometry(8), 3))
    y = acquire(sweep_signal(pilot_response(ch, 10), tx, rx), rx, 0.1,
                np.random.default_rng(5)).mean(axis=0).reshape(-1)
    with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
        first = omp(op, y, 6)
        assert norm.call_count == 2  # one per factor
        second = omp(op, y, 6)
        assert norm.call_count == 2
    assert second.support == first.support
    assert second.coefficients.tobytes() == first.coefficients.tobytes()
    assert tx.columns is tx.columns
    for a in (tx.columns, tx.unit_columns, rx.columns, *op._factor_norms, *op._conj_factors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
