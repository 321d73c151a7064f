import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2

from beamcs import codebooks
from beamcs.arrays import ArrayGeometry, build_grid
from beamcs.codebooks import (KIND_DESIGNED, KIND_DFT, KIND_MULTI_BEAM, KIND_RANDOM,
                              Codebook, _phasor_table, designed_codebook, dft_codebook,
                              group_columns, multi_beam_dft_codebook, random_codebook,
                              total_coherence)
from oracles import quantize_phases


def all_books():
    rng = np.random.default_rng(77)
    grid = build_grid(ArrayGeometry(128), 3)
    return [
        dft_codebook(64, 64, 6),
        random_codebook(64, 64, 1, 6, rng),
        random_codebook(8, 2, 4, 6, rng),
        multi_beam_dft_codebook(128, 64, 6),
        designed_codebook(128, grid, 64, 6, np.random.default_rng(5), sweeps=2),
    ]


def test_quantize_one_bit_picks_nearest_phase():
    # pi/3 is closer to 0 than to pi
    out = quantize_phases(np.array([[np.exp(1j * np.pi / 3)]]), 1)
    assert_allclose(out, [[1.0]], atol=0)


def test_quantize_ties_go_to_lower_neighbor():
    vals = np.array([[np.exp(1j * np.pi / 2)], [np.exp(-1j * np.pi / 2)]])
    out = quantize_phases(vals, 1)
    # +pi/2 ties between 0 and pi -> 0; -pi/2 ties between pi and 2pi -> pi
    zero_phase = quantize_phases(np.full((2, 1), 1.0 + 0.0j), 1)
    pi_phase = quantize_phases(np.full((2, 1), np.exp(3.0j)), 1)
    assert out[0, 0] == zero_phase[0, 0]
    assert out[1, 0] == pi_phase[1, 0]
    assert out[1, 0].real < 0


def test_quantize_zero_entries_get_phase_zero():
    out = quantize_phases(np.zeros((4, 2), dtype=complex), 6)
    assert np.all(out == 0.5)


def test_quantize_idempotent_on_grid():
    rng = np.random.default_rng(3)
    cb = random_codebook(16, 8, 2, 6, rng)
    again = quantize_phases(cb.entries.reshape(16, -1, order="F").reshape(16, -1), 6)
    # flatten entry-wise instead: check each entry matrix round-trips bitwise
    for m in range(cb.n_entries):
        assert np.array_equal(quantize_phases(cb.entries[m], 6), cb.entries[m])


# SHA-256 of the little-endian int64 phase indices, recorded while the search
# scored with an einsum and a complex division; a change of rounding in the
# score can flip an accept and move them
@pytest.mark.parametrize("n_ant, grid_mult, phase_bits, sweeps, digest", [
    (128, 3, 6, 5, "8ebb3c496769ebad248e38e518abdb7a68aeabe0b291034c3cb76a621537b621"),
    (256, 3, 6, 2, "6c94afe93b98833b6120b765ede3b6074d056fe1386e5446f6693a25f7313681"),
    (128, 2, 4, 5, "b2ee4645f9b1e7cb745e114e7766eaa5e9f7ea60ccccf2261ec3714f1537d9ce"),
    (128, 3, 8, 5, "2267c0e60bed329b08efcc7be06a5485a05b7e67590483cbf118f05f0582da97"),
], ids=["128ant-grid3-6bit", "256ant-grid3-6bit", "128ant-grid2-4bit", "128ant-grid3-8bit"])
def test_designed_phase_indices_digest(n_ant, grid_mult, phase_bits, sweeps, digest):
    grid = build_grid(ArrayGeometry(n_ant), grid_mult)
    d = designed_codebook(n_ant, grid, 64, phase_bits, np.random.default_rng(7), sweeps=sweeps)
    got = hashlib.sha256(np.ascontiguousarray(d.phase_indices, dtype="<i8").tobytes())
    assert got.hexdigest() == digest


@pytest.mark.parametrize("cb", all_books(), ids=lambda c: c.kind + str(c.n_ant) + "x" + str(c.n_cols))
def test_constant_modulus_exact(cb):
    mods = np.abs(cb.entries)
    assert np.ptp(mods) == 0.0
    assert mods.flat[0] == np.abs(np.complex128(np.sqrt(1.0 / cb.n_ant) + 0j))


@pytest.mark.parametrize("cb", all_books(), ids=lambda c: c.kind + str(c.n_ant) + "x" + str(c.n_cols))
def test_phase_grid_membership_exact(cb):
    assert cb.phase_indices is not None
    assert cb.phase_indices.min() >= 0
    assert cb.phase_indices.max() < 2 ** cb.phase_bits
    for m in range(cb.n_entries):
        assert np.array_equal(quantize_phases(cb.entries[m], cb.phase_bits), cb.entries[m])


def test_phasor_equal_cost_tie_keeps_the_nudge_inside_six_ulps():
    # entry 111 of the (8 bits, 53 antennas) table has two exact nudges of
    # 7 ulps, (re +1, im +6) and (re 0, im -7); the one inside +-6 ulps wins
    z = math.sqrt(1.0 / 53) * np.exp(2j * np.pi * 111 / 256)
    re, im = math.nextafter(z.real, math.inf), z.imag
    for _ in range(6):
        im = math.nextafter(im, math.inf)
    assert _phasor_table(8, 53)[111] == complex(re, im)


def test_phasor_tables_digest():
    """SHA-256 over every (phase_bits 1-8, n_ant 1-256) table, little-endian
    complex128, bits outer. The tables depend on numpy's complex abs, so the
    digest holds where numpy dispatches X86_V3 or higher (AVX2 and FMA)."""
    h = hashlib.sha256()
    for phase_bits in range(1, 9):
        for n_ant in range(1, 257):
            h.update(np.ascontiguousarray(_phasor_table(phase_bits, n_ant), dtype="<c16"))
    assert h.hexdigest() == "a562be54b7ca4a3e428aac23020f727fb0f8922227da6eebf25f762f4edc96b0"


def test_every_builder_caps_phase_bits_at_16():
    # the cap lives in the phase table that every builder reads; without it
    # a 30-bit DFT codebook asked for a 2**30-entry table
    grid = build_grid(ArrayGeometry(16), 1)
    for build in (lambda: dft_codebook(8, 8, 17),
                  lambda: random_codebook(8, 2, 1, 17, np.random.default_rng(0)),
                  lambda: multi_beam_dft_codebook(16, 8, 17),
                  lambda: designed_codebook(16, grid, 8, 17, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="^phase_bits must not exceed 16$"):
            build()


def test_dft_six_bits_is_exact_for_64_antennas():
    # 64-point DFT phases live on the 6-bit grid, so quantization is lossless
    q = dft_codebook(64, 64, 6)
    atoms = build_grid(ArrayGeometry(64), 1)  # the exact DFT beams, same order
    n, m = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
    assert np.array_equal(q.phase_indices[:, :, 0], (n * m % 64).T)
    assert np.max(np.abs(q.entries[:, :, 0].T - atoms)) < 1e-14


def test_dft_indices_equal_the_exact_integer_rule(monkeypatch):
    # the oracle: round(r * levels / n_ant) in integers, halves toward the lower
    # index; a zero phasor table skips the 16-bit tables, as only indices are read
    monkeypatch.setattr(codebooks, "_phasor_table", lambda bits, n: np.zeros(1 << bits, complex))
    for phase_bits in (1, 6, 8, 16):
        levels = 1 << phase_bits
        for n_ant in range(1, 257):
            num = np.outer(np.arange(n_ant), np.arange(n_ant)) % n_ant * levels
            want = -((n_ant - 2 * num) // (2 * n_ant)) % levels
            got = dft_codebook(n_ant, n_ant, phase_bits).phase_indices[:, :, 0]
            assert np.array_equal(got, want), (n_ant, phase_bits)


def test_dft_rejects_bad_beam_count():
    with pytest.raises(ValueError):
        dft_codebook(8, 9, 6)


def test_random_same_seed_reproduces():
    a = random_codebook(32, 16, 2, 6, np.random.default_rng(123))
    b = random_codebook(32, 16, 2, 6, np.random.default_rng(123))
    assert np.array_equal(a.phase_indices, b.phase_indices)


def test_random_phases_uniform_chi_square():
    cb = random_codebook(100, 100, 10, 6, np.random.default_rng(2024))
    counts = np.bincount(cb.phase_indices.reshape(-1), minlength=64)
    expected = cb.phase_indices.size / 64
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.999, 63)


def test_multi_beam_64_degenerates_to_dft():
    mb = multi_beam_dft_codebook(64, 64, 6)
    d = dft_codebook(64, 64, 6)
    assert np.array_equal(mb.phase_indices, d.phase_indices)
    assert mb.kind == KIND_MULTI_BEAM


def test_multi_beam_128_structure():
    # beams m and m+64 cancel on odd elements and double on even ones,
    # so the phase index is (n*m/2) mod 64 for even n and 0 for odd n
    mb = multi_beam_dft_codebook(128, 64, 6)
    n = np.arange(128)[:, None]
    m = np.arange(64)[None, :]
    want = np.where(n % 2 == 0, (n * m // 2) % 64, 0)
    assert np.array_equal(mb.phase_indices[:, :, 0].T, want)


def test_multi_beam_rejects_uneven_split():
    with pytest.raises(ValueError):
        multi_beam_dft_codebook(100, 64, 6)


def test_group_columns_preserves_flat_order():
    cb = dft_codebook(8, 8, 6)
    g = group_columns(cb, 4)
    assert g.n_entries == 2 and g.n_cols == 4
    flat = np.concatenate([cb.entries[m] for m in range(8)], axis=1)
    regrouped = np.concatenate([g.entries[j] for j in range(2)], axis=1)
    assert np.array_equal(flat, regrouped)
    with pytest.raises(ValueError):
        group_columns(cb, 3)


def test_total_coherence_zero_for_unitary_effective():
    cb = dft_codebook(16, 16, 6)  # 16-point DFT phases lie on the 6-bit grid
    grid = build_grid(ArrayGeometry(16), 1)
    assert total_coherence(cb, grid) < 1e-18


def test_total_coherence_matches_dense_gram():
    rng = np.random.default_rng(8)
    cb = random_codebook(16, 12, 1, 6, rng)
    grid = build_grid(ArrayGeometry(16), 3)
    x = np.concatenate([cb.entries[m] for m in range(cb.n_entries)], axis=1)
    eff = x.T @ grid.conj()
    cols = eff / np.linalg.norm(eff, axis=0)
    gram = cols.conj().T @ cols
    want = float(np.sum(np.abs(gram) ** 2) - np.sum(np.abs(np.diag(gram)) ** 2))
    assert abs(total_coherence(cb, grid) - want) < 1e-9 * max(want, 1.0)


def test_designed_single_beam_per_entry_is_dft():
    grid = build_grid(ArrayGeometry(64), 3)
    d = designed_codebook(64, grid, 64, 6, np.random.default_rng(1), sweeps=3)
    assert d.kind == KIND_DESIGNED
    assert np.array_equal(d.phase_indices, dft_codebook(64, 64, 6).phase_indices)
    assert abs(total_coherence(d, grid) - total_coherence(dft_codebook(64, 64, 6), grid)) \
        <= 0.01 * total_coherence(d, grid)


def test_designed_rejects_a_grid_of_another_array():
    # the single-beam start never read the grid, and a 128-antenna search on
    # a 64-antenna grid failed inside matmul with a gufunc shape message
    for n_ant, grid_ant in ((64, 128), (128, 64)):
        grid = build_grid(ArrayGeometry(grid_ant), 3)
        with pytest.raises(ValueError, match="^codebook and grid antenna counts differ$"):
            designed_codebook(n_ant, grid, 64, 6, np.random.default_rng(0))


def test_designed_never_worse_than_multi_beam_start():
    grid = build_grid(ArrayGeometry(128), 3)
    start = total_coherence(multi_beam_dft_codebook(128, 64, 6), grid)
    d = designed_codebook(128, grid, 64, 6, np.random.default_rng(2), sweeps=3)
    assert total_coherence(d, grid) <= start


def test_designed_deterministic_given_seed():
    grid = build_grid(ArrayGeometry(128), 3)
    a = designed_codebook(128, grid, 64, 6, np.random.default_rng(9), sweeps=2)
    b = designed_codebook(128, grid, 64, 6, np.random.default_rng(9), sweeps=2)
    assert np.array_equal(a.phase_indices, b.phase_indices)
