"""Phase-shifter codebooks for analog beamforming.

All codebooks share one representation: every matrix entry is
amp * exp(2j*pi*n / 2**phase_bits) with amp = sqrt(1/n_ant) and n an
integer phase index. Indices are the authoritative stored form; complex
entries are materialized from a per-(phase_bits, n_ant) table. That keeps
two invariants exact rather than float-approximate: every phase lies on
the quantizer grid, and every entry has the same modulus bit-for-bit.

``Codebook.columns`` puts the entries side by side, entry-major (W in
W^H A_rx, X in X^T conj(A_tx)); ``group_columns`` cuts that same layout.

Kinds:

``DFT``
    entry m is the m-th DFT beam of the array (single column).
``Random``
    i.i.d. uniform phase indices.
``MultiBeamDFT``
    entry m combines DFT beams {m, m+n_entries, m+2*n_entries, ...}
    elementwise: sum the atoms, keep only the phase. Used when the array
    has more beams than the sweep has slots.
``Designed``
    MultiBeamDFT start, then greedy coordinate descent over per-entry
    per-constituent-beam phase rotations, accepting rotations that reduce
    the total coherence of the transmit-side effective dictionary. This is
    a documented heuristic, not a provably optimal design.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

KIND_DFT = "DFT"
KIND_RANDOM = "Random"
KIND_MULTI_BEAM = "MultiBeamDFT"
KIND_DESIGNED = "Designed"

# |combined atom sum| below tol * n_summed counts as exact cancellation
_ZERO_SUM_TOL = 1e-9


def _ordinal(x: np.ndarray) -> np.ndarray:
    # float64 -> int64 that steps by one per ulp, across zero too
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _from_ordinal(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=np.int64)
    return np.where(n < 0, np.iinfo(np.int64).min - n, n).view(np.float64)


def _exact_modulus(z: np.ndarray, amp: float) -> np.ndarray:
    """Per z, the ulp nudge (re by di, im by dj) whose float magnitude equals
    amp exactly. Least |di| + |dj| wins; among equal costs a nudge inside the
    +-6 ulp square wins, then the lower di, then the lower dj. That order
    keeps the value of every phasor a +-6 ulp square scan could find. The
    scan tries every nudge of each cost in that order, up to 3073 ulps.
    """
    z = np.asarray(z, dtype=complex)
    re, im = _ordinal(z.real)[:, None], _ordinal(z.imag)[:, None]
    out = np.empty_like(z)
    todo = np.arange(len(z))
    for cost in range(3074):
        di = np.arange(-cost, cost + 1)
        dj = cost - np.abs(di)
        di, dj = np.concatenate([di, di[dj > 0]]), np.concatenate([dj, -dj[dj > 0]])
        order = np.lexsort((dj, di, np.maximum(np.abs(di), np.abs(dj)) > 6))
        cand = np.empty((todo.size, di.size), dtype=complex)
        cand.real = _from_ordinal(re[todo] + di[order])
        cand.imag = _from_ordinal(im[todo] + dj[order])
        exact = np.abs(cand) == amp  # complex abs: np.hypot can differ by an ulp
        hit = exact.any(axis=1)
        out[todo[hit]] = cand[hit, exact[hit].argmax(axis=1)]
        todo = todo[~hit]
        if not todo.size:
            return out
    raise RuntimeError("no representable value with the target modulus near %r"
                       % z[todo[0]])


@lru_cache(maxsize=None)
def _phasor_table(phase_bits: int, n_ant: int) -> np.ndarray:
    """All 2**phase_bits entry values realizable by this quantizer. They are
    exact for numpy's complex abs on the CPU at hand: below numpy's X86_V3
    dispatch level its kernel rounds differently and 557 of the 1,024 tables
    at 4/6/8/10 bits and n_ant <= 256 differ (not 6 bits at 8/64/128/256)."""
    if phase_bits > 16:  # every builder reads this table of 2**phase_bits entries
        raise ValueError("phase_bits must not exceed 16")
    amp = math.sqrt(1.0 / n_ant)
    levels = 1 << phase_bits
    raw = amp * np.exp(2j * np.pi * np.arange(levels) / levels)
    table = _exact_modulus(raw, amp)
    table.setflags(write=False)
    return table


def _nearest_index(t, n: int):
    """ceil(t - 1/2) mod n: the nearest of the points 0..n-1 of a circle of
    circumference n, halfway to the lower one. The one nearest-point rule,
    for phases, path directions and OMP bins; a Python int for a scalar t."""
    if isinstance(t, np.ndarray):
        return np.ceil(t - 0.5).astype(np.int64) % n
    return math.ceil(t - 0.5) % n


def _quantize_indices(angles: np.ndarray, phase_bits: int) -> np.ndarray:
    """Nearest quantizer index per angle, ties toward the lower neighbor."""
    levels = 1 << phase_bits
    return _nearest_index((np.asarray(angles) % (2.0 * np.pi)) * (levels / (2.0 * np.pi)),
                          levels)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Sequence of beamforming matrices, one per sweep slot.

    entries has shape (n_entries, n_ant, n_cols). phase_indices mirrors it
    with the integer quantizer indices the entries are built from.
    """

    kind: str
    phase_bits: int
    phase_indices: np.ndarray
    entries: np.ndarray

    @property
    def n_ant(self) -> int:
        return self.entries.shape[1]

    @property
    def n_entries(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[2]

    @cached_property
    def columns(self) -> np.ndarray:
        """(n_ant, n_entries * n_cols): the entries side by side, entry-major,
        i.e. the whole codebook regrouped into one entry. Built on the first
        read and read-only."""
        cols = _regroup(self.entries, self.n_entries * self.n_cols)[0]
        cols.setflags(write=False)
        return cols

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """`columns` scaled to unit norm; built on the first read, read-only."""
        # C-ordered, so the norms sum over antennas in one fixed order
        u = self.columns / np.linalg.norm(self.columns, axis=0, keepdims=True)
        u.setflags(write=False)
        return u


def _regroup(a: np.ndarray, n_cols: int) -> np.ndarray:
    # (n_entries, n_ant, c) -> (n_entries * c // n_cols, n_ant, n_cols), C-ordered:
    # the columns side by side, entry-major, cut into entries of n_cols columns
    return np.ascontiguousarray(
        a.transpose(1, 0, 2).reshape(a.shape[1], -1, n_cols).transpose(1, 0, 2))


def _from_indices(kind: str, phase_bits: int, idx: np.ndarray) -> Codebook:
    idx = np.asarray(idx, dtype=np.int64)
    entries = _phasor_table(phase_bits, idx.shape[1])[idx]
    return Codebook(kind, phase_bits, idx, entries)


def _ratio_round_half_down(num, den: int):
    # round(num/den) over exact integers or int arrays, halves toward -inf
    return -((den - 2 * num) // (2 * den))


def dft_codebook(n_ant: int, n_beams: int, phase_bits: int = 6) -> Codebook:
    """Single-column entries pointing at the first n_beams DFT directions.

    Quantized indices are computed in integer arithmetic, so beam phases
    that the quantizer grid can represent are hit exactly.
    """
    if not 1 <= n_beams <= n_ant:
        raise ValueError("n_beams must lie in [1, n_ant]")
    n = np.arange(n_ant)
    m = np.arange(n_beams)
    levels = 1 << phase_bits
    idx = _ratio_round_half_down(np.outer(m, n) % n_ant * levels, n_ant) % levels
    return _from_indices(KIND_DFT, phase_bits, idx[:, :, None])


def group_columns(cb: Codebook, n_cols: int) -> Codebook:
    """Regroup a codebook's columns into wider entries, order preserved.

    Entry j of the result takes columns j*n_cols .. j*n_cols+n_cols-1 of
    the flattened (entry-major) column sequence. Used to split a DFT beam
    set across combining matrices with several RF chains each.
    """
    total = cb.n_entries * cb.n_cols
    if total % n_cols:
        raise ValueError("total column count %d not divisible by %d" % (total, n_cols))
    return Codebook(cb.kind, cb.phase_bits, _regroup(cb.phase_indices, n_cols),
                    _regroup(cb.entries, n_cols))


def random_codebook(n_ant: int, n_entries: int, n_cols: int, phase_bits: int,
                    rng: np.random.Generator) -> Codebook:
    """I.i.d. uniform phase indices in every position."""
    idx = rng.integers(0, 1 << phase_bits, size=(n_entries, n_ant, n_cols))
    return _from_indices(KIND_RANDOM, phase_bits, idx)


def _beam_angles(n_ant: int, n_entries: int) -> np.ndarray:
    """(n_entries, n_ant, n_ant // n_entries) phases of the DFT beams an entry
    combines: entry m takes beams m, m+n_entries, ..., phase 2*pi*k/n_ant
    with k = n*beam reduced exactly mod n_ant."""
    n = np.arange(n_ant)[:, None]
    beams = np.arange(n_entries)[:, None, None] + n_entries * np.arange(n_ant // n_entries)
    return 2.0 * np.pi * ((n * beams) % n_ant) / n_ant


def _combined_indices(beam_angles: np.ndarray, rotations: np.ndarray,
                      phase_bits: int) -> np.ndarray:
    """Quantizer indices of phase-only combined DFT entries, shape
    (len(beam_angles), n_ant, 1), from rows of _beam_angles.

    rotations[m, j] is the quantizer index of the phase applied to beam j
    of entry m before summing. Magnitudes below the cancellation tolerance
    quantize to index 0 instead of inheriting rounding noise.
    """
    levels = 1 << phase_bits
    ang = beam_angles + 2.0 * np.pi * rotations[:, None, :] / levels
    s = np.exp(1j * ang).sum(axis=2)
    idx = _quantize_indices(np.angle(s), phase_bits)
    idx[np.abs(s) < _ZERO_SUM_TOL * beam_angles.shape[2]] = 0
    return idx[:, :, None]


def multi_beam_dft_codebook(n_ant: int, n_entries: int = 64,
                            phase_bits: int = 6) -> Codebook:
    """Blind combination of n_ant/n_entries DFT beams per entry.

    Degenerates to dft_codebook when n_ant == n_entries. Rejects antenna
    counts that do not split evenly across entries.
    """
    if n_ant % n_entries:
        raise ValueError("n_ant must be a multiple of n_entries")
    rotations = np.zeros((n_entries, n_ant // n_entries), dtype=np.int64)
    idx = _combined_indices(_beam_angles(n_ant, n_entries), rotations, phase_bits)
    return _from_indices(KIND_MULTI_BEAM, phase_bits, idx)


def _coherence_of_effective(eff: np.ndarray) -> float:
    # sum_{i != j} |<c_i, c_j>|^2 over unit-normalized columns, via the
    # row-space Gram so cost scales with slots^2 * bins, not bins^2.
    # Bit-equal to an einsum of c * conj(c) and a complex division: re^2 +
    # im^2 is the real part of c * conj(c), summed down the rows in the same
    # order, and dividing by sqrt(d) + 0j multiplies by 1/sqrt(d). All-zero
    # columns scale by 1/inf = 0 and are not counted.
    d = (eff.real ** 2 + eff.imag ** 2).sum(axis=0)
    usable = d > 0.0
    z = eff * (1.0 / np.sqrt(np.where(usable, d, np.inf)))
    w = z @ z.conj().T
    return float(np.sum(np.abs(w) ** 2) - int(usable.sum()))


def total_coherence(cb: Codebook, grid: np.ndarray) -> float:
    """Sum of squared off-diagonal normalized column correlations of the
    effective dictionary the codebook induces on the grid atoms."""
    if grid.shape[0] != cb.n_ant:
        raise ValueError("codebook and grid antenna counts differ")
    return _coherence_of_effective(cb.columns.T @ grid.conj())


def designed_codebook(n_ant: int, grid: np.ndarray, n_entries: int,
                      phase_bits: int, rng: np.random.Generator,
                      sweeps: int = 200) -> Codebook:
    """Coherence-minimizing refinement of the multi-beam codebook.

    Greedy coordinate descent: visit every (entry, constituent beam) slot
    once per sweep, draw one candidate rotation from the quantizer grid,
    keep it only if the total coherence strictly drops. Deterministic for
    a fixed rng seed. The rotations are the whole search state; the phase
    indices are derived from them once, at the end. With one beam per
    entry rotations are pure per-entry phase shifts, which cannot change
    the coherence, so the DFT start is returned as-is.
    """
    if grid.shape[0] != n_ant:
        raise ValueError("codebook and grid antenna counts differ")
    start = multi_beam_dft_codebook(n_ant, n_entries, phase_bits)
    beams_per = n_ant // n_entries
    if beams_per == 1:
        return _from_indices(KIND_DESIGNED, phase_bits, start.phase_indices)

    levels = 1 << phase_bits
    rotations = np.zeros((n_entries, beams_per), dtype=np.int64)
    beam_angles = _beam_angles(n_ant, n_entries)
    table = _phasor_table(phase_bits, n_ant)
    atoms_conj = grid.conj()
    # transmit-side effective dictionary: rows are slots, columns grid bins
    eff = start.columns.T @ atoms_conj
    best = _coherence_of_effective(eff)
    for _ in range(sweeps):
        for m in range(n_entries):
            for j in range(beams_per):
                cand = int(rng.integers(0, levels))
                if cand == rotations[m, j]:
                    continue
                old = rotations[m, j]
                rotations[m, j] = cand
                old_row = eff[m].copy()
                eff[m] = table[_combined_indices(beam_angles[m:m + 1], rotations[m:m + 1],
                                                 phase_bits)[0, :, 0]] @ atoms_conj
                score = _coherence_of_effective(eff)
                if score < best:
                    best = score
                else:
                    rotations[m, j] = old
                    eff[m] = old_row
    return _from_indices(KIND_DESIGNED, phase_bits,
                         _combined_indices(beam_angles, rotations, phase_bits))

