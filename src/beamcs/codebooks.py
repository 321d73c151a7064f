"""Phase-shifter codebooks for analog beamforming.

All quantized codebooks share one representation: every matrix entry is
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
from functools import lru_cache
from pathlib import Path

import numpy as np

from .arrays import GridDictionary

KIND_DFT = "DFT"
KIND_RANDOM = "Random"
KIND_MULTI_BEAM = "MultiBeamDFT"
KIND_DESIGNED = "Designed"
KINDS = (KIND_DFT, KIND_RANDOM, KIND_MULTI_BEAM, KIND_DESIGNED)

# |combined atom sum| below tol * n_summed counts as exact cancellation
_ZERO_SUM_TOL = 1e-9


def _ordinal(x: np.ndarray) -> np.ndarray:
    # float64 -> int64 that steps by one per ulp, across zero too
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def _from_ordinal(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=np.int64)
    return np.where(n < 0, np.iinfo(np.int64).min - n, n).view(np.float64)


def _solve_component(fixed: np.ndarray, start: np.ndarray, amp: float,
                     fixed_is_real: bool) -> tuple:
    """Per element, the value of the other component nearest start (in ulps,
    same sign) whose complex magnitude with fixed is exactly amp, and
    whether one exists. The float |z| is monotone in that component's
    magnitude, so a bisection over its ulps finds it."""
    n0 = np.broadcast_to(_ordinal(np.abs(start)), np.broadcast(fixed, start).shape)

    def candidates(n):
        other = np.copysign(_from_ordinal(n), start)
        c = np.empty(n0.shape, dtype=complex)
        c.real, c.imag = (fixed, other) if fixed_is_real else (other, fixed)
        return c

    def modulus(n):
        return np.abs(candidates(n))  # complex abs: np.hypot can differ by an ulp

    m0 = modulus(n0)
    up = m0 < amp
    # up: modulus(lo) < amp <= modulus(hi), answer hi;
    # down: modulus(lo) <= amp < modulus(hi), answer lo
    lo = np.where(up, n0, 0)
    hi = np.where(up, _ordinal(amp), n0)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        m = modulus(mid)
        above = np.where(up, m >= amp, m > amp)
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    n = np.where(m0 == amp, n0, np.where(up, hi, lo))
    return candidates(n), modulus(n) == amp


def _best_nudge(z: np.ndarray, amp: float, width: int) -> tuple:
    """Per z, the best exact-modulus nudge with |di| <= width or
    |dj| <= width, in the order of _exact_modulus, and its cost |di| + |dj|
    (the int64 maximum where there is none). Each offset of one component
    is paired with the nearest exact value of the other."""
    z = z[:, None]
    d = np.arange(-width, width + 1)
    by_re, ok_re = _solve_component(_from_ordinal(_ordinal(z.real) + d), z.imag, amp, True)
    by_im, ok_im = _solve_component(_from_ordinal(_ordinal(z.imag) + d), z.real, amp, False)
    cand = np.concatenate([by_re, by_im], axis=1)
    di = _ordinal(cand.real) - _ordinal(z.real)
    dj = _ordinal(cand.imag) - _ordinal(z.imag)
    cost = np.where(np.concatenate([ok_re, ok_im], axis=1), np.abs(di) + np.abs(dj),
                    np.iinfo(np.int64).max)
    outside = np.maximum(np.abs(di), np.abs(dj)) > 6
    rows = np.broadcast_to(np.arange(len(z))[:, None], cand.shape)
    best = np.lexsort([a.ravel() for a in (dj, di, outside, cost, rows)])
    best = best.reshape(cand.shape)[:, 0]
    return cand.ravel()[best], cost.ravel()[best]


def _exact_modulus(z: np.ndarray, amp: float) -> np.ndarray:
    """Per z, the ulp nudge (re by di, im by dj) whose float magnitude equals
    amp exactly. Least |di| + |dj| wins; among equal costs a nudge inside the
    +-6 ulp square wins, then the lower di, then the lower dj. That order
    keeps the value of every phasor a +-6 ulp square scan could find.

    A search of width w sees every nudge of cost <= 2w + 1, so a best
    nudge that cheap is the best of all; the others are searched again
    four times wider.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    todo = np.arange(len(z))
    width = 6
    while todo.size:
        if width > 1536:
            raise RuntimeError("no representable value with the target modulus near %r"
                               % z[todo[0]])
        cand, cost = _best_nudge(z[todo], amp, width)
        done = cost <= 2 * width + 1
        out[todo[done]] = cand[done]
        todo = todo[~done]
        width *= 4
    return out


@lru_cache(maxsize=None)
def _phasor_table(phase_bits: int, n_ant: int) -> np.ndarray:
    """All 2**phase_bits entry values realizable by this quantizer."""
    amp = math.sqrt(1.0 / n_ant)
    levels = 1 << phase_bits
    raw = amp * np.exp(2j * np.pi * np.arange(levels) / levels)
    table = _exact_modulus(raw, amp)
    table.setflags(write=False)
    return table


def _quantize_indices(angles: np.ndarray, phase_bits: int) -> np.ndarray:
    """Nearest quantizer index per angle, ties toward the lower neighbor."""
    levels = 1 << phase_bits
    t = (np.asarray(angles) % (2.0 * np.pi)) * (levels / (2.0 * np.pi))
    idx = np.ceil(t - 0.5).astype(np.int64) % levels
    return idx


@dataclass(frozen=True, eq=False)
class Codebook:
    """Sequence of beamforming matrices, one per sweep slot.

    entries has shape (n_entries, n_ant, n_cols). phase_indices mirrors it
    with integer quantizer indices and is None only for the unquantized
    test mode (phase_bits None).
    """

    kind: str
    n_ant: int
    phase_bits: int | None
    phase_indices: np.ndarray | None
    entries: np.ndarray

    @property
    def n_entries(self) -> int:
        return self.entries.shape[0]

    @property
    def n_cols(self) -> int:
        return self.entries.shape[2]

    def entry(self, m: int) -> np.ndarray:
        return self.entries[m]

    @property
    def columns(self) -> np.ndarray:
        """(n_ant, n_entries * n_cols): the entries side by side, entry-major,
        i.e. the whole codebook regrouped into one entry."""
        return _regroup(self.entries, self.n_entries * self.n_cols)[0]


def _regroup(a: np.ndarray, n_cols: int) -> np.ndarray:
    # (n_entries, n_ant, c) -> (n_entries * c // n_cols, n_ant, n_cols), C-ordered:
    # the columns side by side, entry-major, cut into entries of n_cols columns
    return np.ascontiguousarray(
        a.transpose(1, 0, 2).reshape(a.shape[1], -1, n_cols).transpose(1, 0, 2))


def _from_indices(kind: str, n_ant: int, phase_bits: int, idx: np.ndarray) -> Codebook:
    idx = np.asarray(idx, dtype=np.int64)
    entries = _phasor_table(phase_bits, n_ant)[idx]
    return Codebook(kind, n_ant, phase_bits, idx, entries)


def quantize_phases(matrix: np.ndarray, phase_bits: int) -> np.ndarray:
    """Project a complex matrix onto the phase-shifter value set.

    Keeps only the phase of each entry, rounded to the nearest of the
    2**phase_bits grid phases (ties toward the lower neighbor), and sets
    the modulus to sqrt(1/n_ant) with n_ant = number of rows. Entries that
    are exactly zero get phase index 0.
    """
    matrix = np.asarray(matrix)
    idx = _quantize_indices(np.angle(matrix), phase_bits)
    return _phasor_table(phase_bits, matrix.shape[0])[idx]


def _ratio_round_half_down(num, den: int):
    # round(num/den) over exact integers or int arrays, halves toward -inf
    return -((den - 2 * num) // (2 * den))


def dft_codebook(n_ant: int, n_beams: int, phase_bits: int | None = 6) -> Codebook:
    """Single-column entries pointing at the first n_beams DFT directions.

    Quantized indices are computed in integer arithmetic, so beam phases
    that the quantizer grid can represent are hit exactly. phase_bits None
    skips quantization entirely (test mode; entries are the exact atoms,
    orthonormal when n_beams = n_ant).
    """
    if not 1 <= n_beams <= n_ant:
        raise ValueError("n_beams must lie in [1, n_ant]")
    n = np.arange(n_ant)
    m = np.arange(n_beams)
    if phase_bits is None:
        amp = math.sqrt(1.0 / n_ant)
        entries = amp * np.exp(2j * np.pi * np.outer(m, n) / n_ant)[:, :, None]
        return Codebook(KIND_DFT, n_ant, None, None, entries)
    levels = 1 << phase_bits
    idx = _ratio_round_half_down(np.outer(m, n) % n_ant * levels, n_ant) % levels
    return _from_indices(KIND_DFT, n_ant, phase_bits, idx[:, :, None])


def group_columns(cb: Codebook, n_cols: int) -> Codebook:
    """Regroup a codebook's columns into wider entries, order preserved.

    Entry j of the result takes columns j*n_cols .. j*n_cols+n_cols-1 of
    the flattened (entry-major) column sequence. Used to split a DFT beam
    set across combining matrices with several RF chains each.
    """
    total = cb.n_entries * cb.n_cols
    if total % n_cols:
        raise ValueError("total column count %d not divisible by %d" % (total, n_cols))
    idx = None if cb.phase_indices is None else _regroup(cb.phase_indices, n_cols)
    return Codebook(cb.kind, cb.n_ant, cb.phase_bits, idx, _regroup(cb.entries, n_cols))


def random_codebook(n_ant: int, n_entries: int, n_cols: int, phase_bits: int,
                    rng: np.random.Generator) -> Codebook:
    """I.i.d. uniform phase indices in every position."""
    idx = rng.integers(0, 1 << phase_bits, size=(n_entries, n_ant, n_cols))
    return _from_indices(KIND_RANDOM, n_ant, phase_bits, idx)


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
    return _from_indices(KIND_MULTI_BEAM, n_ant, phase_bits, idx)


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


def total_coherence(cb: Codebook, grid: GridDictionary) -> float:
    """Sum of squared off-diagonal normalized column correlations of the
    effective dictionary the codebook induces on the grid."""
    if grid.geometry.n_ant != cb.n_ant:
        raise ValueError("codebook and grid antenna counts differ")
    return _coherence_of_effective(cb.columns.T @ grid.atoms.conj())


def designed_codebook(n_ant: int, grid: GridDictionary, n_entries: int = 64,
                      phase_bits: int = 6, rng: np.random.Generator | None = None,
                      sweeps: int = 200) -> Codebook:
    """Coherence-minimizing refinement of the multi-beam codebook.

    Greedy coordinate descent: visit every (entry, constituent beam) slot
    once per sweep, draw one candidate rotation from the quantizer grid,
    keep it only if the total coherence strictly drops. Deterministic for
    a fixed rng seed. With one beam per entry rotations are pure per-entry
    phase shifts, which cannot change the coherence, so the DFT start is
    returned as-is.
    """
    if n_ant % n_entries:
        raise ValueError("n_ant must be a multiple of n_entries")
    if rng is None:
        rng = np.random.default_rng(0)
    beams_per = n_ant // n_entries
    levels = 1 << phase_bits
    rotations = np.zeros((n_entries, beams_per), dtype=np.int64)
    beam_angles = _beam_angles(n_ant, n_entries)
    idx = _combined_indices(beam_angles, rotations, phase_bits)
    start = _from_indices(KIND_DESIGNED, n_ant, phase_bits, idx)
    if beams_per == 1:
        return start

    table = _phasor_table(phase_bits, n_ant)
    atoms_conj = grid.atoms.conj()
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
                cand_idx = _combined_indices(beam_angles[m:m + 1], rotations[m:m + 1],
                                             phase_bits)
                new_row = table[cand_idx[0, :, 0]] @ atoms_conj
                old_row = eff[m].copy()
                eff[m] = new_row
                score = _coherence_of_effective(eff)
                if score < best:
                    best = score
                    idx[m] = cand_idx[0]
                else:
                    rotations[m, j] = old
                    eff[m] = old_row
    return _from_indices(KIND_DESIGNED, n_ant, phase_bits, idx)


def save_codebook(cb: Codebook, path) -> None:
    """Text form: header `n_ant n_entries n_cols phase_bits kind`, then one
    line of integer phase indices per entry column (entry-major)."""
    if cb.phase_indices is None:
        raise ValueError("unquantized codebooks have no serial form")
    lines = ["%d %d %d %d %s" % (cb.n_ant, cb.n_entries, cb.n_cols, cb.phase_bits, cb.kind)]
    for m in range(cb.n_entries):
        for c in range(cb.n_cols):
            lines.append(" ".join(str(v) for v in cb.phase_indices[m, :, c]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_codebook(path) -> Codebook:
    """Inverse of save_codebook; round-trips bit-exactly."""
    text = Path(path).read_text(encoding="utf-8").strip().split("\n")
    head = text[0].split()
    if len(head) != 5:
        raise ValueError("malformed codebook header")
    n_ant, n_entries, n_cols, phase_bits = (int(v) for v in head[:4])
    kind = head[4]
    if kind not in KINDS:
        raise ValueError("unknown codebook kind %r" % kind)
    body = text[1:]
    if len(body) != n_entries * n_cols:
        raise ValueError("expected %d index lines, found %d" % (n_entries * n_cols, len(body)))
    idx = np.empty((n_entries, n_ant, n_cols), dtype=np.int64)
    levels = 1 << phase_bits
    for m in range(n_entries):
        for c in range(n_cols):
            row = np.array([int(v) for v in body[m * n_cols + c].split()], dtype=np.int64)
            if row.size != n_ant or row.min() < 0 or row.max() >= levels:
                raise ValueError("bad index line for entry %d column %d" % (m, c))
            idx[m, :, c] = row
    return _from_indices(kind, n_ant, phase_bits, idx)
