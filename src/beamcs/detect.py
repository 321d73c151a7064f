"""Beam-pair detection from swept measurements.

Two detectors over the same acquisition: exhaustive energy ranking over
(tx entry, combiner column) pairs, and sparse recovery on the grid-domain
operator followed by bin-to-beam rounding. Sparse recovery is orthogonal
matching pursuit with a fixed iteration count (the nominal path count);
each iteration re-fits all selected coefficients by least squares, solved
on the Gram matrix of the support, and updates the correlations from one
Gram column instead of applying the adjoint again. Every pilot sees the
same operator block, so unless that block has parallel columns the fit
runs on one block against the pilot mean.

Beam indexing everywhere is DFT order (`arrays.beam_sin_values`), so
index differences are circular.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .arrays import beam_sin_values
from .channel import ChannelRealization
from .sweep import SensingOperator


class BeamPair(NamedTuple):
    tx: int
    rx: int


@dataclass(frozen=True)
class DetectionOutcome:
    estimated: tuple          # BeamPairs, detection confidence descending
    support: tuple | None = None
    ridge_flagged: bool = False


@dataclass(frozen=True)
class OmpResult:
    support: tuple
    coefficients: np.ndarray
    residual: np.ndarray
    ridge_flagged: bool


def _circular_sin_distance(beam_sins: np.ndarray, sin_value: float) -> np.ndarray:
    # half-wavelength steering vectors alias with period 2 in sin, so the
    # sin axis is a circle of circumference 2: sin +0.99 sits next to the
    # endfire beam at sin -1, not 1.99 away from it
    d = np.abs(beam_sins - sin_value)
    return np.minimum(d, 2.0 - d)


def true_pairs(ch: ChannelRealization, n_tx_beams: int, n_rx_beams: int) -> frozenset:
    """Nearest DFT beam pair per path, deduplicated.

    Nearest means smallest circular sin-domain distance, ties to the
    lower beam index.
    """
    tx_sins = beam_sin_values(n_tx_beams)
    rx_sins = beam_sin_values(n_rx_beams)
    pairs = set()
    for p in ch.paths:
        tx = int(np.argmin(_circular_sin_distance(tx_sins, math.sin(p.aod))))
        rx = int(np.argmin(_circular_sin_distance(rx_sins, math.sin(p.aoa))))
        pairs.add(BeamPair(tx, rx))
    return frozenset(pairs)


def exhaustive_search(y: np.ndarray, n_pairs: int) -> DetectionOutcome:
    """Top pairs by pilot-summed energy of a (pilot, tx entry, rx entry,
    chain) measurement.

    Every combiner column counts as a distinct rx beam, so the pair grid
    is tx entries x (rx entries * chains). Ties break toward the
    lower tx index, then the lower rx index.
    """
    n_rxb = y.shape[2] * y.shape[3]
    # per pilot, y runs over tx entry, rx entry, chain: flat index tx * n_rxb + rx
    metric = (np.abs(y.reshape(y.shape[0], -1)) ** 2).sum(axis=0)
    if not 1 <= n_pairs <= metric.size:
        raise ValueError("n_pairs must lie in [1, %d]" % metric.size)
    # a stable sort keeps equal energies in flat, i.e. (tx, rx), order
    order = np.argsort(-metric, kind="stable")
    est = tuple(BeamPair(*divmod(int(i), n_rxb)) for i in order[:n_pairs])
    return DetectionOutcome(estimated=est)


def omp(op, y: np.ndarray, sparsity: int) -> OmpResult:
    """Orthogonal matching pursuit with column-normalized selection, run on
    the correlations A^H r rather than on the residual r.

    op is a SensingOperator or any object with the five members omp reads:
    shape, col_norms(), adjoint_apply(r), column(g) and gram_column(g) =
    A^H a_g. The adjoint is applied once, c0 = A^H y. Each pick adds the
    Gram column of the picked bin, the coefficients x of the support S
    solve G_SS x = c0[S], and the correlations are c0 - x G_S. Selection
    maximizes |correlation| / ||column||, previously selected columns
    excluded; bit-equal scores go to the lower index. If G_SS is
    numerically singular (rank below len(S) at numpy's default tolerance)
    the solve adds 1e-12 * (max column norm)^2 to its diagonal and the
    result is flagged. The residual y - A_S x is formed once, at the end.
    """
    if sparsity < 1 or sparsity > op.shape[1]:
        raise ValueError("sparsity must lie in [1, n_columns]")
    norms = op.col_norms()
    safe_norms = np.where(norms > 0.0, norms, np.inf)
    ridge = 1e-12 * float(norms.max()) ** 2

    y = np.asarray(y, dtype=complex)
    c0 = op.adjoint_apply(y)
    corr = c0
    support: list[int] = []
    # row i holds A^H a_g of the i-th pick g, so gram[:i + 1, S].T is G_SS
    gram = np.empty((sparsity, op.shape[1]), dtype=complex)
    flagged = False
    for i in range(sparsity):
        scores = np.abs(corr) / safe_norms
        scores[support] = -1.0
        support.append(int(np.argmax(scores)))
        gram[i] = op.gram_column(support[-1])
        g_ss = gram[:i + 1, support].T
        eig = np.abs(np.linalg.eigvalsh(g_ss))
        if eig.min() <= eig.max() * len(support) * np.finfo(float).eps:
            g_ss = g_ss + ridge * np.eye(len(support))
            flagged = True
        coef = np.linalg.solve(g_ss, c0[support])
        corr = c0 - coef @ gram[:i + 1]
    a = np.stack([op.column(g) for g in support], axis=1)
    return OmpResult(tuple(support), coef, y - a @ coef, flagged)


def _stacked_omp(op, y: np.ndarray, sparsity: int) -> OmpResult:
    """The residual-domain OMP that `cs_detect` runs on aliased operators:
    one adjoint and one least-squares fit per pick.

    Among an aliased operator's parallel columns rounding, not the index,
    picks the winner, and the recorded results follow this loop's
    rounding, so it stays until those columns are masked. If the selected
    columns go rank deficient the least-squares step falls back to a ridge
    solve with 1e-12 * (max column norm)^2 and the result is flagged.
    """
    if sparsity < 1 or sparsity > op.shape[1]:
        raise ValueError("sparsity must lie in [1, n_columns]")
    norms = op.col_norms()
    usable = norms > 0.0
    safe_norms = np.where(usable, norms, np.inf)
    ridge = 1e-12 * float(norms.max()) ** 2

    y = np.asarray(y, dtype=complex)
    residual = y.copy()
    support: list[int] = []
    # column i holds the i-th pick; a is a C-ordered view of the first i + 1
    cols = np.empty((op.shape[0], sparsity), dtype=complex)
    coef = np.zeros(0, dtype=complex)
    flagged = False
    for i in range(sparsity):
        scores = np.abs(op.adjoint_apply(residual)) / safe_norms
        if support:
            scores[np.asarray(support)] = -1.0
        g = int(np.argmax(scores))
        support.append(g)
        cols[:, i] = op.column(g)
        a = cols[:, :i + 1]
        coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < len(support):
            gram = a.conj().T @ a + ridge * np.eye(len(support))
            coef = np.linalg.solve(gram, a.conj().T @ y)
            flagged = True
        residual = y - a @ coef
    return OmpResult(tuple(support), coef, residual, flagged)


def _bin_to_beam(g_bin: int, n_bins: int, n_beams: int) -> int:
    # nearest beam in sin-domain index arithmetic; bins per beam = n_bins/n_beams
    return int(math.floor(g_bin * n_beams / n_bins + 0.5)) % n_beams


def cs_detect(op: SensingOperator, y: np.ndarray, sparsity: int, n_tx_beams: int,
              n_rx_beams: int, n_pairs: int) -> DetectionOutcome:
    """Sparse-recovery detector.

    op is one pilot block. Runs omp on the pilot mean of y against it:
    the operator stacked over the pilots repeats that block, so this is the
    same least-squares fit. Every OMP score is scaled by sqrt(n_pilots),
    and the ranking and the coefficients agree with the stacked fit in
    exact arithmetic. An aliased op (see `SensingOperator`) is stacked
    over y's pilots and fitted on the flattened measurement by
    `_stacked_omp` instead, because among its parallel columns rounding
    picks the winner and the recorded picks follow that loop's rounding.

    Each support bin g splits into (g // n_rx_bins, g % n_rx_bins), bins
    round to beams, and the first n_pairs distinct pairs by coefficient
    magnitude are returned. If deduplication leaves fewer, pairs are
    appended from the largest remaining residual correlations.
    """
    if op.n_tx_bins % n_tx_beams or op.n_rx_bins % n_rx_beams:
        raise ValueError("grid sizes must be multiples of the beam counts")
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    if op.aliased:
        op = replace(op, n_pilots=y.shape[0])
        result = _stacked_omp(op, y.reshape(-1), sparsity)
    else:
        result = omp(op, y.mean(axis=0).reshape(-1), sparsity)

    def to_pair(g: int) -> BeamPair:
        gt, gr = divmod(int(g), op.n_rx_bins)
        return BeamPair(_bin_to_beam(gt, op.n_tx_bins, n_tx_beams),
                        _bin_to_beam(gr, op.n_rx_bins, n_rx_beams))

    order = np.argsort(-np.abs(result.coefficients), kind="stable")
    est: list[BeamPair] = []
    for i in order:
        pair = to_pair(result.support[i])
        if pair not in est:
            est.append(pair)
        if len(est) == n_pairs:
            break
    if len(est) < n_pairs:
        norms = op.col_norms()
        scores = np.abs(op.adjoint_apply(result.residual)) / np.where(norms > 0, norms, np.inf)
        for g in np.argsort(-scores, kind="stable"):
            pair = to_pair(g)
            if pair not in est:
                est.append(pair)
            if len(est) == n_pairs:
                break
    return DetectionOutcome(estimated=tuple(est), support=result.support,
                            ridge_flagged=result.ridge_flagged)


def signed_circular_diff(est: int, true: int, n: int) -> int:
    """Index difference on the circular beam grid, representative in
    [-n/2, n/2)."""
    return (est - true + n // 2) % n - n // 2


def beam_index_errors(estimated, truth, n_tx_beams: int, n_rx_beams: int):
    """Signed circular beam-index errors, one (tx, rx) entry per true pair.

    The sides are scored independently: a true pair's tx error is the
    signed difference to the estimate with the circularly nearest tx
    index, and likewise for rx, so a correct tx beam counts even when it
    was reported with the wrong rx beam. Ties go to the
    higher-confidence estimate.

    Entry i of both lists belongs to sorted(truth)[i], whatever the
    iteration order of truth.
    """
    estimated = list(estimated)
    if not estimated or not truth:
        raise ValueError("need at least one estimated and one true pair")
    tx_errors: list[int] = []
    rx_errors: list[int] = []
    for t in sorted(truth):
        best_tx = best_rx = None
        for e in estimated:
            dtx = signed_circular_diff(e.tx, t.tx, n_tx_beams)
            drx = signed_circular_diff(e.rx, t.rx, n_rx_beams)
            if best_tx is None or abs(dtx) < abs(best_tx):
                best_tx = dtx
            if best_rx is None or abs(drx) < abs(best_rx):
                best_rx = drx
        tx_errors.append(best_tx)
        rx_errors.append(best_rx)
    return tx_errors, rx_errors
