"""Beam-pair detection from swept measurements.

Two detectors over the same acquisition: exhaustive energy ranking over
(tx entry, combiner column) pairs, and sparse recovery on the grid-domain
operator followed by bin-to-beam rounding. Sparse recovery is orthogonal
matching pursuit with a fixed iteration count (the nominal path count);
each iteration re-fits all selected coefficients by least squares, solved
on the Gram matrix of the support, and updates the correlations from the
Kronecker factors of one Gram column instead of applying the adjoint
again. Every pilot sees the same operator block, so unless that block has
parallel columns the fit runs on one block against the pilot mean, and
all SNR points of one sweep are fitted by one batched call. Only
`_stacked_omp`, the fit of an aliased block, repeats it over the pilots.
A fit returns no residual; `cs_detect` forms one for its rare residual
fill only, one expression for every operator.

Beam indexing everywhere is DFT order (`arrays.beam_sin_values`), so
index differences are circular.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization
from .codebooks import _nearest_index
from .sweep import SensingOperator

# columns of at most this fraction of the largest norm are empty but for rounding
_EMPTY_COLUMN_TOL = 1e-9


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
    ridge_flagged: bool | tuple  # the flagged rows' indices when omp fits a stack


def _selection_norms(norms: np.ndarray) -> np.ndarray:
    # what scores are divided by: empty columns' rounding noise then scores 0
    return np.where(norms > _EMPTY_COLUMN_TOL * norms.max(), norms, np.inf)


def true_pairs(ch: ChannelRealization, n_tx_beams: int, n_rx_beams: int) -> frozenset:
    """Nearest DFT beam pair per path, deduplicated.

    Beam b of n sits at sin 2b/n on the sin circle, of circumference 2
    because half-wavelength steering vectors alias with period 2, so a path
    goes to `_nearest_index(sin * n / 2, n)`: halfway between two beams, to
    the one at sin - 1/n (so sin -1/n goes to beam n - 1).
    """
    return frozenset(BeamPair(_nearest_index(math.sin(p.aod) * n_tx_beams / 2, n_tx_beams),
                              _nearest_index(math.sin(p.aoa) * n_rx_beams / 2, n_rx_beams))
                     for p in ch.paths)


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


def omp(op: SensingOperator, y: np.ndarray, sparsity: int) -> OmpResult:
    """Orthogonal matching pursuit with column-normalized selection, run on
    the correlations A^H r rather than on the residual r.

    y is one measurement of shape (rows,) or a stack of shape (n, rows);
    each row is fitted on its own, and gets the same bits as when it is
    fitted alone. The adjoint is applied once, c0 = A^H y. Each pick adds
    the Gram column of the picked bin as its two Kronecker factors
    (`SensingOperator.gram_factors`), the coefficients x of the support S
    solve G_SS x = c0[S], and the correlations are c0 - (T_S^T diag x) R_S.
    Selection maximizes |correlation| / ||column||, previously selected
    columns excluded and numerically empty ones (norm at most 1e-9 of the
    largest) scored 0; bit-equal scores go to the lower index. If G_SS is
    numerically singular (rank below len(S) at numpy's default tolerance)
    the solve adds 1e-12 * (max column norm)^2 to its diagonal and the
    result is flagged. The residual y - A_S x is never formed.

    For a stack, support and coefficients gain a leading row axis, and
    ridge_flagged is the tuple of the flagged rows (empty, so false, when
    none was).
    """
    if sparsity < 1 or sparsity > op.shape[1]:
        raise ValueError("sparsity must lie in [1, n_columns]")
    norms = op.col_norms(1)
    safe_norms = _selection_norms(norms)
    ridge = 1e-12 * float(norms.max()) ** 2

    y = np.asarray(y, dtype=complex)
    ys = y.reshape(-1, op.shape[0])
    n = ys.shape[0]
    c0 = op.adjoint_apply(ys)
    support = np.empty((n, sparsity), dtype=np.intp)
    # pick j of row b has the Gram column kron(t[b, j], r[b, j])
    t = np.empty((n, sparsity, op.n_tx_bins), dtype=complex)
    r = np.empty((n, sparsity, op.n_rx_bins), dtype=complex)
    flagged = np.zeros(n, dtype=bool)
    rows = np.arange(n)[:, None, None]
    # the only n_bins-wide work, done one row at a time in these two buffers
    corr = np.empty((op.n_tx_bins, op.n_rx_bins), dtype=complex)
    scores = np.empty(op.shape[1])
    for i in range(sparsity):
        for b in range(n):
            if i:
                np.matmul(t[b, :i].T * coef[b], r[b, :i], out=corr)
                np.subtract(c0[b].reshape(corr.shape), corr, out=corr)
            np.abs(corr.reshape(-1) if i else c0[b], out=scores)
            scores /= safe_norms
            scores[support[b, :i]] = -1.0
            support[b, i] = np.argmax(scores)
        t[:, i], r[:, i] = op.gram_factors(support[:, i])
        st, sr = np.divmod(support[:, :i + 1, None], op.n_rx_bins)
        # g_ss[b, a, j] = t[b, j, st[b, a]] * r[b, j, sr[b, a]], the entry of
        # A^H a_(S_j) at S_a
        j = np.arange(i + 1)
        g_ss = t[rows, j, st] * r[rows, j, sr]
        low = np.linalg.matrix_rank(g_ss, hermitian=True) < i + 1
        if low.any():
            g_ss[low] += ridge * np.eye(i + 1)
            flagged |= low
        coef = np.linalg.solve(g_ss, c0[rows, support[:, :i + 1, None]])[..., 0]
    if y.ndim == 1:
        return OmpResult(tuple(support[0].tolist()), coef[0], bool(flagged[0]))
    return OmpResult(tuple(map(tuple, support.tolist())), coef,
                     tuple(np.flatnonzero(flagged).tolist()))


def _stacked_omp(op, y: np.ndarray, sparsity: int) -> OmpResult:
    """The residual-domain OMP that `cs_detect` runs on aliased operators:
    one adjoint and one least-squares fit per pick, with the block
    repeated over the pilots of y, its leading axis.

    Among an aliased operator's parallel columns rounding, not the index,
    picks the winner, and the recorded results follow this loop's
    rounding, so it stays until those columns are masked. If the selected
    columns go rank deficient the least-squares step falls back to a ridge
    solve with 1e-12 * (max column norm)^2 and the result is flagged.
    """
    if sparsity < 1 or sparsity > op.shape[1]:
        raise ValueError("sparsity must lie in [1, n_columns]")
    n_pilots = len(y)
    norms = op.col_norms(n_pilots)
    safe_norms = _selection_norms(norms)
    ridge = 1e-12 * float(norms.max()) ** 2

    y = np.asarray(y, dtype=complex).reshape(-1)
    residual = y.copy()
    support: list[int] = []
    # column i holds the i-th pick, on every pilot; a is a view of the first i + 1
    cols = np.empty((n_pilots, op.shape[0], sparsity), dtype=complex)
    flagged = False
    for i in range(sparsity):
        scores = np.abs(op.adjoint_apply(residual.reshape(n_pilots, -1).sum(axis=0))) / safe_norms
        scores[support] = -1.0
        g = int(np.argmax(scores))
        support.append(g)
        cols[:, :, i:i + 1] = op.columns([g])
        a = cols.reshape(-1, sparsity)[:, :i + 1]
        coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
        if rank < len(support):
            gram = a.conj().T @ a + ridge * np.eye(len(support))
            coef = np.linalg.solve(gram, a.conj().T @ y)
            flagged = True
        if i + 1 < sparsity:  # the fit returns no residual
            residual = y - a @ coef
    return OmpResult(tuple(support), coef, flagged)


def cs_detect(op: SensingOperator, ys, sparsity: int, n_tx_beams: int,
              n_rx_beams: int, n_pairs: int) -> list:
    """Sparse-recovery detector; one `DetectionOutcome` per measurement of
    the iterable ys, in order.

    op is one pilot block. The pilot means of all of ys are fitted by one
    batched omp call against it: the operator stacked over the pilots
    repeats that block, so this is the same least-squares fit. Every OMP
    score is scaled by sqrt(n_pilots), and the ranking and the
    coefficients agree with the stacked fit in exact arithmetic. ys is
    read once, so a generator keeps one full measurement live at a time.
    An aliased op (see `SensingOperator`) is fitted by `_stacked_omp` on
    each measurement's pilots instead, because among its parallel columns
    rounding picks the winner and the recorded picks follow that loop's
    rounding; each measurement is fitted and ranked before the next is read.

    Each support bin g splits into (g // n_rx_bins, g % n_rx_bins), bin b
    of n_bins goes to beam `_nearest_index(b * n_beams / n_bins, n_beams)`
    (a halfway bin, which only an even grid multiplier has, to the lower
    beam), and the first n_pairs distinct pairs by coefficient magnitude
    are returned. If deduplication leaves fewer, only then is the
    fit's residual formed and summed over the pilots it was fitted on (one
    for the pilot mean), and pairs are appended from its largest normalized
    correlations.
    """
    if op.n_tx_bins % n_tx_beams or op.n_rx_bins % n_rx_beams:
        raise ValueError("grid sizes must be multiples of the beam counts")
    if not 1 <= n_pairs <= n_tx_beams * n_rx_beams:
        raise ValueError("n_pairs must lie in [1, %d]" % (n_tx_beams * n_rx_beams))
    if op.aliased:  # each measurement is fitted and ranked before the next is read
        stacks = (y.reshape(len(y), -1) for y in ys)
        return [_rank_pairs(op, y, _stacked_omp(op, y, sparsity), n_tx_beams, n_rx_beams,
                            n_pairs) for y in stacks]
    means = [y.mean(axis=0).reshape(1, -1) for y in ys]  # one-pilot stacks
    batch = omp(op, np.reshape(means, (-1, op.shape[0])), sparsity)
    return [_rank_pairs(op, y, OmpResult(s, c, b in batch.ridge_flagged), n_tx_beams,
                        n_rx_beams, n_pairs)
            for b, (y, s, c) in enumerate(zip(means, batch.support, batch.coefficients))]


def _rank_pairs(op: SensingOperator, y: np.ndarray, fit: OmpResult, n_tx_beams: int,
                n_rx_beams: int, n_pairs: int) -> DetectionOutcome:
    def bins():
        yield from np.take(fit.support, np.argsort(-np.abs(fit.coefficients), kind="stable"))
        residual = (y - op.columns(fit.support) @ fit.coefficients).sum(axis=0)
        scores = np.abs(op.adjoint_apply(residual)) / _selection_norms(op.col_norms(len(y)))
        yield from np.argsort(-scores, kind="stable")

    est: list[BeamPair] = []
    for g in bins():
        gt, gr = divmod(int(g), op.n_rx_bins)
        pair = BeamPair(_nearest_index(gt * n_tx_beams / op.n_tx_bins, n_tx_beams),
                        _nearest_index(gr * n_rx_beams / op.n_rx_bins, n_rx_beams))
        if pair not in est:
            est.append(pair)
            if len(est) == n_pairs:
                break
    return DetectionOutcome(estimated=tuple(est), support=fit.support,
                            ridge_flagged=fit.ridge_flagged)


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
