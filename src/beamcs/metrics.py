"""Detection metrics aggregated over Monte Carlo trials."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    snr_db: float
    method: str
    all_match: bool
    single_match: bool
    tx_errors: tuple
    rx_errors: tuple


@dataclass(frozen=True)
class GroupStats:
    n_trials: int
    p_all: float
    p_all_se: float
    p_single: float
    p_single_se: float


def all_beam_match(estimated, truth) -> bool:
    """Exact set equality of beam pairs."""
    est, tru = set(estimated), set(truth)
    if not est or not tru:
        raise ValueError("estimated and truth must be non-empty")
    return est == tru


def single_beam_match(estimated, truth) -> bool:
    """At least one estimated pair is a true pair."""
    est, tru = set(estimated), set(truth)
    if not est or not tru:
        raise ValueError("estimated and truth must be non-empty")
    return bool(est & tru)


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def detection_probability(records) -> dict:
    """Per-(snr_db, method) success rates with binomial standard errors."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.snr_db, r.method), []).append(r)
    out = {}
    for key, rs in groups.items():
        n = len(rs)
        p_all = sum(r.all_match for r in rs) / n
        p_single = sum(r.single_match for r in rs) / n
        out[key] = GroupStats(n, p_all, _binomial_se(p_all, n),
                              p_single, _binomial_se(p_single, n))
    return out
