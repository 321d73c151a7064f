import math

import numpy as np
import pytest

from beamcs.detect import BeamPair
from beamcs.metrics import TrialRecord, all_beam_match, detection_probability, single_beam_match


def test_all_beam_match_is_set_equality():
    assert all_beam_match({BeamPair(1, 2), BeamPair(3, 4)},
                          {BeamPair(3, 4), BeamPair(1, 2)})
    assert not all_beam_match({BeamPair(1, 2)}, {BeamPair(1, 3)})
    assert not all_beam_match({BeamPair(1, 2), BeamPair(5, 6)},
                              {BeamPair(1, 2), BeamPair(7, 0)})


def test_single_beam_match_is_intersection():
    assert single_beam_match({BeamPair(1, 2), BeamPair(5, 6)},
                             {BeamPair(1, 2), BeamPair(7, 0)})
    assert not single_beam_match({BeamPair(1, 2)}, {BeamPair(2, 1)})
    assert single_beam_match({BeamPair(1, 2)}, {BeamPair(1, 2)})


def test_matches_reject_empty_sides():
    with pytest.raises(ValueError):
        all_beam_match(set(), {BeamPair(1, 2)})
    with pytest.raises(ValueError):
        single_beam_match({BeamPair(1, 2)}, set())


def test_all_match_implies_single_match():
    rng = np.random.default_rng(3)
    for _ in range(200):
        truth = {BeamPair(int(t), int(r))
                 for t, r in rng.integers(0, 6, size=(rng.integers(1, 4), 2))}
        est = {BeamPair(int(t), int(r))
               for t, r in rng.integers(0, 6, size=(len(truth), 2))}
        if rng.random() < 0.3:
            est = set(truth)
        if all_beam_match(est, truth):
            assert single_beam_match(est, truth)


def rec(trial, snr, method, a, s, tx=(), rx=()):
    return TrialRecord(trial, snr, method, a, s, tuple(tx), tuple(rx))


def test_detection_probability_single_group():
    records = [rec(t, 0.0, "ES", t < 3, t < 4) for t in range(5)]
    stats = detection_probability(records)
    assert set(stats) == {(0.0, "ES")}
    g = stats[(0.0, "ES")]
    assert (g.n_trials, g.p_all, g.p_single) == (5, 0.6, 0.8)
    assert g.p_all_se == pytest.approx(math.sqrt(0.6 * 0.4 / 5), rel=1e-14)
    assert g.p_single_se == pytest.approx(math.sqrt(0.8 * 0.2 / 5), rel=1e-14)


def test_detection_probability_groups_by_snr_and_method():
    records = []
    for snr in (-5.0, 0.0):
        for method in ("ES", "OMP-DFT"):
            for t in range(4):
                records.append(rec(t, snr, method, (t + len(method)) % 2 == 0, True))
    stats = detection_probability(records)
    assert len(stats) == 4
    # oracle: independent per-group accumulation
    for key, g in stats.items():
        want = [r.all_match for r in records if (r.snr_db, r.method) == key]
        assert g.n_trials == len(want)
        assert g.p_all == sum(want) / len(want)
        assert g.p_single == 1.0
        assert g.p_single_se == 0.0


def test_detection_probability_p_all_never_exceeds_p_single():
    rng = np.random.default_rng(11)
    records = []
    for t in range(300):
        s = bool(rng.random() < 0.7)
        a = s and bool(rng.random() < 0.5)  # all-match implies single-match
        records.append(rec(t, 5.0, "OMP-DFT", a, s))
    g = detection_probability(records)[(5.0, "OMP-DFT")]
    assert g.p_all <= g.p_single


def test_detection_probability_rejects_empty():
    with pytest.raises(ValueError):
        detection_probability([])
