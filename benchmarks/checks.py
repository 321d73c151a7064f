"""Output checks for benchmark runs: invariants on any seed, and exact
agreement with committed reference records on the reference seed."""

import csv
import hashlib
import math

import numpy as np


def record_row(r):
    """One TrialRecord as a JSON-friendly list."""
    return [r.trial, r.snr_db, r.method, bool(r.all_match), bool(r.single_match),
            [int(e) for e in r.tx_errors], [int(e) for e in r.rx_errors]]


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_indices(codebook):
    return hashlib.sha256(np.ascontiguousarray(codebook.phase_indices, dtype="<i8")
                          .tobytes()).hexdigest()


def cells(cfg):
    """Keys (trial, snr, method) of every cell a config runs."""
    return {(t, float(s), m) for t in range(cfg.n_trials) for s in cfg.snr_db for m in cfg.methods}


def digests(paths, designed):
    """Digests of summary.csv, errors.csv and the designed codebook's
    phase indices (None when no designed codebook was built)."""
    return {"summary_sha256": sha256_file(paths[0]), "errors_sha256": sha256_file(paths[1]),
            "designed_phase_indices_sha256":
                sha256_indices(designed) if designed is not None else None}


def check_invariants(cfg, records, stats, summary_path, errors_path):
    """Returns (failed cell keys, messages) for one run on any seed.

    A cell fails if it is missing, duplicated or malformed. A fault in the
    aggregates or the CSV files fails every cell of the run.
    """
    expected = cells(cfg)
    failed, messages = set(), []
    seen, pairs_per_trial = set(), {}
    for r in records:
        key = (r.trial, r.snr_db, r.method)
        n = len(r.tx_errors)
        bad = (key not in expected or key in seen
               or not isinstance(r.all_match, bool) or not isinstance(r.single_match, bool)
               or (r.all_match and not r.single_match)
               or n != len(r.rx_errors) or not 1 <= n <= cfg.effective_sparsity
               or pairs_per_trial.setdefault(r.trial, n) != n)
        if bad:
            failed.add(key)
            messages.append("invalid record %r" % (r,))
        seen.add(key)
    for key in expected - seen:
        failed.add(key)
        messages.append("missing cell %r" % (key,))

    groups = {(float(s), m) for s in cfg.snr_db for m in cfg.methods}
    group_ok = set(stats) == groups and all(
        stats[k].n_trials == cfg.n_trials
        and all(0.0 <= p <= 1.0 for p in (stats[k].p_all, stats[k].p_single))
        and all(math.isfinite(e) and e >= 0.0 for e in (stats[k].p_all_se, stats[k].p_single_se))
        for k in groups & set(stats))
    if not group_ok:
        messages.append("aggregates do not cover every (snr, method) group with n_trials")

    with open(summary_path, encoding="utf-8", newline="") as f:
        summary = list(csv.DictReader(f))
    with open(errors_path, encoding="utf-8", newline="") as f:
        hist = list(csv.DictReader(f))
    files_ok = (len(summary) == len(groups)
                and all(int(row["n_trials"]) == cfg.n_trials for row in summary)
                and sum(int(row["count"]) for row in hist)
                == sum(len(r.tx_errors) + len(r.rx_errors) for r in records))
    if not files_ok:
        messages.append("summary.csv or errors.csv disagrees with the records")
    if not (group_ok and files_ok):
        failed = set(expected)
    return failed, messages


def compare_reference(ref, records):
    """Keys of records that differ from, or are absent in, the reference."""
    ref_rows = {(row[0], row[1], row[2]): row for row in ref["records"]}
    changed = set()
    for r in records:
        key = (r.trial, r.snr_db, r.method)
        if ref_rows.get(key) != record_row(r):
            changed.add(key)
    return changed


class Verifier:
    """Checks each call as soon as it returns, before the next call
    overwrites its CSV files, and tallies cells attempted and failed.

    Every call is checked for invariants. Calls at the reference seed are
    also compared with the committed reference records, and at full size
    with the committed CSV digests. Calls with one seed must all return
    the same records.
    """

    def __init__(self, ref, full_size):
        self.ref = ref
        self.full_size = full_size
        self.attempted = self.failed = self.records_changed = 0
        self.messages = []
        self.first_rows = {}  # master seed -> records of its first call

    def check(self, cfg, call):
        """Check one call; a call that carries the designed codebook it
        built (the reference call) also has that codebook checked."""
        bad, msgs = check_invariants(cfg, call["records"], call["stats"], *call["paths"])
        self.messages += msgs
        everything = cells(cfg)
        if cfg.master_seed == self.ref["seed"]:
            changed = compare_reference(self.ref, call["records"])
            self.records_changed += len(changed)
            bad |= changed
            found = digests(call["paths"], call.get("designed"))
            keys = (["summary_sha256", "errors_sha256"] if self.full_size else []) + (
                ["designed_phase_indices_sha256"] if "designed" in call else [])
            for key in keys:
                if found[key] != self.ref[key]:
                    self.messages.append("%s is %s, reference %s"
                                         % (key, found[key], self.ref[key]))
                    bad = set(everything)
        rows = [record_row(r) for r in call["records"]]
        if rows != self.first_rows.setdefault(cfg.master_seed, rows):
            self.messages.append("records differ between calls with seed %d" % cfg.master_seed)
            bad = set(everything)
        self.attempted += len(everything)
        self.failed += len(bad)
