"""Monte Carlo detection-probability experiments and their CLI.

Each method is a row of one table: the tx codebook kind of the sweep it
reads and its detector. validate() keys every rule on a requested row's
sweep kind or detector, never on a name.

Trials are independent work units. All randomness is counter-seeded from
the master seed: the channel of trial t from (master, 1, t), the noise of
each (trial, snr, method) cell from (master, 2, t, snr_key, method_id),
per-trial random codebooks from (master, 3, t, sweep_id) so one trial
keeps its codebook across SNR points, and the designed-codebook build
from (master, 4, n_ant_bs). A method's id is its row's position and a
sweep's id that of the first row reading it, so rows are only appended.
Results are byte-identical for any worker count: channels are shared
across SNR points and methods (paired comparison), and aggregation sorts
by (trial, snr, method) before any output is written. The channel's
pilot response is built once per trial and read by each of its sweeps.
The noiseless sweep of each (trial, sweep) is built once for all SNR
points and every method that reads it; each SNR point only adds its
noise, and each method reads all its SNR points together.

Every detector is told n_pairs = len(truth), the number of distinct true
beam pairs of the trial, and reports that many pairs. p_all and p_single
therefore describe a receiver that knows the true pair count; no method
uses a stopping rule of its own.
"""

import argparse
import dataclasses
import math
import numbers
import os
import sys
import typing
from collections import Counter
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from . import codebooks
from .arrays import build_grid
from .channel import DELAY_MAX, N_CLUSTERS, N_RAYS, check_delay_max, sample_channel
from .codebooks import (KIND_DESIGNED, KIND_DFT, KIND_MULTI_BEAM, KIND_RANDOM,
                        designed_codebook, dft_codebook, group_columns,
                        multi_beam_dft_codebook, random_codebook)
from .detect import beam_index_errors, cs_detect, exhaustive_search, true_pairs
from .metrics import TrialRecord, all_beam_match, detection_probability, single_beam_match
from .sweep import acquire, build_sensing_operator, pilot_response, pilots, sweep_signal


def _exhaustive(op, ys, cfg, n_pairs) -> list:
    return [exhaustive_search(y, n_pairs) for y in ys]


def _compressed(op, ys, cfg, n_pairs) -> list:
    return cs_detect(op, ys, cfg.effective_sparsity, cfg.n_tx_beams, cfg.n_rx_beams, n_pairs)


class _Method(typing.NamedTuple):
    sweep: str  # the tx codebook kind of the sweep it reads
    detect: Callable  # (op, ys, cfg, n_pairs) -> one DetectionOutcome per y of ys


# append only: the ids that seed noise and codebooks are row positions
_METHODS = {"ES": _Method(KIND_DFT, _exhaustive),
            "OMP-Random": _Method(KIND_RANDOM, _compressed),
            "OMP-DFT": _Method(KIND_DFT, _compressed),
            "OMP-MultiBeam": _Method(KIND_MULTI_BEAM, _compressed),
            "OMP-Designed": _Method(KIND_DESIGNED, _compressed)}
METHODS = tuple(_METHODS)


def _method_id(method: str) -> int:
    return list(_METHODS).index(method)


def _sweep_id(kind: str) -> int:
    return [row.sweep for row in _METHODS.values()].index(kind)


_TAG_CHANNEL, _TAG_NOISE, _TAG_CODEBOOK, _TAG_DESIGN = 1, 2, 3, 4
# OMP's angle grids oversample both arrays this many times
_GRID_MULT = 3
# headroom for the noise tail of an energy summed over the pilots
_ENERGY_HEADROOM = 1e3


# per field annotation, how validate() names it and the types it admits, in
# every item for a tuple; bool is an int in Python but no count or number here
_FIELD_TYPES = {int: ("an integer", numbers.Integral), float: ("a real number", numbers.Real),
                tuple[float, ...]: ("a sequence of real numbers", numbers.Real),
                tuple[str, ...]: ("a sequence of strings", str),
                str | os.PathLike: ("a str or a path", (str, os.PathLike))}


@dataclass(frozen=True)
class ExperimentConfig:
    n_ant_bs: int = 64
    n_ant_ue: int = 8
    n_rf_ue: int = 4
    phase_bits: int = 6
    n_tx_entries: int = 64
    n_rx_entries: int = 2
    n_pilots: int = 10
    delay_max: float = DELAY_MAX
    snr_db: tuple[float, ...] = tuple(float(v) for v in range(-30, 35, 5))
    n_trials: int = 500
    methods: tuple[str, ...] = METHODS[:3]
    master_seed: int = 12345
    designed_sweeps: int = 200
    out_dir: str | os.PathLike = "results"
    workers: int = 1

    @property
    def n_tx_beams(self) -> int:
        return self.n_ant_bs

    @property
    def n_rx_beams(self) -> int:
        return self.n_rx_entries * self.n_rf_ue

    @property
    def effective_sparsity(self) -> int:
        """OMP's pick count, one per channel path; the benchmark checks reports against it."""
        return N_CLUSTERS * N_RAYS

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            what, admits = _FIELD_TYPES[f.type]
            items = getattr(self, f.name)
            if typing.get_origin(f.type) is not tuple:
                items = [items]
            if (isinstance(items, str) or not isinstance(items, Sequence)
                    or not all(isinstance(v, admits) and not isinstance(v, bool) for v in items)):
                raise ValueError("%s must be %s" % (f.name, what))
        for m in self.methods:
            if m not in _METHODS:
                raise ValueError("unknown method %r (choose from %s)" % (m, ", ".join(_METHODS)))
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method in methods: %s" % ", ".join(self.methods))
        for name in ("n_trials", "n_ant_bs", "n_ant_ue", "n_tx_entries", "n_rx_entries",
                     "n_rf_ue", "phase_bits"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        for name in ("n_ant_bs", "n_ant_ue"):
            try:
                codebooks._phasor_table(self.phase_bits, getattr(self, name))
            except RuntimeError:
                raise ValueError("phase_bits=%d has no exact-modulus phasor table at %s=%d"
                                 % (self.phase_bits, name, getattr(self, name))) from None
        pilots(self.n_pilots)  # checks the pilot count
        check_delay_max(self.delay_max)

        def first(declares):  # the first requested method whose row declares it, or None
            return next((m for m in self.methods if declares(_METHODS[m])), None)
        multi_beam = first(lambda row: row.sweep in (KIND_MULTI_BEAM, KIND_DESIGNED))
        if multi_beam and self.n_ant_bs % self.n_tx_entries:
            raise ValueError("%s requires n_ant_bs to be a multiple of n_tx_entries" % multi_beam)
        if self.n_rx_beams > self.n_ant_ue:
            raise ValueError("n_rx_entries * n_rf_ue must not exceed n_ant_ue")
        dft_tx = first(lambda row: row.sweep == KIND_DFT)
        if dft_tx and self.n_tx_entries > self.n_ant_bs:
            raise ValueError("%s uses a DFT tx codebook: n_tx_entries ≤ n_ant_bs" % dft_tx)
        if first(lambda row: row.detect is _exhaustive) and self.n_tx_entries < self.n_tx_beams:
            raise ValueError("exhaustive search requires one sweep entry per transmit beam: "
                             "n_tx_entries ≥ n_ant_bs")
        dft_rx = first(lambda row: row.sweep != KIND_RANDOM)
        if dft_rx and self.n_rx_beams != self.n_ant_ue:  # else DFT beams miss the scored ones
            raise ValueError("%s combines with DFT beams, which requires n_rx_entries * n_rf_ue "
                             "= n_ant_ue" % dft_rx)
        # after the rule above, only a random combiner can have n_rx_beams != n_ant_ue
        compressed = first(lambda row: row.detect is _compressed)
        if compressed and (_GRID_MULT * self.n_ant_ue) % self.n_rx_beams:
            raise ValueError("%s requires %d * n_ant_ue to be a multiple of "
                             "n_rx_entries * n_rf_ue" % (compressed, _GRID_MULT))
        if self.designed_sweeps < 0:
            raise ValueError("designed_sweeps must be non-negative")
        if not self.snr_db:
            raise ValueError("snr_db must not be empty")
        # _snr_key rounds 1000 * float(s) to an integer, so that must be finite too
        if not all(math.isfinite(float(s) * 1000.0) for s in self.snr_db):
            raise ValueError("snr_db points must be finite, also in 0.001 dB units")
        # below this the pilot-summed exhaustive-search energy, about noise_var * n_pilots,
        # comes within _ENERGY_HEADROOM of the float range
        floor = -10.0 * math.log10(sys.float_info.max / (self.n_pilots * _ENERGY_HEADROOM))
        for s in self.snr_db:
            if s < floor:
                raise ValueError("snr_db point %r is below %r dB, where the noise energy of "
                                 "n_pilots=%d pilots nears the float range"
                                 % (s, math.ceil(floor * 1000.0) / 1000.0, self.n_pilots))
        if len({_snr_key(s) for s in self.snr_db}) != len(self.snr_db):
            raise ValueError("snr_db points must differ after rounding to 0.001 dB")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        # emit_csv makes out_dir and its missing parents only after the run
        out = Path(self.out_dir)
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ValueError("out_dir: %s exists and is not a directory" % existing)


def _seed(master: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(p) & 0xFFFFFFFF for p in parts))


def _snr_key(snr_db: float) -> int:
    return int(round(float(snr_db) * 1000.0))


def _noise_var(snr_db: float) -> float:
    """Per-antenna noise variance of an SNR point."""
    return 10.0 ** (-snr_db / 10.0)


def _build_assets(cfg: ExperimentConfig) -> dict:
    """Everything shared across trials: grids, combiners, and each static
    sweep's tx codebook and operator."""
    tx_grid = build_grid(cfg.n_ant_bs, _GRID_MULT)
    rx_grid = build_grid(cfg.n_ant_ue, _GRID_MULT)
    assets = {"tx_grid": tx_grid, "rx_grid": rx_grid, "sweeps": {}}
    # random sweeps draw both codebooks per trial; every other sweep combines with DFT beams
    static = [k for k in dict.fromkeys(_METHODS[m].sweep for m in cfg.methods) if k != KIND_RANDOM]
    if static:
        rx_dft = assets["rx_dft"] = group_columns(
            dft_codebook(cfg.n_ant_ue, cfg.n_rx_beams, cfg.phase_bits), cfg.n_rf_ue)
    for kind in static:
        if kind == KIND_DFT:
            tx_cb = dft_codebook(cfg.n_ant_bs, cfg.n_tx_entries, cfg.phase_bits)
        elif kind == KIND_MULTI_BEAM:
            tx_cb = multi_beam_dft_codebook(cfg.n_ant_bs, cfg.n_tx_entries, cfg.phase_bits)
        else:
            rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_DESIGN, cfg.n_ant_bs))
            tx_cb = designed_codebook(cfg.n_ant_bs, tx_grid, cfg.n_tx_entries,
                                      cfg.phase_bits, rng, sweeps=cfg.designed_sweeps)
        assets["sweeps"][kind] = (tx_cb, build_sensing_operator(tx_cb, rx_dft, tx_grid, rx_grid))
    return assets


def _run_trial(t: int, cfg: ExperimentConfig, assets: dict) -> list:
    ch_rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_CHANNEL, t))
    ch = sample_channel(cfg.n_ant_bs, cfg.n_ant_ue, ch_rng, cfg.delay_max)
    truth = true_pairs(ch, cfg.n_tx_beams, cfg.n_rx_beams)
    n_pairs = len(truth)
    h = pilot_response(ch, cfg.n_pilots)
    records = []
    for kind in dict.fromkeys(_METHODS[m].sweep for m in cfg.methods):
        if kind == KIND_RANDOM:
            cb_rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_CODEBOOK, t,
                                                 _sweep_id(kind)))
            tx_cb = random_codebook(cfg.n_ant_bs, cfg.n_tx_entries, 1, cfg.phase_bits, cb_rng)
            rx_cb = random_codebook(cfg.n_ant_ue, cfg.n_rx_entries, cfg.n_rf_ue,
                                    cfg.phase_bits, cb_rng)
            op = build_sensing_operator(tx_cb, rx_cb, assets["tx_grid"], assets["rx_grid"])
        else:
            (tx_cb, op), rx_cb = assets["sweeps"][kind], assets["rx_dft"]
        signal = sweep_signal(h, tx_cb, rx_cb)
        for method in (m for m in cfg.methods if _METHODS[m].sweep == kind):
            # one measurement per SNR point, drawn as the detector reads it
            ys = (acquire(signal, rx_cb, _noise_var(snr), np.random.default_rng(
                      _seed(cfg.master_seed, _TAG_NOISE, t, _snr_key(snr), _method_id(method))))
                  for snr in cfg.snr_db)
            for snr, out in zip(cfg.snr_db, _METHODS[method].detect(op, ys, cfg, n_pairs)):
                tx_err, rx_err = beam_index_errors(out.estimated, truth,
                                                   cfg.n_tx_beams, cfg.n_rx_beams)
                records.append(TrialRecord(t, float(snr), method,
                                           all_beam_match(out.estimated, truth),
                                           single_beam_match(out.estimated, truth),
                                           tuple(tx_err), tuple(rx_err)))
    return records


_WORKER_STATE: dict = {}


def _worker_init(cfg: ExperimentConfig, assets: dict) -> None:
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["assets"] = assets


def _worker_task(t: int) -> list:
    return _run_trial(t, _WORKER_STATE["cfg"], _WORKER_STATE["assets"])


def run_experiment(cfg: ExperimentConfig):
    """Returns (records, stats): the flat trial records sorted by
    (trial, snr, method) and their per-(snr, method) aggregates."""
    cfg.validate()
    assets = _build_assets(cfg)
    workers = min(cfg.workers, cfg.n_trials)  # a pool starts all its workers at once
    if workers == 1:
        per_trial = [_run_trial(t, cfg, assets) for t in range(cfg.n_trials)]
    else:
        chunk = max(1, cfg.n_trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(cfg, assets)) as pool:
            per_trial = list(pool.map(_worker_task, range(cfg.n_trials), chunksize=chunk))
    records = [r for chunk_records in per_trial for r in chunk_records]
    records.sort(key=lambda r: (r.trial, r.snr_db, _method_id(r.method)))
    return records, detection_probability(records)


def emit_csv(records, stats, out_dir) -> tuple:
    """Write summary.csv and errors.csv under out_dir, returning the paths.

    Floats are written with repr so a parse round-trips exactly; newlines
    are LF regardless of platform.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = out / "summary.csv"
    errors = out / "errors.csv"

    keys = sorted(stats, key=lambda k: (k[0], _method_id(k[1])))
    with open(summary, "w", encoding="utf-8", newline="\n") as f:
        f.write("snr_db,method,n_trials,p_all,p_all_se,p_single,p_single_se\n")
        for snr, method in keys:
            s = stats[(snr, method)]
            f.write("%s,%s,%d,%s,%s,%s,%s\n" % (repr(float(snr)), method, s.n_trials,
                                                repr(s.p_all), repr(s.p_all_se),
                                                repr(s.p_single), repr(s.p_single_se)))

    hists: dict = {}
    for r in records:
        for side, errs in (("tx", r.tx_errors), ("rx", r.rx_errors)):
            hists.setdefault((r.snr_db, r.method, side), Counter()).update(errs)
    with open(errors, "w", encoding="utf-8", newline="\n") as f:
        f.write("snr_db,method,side,error,count\n")
        for snr, method, side in sorted(hists, key=lambda k: (k[0], _method_id(k[1]), k[2])):
            counter = hists[(snr, method, side)]
            for err in sorted(counter):
                f.write("%s,%s,%s,%d,%d\n" % (repr(float(snr)), method, side,
                                              err, counter[err]))
    return summary, errors


def _parse_snr_range(text: str) -> tuple:
    """start:step:stop; point i is start + i * step in decimal arithmetic,
    rounded once to a float, so it is the value written."""
    try:
        start, step, stop = map(Decimal, text.split(":"))
    except (ValueError, InvalidOperation):  # not three parts, or not numbers
        raise ValueError("snr range must be start:step:stop") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValueError("snr range must be finite")
    if step <= 0:
        raise ValueError("snr step must be positive")
    if stop < start:
        raise ValueError("empty snr range")
    try:
        n = int((stop - start) // step) + 1
    except InvalidOperation:  # the exact quotient has more digits than the context
        raise ValueError("snr range has more than 10**28 points") from None
    # each point's key (_snr_key) is an integer from start's key to stop's, and
    # those lie within 2 of 1000 * start and 1000 * stop wherever floats are
    # finer than 0.001 dB; so past this many points two must share a key
    if n > (stop - start) * 1000 + 6:
        raise ValueError("snr_db points must differ after rounding to 0.001 dB")
    return tuple(float(start + step * i) for i in range(n))


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, value: str):
    if name not in _FIELDS:
        raise ValueError("unknown config key")
    ftype = _FIELDS[name].type
    if name == "snr_db" and ":" in value:
        return _parse_snr_range(value)
    if typing.get_origin(ftype) is tuple:
        return tuple(typing.get_args(ftype)[0](v.strip()) for v in value.split(","))
    return ftype(value) if ftype in (int, float) else value


def parse_config_file(path) -> dict:
    """Flat key=value text; keys must be ExperimentConfig field names, each
    given once. A # starts a comment anywhere on a line, and blank lines
    are ignored."""
    overrides, set_on = {}, {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d is not key=value: %r" % (lineno, raw))
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = _coerce(key, value)
            if key in set_on:
                raise ValueError("already set on line %d" % set_on[key])
        except ValueError as exc:
            raise ValueError("line %d, key %r: %s" % (lineno, key, exc)) from None
        overrides[key], set_on[key] = value, lineno
    return overrides


# each flag is a shorthand for one config key, whose value it takes as a config file does
_FLAGS = {"--seed": ("master_seed", "master seed"),
          "--trials": ("n_trials", "Monte Carlo trials"),
          "--snr": ("snr_db", "SNR grid in dB, as start:step:stop or a comma-separated list"),
          "--methods": ("methods", "comma-separated method names"),
          "--out": ("out_dir", "output directory for the CSV files"),
          "--workers": ("workers", "parallel worker processes")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamcs", argument_default=argparse.SUPPRESS,  # so only given flags are read
        description="Monte Carlo beam-pair detection probability experiment")
    parser.add_argument("--config", help="key=value config file")
    for flag, (key, text) in _FLAGS.items():
        parser.add_argument(flag, dest=key, help=text)
    flags = vars(parser.parse_args(argv))
    try:
        overrides = parse_config_file(flags.pop("config")) if "config" in flags else {}
        for key, value in flags.items():
            try:
                overrides[key] = _coerce(key, value)
            except ValueError as exc:
                raise ValueError("%s: %s" % (key, exc)) from None
        cfg = ExperimentConfig(**overrides)
        records, stats = run_experiment(cfg)
        summary, errors = emit_csv(records, stats, cfg.out_dir)
    except Exception as exc:  # single-line diagnostics, nonzero exit
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("wrote %s and %s" % (summary, errors))
    return 0
