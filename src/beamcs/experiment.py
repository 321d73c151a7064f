"""Monte Carlo detection-probability experiments and their CLI.

Trials are independent work units. All randomness is counter-seeded from
the master seed: the channel of trial t from (master, 1, t), the noise of
each (trial, snr, method) cell from (master, 2, t, snr_key, method_id),
per-trial random codebooks from (master, 3, t, method_id) so one trial
keeps its codebook across SNR points, and the designed-codebook build
from (master, 4, n_ant_bs). Results are therefore byte-identical for any
worker count: channels are shared across SNR points and methods (paired
comparison), and aggregation sorts by (trial, snr, method) before any
output is written. The noiseless sweep of each (trial, method) is built
once and shared across SNR points; each SNR point only adds its noise,
and the detector reads the SNR points of one (trial, method) together.

Every detector is told n_pairs = len(truth), the number of distinct true
beam pairs of the trial, and reports that many pairs. p_all and p_single
therefore describe a receiver that knows the true pair count; no method
uses a stopping rule of its own.
"""

import argparse
import dataclasses
import math
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codebooks
from .arrays import ArrayGeometry, build_grid
from .channel import ChannelParams, sample_channel
from .codebooks import (designed_codebook, dft_codebook, group_columns,
                        multi_beam_dft_codebook, random_codebook)
from .detect import beam_index_errors, cs_detect, exhaustive_search, true_pairs
from .metrics import TrialRecord, all_beam_match, detection_probability, single_beam_match
from .sweep import SweepConfig, acquire, build_sensing_operator, sweep_signal

METHOD_ES = "ES"
METHOD_OMP_RANDOM = "OMP-Random"
METHOD_OMP_DFT = "OMP-DFT"
METHOD_OMP_MULTIBEAM = "OMP-MultiBeam"
METHOD_OMP_DESIGNED = "OMP-Designed"
METHODS = (METHOD_ES, METHOD_OMP_RANDOM, METHOD_OMP_DFT,
           METHOD_OMP_MULTIBEAM, METHOD_OMP_DESIGNED)
_METHOD_ID = {name: i for i, name in enumerate(METHODS)}

_TAG_CHANNEL, _TAG_NOISE, _TAG_CODEBOOK, _TAG_DESIGN = 1, 2, 3, 4
# headroom for the noise tail of an energy summed over the pilots
_ENERGY_HEADROOM = 1e3


@dataclass(frozen=True)
class ExperimentConfig:
    n_ant_bs: int = 64
    n_ant_ue: int = 8
    n_rf_ue: int = 4
    phase_bits: int = 6
    n_tx_entries: int = 64
    n_rx_entries: int = 2
    tx_grid_mult: int = 3
    rx_grid_mult: int = 3
    n_fft: int = 4096
    sample_rate: float = 491.52e6
    n_pilots: int = 10
    n_clusters: int = 2
    n_rays: int = 3
    delay_max: float = 200e-9
    ray_angle_std: float = math.radians(2.0)
    sparsity: int = 0  # 0 means n_clusters * n_rays
    snr_db: tuple = tuple(float(v) for v in range(-30, 35, 5))
    n_trials: int = 500
    methods: tuple = (METHOD_ES, METHOD_OMP_RANDOM, METHOD_OMP_DFT)
    master_seed: int = 12345
    designed_sweeps: int = 200
    out_dir: str = "results"
    workers: int = 1

    @property
    def n_tx_beams(self) -> int:
        return self.n_ant_bs

    @property
    def n_rx_beams(self) -> int:
        return self.n_rx_entries * self.n_rf_ue

    @property
    def effective_sparsity(self) -> int:
        return self.sparsity if self.sparsity else self.n_clusters * self.n_rays

    @property
    def channel_params(self) -> ChannelParams:
        return ChannelParams(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(ChannelParams)})

    @property
    def sweep(self) -> SweepConfig:
        return SweepConfig(n_pilots=self.n_pilots, n_fft=self.n_fft, sample_rate=self.sample_rate)

    def validate(self) -> None:
        for m in self.methods:
            if m not in METHODS:
                raise ValueError("unknown method %r (choose from %s)" % (m, ", ".join(METHODS)))
        if not self.methods:
            raise ValueError("methods must not be empty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate method in methods: %s" % ", ".join(self.methods))
        for name in ("n_trials", "n_ant_bs", "n_ant_ue", "n_tx_entries", "n_rx_entries",
                     "n_rf_ue", "n_fft", "n_pilots", "phase_bits", "tx_grid_mult",
                     "rx_grid_mult"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.phase_bits > 16:  # the phase table holds 2**phase_bits entries
            raise ValueError("phase_bits must not exceed 16")
        for name in ("n_ant_bs", "n_ant_ue"):
            try:
                codebooks._phasor_table(self.phase_bits, getattr(self, name))
            except RuntimeError:
                raise ValueError("phase_bits=%d has no exact-modulus phasor table at %s=%d"
                                 % (self.phase_bits, name, getattr(self, name))) from None
        self.sweep  # its constructor checks the pilot block
        self.channel_params  # its constructor checks the channel fields
        multi_beam = [m for m in self.methods if m in (METHOD_OMP_MULTIBEAM, METHOD_OMP_DESIGNED)]
        if multi_beam and self.n_ant_bs % self.n_tx_entries:
            raise ValueError("%s requires n_ant_bs to be a multiple of n_tx_entries"
                             % multi_beam[0])
        if self.n_rx_beams > self.n_ant_ue:
            raise ValueError("n_rx_entries * n_rf_ue must not exceed n_ant_ue")
        if {METHOD_ES, METHOD_OMP_DFT} & set(self.methods) and self.n_tx_entries > self.n_ant_bs:
            raise ValueError("ES and OMP-DFT use a DFT tx codebook: n_tx_entries ≤ n_ant_bs")
        if METHOD_ES in self.methods and self.n_tx_entries < self.n_tx_beams:
            raise ValueError("exhaustive search requires one sweep entry per transmit beam: "
                             "n_tx_entries ≥ n_ant_bs")
        omp_methods = [m for m in self.methods if m != METHOD_ES]
        if omp_methods and (self.n_ant_ue * self.rx_grid_mult) % self.n_rx_beams:
            raise ValueError("%s requires n_ant_ue * rx_grid_mult to be a multiple of "
                             "n_rx_entries * n_rf_ue" % omp_methods[0])
        if self.designed_sweeps < 0:
            raise ValueError("designed_sweeps must be non-negative")
        n_bins = self.n_ant_bs * self.tx_grid_mult * self.n_ant_ue * self.rx_grid_mult
        if not 1 <= self.effective_sparsity <= n_bins:
            raise ValueError("sparsity must lie in [1, %d] (0 means n_clusters * n_rays)"
                             % n_bins)
        if not self.snr_db:
            raise ValueError("snr_db must not be empty")
        if not all(math.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db points must be finite")
        # below this the pilot-summed ES energy, about noise_var * n_pilots,
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


def _seed(master: int, *parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master),) + tuple(int(p) & 0xFFFFFFFF for p in parts))


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1000.0))


def _noise_var(snr_db: float) -> float:
    """Per-antenna noise variance of an SNR point."""
    return 10.0 ** (-snr_db / 10.0)


def _build_assets(cfg: ExperimentConfig) -> dict:
    """Everything shared across trials: grids, combiners, static codebooks
    and their operators."""
    bs = ArrayGeometry(cfg.n_ant_bs)
    ue = ArrayGeometry(cfg.n_ant_ue)
    tx_grid = build_grid(bs, cfg.tx_grid_mult)
    rx_grid = build_grid(ue, cfg.rx_grid_mult)
    rx_dft = group_columns(dft_codebook(cfg.n_ant_ue, cfg.n_rx_beams, cfg.phase_bits),
                           cfg.n_rf_ue)
    tx_dft = (dft_codebook(cfg.n_ant_bs, cfg.n_tx_entries, cfg.phase_bits)
              if {METHOD_ES, METHOD_OMP_DFT} & set(cfg.methods) else None)
    assets = {"bs": bs, "ue": ue, "tx_grid": tx_grid, "rx_grid": rx_grid,
              "rx_dft": rx_dft, "tx_cb": {}, "op": {}}
    for method in cfg.methods:
        if method == METHOD_OMP_RANDOM:
            continue
        if method in (METHOD_ES, METHOD_OMP_DFT):
            tx_cb = tx_dft
        elif method == METHOD_OMP_MULTIBEAM:
            tx_cb = multi_beam_dft_codebook(cfg.n_ant_bs, cfg.n_tx_entries, cfg.phase_bits)
        else:
            rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_DESIGN, cfg.n_ant_bs))
            tx_cb = designed_codebook(cfg.n_ant_bs, tx_grid, cfg.n_tx_entries,
                                      cfg.phase_bits, rng, sweeps=cfg.designed_sweeps)
        assets["tx_cb"][method] = tx_cb
        if method != METHOD_ES:
            assets["op"][method] = build_sensing_operator(tx_cb, rx_dft, tx_grid, rx_grid)
    return assets


def _run_trial(t: int, cfg: ExperimentConfig, assets: dict) -> list:
    ch_rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_CHANNEL, t))
    ch = sample_channel(cfg.channel_params, assets["bs"], assets["ue"], ch_rng)
    truth = true_pairs(ch, cfg.n_tx_beams, cfg.n_rx_beams)
    n_pairs = len(truth)
    records = []
    for method in cfg.methods:
        mid = _METHOD_ID[method]
        if method == METHOD_OMP_RANDOM:
            cb_rng = np.random.default_rng(_seed(cfg.master_seed, _TAG_CODEBOOK, t, mid))
            tx_cb = random_codebook(cfg.n_ant_bs, cfg.n_tx_entries, 1,
                                    cfg.phase_bits, cb_rng)
            rx_cb = random_codebook(cfg.n_ant_ue, cfg.n_rx_entries, cfg.n_rf_ue,
                                    cfg.phase_bits, cb_rng)
            op = build_sensing_operator(tx_cb, rx_cb, assets["tx_grid"], assets["rx_grid"])
        else:
            tx_cb = assets["tx_cb"][method]
            rx_cb = assets["rx_dft"]
            op = assets["op"].get(method)
        signal = sweep_signal(ch, tx_cb, rx_cb, cfg.sweep)
        # one measurement per SNR point, drawn as the detector reads it
        ys = (acquire(signal, rx_cb, _noise_var(snr), np.random.default_rng(
                  _seed(cfg.master_seed, _TAG_NOISE, t, _snr_key(snr), mid)))
              for snr in cfg.snr_db)
        if method == METHOD_ES:
            outcomes = [exhaustive_search(y, n_pairs) for y in ys]
        else:
            outcomes = cs_detect(op, ys, cfg.effective_sparsity,
                                 cfg.n_tx_beams, cfg.n_rx_beams, n_pairs)
        for snr, out in zip(cfg.snr_db, outcomes):
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
    if cfg.workers == 1:
        per_trial = [_run_trial(t, cfg, assets) for t in range(cfg.n_trials)]
    else:
        chunk = max(1, cfg.n_trials // (cfg.workers * 4))
        with ProcessPoolExecutor(max_workers=cfg.workers, initializer=_worker_init,
                                 initargs=(cfg, assets)) as pool:
            per_trial = list(pool.map(_worker_task, range(cfg.n_trials), chunksize=chunk))
    records = [r for chunk_records in per_trial for r in chunk_records]
    records.sort(key=lambda r: (r.trial, r.snr_db, _METHOD_ID[r.method]))
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

    keys = sorted(stats, key=lambda k: (k[0], _METHOD_ID[k[1]]))
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
        for snr, method, side in sorted(hists, key=lambda k: (k[0], _METHOD_ID[k[1]], k[2])):
            counter = hists[(snr, method, side)]
            for err in sorted(counter):
                f.write("%s,%s,%s,%d,%d\n" % (repr(float(snr)), method, side,
                                              err, counter[err]))
    return summary, errors


def _parse_snr_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("snr range must be start:step:stop")
    start, step, stop = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ValueError("snr range must be finite")
    if step <= 0:
        raise ValueError("snr step must be positive")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    if n < 1:
        raise ValueError("empty snr range")
    return tuple(start + step * i for i in range(n))


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name: str, value: str):
    if name not in _FIELDS:
        raise ValueError("unknown config key")
    ftype = _FIELDS[name].type
    if name == "snr_db":
        if ":" in value:
            return _parse_snr_range(value)
        return tuple(float(v) for v in value.split(","))
    if name == "methods":
        return tuple(v.strip() for v in value.split(","))
    if ftype is int:
        return int(value)
    if ftype is float:
        return float(value)
    return value


def parse_config_file(path) -> dict:
    """Flat key=value text; blank lines and # comments ignored; keys must
    be ExperimentConfig field names."""
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError("line %d is not key=value: %r" % (lineno, raw))
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            overrides[key] = _coerce(key, value)
        except ValueError as exc:
            raise ValueError("line %d, key %r: %s" % (lineno, key, exc)) from None
    return overrides


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamcs",
        description="Monte Carlo beam-pair detection probability experiment")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials")
    parser.add_argument("--snr", help="SNR grid in dB as start:step:stop")
    parser.add_argument("--methods", help="comma-separated method names")
    parser.add_argument("--out", help="output directory for the CSV files")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    args = parser.parse_args(argv)
    try:
        overrides = parse_config_file(args.config) if args.config else {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.trials is not None:
            overrides["n_trials"] = args.trials
        if args.snr is not None:
            overrides["snr_db"] = _parse_snr_range(args.snr)
        if args.methods is not None:
            overrides["methods"] = tuple(m.strip() for m in args.methods.split(","))
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.workers is not None:
            overrides["workers"] = args.workers
        cfg = ExperimentConfig(**overrides)
        records, stats = run_experiment(cfg)
        summary, errors = emit_csv(records, stats, cfg.out_dir)
    except Exception as exc:  # single-line diagnostics, nonzero exit
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("wrote %s and %s" % (summary, errors))
    return 0
