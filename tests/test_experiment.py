import hashlib
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import beamcs.detect
import beamcs.experiment
import beamcs.sweep
from beamcs import codebooks
from beamcs.experiment import (METHODS, ExperimentConfig, _build_assets, _method_id,
                               _parse_snr_range, _sweep_id, emit_csv, main, parse_config_file,
                               run_experiment)
from beamcs.sweep import build_sensing_operator, parallel_columns

# small but complete: every method family, two SNR points, real channels
TINY = dict(n_ant_bs=16, n_ant_ue=4, n_rf_ue=2, n_tx_entries=16, n_rx_entries=2,
            snr_db=(-5.0, 10.0), n_trials=6,
            methods=("ES", "OMP-Random", "OMP-DFT"), master_seed=99)


def test_default_config_matches_nominal_setup():
    cfg = ExperimentConfig()
    assert cfg.n_ant_bs == 64 and cfg.n_ant_ue == 8
    assert cfg.n_tx_beams == 64 and cfg.n_rx_beams == 8
    assert cfg.snr_db == tuple(float(v) for v in range(-30, 35, 5))
    assert len(cfg.snr_db) == 13
    assert cfg.n_trials == 500
    assert cfg.effective_sparsity == 6
    cfg.validate()


def test_validate_rejects_bad_configs():
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(methods=("OMP",)).validate()
    with pytest.raises(ValueError, match="must not be empty"):
        ExperimentConfig(methods=()).validate()
    with pytest.raises(ValueError, match="n_trials"):
        ExperimentConfig(n_trials=0).validate()
    with pytest.raises(ValueError, match="workers"):
        ExperimentConfig(workers=0).validate()
    with pytest.raises(ValueError, match="duplicate method"):
        ExperimentConfig(methods=("ES", "ES")).validate()
    for snr_db in ((0.0, 0.0), (-20.0, -19.9996)):
        with pytest.raises(ValueError, match="snr_db points"):
            ExperimentConfig(snr_db=snr_db).validate()
    for method in ("OMP-MultiBeam", "OMP-Designed"):
        with pytest.raises(ValueError, match="multiple of n_tx_entries"):
            ExperimentConfig(n_ant_bs=96, methods=(method,)).validate()
    with pytest.raises(ValueError, match="must not exceed n_ant_ue"):
        ExperimentConfig(n_rx_entries=3).validate()
    # these built every asset and failed in dft_codebook or in trial 0's
    # cs_detect, with errors that named no field; later the error named both
    # ES and OMP-DFT, whichever of them was asked for
    for method in ("ES", "OMP-DFT"):
        with pytest.raises(ValueError, match="^%s .*n_tx_entries ≤ n_ant_bs" % method):
            ExperimentConfig(n_tx_entries=128, methods=(method,)).validate()
    # 5 receive beams do not divide the 3 * 8 receive bins, but a DFT combiner
    # breaks the combiner rule first, so only OMP-Random meets the grid rule
    with pytest.raises(ValueError, match="OMP-Random requires 3 \\* n_ant_ue"):
        ExperimentConfig(n_rx_entries=5, n_rf_ue=1, methods=("OMP-Random",)).validate()
    for fields, method in ((dict(n_rx_entries=5, n_rf_ue=1), "ES"),
                           (dict(n_rx_entries=1, n_rf_ue=5, methods=("OMP-DFT",)), "OMP-DFT")):
        with pytest.raises(ValueError, match="^%s combines with DFT beams" % method):
            ExperimentConfig(**fields).validate()
    for name in ("phase_bits", "n_pilots", "n_tx_entries", "n_rx_entries", "n_rf_ue",
                 "n_ant_bs", "n_ant_ue"):
        with pytest.raises(ValueError, match=name + " must be positive"):
            ExperimentConfig(**{name: 0}).validate()
    # only validated: a 40-bit phase table would need terabytes
    with pytest.raises(ValueError, match="phase_bits must not exceed 16"):
        ExperimentConfig(phase_bits=40).validate()
    # the pilots are a block of the 4096 subcarriers
    with pytest.raises(ValueError, match="^n_pilots must be positive and at most the FFT size "
                                         "4096$"):
        ExperimentConfig(n_pilots=4097).validate()
    ExperimentConfig(n_pilots=4096).validate()
    # the channel field, otherwise caught only in the first trial
    with pytest.raises(ValueError, match="delay_max must be non-negative"):
        ExperimentConfig(delay_max=-1e-9).validate()
    # NaN passed the `< 0` test, inf passed every test
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="delay_max must be non-negative and finite"):
            ExperimentConfig(delay_max=value).validate()
    # these failed in _snr_key with errors that named no field
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="snr_db points must be finite"):
            ExperimentConfig(snr_db=(0.0, value)).validate()
    # 1000 * 1e306 overflowed in _snr_key as "cannot convert float infinity to integer",
    # and so did 1000 * 1e36 in float32
    with pytest.raises(ValueError, match="snr_db points must be finite, also in 0.001 dB units"):
        ExperimentConfig(snr_db=(1e306,)).validate()
    ExperimentConfig(snr_db=(np.float32(1e36),)).validate()
    # 10 ** (-snr / 10) overflowed only in the first trial, after the set-up,
    # as "(34, 'Numerical result out of range')"; -3080 dB passed and overflowed
    # the ES energy
    for value in (-4000.0, -3090.0, -3080.0):
        with pytest.raises(ValueError, match="snr_db point %r is below" % value):
            ExperimentConfig(snr_db=(0.0, value)).validate()
    ExperimentConfig(snr_db=(-3042.0, 4000.0)).validate()
    with pytest.raises(ValueError, match="designed_sweeps"):
        ExperimentConfig(designed_sweeps=-1, methods=("OMP-Designed",)).validate()
    # these passed, and the run failed after set-up with "'float' object
    # cannot be interpreted as an integer"
    for name, value in (("n_trials", 2.5), ("n_rf_ue", 1.5), ("n_pilots", 10.0),
                        ("n_ant_bs", 64.0), ("workers", "2")):
        with pytest.raises(ValueError, match="^%s must be an integer$" % name):
            ExperimentConfig(**{name: value}).validate()
    ExperimentConfig(n_trials=np.int64(2), master_seed=np.uint32(7)).validate()
    # a bare float or string failed as "'float' object is not iterable" or
    # "unknown method 'E'", bools passed as counts, and a bad out_dir failed
    # in emit_csv after the whole run
    for name, value, what in (("snr_db", 10.0, "a sequence of real numbers"),
                              ("snr_db", (True,), "a sequence of real numbers"),
                              ("snr_db", (0.0, "5"), "a sequence of real numbers"),
                              ("methods", "ES", "a sequence of strings"),
                              ("methods", ("ES", 1), "a sequence of strings"),
                              ("n_trials", True, "an integer"),
                              ("delay_max", "2e-7", "a real number"),
                              ("delay_max", False, "a real number"),
                              ("out_dir", 5, "a str or a path")):
        with pytest.raises(ValueError, match="^%s must be %s$" % (name, what)):
            ExperimentConfig(**{name: value}).validate()
    ExperimentConfig(snr_db=[0.0, 5], methods=["ES"], out_dir=Path("out"),
                     delay_max=np.float32(2e-7)).validate()


def test_validate_holds_the_es_energy_below_the_float_range():
    # the floor sits where noise_var * n_pilots * 1e3 reaches the largest float;
    # -3072 dB at 10 pilots passed and ES overflowed squaring |y|
    for n_pilots, floor in ((1, -3052.547), (10, -3042.547)):
        ExperimentConfig(n_pilots=n_pilots, snr_db=(floor,)).validate()
        with pytest.raises(ValueError, match="snr_db point %r is below %r dB" % (floor - 0.001,
                                                                                  floor)):
            ExperimentConfig(n_pilots=n_pilots, snr_db=(floor - 0.001,)).validate()
    cfg = ExperimentConfig(n_trials=2, methods=("ES", "OMP-DFT"), snr_db=(-3042.547,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records, _ = run_experiment(cfg)
    assert len(records) == 4


def test_validate_rejects_an_unbuildable_phasor_table():
    # (16 bits, 200 antennas) is such a pair, with nudges of 3,693 ulps;
    # unchecked, it fails in the asset build with an error naming no field
    for field, bad_n in (("n_ant_bs", 64), ("n_ant_ue", 8)):
        def table(phase_bits, n_ant):
            if n_ant == bad_n:
                raise RuntimeError("no representable value with the target modulus")
            return np.ones(1 << phase_bits, dtype=complex)
        with mock.patch.object(codebooks, "_phasor_table", table):
            with pytest.raises(ValueError, match="phase_bits=6 .* %s=%d$" % (field, bad_n)):
                ExperimentConfig().validate()


# The default config at 3 trials with every method, and the SHA-256 of its
# summary.csv and errors.csv at seed 12345. The bytes of a run are the
# behaviour contract: a change that moves them must explain the record diff.
GOLDEN = dict(n_trials=3, methods=METHODS, designed_sweeps=2)
GOLDEN_SHA256 = ("9fc6b356eb7427564cbb2eab7fac9619706e107647b89957e369b10cab1e1894",
                 "468abc0a51493e9e32b689fc5cab264917decb5336fddabbad7e6afe6f3727bd")


# The same for the 128-antenna scaling config at 10 trials and one SNR point.
# There the multi-beam transmit factor has parallel columns and rounding
# decides OMP's pick among them, so this case catches any change to the
# arithmetic on that path.
GOLDEN_ALIASED = dict(n_ant_bs=128, methods=("OMP-MultiBeam", "OMP-Designed"),
                      snr_db=(20.0,), n_trials=10, designed_sweeps=2)
GOLDEN_ALIASED_SHA256 = (
    "8bab0761eb72290c7170f40b044389c547d07970ca88f014b6d36c0b7c764644",
    "4268e7671c4beb836f71d3b6b603a7c0fa19f9ecdfb4c3bb525d89e04d9b61d6")


def test_golden_bytes(tmp_path):
    for name, fields, digests in (("default", GOLDEN, GOLDEN_SHA256),
                                  ("aliased128", GOLDEN_ALIASED, GOLDEN_ALIASED_SHA256)):
        records, stats = run_experiment(ExperimentConfig(**fields))
        paths = emit_csv(records, stats, tmp_path / name)
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == digests, name


def test_assets_build_the_dft_combiner_only_for_the_sweeps_that_read_it():
    # OMP-Random draws its combiners per trial, so its runs never read rx_dft
    with mock.patch.object(beamcs.experiment, "dft_codebook",
                           wraps=codebooks.dft_codebook) as built:
        assets = _build_assets(ExperimentConfig(methods=("OMP-Random",), n_rx_entries=1))
        assert built.call_count == 0 and "rx_dft" not in assets
        assets = _build_assets(ExperimentConfig(methods=("OMP-Random", "OMP-DFT")))
        assert built.call_count == 2  # the tx codebook and the combiner
    assert assets["rx_dft"].entries.shape == (2, 8, 4)  # entries, antennas, RF chains


def test_only_the_multi_beam_workload_operator_is_aliased():
    # the benchmark's mc-default and mc-scale128 operators
    default = _build_assets(ExperimentConfig())
    assert not default["sweeps"][codebooks.KIND_DFT][1].aliased
    rng = np.random.default_rng(0)
    for _ in range(3):  # OMP-Random draws fresh codebooks per trial
        op = build_sensing_operator(codebooks.random_codebook(64, 64, 1, 6, rng),
                                    codebooks.random_codebook(8, 2, 4, 6, rng), default["tx_grid"],
                                    default["rx_grid"])
        assert not op.aliased
        # the alias test reads both factors, and neither has parallel columns
        assert not parallel_columns(op.tx_factor).any()
        assert not parallel_columns(op.rx_factor).any()
    scale = _build_assets(ExperimentConfig(n_ant_bs=128, methods=("OMP-MultiBeam", "OMP-Designed"),
                                           snr_db=(20.0,), designed_sweeps=20))
    assert scale["sweeps"][codebooks.KIND_MULTI_BEAM][1].aliased
    assert not scale["sweeps"][codebooks.KIND_DESIGNED][1].aliased


def test_validate_rejects_a_dft_combiner_off_the_receive_beam_grid():
    # the DFT combiner points column c at sin 2c/n_ant_ue, the scoring puts
    # rx beam c at 2c/(n_rx_entries * n_rf_ue); with 4 columns on 8 antennas
    # ES reached p_all 0.01 at 30 dB
    for method in ("ES", "OMP-DFT", "OMP-MultiBeam", "OMP-Designed"):
        for fields in (dict(n_rx_entries=1), dict(n_rf_ue=2)):
            with pytest.raises(ValueError, match="^%s combines with DFT beams, which requires "
                               "n_rx_entries \\* n_rf_ue = n_ant_ue$" % method):
                ExperimentConfig(methods=(method,), **fields).validate()
    # a random combiner has no beam directions to misplace
    ExperimentConfig(n_rx_entries=1, methods=("OMP-Random",)).validate()
    with pytest.raises(ValueError, match="OMP-DFT combines with DFT beams"):
        ExperimentConfig(n_rx_entries=1, methods=("OMP-Random", "OMP-DFT")).validate()


def test_omp_never_picks_a_numerically_empty_column(monkeypatch):
    # 32 DFT beams on 64 antennas leave grid atoms orthogonal to every sweep
    # vector; their operator columns are rounding noise, about 1e-16 of the
    # largest, and scoring that noise over its own norm made OMP pick them
    cfg = ExperimentConfig(n_tx_entries=32, methods=("OMP-DFT",), snr_db=(0.0, 30.0),
                           n_trials=4)
    cfg.validate()
    picked = []

    def spy(op, ys, *args):
        outcomes = beamcs.detect.cs_detect(op, ys, *args)
        norms = op.col_norms(1)
        assert (norms <= 1e-9 * norms.max()).any()
        picked.extend(norms[list(out.support)] / norms.max() for out in outcomes)
        return outcomes

    monkeypatch.setattr(beamcs.experiment, "cs_detect", spy)
    run_experiment(cfg)
    assert len(picked) == 2 * cfg.n_trials
    assert min(map(min, picked)) > 1e-9


def test_method_table_order_is_pinned():
    # a row's position seeds its noise, and a sweep's the random codebooks of
    # its trials, so rows are only ever appended
    assert METHODS == ("ES", "OMP-Random", "OMP-DFT", "OMP-MultiBeam", "OMP-Designed")
    assert ExperimentConfig().methods == METHODS[:3]
    assert [_method_id(m) for m in METHODS] == [0, 1, 2, 3, 4]
    assert [_sweep_id(kind) for kind in (codebooks.KIND_DFT, codebooks.KIND_RANDOM,
                                         codebooks.KIND_MULTI_BEAM,
                                         codebooks.KIND_DESIGNED)] == [0, 1, 3, 4]


def test_an_appended_row_runs_and_is_validated_by_what_it_declares(monkeypatch, tmp_path):
    # the exhaustive detector on the DFT sweep again, under a new name: adding
    # the row is the only edit
    toy = "ES-Again"
    monkeypatch.setitem(beamcs.experiment._METHODS, toy, beamcs.experiment._Method(
        codebooks.KIND_DFT, beamcs.experiment._exhaustive))
    noise_ids, seeded = set(), beamcs.experiment._seed

    def seed(master, *parts):
        if parts[0] == 2:  # the noise tag; the method id comes last
            noise_ids.add(parts[-1])
        return seeded(master, *parts)

    monkeypatch.setattr(beamcs.experiment, "_seed", seed)
    cfg = ExperimentConfig(**dict(TINY, methods=("ES", toy), n_trials=2))
    records, stats = run_experiment(cfg)
    assert noise_ids == {0, 5}
    assert [r.method for r in records[:2]] == ["ES", toy]
    assert {m for _, m in stats} == {"ES", toy}
    summary, _ = emit_csv(records, stats, tmp_path)
    assert summary.read_text(encoding="utf-8").splitlines()[2].split(",")[1] == toy
    # rejected exactly where ES is, with ES's error under its own name
    for fields in (dict(), dict(n_ant_bs=128), dict(n_tx_entries=128),
                   dict(n_rx_entries=5, n_rf_ue=1)):
        errors = []
        for method in ("ES", toy):
            try:
                ExperimentConfig(methods=(method,), **fields).validate()
                errors.append(None)
            except ValueError as exc:
                errors.append(str(exc).replace(method, "<method>"))
        assert errors[0] == errors[1], fields
        assert (errors[0] is None) == (fields == {}), fields


def test_exhaustive_search_rejected_beyond_codebook_size():
    cfg = ExperimentConfig(n_ant_bs=128, methods=("ES",))
    with pytest.raises(ValueError, match="exhaustive search requires"):
        cfg.validate()
    # CS methods stay usable at 128 antennas
    ExperimentConfig(n_ant_bs=128, methods=("OMP-MultiBeam",)).validate()


def test_parse_snr_range():
    assert _parse_snr_range("-30:5:30") == tuple(float(v) for v in range(-30, 35, 5))
    assert _parse_snr_range("0:5:0") == (0.0,)
    assert _parse_snr_range("-10:2.5:-5") == (-10.0, -7.5, -5.0)
    # each point is the float nearest its decimal value, not a sum of floats
    assert _parse_snr_range("0:0.3:1") == (0.0, 0.3, 0.6, 0.9)
    assert _parse_snr_range("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        _parse_snr_range("0:5")
    with pytest.raises(ValueError):
        _parse_snr_range("0:-5:10")
    with pytest.raises(ValueError):
        _parse_snr_range("10:5:0")
    for text in ("nan:5:10", "0:nan:10", "0:5:inf"):
        with pytest.raises(ValueError, match="snr range must be finite"):
            _parse_snr_range(text)
    for text in ("0:5:10:15", "0:x:10"):
        with pytest.raises(ValueError, match="^snr range must be start:step:stop$"):
            _parse_snr_range(text)
    with pytest.raises(ValueError, match="more than 10\\*\\*28 points"):
        _parse_snr_range("0:1e-40:1")
    # more points than 0.001 dB keys between start and stop: rejected before
    # any is built (this one built all 10**6 points for validate() to reject)
    for text in ("0:0.000001:1", "0:0.0001:0.01"):
        with pytest.raises(ValueError, match="snr_db points must differ after rounding"):
            _parse_snr_range(text)
    assert len(_parse_snr_range("-1:0.001:1")) == 2001


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    # a # starts a comment anywhere on a line
    p.write_text("# comment\n\nn_trials = 25  # trials\nsnr_db = -10:10:10\n"
                 "  # indented\nmethods = ES, OMP-DFT\nmaster_seed=7# seed\n"
                 "delay_max = 1e-7\n", encoding="utf-8")
    got = parse_config_file(p)
    assert got == {"n_trials": 25, "snr_db": (-10.0, 0.0, 10.0),
                   "methods": ("ES", "OMP-DFT"), "master_seed": 7, "delay_max": 1e-7}
    cfg = ExperimentConfig(**got)
    cfg.validate()


def test_parse_config_file_comma_snr_list(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("snr_db = -5, 0, 5\n", encoding="utf-8")
    assert parse_config_file(p) == {"snr_db": (-5.0, 0.0, 5.0)}


def test_parse_config_file_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("snr=0:5:10\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(p)
    # fields an older config file may still set
    for key in ("sparsity = 6", "tx_grid_mult = 3", "rx_grid_mult = 3", "n_fft = 4096",
                "sample_rate = 4e8", "n_clusters = 2", "n_rays = 3", "ray_angle_std = 0.1"):
        p.write_text("n_trials = 2\n" + key + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 2, key '%s': unknown config key$"
                                             % key.split()[0]):
            parse_config_file(p)


def test_parse_config_file_names_the_line_and_key_of_a_bad_value(tmp_path):
    p = tmp_path / "run.cfg"
    for text, where in (("n_trials = 25\nn_trials = 1e3\n", "line 2, key 'n_trials'"),
                        ("snr_db = 0, x\n", "line 1, key 'snr_db'"),
                        ("# seed\nsnr_db = 0:-5:10\n", "line 2, key 'snr_db'")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=where):
            parse_config_file(p)


def test_parse_config_file_rejects_a_key_given_twice(tmp_path):
    # the last value won silently
    p = tmp_path / "run.cfg"
    p.write_text("n_trials = 5\n# more\nn_trials = 7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^line 3, key 'n_trials': already set on line 1$"):
        parse_config_file(p)


def test_parse_config_file_rejects_non_assignment(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_trials\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(p)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = ExperimentConfig(**TINY)
    records, stats = run_experiment(cfg)
    return cfg, records, stats


def test_run_experiment_record_layout(tiny_run):
    cfg, records, stats = tiny_run
    assert len(records) == cfg.n_trials * len(cfg.snr_db) * len(cfg.methods)
    method_id = {m: i for i, m in enumerate(METHODS)}
    keys = [(r.trial, r.snr_db, method_id[r.method]) for r in records]
    assert keys == sorted(keys)
    assert set(stats) == {(snr, m) for snr in cfg.snr_db for m in cfg.methods}
    for g in stats.values():
        assert g.n_trials == cfg.n_trials
        assert 0.0 <= g.p_all <= g.p_single <= 1.0


def test_run_experiment_error_lists_sized_by_truth(tiny_run):
    cfg, records, _ = tiny_run
    for r in records:
        assert len(r.tx_errors) == len(r.rx_errors)
        assert 1 <= len(r.tx_errors) <= cfg.effective_sparsity
        if r.all_match:
            assert r.single_match


def test_channel_shared_across_methods_and_snrs(tiny_run):
    cfg, records, _ = tiny_run
    # paired design: a trial's truth-set size is visible through the error
    # list length, which must agree across every (snr, method) cell
    by_trial = {}
    for r in records:
        by_trial.setdefault(r.trial, set()).add(len(r.tx_errors))
    for sizes in by_trial.values():
        assert len(sizes) == 1


def test_one_sweep_signal_per_trial_and_sweep():
    # ES and OMP-DFT read one DFT sweep, OMP-Random its random sweep
    with mock.patch.object(beamcs.experiment, "sweep_signal",
                           wraps=beamcs.experiment.sweep_signal) as spy:
        run_experiment(ExperimentConfig(**TINY))
    assert spy.call_count == 2 * TINY["n_trials"]


def test_one_pilot_response_per_trial():
    # every sweep of a trial reads the one response; 128 antennas alias the
    # multi-beam operator, so both of cs_detect's fits run too
    scale = dict(n_ant_bs=128, methods=("OMP-MultiBeam", "OMP-Designed"), snr_db=(20.0,),
                 n_trials=2, designed_sweeps=1)
    for fields in (TINY, scale):
        with mock.patch.object(beamcs.sweep, "freq_channel",
                               wraps=beamcs.sweep.freq_channel) as spy:
            run_experiment(ExperimentConfig(**fields))
        assert spy.call_count == fields["n_trials"]


def test_run_experiment_starts_at_most_one_worker_per_trial(tiny_run):
    # a process pool starts all of its workers at once; this one runs the
    # trials in-process and records its size
    sizes = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    with (mock.patch.object(beamcs.experiment, "ProcessPoolExecutor", InlinePool),
          mock.patch.dict(beamcs.experiment._WORKER_STATE)):
        for workers in (64, 3):
            records, _ = run_experiment(ExperimentConfig(**{**TINY, "workers": workers}))
            assert records == tiny_run[1]
        run_experiment(ExperimentConfig(**{**TINY, "n_trials": 1, "workers": 4}))
    assert sizes == [TINY["n_trials"], 3]


def test_method_records_do_not_depend_on_the_other_methods(tiny_run):
    _, together, _ = tiny_run
    for methods in (("OMP-DFT",), ("ES",), ("OMP-Random",), ("ES", "OMP-DFT"),
                    ("OMP-DFT", "ES")):
        alone, _ = run_experiment(ExperimentConfig(**{**TINY, "methods": methods}))
        assert alone == [r for r in together if r.method in methods], methods


def test_snr_point_records_do_not_depend_on_the_rest_of_the_grid():
    # noise seeds are keyed by the SNR value, and the noiseless sweep is
    # free of it, so dropping the other 11 points changes no record
    pair, _ = run_experiment(ExperimentConfig(n_trials=4, snr_db=(0.0, 10.0)))
    full, _ = run_experiment(ExperimentConfig(n_trials=4))
    assert len(pair) == 24
    assert pair == [r for r in full if r.snr_db in (0.0, 10.0)]


def test_emit_csv_shapes_and_roundtrip(tiny_run, tmp_path):
    cfg, records, stats = tiny_run
    summary, errors = emit_csv(records, stats, tmp_path / "out")
    s_lines = summary.read_text(encoding="utf-8").splitlines()
    assert s_lines[0] == "snr_db,method,n_trials,p_all,p_all_se,p_single,p_single_se"
    assert len(s_lines) == 1 + len(cfg.snr_db) * len(cfg.methods)
    for line in s_lines[1:]:
        snr, method, n, p_all, p_all_se, p_single, p_single_se = line.split(",")
        g = stats[(float(snr), method)]
        assert int(n) == g.n_trials
        # repr floats parse back to the exact binary value
        assert float(p_all) == g.p_all and float(p_all_se) == g.p_all_se
        assert float(p_single) == g.p_single and float(p_single_se) == g.p_single_se

    e_lines = errors.read_text(encoding="utf-8").splitlines()
    assert e_lines[0] == "snr_db,method,side,error,count"
    seen = {}
    for line in e_lines[1:]:
        snr, method, side, err, count = line.split(",")
        assert side in ("tx", "rx")
        seen.setdefault((float(snr), method, side), 0)
        seen[(float(snr), method, side)] += int(count)
    # every (snr, method, side) histogram sums to the total error count
    want_total = sum(len(r.tx_errors) for r in records if r.method == cfg.methods[0]
                     and r.snr_db == cfg.snr_db[0])
    for (snr, method, side), total in seen.items():
        assert total == want_total


def test_same_seed_same_bytes_different_seed_differs(tiny_run, tmp_path):
    cfg, _, _ = tiny_run
    again, stats_again = run_experiment(cfg)
    p1 = emit_csv(again, stats_again, tmp_path / "a")
    other, stats_other = run_experiment(ExperimentConfig(**{**TINY, "master_seed": 100}))
    p2 = emit_csv(other, stats_other, tmp_path / "b")
    base, stats_base = run_experiment(cfg)
    p0 = emit_csv(base, stats_base, tmp_path / "c")
    assert p0[0].read_bytes() == p1[0].read_bytes()
    assert p0[1].read_bytes() == p1[1].read_bytes()
    assert p0[0].read_bytes() != p2[0].read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    serial_cfg = ExperimentConfig(**TINY)
    pooled_cfg = ExperimentConfig(**{**TINY, "workers": 2})
    r1, s1 = run_experiment(serial_cfg)
    r2, s2 = run_experiment(pooled_cfg)
    a = emit_csv(r1, s1, tmp_path / "w1")
    b = emit_csv(r2, s2, tmp_path / "w2")
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()


def test_main_cli_writes_outputs(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["--trials", "2", "--snr", "0:10:10", "--methods", "ES,OMP-DFT",
                 "--seed", "5", "--out", str(out),
                 "--config", str(_write_tiny_cfg(tmp_path))])
    assert code == 0
    assert (out / "summary.csv").exists() and (out / "errors.csv").exists()
    said = capsys.readouterr().out
    assert "summary.csv" in said and "errors.csv" in said
    lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 2


def _write_tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text("n_ant_bs = 16\nn_ant_ue = 4\nn_rf_ue = 2\nn_tx_entries = 16\n"
                 "n_rx_entries = 2\n", encoding="utf-8")
    return p


def test_main_cli_flag_overrides_config_file(tmp_path):
    p = tmp_path / "base.cfg"
    p.write_text("n_ant_bs = 16\nn_ant_ue = 4\nn_rf_ue = 2\nn_tx_entries = 16\n"
                 "n_rx_entries = 2\nn_trials = 50\nmaster_seed = 1\n", encoding="utf-8")
    out = tmp_path / "res"
    code = main(["--config", str(p), "--trials", "1", "--snr", "5:5:5",
                 "--methods", "OMP-DFT", "--out", str(out)])
    assert code == 0
    lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2  # header + one (snr, method) row
    assert lines[1].startswith("5.0,OMP-DFT,1,")


def test_main_cli_rejects_es_with_large_array(tmp_path, capsys):
    p = tmp_path / "big.cfg"
    p.write_text("n_ant_bs = 128\n", encoding="utf-8")
    code = main(["--config", str(p), "--trials", "1", "--methods", "ES",
                 "--out", str(tmp_path / "res")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("error: exhaustive search requires one sweep entry per transmit beam: "
                   "n_tx_entries ≥ n_ant_bs\n")


def test_main_cli_rejects_too_many_pilots_and_removed_keys(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    for text, line in (("n_pilots = 4097\n",
                        "n_pilots must be positive and at most the FFT size 4096"),
                       ("n_fft = 4096\n", "line 1, key 'n_fft': unknown config key")):
        p.write_text(text, encoding="utf-8")
        assert main(["--config", str(p), "--trials", "1", "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: %s\n" % line
    assert not (tmp_path / "r").exists()


def test_main_cli_rejects_bad_snr(tmp_path, capsys):
    code = main(["--snr=10:5", "--trials", "1", "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == "error: snr_db: snr range must be start:step:stop\n"
    code = main(["--snr=-4000:1:-4000", "--trials", "1", "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: snr_db point -4000.0 is below -3042.547 dB, where the noise energy of "
        "n_pilots=10 pilots nears the float range\n")


def test_main_cli_reads_snr_as_the_config_key_does(tmp_path):
    # --snr takes both forms of snr_db, the comma list as well as start:step:stop
    tiny = _write_tiny_cfg(tmp_path)
    listed = tmp_path / "listed.cfg"
    listed.write_text(tiny.read_text(encoding="utf-8") + "snr_db = -10, 0, 10\n",
                      encoding="utf-8")
    runs = {"flag": ["--config", str(tiny), "--snr=-10,0,10"],
            "range": ["--config", str(tiny), "--snr=-10:10:10"],
            "file": ["--config", str(listed)]}
    for name, argv in runs.items():
        assert main(argv + ["--trials", "2", "--out", str(tmp_path / name)]) == 0
    for csv in ("summary.csv", "errors.csv"):
        want = (tmp_path / "file" / csv).read_bytes()
        assert want.count(b"\n-10.0,") and want.count(b"\n10.0,")
        assert (tmp_path / "flag" / csv).read_bytes() == want
        assert (tmp_path / "range" / csv).read_bytes() == want


def test_main_cli_names_the_key_of_a_bad_flag_value(tmp_path, capsys):
    # argparse's int conversion printed its usage and exited 2
    for argv, line in ((["--trials", "abc"], "n_trials: invalid literal for int() with base "
                                             "10: 'abc'"),
                       (["--workers", "2.5"], "workers: invalid literal for int() with base "
                                              "10: '2.5'"),
                       (["--seed", "x"], "master_seed: invalid literal for int() with base "
                                         "10: 'x'"),
                       (["--snr=0,x"], "snr_db: could not convert string to float: 'x'")):
        assert main(argv + ["--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "error: %s\n" % line
    assert not (tmp_path / "r").exists()
