"""The benchmark tracer's contract with the library, checked in tier-1.

benchmarks/tracing.py swaps named functions of beamcs for recording
wrappers and reads the designed-codebook build's grid back out of its
arguments. A renamed traced function, or a grid that `total_coherence`
cannot read, fails here and not only in the benchmark's own tests.
"""

import importlib.util
import math
from pathlib import Path

from beamcs.arrays import build_grid
from beamcs.codebooks import total_coherence
from beamcs.experiment import METHODS, ExperimentConfig, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("beamcs_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_the_designed_build(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer(tmp_path)
    cfg = ExperimentConfig(n_ant_bs=128, methods=("OMP-Designed",), snr_db=(20.0,),
                           n_trials=1, designed_sweeps=1)
    with tracer.patch():
        run_experiment(cfg)
    cb, grid = tracer.designed
    coherence = total_coherence(cb, grid)
    assert math.isfinite(coherence)
    assert coherence == total_coherence(cb, build_grid(128, 3))
    by_pid, _ = tracer.collect()
    assert [s[0] for s in by_pid[tracer.pid]].count("codebooks.designed_codebook") == 1


def test_every_traced_span_is_recorded(tmp_path):
    # a traced function that the library stops calling through its module
    # attribute (inlined, or bound under another name) records nothing, and
    # its per-layer metric reads 0
    tracing = _load_tracing()
    tracer = tracing.Tracer(tmp_path)
    cfg = ExperimentConfig(methods=METHODS, snr_db=(20.0,), n_trials=1, designed_sweeps=1)
    with tracer.patch():
        run_experiment(cfg)
    by_pid, _ = tracer.collect()
    recorded = {span[0] for spans in by_pid.values() for span in spans}
    assert not {name for _, _, name in tracing.TRACED} - recorded
