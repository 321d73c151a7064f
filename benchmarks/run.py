"""Monte Carlo cell-throughput benchmark for beamcs.

Runs one workload through the public ``run_experiment`` + ``emit_csv``
API, checks every output, and prints each metric by name with its unit.
The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

    python3 benchmarks/run.py --workload mc-default --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced calls.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics (see benchmarks/README.md).
"""

import os

# BLAS threads are pinned before numpy is loaded; forked workers inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import dataclasses
import gc
import json
import mmap
import platform
import resource
import statistics
import struct
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import beamcs
import beamcs.experiment
from beamcs.codebooks import total_coherence
from beamcs.experiment import ExperimentConfig, emit_csv, run_experiment

import checks
import tracing

REFERENCE_SEED = 12345
# One run_experiment call per workload takes a few seconds, so a
# measurement holds several calls and reports their median. mc-scale128
# runs 20 designed-codebook sweeps instead of the default 200: the search
# still dominates its set-up, but a call then fits many times in one run.
# mc-default-w2 is not in BENCHMARK.json: a third gated workload does not
# fit the benchmark's time budget, and this one is the noisiest.
WORKLOADS = {
    "mc-default": {"n_trials": 10},
    "mc-scale128": {"n_ant_bs": 128, "methods": ("OMP-MultiBeam", "OMP-Designed"),
                    "snr_db": (20.0,), "n_trials": 100, "designed_sweeps": 20},
    "mc-default-w2": {"n_trials": 20, "workers": 2},
}
MIN_CALLS = 3

END_TO_END = {"cells_per_s": "cells/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = dict(
    [(name + ".calls", "count") for name in tracing.COUNTED]
    + [(name + ".self_s", "s") for name in tracing.TIMED]
    + [("codebooks.designed_codebook.total_coherence", "dimensionless"),
       ("detect.omp.ridge_fallbacks", "count"),
       ("experiment.trial_ms.p50", "ms"), ("experiment.trial_ms.p90", "ms"),
       ("experiment.orchestration_s", "s"),
       ("experiment.emit_csv.self_s", "s"), ("experiment.emit_csv.bytes", "bytes"),
       ("experiment.pool_busy_frac", "ratio"), ("experiment.pool_child_cpu_s", "s"),
       ("trace.overhead_frac", "ratio")])
# per-layer values that must repeat exactly between calls and runs
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")] + [
    "codebooks.designed_codebook.total_coherence"]


def workload_config(name, seed, n_trials=None):
    fields = dict(WORKLOADS[name], master_seed=seed,
                  out_dir=str(BENCH / ".out" / name / "csv"))
    if n_trials is not None:
        fields["n_trials"] = n_trials
    return ExperimentConfig(**fields)


class FirstTrial:
    """Clock readings at the first channel draw of a run_experiment call.

    The readings live in an anonymous shared mapping, so a forked worker
    that draws the first channel writes where the parent reads.
    """

    def __init__(self):
        self.buf = mmap.mmap(-1, 16)

    def reset(self):
        struct.pack_into("dd", self.buf, 0, 0.0, 0.0)

    def read(self):
        return struct.unpack_from("dd", self.buf, 0)

    def wrap(self, fn):
        buf = self.buf

        def marked(*args, **kwargs):
            if struct.unpack_from("d", buf, 0)[0] == 0.0:
                struct.pack_into("dd", buf, 0, time.monotonic(), time.process_time())
            return fn(*args, **kwargs)

        return marked


def _child_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_once(cfg, first, tracer=None):
    """One run_experiment + emit_csv call and what it measured."""
    run, emit = run_experiment, emit_csv
    patch = tracing.Patch(())
    if tracer is not None:
        tracer.reset()
        run = tracer.wrap(tracing.RUN_SPAN, run)
        emit = tracer.wrap(tracing.EMIT_SPAN, emit)
        patch = tracer.patch()
    first.reset()
    gc.collect()  # every call starts from the same heap state
    child_cpu0 = _child_cpu()
    with patch:
        t0 = time.monotonic()
        records, stats = run(cfg)
        t1 = time.monotonic()
        cpu1 = time.process_time()
        paths = emit(records, stats, cfg.out_dir)
        t2 = time.monotonic()
    first_wall, first_cpu = first.read()
    if first_wall == 0.0:
        raise RuntimeError("run_experiment started no trial")
    # trials run in the parent with one worker, in forked children otherwise
    worker_cpu = _child_cpu() - child_cpu0 if cfg.workers > 1 else cpu1 - first_cpu
    call = {"records": records, "stats": stats, "paths": paths,
            "setup_s": first_wall - t0, "wall_s": t2 - t0,
            "cells_per_s": len(records) / (t1 - first_wall),
            "pool_child_cpu_s": worker_cpu,
            "pool_busy_frac": worker_cpu / (cfg.workers * (t1 - first_wall))}
    if tracer is not None:
        call["spans"], counts = tracer.collect()
        call["layers"] = tracing.layer_metrics(call["spans"], counts)
        call["layers"]["experiment.emit_csv.bytes"] = sum(p.stat().st_size for p in paths)
        call["layers"]["codebooks.designed_codebook.total_coherence"] = (
            total_coherence(*tracer.designed) if tracer.designed is not None else 0.0)
    return call


def reference_call(cfg, first):
    """Untimed call at the reference seed; also warms every lazy cache.
    The call carries the designed codebook it built, or None."""
    built = []

    def capture(fn):
        def wrapper(*args, **kwargs):
            built.append(fn(*args, **kwargs))
            return built[-1]
        return wrapper

    with tracing.Patch([(beamcs.experiment, "designed_codebook",
                         capture(beamcs.experiment.designed_codebook))]):
        call = run_once(cfg, first)
    call["designed"] = built[-1] if built else None
    return call


def reference_path(workload):
    return BENCH / "reference" / (workload + ".json")


def write_reference(workload, first):
    cfg = workload_config(workload, REFERENCE_SEED)
    call = reference_call(cfg, first)
    config = dataclasses.asdict(cfg)
    del config["out_dir"]
    head = {"workload": workload, "seed": REFERENCE_SEED, "config": config,
            **checks.digests(call["paths"], call["designed"])}
    rows = [json.dumps(checks.record_row(r)) for r in call["records"]]
    # one record per line, so a changed cell shows as one changed line
    text = (json.dumps(head, indent=1)[:-2] + ',\n "records": [\n'
            + ",\n".join(rows) + "\n ]\n}\n")
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print("wrote %s (%d records)" % (path.relative_to(ROOT), len(rows)))


def measure(cfg, first, seconds, tracer, verifier):
    """Calls for at least `seconds`, each checked as it returns; with a
    tracer, untraced and traced calls alternate. Returns (untraced calls,
    traced calls)."""
    plain, traced = [], []
    end = time.monotonic() + seconds
    while (time.monotonic() < end or len(plain) < MIN_CALLS
           or (tracer is not None and len(traced) < MIN_CALLS)):
        if tracer is not None and len(traced) < len(plain):
            call = run_once(cfg, first, tracer)
            traced.append(call)
        else:
            call = run_once(cfg, first)
            plain.append(call)
        verifier.check(cfg, call)
        del call["records"], call["stats"]
    return plain, traced


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, cfg, load_start):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "config": dataclasses.asdict(cfg)}


def layer_report(plain, traced):
    """Per-layer metrics and any exact count that failed to repeat."""
    layers = [c["layers"] for c in traced]
    out, unsteady = {}, []
    for name in PER_LAYER:
        if name in layers[0]:
            values = [c[name] for c in layers]
            if name in EXACT and len(set(values)) > 1:
                unsteady.append(name)
            out[name] = values[0] if name in EXACT else statistics.median(values)
    trial_ms = [ms for c in layers for ms in c["trial_ms"]]
    out["experiment.trial_ms.p50"] = tracing.percentile(trial_ms, 50)
    out["experiment.trial_ms.p90"] = tracing.percentile(trial_ms, 90)
    for name in ("pool_busy_frac", "pool_child_cpu_s"):
        out["experiment." + name] = statistics.median(c[name] for c in plain)
    out["trace.overhead_frac"] = (statistics.median(c["wall_s"] for c in traced)
                                  / statistics.median(c["wall_s"] for c in plain) - 1.0)
    return out, unsteady


def write_spans(workload, traced):
    path = BENCH / ".out" / workload / "spans.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for i, call in enumerate(traced):
            for pid, spans in call["spans"].items():
                for name, start, end, parent, trial in spans:
                    f.write(json.dumps({"call": i, "pid": pid, "name": name, "start": start,
                                        "end": end, "parent": parent, "trial": trial}) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="trials per call instead of the workload's (for quick checks)")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite the committed reference records and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if Path(beamcs.__file__).resolve().parent != ROOT / "src" / "beamcs":
        raise SystemExit("beamcs was imported from %s, not from %s"
                         % (beamcs.__file__, ROOT / "src"))
    out = BENCH / ".out" / args.workload
    spool = out / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()[0]
    first = FirstTrial()
    with tracing.Patch([(beamcs.experiment, "sample_channel",
                         first.wrap(beamcs.experiment.sample_channel))]):
        if args.write_reference:
            if args.trials is not None:
                parser.error("--write-reference uses the workload's own trial count")
            write_reference(args.workload, first)
            return 0
        verifier = checks.Verifier(
            json.loads(reference_path(args.workload).read_text(encoding="utf-8")),
            full_size=args.trials is None)
        ref_cfg = workload_config(args.workload, REFERENCE_SEED, args.trials)
        verifier.check(ref_cfg, reference_call(ref_cfg, first))
        cfg = workload_config(args.workload, args.seed, args.trials)
        tracer = tracing.Tracer(str(spool)) if args.trace else None
        plain, traced = measure(cfg, first, args.seconds, tracer, verifier)

    if args.trace:
        metrics, unsteady = layer_report(plain, traced)
        units = PER_LAYER
        verifier.messages += ["%s differs between traced calls" % n for n in unsteady]
        print("spans written to %s" % write_spans(args.workload, traced).relative_to(ROOT))
    else:
        metrics = {name: statistics.median(c[name] for c in plain)
                   for name in ("cells_per_s", "wall_s", "setup_s")}
        kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = kib / 1024.0
        units = END_TO_END

    for msg in verifier.messages:
        print("check failed: %s" % msg, file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, cfg, load_start)}))
    print("calls: %d untraced, %d traced; %d cells each"
          % (len(plain), len(traced), len(checks.cells(cfg))))
    if not args.trace:
        for name in ("cells_per_s", "wall_s", "setup_s"):
            print("  %s per call: %s" % (name, " ".join("%.4g" % c[name] for c in plain)))
    for name in units:
        print("%-48s %14.6g %s" % (name, metrics[name], units[name]))
    print("records_changed %d" % verifier.records_changed)
    print("failed_frac %.6g ratio" % (verifier.failed / verifier.attempted))
    print(json.dumps({"correct": verifier.failed == 0 and not verifier.messages,
                      "attempted": verifier.attempted, "failed": verifier.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
