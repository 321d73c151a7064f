"""Pass-through span recording around the public functions of beamcs.

The library is not edited: each traced function is replaced, for the
duration of one traced run, by a wrapper that records a span
(name, start, end, parent, trial) and returns the callee's result
unchanged. Spans stay in memory. Worker processes forked by
``run_experiment`` inherit the wrappers; each worker spools its spans to
one JSON file when it exits, and the parent reads them back.

Clocks are ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is shared
by all processes on the machine, so spans of the parent and of the
workers lie on one time axis.
"""

import json
import os
import statistics
import time
from collections import Counter, defaultdict
from multiprocessing import util

import beamcs.detect
import beamcs.experiment
import beamcs.sweep

TRIAL_START = "channel.sample_channel"

# (module, attribute as bound in that module, span name). Several
# functions may share one span name; their spans are aggregated.
TRACED = (
    (beamcs.experiment, "build_grid", "arrays.build_grid"),
    (beamcs.experiment, "sample_channel", TRIAL_START),
    (beamcs.sweep, "freq_channel", "channel.freq_channel"),
    (beamcs.experiment, "designed_codebook", "codebooks.designed_codebook"),
    (beamcs.experiment, "dft_codebook", "codebooks.static_build"),
    (beamcs.experiment, "multi_beam_dft_codebook", "codebooks.static_build"),
    (beamcs.experiment, "group_columns", "codebooks.static_build"),
    (beamcs.experiment, "random_codebook", "codebooks.random_codebook"),
    (beamcs.experiment, "acquire", "sweep.acquire"),
    (beamcs.experiment, "build_sensing_operator", "sweep.build_sensing_operator"),
    (beamcs.experiment, "cs_detect", "detect.cs_detect"),
    (beamcs.detect, "omp", "detect.omp"),
    (beamcs.experiment, "exhaustive_search", "detect.exhaustive_search"),
    (beamcs.experiment, "true_pairs", "detect.true_pairs"),
    (beamcs.experiment, "beam_index_errors", "detect.beam_index_errors"),
    (beamcs.experiment, "all_beam_match", "metrics.match"),
    (beamcs.experiment, "single_beam_match", "metrics.match"),
    (beamcs.experiment, "detection_probability", "metrics.detection_probability"),
)

RUN_SPAN = "experiment.run"
EMIT_SPAN = "experiment.emit_csv"
# spans that run after the last trial and so do not belong to it
AFTER_TRIALS = (RUN_SPAN, EMIT_SPAN, "metrics.detection_probability")

# span names whose call counts are reported
COUNTED = ("channel.sample_channel", "channel.freq_channel", "codebooks.designed_codebook",
           "codebooks.random_codebook", "sweep.acquire", "sweep.build_sensing_operator",
           "detect.omp", "detect.exhaustive_search")
# span names whose self time is reported
TIMED = ("arrays.build_grid",) + COUNTED + (
    "codebooks.static_build", "detect.cs_detect", "detect.true_pairs",
    "detect.beam_index_errors", "metrics.match", "metrics.detection_probability")


class Patch:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self, replacements):
        self.replacements = list(replacements)  # (module, attr, new)
        self.saved = []

    def __enter__(self):
        for module, attr, new in self.replacements:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)
        return self

    def __exit__(self, *exc):
        for module, attr, old in reversed(self.saved):
            setattr(module, attr, old)
        self.saved.clear()


class Tracer:
    """Span recorder for one traced run_experiment call at a time."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index, trial]
        self.stack = []
        self.trial = -1
        self.counts = Counter()
        self.designed = None  # (codebook, grid) of the last designed build

    def reset(self):
        self.spans, self.stack, self.trial = [], [], -1
        self.counts = Counter()
        self.designed = None
        for name in os.listdir(self.spool_dir):
            if name.startswith("spans-"):
                os.remove(os.path.join(self.spool_dir, name))

    def _enter_process(self):
        # first span in a forked worker: drop what was inherited and spool
        # this worker's spans when it exits
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.stack, self.trial = [], [], -1
            self.counts = Counter()
            util.Finalize(None, self._spool, exitpriority=10)

    def _spool(self):
        path = os.path.join(self.spool_dir, "spans-%d.json" % self.pid)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter_process()
            if name == TRIAL_START:
                tracer.trial += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            trial = tracer.trial
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                tracer.stack.pop()
                tracer.spans[idx] = [name, start, end, parent, trial]
            if name == "detect.omp" and result.ridge_flagged:
                tracer.counts["detect.omp.ridge_fallbacks"] += 1
            elif name == "codebooks.designed_codebook":
                tracer.designed = (result, kwargs.get("grid", args[1] if len(args) > 1 else None))
            return result

        return traced

    def patch(self):
        return Patch((m, attr, self.wrap(name, getattr(m, attr))) for m, attr, name in TRACED)

    def collect(self):
        """All spans of the last traced call, keyed by process id, plus the
        merged event counts. Call after the workers have exited."""
        by_pid = {self.pid: self.spans}
        counts = Counter(self.counts)
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("spans-"):
                continue
            with open(os.path.join(self.spool_dir, name), encoding="utf-8") as f:
                data = json.load(f)
            by_pid[int(name[len("spans-"):-len(".json")])] = data["spans"]
            counts.update(data["counts"])
        return by_pid, counts


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(by_pid, counts):
    """Per-layer numbers of one traced run_experiment + emit_csv call.

    Self time is a span's duration minus the durations of its direct
    children; spans of one process nest, so the children never overlap.
    """
    self_s = defaultdict(float)
    calls = Counter()
    run = None
    layer_intervals = []
    trial_ms = []
    for spans in by_pid.values():
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s[name] += end - start - child_time[i]
            calls[name] += 1
            if name == RUN_SPAN:
                run = (start, end)
            elif name != EMIT_SPAN:
                layer_intervals.append((start, end))
        # a trial runs from its channel draw to the next trial's, or to the
        # end of its own last span
        starts = {}
        ends = defaultdict(float)
        for name, start, end, _, trial in spans:
            if trial >= 0 and name not in AFTER_TRIALS:
                if name == TRIAL_START:
                    starts[trial] = start
                ends[trial] = max(ends[trial], end)
        for trial, start in starts.items():
            stop = starts.get(trial + 1, ends[trial])
            trial_ms.append((stop - start) * 1e3)
    if run is None:
        raise RuntimeError("traced run has no %s span" % RUN_SPAN)
    inside = [(max(s, run[0]), min(e, run[1])) for s, e in layer_intervals
              if e > run[0] and s < run[1]]
    out = {}
    for name in COUNTED:
        out[name + ".calls"] = calls[name]
    for name in TIMED:
        out[name + ".self_s"] = self_s[name]
    out["detect.omp.ridge_fallbacks"] = counts["detect.omp.ridge_fallbacks"]
    out["experiment.emit_csv.self_s"] = self_s[EMIT_SPAN]
    out["experiment.orchestration_s"] = (run[1] - run[0]) - _union_length(inside)
    out["trial_ms"] = trial_ms
    return out


def percentile(values, q):
    """q-th percentile (0 < q < 100) by the inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
