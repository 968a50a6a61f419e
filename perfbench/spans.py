"""Per-layer spans for the traced run.

The traced run wraps the public entry point of each layer — at every
place the name is looked up — with a timing wrapper that keeps a stack
of open spans.  Nothing is written while the run is going: each span
folds into per-name totals when it closes (calls, inclusive seconds,
self seconds), and the totals are turned into per-layer metrics at the
end.  Keeping aggregates instead of one record per span holds memory
flat: a sched-max pass opens over a million profile spans.

A span's self time is its duration minus the durations of the spans it
directly contains.  Summed over every span this telescopes to the total
duration of the top-level spans, so the layers' self times plus the
residual (time inside the measured regions that no span covers) equal
the measured wall time exactly.

Layer names follow the modules:

==========  =====================================================
engine      ``scheduler.simulator``: ``Simulator.run``
policy      ``scheduler.policies``: every policy's ``select``
profile     ``AvailabilityProfile.reserve`` and ``rebuild``
predictor   ``PointEstimator.predict`` and ``on_finish``
waitpred    ``predict_wait``, ``forward_simulate``, the fast walks
service     ``PredictionService.submit/start/finish/predict``
==========  =====================================================
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

LAYERS = ("engine", "policy", "profile", "predictor", "waitpred", "service")

_perf = time.perf_counter

# Span names whose statistics are reported; each starts with its layer.
SPAN_NAMES = (
    "engine.run",
    "policy.select",
    "profile.reserve",
    "profile.rebuild",
    "predictor.predict.conditioned",
    "predictor.predict.unconditioned",
    "predictor.on_finish",
    "waitpred.predict_wait",
    "waitpred.forward_simulate",
    "waitpred.fast_walk",
    "service.ingest",
    "service.predict.hit",
    "service.predict.miss",
)

# Module-level functions of the wait predictor: defining module and span
# name.  Each is patched in every repro module that imported it.
_WAITPRED_FUNCTIONS = {
    "predict_wait": ("repro.waitpred.predictor", "waitpred.predict_wait"),
    "forward_simulate": ("repro.scheduler.simulator", "waitpred.forward_simulate"),
    "fcfs_predicted_start": ("repro.waitpred.fast", "waitpred.fast_walk"),
    "fcfs_predicted_starts": ("repro.waitpred.fast", "waitpred.fast_walk"),
    "backfill_predicted_start": ("repro.waitpred.fast", "waitpred.fast_walk"),
    "backfill_predicted_starts": ("repro.waitpred.fast", "waitpred.fast_walk"),
}


class Recorder:
    """Open-span stack plus per-name totals.

    ``enabled`` gates recording: the benchmark turns it on only around
    the regions it times, so output checks never show up as spans.
    Each stack frame is ``[child_seconds, child_count, name]``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.top_s = 0.0  # summed duration of spans opened at an empty stack
        self.engine_events = 0
        self.engine_passes = 0
        self.useful_selects = 0
        self.reserves_in_select = 0
        self.breakpoints = 0
        self.engine_depth = 0  # open Simulator.run calls; >1 inside forward_simulate
        self.estimate_lookups = 0  # queued-job estimates asked of top-level engines

    def close(self, name: str, frame: list, dur: float) -> None:
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        stack = self.stack
        if stack:
            parent = stack[-1]
            parent[0] += dur
            parent[1] += 1
        else:
            self.top_s += dur


def _span(rec: Recorder, fn, name: str):
    """Wrap ``fn`` so each call opens a span called ``name``."""
    stack = rec.stack

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        frame = [0.0, 0, name]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.close(name, frame, dur)

    return wrapper


def _engine_run(rec: Recorder, fn):
    stack = rec.stack

    def run(self, *args, **kwargs):
        if not rec.enabled:
            return fn(self, *args, **kwargs)
        events, passes = self.events_processed, self.schedule_passes
        frame = [0.0, 0, "engine.run"]
        stack.append(frame)
        rec.engine_depth += 1
        t0 = _perf()
        try:
            return fn(self, *args, **kwargs)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.engine_depth -= 1
            rec.close("engine.run", frame, dur)
            rec.engine_events += self.events_processed - events
            rec.engine_passes += self.schedule_passes - passes

    return run


def _policy_select(rec: Recorder, fn):
    stack = rec.stack

    def select(self, view):
        if not rec.enabled:
            return fn(self, view)
        frame = [0.0, 0, "policy.select"]
        stack.append(frame)
        t0 = _perf()
        try:
            out = fn(self, view)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.close("policy.select", frame, dur)
        if out:
            rec.useful_selects += 1
        return out

    return select


def _profile_reserve(rec: Recorder, fn):
    stack = rec.stack

    def reserve(self, *args, **kwargs):
        if not rec.enabled:
            return fn(self, *args, **kwargs)
        rec.breakpoints += len(self.times)
        if stack and stack[-1][2] == "policy.select":
            rec.reserves_in_select += 1
        frame = [0.0, 0, "profile.reserve"]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(self, *args, **kwargs)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.close("profile.reserve", frame, dur)

    return reserve


def _estimator_predict(rec: Recorder, fn):
    stack = rec.stack

    def predict(self, job, elapsed, now):
        if not rec.enabled:
            return fn(self, job, elapsed, now)
        name = (
            "predictor.predict.conditioned"
            if elapsed > 0
            else "predictor.predict.unconditioned"
        )
        frame = [0.0, 0, name]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(self, job, elapsed, now)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.close(name, frame, dur)

    return predict


def _view_estimate(rec: Recorder, fn):
    """Counts estimate lookups of the workload's own engines (no span)."""

    def estimate(self, qj):
        if rec.enabled and rec.engine_depth == 1:
            rec.estimate_lookups += 1
        return fn(self, qj)

    return estimate


def _service_predict(rec: Recorder, fn):
    """A query is a hit when it opened no child span (no walk, no freeze)."""
    stack = rec.stack

    def predict(self, job_id):
        if not rec.enabled:
            return fn(self, job_id)
        frame = [0.0, 0, "service.predict"]
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(self, job_id)
        finally:
            dur = _perf() - t0
            stack.pop()
            rec.close(
                "service.predict.miss" if frame[1] else "service.predict.hit",
                frame,
                dur,
            )

    return predict


@contextmanager
def patched(rec: Recorder):
    """Install the span wrappers for the duration of the block.

    Class methods are replaced on the class, so every instance — and
    every bound method fetched after the patch, such as the
    ``profile.reserve`` the backfill walk caches — goes through the
    wrapper.  Module functions are replaced in every loaded ``repro``
    module whose global still names the original, because callers look
    them up in their own module's globals.
    """
    from repro.predictors.base import PointEstimator
    from repro.scheduler.policies import (
        BackfillPolicy,
        EASYBackfillPolicy,
        FCFSPolicy,
        LWFPolicy,
    )
    from repro.scheduler.policies.backfill import AvailabilityProfile
    from repro.scheduler.simulator import SchedulerView, Simulator
    from repro.service.service import PredictionService

    undo: list[tuple[object, str, object]] = []

    def swap(owner, attr, wrap, *args):
        old = owner.__dict__[attr]
        undo.append((owner, attr, old))
        setattr(owner, attr, wrap(rec, old, *args))

    try:
        swap(Simulator, "run", _engine_run)
        swap(SchedulerView, "estimate", _view_estimate)
        for cls in (FCFSPolicy, LWFPolicy, BackfillPolicy, EASYBackfillPolicy):
            swap(cls, "select", _policy_select)
        swap(AvailabilityProfile, "reserve", _profile_reserve)
        swap(AvailabilityProfile, "rebuild", _span, "profile.rebuild")
        swap(PointEstimator, "predict", _estimator_predict)
        swap(PointEstimator, "on_finish", _span, "predictor.on_finish")
        for attr in ("submit", "start", "finish"):
            swap(PredictionService, attr, _span, "service.ingest")
        swap(PredictionService, "predict", _service_predict)
        for fn_name, (home, span_name) in _WAITPRED_FUNCTIONS.items():
            original = getattr(importlib.import_module(home), fn_name)
            wrapper = _span(rec, original, span_name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and getattr(mod, fn_name, None) is original:
                    undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        yield rec
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorder's totals over ``wall_s`` seconds."""
    st = rec.stats

    def calls(name):
        return st[name][0]

    def self_s(*names):
        return sum(st[n][2] for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in st.items():
        layer_self[name.split(".", 1)[0]] += s
    selects = calls("policy.select")
    reserves = calls("profile.reserve")
    conditioned = calls("predictor.predict.conditioned")
    unconditioned = calls("predictor.predict.unconditioned")
    residual = wall_s - rec.top_s
    out = {
        "engine.events": rec.engine_events,
        "engine.passes": rec.engine_passes,
        "engine.self_s": layer_self["engine"],
        "policy.select_calls": selects,
        "policy.select_self_s": layer_self["policy"],
        "policy.useful_pass_ratio": rec.useful_selects / selects if selects else 0.0,
        "policy.reserves_per_select": rec.reserves_in_select / selects if selects else 0.0,
        "profile.reserve_calls": reserves,
        "profile.reserve_s": self_s("profile.reserve"),
        "profile.rebuild_calls": calls("profile.rebuild"),
        "profile.rebuild_s": self_s("profile.rebuild"),
        "profile.breakpoints_mean": rec.breakpoints / reserves if reserves else 0.0,
        "predictor.predict_calls.conditioned": conditioned,
        "predictor.predict_calls.unconditioned": unconditioned,
        "predictor.predict_s.conditioned": self_s("predictor.predict.conditioned"),
        "predictor.predict_s.unconditioned": self_s("predictor.predict.unconditioned"),
        "predictor.calls_per_pass": (
            (conditioned + unconditioned) / rec.engine_passes if rec.engine_passes else 0.0
        ),
        "predictor.on_finish_calls": calls("predictor.on_finish"),
        "predictor.on_finish_s": self_s("predictor.on_finish"),
        "waitpred.predict_wait_calls": calls("waitpred.predict_wait"),
        "waitpred.predict_wait_self_s": self_s("waitpred.predict_wait"),
        "waitpred.forward_simulate_calls": calls("waitpred.forward_simulate"),
        "waitpred.forward_simulate_s": self_s("waitpred.forward_simulate"),
        "waitpred.fast_walk_calls": calls("waitpred.fast_walk"),
        "waitpred.fast_walk_s": self_s("waitpred.fast_walk"),
        "service.ingest_s": self_s("service.ingest"),
        "service.hit_s": self_s("service.predict.hit"),
        "service.miss_self_s": self_s("service.predict.miss"),
        "trace.wall_s": wall_s,
        "trace.residual_s": residual,
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = layer_self[layer] / wall_s if wall_s else 0.0
    out["share.residual"] = residual / wall_s if wall_s else 0.0
    return out


#: Metrics that count work; a traced pass must repeat them exactly.
COUNT_METRICS = (
    "engine.events",
    "engine.passes",
    "policy.select_calls",
    "policy.useful_pass_ratio",
    "policy.reserves_per_select",
    "profile.reserve_calls",
    "profile.rebuild_calls",
    "profile.breakpoints_mean",
    "predictor.predict_calls.conditioned",
    "predictor.predict_calls.unconditioned",
    "predictor.calls_per_pass",
    "predictor.on_finish_calls",
    "waitpred.predict_wait_calls",
    "waitpred.forward_simulate_calls",
    "waitpred.fast_walk_calls",
)
