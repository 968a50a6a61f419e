"""The benchmark's four workloads: inputs from a seed, timed passes, checks.

Every workload starts from a calibrated paper trace
(``load_paper_workload`` at its default seed).  The benchmark seed
perturbs it: each job's submission moves by a seeded uniform offset of
at most ``JITTER_S``, which reorders nearby arrivals and gives every
seed its own schedule while keeping the trace's load.  Seed 0 is the
default, and its outputs are pinned in ``pins.json``.  Every seed is
jittered, seed 0 included: the unperturbed trace submits some jobs at
the same instant, which merges their scheduling passes and made it
replay about 1.6x faster than any jittered seed on ``sched-max``.

Regenerating the trace from the seed would be the obvious choice, but
the synthetic generator draws a new user population per seed and the
replay cost then follows the population, not the program: at
CTC x1.5 and 1,000 to 8,000 jobs the cost of one replay varied about
4x between seeds (coefficient of variation 30-58%).  A jittered trace
keeps the same jobs and load, so seeds differ by schedule, not by
difficulty.

A workload pass replays every cell once and reports, per cell, the
numbers the output checks compare: mean wait, utilization, the
wait-prediction MAE where there is one, and a digest of the schedule or
of the service's answers.  It also reports, per cell, the durations of
the *segments* its timed time is cut into: on a replay, the stretches
between consecutive timestamps taken at the start, at the entry and
exit of every query and at the end; on the service, each event and each
query.  Passes over the same inputs do the same work in the same order,
so segment ``i`` times the same code on the same data in every pass,
which is what ``run.py`` relies on to filter out the host's noise.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.registry import make_policy, make_predictor
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy
from repro.scheduler.simulator import Simulator
from repro.scheduler.validate import validate_schedule
from repro.service.service import PredictionService
from repro.waitpred.evaluation import evaluate_wait_predictions
from repro.waitpred.predictor import WaitTimePredictor, predict_wait
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Trace
from repro.workloads.transform import compress_interarrival

_perf = time.perf_counter

#: Largest submission-time offset, in seconds, a non-zero seed applies.
JITTER_S = 60.0
#: Mean number of queries issued after each service event.
QUERIES_PER_EVENT = 16
#: One query in this many is re-answered by an uncached ``predict_wait``.
PARITY_EVERY = 97


@dataclass(frozen=True)
class WorkloadSpec:
    """Which paper trace a workload replays, how many jobs of it, at what load.

    ``block`` is the number of timed passes whose segment minima make one
    figure (``run.block_figures``): enough for a block to span 15-20 s
    on an idle 2-core VM, long enough for each segment's minimum to
    hold still through the host's bursts, short enough for the whole
    round of runs to fit in an hour.
    """

    name: str
    trace: str
    n_jobs: int
    compress: float
    block: int


SPECS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("sched-smith", "CTC", 400, 1.0, 9),
        WorkloadSpec("sched-max", "CTC", 1500, 1.5, 12),
        WorkloadSpec("wait-gibbons", "ANL", 1000, 1.0, 9),
        WorkloadSpec("service-poll", "CTC", 1000, 1.5, 40),
    )
}


@dataclass
class PassResult:
    """What one pass over a workload produced and how long it took."""

    outputs: dict[str, dict]
    seconds: float  # time inside the timed regions
    jobs: int
    ops: int
    #: cell -> seconds of each segment of its timed time, in order
    segments: dict[str, np.ndarray] = field(default_factory=dict)
    #: cell -> indices of the segments that are whole queries
    queries: dict[str, np.ndarray] = field(default_factory=dict)
    #: cell -> operations it attempted (to count failures against)
    cell_ops: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failed: int = 0


def _digest(pairs) -> str:
    h = hashlib.sha1()
    for a, b in pairs:
        h.update(struct.pack("<qd", a, b))
    return h.hexdigest()


def jitter(trace: Trace, seed: int) -> Trace:
    """``trace`` with every submission moved by a seeded offset."""
    offsets = iter(np.random.default_rng(seed).uniform(-JITTER_S, JITTER_S, len(trace)))
    return trace.map(
        lambda j: j.with_(submit_time=max(0.0, j.submit_time + next(offsets)))
    )


def make_trace(spec: WorkloadSpec, seed: int) -> Trace:
    trace = load_paper_workload(spec.trace, n_jobs=spec.n_jobs)
    if spec.compress != 1.0:
        trace = compress_interarrival(trace, spec.compress)
    return jitter(trace, seed)


# ----------------------------------------------------------------------
# timing shims: the caller's view of each user-facing request
# ----------------------------------------------------------------------
class Stamps:
    """Timestamps that cut one replay's timed time into segments.

    The replay's start and end are stamped, and so are the entry and exit
    of every query, so consecutive stamps partition the whole replay.
    """

    def __init__(self) -> None:
        self.t = array("d")
        self.query = array("q")  # index of each query's segment

    def mark(self) -> None:
        self.t.append(_perf())

    def end_query(self) -> None:
        self.query.append(len(self.t) - 1)
        self.t.append(_perf())

    def segments(self) -> np.ndarray:
        return np.diff(np.frombuffer(self.t))


class TimedPolicy:
    """A policy whose every ``select`` — one scheduling decision — is timed."""

    def __init__(self, policy, stamps: Stamps) -> None:
        self.policy = policy
        self.name = policy.name
        self._stamps = stamps

    def select(self, view):
        self._stamps.mark()
        out = self.policy.select(view)
        self._stamps.end_query()
        return out


class TimedWaitObserver:
    """Forwards to a ``WaitTimePredictor``, timing each submission's prediction."""

    def __init__(self, observer: WaitTimePredictor, stamps: Stamps) -> None:
        self.observer = observer
        self._stamps = stamps

    def on_submit(self, view, qj) -> None:
        self._stamps.mark()
        self.observer.on_submit(view, qj)
        self._stamps.end_query()

    def on_finish(self, view, job) -> None:
        self.observer.on_finish(view, job)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@contextmanager
def _recording(rec):
    """Let the traced run's recorder take spans only inside timed regions."""
    if rec is not None:
        rec.enabled = True
    try:
        yield
    finally:
        if rec is not None:
            rec.enabled = False


class Workload:
    """Base: ``setup`` builds the inputs, ``run_pass`` replays them once."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.generate_s = 0.0
        self.trace: Trace | None = None
        # Filled by each pass for the traced run's per-layer metrics.
        self._estimators: list = []
        self.cache_misses = 0

    def setup(self) -> None:
        t0 = _perf()
        self.trace = make_trace(self.spec, self.seed)
        self.generate_s = _perf() - t0

    def input_digest(self) -> str:
        return _digest((j.job_id, j.submit_time) for j in self.trace)

    def estimator_stats(self) -> dict[str, int]:
        """Fallback-chain tallies of the estimators the last pass built."""
        total: dict[str, int] = {}
        for est in self._estimators:
            for key, value in est.obs_stats().items():
                total[key] = total.get(key, 0) + value
        return total


class ReplayWorkload(Workload):
    """One ``Simulator`` replay of the trace per cell (one cell per algorithm)."""

    algorithms: tuple[str, ...] = ()
    #: operations per replayed job: scheduled, plus predicted where a wait is
    ops_per_job = 1

    def replay(self, algo: str, stamps: Stamps):
        """Run one cell; return ``(cell, simulator, result, estimators, extra outputs)``."""
        raise NotImplementedError

    def run_pass(self, rec=None, *, check: bool) -> PassResult:
        trace = self.trace
        res = PassResult({}, 0.0, 0, 0)
        self._estimators = []
        self.cache_misses = 0
        for algo in self.algorithms:
            stamps = Stamps()
            with _recording(rec):
                stamps.mark()
                cell, sim, result, estimators, extra = self.replay(algo, stamps)
                stamps.mark()
            res.seconds += stamps.t[-1] - stamps.t[0]
            self._estimators += estimators
            self.cache_misses += sim.metrics_snapshot()["counters"]["sim.estimate_cache_misses"]
            res.segments[cell] = stamps.segments()
            res.queries[cell] = np.frombuffer(stamps.query, dtype=np.int64)
            res.outputs[cell] = {
                "mean_wait_min": result.mean_wait_minutes,
                "utilization_pct": result.utilization_percent,
                **extra,
                "digest": _digest((r.job_id, r.start_time) for r in result.records),
            }
            ops = self.ops_per_job * len(result)
            res.cell_ops[cell] = ops
            res.jobs += len(result)
            res.ops += ops
            if check:
                report = validate_schedule(trace, result)
                if not report.ok:
                    res.problems.append(f"{cell}: {report.violations[0]}")
                    res.failed += ops
        return res


class SchedWorkload(ReplayWorkload):
    """A predictor drives LWF and Backfill; each decision is a timed query."""

    algorithms = ("lwf", "backfill")

    def __init__(self, spec, seed, predictor: str) -> None:
        super().__init__(spec, seed)
        self.predictor = predictor

    def replay(self, algo, stamps):
        trace = self.trace
        est = PointEstimator(make_predictor(self.predictor, trace))
        sim = Simulator(TimedPolicy(make_policy(algo), stamps), est, trace.total_nodes)
        result = sim.run(trace)
        return f"{algo}/{self.predictor}", sim, result, [est], {}


class WaitWorkload(ReplayWorkload):
    """The scheduler runs on user maxima; Gibbons predicts every wait."""

    algorithms = ("fcfs", "lwf", "backfill")
    ops_per_job = 2

    def replay(self, algo, stamps):
        trace = self.trace
        policy = make_policy(algo)
        sched_est = PointEstimator(make_predictor("max", trace))
        sim = Simulator(policy, sched_est, trace.total_nodes)
        observer = WaitTimePredictor(
            policy, make_predictor("gibbons", trace), scheduler_estimator=sched_est
        )
        sim.add_observer(TimedWaitObserver(observer, stamps))
        result = sim.run(trace)
        report = evaluate_wait_predictions(result, observer.predicted_waits)
        return (
            f"{algo}/gibbons", sim, result, [sched_est, observer.estimator],
            {"mae_min": report.mean_abs_error_minutes},
        )


SUBMIT, START, FINISH = 0, 1, 2


class _StreamRecorder:
    """Simulator observer recording the submit/start/finish stream."""

    def __init__(self) -> None:
        self.events: list[tuple[int, object, float]] = []

    def on_submit(self, view, qj) -> None:
        self.events.append((SUBMIT, qj.job, view.now))

    def on_start(self, view, job) -> None:
        self.events.append((START, job.job_id, view.now))

    def on_finish(self, view, job) -> None:
        self.events.append((FINISH, job.job_id, view.now))


class ServiceWorkload(Workload):
    """Replay a recorded event stream into the service with seeded queries."""

    CELL = "backfill/max"

    def __init__(self, spec, seed) -> None:
        super().__init__(spec, seed)
        self.service_counters: dict = {}

    def setup(self) -> None:
        super().setup()
        trace = self.trace
        recorder = _StreamRecorder()
        sim = Simulator(
            BackfillPolicy(), PointEstimator(make_predictor("max", trace)), trace.total_nodes
        )
        sim.add_observer(recorder)
        sim.run(trace)
        self.events = recorder.events
        # The query plan: after each event, a geometric (discrete
        # exponential) number of queries with mean QUERIES_PER_EVENT, each
        # on a uniformly chosen queued job.
        rng = np.random.default_rng(self.seed)
        counts = rng.geometric(1.0 / (QUERIES_PER_EVENT + 1), len(self.events)) - 1
        queued: list[int] = []
        where: dict[int, int] = {}
        self.query_counts = array("l")
        self.query_ids = array("q")
        self.max_queue = 0
        for (kind, arg, _), k in zip(self.events, counts):
            if kind == SUBMIT:
                where[arg.job_id] = len(queued)
                queued.append(arg.job_id)
            elif kind == START:
                i = where.pop(arg)
                last = queued.pop()
                if last != arg:
                    queued[i] = last
                    where[last] = i
            self.max_queue = max(self.max_queue, len(queued))
            k = int(k) if queued else 0
            self.query_counts.append(k)
            if k:
                for i in rng.integers(0, len(queued), k):
                    self.query_ids.append(queued[i])
        n = len(self.query_ids)
        self.parity_mask = rng.integers(0, PARITY_EVERY, n) == 0

    def input_digest(self) -> str:
        plan = self.query_counts.tobytes() + self.query_ids.tobytes()
        return super().input_digest() + hashlib.sha1(plan).hexdigest()

    def run_pass(self, rec=None, *, check: bool) -> PassResult:
        trace = self.trace
        res = PassResult({}, 0.0, len(trace), 0)
        est = PointEstimator(make_predictor("max", trace))
        svc = PredictionService(BackfillPolicy(), est, trace.total_nodes)
        self._estimators = [est]
        segments = array("d")  # each event and each query, in order
        queries = array("q")
        answers = array("d")
        ids = self.query_ids
        parity = self.parity_mask
        submit, start, finish, predict = svc.submit, svc.start, svc.finish, svc.predict
        qi = 0
        with _recording(rec):
            for (kind, arg, now), k in zip(self.events, self.query_counts):
                t0 = _perf()
                if kind == SUBMIT:
                    submit(arg, now)
                elif kind == START:
                    start(arg, now)
                else:
                    finish(arg, now)
                dt = _perf() - t0
                res.seconds += dt
                segments.append(dt)
                for _ in range(k):
                    jid = ids[qi]
                    t0 = _perf()
                    try:
                        wait = predict(jid)
                    except Exception as exc:  # a raising query is a failed operation
                        dt = _perf() - t0
                        res.failed += 1
                        res.problems.append(f"query for job {jid} raised {exc!r}")
                        wait = math.nan
                    else:
                        dt = _perf() - t0
                    res.seconds += dt
                    queries.append(len(segments))
                    segments.append(dt)
                    answers.append(wait)
                    # Checked passes are never traced, so the uncached
                    # answer opens no spans.
                    if check and parity[qi]:
                        uncached = predict_wait(svc.snapshot(), svc.policy, est, jid)
                        if uncached != wait:
                            res.failed += 1
                            res.problems.append(
                                f"job {jid}: cached {wait!r} != uncached {uncached!r}"
                            )
                    qi += 1
        res.segments[self.CELL] = np.frombuffer(segments)
        res.queries[self.CELL] = np.frombuffer(queries, dtype=np.int64)
        self.service_counters = svc.stats()["counters"]
        res.ops = len(self.events) + len(answers)
        res.cell_ops[self.CELL] = res.ops
        res.outputs[self.CELL] = {
            "queries": len(answers),
            "misses": self.service_counters["service.cache_misses"],
            "max_queue": self.max_queue,
            "answers": hashlib.sha1(answers.tobytes()).hexdigest(),
        }
        return res


def build(name: str, seed: int) -> Workload:
    spec = SPECS[name]
    if name == "sched-smith":
        return SchedWorkload(spec, seed, "smith")
    if name == "sched-max":
        return SchedWorkload(spec, seed, "max")
    if name == "wait-gibbons":
        return WaitWorkload(spec, seed)
    return ServiceWorkload(spec, seed)
