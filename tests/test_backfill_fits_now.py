"""The conservative-backfill walk's fits-now exit.

:meth:`BackfillPolicy.select` stops reserving once no queued job at or
after the walk position can start *now* on the current profile.  These
tests check that the exit is exact — the selected jobs equal the full
walk's — on generated views with running jobs, active and advance
reservations and a wide blocked head ahead of many narrow jobs, and pin
the work it saves as exact ``AvailabilityProfile.reserve`` call counts.
"""

from __future__ import annotations

from contextlib import contextmanager

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.core.registry import make_predictor
from repro.predictors.base import PointEstimator
from repro.scheduler.policies import BackfillPolicy
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.reservations import Reservation
from repro.scheduler.simulator import (
    ActiveReservation,
    PendingReservation,
    QueuedJob,
    RunningJob,
    Simulator,
)
from repro.workloads.archive import load_paper_workload
from repro.workloads.job import Job
from repro.workloads.transform import compress_interarrival
from tests.oracles.reference import ReferenceBackfillPolicy


class PassView:
    """One scheduling pass's view, built from plain numbers.

    ``spec`` is ``(total, now, running, active, pending, queue)``:
    running jobs ``(nodes, elapsed, remaining)``, active reservations
    ``(nodes, remaining)``, advance reservations ``(nodes, offset,
    duration)`` starting ``offset`` after ``now``, and queued jobs
    ``(nodes, estimate)`` in arrival order.
    """

    def __init__(self, spec) -> None:
        total, now, running, active, pending, queue = spec
        self.now = now
        self.total_nodes = total
        ids = iter(range(1, 10_000))
        self._remaining: dict[int, float] = {}
        self.running = []
        for nodes, elapsed, remaining in running:
            job = Job(next(ids), 0.0, elapsed + remaining, nodes)
            self.running.append(RunningJob(job, now - elapsed))
            self._remaining[job.job_id] = remaining
        self.active_reservations = tuple(
            ActiveReservation(Reservation(next(ids), 0.0, now + rem, nodes), now + rem)
            for nodes, rem in active
        )
        self.reservations = tuple(
            PendingReservation(Reservation(next(ids), now + off, dur, nodes), now + off)
            for nodes, off, dur in pending
        )
        held = sum(rj.job.nodes for rj in self.running)
        held += sum(a.nodes for a in self.active_reservations)
        self.free_nodes = total - held
        self._estimates: dict[int, float] = {}
        self.queued = []
        for nodes, estimate in queue:
            job = Job(next(ids), 0.0, 1.0, nodes)
            self.queued.append(QueuedJob(job))
            self._estimates[job.job_id] = estimate

    def estimate(self, qj: QueuedJob) -> float:
        return self._estimates[qj.job_id]

    def remaining(self, rj: RunningJob) -> float:
        return self._remaining[rj.job_id]


class _Discard:
    def emit(self, *args, **kwargs) -> None:
        pass


@contextmanager
def counted_reserves():
    """Count :meth:`AvailabilityProfile.reserve` calls inside the block."""
    calls = [0]
    original = AvailabilityProfile.reserve

    def reserve(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    AvailabilityProfile.reserve = reserve
    try:
        yield calls
    finally:
        AvailabilityProfile.reserve = original


def suffix_min_reserves(view) -> int:
    """Reserves of the walk the fits-now exit replaced, which stopped only
    once free nodes fell below the narrowest remaining request."""
    policy = BackfillPolicy()
    widths = [qj.job.nodes for qj in view.queued]
    free_now = view.free_nodes
    if free_now < min(widths):
        return 0
    profile = policy._seeded_profile(view)
    count = 0
    for k, qj in enumerate(view.queued):
        if free_now < min(widths[k:]):
            break
        count += 1
        duration = max(view.estimate(qj), policy.min_duration)
        if profile.reserve(widths[k], duration) <= view.now:
            free_now -= widths[k]
    return count


_DURATIONS = st.one_of(
    st.sampled_from([1e-9, 1.0, 10.0, 50.0, 100.0, 400.0, 1000.0, 5000.0]),
    st.floats(1e-3, 1e4),
)


@st.composite
def pass_specs(draw):
    total = draw(st.integers(2, 24))
    now = draw(st.sampled_from([0.0, 250.0, 1e6 + 0.5]))
    held = 0
    running = []
    for _ in range(draw(st.integers(0, 4))):
        nodes = draw(st.integers(1, total))
        if held + nodes > total:
            break
        held += nodes
        running.append((nodes, draw(st.floats(0.0, 500.0)), draw(_DURATIONS)))
    active = []
    for _ in range(draw(st.integers(0, 2))):
        nodes = draw(st.integers(1, total))
        if held + nodes > total:
            break
        held += nodes
        active.append((nodes, draw(_DURATIONS)))
    pending = [
        (draw(st.integers(1, total)), draw(st.sampled_from([0.0, 5.0, 60.0, 100.0, 300.0])),
         draw(_DURATIONS))
        for _ in range(draw(st.integers(0, 2)))
    ]
    free = total - held
    # A wide head that cannot start now, then many narrow jobs of mixed
    # durations (and the odd wide one) behind it.
    queue = [
        (draw(st.integers(min(free + 1, total), total)), draw(_DURATIONS))
        for _ in range(draw(st.integers(0, 2)))
    ]
    narrow = st.integers(1, max(1, min(free, total)))
    for _ in range(draw(st.integers(1, 14))):
        nodes = draw(st.one_of(narrow, narrow, st.integers(1, total)))
        queue.append((nodes, draw(_DURATIONS)))
    return total, now, tuple(running), tuple(active), tuple(pending), tuple(queue)


# Two nodes free until a running job ends at 100; the head needs the whole
# machine, so its reservation at 100 pushes the narrow jobs' 5000 s runs
# out: the fits-now exit stops after one reserve, the suffix-min exit
# walked all four.
BLOCKED_HEAD = (
    10, 0.0, ((8, 0.0, 100.0),), (), (), ((10, 1000.0),) + ((1, 5000.0),) * 3,
)


# The narrow job's 100 s window ends exactly where an advance reservation
# takes the machine; the head's reservation at 50 overlaps the window but
# leaves 2 nodes free in it, so the narrow job still fits and starts.
BOUNDARY_FIT = (
    10, 0.0, ((4, 0.0, 50.0), (4, 0.0, 1000.0)), (), ((10, 100.0, 10.0),),
    ((4, 10.0), (2, 100.0)),
)


def _ids(jobs):
    return [qj.job_id for qj in jobs]


@given(spec=pass_specs())
@example(spec=BLOCKED_HEAD)
@example(spec=BOUNDARY_FIT)
@settings(max_examples=300, deadline=None)
def test_fits_now_exit_selects_what_the_full_walk_selects(spec):
    view = PassView(spec)
    expected = _ids(ReferenceBackfillPolicy().select(view))
    traced = _ids(BackfillPolicy()._select_traced(view, list(view.queued), _Discard()))
    with counted_reserves() as calls:
        selected = _ids(BackfillPolicy().select(view))
    assert selected == expected
    assert traced == expected
    old = suffix_min_reserves(view)
    assert calls[0] <= old
    if calls[0] < old:
        event("fits-now exit fired before the suffix-min exit")


def test_blocked_head_example_exits_before_suffix_min():
    view = PassView(BLOCKED_HEAD)
    with counted_reserves() as calls:
        assert BackfillPolicy().select(view) == []
    assert calls[0] == 1
    assert suffix_min_reserves(view) == 4


def test_nothing_fits_now_means_no_reserve():
    # A narrow job passes the node filter (2 free, needs 2), but an
    # advance reservation takes the whole machine from t=50, before its
    # 500 s estimate ends: the pass starts nothing and reserves nothing.
    view = PassView((10, 0.0, ((8, 0.0, 100.0),), (), ((10, 50.0, 100.0),),
                     ((2, 500.0),)))
    with counted_reserves() as calls:
        assert BackfillPolicy().select(view) == []
    assert calls[0] == 0


def test_reserve_count_gate_ctc_busy_replay():
    """Exact work gate: reserves in a plain Backfill replay of CTC, 300
    jobs, arrivals x1.5, user maxima.  The suffix-min exit made 4,150."""
    trace = compress_interarrival(load_paper_workload("CTC", n_jobs=300), 1.5)
    sim = Simulator(
        BackfillPolicy(),
        PointEstimator(make_predictor("max", trace)),
        trace.total_nodes,
    )
    with counted_reserves() as calls:
        sim.run(trace)
    assert sim.schedule_passes == 428
    assert calls[0] == 1827
