"""The wait-planning walk and its exact-shortcut dispatch.

The reference implementation of the paper's §3 technique is an
event-driven forward simulation (:func:`repro.scheduler.simulator.forward_simulate`).
For two important cases the predicted start time admits a direct
profile computation that avoids the event machinery entirely:

- **FCFS, always.**  FCFS ignores estimates, jobs start in arrival
  order, and after a job's (monotone) start the availability profile is
  non-decreasing, so planning each queued job at its earliest feasible
  instant — floored at the previous job's start — replays the event
  semantics exactly.
- **Backfill, when the believed durations equal the scheduler's
  estimates.**  Conservative backfill's reservation plan is a fixed
  point under replanning when every job finishes exactly as estimated:
  the plan computed once at the snapshot instant is the schedule.

Greedy LWF has no such shortcut (a lower-priority job that starts in a
gap may genuinely delay a higher-priority one, which replanning
captures and a one-shot plan does not), and neither does backfill with
``durations != estimates`` (finish events trigger replans that shift
reservations).

Both shortcuts are one walk, :func:`plan_starts`: reserve each queued
job on an availability profile in arrival order.  It runs unchanged over
a scalar :class:`~repro.scheduler.policies.backfill.AvailabilityProfile`
(the functions below) and over a
:class:`~repro.scheduler.policies.backfill.BatchAvailabilityProfile`
(the many-worlds engine, :mod:`repro.waitpred.manyworlds`).
:func:`_shortcut` is the one place that decides which walk, if any, is
exact; :func:`predict_start_fast`, the prediction service and the
many-worlds engine all dispatch through it and fall back to the
reference simulation when it answers ``None``.

The equivalence of shortcut and reference is property-tested in
``tests/test_waitpred_fast.py``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.scheduler.policies import BackfillPolicy, FCFSPolicy
from repro.scheduler.policies.backfill import AvailabilityProfile
from repro.scheduler.policies.base import Policy
from repro.scheduler.simulator import SystemSnapshot, forward_simulate

__all__ = [
    "UnknownJobError",
    "plan_starts",
    "fcfs_predicted_start",
    "fcfs_predicted_starts",
    "backfill_predicted_start",
    "backfill_predicted_starts",
    "predict_start_fast",
]

#: The one duration floor of the planning walk: the policy's own floor,
#: so a plan over predicted durations is a fixed point of its replanning.
_EPS = BackfillPolicy.min_duration


class UnknownJobError(KeyError):
    """A wait query named a job the snapshot's queue does not contain.

    Raised instead of a bare :class:`KeyError` by the prediction query
    path so callers (the prediction service in particular) can tell
    "you asked about a job that already started, finished, or was never
    submitted" apart from a programming error.  Subclasses
    :class:`KeyError`, so pre-existing ``except KeyError`` handling
    keeps working.
    """

    def __init__(self, job_id: int, reason: str = "not in snapshot queue") -> None:
        super().__init__(job_id)
        self.job_id = job_id
        self.reason = reason

    def __str__(self) -> str:
        return f"job {self.job_id} {self.reason}"


def plan_starts(
    profile, nodes: Iterable[int], durations: Iterable, *, fcfs: bool
) -> Iterator:
    """Yield each queued job's planned start, in arrival order.

    ``nodes`` and ``durations`` describe the queue in arrival order;
    durations must already be floored at ``_EPS``.  Each job is reserved
    on ``profile`` at its earliest feasible start — floored at the
    previous job's start under FCFS, unfloored under backfill.  The
    profile is either scalar (float durations, float starts) or batched
    (``(S,)`` durations, ``(S,)`` starts); the walk is the same.
    """
    start = None
    for n, d in zip(nodes, durations):
        start = profile.reserve(n, d, not_before=start if fcfs else None)
        yield start


def _shortcut(
    policy: Policy,
    durations: dict[int, float] | None,
    estimates: dict[int, float] | None,
) -> bool | None:
    """Which exact walk answers ``policy``: ``True`` FCFS, ``False``
    backfill, ``None`` none (simulate).

    FCFS never consults estimates, so its walk is always exact.  The
    backfill walk is exact only in the self-consistent imagined world:
    no separate ``estimates``, or estimates equal to ``durations``.
    """
    if isinstance(policy, FCFSPolicy):
        return True
    if isinstance(policy, BackfillPolicy) and (
        estimates is None
        or all(
            math.isclose(estimates.get(jid, float("nan")), d, rel_tol=1e-12)
            for jid, d in durations.items()
        )
    ):
        return False
    return None


def _duration_of(durations: dict[int, float], job_id: int) -> float:
    """``durations[job_id]`` with a typed error naming the missing job."""
    try:
        return durations[job_id]
    except KeyError:
        raise UnknownJobError(
            job_id, "has no entry in the supplied durations"
        ) from None


def _walk(
    snapshot: SystemSnapshot, durations: dict[int, float], *, fcfs: bool
) -> Iterator[tuple[int, float]]:
    """``(job_id, start)`` pairs from :func:`plan_starts` over the
    snapshot's queue, seeded from its running jobs' predicted releases."""
    now = snapshot.now
    used = sum(rj.job.nodes for rj in snapshot.running)
    releases = [
        (
            now + max(_duration_of(durations, rj.job_id) - rj.elapsed(now), _EPS),
            rj.job.nodes,
        )
        for rj in snapshot.running
    ]
    profile = AvailabilityProfile.from_releases(
        now, snapshot.total_nodes - used, snapshot.total_nodes, releases
    )
    queued = snapshot.queued
    starts = plan_starts(
        profile,
        (qj.job.nodes for qj in queued),
        (max(_duration_of(durations, qj.job_id), _EPS) for qj in queued),
        fcfs=fcfs,
    )
    return zip((qj.job_id for qj in queued), starts)


def _start_of(walk: Iterator[tuple[int, float]], target_job_id: int) -> float:
    """Advance ``walk`` until ``target_job_id`` is planned; its start."""
    for job_id, start in walk:
        if job_id == target_job_id:
            return start
    raise UnknownJobError(target_job_id)


def fcfs_predicted_start(
    snapshot: SystemSnapshot, durations: dict[int, float], target_job_id: int
) -> float:
    """Exact FCFS predicted start of ``target_job_id`` (no event loop)."""
    return _start_of(_walk(snapshot, durations, fcfs=True), target_job_id)


def fcfs_predicted_starts(
    snapshot: SystemSnapshot, durations: dict[int, float]
) -> dict[int, float]:
    """Exact FCFS predicted starts of *every* queued job, in one walk.

    Returns ``{job_id: start}`` for the whole queue — the batch form the
    prediction service uses to answer a whole epoch's queries from one
    profile pass.  Each entry is bit-identical to the single-target
    :func:`fcfs_predicted_start`.
    """
    return dict(_walk(snapshot, durations, fcfs=True))


def backfill_predicted_start(
    snapshot: SystemSnapshot, durations: dict[int, float], target_job_id: int
) -> float:
    """Predicted start under conservative backfill with trusted estimates.

    Exact only when the scheduler's estimates equal ``durations`` (the
    self-consistent imagined world); callers must ensure that.
    """
    return _start_of(_walk(snapshot, durations, fcfs=False), target_job_id)


def backfill_predicted_starts(
    snapshot: SystemSnapshot, durations: dict[int, float]
) -> dict[int, float]:
    """Backfill predicted starts of every queued job, in one walk.

    Batch form of :func:`backfill_predicted_start` (same exactness
    caveat: the scheduler's estimates must equal ``durations``); each
    entry is bit-identical to the single-target call.
    """
    return dict(_walk(snapshot, durations, fcfs=False))


def predict_start_fast(
    snapshot: SystemSnapshot,
    policy: Policy,
    durations: dict[int, float],
    target_job_id: int,
    *,
    estimates: dict[int, float] | None = None,
) -> float:
    """Predicted start time, by shortcut when exact, else by simulation.

    Drop-in equivalent of
    :func:`repro.scheduler.simulator.forward_simulate` with identical
    semantics and results (bit-equal up to float associativity).
    """
    fcfs = _shortcut(policy, durations, estimates)
    if fcfs is None:
        return forward_simulate(
            snapshot, policy, durations, target_job_id, estimates=estimates
        )
    walk = fcfs_predicted_start if fcfs else backfill_predicted_start
    return walk(snapshot, durations, target_job_id)
