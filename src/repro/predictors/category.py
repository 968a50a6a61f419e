"""Categories: the per-template history buckets predictions come from.

A :class:`Category` accumulates :class:`DataPoint` observations from
completed jobs that matched one template's key, bounded by the template's
maximum history (oldest evicted first, §2.1 step 3(b)ii).  Predictions
come from the template's estimator:

- ``mean`` — sample mean of the stored datum with a Student-t prediction
  interval;
- ``linear`` / ``inverse`` / ``log`` — least squares of the datum against
  the (transformed) node count, evaluated at the queried job's nodes,
  with the OLS prediction interval.

For *relative* templates the stored datum is ``run_time / max_run_time``
and predictions are scaled back by the queried job's own maximum.

A prediction conditioned on an elapsed time uses only the points whose
total run time is at least ``elapsed`` (corrected §2.1 semantics).  To
make that subset cheap, a category keeps, beside its eviction-order
deque, its points sorted by ``(run_time, insertion seq)``: the subset is
the suffix starting at ``r = bisect_left(run_times, elapsed)``.  The
first conditioned prediction after the history changes makes one reverse
Welford pass over the sorted values, giving the mean and M2 of every
suffix, so a conditioned ``mean`` estimate is a bisect plus O(1)
arithmetic.  Regression templates fit the same suffix, sliced from numpy
columns built once per change.  The unconditioned ``mean`` estimate
(``elapsed == 0``) reads the incrementally maintained
:class:`~repro.stats.ci.RunningMoments` instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.stats.ci import RunningMoments, interval_half_width, t_quantile
from repro.stats.regression import fit_inverse, fit_linear, fit_logarithmic
from repro.predictors.templates import Template
from repro.workloads.job import Job

__all__ = ["DataPoint", "Category"]

_FITTERS = {
    "linear": fit_linear,
    "inverse": fit_inverse,
    "log": fit_logarithmic,
}

#: Minimum points for a valid prediction: 2 gives a defined variance for
#: the mean; regressions need 3 for a prediction interval.
_MIN_POINTS_MEAN = 2
_MIN_POINTS_REGRESSION = 3


@dataclass(frozen=True)
class DataPoint:
    """One completed job's contribution to a category."""

    run_time: float
    nodes: int
    value: float  # run_time, or run_time / max_run_time for relative templates


def _suffix_moments(values: list[float]) -> tuple[list[float], list[float]]:
    """``(means, m2s)`` where entry ``r`` describes ``values[r:]``.

    One reverse pass of Welford's update; differences from the running
    mean keep tight suffixes free of the cancellation raw power sums
    suffer.
    """
    n = len(values)
    means = [0.0] * n
    m2s = [0.0] * n
    mean = m2 = 0.0
    for r in range(n - 1, -1, -1):
        x = values[r]
        delta = x - mean
        mean += delta / (n - r)
        m2 += delta * (x - mean)
        means[r] = mean
        m2s[r] = m2
    return means, m2s


class Category:
    """Bounded history of similar jobs with an attached estimator."""

    def __init__(self, template: Template) -> None:
        self.template = template
        self._points: deque[DataPoint] = deque()  # insertion order
        self._moments = RunningMoments()
        self._seq = 0  # insertion sequence number of the next point
        # (run_time, seq, value, nodes) sorted by (run_time, seq), and the
        # run times alone for bisecting.
        self._sorted: list[tuple[float, int, float, int]] = []
        self._run_times: list[float] = []
        # Per-suffix statistics over ``_sorted``, rebuilt on first use
        # after a change: (means, m2s) for mean templates, (nodes, values)
        # columns for regressions.
        self._suffix: tuple | None = None

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> tuple[DataPoint, ...]:
        return tuple(self._points)

    def add(self, job: Job) -> None:
        """Insert a completed job, evicting the oldest at capacity."""
        if self.template.relative:
            if job.max_run_time is None:
                raise ValueError(
                    f"relative template {self.template.describe()} cannot store "
                    f"job {job.job_id} without a max run time"
                )
            value = job.run_time / job.max_run_time
        else:
            value = job.run_time
        limit = self.template.max_history
        if limit is not None and len(self._points) >= limit:
            old_seq = self._seq - len(self._points)
            old = self._points.popleft()
            self._moments.remove(old.value)
            i = bisect_left(self._sorted, (old.run_time, old_seq))
            del self._sorted[i]
            del self._run_times[i]
        self._points.append(DataPoint(run_time=job.run_time, nodes=job.nodes, value=value))
        self._moments.add(value)
        # The new seq is the largest, so it sorts after every equal run time.
        i = bisect_right(self._run_times, job.run_time)
        self._sorted.insert(i, (job.run_time, self._seq, value, job.nodes))
        self._run_times.insert(i, job.run_time)
        self._seq += 1
        self._suffix = None

    def _suffix_stats(self) -> tuple:
        if self._suffix is None:
            if self.template.estimator == "mean":
                self._suffix = _suffix_moments([p[2] for p in self._sorted])
            else:
                self._suffix = (
                    np.array([p[3] for p in self._sorted], dtype=float),
                    np.array([p[2] for p in self._sorted], dtype=float),
                )
        return self._suffix

    def predict(
        self, job: Job, elapsed: float = 0.0, confidence: float = 0.90
    ) -> tuple[float, float] | None:
        """``(estimate, interval_half_width)`` for ``job`` or ``None``.

        ``elapsed`` conditions the prediction on the job having already
        run that long: only historical points whose total run time is at
        least ``elapsed`` participate (corrected §2.1 semantics), and the
        estimate is floored at ``elapsed``.
        """
        if self.template.relative and job.max_run_time is None:
            return None
        kind = self.template.estimator
        if kind == "mean" and not elapsed > 0.0:
            if self._moments.count < _MIN_POINTS_MEAN:
                return None
            est, hw = self._moments.interval(confidence)
        else:
            r = bisect_left(self._run_times, elapsed)  # 0 unless conditioned
            k = len(self._run_times) - r
            if kind == "mean":
                if k < _MIN_POINTS_MEAN:
                    return None
                means, m2s = self._suffix_stats()
                t = t_quantile(k - 1, 0.5 + confidence / 2.0)
                est = means[r]
                hw = interval_half_width(t, math.sqrt(m2s[r] / (k - 1)), k)
            else:
                if k < _MIN_POINTS_REGRESSION:
                    return None
                xs, ys = self._suffix_stats()
                try:
                    fit = _FITTERS[kind](xs[r:], ys[r:])
                except ValueError:
                    return None
                est, hw = fit.prediction_interval(job.nodes, confidence)

        if self.template.relative:
            assert job.max_run_time is not None
            est *= job.max_run_time
            hw *= job.max_run_time
        est = max(est, elapsed)
        return est, max(hw, 0.0)
