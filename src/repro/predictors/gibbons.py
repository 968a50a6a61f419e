"""Gibbons' run-time predictor (paper §2.2, Table 3).

Gibbons uses a *fixed* template hierarchy, tried in order until one can
produce a valid prediction:

====  ===============  ==================
 #    Template         Predictor
====  ===============  ==================
 1    (u, e, n, rtime) mean
 2    (u, e)           linear regression
 3    (e, n, rtime)    mean
 4    (e)              linear regression
 5    (n, rtime)       mean
 6    ()               linear regression
====  ===============  ==================

Node ranges are the fixed exponential bins 1, 2-3, 4-7, 8-15, ...; the
``rtime`` component conditions the mean on the job's elapsed run time.
The regression templates operate on the *subcategories* of their parent:
a weighted linear regression of each subcategory's mean run time against
its mean node count, weighted by the inverse of the subcategory's
run-time variance.

The traces differ in which identity field plays the role of "executable":
ANL records a real executable name, CTC a LoadLeveler script, SDSC only a
queue.  The constructor's ``executable_attr="auto"`` resolves, per job,
to the first of executable / script / queue that is present, mirroring
how Gibbons' profiler would be deployed on each system.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.predictors.base import Prediction, RuntimePredictor
from repro.stats.regression import fit_weighted_linear
from repro.workloads.job import Job

__all__ = ["GibbonsPredictor", "exponential_node_bin"]


def exponential_node_bin(nodes: int) -> int:
    """Gibbons' fixed exponential node ranges: 1 | 2-3 | 4-7 | 8-15 | ..."""
    if nodes < 1:
        raise ValueError(f"nodes must be >= 1, got {nodes}")
    return int(math.floor(math.log2(nodes)))


@dataclass
class _SubCategory:
    """Points for one (parent key, node bin) cell."""

    run_times: list[float] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)

    def add(self, job: Job) -> None:
        self.run_times.append(job.run_time)
        self.nodes.append(job.nodes)

    def conditioned(self, elapsed: float) -> list[float]:
        if elapsed <= 0:
            return self.run_times
        return [t for t in self.run_times if t >= elapsed]

    def mean_run_time(self) -> float:
        return sum(self.run_times) / len(self.run_times)

    def mean_nodes(self) -> float:
        return sum(self.nodes) / len(self.nodes)

    def variance(self) -> float:
        n = len(self.run_times)
        if n < 2:
            return 0.0
        m = self.mean_run_time()
        return sum((t - m) ** 2 for t in self.run_times) / (n - 1)


class GibbonsPredictor(RuntimePredictor):
    """Fixed-hierarchy historical predictor."""

    name = "gibbons"

    #: Parent template levels, most to least specific.  Each parent owns
    #: exponential-node-bin subcategories; the mean templates read one
    #: subcategory, the regression templates read all of a parent's.
    _LEVELS = ("ue", "e", "")

    def __init__(
        self,
        *,
        executable_attr: str = "auto",
        min_points: int = 2,
        min_subcategories: int = 2,
    ) -> None:
        if min_points < 1:
            raise ValueError("min_points must be >= 1")
        if min_subcategories < 2:
            raise ValueError("min_subcategories must be >= 2 (slope needs 2 points)")
        self.executable_attr = executable_attr
        self.min_points = min_points
        self.min_subcategories = min_subcategories
        # level -> parent key -> node bin -> subcategory
        self._store: dict[str, dict[tuple, dict[int, _SubCategory]]] = {
            lvl: defaultdict(dict) for lvl in self._LEVELS
        }
        # (level, parent key) -> (intercept, slope) of the regression across
        # that parent's subcategories, or None when there are too few; an
        # entry is dropped when the parent gains a point.
        self._fits: dict[tuple[str, tuple], tuple[float, float] | None] = {}

    # ------------------------------------------------------------------
    def _executable(self, job: Job) -> str | None:
        if self.executable_attr == "auto":
            return job.executable or job.script or job.queue
        return getattr(job, self.executable_attr)

    def _parent_key(self, level: str, job: Job) -> tuple | None:
        if level == "ue":
            e = self._executable(job)
            if job.user is None or e is None:
                return None
            return (job.user, e)
        if level == "e":
            e = self._executable(job)
            if e is None:
                return None
            return (e,)
        return ()

    # ------------------------------------------------------------------
    def on_finish(self, job: Job, now: float) -> None:
        nbin = exponential_node_bin(job.nodes)
        for level in self._LEVELS:
            key = self._parent_key(level, job)
            if key is None:
                continue
            subs = self._store[level][key]
            sub = subs.get(nbin)
            if sub is None:
                sub = subs[nbin] = _SubCategory()
            sub.add(job)
            self._fits.pop((level, key), None)

    # ------------------------------------------------------------------
    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        nbin = exponential_node_bin(job.nodes)
        for level in self._LEVELS:
            key = self._parent_key(level, job)
            if key is None:
                continue
            subs = self._store[level].get(key)
            if not subs:
                continue
            # Mean template on the matching subcategory.
            sub = subs.get(nbin)
            if sub is not None:
                pts = sub.conditioned(elapsed)
                if len(pts) >= self.min_points:
                    est = max(sum(pts) / len(pts), elapsed)
                    return Prediction(
                        estimate=est,
                        interval=0.0,
                        source=f"gibbons:{level or '()'}:mean",
                    )
            # Regression template across the parent's subcategories.
            est = self._regress(level, key, subs, job.nodes)
            if est is not None:
                return Prediction(
                    estimate=max(est, elapsed),
                    interval=0.0,
                    source=f"gibbons:{level or '()'}:regression",
                )
        return None

    def _regress(
        self, level: str, key: tuple, subs: dict[int, _SubCategory], nodes: int
    ) -> float | None:
        try:
            fit = self._fits[(level, key)]
        except KeyError:
            fit = self._fits[(level, key)] = self._fit(subs)
        if fit is None:
            return None
        intercept, slope = fit
        est = intercept + slope * nodes
        if not math.isfinite(est) or est <= 0.0:
            return None
        return est

    def _fit(self, subs: dict[int, _SubCategory]) -> tuple[float, float] | None:
        cells = [s for s in subs.values() if s.run_times]
        if len(cells) < self.min_subcategories:
            return None
        xs = [c.mean_nodes() for c in cells]
        ys = [c.mean_run_time() for c in cells]
        ws = []
        for c in cells:
            var = c.variance()
            if var <= 0.0:
                # Zero-variance (or single-point) cell: weight as if the
                # spread were 10% of its mean, floored at 1 s².
                var = max((0.1 * c.mean_run_time()) ** 2, 1.0)
            ws.append(1.0 / var)
        return fit_weighted_linear(xs, ys, ws)
