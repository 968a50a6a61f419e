"""The paper's run-time predictor (Smith/Foster/Taylor).

Given a set of templates, each completed job is inserted into one
category per template (created on demand, bounded by the template's
maximum history).  To predict a job's run time, every template is applied
to the job; categories that exist and can produce a valid estimate each
offer ``(estimate, confidence interval)``, and **the estimate with the
smallest confidence interval wins** (§2.1 step 2(d)).  That selection
rule is the heart of the technique: specific-but-sparse categories
compete with generic-but-populous ones on the tightness of what they
claim to know.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.predictors.base import Prediction, RuntimePredictor
from repro.predictors.category import Category
from repro.predictors.templates import Template, default_templates
from repro.workloads.job import Job, Trace

__all__ = ["SmithPredictor"]


class SmithPredictor(RuntimePredictor):
    """Template-set historical predictor with smallest-CI selection."""

    name = "smith"

    def __init__(
        self,
        templates: Iterable[Template] | None = None,
        *,
        confidence: float = 0.90,
    ) -> None:
        tpl = list(templates) if templates is not None else default_templates(None)
        if not tpl:
            raise ValueError("SmithPredictor requires at least one template")
        if not 0 < confidence < 1:
            raise ValueError(f"confidence must be in (0,1), got {confidence}")
        self.templates: tuple[Template, ...] = tuple(tpl)
        self.confidence = confidence
        # Categories keyed by (template index, category key).
        self._categories: dict[tuple[int, tuple], Category] = {}
        # job_id -> (job, its category keys): computing a job's keys costs
        # one attribute walk per template, and a queued or running job is
        # predicted on every scheduling pass.  Keyed by id but checked by
        # identity, so a ``with_()`` copy reusing the id gets its own keys.
        self._keys: dict[int, tuple[Job, tuple[tuple[int, tuple], ...]]] = {}
        # How often each template's category won the smallest-CI contest.
        self._wins: list[int] = [0] * len(self.templates)
        self._misses = 0

    @classmethod
    def for_trace(cls, trace: Trace, **kwargs) -> "SmithPredictor":
        """A predictor with curated default templates for a trace."""
        has_max = any(j.max_run_time is not None for j in trace)
        return cls(
            default_templates(trace.available_fields, has_max_run_time=has_max),
            **kwargs,
        )

    # ------------------------------------------------------------------
    def predict(self, job: Job, elapsed: float = 0.0, now: float = 0.0) -> Prediction | None:
        best: tuple[float, float, int] | None = None  # (interval, estimate, idx)
        for cat_key in self._category_keys(job):
            cat = self._categories.get(cat_key)
            if cat is None:
                continue
            result = cat.predict(job, elapsed, self.confidence)
            if result is None:
                continue
            est, hw = result
            if best is None or hw < best[0]:
                best = (hw, est, cat_key[0])
        if best is None:
            self._misses += 1
            return None
        hw, est, idx = best
        self._wins[idx] += 1
        return Prediction(
            estimate=est, interval=hw, source=self.templates[idx].describe()
        )

    def on_finish(self, job: Job, now: float) -> None:
        for cat_key in self._category_keys(job):
            cat = self._categories.get(cat_key)
            if cat is None:
                cat = Category(self.templates[cat_key[0]])
                self._categories[cat_key] = cat
            cat.add(job)
        self._keys.pop(job.job_id, None)

    def _category_keys(self, job: Job) -> tuple[tuple[int, tuple], ...]:
        """``((template index, category key), ...)`` for the job, memoized."""
        entry = self._keys.get(job.job_id)
        if entry is not None and entry[0] is job:
            return entry[1]
        keys = []
        for idx, template in enumerate(self.templates):
            key = template.category_key(job)
            if key is not None:
                keys.append((idx, key))
        out = tuple(keys)
        self._keys[job.job_id] = (job, out)
        return out

    # ------------------------------------------------------------------
    @property
    def category_count(self) -> int:
        return len(self._categories)

    def usage_stats(self) -> dict[str, int]:
        """Smallest-CI wins per template (plus unserved predictions).

        Diagnostic for template-set tuning: templates that never win are
        dead weight; a large ``(no prediction)`` count signals ramp-up
        or coverage gaps.
        """
        stats = {
            t.describe(): wins for t, wins in zip(self.templates, self._wins)
        }
        stats["(no prediction)"] = self._misses
        return stats

    def categories_for(self, job: Job) -> Sequence[Category]:
        """Existing categories this job falls into (for inspection/tests)."""
        out = []
        for cat_key in self._category_keys(job):
            cat = self._categories.get(cat_key)
            if cat is not None:
                out.append(cat)
        return out
