"""Tests for the Smith template-set predictor."""

from __future__ import annotations

import pytest

from repro.predictors.base import PointEstimator
from repro.predictors.smith import SmithPredictor
from repro.predictors.templates import Template
from tests.conftest import make_job


def feed(predictor, jobs):
    for j in jobs:
        predictor.on_finish(j, j.submit_time + j.run_time)


class TestLifecycle:
    def test_no_history_no_prediction(self):
        p = SmithPredictor([Template(characteristics=("u",))])
        assert p.predict(make_job()) is None

    def test_prediction_after_two_similar_jobs(self):
        p = SmithPredictor([Template(characteristics=("u",))])
        feed(p, [make_job(run_time=100.0), make_job(run_time=120.0)])
        pred = p.predict(make_job())
        assert pred is not None
        assert pred.estimate == pytest.approx(110.0)

    def test_dissimilar_jobs_do_not_help(self):
        p = SmithPredictor([Template(characteristics=("u",))])
        feed(p, [make_job(user="bob", run_time=100.0)] * 1)
        feed(p, [make_job(user="bob", run_time=100.0, job_id=None)])
        assert p.predict(make_job(user="alice")) is None

    def test_requires_templates(self):
        with pytest.raises(ValueError):
            SmithPredictor([])

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            SmithPredictor([Template()], confidence=1.5)

    def test_categories_created_on_finish(self):
        p = SmithPredictor([Template(characteristics=("u",)), Template()])
        assert p.category_count == 0
        feed(p, [make_job()])
        assert p.category_count == 2  # one per template


class TestSmallestIntervalSelection:
    def test_tight_specific_category_beats_loose_generic(self):
        """The paper's core mechanism (§2.1 step 2d)."""
        specific = Template(characteristics=("u", "e"))
        generic = Template()
        p = SmithPredictor([specific, generic])
        # Alice's 'sim' runs are tightly clustered around 100.
        feed(
            p,
            [
                make_job(user="alice", executable="sim", run_time=rt)
                for rt in (98.0, 100.0, 102.0)
            ],
        )
        # Unrelated jobs are wildly spread, polluting only the generic category.
        feed(
            p,
            [
                make_job(user="bob", executable="other", run_time=rt)
                for rt in (10.0, 5000.0, 20000.0)
            ],
        )
        pred = p.predict(make_job(user="alice", executable="sim"))
        assert pred is not None
        assert pred.estimate == pytest.approx(100.0, rel=0.05)
        assert pred.source == "(u, e)"

    def test_falls_back_to_generic_for_unknown_user(self):
        p = SmithPredictor([Template(characteristics=("u",)), Template()])
        feed(p, [make_job(user="bob", run_time=100.0),
                 make_job(user="bob", run_time=200.0)])
        pred = p.predict(make_job(user="newcomer"))
        assert pred is not None
        assert pred.source == "()"
        assert pred.estimate == pytest.approx(150.0)

    def test_prediction_reports_interval(self):
        p = SmithPredictor([Template()])
        feed(p, [make_job(run_time=100.0), make_job(run_time=300.0)])
        pred = p.predict(make_job())
        assert pred.interval > 0


class TestElapsedAndHistory:
    def test_elapsed_conditioning_raises_estimate(self):
        p = SmithPredictor([Template()])
        feed(p, [make_job(run_time=rt) for rt in (50.0, 60.0, 5000.0, 6000.0)])
        fresh = p.predict(make_job(), elapsed=0.0)
        aged = p.predict(make_job(), elapsed=1000.0)
        assert aged.estimate > fresh.estimate
        assert aged.estimate >= 1000.0

    def test_max_history_bounds_category(self):
        p = SmithPredictor([Template(max_history=3)])
        feed(p, [make_job(run_time=1000.0)] * 0)
        for rt in (1000.0, 1000.0, 10.0, 10.0, 10.0):
            p.on_finish(make_job(run_time=rt), 0.0)
        pred = p.predict(make_job())
        assert pred.estimate == pytest.approx(10.0)

    def test_relative_template_uses_job_max(self):
        p = SmithPredictor([Template(relative=True)])
        feed(
            p,
            [
                make_job(run_time=50.0, max_run_time=100.0),
                make_job(run_time=100.0, max_run_time=200.0),
            ],
        )
        pred = p.predict(make_job(max_run_time=600.0))
        assert pred.estimate == pytest.approx(300.0)

    def test_for_trace_restricts_templates(self, sdsc_trace):
        p = SmithPredictor.for_trace(sdsc_trace)
        used = {c for t in p.templates for c in t.characteristics}
        assert used <= {"q", "u"}

    def test_multiple_categories_listed(self):
        p = SmithPredictor([Template(characteristics=("u",)), Template()])
        feed(p, [make_job()])
        assert len(p.categories_for(make_job())) == 2


class TestUsageStats:
    def test_wins_attributed_to_winning_template(self):
        specific = Template(characteristics=("u", "e"))
        generic = Template()
        p = SmithPredictor([specific, generic])
        feed(
            p,
            [
                make_job(user="alice", executable="sim", run_time=rt)
                for rt in (98.0, 100.0, 102.0)
            ],
        )
        p.predict(make_job(user="alice", executable="sim"))
        stats = p.usage_stats()
        assert stats["(u, e)"] == 1
        assert stats["()"] == 0

    def test_misses_counted(self):
        p = SmithPredictor([Template(characteristics=("u",))])
        p.predict(make_job(user="nobody"))
        assert p.usage_stats()["(no prediction)"] == 1

    def test_counts_accumulate(self):
        p = SmithPredictor([Template()])
        feed(p, [make_job(run_time=10.0), make_job(run_time=20.0)])
        for _ in range(5):
            p.predict(make_job())
        assert p.usage_stats()["()"] == 5


class TestCategoryKeyMemo:
    def _two_users(self):
        p = SmithPredictor([Template(characteristics=("u",))])
        feed(p, [make_job(user="alice", run_time=rt) for rt in (100.0, 110.0, 120.0)])
        feed(p, [make_job(user="bob", run_time=rt) for rt in (1000.0, 1100.0, 1200.0)])
        return p

    def test_copy_sharing_the_id_uses_its_own_categories(self):
        p = self._two_users()
        job = make_job(job_id=999, user="alice")
        copy = job.with_(user="bob")
        assert p.predict(job).estimate == pytest.approx(110.0)
        assert p.predict(copy).estimate == pytest.approx(1100.0)
        assert p.predict(job).estimate == pytest.approx(110.0)
        (cat,) = p.categories_for(copy)
        assert [pt.run_time for pt in cat.points] == [1000.0, 1100.0, 1200.0]

    def test_memo_empty_after_every_job_finished(self, sdsc_trace):
        from repro.scheduler.policies import BackfillPolicy
        from repro.scheduler.simulator import Simulator

        p = SmithPredictor.for_trace(sdsc_trace)
        sim = Simulator(BackfillPolicy(), PointEstimator(p), sdsc_trace.total_nodes)
        sim.run(sdsc_trace)
        assert p.category_count > 0
        assert p._keys == {}


class TestAccuracyOnStructuredWorkload:
    def test_beats_max_runtime_on_synthetic_trace(self, anl_trace):
        """End-to-end: Smith replay error < max-run-time replay error."""
        from repro.predictors.replay import replay_prediction_error
        from repro.predictors.simple import MaxRuntimePredictor

        smith = SmithPredictor.for_trace(anl_trace)
        r_smith = replay_prediction_error(anl_trace, smith)
        r_max = replay_prediction_error(
            anl_trace, MaxRuntimePredictor.from_trace(anl_trace)
        )
        assert r_smith.mean_abs_error < r_max.mean_abs_error
