"""Tests for repro.predictors.category."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.predictors.category import _FITTERS, Category
from repro.predictors.templates import ESTIMATOR_KINDS, Template
from repro.stats.ci import mean_confidence_interval
from tests.conftest import make_job


def filled(template=None, run_times=(100.0, 110.0, 120.0), **job_kw):
    cat = Category(template or Template(characteristics=("u",)))
    for rt in run_times:
        cat.add(make_job(run_time=rt, **job_kw))
    return cat


class TestInsertion:
    def test_counts(self):
        cat = filled()
        assert len(cat) == 3

    def test_max_history_evicts_oldest(self):
        t = Template(characteristics=("u",), max_history=2)
        cat = Category(t)
        for rt in (10.0, 20.0, 30.0):
            cat.add(make_job(run_time=rt))
        assert len(cat) == 2
        assert [p.run_time for p in cat.points] == [20.0, 30.0]

    def test_mean_tracks_window(self):
        t = Template(characteristics=("u",), max_history=2)
        cat = Category(t)
        for rt in (10.0, 20.0, 30.0):
            cat.add(make_job(run_time=rt))
        est, _ = cat.predict(make_job())
        assert est == pytest.approx(25.0)

    def test_relative_stores_ratio(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        assert cat.points[0].value == pytest.approx(0.5)

    def test_relative_insert_without_max_raises(self):
        t = Template(characteristics=("u",), relative=True)
        with pytest.raises(ValueError, match="max run time"):
            Category(t).add(make_job(max_run_time=None))


class TestMeanPrediction:
    def test_mean_estimate(self):
        cat = filled()
        est, hw = cat.predict(make_job())
        assert est == pytest.approx(110.0)
        assert hw > 0.0

    def test_single_point_invalid(self):
        cat = filled(run_times=(100.0,))
        assert cat.predict(make_job()) is None

    def test_empty_invalid(self):
        cat = Category(Template(characteristics=("u",)))
        assert cat.predict(make_job()) is None

    def test_tighter_data_tighter_interval(self):
        loose = filled(run_times=(10.0, 500.0, 1000.0))
        tight = filled(run_times=(400.0, 410.0, 420.0))
        _, hw_loose = loose.predict(make_job())
        _, hw_tight = tight.predict(make_job())
        assert hw_tight < hw_loose

    def test_relative_prediction_scales_by_job_max(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        cat.add(make_job(run_time=30.0, max_run_time=60.0))
        est, _ = cat.predict(make_job(max_run_time=1000.0))
        assert est == pytest.approx(500.0)  # mean ratio 0.5 * 1000

    def test_relative_prediction_without_max_invalid(self):
        t = Template(characteristics=("u",), relative=True)
        cat = Category(t)
        cat.add(make_job(run_time=50.0, max_run_time=100.0))
        cat.add(make_job(run_time=60.0, max_run_time=100.0))
        assert cat.predict(make_job(max_run_time=None)) is None


class TestElapsedConditioning:
    def test_filters_shorter_runs(self):
        cat = filled(run_times=(10.0, 1000.0, 2000.0))
        est, _ = cat.predict(make_job(), elapsed=500.0)
        assert est == pytest.approx(1500.0)  # the 10 s point is excluded

    def test_too_few_surviving_points_invalid(self):
        cat = filled(run_times=(10.0, 20.0, 2000.0))
        assert cat.predict(make_job(), elapsed=500.0) is None

    def test_estimate_at_least_elapsed(self):
        cat = filled(run_times=(100.0, 116.0, 120.0))
        est, _ = cat.predict(make_job(), elapsed=115.0)
        assert est >= 115.0

    def test_regression_estimate_floored_at_elapsed(self):
        # A negative-slope regression can predict below the elapsed time;
        # the floor must clamp it.
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for nodes, rt in [(1, 800.0), (2, 700.0), (4, 500.0), (8, 460.0)]:
            cat.add(make_job(nodes=nodes, run_time=rt))
        est, _ = cat.predict(make_job(nodes=16), elapsed=450.0)
        assert est >= 450.0


class TestRegressionPrediction:
    def test_linear_tracks_nodes(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for nodes, rt in [(1, 100.0), (2, 200.0), (4, 400.0), (8, 800.0)]:
            cat.add(make_job(nodes=nodes, run_time=rt))
        est, hw = cat.predict(make_job(nodes=6))
        assert est == pytest.approx(600.0)
        assert hw >= 0.0

    def test_regression_needs_three_points(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        cat.add(make_job(nodes=1, run_time=10.0))
        cat.add(make_job(nodes=2, run_time=20.0))
        assert cat.predict(make_job(nodes=4)) is None

    def test_inverse_estimator(self):
        t = Template(characteristics=("u",), estimator="inverse")
        cat = Category(t)
        # run_time = 50 + 100/n
        for n in (1, 2, 4, 5):
            cat.add(make_job(nodes=n, run_time=50.0 + 100.0 / n))
        est, _ = cat.predict(make_job(nodes=10))
        assert est == pytest.approx(60.0)

    def test_log_estimator(self):
        import math

        t = Template(characteristics=("u",), estimator="log")
        cat = Category(t)
        for n in (1, 2, 4, 8):
            cat.add(make_job(nodes=n, run_time=10.0 + 5.0 * math.log(n)))
        est, _ = cat.predict(make_job(nodes=16))
        assert est == pytest.approx(10.0 + 5.0 * math.log(16))

    def test_relative_regression_scales_by_job_max(self):
        # Ratios fall on ratio = 0.1 * nodes; prediction at nodes=5 is a
        # ratio of 0.5, scaled by the queried job's own maximum.
        t = Template(characteristics=("u",), relative=True, estimator="linear")
        cat = Category(t)
        for nodes in (1, 2, 4, 8):
            cat.add(
                make_job(nodes=nodes, run_time=0.1 * nodes * 1000.0,
                         max_run_time=1000.0)
            )
        est, _ = cat.predict(make_job(nodes=5, max_run_time=2000.0))
        assert est == pytest.approx(0.5 * 2000.0)

    def test_constant_nodes_degenerates_to_mean(self):
        t = Template(characteristics=("u",), estimator="linear")
        cat = Category(t)
        for rt in (100.0, 120.0, 140.0):
            cat.add(make_job(nodes=4, run_time=rt))
        est, _ = cat.predict(make_job(nodes=32))
        assert est == pytest.approx(120.0)


def reference_predict(template, history, job, elapsed, confidence=0.90):
    """The filter-then-numpy formula the sorted store replaced.

    ``history`` is every job added, oldest first; the template's maximum
    history keeps the newest ones.
    """
    if template.relative and job.max_run_time is None:
        return None
    limit = template.max_history
    kept = history[-limit:] if limit is not None else list(history)
    pts = [j for j in kept if j.run_time >= elapsed] if elapsed > 0.0 else kept
    values = [
        j.run_time / j.max_run_time if template.relative else j.run_time for j in pts
    ]
    if template.estimator == "mean":
        if len(pts) < 2:
            return None
        est, hw = mean_confidence_interval(values, confidence)
    else:
        if len(pts) < 3:
            return None
        xs = np.array([j.nodes for j in pts], dtype=float)
        try:
            fit = _FITTERS[template.estimator](xs, np.array(values, dtype=float))
        except ValueError:
            return None
        est, hw = fit.prediction_interval(job.nodes, confidence)
    if template.relative:
        est *= job.max_run_time
        hw *= job.max_run_time
    return max(est, elapsed), max(hw, 0.0)


def assert_matches_reference(got, ref, scale=0.0):
    """Estimate to rel 1e-12; half-width to rel 1e-9, or abs 1e-12 of the
    estimate when it is under 1e-6 of it.

    A regression evaluated where its fit crosses zero cancels terms of the
    data's size, so both results are then only good relative to ``scale``,
    the magnitude of the fitted data.
    """
    if ref is None:
        assert got is None
        return
    assert got is not None
    (est, hw), (ref_est, ref_hw) = got, ref
    size = max(ref_est, scale)
    assert math.isclose(est, ref_est, rel_tol=1e-12, abs_tol=1e-12 * scale)
    if ref_hw < 1e-6 * size:
        assert abs(hw - ref_hw) <= 1e-12 * size
    else:
        assert math.isclose(hw, ref_hw, rel_tol=1e-9, abs_tol=0.0)


@st.composite
def histories(draw):
    """Run times that are spread, repeated, or tight around one value."""
    n = draw(st.integers(0, 24))
    shape = draw(st.sampled_from(["spread", "repeated", "tight"]))
    if shape == "spread":
        run_times = draw(st.lists(st.floats(0.0, 1e5), min_size=n, max_size=n))
    elif shape == "repeated":
        run_times = draw(
            st.lists(st.sampled_from([0.0, 60.0, 600.0, 3600.0]), min_size=n, max_size=n)
        )
    else:
        base = draw(st.floats(1.0, 1e4))
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        run_times = [base + 1e-3 * k for k in steps]
    nodes = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]), min_size=n, max_size=n))
    if draw(st.booleans()):  # one shared maximum, as for most users' jobs
        maxima = [draw(st.floats(1.0, 2e5))] * n
    else:
        maxima = draw(st.lists(st.floats(1.0, 2e5), min_size=n, max_size=n))
    return [
        make_job(run_time=rt, nodes=nd, max_run_time=mx)
        for rt, nd, mx in zip(run_times, nodes, maxima)
    ]


class TestSortedStoreMatchesReference:
    @given(
        history=histories(),
        relative=st.booleans(),
        max_history=st.sampled_from([None, 1, 2, 3, 5, 8]),
        estimator=st.sampled_from(ESTIMATOR_KINDS),
        elapsed_pick=st.one_of(
            st.just(0.0), st.integers(0, 23), st.floats(0.0, 1.2e5)
        ),
        query_nodes=st.sampled_from([1, 2, 4, 6, 16]),
        query_max=st.one_of(st.none(), st.floats(1.0, 2e5)),
    )
    def test_predict_matches_filter_then_numpy(
        self, history, relative, max_history, estimator, elapsed_pick,
        query_nodes, query_max,
    ):
        template = Template(
            characteristics=("u",), relative=relative,
            max_history=max_history, estimator=estimator,
        )
        if isinstance(elapsed_pick, int):
            # Exactly a stored run time: the ">=" boundary.
            assume(history)
            elapsed = history[elapsed_pick % len(history)].run_time
        else:
            elapsed = elapsed_pick
        cat = Category(template)
        probe = make_job(nodes=query_nodes, max_run_time=query_max)
        for i, job in enumerate(history):
            cat.add(job)
            seen = history[: i + 1]
            kept = seen[-max_history:] if max_history else seen
            pts = [j for j in kept if j.run_time >= elapsed]
            if estimator == "mean":
                if not elapsed > 0.0 and len(kept) < len(seen):
                    # The unconditioned mean reads RunningMoments, whose
                    # inverse-Welford eviction leaves residue beyond these
                    # tolerances on tight windows; only the suffix path is
                    # under test once a point has been evicted.
                    continue
                scale = 0.0
            else:
                if len({j.nodes for j in pts}) < 2:
                    # A design with one distinct node count leaves the OLS
                    # fit ill-conditioned whatever the point order.
                    continue
                scale = max(
                    j.run_time / j.max_run_time * (query_max or 0.0) if relative
                    else j.run_time
                    for j in pts
                )
            assert_matches_reference(
                cat.predict(probe, elapsed),
                reference_predict(template, seen, probe, elapsed),
                scale,
            )


class TestEviction:
    def test_equal_run_times_evict_the_oldest(self):
        t = Template(characteristics=("u",), relative=True, max_history=2)
        cat = Category(t)
        history = [
            make_job(run_time=100.0, max_run_time=mx) for mx in (200.0, 400.0, 1000.0)
        ]
        for job in history:
            cat.add(job)
        assert [p.value for p in cat.points] == [0.25, 0.1]
        probe = make_job(max_run_time=2000.0)
        for elapsed in (0.0, 50.0, 100.0):
            got = cat.predict(probe, elapsed)
            assert got[0] == pytest.approx(0.175 * 2000.0)
            assert_matches_reference(got, reference_predict(t, history, probe, elapsed))
        assert cat.predict(probe, 100.5) is None
