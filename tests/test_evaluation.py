"""Scoring oracle values, density examples, and report round trips."""

import csv
import io
import math

import numpy as np
import pytest

from renewalbench.laws import LawError, make_law, residual_law, residual_mean, tv_l1
from renewalbench.evaluation import (
    AggregateStats,
    EvalReport,
    ExperimentConfig,
    emit_report,
    firing_density,
    good_index_density,
    report_from_json,
    run_experiment,
    score_events,
)
from renewalbench.schemes import SchemeConfig, run_eps, run_offline, run_poly

P2_LAW = make_law({"type": "explicit", "p": [0.0, 0.0, 1.0]})
GEOM = make_law({"type": "geometric", "q": 0.5, "truncate": 60})


def p2_bits(n):
    return ([0, 1, 1] * ((n + 2) // 3))[:n]


class TestThetaOracle:
    def test_deterministic_law(self):
        assert residual_mean(P2_LAW, 0) == 2.0
        assert residual_mean(P2_LAW, 1) == 1.0
        assert residual_mean(P2_LAW, 2) == 0.0

    def test_memoryless_law(self):
        assert abs(residual_mean(GEOM, 5) - 1.0) < 1e-6

    def test_uniform_thirds(self):
        law = make_law({"type": "explicit", "p": [1 / 3, 1 / 3, 1 / 3]})
        assert abs(residual_mean(law, 1) - 0.5) < 1e-12

    def test_impossible_age(self):
        with pytest.raises(LawError):
            residual_mean(P2_LAW, 3)


class TestScoreEvents:
    def test_periodic_events_score_zero(self):
        events = run_poly(p2_bits(40), SchemeConfig(gamma=0.5))
        assert events
        for record in score_events(P2_LAW, events, scheme="poly"):
            assert record.abs_err == 0.0
            assert record.tv == 0.0

    def test_matching_histogram_scores_zero(self):
        law = make_law({"type": "explicit", "p": [0.0, 0.5, 0.5]})
        events = run_eps([0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0], SchemeConfig(epsilon=0.9))
        hits = [
            r
            for r in score_events(law, events)
            if r.run_age == 0 and r.tv == 0.0 and r.abs_err == 0.0
        ]
        # after one run of each length the class-0 histogram is exact
        assert hits

    def test_tv_matches_dense_l1(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            age = int(rng.integers(0, 4))
            truth = residual_law(GEOM, age).probs
            m = int(rng.integers(1, 30))
            values = rng.integers(0, 12, size=m)
            histogram = {}
            for v in values.tolist():
                histogram[v] = histogram.get(v, 0) + 1
            counts = tuple(sorted(histogram.items()))
            width = max(len(truth), max(histogram) + 1)
            dense = [0.0] * width
            for v, c in counts:
                dense[v] = c / m
            expected = tv_l1(dense, truth)
            from renewalbench.evaluation import _Scorer

            got = _Scorer(GEOM).tv(counts, m, age)
            assert abs(got - expected) < 1e-12

    def test_order_independence(self):
        events = run_eps(p2_bits(40), SchemeConfig(epsilon=0.5))
        forward = score_events(P2_LAW, events)
        backward = score_events(P2_LAW, list(reversed(events)))
        assert sorted(r.row() for r in forward) == sorted(r.row() for r in backward)


class TestDensities:
    def test_periodic_firing_density(self):
        events = run_poly(p2_bits(100), SchemeConfig(gamma=0.5))
        assert [e.time for e in events] == [9] + list(range(12, 100))
        assert firing_density(events, 100) == 0.89

    def test_empty_events(self):
        assert firing_density([], 1000) == 0.0

    def test_all_zero_eps_density(self):
        events = run_eps([0] * 50, SchemeConfig(epsilon=0.3))
        assert firing_density(events, 50) == 49 / 50

    def test_periodic_good_index_density(self):
        rows = run_offline(p2_bits(101))
        density = good_index_density(rows, P2_LAW, tolerance=0.01, N=100)
        assert density == 98 / 101
        assert density >= 0.9

    def test_huge_tolerance_counts_defined_rows(self):
        rows = run_offline(p2_bits(101))
        assert good_index_density(rows, P2_LAW, tolerance=1e9, N=100) == 98 / 101

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            firing_density([], 0)
        with pytest.raises(ValueError):
            good_index_density([], P2_LAW, tolerance=0.0, N=10)


def p2_config(**kw):
    defaults = dict(
        law={"type": "explicit", "p": [0.0, 0.0, 1.0]},
        scheme="poly",
        scheme_config=SchemeConfig(gamma=0.5),
        length=120,
        start_mode="renewal",
        replicates=1,
        base_seed=11,
        keep_records=True,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_deterministic_law_scores_zero(self):
        report = run_experiment(p2_config())
        assert report.records
        assert all(r.abs_err == 0.0 and r.tv == 0.0 for r in report.records)
        assert report.pooled.median_abs_err == 0.0
        assert report.pooled.median_tv == 0.0
        assert report.pooled.sample_count > 0

    def test_determinism_and_stream_separation(self):
        config = p2_config(
            law={"type": "geometric", "q": 0.5, "truncate": 60},
            replicates=2,
            length=400,
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second
        by_rep = {}
        for record in first.records:
            by_rep.setdefault(record.replicate, []).append(record.row()[2:])
        assert by_rep[0] != by_rep[1]  # distinct streams, distinct paths

    def test_offline_reports_good_index_densities(self):
        config = p2_config(scheme="offline", length=101, tolerances=(0.01, 0.5))
        report = run_experiment(config)
        summary = report.replicate_summaries[0]
        assert summary.good_index_density == ((0.01, 98 / 101), (0.5, 98 / 101))
        assert summary.firing_density == 98 / 101

    def test_bad_configs(self):
        with pytest.raises(ValueError):
            p2_config(scheme="nope")
        with pytest.raises(ValueError):
            p2_config(length=0)
        with pytest.raises(ValueError):
            p2_config(replicates=0)
        with pytest.raises(ValueError):
            p2_config(tolerances=(0.1, -1.0))
        with pytest.raises(LawError):
            p2_config(law={"type": "explicit", "p": [2.0]})


class TestEmitReport:
    def test_csv_header_only_without_records(self):
        report = run_experiment(p2_config(keep_records=False))
        payload = emit_report(report, "csv").decode()
        assert payload == "replicate,scheme,n,lambda,tau,h,theta,abs_err,tv\n"

    def test_csv_rows(self):
        report = run_experiment(p2_config())
        lines = emit_report(report, "csv").decode().splitlines()
        assert lines[0] == "replicate,scheme,n,lambda,tau,h,theta,abs_err,tv"
        assert len(lines) == 1 + len(report.records)
        first = next(csv.reader(io.StringIO(lines[1])))
        assert len(first) == 9
        assert first[1] == "poly"
        assert float(first[5]) == report.records[0].estimate

    def test_csv_recomputes_pooled_aggregates(self):
        config = p2_config(
            law={"type": "geometric", "q": 0.5, "truncate": 60},
            scheme="eps",
            scheme_config=SchemeConfig(epsilon=0.4),
            replicates=3,
            length=500,
        )
        report = run_experiment(config)
        rows = list(
            csv.DictReader(io.StringIO(emit_report(report, "csv").decode()))
        )
        errs, tvs = [], []
        for replicate in range(config.replicates):
            mine = [r for r in rows if r["replicate"] == str(replicate)]
            tail = mine[len(mine) - math.ceil(len(mine) / 10) :]
            errs.extend(float(r["abs_err"]) for r in tail)
            tvs.extend(float(r["tv"]) for r in tail)
        again = AggregateStats.from_arrays(errs, tvs)
        assert again == report.pooled

    def test_json_round_trip(self):
        report = run_experiment(
            p2_config(scheme="offline", length=90, tolerances=(0.1,))
        )
        clone = report_from_json(emit_report(report, "json"))
        assert clone == report

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_experiment(p2_config()), "yaml")
