"""Scoring oracle values, density examples, and report round trips."""

import csv
import dataclasses
import gc
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench import evaluation, schemes
from renewalbench.laws import LawError, make_law, residual_law, residual_mean
from renewalbench.evaluation import (
    CSV_COLUMNS,
    AggregateStats,
    EvalReport,
    RecordColumns,
    ExperimentConfig,
    emit_report,
    report_from_json,
    run_experiment,
)
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import SchemeConfig, run_scheme, scheme_columns

from oracles import firing_density, good_index_density, score_events, tv, tv_l1

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
        events = run_scheme("poly", p2_bits(40), SchemeConfig(gamma=0.5))
        assert events
        for record in score_events(P2_LAW, events, scheme="poly"):
            assert record.abs_err == 0.0
            assert record.tv == 0.0

    def test_matching_histogram_scores_zero(self):
        law = make_law({"type": "explicit", "p": [0.0, 0.5, 0.5]})
        events = run_scheme("eps", [0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0], SchemeConfig(epsilon=0.9))
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
            got = tv(GEOM, counts, m, age, math.fsum(truth))
            assert abs(got - expected) < 1e-12

    def test_order_independence(self):
        events = run_scheme("eps", p2_bits(40), SchemeConfig(epsilon=0.5))
        forward = score_events(P2_LAW, events)
        backward = score_events(P2_LAW, list(reversed(events)))
        assert sorted(tuple(r) for r in forward) == sorted(tuple(r) for r in backward)


class TestDensities:
    def test_periodic_firing_density(self):
        events = run_scheme("poly", p2_bits(100), SchemeConfig(gamma=0.5))
        assert [e.time for e in events] == [9] + list(range(12, 100))
        assert firing_density(events, 100) == 0.89

    def test_empty_events(self):
        assert firing_density([], 1000) == 0.0

    def test_all_zero_eps_density(self):
        events = run_scheme("eps", [0] * 50, SchemeConfig(epsilon=0.3))
        assert firing_density(events, 50) == 49 / 50

    def test_periodic_good_index_density(self):
        rows = run_scheme("offline", p2_bits(101))
        density = good_index_density(rows, P2_LAW, tolerance=0.01, N=100)
        assert density == 98 / 101
        assert density >= 0.9

    def test_huge_tolerance_counts_defined_rows(self):
        rows = run_scheme("offline", p2_bits(101))
        assert good_index_density(rows, P2_LAW, tolerance=1e9, N=100) == 98 / 101


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
            by_rep.setdefault(record.replicate, []).append(record[2:])
        assert by_rep[0] != by_rep[1]  # distinct streams, distinct paths

    def test_numpy_integers_run_as_python_ints(self):
        law = {"type": "geometric", "q": 0.5, "truncate": 60}
        plain = p2_config(law=law, length=300, replicates=2, base_seed=5)
        numpy_law = make_law({**law, "truncate": np.int64(60)})
        assert numpy_law == make_law(law)
        config = p2_config(
            law=numpy_law.provenance, length=np.int64(300), replicates=np.int32(2), base_seed=np.uint8(5)
        )
        assert config == plain
        assert {type(getattr(config, name)) for name in ("length", "replicates", "base_seed")} == {int}
        assert emit_report(run_experiment(config)) == emit_report(run_experiment(plain))

    @pytest.mark.parametrize(
        "change, plain",
        [
            ({"law": {"type": "geometric", "q": 0.5, "truncate": np.int64(60)}}, {"law": {"type": "geometric", "q": 0.5, "truncate": 60}}),
            ({"law": {"type": "geometric", "q": np.float32(0.5), "truncate": 60}}, {"law": {"type": "geometric", "q": 0.5, "truncate": 60}}),
            ({"law": {"type": "zipf", "s": np.float32(2.5), "truncate": 60}}, {"law": {"type": "zipf", "s": 2.5, "truncate": 60}}),
            ({"law": {"type": "explicit", "p": [np.float32(0.5), np.int64(0), 0.5]}}, {"law": {"type": "explicit", "p": [0.5, 0, 0.5]}}),
            ({"scheme_config": SchemeConfig(gamma=np.float32(0.25))}, {"scheme_config": SchemeConfig(gamma=0.25)}),
            ({"tolerances": (np.float32(0.25), np.int64(1))}, {"tolerances": (0.25, 1)}),
        ],
        ids=["int64-truncate", "float32-q", "float32-s", "explicit-masses", "float32-gamma", "tolerances"],
    )
    def test_numpy_scalars_are_stored_as_python_numbers(self, change, plain):
        # each value is exactly representable, so the plain config is equal
        config, expected = p2_config(length=300, **change), p2_config(length=300, **plain)
        assert config == expected
        payload = emit_report(run_experiment(config))
        assert payload == emit_report(run_experiment(expected))
        echo = json.loads(payload)["config"]
        assert json.dumps(echo, sort_keys=True) == json.dumps(expected.to_json_dict(), sort_keys=True)

    def test_python_ints_echo_as_ints(self):
        config = p2_config(law={"type": "zipf", "s": 3, "truncate": 40}, tolerances=(1,))
        echo = json.loads(emit_report(run_experiment(config)))["config"]
        assert echo["law"] == {"type": "zipf", "s": 3, "truncate": 40}
        assert type(echo["law"]["s"]) is int and echo["tolerances"] == [1]

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

    @pytest.mark.parametrize("keep_records", [True, False])
    @pytest.mark.parametrize("scheme", ["poly", "log", "offline", "eps"])
    def test_json_reemits_its_own_bytes(self, scheme, keep_records):
        report = run_experiment(
            p2_config(
                law={"type": "geometric", "q": 0.5, "truncate": 60},
                scheme=scheme,
                scheme_config=SchemeConfig(gamma=0.3, epsilon=0.2),
                length=400,
                replicates=2,
                tolerances=(0.1, 0.5),
                keep_records=keep_records,
            )
        )
        payload = emit_report(report, "json")
        clone = report_from_json(payload)
        assert clone == report
        assert emit_report(clone, "json") == payload

    def test_empty_final_deciles_reemit_their_bytes(self):
        # no run ends within 5 bits, so nothing fires and every quantile
        # is NaN, which JSON cannot hold: each is written as null and
        # read back as NaN, so the clone cannot equal the report, but
        # its bytes can
        report = run_experiment(p2_config(law={"type": "explicit", "p": [0.0] * 12 + [1.0]}, length=5))
        payload = emit_report(report, "json")
        assert b"NaN" not in payload
        empty = {"median_abs_err": None, "p90_abs_err": None, "median_tv": None, "p90_tv": None, "sample_count": 0}
        data = json.loads(payload)
        assert data["pooled"] == data["replicate_summaries"][0]["final_decile"] == empty
        clone = report_from_json(payload)
        assert math.isnan(clone.pooled.median_tv) and math.isnan(clone.replicate_summaries[0].final_decile.p90_abs_err)
        assert emit_report(clone, "json") == payload

    def test_json_refuses_a_non_finite_value(self):
        # a NaN anywhere but an empty sample's quantiles, or an infinity,
        # is a fault, not a value a strict JSON reader could take
        report = run_experiment(p2_config(keep_records=True))
        for value in (math.nan, math.inf):
            summary = dataclasses.replace(report.replicate_summaries[0], firing_density=value)
            broken = dataclasses.replace(report, replicate_summaries=(summary,))
            with pytest.raises(ValueError, match="JSON compliant"):
                emit_report(broken, "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_experiment(p2_config()), "yaml")


LAW_SPECS = st.one_of(
    st.builds(
        lambda q, K: {"type": "geometric", "q": q, "truncate": K},
        st.floats(0.01, 0.99),
        st.integers(1, 80),
    ),
    st.builds(
        lambda s, K: {"type": "zipf", "s": s, "truncate": K},
        st.floats(0.1, 5.0) | st.integers(1, 5),
        st.integers(1, 80),
    ),
    st.builds(lambda k: {"type": "explicit", "p": [0.0] * k + [1.0]}, st.integers(0, 20)),
)

CONFIGS = st.builds(
    ExperimentConfig,
    law=LAW_SPECS,
    scheme=st.sampled_from(["poly", "log", "offline", "eps"]),
    scheme_config=st.builds(
        SchemeConfig,
        gamma=st.none() | st.floats(0.01, 0.99),
        epsilon=st.none() | st.floats(0.01, 0.99),
        declared_alpha=st.none() | st.floats(2.5, 10.0),
    ),
    length=st.integers(1, 10**7),
    start_mode=st.sampled_from(list(StartMode)),
    replicates=st.integers(1, 1000),
    base_seed=st.integers(0, 2**63),
    tolerances=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=3).map(tuple),
    keep_records=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(CONFIGS)
def test_config_json_round_trip(config):
    data = config.to_json_dict()
    assert ExperimentConfig.from_json_dict(data) == config
    assert ExperimentConfig.from_json_dict(json.loads(json.dumps(data))) == config


def writer_csv(report):
    """The record-by-record csv.writer emitter that the columnar one
    replaced, kept as the reference for its bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in report.records:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in record])
    return buffer.getvalue().encode()


def record_json(report):
    """The JSON report as it was built from ScoredRecord rows."""
    data = report.to_json_dict()
    data["records"] = [list(r) for r in report.records]
    return json.dumps(data, indent=2, sort_keys=True).encode()


BYTE_LAWS = [
    {"type": "geometric", "q": 0.5, "truncate": 60},
    {"type": "zipf", "s": 2.5, "truncate": 300},
    {"type": "explicit", "p": [0.2, 0.0, 0.5, 0.0, 0.3]},
]


class TestColumnarEmit:
    """CSV and JSON from the record columns, byte for byte against the
    emitters that worked on one ScoredRecord at a time."""

    @pytest.mark.parametrize("law", BYTE_LAWS, ids=lambda law: law["type"])
    @pytest.mark.parametrize("mode", ["stationary", "renewal"])
    @pytest.mark.parametrize("replicates", [1, 3])
    @pytest.mark.parametrize("scheme", ["poly", "log", "offline", "eps"])
    def test_bytes_equal_the_record_emitters(self, monkeypatch, law, mode, replicates, scheme):
        report = run_experiment(
            p2_config(
                law=law,
                scheme=scheme,
                scheme_config=SchemeConfig(gamma=0.3, epsilon=0.2),
                length=700,
                start_mode=mode,
                replicates=replicates,
            )
        )
        assert report.records
        assert len(report.columns) == replicates
        expected = writer_csv(report)
        assert emit_report(report, "csv") == expected
        # rows split across formatting blocks
        monkeypatch.setattr(evaluation, "_CSV_BLOCK", 37)
        assert emit_report(report, "csv") == expected
        payload = emit_report(report, "json")
        assert payload == record_json(report)
        clone = report_from_json(payload)
        assert clone == report
        assert emit_report(clone, "csv") == expected

    def test_header_only(self):
        report = run_experiment(p2_config(keep_records=False))
        assert report.columns == () and report.records == ()
        assert emit_report(report, "csv") == writer_csv(report)
        assert emit_report(report, "json") == record_json(report)

    def test_odd_floats(self):
        # theta is formatted once per distinct bit pattern: -0.0 and 0.0
        # must stay apart, and nan and inf format as repr does
        report = run_experiment(p2_config(length=30))
        floats = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1, 0.0])
        ints = np.arange(floats.size)
        block = RecordColumns(4, "poly", ints, ints, ints, floats, floats[::-1].copy(), floats, floats)
        report = dataclasses.replace(report, columns=(block, block))
        payload = emit_report(report, "csv")
        assert payload == writer_csv(report)
        thetas = [line.split(b",")[6] for line in payload.splitlines()[1:9]]
        assert thetas == [b"0.0", b"0.1", b"1e-300", b"-inf", b"inf", b"nan", b"-0.0", b"0.0"]

    def test_template_edge_cases(self, monkeypatch):
        # a scheme csv.writer must quote, holding the template's own %;
        # every float repr form in every float column; ints at +-2**62;
        # and a row count that is no multiple of the block
        monkeypatch.setattr(evaluation, "_CSV_BLOCK", 37)
        floats = [1e16, 1e-05, 5e-324, 1.7976931348623157e308, -0.0, math.nan, math.inf, -math.inf, 0.1]
        rows = 100
        ints = [np.roll(np.resize(np.array([2**62, -(2**62), 0], dtype=np.int64), rows), k) for k in range(3)]
        cols = [np.roll(np.resize(np.array(floats), rows), k) for k in range(4)]
        block = RecordColumns(7, 'a%s,"b"%%', *ints, *cols)
        report = dataclasses.replace(run_experiment(p2_config(length=30)), columns=(block,))
        payload = emit_report(report, "csv")
        assert payload == writer_csv(report)
        lines = payload.decode().splitlines()[1:]
        assert len(lines) == rows
        assert all(line.startswith('7,"a%s,""b""%%",') for line in lines)
        fields = list(csv.reader(lines))
        assert {f[2] for f in fields} == {str(2**62), str(-(2**62)), "0"}
        for column in range(5, 9):
            assert {f[column] for f in fields} == {repr(x) for x in floats}

    def test_columns_compare_only_with_columns(self):
        block = run_experiment(p2_config(length=30)).columns[0]
        assert block == dataclasses.replace(block) and block != object()
        assert block.__eq__(object()) is NotImplemented

    def test_records_are_tuples(self):
        report = run_experiment(p2_config(replicates=2))
        record = report.records[0]
        replicate, scheme, *_ = record
        assert (replicate, scheme) == (0, "poly")
        assert record == tuple(record)
        assert report.records == tuple(
            tuple(row) for block in report.columns for row in block.rows()
        )

    def test_column_equality_by_value(self):
        report = run_experiment(p2_config(replicates=2))
        first, second = report.columns
        assert first == dataclasses.replace(first, tv=first.tv.copy())
        assert first != second
        assert first != dataclasses.replace(first, tv=first.tv + 1.0)


def _repr_fields(values):
    return [repr(x).encode() for x in np.asarray(values, dtype=np.float64).tolist()]


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


class TestFloatFields:
    """_fields against float.__repr__, which the CSV has always
    written: orjson's digits inside repr's positional range, repr's
    own outside it.  Ints are written as str writes them."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=60), st.sampled_from([np.int32, np.int64]))
    def test_ints_equal_str(self, values, dtype):
        assert evaluation._fields(np.array(values, dtype=dtype)) == [str(x).encode() for x in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), max_size=60))
    def test_equals_repr(self, values):
        array = np.array(values, dtype=np.float64)
        if array.size:
            assert evaluation._fields(array) == _repr_fields(array)

    @pytest.mark.parametrize(
        "values",
        [
            [y for x in (1e-4, 1e16) for s in (1, -1) for y in _neighbours(s * x)],
            [y for k in range(-1074, 1024) for y in _neighbours(2.0**k)],
            [y for k in range(-323, 309) for y in _neighbours(float(f"1e{k}"))],
            [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf],
            [9007199254740993.0, 999999999999999.9, 0.30000000000000004, 123456789012345.67, 1.0, 2.0, 10.0],
        ],
        ids=["range-edges", "powers-of-two", "powers-of-ten", "specials", "digits"],
    )
    def test_fixed_values(self, values):
        array = np.array(values, dtype=np.float64)
        assert evaluation._fields(array) == _repr_fields(array)
        assert evaluation._fields(-array) == _repr_fields(-array)

    def test_non_contiguous_view(self):
        array = np.random.default_rng(3).standard_normal((40, 3)) * 10.0 ** np.arange(-6, 12, 6)
        view = array[::3, 1]
        assert not view.flags.c_contiguous
        assert evaluation._fields(view) == _repr_fields(view)

    def test_offline_report_with_small_errors(self):
        # seed 42 on 20k bits has abs_err rows below 1e-4 (exponent form)
        report = run_experiment(
            p2_config(law=SUMMARY_LAWS[0], scheme="offline", length=20_000, start_mode="stationary", base_seed=42)
        )
        (block,) = report.columns
        assert ((np.abs(block.abs_err) < 1e-4) & (block.abs_err != 0)).sum() > 10
        assert emit_report(report, "csv") == writer_csv(report)


@pytest.mark.parametrize(
    "values",
    [
        [0.25],
        [-0.0],
        [math.inf],
        [3.0, -1.0],
        [-0.0, -0.0, -0.0],
        # numpy's median is -0.0: its own partition indices put both
        # -0.0 in the middle, and a partition without index 0 did not
        [0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0],
        [0.5] * 11,
        [1.0, math.nan, 2.0],
        [*range(10), math.nan],
        list(np.random.default_rng(0).random(1001)),
        list(np.random.default_rng(1).integers(0, 4, 37) / 3.0),
        list(np.random.default_rng(2).exponential(size=10) * 1e300),
    ],
    ids=["n1", "n1-neg-zero", "n1-inf", "n2", "neg-zeros", "mixed-zeros", "ties", "all-equal", "nan", "nan-not-a-neighbour", "n1001", "ties-37", "huge"],
)
def test_quantiles_equal_numpy(values):
    array = np.array(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf in numpy's _lerp
        expected = [float(np.quantile(array, q)) for q in (0.5, 0.9)]
    got = evaluation._quantiles(array, 0.5, 0.9)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert array.tobytes() == np.array(values, dtype=np.float64).tobytes()  # input left as it was


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=80))
def test_quantiles_equal_numpy_on_any_sample(values):
    array = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's _lerp near +-1.8e308
        expected = [float(np.quantile(array, q)) for q in (0.5, 0.9)]
    assert np.array(evaluation._quantiles(array, 0.5, 0.9)).tobytes() == np.array(expected).tobytes()


SUMMARY_LAWS = [
    {"type": "geometric", "q": 0.5, "truncate": 60},
    {"type": "zipf", "s": 2.5, "truncate": 300},
]


class TestFinalDecileScoring:
    """Without records, poly, log and eps score only each replicate's
    final decile; the report reads nothing else, so it must not move."""

    @pytest.mark.parametrize("law", SUMMARY_LAWS, ids=lambda law: law["type"])
    @pytest.mark.parametrize("mode", ["stationary", "renewal"])
    @pytest.mark.parametrize("replicates", [1, 3])
    @pytest.mark.parametrize("scheme", ["poly", "log", "offline", "eps"])
    def test_summaries_equal_with_and_without_records(self, law, mode, replicates, scheme):
        config = p2_config(
            law=law,
            scheme=scheme,
            scheme_config=SchemeConfig(gamma=0.3, epsilon=0.2),
            length=2500,
            start_mode=mode,
            replicates=replicates,
            keep_records=False,
        )
        bare = run_experiment(config)
        kept = run_experiment(dataclasses.replace(config, keep_records=True))
        assert bare.columns == () and len(kept.columns) == replicates
        assert all(s.event_count > 0 for s in bare.replicate_summaries)
        assert bare.replicate_summaries == kept.replicate_summaries
        assert bare.pooled == kept.pooled
        tails = [evaluation._final_decile(block.abs_err) for block in kept.columns]
        assert bare.pooled.sample_count == sum(tail.size for tail in tails)

    @pytest.mark.parametrize("law", SUMMARY_LAWS, ids=lambda law: law["type"])
    @pytest.mark.parametrize("scheme", ["poly", "log", "offline", "eps"])
    def test_decile_rows_score_as_the_full_tail(self, law, scheme):
        built = make_law(law)
        bits = sample_path(built, 4999, StartMode.STATIONARY, seed=3, stream=1).bits
        config = SchemeConfig(gamma=0.3, epsilon=0.2)
        cols = scheme_columns(scheme, bits, config)
        scorer = evaluation._Scorer(built)
        errs, tvs = scorer.score_columns(cols)
        fired, tail = schemes._scheme_scan(scheme, bits, config, evaluation._final_decile)[1:]
        count = math.ceil(errs.size / 10)
        assert fired == errs.size
        assert tail.time.size == tail.age.size == tail.lo.size == tail.m.size == tail.sum.size == count
        assert tail.first.tolist() == [0, count]
        tail_errs, tail_tvs = scorer.score_columns(tail)
        assert tail_errs.tobytes() == errs[errs.size - count :].tobytes()
        assert tail_tvs.tobytes() == tvs[tvs.size - count :].tobytes()

    @pytest.mark.parametrize("scheme", ["poly", "log", "eps"])
    def test_rows_are_cut_by_the_final_decile_global(self, monkeypatch, scheme):
        # bench/traced.py times the cut by wrapping this module global
        final, cut = evaluation._final_decile, []

        def spy(values):
            cut.append(len(values))
            return final(values)

        monkeypatch.setattr(evaluation, "_final_decile", spy)
        config = p2_config(
            law=SUMMARY_LAWS[0],
            scheme=scheme,
            scheme_config=SchemeConfig(gamma=0.3, epsilon=0.2),
            length=3000,
            replicates=2,
            keep_records=False,
        )
        counts = [s.event_count for s in run_experiment(config).replicate_summaries]
        assert cut == counts  # one cut per replicate, of every firing row

    @pytest.mark.parametrize("scheme", ["poly", "log", "offline", "eps"])
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_scorer_sees_only_the_rows_read(self, monkeypatch, scheme, keep_records):
        seen = []
        score = evaluation._Scorer.score_columns

        def spy(self, cols):
            seen.append(cols.age.size)
            return score(self, cols)

        monkeypatch.setattr(evaluation._Scorer, "score_columns", spy)
        config = p2_config(
            law=SUMMARY_LAWS[0],
            scheme=scheme,
            scheme_config=SchemeConfig(gamma=0.3, epsilon=0.2),
            length=3000,
            replicates=2,
            keep_records=keep_records,
        )
        counts = [s.event_count for s in run_experiment(config).replicate_summaries]
        every = keep_records or scheme == "offline"
        assert seen == [n if every else math.ceil(n / 10) for n in counts]
        assert all(n > 10 for n in counts)


# tracemalloc peak of a 1M-bit JSON run_experiment, in bytes per bit.
# Measured on geometric(0.5) paths, seeds 0-4 (numpy 2.4), with 4-byte
# row columns and each window held as (lo, m): poly 36.5-37.3 (46.0-46.8
# while its firing stage built the window-size table whole and gathered
# it and every firing row's index), eps 32.5 (46.1 while its firing test
# held row-sized int64 and float64 columns), log 45.0 and offline, which
# scores every row, 70.8-71.0 (78.8-79.0 while the columns also held
# each window's end).  The bounds leave 9-15% over those figures.
PEAK_BYTES_PER_BIT = {"poly": 42, "eps": 37, "log": 51, "offline": 78}
# The same with keep_records, which scores every row and keeps its
# record columns: poly 74.7, eps 70.9-71.0, log 71.1-75.4 and offline
# 70.8-71.0 on the same seeds (82.4, 78.7, 81.5-86.9 and 78.8-79.0 while
# the columns also held each window's end).
KEPT_PEAK_BYTES_PER_BIT = {"poly": 84, "eps": 84, "log": 84, "offline": 84}
def _peak_bytes_per_bit(scheme, keep_records):
    length = 1_000_000
    config = ExperimentConfig(
        law={"type": "geometric", "q": 0.5, "truncate": 60},
        scheme=scheme,
        scheme_config=SchemeConfig(gamma=0.3, epsilon=0.1),
        length=length,
        keep_records=keep_records,
    )
    schemes._window_sizes.cache_clear()  # poly builds its table in the run
    # a full collection empties the free lists, whose reuse is not traced
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / length


@pytest.mark.parametrize("scheme", sorted(PEAK_BYTES_PER_BIT))
def test_json_run_memory_per_bit_is_bounded(scheme):
    assert _peak_bytes_per_bit(scheme, False) < PEAK_BYTES_PER_BIT[scheme]


@pytest.mark.parametrize("scheme", sorted(KEPT_PEAK_BYTES_PER_BIT))
def test_kept_records_memory_per_bit_is_bounded(scheme):
    assert _peak_bytes_per_bit(scheme, True) < KEPT_PEAK_BYTES_PER_BIT[scheme]


class _Writes(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data):
        self.sizes.append(len(data))
        return super().write(data)


class TestStreamedEmit:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stream_gets_the_payload_bytes(self, fmt):
        report = run_experiment(p2_config(law=SUMMARY_LAWS[0], scheme="offline", length=900, replicates=2))
        out = _Writes()
        assert emit_report(report, fmt, out) is None
        assert out.getvalue() == emit_report(report, fmt)

    def test_csv_is_written_a_block_at_a_time(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_CSV_BLOCK", 37)
        report = run_experiment(p2_config(law=SUMMARY_LAWS[0], scheme="offline", length=900, replicates=2))
        out = _Writes()
        emit_report(report, "csv", out)
        rows = sum(block.time.size for block in report.columns)
        # the header, then one write per block of at most 37 rows
        assert len(out.sizes) == 1 + sum(math.ceil(block.time.size / 37) for block in report.columns)
        assert max(out.sizes) < 37 * 120 < rows * 10
        assert out.getvalue() == writer_csv(report)

    def test_unknown_format_writes_nothing(self):
        out = _Writes()
        with pytest.raises(ValueError, match="unknown format"):
            emit_report(run_experiment(p2_config()), "yaml", out)
        assert out.sizes == []
