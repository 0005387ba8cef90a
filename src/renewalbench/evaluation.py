"""Scoring and Monte Carlo aggregation for the estimation schemes.

Schemes are judged against the generating law: the mean error
|h - theta| compares the emitted estimate with the exact conditional
mean at the fired age, and the distribution error is the L1 distance
between the emitted histogram and the exact conditional law.  Reports
pool the final decile of firings per replicate, since the guarantees
being probed are asymptotic and early transients carry no evidence.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .laws import RenewalLaw, _is_integer, _is_real, _plain, _plain_spec, make_law
from .paths import StartMode, parse_start_mode, sample_path
from .schemes import (
    SCHEME_TAGS,
    EventColumns,
    SchemeConfig,
    _scheme_scan,
    _stable_order,
    window_counts,
)

__all__ = [
    "ExperimentConfig",
    "ScoredRecord",
    "RecordColumns",
    "AggregateStats",
    "ReplicateSummary",
    "EvalReport",
    "run_experiment",
    "emit_report",
    "report_from_json",
]

# Rows scored per vectorized step; bounds the scorer's temporaries.
_BLOCK = 1 << 15

# Rows formatted per step of the CSV writer.  Its temporaries, ~300 B a
# row, come on top of the payload; 1 << 15 rows held ~12 MB of them.
_CSV_BLOCK = 1 << 12

CSV_COLUMNS = (
    "replicate",
    "scheme",
    "n",
    "lambda",
    "tau",
    "h",
    "theta",
    "abs_err",
    "tv",
)


class _Scorer:
    """Caches the per-age ground truth so scoring is O(histogram size)."""

    def __init__(self, law: RenewalLaw):
        self.law = law
        self._total: dict[int, float] = {}

    def _residual_total(self, age: int) -> float:
        """The fsum of the residual law's masses at this age, from the
        same quotients as residual_law but without keeping them: on a
        long support the tuples of many ages would dominate memory."""
        total = self._total.get(age)
        if total is None:
            masses = self.law.probs[age:] / self.law.tails[age]
            total = self._total[age] = math.fsum(masses.tolist())
        return total

    def _per_age(self, ages: np.ndarray, truth) -> np.ndarray:
        table = np.zeros(int(ages.max()) + 1 if ages.size else 0)
        present = np.flatnonzero(np.bincount(ages))
        table[present] = [truth(age) for age in present.tolist()]
        return table[ages]

    def thetas(self, ages: np.ndarray) -> np.ndarray:
        """residual_mean at each age, by the same division."""
        # divided up to the largest age, then gathered: each age's
        # quotient is the same, and only one row-sized column is made
        top = int(ages.max(initial=-1)) + 1
        return (self.law.overshoots[:top] / self.law.tails[:top])[ages]

    def score_columns(self, cols: EventColumns) -> tuple[np.ndarray, np.ndarray]:
        """(abs_err, tv) of every row.  A row's tv is its histogram's L1
        distance from the residual law at its age: over the values its
        window holds, in ascending order, acc adds |count/m - q| and seen
        adds q, where q = probs[age + value] / tails[age]; then
        acc + max(0, total - seen), total being the fsum of the residual
        law's masses, adds the mass at values the window never holds.

        Rows are sorted by class once, then scored _BLOCK at a time: a
        block's columns are gathered, and its tv runs value-major on
        window_counts.  For each residual value in ascending order, one
        vectorized step over the slice of the block's rows that can hold
        it adds that value's term where the window does, so each row sees
        those float operations in that order, whatever the block size.
        """
        ages, m = cols.age, cols.m
        err = cols.sum / m
        err -= self.thetas(ages)
        np.abs(err, out=err)
        tv = np.empty(ages.size)
        if not ages.size:
            return err, tv
        residuals = cols.residuals
        # residual value l at age a has mass probs[a + l]; pad with zeros
        # for lengths past the support, which the law never produces
        probs = np.zeros(max(self.law.support, int(ages.max()) + int(residuals.max()) + 1))
        probs[: self.law.support] = self.law.probs
        count = window_counts(residuals)
        by_class = _stable_order(ages, np.intp)
        for start in range(0, ages.size, _BLOCK):
            rows = by_class[start : start + _BLOCK]
            # native, since each step below indexes by it
            block_age = ages[rows].astype(np.intp, copy=False)
            block_m = m[rows]
            acc = np.zeros(rows.size)
            seen = np.zeros(rows.size)
            for value, first, counts in count(cols.lo[rows], block_m):
                part = slice(first, first + counts.size)
                age = block_age[part]
                q = probs[age + value] / self.law.tails[age]
                term = counts / block_m[part]
                term -= q
                np.abs(term, out=term)
                # rows whose window misses the value add nothing
                hit = counts != 0
                np.add(acc[part], term, out=acc[part], where=hit)
                np.add(seen[part], q, out=seen[part], where=hit)
            # mass of the true law at values the histogram never hit
            missed = self._per_age(block_age, self._residual_total)
            missed -= seen
            np.maximum(missed, 0.0, out=missed)
            missed += acc
            tv[rows] = missed
        return err, tv


class ScoredRecord(NamedTuple):
    replicate: int
    scheme: str
    ordinal: int
    time: int
    run_age: int
    estimate: float
    theta: float
    abs_err: float
    tv: float


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """The scored records of one replicate as columns, one entry per
    record in ScoredRecord's field order.  Equal when every value is."""

    replicate: int
    scheme: str
    ordinal: np.ndarray
    time: np.ndarray
    run_age: np.ndarray
    estimate: np.ndarray
    theta: np.ndarray
    abs_err: np.ndarray
    tv: np.ndarray

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.ordinal, self.time, self.run_age, self.estimate, self.theta, self.abs_err, self.tv)

    def __eq__(self, other):
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return (self.replicate, self.scheme) == (other.replicate, other.scheme) and all(
            np.array_equal(a, b) for a, b in zip(self.arrays, other.arrays)
        )

    __hash__ = None

    def rows(self) -> Iterator[tuple]:
        return zip(repeat(self.replicate), repeat(self.scheme), *(a.tolist() for a in self.arrays))

    @staticmethod
    def from_rows(rows: list) -> "RecordColumns":
        """Columns of JSON record rows that share one replicate and scheme."""
        _, _, *fields = zip(*rows)
        ints = [np.array(f, dtype=np.int64) for f in fields[:3]]
        floats = [np.array(f, dtype=np.float64) for f in fields[3:]]
        return RecordColumns(rows[0][0], rows[0][1], *ints, *floats)


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: R paths of `length` bits from `law`,
    all fed to one scheme.  Replicate r uses generator stream r of
    base_seed, so any subset of replicates can be reproduced alone.
    """

    law: dict
    scheme: str
    scheme_config: SchemeConfig
    length: int
    start_mode: StartMode = StartMode.STATIONARY
    replicates: int = 1
    base_seed: int = 0
    tolerances: tuple[float, ...] = (0.1,)
    keep_records: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEME_TAGS:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEME_TAGS}"
            )
        for name in ("length", "replicates", "base_seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not isinstance(self.start_mode, StartMode):
            object.__setattr__(self, "start_mode", parse_start_mode(self.start_mode))
        if not isinstance(self.keep_records, bool):
            raise ValueError(f"keep_records must be true or false, got {self.keep_records!r}")
        if not isinstance(self.tolerances, (list, tuple)) or not all(
            _is_real(t) and 0 < t < math.inf for t in self.tolerances
        ):
            raise ValueError(f"tolerances must be a list of positive, finite numbers, got {self.tolerances!r}")
        object.__setattr__(self, "tolerances", tuple(map(_plain, self.tolerances)))
        make_law(self.law)  # validate eagerly so bad configs fail here
        object.__setattr__(self, "law", _plain_spec(self.law))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "start_mode": self.start_mode.value}

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """The config of a JSON object; a key that names no field fails."""
        return ExperimentConfig(**{**data, "scheme_config": SchemeConfig(**data.get("scheme_config", {}))})


@dataclass(frozen=True)
class AggregateStats:
    """Quantiles of the final-decile errors, the report's headline."""

    median_abs_err: float
    p90_abs_err: float
    median_tv: float
    p90_tv: float
    sample_count: int

    @staticmethod
    def from_arrays(errs, tvs) -> "AggregateStats":
        if len(errs) == 0:
            return AggregateStats(math.nan, math.nan, math.nan, math.nan, 0)
        err_arr = np.asarray(errs, dtype=np.float64)
        tv_arr = np.asarray(tvs, dtype=np.float64)
        median_abs_err, p90_abs_err = _quantiles(err_arr, 0.5, 0.9)
        median_tv, p90_tv = _quantiles(tv_arr, 0.5, 0.9)
        return AggregateStats(median_abs_err, p90_abs_err, median_tv, p90_tv, int(err_arr.size))

    def to_json_dict(self) -> dict:
        """The fields, an empty sample's NaN quantiles as null: NaN is not JSON."""
        return {name: None if math.isnan(value) else value for name, value in asdict(self).items()}

    @staticmethod
    def from_json_dict(data: dict) -> "AggregateStats":
        """The stats of a JSON object, null read back as NaN."""
        return AggregateStats(**{name: math.nan if value is None else value for name, value in data.items()})


def _quantiles(values: np.ndarray, *qs: float) -> list[float]:
    """float(np.quantile(values, q)) for each q, bit for bit, by numpy's
    default "linear" rule written out: on numpy 2, np.quantile's first
    call in a process imports numpy.ma, ~10 ms (numpy 1 imports it with
    numpy itself, so there it saves nothing).  The virtual index is
    q*(n-1), t its distance from the lower neighbour a, and the value
    a + (b-a)*t, or b - (b-a)*(1-t) when t >= 0.5, as numpy's _lerp
    takes it."""
    last = values.size - 1
    result = []
    for q in qs:
        index = q * last
        # as numpy's _get_indexes: at the last index both neighbours are
        # the last value, and the floor counts as -1 (so t = index + 1)
        i = math.floor(index) if index < last else -1
        j = i + 1 if i >= 0 else -1
        # numpy partitions a copy at these, 0 and -1 for each q, which
        # decides where 0.0 and -0.0 land among equal values
        ordered = np.partition(values, [0, i, j, -1])
        if math.isnan(ordered[last]):  # nan sorts last, and is every quantile
            result.append(float(ordered[last]))
            continue
        a, b = float(ordered[i]), float(ordered[j])
        t = index - i
        result.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return result


@dataclass(frozen=True)
class ReplicateSummary:
    replicate: int
    stream: int
    event_count: int
    firing_density: float
    final_decile: AggregateStats
    # [tolerance, density] pairs; offline scheme only, empty otherwise
    good_index_density: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class EvalReport:
    config: ExperimentConfig
    replicate_summaries: tuple[ReplicateSummary, ...]
    pooled: AggregateStats
    # one block per replicate that scored a record, in replicate order
    columns: tuple[RecordColumns, ...] = ()

    @property
    def records(self) -> tuple[ScoredRecord, ...]:
        """The retained records, built from the columns on each call."""
        return tuple(map(ScoredRecord._make, chain.from_iterable(block.rows() for block in self.columns)))

    def to_json_dict(self) -> dict:
        # not asdict: it would deep-copy the record columns
        return {
            "config": self.config.to_json_dict(),
            "replicate_summaries": [
                {**asdict(summary), "final_decile": summary.final_decile.to_json_dict()}
                for summary in self.replicate_summaries
            ],
            "pooled": self.pooled.to_json_dict(),
            "records": [list(row) for block in self.columns for row in block.rows()],
        }


# run_experiment scores every scheme from its columns and calls no
# iterator from here; the empty table and the placeholder stay because
# bench/traced.py wraps them.
_SCHEME_ITERATORS: dict = {}
iter_offline = None


# bench/traced.py wraps this name to time the aggregation layer
def _final_decile(values):
    count = len(values)
    return values[count - math.ceil(count / 10) :]


def _score_columns(scorer, config, bits, replicate, columns, every_row):
    """(event_count, errs, tvs) of the scheme's estimates on one path:
    the scores of every row if every_row, else of the final decile
    only, the only rows whose columns are then built.  A row's scores
    depend only on its own window, so they are the same either way.
    Offline rows are keyed by position."""
    # _final_decile is the global, read at each call: bench/traced.py
    # times the cut by wrapping it.  [1:] drops the scan, so only the
    # columns are held while scoring.
    count, cols = _scheme_scan(config.scheme, bits, config.scheme_config, None if every_row else _final_decile)[1:]
    errs, tvs = scorer.score_columns(cols)
    if config.keep_records and count:
        time = cols.time
        ordinal = time if config.scheme == "offline" else np.arange(1, count + 1)
        estimate = cols.sum / cols.m
        theta = scorer.thetas(cols.age)
        columns.append(RecordColumns(replicate, config.scheme, ordinal, time, cols.age, estimate, theta, errs, tvs))
    return count, errs, tvs


def run_experiment(config: ExperimentConfig) -> EvalReport:
    law = make_law(config.law)
    scorer = _Scorer(law)
    horizon = config.length - 1
    offline = config.scheme == "offline"
    # records and offline's good-index densities read every score; the
    # summaries read only the final decile
    every_row = config.keep_records or offline
    pooled_err: list[np.ndarray] = []
    pooled_tv: list[np.ndarray] = []
    summaries = []
    columns: list[RecordColumns] = []
    for replicate in range(config.replicates):
        bits = sample_path(
            law,
            horizon,
            config.start_mode,
            seed=config.base_seed,
            stream=replicate,
        ).bits
        event_count, errs, tvs = _score_columns(scorer, config, bits, replicate, columns, every_row)
        tail_err, tail_tv = (_final_decile(errs), _final_decile(tvs)) if every_row else (errs, tvs)
        pooled_err.append(tail_err)
        pooled_tv.append(tail_tv)
        densities = ()
        if offline:
            # positions 0..length-1 all exist on the sampled path
            densities = tuple(
                (tolerance, int(np.count_nonzero((errs <= tolerance) & (tvs <= tolerance))) / config.length)
                for tolerance in config.tolerances
            )
        summaries.append(
            ReplicateSummary(
                replicate=replicate,
                stream=replicate,
                event_count=event_count,
                firing_density=event_count / config.length,
                final_decile=AggregateStats.from_arrays(tail_err, tail_tv),
                good_index_density=densities,
            )
        )
    return EvalReport(
        config=config,
        replicate_summaries=tuple(summaries),
        pooled=AggregateStats.from_arrays(np.concatenate(pooled_err), np.concatenate(pooled_tv)),
        columns=tuple(columns),
    )


def _fields(values: np.ndarray) -> list[bytes]:
    """The bytes csv.writer writes for each value: str of an int, repr
    of a float.  orjson writes ints as %d does and, where repr writes
    positional digits (1e-4 <= |x| < 1e16) and at ±0.0, floats with
    repr's shortest round-trip digits, one C call per column;
    float.__repr__ writes the rest (exponent forms, nan, ±inf)."""
    import orjson  # only CSV export pays for the import

    values = np.ascontiguousarray(values)
    fields = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    if values.dtype.kind == "f":
        size = np.abs(values)
        for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16)) & (values != 0)).tolist():
            fields[i] = repr(float(values[i])).encode()
    return fields


def _csv_rows(block: RecordColumns) -> Iterator[bytes]:
    """The CSV bytes of a replicate's records, _CSV_BLOCK rows at a time.

    No field but the prefix, csv.writer's replicate and scheme, can need
    quoting: each row is that prefix and the record's fields, joined by
    commas.
    """
    import csv  # like orjson, only CSV export pays for the import

    head = io.StringIO()
    csv.writer(head, lineterminator="").writerow((block.replicate, block.scheme))
    prefix = head.getvalue().encode() + b","
    for start in range(0, block.time.size, _CSV_BLOCK):
        fields = [_fields(column[start : start + _CSV_BLOCK]) for column in block.arrays]
        yield prefix + (b"\n" + prefix).join(map(b",".join, zip(*fields))) + b"\n"


def emit_report(report: EvalReport, format: str = "json", out: BinaryIO | None = None) -> bytes | None:
    """The payload's bytes or, given a binary stream out, None after
    writing them to it.  CSV is written a block of rows at a time, so a
    stream never holds the whole payload."""
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")
    if out is None:
        buffer = io.BytesIO()
        emit_report(report, format, buffer)
        return buffer.getvalue()
    if format == "json":
        out.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False).encode())
        return None
    out.write((",".join(CSV_COLUMNS) + "\n").encode())
    for block in report.columns:
        for text in _csv_rows(block):
            out.write(text)
    return None


def report_from_json(payload: bytes | str) -> EvalReport:
    data = json.loads(payload)
    return EvalReport(
        config=ExperimentConfig.from_json_dict(data["config"]),
        replicate_summaries=tuple(
            ReplicateSummary(
                **{
                    **summary,
                    "final_decile": AggregateStats.from_json_dict(summary["final_decile"]),
                    "good_index_density": tuple(map(tuple, summary["good_index_density"])),
                }
            )
            for summary in data["replicate_summaries"]
        ),
        pooled=AggregateStats.from_json_dict(data["pooled"]),
        columns=tuple(
            RecordColumns.from_rows(list(rows)) for _, rows in groupby(data["records"], key=itemgetter(0, 1))
        ),
    )
