"""Scoring and Monte Carlo aggregation for the estimation schemes.

Schemes are judged against the generating law: the mean error
|h - theta| compares the emitted estimate with the exact conditional
mean at the fired age, and the distribution error is the L1 distance
between the emitted histogram and the exact conditional law.  Reports
pool the final decile of firings per replicate, since the guarantees
being probed are asymptotic and early transients carry no evidence.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .laws import RenewalLaw, make_law, residual_mean
from .paths import StartMode, parse_start_mode, sample_path
from .schemes import (
    SCHEME_TAGS,
    EstimateEvent,
    EventColumns,
    OfflineEstimate,
    SchemeConfig,
    _stable_order,
    # run_experiment scores every scheme from its columns; the name
    # stays here because bench/traced.py wraps evaluation.iter_offline
    iter_offline,  # noqa: F401
    scheme_columns,
    window_counts,
)

__all__ = [
    "ExperimentConfig",
    "ScoredRecord",
    "AggregateStats",
    "ReplicateSummary",
    "EvalReport",
    "score_events",
    "firing_density",
    "good_index_density",
    "run_experiment",
    "emit_report",
    "report_from_json",
]

# Rows scored per vectorized step; bounds the scorer's temporaries.
_BLOCK = 1 << 15

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
        self._theta: dict[int, float] = {}
        self._total: dict[int, float] = {}
        self._probs = np.asarray(law.probs)

    def theta(self, age: int) -> float:
        value = self._theta.get(age)
        if value is None:
            value = self._theta[age] = residual_mean(self.law, age)
        return value

    def _residual_total(self, age: int) -> float:
        """The fsum of the residual law's masses at this age, from the
        same quotients as residual_law but without keeping them: on a
        long support the tuples of many ages would dominate memory."""
        total = self._total.get(age)
        if total is None:
            masses = self._probs[age:] / self.law.tails[age]
            total = self._total[age] = math.fsum(masses.tolist())
        return total

    def tv(self, counts: tuple[tuple[int, int], ...], m: int, age: int) -> float:
        # q is the quotient residual_law computes, as score_columns reads it
        probs, tail = self.law.probs, self.law.tails[age]
        size = len(probs) - age
        acc = 0.0
        seen = 0.0
        for value, count in counts:
            q = probs[age + value] / tail if value < size else 0.0
            acc += abs(count / m - q)
            seen += q
        # mass of the true law at values the histogram never hit
        return acc + max(0.0, self._residual_total(age) - seen)

    def _per_age(self, ages: np.ndarray, truth) -> np.ndarray:
        table = np.zeros(int(ages.max()) + 1 if ages.size else 0)
        present = np.flatnonzero(np.bincount(ages))
        table[present] = [truth(age) for age in present.tolist()]
        return table[ages]

    def thetas(self, ages: np.ndarray) -> np.ndarray:
        return self._per_age(ages, self.theta)

    def score_columns(self, cols: EventColumns) -> tuple[np.ndarray, np.ndarray]:
        """(abs_err, tv) of every row, equal bit for bit to scoring each
        row's histogram with theta and tv.

        tv runs value-major on window_counts: for each residual value in
        ascending order, one vectorized step adds that value's term to
        every row whose window holds it, so each row sees the same float
        operations in the same order as the loop in tv.
        """
        ages, m = cols.age, cols.m
        err = cols.sum / m
        err -= self.thetas(ages)
        np.abs(err, out=err)
        acc = np.zeros(ages.size)
        seen = np.zeros(ages.size)
        if not ages.size:
            return err, acc
        residuals = cols.residuals
        # residual value l at age a has mass probs[a + l]; pad with zeros
        # for lengths past the support, which the law never produces
        probs = np.zeros(max(self.law.support, int(ages.max()) + int(residuals.max()) + 1))
        probs[: self.law.support] = self._probs
        tails = np.asarray(self.law.tails)
        # Rows in class order, in blocks of _BLOCK.  acc and seen follow
        # this order until the end.
        by_class = _stable_order(ages, np.intp)
        row_age = ages[by_class]
        row_m = m[by_class]
        begins = cols.lo[by_class]
        ends = cols.hi[by_class]
        blocks = ((begins[start : start + _BLOCK], ends[start : start + _BLOCK]) for start in range(0, ages.size, _BLOCK))
        for block, value, hit, counts in window_counts(residuals, blocks):
            hit += block * _BLOCK
            age = row_age[hit]
            q = probs[age + value] / tails[age]
            acc[hit] += np.abs(counts / row_m[hit] - q)
            seen[hit] += q
        # mass of the true law at values the histogram never hit
        missed = self._per_age(row_age, self._residual_total)
        missed -= seen
        np.maximum(missed, 0.0, out=missed)
        missed += acc
        acc[by_class] = missed  # back to row order
        return err, acc


@dataclass(frozen=True, slots=True)
class ScoredRecord:
    replicate: int
    scheme: str
    ordinal: int
    time: int
    run_age: int
    estimate: float
    theta: float
    abs_err: float
    tv: float

    def row(self) -> tuple:
        return (
            self.replicate,
            self.scheme,
            self.ordinal,
            self.time,
            self.run_age,
            self.estimate,
            self.theta,
            self.abs_err,
            self.tv,
        )


def score_events(
    law: RenewalLaw,
    events: Iterable[EstimateEvent | OfflineEstimate],
    scheme: str = "",
    replicate: int = 0,
) -> list[ScoredRecord]:
    """Per-event errors against the law; order-independent, pure.

    Offline rows are accepted too; undefined ones are skipped (they
    carry no estimate to score).
    """
    scorer = _Scorer(law)
    out = []
    for event in events:
        if isinstance(event, OfflineEstimate):
            if not event.defined:
                continue
            ordinal, time = event.position, event.position
        else:
            ordinal, time = event.ordinal, event.time
        age = event.run_age
        theta = scorer.theta(age)
        estimate = event.estimate
        out.append(
            ScoredRecord(
                replicate=replicate,
                scheme=scheme,
                ordinal=ordinal,
                time=time,
                run_age=age,
                estimate=estimate,
                theta=theta,
                abs_err=abs(estimate - theta),
                tv=scorer.tv(event.residual_counts, event.sample_count, age),
            )
        )
    return out


def firing_density(events, N: int) -> float:
    """Stopping times up to N per unit of path, the Theorem 1 Eq. (1) probe."""
    if N <= 0:
        raise ValueError(f"N must be positive, got {N}")
    if hasattr(events, "__len__") and not events:
        return 0.0
    return sum(1 for e in events if e.time <= N) / N


def good_index_density(
    estimates: Iterable[OfflineEstimate],
    law: RenewalLaw,
    tolerance: float,
    N: int,
) -> float:
    """Fraction of positions 0..N whose offline estimate exists and is
    within tolerance in both mean and L1 distance.  Positions with no
    row at all (before the first zero, or beyond the path) count as bad.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    scorer = _Scorer(law)
    good = 0
    for row in estimates:
        if row.position > N:
            break
        if not row.defined:
            continue
        theta = scorer.theta(row.run_age)
        if abs(row.estimate - theta) > tolerance:
            continue
        if scorer.tv(row.residual_counts, row.sample_count, row.run_age) > tolerance:
            continue
        good += 1
    return good / (N + 1)


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
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if isinstance(self.start_mode, str):
            object.__setattr__(self, "start_mode", parse_start_mode(self.start_mode))
        if any(t <= 0 for t in self.tolerances):
            raise ValueError("tolerances must be positive")
        make_law(self.law)  # validate eagerly so bad configs fail here

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "scheme": self.scheme,
            "scheme_config": {
                "gamma": self.scheme_config.gamma,
                "epsilon": self.scheme_config.epsilon,
                "declared_alpha": self.scheme_config.declared_alpha,
            },
            "length": self.length,
            "start_mode": self.start_mode.value,
            "replicates": self.replicates,
            "base_seed": self.base_seed,
            "tolerances": list(self.tolerances),
            "keep_records": self.keep_records,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        sc = data.get("scheme_config", {})
        return ExperimentConfig(
            law=data["law"],
            scheme=data["scheme"],
            scheme_config=SchemeConfig(
                gamma=sc.get("gamma"),
                epsilon=sc.get("epsilon"),
                declared_alpha=sc.get("declared_alpha"),
            ),
            length=data["length"],
            start_mode=parse_start_mode(data.get("start_mode", "stationary")),
            replicates=data.get("replicates", 1),
            base_seed=data.get("base_seed", 0),
            tolerances=tuple(data.get("tolerances", (0.1,))),
            keep_records=data.get("keep_records", False),
        )


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
        return AggregateStats(
            median_abs_err=float(np.quantile(err_arr, 0.5)),
            p90_abs_err=float(np.quantile(err_arr, 0.9)),
            median_tv=float(np.quantile(tv_arr, 0.5)),
            p90_tv=float(np.quantile(tv_arr, 0.9)),
            sample_count=int(err_arr.size),
        )

    def to_json_dict(self) -> dict:
        return {
            "median_abs_err": self.median_abs_err,
            "p90_abs_err": self.p90_abs_err,
            "median_tv": self.median_tv,
            "p90_tv": self.p90_tv,
            "sample_count": self.sample_count,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "AggregateStats":
        return AggregateStats(
            median_abs_err=data["median_abs_err"],
            p90_abs_err=data["p90_abs_err"],
            median_tv=data["median_tv"],
            p90_tv=data["p90_tv"],
            sample_count=data["sample_count"],
        )


@dataclass(frozen=True)
class ReplicateSummary:
    replicate: int
    stream: int
    event_count: int
    firing_density: float
    final_decile: AggregateStats
    # [tolerance, density] pairs; offline scheme only, empty otherwise
    good_index_density: tuple[tuple[float, float], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "replicate": self.replicate,
            "stream": self.stream,
            "event_count": self.event_count,
            "firing_density": self.firing_density,
            "final_decile": self.final_decile.to_json_dict(),
            "good_index_density": [list(pair) for pair in self.good_index_density],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ReplicateSummary":
        return ReplicateSummary(
            replicate=data["replicate"],
            stream=data["stream"],
            event_count=data["event_count"],
            firing_density=data["firing_density"],
            final_decile=AggregateStats.from_json_dict(data["final_decile"]),
            good_index_density=tuple(
                (pair[0], pair[1]) for pair in data["good_index_density"]
            ),
        )


@dataclass(frozen=True)
class EvalReport:
    config: ExperimentConfig
    replicate_summaries: tuple[ReplicateSummary, ...]
    pooled: AggregateStats
    records: tuple[ScoredRecord, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "replicate_summaries": [
                s.to_json_dict() for s in self.replicate_summaries
            ],
            "pooled": self.pooled.to_json_dict(),
            "records": [list(r.row()) for r in self.records],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EvalReport":
        return EvalReport(
            config=ExperimentConfig.from_json_dict(data["config"]),
            replicate_summaries=tuple(
                ReplicateSummary.from_json_dict(s)
                for s in data["replicate_summaries"]
            ),
            pooled=AggregateStats.from_json_dict(data["pooled"]),
            records=tuple(ScoredRecord(*row) for row in data["records"]),
        )


# run_experiment scores every scheme from its columns and calls no
# iterator from here; the empty table stays because bench/traced.py
# wraps its entries.
_SCHEME_ITERATORS: dict = {}


# bench/traced.py wraps this name to time the aggregation layer
def _final_decile(values):
    count = len(values)
    if count == 0:
        return values
    return values[count - math.ceil(count / 10) :]


def _score_columns(scorer, config, bits, replicate, records):
    """(errs, tvs) of the scheme's estimates on one path; offline rows
    are keyed by position."""
    cols = scheme_columns(config.scheme, bits, config.scheme_config)
    errs, tvs = scorer.score_columns(cols)
    if config.keep_records:
        times = cols.time.tolist()
        ordinals = times if config.scheme == "offline" else range(1, len(times) + 1)
        rows = zip(
            ordinals,
            times,
            cols.age.tolist(),
            (cols.sum / cols.m).tolist(),
            scorer.thetas(cols.age).tolist(),
            errs.tolist(),
            tvs.tolist(),
        )
        records.extend(ScoredRecord(replicate, config.scheme, *row) for row in rows)
    return errs, tvs


def run_experiment(config: ExperimentConfig) -> EvalReport:
    law = make_law(config.law)
    scorer = _Scorer(law)
    horizon = config.length - 1
    offline = config.scheme == "offline"
    pooled_err: list[float] = []
    pooled_tv: list[float] = []
    summaries = []
    records: list[ScoredRecord] = []
    for replicate in range(config.replicates):
        bits = sample_path(
            law,
            horizon,
            config.start_mode,
            seed=config.base_seed,
            stream=replicate,
        ).bits
        errs, tvs = _score_columns(scorer, config, bits, replicate, records)
        event_count = len(errs)
        tail_err = _final_decile(errs)
        tail_tv = _final_decile(tvs)
        pooled_err.extend(tail_err)
        pooled_tv.extend(tail_tv)
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
        pooled=AggregateStats.from_arrays(pooled_err, pooled_tv),
        records=tuple(records),
    )


def emit_report(report: EvalReport, format: str = "json") -> bytes:
    if format == "json":
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True).encode()
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in report.records:
            row = record.row()
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in row]
            )
        return buffer.getvalue().encode()
    raise ValueError(f"unknown format {format!r}; expected 'csv' or 'json'")


def report_from_json(payload: bytes | str) -> EvalReport:
    return EvalReport.from_json_dict(json.loads(payload))
