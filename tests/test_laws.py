"""Law construction and conditional-quantity oracles.

Expected values here are derived independently of the implementation:
small laws by hand, the truncated geometric via exact Fraction
arithmetic, identities via hypothesis over random explicit laws.
"""

import gc
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench import laws
from renewalbench.laws import (
    MAX_SUPPORT,
    SUM_TOL,
    LawError,
    gamma_limit,
    law_from_json,
    law_info_text,
    make_law,
    perturb,
    power_moment,
    residual_law,
    residual_mean,
    stationary_zero_prob,
)

from oracles import PROB_TOL, markov_tail_bound_holds, stationary_state_law, tv_l1


def _read_only_float64(*tables):
    return all(table.dtype == np.float64 and not table.flags.writeable for table in tables)


def det2():
    return make_law({"type": "explicit", "p": [0.0, 0.0, 1.0]})


def geom_half(K=60):
    return make_law({"type": "geometric", "q": 0.5, "truncate": K})


class TestHandDerivedLaws:
    def test_deterministic_run_of_two(self):
        law = det2()
        assert law.probs.tolist() == [0.0, 0.0, 1.0]
        assert law.tails.tolist() == [1.0, 1.0, 1.0, 0.0]
        assert law.mean == 2.0
        assert stationary_zero_prob(law) == pytest.approx(1.0 / 3.0, abs=PROB_TOL)
        # residual means: 2 ones remain at age 0, 1 at age 1, 0 at age 2
        assert residual_mean(law, 0) == 2.0
        assert residual_mean(law, 1) == 1.0
        assert residual_mean(law, 2) == 0.0
        with pytest.raises(LawError):
            residual_mean(law, 3)

    def test_three_point_law(self):
        law = make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})
        assert law.tails == pytest.approx((1.0, 0.5, 0.2, 0.0), abs=PROB_TOL)
        assert law.mean == pytest.approx(0.7, abs=PROB_TOL)
        # age 1: remaining mass 0.5 split 0.3 at zero more, 0.2 at one more
        assert residual_mean(law, 1) == pytest.approx(0.2 / 0.5, abs=PROB_TOL)
        res = residual_law(law, 1)
        assert res.offset == 1
        assert res.probs == pytest.approx((0.6, 0.4), abs=PROB_TOL)
        assert res.mean == pytest.approx(0.4, abs=PROB_TOL)

    def test_uniform_three(self):
        law = make_law({"type": "explicit", "p": [1 / 3, 1 / 3, 1 / 3]})
        assert law.mean == pytest.approx(1.0, abs=PROB_TOL)
        assert residual_mean(law, 1) == pytest.approx(0.5, abs=PROB_TOL)
        res = residual_law(law, 1)
        assert res.probs == pytest.approx((0.5, 0.5), abs=PROB_TOL)
        states = stationary_state_law(law)
        assert states == pytest.approx((0.5, 1 / 3, 1 / 6), abs=PROB_TOL)
        assert math.fsum(states) == pytest.approx(1.0, abs=PROB_TOL)

    def test_stationary_states_of_deterministic(self):
        assert stationary_state_law(det2()) == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=PROB_TOL
        )

    def test_all_zero_runs(self):
        law = make_law({"type": "explicit", "p": [1.0]})
        assert stationary_zero_prob(law) == 1.0
        assert stationary_state_law(law) == (1.0,)
        assert power_moment(law, 7.0) == 0.0

    def test_power_moment(self):
        assert power_moment(det2(), 3.0) == 8.0
        law = make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})
        # 0.3 * 1 + 0.2 * 4
        assert power_moment(law, 2.0) == pytest.approx(1.1, abs=PROB_TOL)


class TestGeometricAgainstFractions:
    """Oracle: exact rational arithmetic on the truncated geometric."""

    Q = Fraction(1, 2)
    K = 60

    def exact_probs(self):
        raw = [(1 - self.Q) * self.Q**k for k in range(self.K)]
        total = sum(raw)
        return [p / total for p in raw]

    def test_masses_and_mean(self):
        law = geom_half(self.K)
        exact = self.exact_probs()
        assert law.support == self.K
        for k in (0, 1, 5, 30, 59):
            assert law.probs[k] == pytest.approx(float(exact[k]), abs=PROB_TOL)
        exact_mean = sum(k * p for k, p in enumerate(exact))
        assert law.mean == pytest.approx(float(exact_mean), abs=SUM_TOL)
        assert law.mean == pytest.approx(1.0, abs=1e-9)
        assert stationary_zero_prob(law) == pytest.approx(0.5, abs=1e-9)

    def test_residual_mean_matches_fractions(self):
        law = geom_half(self.K)
        exact = self.exact_probs()
        for age in (0, 1, 7, 40):
            tail = sum(exact[age:])
            exact_mu = sum((k - age) * p for k, p in enumerate(exact) if k >= age) / tail
            assert residual_mean(law, age) == pytest.approx(float(exact_mu), abs=SUM_TOL)
        # memorylessness away from the truncation edge
        assert residual_mean(law, 7) == pytest.approx(1.0, abs=1e-6)

    def test_second_moment_closed_form(self):
        # untruncated closed form (q + q^2) / (1 - q)^2 = 3 at q = 1/2
        assert power_moment(geom_half(), 2.0) == pytest.approx(3.0, abs=1e-3)

    def test_markov_bound_executable(self):
        law = geom_half(self.K)
        assert markov_tail_bound_holds(law, 0, 16) is True
        assert markov_tail_bound_holds(law, 3, 2) is True
        assert markov_tail_bound_holds(det2(), 0, 4) is True


class TestZipf:
    def test_normalization_and_shape(self):
        law = make_law({"type": "zipf", "s": 3.0, "truncate": 10000})
        assert law.support == 10000
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=SUM_TOL)
        ratio = law.probs[1] / law.probs[0]
        assert ratio == pytest.approx(2.0**-3.0, abs=PROB_TOL)
        assert law.probs[10] > law.probs[100] > law.probs[1000]

    def test_gamma_limit(self):
        assert gamma_limit(3.0) == pytest.approx(1 / 3, abs=PROB_TOL)
        assert gamma_limit(2.5) == pytest.approx(0.2, abs=PROB_TOL)
        assert gamma_limit(100.0) == pytest.approx(1 / 3, abs=PROB_TOL)
        with pytest.raises(LawError):
            gamma_limit(2.0)


class TestTvL1:
    def test_point_masses(self):
        assert tv_l1([1.0], [1.0]) == 0.0
        assert tv_l1([1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]) == 2.0
        assert tv_l1([0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0, abs=PROB_TOL)

    def test_symmetry_and_padding(self):
        a, b = [0.25, 0.75], [0.25, 0.25, 0.5]
        assert tv_l1(a, b) == tv_l1(b, a)
        assert tv_l1(a, b) == pytest.approx(1.0, abs=PROB_TOL)


class TestPerturb:
    def test_mean_shift_is_exact_product(self):
        base = geom_half()
        pert = perturb(base, 5, 0.1)
        assert pert.mean - base.mean == pytest.approx(0.5, abs=PROB_TOL)
        assert math.fsum(pert.probs) == pytest.approx(1.0, abs=SUM_TOL)
        assert pert.probs[0] == pytest.approx(base.probs[0] - 0.1, abs=PROB_TOL)
        assert pert.probs[5] == pytest.approx(base.probs[5] + 0.1, abs=PROB_TOL)

    def test_support_extension(self):
        pert = perturb(geom_half(), 200, 1e-3)
        assert pert.support == 201
        assert pert.probs[200] == pytest.approx(1e-3, abs=PROB_TOL)
        assert pert.tail(200) == pytest.approx(1e-3, abs=PROB_TOL)

    def test_l1_to_base_is_two_delta(self):
        base = geom_half()
        pert = perturb(base, 200, 1e-3)
        assert tv_l1(base.probs, pert.probs) == pytest.approx(2e-3, abs=PROB_TOL)

    def test_tiny_delta_continuity(self):
        base = geom_half()
        pert = perturb(base, 41, 1e-12)
        assert pert.mean - base.mean == pytest.approx(41e-12, abs=PROB_TOL)
        assert tv_l1(base.probs, pert.probs) <= 3e-12

    def test_reverse_move_restores(self):
        base = geom_half()
        pert = perturb(base, 41, 0.05)
        back = list(pert.probs)
        back[0] += 0.05
        back[41] -= 0.05
        restored = make_law({"type": "explicit", "p": back})
        for k in range(base.support):
            assert restored.prob(k) == pytest.approx(base.prob(k), abs=PROB_TOL)

    def test_rejects_bad_delta(self):
        base = geom_half()
        with pytest.raises(LawError):
            perturb(base, 5, base.probs[0] * 1.5)
        with pytest.raises(LawError):
            perturb(base, 5, 0.0)
        with pytest.raises(LawError):
            perturb(base, 0, 0.01)
        with pytest.raises(LawError):
            perturb(base, MAX_SUPPORT + 4, 0.01)

    def test_provenance_records_the_move(self):
        pert = perturb(geom_half(), 5, 0.1)
        assert pert.provenance["type"] == "perturbed"
        assert pert.provenance["to_index"] == 5
        assert pert.provenance["base"]["type"] == "geometric"


class TestValidation:
    def test_rejects_bad_specs(self):
        for spec in (
            {"type": "explicit", "p": []},
            {"type": "explicit", "p": [0.0, 0.0]},
            {"type": "explicit", "p": [0.5, -0.1, 0.6]},
            {"type": "explicit", "p": [0.5, 0.4]},
            {"type": "geometric", "q": 1.5, "truncate": 10},
            {"type": "geometric", "q": 0.5},
            {"type": "geometric", "q": 0.5, "truncate": 0},
            {"type": "zipf", "s": -1.0, "truncate": 10},
            {"type": "zipf", "s": 3.0},
            {"type": "zipf", "s": 3.0, "truncate": MAX_SUPPORT + 1},
            {"type": "mystery"},
            [0.5, 0.5],
        ):
            with pytest.raises(LawError):
                make_law(spec)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"type": "geometric", "q": 0.5, "truncate": 60, "truncat": 9}, "'truncat'"),
            ({"type": "explicit", "p": [1.0], "truncate": 1}, "'truncate'"),
            ({"type": "zipf", "s": 2.0, "truncate": 5, "q": 0.5}, "'q'"),
            ({"type": "zipf", "s": True, "truncate": 5}, "got True"),
            ({"type": "zipf", "s": math.inf, "truncate": 5}, "finite s > 0, got inf"),
            ({"type": "zipf", "s": math.nan, "truncate": 5}, "finite s > 0, got nan"),
            ({"type": "geometric", "q": 0.5, "truncate": True}, "got True"),
            ({"type": "zipf", "s": 2.0, "truncate": 5.0}, "got 5.0"),
            ({"type": "geometric", "q": "0.5", "truncate": 5}, "got '0.5'"),
            ({"type": "explicit", "p": [True]}, "index 0"),
            ({"type": "explicit", "p": ["0.5", "0.5"]}, "index 0"),
            ({"type": "explicit", "p": [0.5, None, 0.5]}, "index 1"),
            ({"type": ["zipf"], "s": 2.0, "truncate": 5}, "unknown law type"),
        ],
    )
    def test_rejects_what_it_does_not_read(self, spec, named):
        with pytest.raises(LawError, match=re.escape(named)):
            make_law(spec)

    def test_accepts_any_real_but_bool(self):
        as_int = make_law({"type": "zipf", "s": 3, "truncate": 40})
        assert as_int.provenance == {"type": "zipf", "s": 3.0, "truncate": 40}
        assert as_int == make_law({"type": "zipf", "s": 3.0, "truncate": 40})
        thirds = make_law({"type": "explicit", "p": [Fraction(1, 3)] * 3})
        assert thirds.probs.tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert make_law({"type": "geometric", "q": np.float64(0.5), "truncate": 9}).support == 9

    def test_numpy_scalars_build_in_double_precision(self):
        # a float32 exponent once made float32 masses that missed a sum of 1
        for spec, numpy_spec in (
            ({"type": "zipf", "s": 2.5, "truncate": 60}, {"type": "zipf", "s": np.float32(2.5), "truncate": np.int64(60)}),
            ({"type": "geometric", "q": 0.5, "truncate": 60}, {"type": "geometric", "q": np.float32(0.5), "truncate": 60}),
        ):
            law = make_law(numpy_spec)
            assert law == make_law(spec) and law.provenance == spec
            assert _read_only_float64(law.probs)

    def test_json_roundtrip_and_malformed(self):
        law = law_from_json(json.dumps({"type": "explicit", "p": [0, 0, 1]}))
        assert law.mean == 2.0
        with pytest.raises(LawError):
            law_from_json("{not json")

    def test_explicit_masses_must_be_a_list(self):
        with pytest.raises(LawError, match="explicit law needs a 'p' list of masses"):
            make_law({"type": "explicit", "p": 0.5})

    def test_support_past_the_cap_is_named(self):
        # the cap is checked before the masses are read: no spec is
        # needed that builds MAX_SUPPORT + 1 masses first
        with pytest.raises(LawError, match=f"support size {MAX_SUPPORT + 1} exceeds the {MAX_SUPPORT} cap"):
            laws._build(np.zeros(MAX_SUPPORT + 1), {})

    def test_negative_ages_are_named(self):
        law = det2()
        assert law.tail(-1) == 1.0  # every run holds at least no ones
        with pytest.raises(LawError, match="overshoot index must be >= 0, got -1"):
            law.overshoot(-1)
        for function in (residual_mean, residual_law):
            with pytest.raises(LawError, match="run age must be >= 0, got -1"):
                function(law, -1)

    def test_an_age_no_run_reaches_has_no_residual_law(self):
        with pytest.raises(LawError, match="run age 3 has zero mass under the law"):
            residual_law(det2(), 3)

    def test_info_text_mentions_key_fields(self):
        text = law_info_text(det2())
        assert "support size : 3" in text
        assert "mean run" in text
        assert "zero freq" in text
        assert "residual mean" in text

    def test_info_text_lists_ten_tails(self):
        text = law_info_text(geom_half())
        rows = [line for line in text.splitlines() if line[:4].strip().isdigit()]
        assert len(rows) == 10


law_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=30,
).filter(lambda xs: sum(xs) > 1e-6)


def normalize(xs):
    total = math.fsum(xs)
    return [x / total for x in xs]


class TestLawProperties:
    @given(law_strategy)
    @settings(max_examples=200, deadline=None)
    def test_tables_consistent(self, raw):
        law = make_law({"type": "explicit", "p": normalize(raw)})
        # tails decrease, start at 1, end at 0
        assert law.tails[0] == pytest.approx(1.0, abs=SUM_TOL)
        assert law.tails[-1] == 0.0
        for L in range(law.support):
            assert law.tails[L] >= law.tails[L + 1] - PROB_TOL
            assert law.tails[L] - law.tails[L + 1] == pytest.approx(
                law.probs[L], abs=PROB_TOL
            )
        # mean equals the direct sum and the sum of positive-age tails
        assert law.mean == pytest.approx(math.fsum(law.tails[1:]), abs=SUM_TOL)
        assert law.mean == pytest.approx(
            math.fsum(k * p for k, p in enumerate(law.probs)), abs=SUM_TOL
        )
        # unnormalized mean-excess recursion, checked by direct summation
        for L in range(law.support + 1):
            direct = math.fsum(
                (k - L) * p for k, p in enumerate(law.probs) if k >= L
            )
            assert law.overshoot(L) == pytest.approx(direct, abs=SUM_TOL)

    @given(law_strategy)
    @settings(max_examples=200, deadline=None)
    def test_residual_and_stationary(self, raw):
        law = make_law({"type": "explicit", "p": normalize(raw)})
        assert residual_mean(law, 0) == pytest.approx(law.mean, abs=SUM_TOL)
        res0 = residual_law(law, 0)
        assert res0.probs == pytest.approx(law.probs, abs=PROB_TOL)
        states = stationary_state_law(law)
        assert math.fsum(states) == pytest.approx(1.0, abs=SUM_TOL)
        assert states[0] == pytest.approx(stationary_zero_prob(law), abs=PROB_TOL)
        for age in range(law.support):
            if law.tail(age) <= 0.0:
                continue
            res = residual_law(law, age)
            assert math.fsum(res.probs) == pytest.approx(1.0, abs=SUM_TOL)
            assert res.mean == pytest.approx(
                math.fsum(l * p for l, p in enumerate(res.probs)), abs=SUM_TOL
            )

    @given(
        law_strategy,
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_markov_bound_is_a_theorem(self, raw, age, log2k):
        law = make_law({"type": "explicit", "p": normalize(raw)})
        if law.tail(age) <= 0.0:
            return
        assert markov_tail_bound_holds(law, age, 2**log2k) is True

    @given(
        law_strategy,
        st.integers(min_value=1, max_value=80),
        st.floats(min_value=1e-6, max_value=0.9),
    )
    @settings(max_examples=120, deadline=None)
    def test_perturb_shift_identity(self, raw, k, frac):
        law = make_law({"type": "explicit", "p": normalize(raw)})
        if law.prob(0) <= 1e-9:
            return
        delta = frac * law.prob(0)
        if not delta > 0.0:
            return
        pert = perturb(law, k, delta)
        assert pert.mean - law.mean == pytest.approx(k * delta, abs=SUM_TOL)
        assert tv_l1(law.probs, pert.probs) == pytest.approx(2 * delta, abs=SUM_TOL)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10).filter(
            lambda xs: sum(xs) > 1e-6
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_tv_l1_metric_axioms(self, xs, ys, zs):
        a, b, c = normalize(xs), normalize(ys), normalize(zs)
        assert tv_l1(a, b) == tv_l1(b, a)
        assert 0.0 <= tv_l1(a, b) <= 2.0 + PROB_TOL
        assert tv_l1(a, a) == 0.0
        assert tv_l1(a, c) <= tv_l1(a, b) + tv_l1(b, c) + SUM_TOL


def _loop_tables(probs):
    """The tails and overshoots as the backward loops build them."""
    n = len(probs)
    tails = [0.0] * (n + 1)
    for L in range(n - 1, -1, -1):
        tails[L] = tails[L + 1] + probs[L]
    overshoots = [0.0] * (n + 1)
    for L in range(n - 1, -1, -1):
        overshoots[L] = overshoots[L + 1] + tails[L + 1]
    return tails, overshoots


TABLE_LAWS = [
    {"type": "explicit", "p": [1.0]},
    {"type": "explicit", "p": [0.0, 0.0, 1.0]},
    {"type": "explicit", "p": [0.0, 0.5, 0.5]},
    {"type": "explicit", "p": [0.5, 0.3, 0.2]},
    {"type": "explicit", "p": [0.4, 0.0, 0.6]},
    {"type": "explicit", "p": [1 / 3, 1 / 3, 1 / 3]},
    {"type": "explicit", "p": [0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25]},
    {"type": "geometric", "q": 0.5, "truncate": 10},
    {"type": "geometric", "q": 0.5, "truncate": 60},
    {"type": "geometric", "q": 0.8, "truncate": 200},
    {"type": "zipf", "s": 2.2, "truncate": 500},
    {"type": "zipf", "s": 3.0, "truncate": 10_000},
]


@pytest.mark.parametrize("spec", TABLE_LAWS, ids=lambda spec: f"{spec['type']}-{len(json.dumps(spec))}")
def test_tables_equal_the_backward_loops(spec):
    law = make_law(spec)
    tails, overshoots = _loop_tables(law.probs)
    assert [x.hex() for x in law.tails] == [x.hex() for x in tails]
    assert [x.hex() for x in law.overshoots] == [x.hex() for x in overshoots]
    assert law.mean.hex() == overshoots[0].hex()


def test_tables_of_a_long_perturbed_law_equal_the_backward_loops():
    law = perturb(geom_half(), 40_961, 0.01)
    assert law.support == 40_962
    tails, overshoots = _loop_tables(law.probs)
    assert [x.hex() for x in law.tails] == [x.hex() for x in tails]
    assert [x.hex() for x in law.overshoots] == [x.hex() for x in overshoots]
    assert law.mean.hex() == overshoots[0].hex()
    assert _read_only_float64(law.probs, law.tails, law.overshoots)


class TestBuiltLawsAreShared:
    """make_law hands back a recently built law for an equal spec or for
    the law's own provenance, equal to a fresh build."""

    def test_spec_and_provenance_share_one_law(self, monkeypatch):
        monkeypatch.setattr(laws, "_BUILT", {})
        built = []
        fresh = laws._make_law
        monkeypatch.setattr(laws, "_make_law", lambda spec: built.append(spec) or fresh(spec))
        spec = {"type": "zipf", "s": 3, "truncate": 500}
        law = make_law(spec)
        assert law.provenance == {"type": "zipf", "s": 3.0, "truncate": 500}
        assert make_law(dict(spec)) is law
        assert make_law(law.provenance) is law
        assert law_from_json(json.dumps(law.provenance)) is law
        assert built == [spec]
        assert law == fresh(spec) and law.provenance == fresh(spec).provenance

    def test_cache_is_bounded_and_keys_differ_by_value(self, monkeypatch):
        monkeypatch.setattr(laws, "_BUILT", {})
        made = [make_law({"type": "geometric", "q": q, "truncate": 30}) for q in (0.1, 0.2, 0.3, 0.4)]
        assert len(laws._BUILT) <= laws._BUILT_KEYS
        assert len({id(law) for law in made}) == 4
        assert make_law({"type": "geometric", "q": 0.4, "truncate": 30}) is made[-1]
        # -0.0 and 0.0 are different specs
        negative = make_law({"type": "explicit", "p": [-0.0, 1.0]})
        positive = make_law({"type": "explicit", "p": [0.0, 1.0]})
        assert math.copysign(1.0, negative.probs[0]) == -1.0
        assert math.copysign(1.0, positive.probs[0]) == 1.0

    def test_specs_that_are_not_json_still_build(self):
        law = make_law({"type": "explicit", "p": [Fraction(1, 2), Fraction(1, 2)]})
        assert law.probs.tolist() == [0.5, 0.5]
        with pytest.raises(LawError):
            make_law({"type": "explicit", "p": [float("nan"), 1.0]})
        with pytest.raises(LawError):
            make_law({"type": "explicit", "p": [float("nan"), 1.0]})


def _loop_masses(spec):
    """The normalized masses as Python loops build them: the raw masses,
    one scale for geometric and zipf, then each mass over the fsum."""
    if spec["type"] == "explicit":
        probs = [float(p) for p in spec["p"]]
    else:
        K = spec["truncate"]
        if spec["type"] == "geometric":
            q = spec["q"]
            raw = [(1.0 - q) * q**k for k in range(K)]
        else:
            raw = [(k + 1.0) ** -spec["s"] for k in range(K)]
        scale = 1.0 / math.fsum(raw)
        probs = [p * scale for p in raw]
    total = math.fsum(probs)
    return [p / total for p in probs]


ORACLE_LAWS = [
    {"type": "explicit", "p": [0.25, 0.0, 5e-324, 1e-310, 0.7500000001, 0.0]},
    {"type": "explicit", "p": [-0.0, 0.5, 2.2250738585072014e-308, 0.0, 0.5]},
    {"type": "geometric", "q": 0.5, "truncate": 60},
    {"type": "geometric", "q": 0.999, "truncate": 100_000},
    {"type": "zipf", "s": 3.0, "truncate": 10_000},
    {"type": "zipf", "s": 1.1, "truncate": 4096},
]


@pytest.mark.parametrize("spec", ORACLE_LAWS, ids=lambda spec: f"{spec['type']}-{spec.get('truncate', len(spec.get('p', ())))}")
def test_tables_equal_the_python_loop_build(spec):
    # the array validation, normalization and scaling round every mass
    # as the loops do, so each table matches bit for bit
    law = laws._make_law(spec)
    probs = _loop_masses(spec)
    tails, overshoots = _loop_tables(probs)
    assert [x.hex() for x in law.probs] == [x.hex() for x in probs]
    assert [x.hex() for x in law.tails] == [x.hex() for x in tails]
    assert [x.hex() for x in law.overshoots] == [x.hex() for x in overshoots]
    assert _read_only_float64(law.probs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-300], ids=repr)
@pytest.mark.parametrize("k", [0, 1, 3])
def test_invalid_mass_is_named_by_its_first_index(bad, k):
    p = [0.25] * 4
    p[k] = bad
    p.append(-1.0)  # a later bad mass: only the first is named
    with pytest.raises(LawError) as info:
        make_law({"type": "explicit", "p": p})
    assert str(info.value) == f"mass at index {k} is invalid: {bad!r}"


@pytest.mark.parametrize("p, k", [([1e308, 1e308], 0), ([0.5, 0.5, 1e308, 1e308], 2), ([1.0 + 2 * SUM_TOL, 0.0], 0)])
def test_mass_above_one_is_named_by_its_first_index(p, k):
    # before fsum, which overflows on the first two
    with pytest.raises(LawError) as info:
        make_law({"type": "explicit", "p": p})
    assert str(info.value) == f"mass at index {k} is {p[k]!r}, above 1 + {SUM_TOL}"


def test_negative_zero_mass_is_valid():
    law = laws._make_law({"type": "explicit", "p": [0.5, -0.0, 0.5]})
    assert law.probs.tolist() == [0.5, 0.0, 0.5]
    assert math.copysign(1.0, law.probs[1]) == -1.0


# Scalar outputs recorded while a law's tables were tuples of Python
# floats: repr of mean, reprs of residual_mean at ages 0-9, repr of
# power_moment(law, 2.5), repr of stationary_zero_prob and the sha256 of
# law_info_text.  Arrays must leave every one as it was.
SCALARS = {
    "geometric": (
        "1.0",
        ["1.0", "0.9999999999999999", "0.9999999999999998", "0.9999999999999996", "0.9999999999999992",
         "0.9999999999999984", "0.9999999999999969", "0.9999999999999941", "0.9999999999999885", "0.9999999999999774"],
        "5.995609792144069",
        "0.5",
        "c858cb17771e81a3a156e22695ddf9690dde7a8dfdcfee66cadad2b83f28828f",
    ),
    "zipf": (
        "0.36834959673347745",
        ["0.36834959673347745", "1.1913489602178449", "2.123928957375732", "3.0895538558849025", "4.068424682600711",
         "5.05364414963432", "6.042257863339951", "7.032805982892482", "8.024488905298908", "9.01683347014767"],
        "161.52469839484218",
        "0.7308073919027701",
        "abb14de8d8ea7608e1851019962a57252b362725d25683c917cb95c3b0b237d0",
    ),
    "perturbed": (
        "410.60999999977247",
        ["410.60999999977247", "804.1176470583774", "1576.3076923068172", "3034.8518518501664", "5650.103448272724",
         "9929.484848479333", "15983.048780478926", "22992.15789472407", "29449.62921346679", "34260.66013069992"],
        "3395677035.642743",
        "0.0024294842205013307",
        "00752baf042be1c8fa584f54bb4b0d53ff095a1039ef1e094ab1195fc7a5d198",
    ),
}


def _scalar_law(name):
    if name == "zipf":
        return make_law({"type": "zipf", "s": 3, "truncate": 10_000})
    return perturb(geom_half(), 40_961, 0.01) if name == "perturbed" else geom_half()


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_scalar_outputs_keep_their_recorded_values(name):
    law = _scalar_law(name)
    mean, residuals, moment, zero, info = SCALARS[name]
    assert repr(law.mean) == mean
    assert [repr(residual_mean(law, age)) for age in range(10)] == residuals
    assert repr(power_moment(law, 2.5)) == moment
    assert repr(stationary_zero_prob(law)) == zero
    assert hashlib.sha256(law_info_text(law).encode()).hexdigest() == info
    assert all(type(x) is float for x in (law.mean, law.prob(0), law.tail(1), law.overshoot(2)))


def test_laws_compare_by_value_and_do_not_hash():
    spec = {"type": "zipf", "s": 3.0, "truncate": 500}
    law, fresh = make_law(spec), laws._make_law(spec)
    assert law is not fresh and law == fresh
    assert law != perturb(law, 3, 0.01) and law != make_law({"type": "zipf", "s": 3.0, "truncate": 499})
    assert law != law.probs.tolist()
    with pytest.raises(TypeError, match="unhashable"):
        hash(law)


def test_a_long_law_retains_three_doubles_per_entry():
    # perturb, unlike make_law, builds no list of Python powers, so the
    # 2^21-entry law is quick to make; as tuples it retained 72 B/entry
    base = geom_half()
    gc.collect()
    tracemalloc.start()
    try:
        law = perturb(base, MAX_SUPPORT - 1, 0.01)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert law.support == MAX_SUPPORT
    assert retained <= 25 * law.support
