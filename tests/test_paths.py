"""Path generation: exact traces for deterministic laws, reproducibility,
and statistical agreement with the law for sampled paths.

Statistical checks run on fixed seeds, so they are deterministic; the
tolerances come from the CLT bounds noted inline.
"""

import json
import math

import numpy as np
import pytest

from renewalbench.laws import make_law, perturb, stationary_zero_prob
from renewalbench.paths import (
    Path,
    PathError,
    StartMode,
    _generator,
    dump_path,
    load_path,
    parse_start_mode,
    sample_path,
    sample_paths,
)

from oracles import stationary_state_law


def det2():
    return make_law({"type": "explicit", "p": [0.0, 0.0, 1.0]})


def geom_half():
    return make_law({"type": "geometric", "q": 0.5, "truncate": 60})


def draw_run_lengths(law, rng, count):
    return law.length_cdf.searchsorted(rng.random(count), side="right")


def completed_run_lengths(bits):
    zeros = np.flatnonzero(bits == 0)
    return np.diff(zeros) - 1


class TestExactTraces:
    def test_deterministic_renewal_path(self):
        for seed in (0, 1, 987654321):
            path = sample_path(det2(), 8, StartMode.AT_RENEWAL, seed)
            assert path.bits.tolist() == [0, 1, 1, 0, 1, 1, 0, 1, 1]

    def test_all_zero_law_stationary(self):
        law = make_law({"type": "explicit", "p": [1.0]})
        path = sample_path(law, 5, StartMode.STATIONARY, seed=7)
        assert path.bits.tolist() == [0, 0, 0, 0, 0, 0]

    def test_renewal_mode_starts_with_zero(self):
        for law in (det2(), geom_half()):
            for seed in range(5):
                path = sample_path(law, 64, StartMode.AT_RENEWAL, seed)
                assert path.bits[0] == 0

    def test_run_lengths_never_exceed_support(self):
        law = make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})
        path = sample_path(law, 5000, StartMode.AT_RENEWAL, seed=3)
        assert completed_run_lengths(path.bits).max() <= 2

    def test_horizon_and_length(self):
        path = sample_path(geom_half(), 99, StartMode.AT_RENEWAL, seed=0)
        assert len(path.bits) == 100
        assert path.horizon == 99
        with pytest.raises(PathError):
            sample_path(geom_half(), -1, StartMode.AT_RENEWAL, seed=0)


class TestReproducibility:
    def test_same_key_same_bits(self):
        a = sample_path(geom_half(), 500, StartMode.STATIONARY, seed=42, stream=3)
        b = sample_path(geom_half(), 500, StartMode.STATIONARY, seed=42, stream=3)
        assert np.array_equal(a.bits, b.bits)

    def test_seed_and_stream_both_matter(self):
        base = sample_path(geom_half(), 500, StartMode.AT_RENEWAL, seed=42, stream=0)
        other_seed = sample_path(geom_half(), 500, StartMode.AT_RENEWAL, seed=43, stream=0)
        other_stream = sample_path(geom_half(), 500, StartMode.AT_RENEWAL, seed=42, stream=1)
        assert not np.array_equal(base.bits, other_seed.bits)
        assert not np.array_equal(base.bits, other_stream.bits)

    def test_longer_horizon_extends_the_same_path(self):
        short = sample_path(geom_half(), 50, StartMode.STATIONARY, seed=11, stream=2)
        long = sample_path(geom_half(), 5000, StartMode.STATIONARY, seed=11, stream=2)
        assert np.array_equal(long.bits[:51], short.bits)

    def test_pinned_bits_for_one_key(self):
        # Philox is stable across platforms; freeze one prefix as a canary.
        path = sample_path(geom_half(), 19, StartMode.AT_RENEWAL, seed=2024, stream=0)
        assert path.bits.tolist() == [int(c) for c in "01101011011010110000"]


def chunked_path(law, horizon, mode, seed, stream):
    """The stream's definition: a fresh Philox for the key, the
    stationary start from its first uniform, then runs from its next
    uniforms, 1024 at a time."""
    rng = _generator(seed, stream)
    if mode is StartMode.STATIONARY:
        states = np.cumsum(stationary_state_law(law))
        state = min(int(np.searchsorted(states, rng.random(), side="right")), law.support - 1)
        segments = [np.ones(state + 1, dtype=np.uint8)]
        segments[0][state] = 0
    else:
        segments = [np.zeros(1, dtype=np.uint8)]
    total = segments[0].size
    while total < horizon + 1:
        runs = draw_run_lengths(law, rng, 1024)
        chunk = np.ones(int(runs.sum()) + runs.size, dtype=np.uint8)
        chunk[np.cumsum(runs + 1) - 1] = 0
        segments.append(chunk)
        total += chunk.size
    return np.concatenate(segments)[: horizon + 1]


class TestBatchedSampler:
    # Under the all-zero law every run is a lone zero, so a renewal path
    # of horizon h draws exactly h uniforms.  Horizons up to 1024 (one
    # chunk) are converted a block of streams at once; past it, one
    # stream a chunk at a time.
    @pytest.mark.parametrize("horizon", [1, 63, 64, 1023, 1024, 1025, 2048])
    @pytest.mark.parametrize("mode", list(StartMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize(
        "spec",
        [
            {"type": "explicit", "p": [1.0]},
            {"type": "geometric", "q": 0.5, "truncate": 60},
            {"type": "zipf", "s": 2.2, "truncate": 500},
        ],
        ids=["zeros", "geometric", "zipf"],
    )
    def test_rows_equal_single_streams(self, spec, mode, horizon):
        law = make_law(spec)
        streams = range(5, 325)
        rows = sample_paths(law, horizon, mode, 77, streams)
        assert rows.shape == (len(streams), horizon + 1)
        assert rows.dtype == np.uint8 and not rows.flags.writeable
        for row, stream in zip(rows, streams):
            expected = chunked_path(law, horizon, mode, 77, stream)
            assert np.array_equal(row, expected), stream
            assert np.array_equal(sample_path(law, horizon, mode, 77, stream).bits, expected)

    @pytest.mark.parametrize("horizon", [1, 63, 64, 1024, 1025])
    @pytest.mark.parametrize("mode", list(StartMode), ids=lambda mode: mode.value)
    def test_long_runs_lone_streams_and_wide_keys(self, mode, horizon):
        # runs of 0 or 199 ones: a stationary start often lands past a
        # short horizon, which leaves a row of ones
        law = make_law({"type": "explicit", "p": [0.5] + [0.0] * 198 + [0.5]})
        streams = [*range(40), 2**70]
        rows = sample_paths(law, horizon, mode, 4, streams)
        for row, stream in zip(rows, streams):
            expected = chunked_path(law, horizon, mode, 4, stream)
            assert np.array_equal(row, expected), stream
            assert np.array_equal(sample_paths(law, horizon, mode, 4, [stream])[0], expected), stream
        if mode is StartMode.STATIONARY and horizon <= 64:
            assert rows.all(axis=1).any()

    def test_short_horizons_and_stream_order(self):
        law = geom_half()
        for horizon in (0, 1, 64):
            rows = sample_paths(law, horizon, StartMode.STATIONARY, 3, [9, 2, 2**70])
            for row, stream in zip(rows, (9, 2, 2**70)):
                assert np.array_equal(row, chunked_path(law, horizon, StartMode.STATIONARY, 3, stream))
        assert sample_paths(law, 10, StartMode.AT_RENEWAL, 3, []).shape == (0, 11)
        with pytest.raises(PathError):
            sample_paths(law, -1, StartMode.AT_RENEWAL, 3, [0])


class TestScalarDraws:
    def test_deterministic_laws(self):
        rng = _generator(0, 0)
        assert draw_run_lengths(det2(), rng, 1).tolist() == [2]
        law0 = make_law({"type": "explicit", "p": [1.0]})
        assert draw_run_lengths(law0, rng, 1).tolist() == [0]

    def test_empirical_mean_of_draws(self):
        # mean 1, variance 2: 3 sigma over 10^6 draws is ~0.0042
        law = geom_half()
        draws = draw_run_lengths(law, _generator(77, 0), 10**6)
        assert draws.mean() == pytest.approx(1.0, abs=0.005)

    def test_inverse_cdf_tie_convention(self):
        # P(K<=0)=0.5, P(K<=1)=0.8: u on each side of a boundary
        law = make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})
        cdf = 1.0 - np.asarray(law.tails[1:])
        u = np.array([0.0, 0.4999, 0.5, 0.7999, 0.8, 0.9999])
        ks = np.searchsorted(cdf, u, side="right")
        assert ks.tolist() == [0, 0, 1, 1, 2, 2]

    def test_length_cdf_built_once_per_law(self):
        law = make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})
        cdf = law.length_cdf
        assert cdf is law.length_cdf
        assert cdf.tolist() == (1.0 - np.asarray(law.tails[1:])).tolist()
        assert cdf[-1] == 1.0
        with pytest.raises(ValueError):
            cdf[0] = 0.25
        moved = perturb(law, 4, 0.1)
        assert moved.length_cdf is not cdf
        assert moved.length_cdf.tolist() == (1.0 - np.asarray(moved.tails[1:])).tolist()
        assert cdf.tolist() == (1.0 - np.asarray(law.tails[1:])).tolist()

    def test_stationary_cdf_built_once_per_law(self):
        zipf = make_law({"type": "zipf", "s": 3.0, "truncate": 10_000})
        laws = [det2(), geom_half(), zipf, make_law({"type": "explicit", "p": [0.5, 0.3, 0.2]})]
        for law in laws + [perturb(law, 7, 0.05) for law in laws if law.prob(0) > 0.05]:
            cdf = law.stationary_cdf
            assert cdf is law.stationary_cdf
            assert cdf.tobytes() == np.cumsum(stationary_state_law(law)).tobytes()
            with pytest.raises(ValueError):
                cdf[0] = 0.25


class TestLawAgreement:
    def test_completed_runs_match_law(self):
        # spec-level check: each p_k >= 0.01 matched within 0.01 at N = 10^6
        law = geom_half()
        path = sample_path(law, 10**6, StartMode.AT_RENEWAL, seed=5)
        runs = completed_run_lengths(path.bits)
        freq = np.bincount(runs, minlength=law.support) / len(runs)
        for k, p in enumerate(law.probs):
            if p >= 0.01:
                assert abs(freq[k] - p) < 0.01

    def test_stationary_zero_frequency(self):
        for law in (det2(), geom_half(), make_law({"type": "zipf", "s": 3.0, "truncate": 10000})):
            path = sample_path(law, 10**5, StartMode.STATIONARY, seed=9)
            zero_freq = float(np.mean(path.bits == 0))
            assert abs(zero_freq - stationary_zero_prob(law)) < 0.01

    def test_stationary_initial_state_histogram(self):
        # p_2 law: the first zero sits at the drawn state, uniform on {0,1,2};
        # 3000 draws give 3-sigma slack ~0.026 per cell
        law = det2()
        counts = {0: 0, 1: 0, 2: 0}
        for stream in range(3000):
            path = sample_path(law, 3, StartMode.STATIONARY, seed=31, stream=stream)
            psi = int(np.flatnonzero(path.bits == 0)[0])
            counts[psi] += 1
        for psi, c in counts.items():
            assert abs(c / 3000 - 1 / 3) < 0.03, (psi, c)


class TestDumpLoad:
    def test_roundtrip(self, tmp_path):
        law = geom_half()
        path = sample_path(law, 200, StartMode.STATIONARY, seed=8, stream=4)
        file = tmp_path / "run.path"
        dump_path(path, file)
        loaded = load_path(file)
        assert np.array_equal(loaded.bits, path.bits)
        assert loaded.seed == 8
        assert loaded.stream == 4
        assert loaded.mode is StartMode.STATIONARY
        assert loaded.law_provenance == law.provenance

    def test_dump_format(self, tmp_path):
        path = sample_path(det2(), 8, StartMode.AT_RENEWAL, seed=0)
        file = tmp_path / "p2.path"
        dump_path(path, file)
        assert file.read_text() == "011011011\n"
        sidecar = json.loads((tmp_path / "p2.path.json").read_text())
        assert sidecar["mode"] == "renewal"
        assert sidecar["law"] == {"type": "explicit", "p": [0.0, 0.0, 1.0]}

    def test_load_rejects_garbage(self, tmp_path):
        file = tmp_path / "bad.path"
        file.write_text("01102\n")
        (tmp_path / "bad.path.json").write_text(
            json.dumps({"seed": 0, "mode": "renewal", "law": {}})
        )
        with pytest.raises(PathError):
            load_path(file)
        file.write_text("0110\n")
        (tmp_path / "bad.path.json").write_text("{oops")
        with pytest.raises(PathError):
            load_path(file)

    @pytest.mark.parametrize(
        "line, sidecar, named",
        [
            # an Arabic-Indic three, the text's only non-ASCII digit
            ("01\u06630\n".encode(), {"seed": 0, "mode": "renewal", "law": {}}, "bad.path:"),
            (b"01\xff0\n", {"seed": 0, "mode": "renewal", "law": {}}, "bad.path:"),
            (b"0110\n", b'{"seed": 0, "mode": "renewal", "law": {"p": "\xff"}}', "bad.path.json:"),
            (b"0110\n", [0, "renewal", {}], "bad.path.json:"),
            (b"0110\n", {"seed": 0, "law": {}}, "no 'mode' field"),
            (b"0110\n", {"seed": "zero", "mode": "renewal", "law": {}}, "field 'seed'"),
            (b"0110\n", {"seed": 0, "mode": None, "law": {}}, "field 'mode'"),
            (b"0110\n", {"seed": 0, "mode": "renewal", "law": "geometric"}, "field 'law'"),
        ],
        ids=["non-ascii-digit", "non-utf8-line", "non-utf8-sidecar", "sidecar-list", "no-mode", "seed", "mode", "law"],
    )
    def test_malformed_dump_names_its_file(self, tmp_path, line, sidecar, named):
        file = tmp_path / "bad.path"
        file.write_bytes(line)
        sidecar_file = tmp_path / "bad.path.json"
        sidecar_file.write_bytes(sidecar if isinstance(sidecar, bytes) else json.dumps(sidecar).encode())
        with pytest.raises(PathError, match="bad.path") as caught:
            load_path(file)
        assert named in str(caught.value)

    @pytest.mark.parametrize("value", [3.7, 3.0, True, "12", None])
    @pytest.mark.parametrize("field", ["seed", "stream"])
    def test_sidecar_counts_must_be_json_integers(self, tmp_path, field, value):
        file = tmp_path / "bad.path"
        file.write_bytes(b"0110\n")
        sidecar = {"seed": 0, "stream": 0, "mode": "renewal", "law": {}, field: value}
        (tmp_path / "bad.path.json").write_text(json.dumps(sidecar))
        with pytest.raises(PathError, match="bad.path.json") as caught:
            load_path(file)
        assert f"field {field!r}: expected a JSON integer, got {value!r}" in str(caught.value)

    def test_missing_sidecar(self, tmp_path):
        file = tmp_path / "lone.path"
        file.write_text("0101\n")
        with pytest.raises(PathError):
            load_path(file)


class TestStartModeParsing:
    def test_names(self):
        assert parse_start_mode("renewal") is StartMode.AT_RENEWAL
        assert parse_start_mode("stationary") is StartMode.STATIONARY
        with pytest.raises(PathError):
            parse_start_mode("sideways")
