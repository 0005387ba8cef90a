"""Streaming passes against the per-position quadratic reference, and
the reference against its own prefixes.

Equality here is exact object equality: same firing times, same
ordinals, same histograms, same floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalbench.laws import make_law
from renewalbench.paths import StartMode, sample_path
from renewalbench.schemes import SCHEME_TAGS, OfflineEstimate, SchemeConfig, ref_run, run_scheme

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def random_setups(count, seed, support_cap=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            spec = {
                "type": "geometric",
                "q": float(rng.uniform(0.2, 0.8)),
                "truncate": int(rng.integers(10, support_cap)),
            }
        elif kind == 1:
            size = int(rng.integers(2, 9))
            masses = rng.dirichlet(np.ones(size))
            spec = {"type": "explicit", "p": [float(x) for x in masses]}
        else:
            spec = {
                "type": "zipf",
                "s": float(rng.uniform(2.2, 4.0)),
                "truncate": int(rng.integers(50, 500)),
            }
        config = SchemeConfig(
            gamma=float(rng.uniform(0.15, 0.6)),
            epsilon=float(rng.uniform(0.1, 0.9)),
        )
        mode = StartMode.STATIONARY if rng.random() < 0.5 else StartMode.AT_RENEWAL
        yield make_law(spec), int(rng.integers(2**32)), config, mode


class TestRandomizedParity:
    def test_sampled_paths(self):
        for law, seed, config, mode in random_setups(30, seed=2025):
            bits = sample_path(law, 600, mode, seed=seed).bits
            for tag in SCHEME_TAGS:
                assert run_scheme(tag, bits, config) == ref_run(tag, bits, config), (
                    tag,
                    law.provenance,
                    seed,
                )

    def test_hand_paths(self):
        config = SchemeConfig(gamma=0.5, epsilon=0.5)
        paths = [
            [0, 1, 1] * 12 + [0],
            [0, 1] * 20,
            [0] * 25,
            [1] * 10,  # no zero at all: both sides empty
            [1, 1, 0, 1, 1, 1, 0, 1],
            [0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0],
        ]
        for bits in paths:
            for tag in SCHEME_TAGS:
                assert run_scheme(tag, bits, config) == ref_run(tag, bits, config)


@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=160),
    gamma=st.floats(min_value=0.05, max_value=0.95),
    epsilon=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=250, deadline=None)
def test_fuzz_parity(bits, gamma, epsilon):
    config = SchemeConfig(gamma=gamma, epsilon=epsilon)
    for tag in SCHEME_TAGS:
        assert run_scheme(tag, bits, config) == ref_run(tag, bits, config)


def _cut(rows, t):
    """The rows of a full-path run that a prefix ending at t may report."""
    return [row for row in rows if (row.position if isinstance(row, OfflineEstimate) else row.time) <= t]


def test_reference_reads_only_the_prefix():
    # ref_run(bits[:t+1]) must be ref_run(bits) up to t, at every t.  An
    # estimate that read a bit past t can differ between the two, and
    # every t is checked because such a read rarely changes one.
    rng = np.random.default_rng(808)
    for _ in range(20):
        size = int(rng.integers(1, 151))
        bits = (rng.random(size) >= rng.uniform(0.05, 0.95)).astype(np.int64).tolist()
        config = SchemeConfig(
            gamma=float(rng.uniform(0.02, 0.98)),
            epsilon=float(rng.uniform(0.02, 0.98)),
        )
        for tag in SCHEME_TAGS:
            full = ref_run(tag, bits, config)
            for t in range(size):
                assert ref_run(tag, bits[: t + 1], config) == _cut(full, t), (bits, config, tag, t)
