"""Seeded generation of binary renewal paths.

The process is the countable-state chain that counts down through a
run: from state i >= 1 it moves to i - 1 emitting a one, and from state
0 it emits a zero and redraws a fresh run length.  Collapsing states to
"is the state 0" gives the observed bit sequence.

Reproducibility contract: paths are a pure function of (law, horizon,
mode, seed, stream).  The generator is Philox (counter-based, keyed by
seed and stream) and run lengths come from inverse-CDF lookups of its
uniforms.  Those are consumed in order, one per run (after one for the
stationary start), however many are drawn at a time, so a path is a
prefix of the path any longer horizon produces for the same key.

sample_paths draws a block of streams at once: one Philox re-keyed per
stream, and the paths as the rows of one array.  sample_path is its
one-stream case.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from .laws import RenewalLaw

__all__ = [
    "PathError",
    "StartMode",
    "Path",
    "parse_start_mode",
    "sample_run_length",
    "sample_path",
    "sample_paths",
    "dump_path",
    "load_path",
]

# Most uniforms drawn at a time.  Every run takes at least one position,
# so a path never needs more uniforms than it has positions left.
_CHUNK = 1024

_MASK64 = (1 << 64) - 1


class PathError(ValueError):
    """Invalid path parameters or a malformed path dump."""


class StartMode(enum.Enum):
    """How position 0 relates to the renewal structure."""

    AT_RENEWAL = "renewal"
    STATIONARY = "stationary"


def parse_start_mode(name: str) -> StartMode:
    for mode in StartMode:
        if mode.value == name:
            return mode
    raise PathError(f"unknown start mode {name!r}; use 'renewal' or 'stationary'")


@dataclass(frozen=True, eq=False)
class Path:
    """An immutable sampled bit sequence plus everything that made it.

    ``bits`` has ``horizon + 1`` entries (positions 0..horizon).
    """

    bits: np.ndarray
    seed: int
    stream: int
    mode: StartMode
    law_provenance: dict

    @property
    def horizon(self) -> int:
        return len(self.bits) - 1


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = (seed & _MASK64) | ((stream & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_run_lengths(law: RenewalLaw, rng: np.random.Generator, count: int) -> np.ndarray:
    return law.length_cdf.searchsorted(rng.random(count), side="right")


def sample_run_length(law: RenewalLaw, rng: np.random.Generator) -> int:
    """Draw one run length k with probability p_k."""
    return int(np.searchsorted(law.length_cdf, rng.random(), side="right"))


def sample_paths(
    law: RenewalLaw,
    horizon: int,
    mode: StartMode,
    seed: int,
    streams,
) -> np.ndarray:
    """Positions 0..horizon of one path per stream, as the rows of a
    read-only uint8 array.  Row i is the path of streams[i] under seed.

    AT_RENEWAL conditions on a renewal at the origin: the path begins
    with a zero, then alternates (run of k ones, zero) with k drawn
    from the law.  STATIONARY draws the initial countdown state i with
    mass tail(i)/(1 + mean), emits i ones and a zero, then continues
    the same way.  Truncation may cut the final run; trailing ones are
    kept as-is.
    """
    if horizon < 0:
        raise PathError(f"horizon must be >= 0, got {horizon}")
    if mode is StartMode.STATIONARY:
        states = law.stationary_cdf
    elif mode is not StartMode.AT_RENEWAL:
        raise PathError(f"unsupported start mode {mode!r}")
    need = horizon + 1
    rows = np.ones((len(streams), need), dtype=np.uint8)
    # Re-keying one generator by its state (counter 0, empty buffer) is
    # the stream _generator would build, at a quarter of the cost.
    rng = _generator(seed, 0)
    state = rng.bit_generator.state
    key = state["state"]["key"]
    for row, stream in zip(rows, streams):
        key[1] = stream & _MASK64
        rng.bit_generator.state = state
        if mode is StartMode.STATIONARY:
            total = int(states.searchsorted(rng.random(), side="right"))
            total = min(total, law.support - 1)  # guard the float edge at cumsum ~ 1
        else:
            total = 0
        if total < need:
            row[total] = 0
        total += 1
        while total < need:
            # each run of k ones ends with the zero k + 1 positions on
            zeros = _draw_run_lengths(law, rng, min(_CHUNK, need - total))
            zeros += 1
            zeros.cumsum(out=zeros)
            zeros += total - 1
            row[zeros[zeros < need]] = 0
            total = int(zeros[-1]) + 1
    rows.setflags(write=False)
    return rows


def sample_path(
    law: RenewalLaw,
    horizon: int,
    mode: StartMode,
    seed: int,
    stream: int = 0,
) -> Path:
    """Sample positions 0..horizon of the process: the one-stream case
    of :func:`sample_paths`."""
    return Path(
        bits=sample_paths(law, horizon, mode, seed, (stream,))[0],
        seed=int(seed),
        stream=int(stream),
        mode=mode,
        law_provenance=law.provenance,
    )


def dump_path(path: Path, file: str | FsPath) -> None:
    """Write a path as one ASCII 0/1 line plus a JSON sidecar.

    The sidecar lives at ``<file>.json`` and records seed, stream,
    mode, and the generating law's provenance.
    """
    file = FsPath(file)
    line = (path.bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    file.write_text(line + "\n")
    sidecar = {
        "seed": path.seed,
        "stream": path.stream,
        "mode": path.mode.value,
        "law": path.law_provenance,
    }
    file.with_name(file.name + ".json").write_text(
        json.dumps(sidecar, sort_keys=True) + "\n"
    )


def load_path(file: str | FsPath) -> Path:
    """Read a path dump written by :func:`dump_path`."""
    file = FsPath(file)
    line = file.read_text().strip()
    if not line:
        raise PathError(f"{file}: empty path dump")
    raw = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    if not np.isin(raw, (0, 1)).all():
        raise PathError(f"{file}: path line must contain only '0' and '1'")
    sidecar_file = file.with_name(file.name + ".json")
    try:
        sidecar = json.loads(sidecar_file.read_text())
    except FileNotFoundError as exc:
        raise PathError(f"missing path sidecar {sidecar_file}") from exc
    except json.JSONDecodeError as exc:
        raise PathError(f"{sidecar_file}: malformed sidecar: {exc}") from exc
    bits = raw.copy()
    bits.setflags(write=False)
    return Path(
        bits=bits,
        seed=int(sidecar["seed"]),
        stream=int(sidecar.get("stream", 0)),
        mode=parse_start_mode(sidecar["mode"]),
        law_provenance=sidecar["law"],
    )
