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
stream, and the paths as the rows of one array.  Up to a horizon of
_CHUNK, each stream's uniforms fill one row of a matrix, and one pass
over the matrix turns the whole block into zero positions; longer paths
are drawn one stream and one chunk of uniforms at a time.  sample_path
is the one-stream case.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Iterator

import numpy as np

from .laws import RenewalLaw

__all__ = [
    "PathError",
    "StartMode",
    "Path",
    "parse_start_mode",
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


def _keyed(seed: int, streams) -> Iterator[np.random.Generator]:
    """The generator of each stream in turn.  Re-keying one generator by
    its state (counter 0, empty buffer) is the stream _generator would
    build, at a quarter of the cost."""
    rng = _generator(seed, 0)
    state = rng.bit_generator.state
    key = state["state"]["key"]
    for stream in streams:
        key[1] = stream & _MASK64
        rng.bit_generator.state = state
        yield rng


def _start_state(law: RenewalLaw, uniforms):
    """The stationary start's countdown state for each uniform."""
    states = law.stationary_cdf.searchsorted(uniforms, side="right")
    return np.minimum(states, law.support - 1)  # guard the float edge at cumsum ~ 1


def _end_runs(law: RenewalLaw, uniforms: np.ndarray, last, ends, flat: np.ndarray) -> np.ndarray:
    """Zero in flat the position that ends each run drawn from uniforms
    (along the last axis), and return those positions.  A row's runs
    start after its zero at last; positions at or past ends fall outside
    the row and are not written."""
    zeros = law.length_cdf.searchsorted(uniforms, side="right")
    # each run of k ones ends with the zero k + 1 positions on
    zeros += 1
    zeros.cumsum(axis=-1, out=zeros)
    zeros += last
    flat[zeros[zeros < ends]] = 0
    return zeros


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
    if not isinstance(mode, StartMode):
        raise PathError(f"unsupported start mode {mode!r}")
    stationary = mode is StartMode.STATIONARY
    need = horizon + 1
    rows = np.ones((len(streams), need), dtype=np.uint8)
    if horizon <= _CHUNK:
        # horizon uniforms after the start finish any path, so draw them
        # per stream into one matrix and convert the block at once
        uniforms = np.empty((len(streams), stationary + horizon))
        for row, rng in zip(uniforms, _keyed(seed, streams)):
            rng.random(out=row)
        base = np.arange(0, rows.size, need)  # each row's position 0 in flat
        last = _start_state(law, uniforms[:, 0]) if stationary else np.zeros_like(base)
        flat = rows.reshape(-1)
        flat[(last + base)[last < need]] = 0
        last += base
        _end_runs(law, uniforms[:, stationary:], last[:, None], (base + need)[:, None], flat)
    else:
        for row, rng in zip(rows, _keyed(seed, streams)):
            last = int(_start_state(law, rng.random())) if stationary else 0
            if last < need:
                row[last] = 0
            while last < horizon:
                last = int(_end_runs(law, rng.random(min(_CHUNK, horizon - last)), last, need, row)[-1])
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
