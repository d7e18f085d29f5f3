"""Discrete memoryless channels with two inputs and two outputs.

A channel is a stochastic map p(y1, y2 | x1, x2) over finite alphabets,
stored densely as a 4-index tensor indexed ``[y1, y2, x1, x2]``.  Values
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, NegativeProbability, RowSumMismatch

ROW_SUM_TOL = 1e-12

# Joint tensors grow as the product of alphabet sizes; this cap keeps
# desk-scale verification tractable.  Raise it deliberately if needed.
MAX_ALPHABET_SIZE = 8


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet; symbols are the indices ``0..size-1``."""

    name: str
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InvalidParameter(f"alphabet {self.name!r}: size must be >= 1, got {self.size}")
        if self.size > MAX_ALPHABET_SIZE:
            raise InvalidParameter(
                f"alphabet {self.name!r}: size {self.size} exceeds cap {MAX_ALPHABET_SIZE}"
            )


@dataclass(frozen=True)
class Channel:
    """Transition law p(y1, y2 | x1, x2) over four alphabets."""

    x1: Alphabet
    x2: Alphabet
    y1: Alphabet
    y2: Alphabet
    transition: np.ndarray  # shape (|y1|, |y2|, |x1|, |x2|)

    def __post_init__(self):
        expected = (self.y1.size, self.y2.size, self.x1.size, self.x2.size)
        arr = np.asarray(self.transition, dtype=float)
        if arr.shape != expected:
            raise InvalidParameter(
                f"transition tensor shape {arr.shape} does not match alphabets {expected}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "transition", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.transition.shape


def validate_channel(c: Channel) -> None:
    """Check nonnegativity and per-input normalization of the transition law.

    Raises ``NegativeProbability`` or ``RowSumMismatch`` naming the first
    offending (x1, x2) slice; returns None when the channel is valid.
    """
    t = c.transition
    neg = np.argwhere(t < 0.0)
    if neg.size:
        iy1, iy2, ix1, ix2 = neg[0]
        raise NegativeProbability(
            f"p[y1={iy1},y2={iy2}|x1={ix1},x2={ix2}] = {t[iy1, iy2, ix1, ix2]:.6g} < 0"
        )
    sums = t.sum(axis=(0, 1))
    bad = np.argwhere(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))  # NaN and inf fail too
    if bad.size:
        ix1, ix2 = bad[0]
        residual = float(1.0 - sums[ix1, ix2])
        raise RowSumMismatch(
            f"slice (x1={ix1},x2={ix2}) sums to {sums[ix1, ix2]:.12g} (residual {residual:.6g})",
            residual=residual,
        )


def canonical_channel(kind: str, **params) -> Channel:
    """Build one of the canonical test channels.

    kind:
      - ``orthogonal_noiseless``: Y1 = X1 and Y2 = X2 exactly (binary).
      - ``bsc_pair``: independent binary symmetric corruptions with flip
        probabilities ``eps1``, ``eps2`` in [0, 1/2].
      - ``random``: Dirichlet(1)-sampled transition rows, reproducible from
        ``seed``; alphabet sizes via ``sizes=(x1, x2, y1, y2)``.
    """
    if kind == "orthogonal_noiseless":
        if params:
            raise InvalidParameter(f"orthogonal_noiseless takes no parameters, got {params}")
        return bsc_pair(0.0, 0.0)
    if kind == "bsc_pair":
        return bsc_pair(params.pop("eps1"), params.pop("eps2"))
    if kind == "random":
        seed = params.pop("seed")
        sizes = params.pop("sizes", (2, 2, 2, 2))
        if params:
            raise InvalidParameter(f"unexpected parameters {params}")
        return random_channel(seed, sizes=sizes)
    raise InvalidParameter(f"unknown channel kind {kind!r}")


def bsc_pair(eps1: float, eps2: float) -> Channel:
    """Two parallel binary symmetric channels: Yi = Xi xor Bernoulli(eps_i)."""
    for name, eps in (("eps1", eps1), ("eps2", eps2)):
        if not 0.0 <= eps <= 0.5:
            raise InvalidParameter(f"{name} must lie in [0, 1/2], got {eps}")
    t = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    p1 = eps1 if y1 != x1 else 1.0 - eps1
                    p2 = eps2 if y2 != x2 else 1.0 - eps2
                    t[y1, y2, x1, x2] = p1 * p2
    return Channel(
        Alphabet("X1", 2), Alphabet("X2", 2), Alphabet("Y1", 2), Alphabet("Y2", 2), t
    )


def random_channel(seed: int, sizes: tuple[int, int, int, int] = (2, 2, 2, 2)) -> Channel:
    """Valid random transition tensor, bitwise reproducible from ``seed``."""
    n1, n2, m1, m2 = sizes
    rng = np.random.default_rng(seed)
    t = np.zeros((m1, m2, n1, n2))
    for x1 in range(n1):
        for x2 in range(n2):
            t[:, :, x1, x2] = rng.dirichlet(np.ones(m1 * m2)).reshape(m1, m2)
    return Channel(
        Alphabet("X1", n1), Alphabet("X2", n2), Alphabet("Y1", m1), Alphabet("Y2", m2), t
    )


def channel_to_json(c: Channel) -> dict:
    """Serialize as ``{"x1":n,...,"p":[...]}`` with p row-major over (y1,y2,x1,x2)."""
    return {
        "x1": c.x1.size,
        "x2": c.x2.size,
        "y1": c.y1.size,
        "y2": c.y2.size,
        "p": [float(v) for v in c.transition.reshape(-1)],
    }


def json_size(value, name: str) -> int:
    """A JSON alphabet size: an integer, not a boolean; InvalidParameter otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    return value


def json_float_array(flat, shape: tuple[int, ...]) -> np.ndarray:
    """JSON field 'p' as a float array of `shape`; InvalidParameter otherwise."""
    expected = math.prod(shape)  # exact, where np.prod wraps around in int64
    if not isinstance(flat, list) or len(flat) != expected:
        got = f"length {len(flat)}" if isinstance(flat, list) else f"type {type(flat).__name__}"
        raise InvalidParameter(
            f"field 'p' has {got}, expected {expected} numbers for shape {shape}"
        )
    try:
        return np.asarray(flat, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"field 'p': {exc}") from exc


def channel_from_json(obj: dict) -> Channel:
    try:
        sizes = {k: json_size(obj[k], k) for k in ("x1", "x2", "y1", "y2")}
        flat = obj["p"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed channel object: {exc}") from exc
    x1, x2, y1, y2 = (Alphabet(k.upper(), sizes[k]) for k in ("x1", "x2", "y1", "y2"))
    t = json_float_array(flat, (y1.size, y2.size, x1.size, x2.size))
    return Channel(x1, x2, y1, y2, t)


def save_channel(c: Channel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(channel_to_json(c), sort_keys=True))


def load_channel(path: str | Path) -> Channel:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{path}: not valid JSON: {exc}") from exc
    return channel_from_json(obj)
