"""Discrete memoryless channels with two inputs and two outputs.

A channel is a stochastic map p(y1, y2 | x1, x2) over finite alphabets,
stored densely as a 4-index tensor indexed ``[y1, y2, x1, x2]``; the
tensor's shape is the only record of the alphabet sizes.  Constructing a
`Channel` validates it (size cap, nonnegativity, per-input normalization),
so no separate validation step exists.  Values are immutable after
construction and safe to share across threads.  Every seeded draw starts
from `seeded`; random channels go a chunk of seeds at a time (`random_channels`).
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, NegativeProbability, RowSumMismatch

ROW_SUM_TOL = 1e-12

# Joint tensors grow as the product of alphabet sizes; this cap keeps
# desk-scale verification tractable.  Raise it deliberately if needed.
MAX_ALPHABET_SIZE = 8


INPUTS = ("X1", "X2")
OUTPUTS = ("Y1", "Y2")
AXES = OUTPUTS + INPUTS  # the transition tensor's axes, in storage order


def _check_sizes(sizes: dict[str, int]) -> None:
    """InvalidParameter unless each named alphabet size is an integer in [1, MAX_ALPHABET_SIZE]."""
    for name, size in sizes.items():
        check_integer(size, name)
        if size < 1:
            raise InvalidParameter(f"alphabet {name!r}: size must be >= 1, got {size}")
        if size > MAX_ALPHABET_SIZE:
            raise InvalidParameter(
                f"alphabet {name!r}: size {size} exceeds cap {MAX_ALPHABET_SIZE}"
            )


def _check_transitions(t: np.ndarray, named: bool = True) -> None:
    """Check K stacked transition tensors, t of shape (K, |y1|, |y2|, |x1|, |x2|):
    four axes of sizes in [1, MAX_ALPHABET_SIZE] (InvalidParameter), no negative
    entry (NegativeProbability) and every (x1, x2) slice summing to one within
    ROW_SUM_TOL (RowSumMismatch with the residual).  Each error names the first
    offending entry or slice, after "channel k: ", its place in the stack, if `named`."""
    if t.ndim != len(AXES) + 1:
        raise InvalidParameter(f"transition tensor must have axes {AXES}, got shape {t.shape[1:]}")
    _check_sizes(dict(zip(AXES, t.shape[1:])))
    at = "channel {}: " if named else ""
    if (t < 0.0).any():
        k, iy1, iy2, ix1, ix2 = np.argwhere(t < 0.0)[0]
        raise NegativeProbability(at.format(k) + (
            f"p[y1={iy1},y2={iy2}|x1={ix1},x2={ix2}] = {t[k, iy1, iy2, ix1, ix2]:.6g} < 0"))
    sums = t.sum(axis=(1, 2))
    ok = np.abs(sums - 1.0) <= ROW_SUM_TOL  # NaN and inf fail too
    if not ok.all():
        k, ix1, ix2 = np.argwhere(~ok)[0]
        residual = float(1.0 - sums[k, ix1, ix2])
        raise RowSumMismatch(at.format(k) + f"slice (x1={ix1},x2={ix2}) sums to "
                             f"{sums[k, ix1, ix2]:.12g} (residual {residual:.6g})",
                             residual=residual)


@dataclass(frozen=True, eq=False)
class Channel:
    """Transition law p(y1, y2 | x1, x2), a tensor indexed ``[y1, y2, x1, x2]``.

    Construction stores a read-only C-ordered copy and checks it by
    `_check_transitions`, so every Channel that exists is valid.
    """

    transition: np.ndarray  # shape (|y1|, |y2|, |x1|, |x2|)

    def __post_init__(self):
        t = np.array(self.transition, dtype=float, order="C")
        _check_transitions(t[None], named=False)
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.transition.shape


def check_integer(value, name: str, minimum: int = 0) -> int:
    """`value` as an int, the one check of every seed and count: InvalidParameter
    unless it is an integer (any numbers.Integral, numpy's too, but not a
    bool) of at least `minimum`, before anything is drawn."""
    # int first: a Python int, by far the most common, skips the slower ABC check
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "a non-negative integer" if minimum == 0 else f"at least {minimum}"
        raise InvalidParameter(f"{name} must be {bound}, got {value}")
    return int(value)


def normalize_exponentials(e: np.ndarray) -> np.ndarray:
    """Dirichlet(1) rows from Exp(1) variates on the last axis, by numpy's own
    Generator.dirichlet arithmetic: times the reciprocal of the left-to-right sum."""
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def bsc_pair(eps1: float, eps2: float) -> Channel:
    """Two parallel binary symmetric channels: Yi = Xi xor Bernoulli(eps_i)."""
    for name, eps in (("eps1", eps1), ("eps2", eps2)):
        if not 0.0 <= eps <= 0.5:
            raise InvalidParameter(f"{name} must lie in [0, 1/2], got {eps}")
    b1, b2 = (np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]) for eps in (eps1, eps2))
    return Channel(np.einsum("ac,bd->abcd", b1, b2))  # b[y, x] = p(y | x)


@lru_cache(maxsize=4096)  # a few hundred bytes each; verify's default run seeds 400
def _seed_state(seed: int) -> dict:
    """The PCG64 state default_rng(seed) starts from; only ever read."""
    return np.random.PCG64(seed).state


def seeded(seeds: Iterable[int]) -> Iterator[np.random.Generator]:
    """Per seed (checked integers), one generator at default_rng(seed)'s initial
    state, so it draws default_rng(seed)'s numbers bit for bit: one generator per
    call, reset to each seed in turn, so draw from it before taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))  # each seed replaces its state
    for seed in seeds:
        rng.bit_generator.state = _seed_state(seed)
        yield rng


def random_channel(seed: int, sizes: tuple[int, int, int, int] = (2, 2, 2, 2)) -> Channel:
    """Valid random transition tensor, bitwise reproducible from ``seed``, drawn once."""
    n1, n2, m1, m2 = sizes
    _check_sizes({"X1": n1, "X2": n2, "Y1": m1, "Y2": m2})
    return random_channels([check_integer(seed, "seed")], (n1, n2, m1, m2))[0]


# (seed, sizes) -> its random channel, a few hundred bytes each; verify's default run draws 500
_CHANNELS: dict[tuple, Channel] = {}
_CHANNELS_LOCK = threading.Lock()
CHANNEL_CACHE = 1024


def random_channels(seeds: Sequence[int], sizes: tuple[int, int, int, int]) -> list[Channel]:
    """`random_channel(seed, sizes)` for each of `seeds`, checked integers, at
    checked `sizes`: the seeds not cached are drawn into one stack, normalized
    and checked once, and each cached as a read-only view of it."""
    with _CHANNELS_LOCK:
        found = {seed: _CHANNELS.get((seed, sizes)) for seed in seeds}
    if new := [seed for seed, channel in found.items() if channel is None]:
        n1, n2, m1, m2 = sizes
        exps = np.empty((len(new), n1, n2, m1 * m2))
        for rng, e in zip(seeded(new), exps):
            rng.standard_exponential(out=e)
        rows = normalize_exponentials(exps).reshape(-1, *sizes)  # (x1, x2)-major
        t = np.ascontiguousarray(rows.transpose(0, 3, 4, 1, 2))  # onto [y1, y2, x1, x2]
        _check_transitions(t)
        t.setflags(write=False)
        with _CHANNELS_LOCK:
            for seed, transition in zip(new, t):
                channel = object.__new__(Channel)  # checked with its stack
                object.__setattr__(channel, "transition", transition)
                found[seed] = _CHANNELS.setdefault((seed, sizes), channel)
            for key in list(_CHANNELS)[:-CHANNEL_CACHE]:  # the oldest, past the bound
                del _CHANNELS[key]
    return [found[seed] for seed in seeds]


_CANONICAL = {
    "orthogonal_noiseless": lambda: bsc_pair(0.0, 0.0),  # Y1 = X1 and Y2 = X2 exactly
    "bsc_pair": bsc_pair,
    "random": random_channel,
}


def canonical_channel(kind: str, **params) -> Channel:
    """A canonical test channel: ``orthogonal_noiseless`` (Y1 = X1 and Y2 = X2
    exactly, binary; no parameters), ``bsc_pair`` (`bsc_pair(eps1, eps2)`) or
    ``random`` (`random_channel(seed, sizes=(2, 2, 2, 2))`).  `params` are
    bound to the builder's signature: a missing or extra one is InvalidParameter."""
    if kind not in _CANONICAL:
        raise InvalidParameter(f"unknown channel kind {kind!r}")
    builder = _CANONICAL[kind]
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as exc:
        raise InvalidParameter(f"channel kind {kind!r}: {exc}") from None
    return builder(**params)


def channel_to_json(c: Channel) -> dict:
    """Serialize as ``{"x1":n,...,"p":[...]}`` with p row-major over (y1,y2,x1,x2)."""
    out = {name.lower(): size for name, size in zip(AXES, c.shape)}
    out["p"] = [float(v) for v in c.transition.reshape(-1)]
    return out


def json_float_array(flat, shape: tuple[int, ...]) -> np.ndarray:
    """JSON field 'p', a list of numbers (not booleans), as a float array of
    `shape`; InvalidParameter naming the first bad entry otherwise."""
    expected = math.prod(shape)  # exact, where np.prod wraps around in int64
    if not isinstance(flat, list) or len(flat) != expected:
        got = f"length {len(flat)}" if isinstance(flat, list) else f"type {type(flat).__name__}"
        raise InvalidParameter(
            f"field 'p' has {got}, expected {expected} numbers for shape {shape}"
        )
    for i, v in enumerate(flat):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InvalidParameter(f"field 'p': entry {i} must be a number, got {v!r}")
    try:
        return np.asarray(flat, dtype=float).reshape(shape)
    except OverflowError as exc:  # an integer beyond the float range
        raise InvalidParameter(f"field 'p': {exc}") from exc


def channel_from_json(obj: dict) -> Channel:
    try:
        sizes = {k.upper(): obj[k] for k in ("x1", "x2", "y1", "y2")}
        flat = obj["p"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed channel object: {exc}") from exc
    _check_sizes(sizes)
    return Channel(json_float_array(flat, tuple(sizes[name] for name in AXES)))


def save_channel(c: Channel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(channel_to_json(c), sort_keys=True))


def read_json(path: str | Path):
    """The JSON value in the file at `path`: InvalidParameter if its text is
    not UTF-8 or not JSON, or nests too deep to parse; OSError if unreadable."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise InvalidParameter(f"{path}: not valid JSON: {exc}") from exc


def load_channel(path: str | Path) -> Channel:
    return channel_from_json(read_json(path))
