"""Joint distributions over named finite random variables.

Dense probability tensors with named axes, factorization chains, channel
extension, and conditional mutual information in bits (log base 2
throughout).  Drawing a joint from a chain lives in `cifc.sampling`.  A
`JointDistribution` is one distribution or a batch of K >= 0 along a
leading axis; both take one path, which computes each row alone, bit for
bit as for that distribution by itself.  There is one information kernel:
`entropy_vector` is the only function that takes a logarithm (with
0*log 0 := 0), and every measure is a fixed integer combination of its
joint entropies.  An expression is a signed sum of MI atoms, with no
constant term.  `compile_exprs` compiles a tuple of expressions once,
together with named check atoms that must vanish (such as a chain's
conditional independencies), into one map read in one entropy pass.  The
kernel takes each distribution's marginals with one `np.bincount` over a
marginal plan cached per variable set and subset list; a plan above
MAX_MARGINAL_LABELS labels is refused.  Roundoff negatives of an MI atom
are clamped to zero in one place, `CompiledExprs.from_entropies`, and
a check passes at most MI_TOL bits.

All operations are pure functions of immutable inputs; callers may
evaluate many distributions in parallel without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import INPUTS, OUTPUTS, Channel, check_integer, json_float_array, read_json
from .errors import (
    AlphabetMismatch,
    FactorizationViolation,
    InvalidParameter,
    NegativeProbability,
    UnknownVariable,
)

MASS_TOL = 1e-12
MI_CLAMP = 1e-12
MI_TOL = 1e-9  # bits; the fixed tolerance of every zero check

# An entropy plan holds one label per (subset, joint cell), and a bincount
# tiles the joint as many times; at 8 bytes an entry, this cap bounds each,
# and a batch's channel-extended joints, at 128 MiB.  Raise it deliberately.
MAX_MARGINAL_LABELS = 1 << 24

Names = Iterable[str] | str


def _names(spec: Names) -> tuple[str, ...]:
    """Normalize 'A B,C' or an iterable of names into a tuple."""
    if isinstance(spec, str):
        parts = [p for p in spec.replace(",", " ").split() if p]
        return tuple(parts)
    return tuple(spec)


@dataclass(frozen=True)
class RandomVariableSet:
    """Ordered named variables with matching cardinalities, integers >= 1."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        sizes = tuple(check_integer(s, f"sizes[{i}]", 1) for i, s in enumerate(self.sizes))
        object.__setattr__(self, "sizes", sizes)
        if len(self.names) != len(set(self.names)):
            raise InvalidParameter(f"duplicate variable names in {self.names}")
        if len(self.names) != len(self.sizes):
            raise InvalidParameter("names and sizes must have equal length")

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def size(self, name: str) -> int:
        return self.sizes[self.axis(name)]


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability tensor over a RandomVariableSet, or a batch of K
    of them, shape (K, *rvs.sizes), whose k-th is `d[k]`.  Construction
    checks each one's entries and mass and names the first that fails."""

    rvs: RandomVariableSet
    prob: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.prob, dtype=float)
        if self.rvs.sizes not in (arr.shape, arr.shape[1:]):
            raise InvalidParameter(
                f"tensor shape {arr.shape} does not match variable sizes {self.rvs.sizes}"
            )
        flat = arr.reshape(-1, math.prod(self.rvs.sizes))
        low, total = flat.min(axis=1, initial=np.inf), flat.sum(axis=1)
        bad = (low < -MASS_TOL) | ~(np.abs(total - 1.0) <= MASS_TOL)  # NaN and inf fail too
        if bad.any():
            k = bad.argmax()
            if low[k] < -MASS_TOL:
                raise NegativeProbability(f"joint has entry {low[k]:.6g} < 0")
            raise InvalidParameter(
                f"joint mass {float(total[k])!r} differs from 1 beyond {MASS_TOL}")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "prob", arr)

    @property
    def names(self) -> tuple[str, ...]:
        return self.rvs.names

    @property
    def batched(self) -> bool:
        return self.prob.ndim > len(self.rvs.sizes)

    def __getitem__(self, k: int) -> JointDistribution:
        if not self.batched:
            raise InvalidParameter("only a batch of distributions has members")
        return _unchecked(self.rvs, self.prob[k])


def _unchecked(rvs: RandomVariableSet, prob: np.ndarray) -> JointDistribution:
    """A JointDistribution built without its checks: a checked batch's
    member, or a sampler's product, which extend_through_channel checks."""
    d = object.__new__(JointDistribution)
    object.__setattr__(d, "rvs", rvs)
    object.__setattr__(d, "prob", prob)
    return d


@dataclass(frozen=True)
class Factor:
    """One conditional block p(targets | given) of a factorization chain."""

    targets: tuple[str, ...]
    given: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", _names(self.targets))
        object.__setattr__(self, "given", _names(self.given))


@dataclass(frozen=True)
class FactorizationSpec:
    """Ordered factor chain; conditioning may reference earlier targets
    only (`regions.parse_chain` refuses any other chain)."""

    factors: tuple[Factor, ...]

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(t for f in self.factors for t in f.targets)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# einsum subscripts of a joint's axes; "w" and "z" label the appended outputs
_AXIS_LETTERS = "abcdefghijklmnopqrstuv"


@lru_cache(maxsize=64)
def _extension(rvs: RandomVariableSet, shape: tuple[int, int, int, int]):
    """The einsum subscripts that extend a joint (or a batch) over `rvs`
    through a channel of `shape`, and the extended variables."""
    for name in INPUTS:
        if name not in rvs.names:
            raise AlphabetMismatch(f"distribution lacks channel input {name!r}")
    for name in OUTPUTS:
        if name in rvs.names:
            raise AlphabetMismatch(f"output name {name!r} already present")
    m1, m2, n1, n2 = shape
    if rvs.size("X1") != n1 or rvs.size("X2") != n2:
        raise AlphabetMismatch(
            f"input sizes ({rvs.size('X1')},{rvs.size('X2')}) do not match channel ({n1},{n2})"
        )
    n = len(rvs.names)
    if n > len(_AXIS_LETTERS):
        raise InvalidParameter(
            f"{n} variables exceed the limit of {len(_AXIS_LETTERS)} for channel extension"
        )
    a = _AXIS_LETTERS[:n]
    subscripts = f"...{a},...wz{a[rvs.axis('X1')]}{a[rvs.axis('X2')]}->...{a}wz"
    return subscripts, RandomVariableSet(rvs.names + OUTPUTS, rvs.sizes + (m1, m2))


def extend_through_channel(
    d: JointDistribution, c: Channel | Sequence[Channel]
) -> JointDistribution:
    """Append channel outputs: p(all, Y1, Y2) = p(all) p(Y1, Y2 | X1, X2).

    A batch of K joints takes one channel for all, or K of one shape, and
    each output cell is one product.  A batch above MAX_MARGINAL_LABELS
    output cells is refused unallocated; the result is checked as a
    JointDistribution, the one check of a sampled joint.
    """
    broadcast = isinstance(c, Channel)
    channels = (c,) if broadcast else tuple(c)
    count = len(d.prob) if d.batched else 1
    if not channels:
        raise InvalidParameter("an empty channel sequence extends nothing")
    if not broadcast and len(channels) != count:
        raise InvalidParameter(f"{len(channels)} channels for {count} joints")
    shape = channels[0].shape
    if any(ch.shape != shape for ch in channels):
        raise AlphabetMismatch("the channels of a batch differ in shape")
    subscripts, rvs = _extension(d.rvs, shape)
    cells = math.prod(rvs.sizes)
    if count * cells > MAX_MARGINAL_LABELS:
        raise InvalidParameter(f"{count} extended joints of {cells} cells exceed the "
                               f"marginal-plan cap of {MAX_MARGINAL_LABELS} labels")
    stacked = d.batched and not broadcast  # else one transition broadcasts over the batch
    t = np.stack([ch.transition for ch in channels]) if stacked else channels[0].transition
    return JointDistribution(rvs, np.einsum(subscripts, d.prob, t))


# ---------------------------------------------------------------------------
# Information measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MITerm:
    """Conditional mutual information atom I(left; right | given)."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    given: tuple[str, ...] = ()

    def __post_init__(self):
        left = tuple(sorted(set(_names(self.left))))
        right = tuple(sorted(set(_names(self.right))))
        given = tuple(sorted(set(_names(self.given))))
        if not left or not right:
            raise InvalidParameter("I(A;B|C) needs nonempty A and B")
        overlap = (set(left) & set(right)) | (set(left) & set(given)) | (set(right) & set(given))
        if overlap:
            raise InvalidParameter(f"I(A;B|C) argument sets overlap on {sorted(overlap)}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "given", given)

    def __str__(self) -> str:
        base = f"I({','.join(self.left)};{','.join(self.right)}"
        return base + (f"|{','.join(self.given)})" if self.given else ")")

    def __add__(self, other):
        return MIExpr.of(self) + other

    def __sub__(self, other):
        return MIExpr.of(self) - other

    def __neg__(self):
        return MIExpr(((-1, self),))


def mi(left: Names, right: Names, given: Names = ()) -> MITerm:
    return MITerm(_names(left), _names(right), _names(given))


@dataclass(frozen=True)
class MIExpr:
    """Signed sum of MI atoms, in bits; the empty sum is 0."""

    terms: tuple[tuple[int, MITerm], ...] = ()

    @staticmethod
    def of(x) -> "MIExpr":
        if isinstance(x, MIExpr):
            return x
        if isinstance(x, MITerm):
            return MIExpr(((1, x),))
        raise InvalidParameter(f"an MI expression has no constant term, got {x!r}")

    def __add__(self, other):
        return MIExpr(self.terms + MIExpr.of(other).terms)

    def __sub__(self, other):
        return self + -MIExpr.of(other)

    def __neg__(self):
        return MIExpr(tuple((-s, t) for s, t in self.terms))

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, t in self.terms:
            out.update(t.left, t.right, t.given)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (s, t) in enumerate(self.terms):
            sign = "-" if s < 0 else ("+" if i else "")
            term = t if abs(s) == 1 else f"{abs(s)} {t}"
            parts.append(f"{sign} {term}" if i else f"{sign}{term}")
        return " ".join(parts)


class _SelfInformation(MITerm):
    """I(A;A|C) = H(A|C): the one atom whose two sides coincide.

    MITerm rejects overlapping sides, so entropies get this subclass; in
    compile_exprs it expands to H(AC) - H(C) like any other atom.
    """

    def __post_init__(self):
        left = tuple(sorted(set(_names(self.left))))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", left)
        object.__setattr__(self, "given", tuple(sorted(set(_names(self.given)) - set(left))))


@lru_cache(maxsize=256)
def _marginal_plan(
    rvs: RandomVariableSet, subsets: tuple[tuple[str, ...], ...]
) -> tuple[np.ndarray, np.ndarray, int]:
    """(labels, starts, total): joint cell -> marginal cell, once per subset.

    labels[k * cells + c] is the marginal cell of joint cell c (row-major)
    under subsets[k], offset so that all subsets share one index space of
    `total` marginal cells; subset k owns the segment from starts[k].
    Refused with InvalidParameter above MAX_MARGINAL_LABELS labels, before
    anything is allocated.
    """
    axes = [sorted({rvs.axis(n) for n in names}) for names in subsets]
    cells = math.prod(rvs.sizes)
    if len(subsets) * cells > MAX_MARGINAL_LABELS:
        raise InvalidParameter(
            f"{len(subsets)} entropy subsets x {cells} joint cells exceed the "
            f"marginal-plan cap of {MAX_MARGINAL_LABELS} labels"
        )
    labels = np.empty((len(subsets), *rvs.sizes), dtype=np.intp)
    starts = np.empty(len(subsets), dtype=np.intp)
    total = 0
    for k, ax in enumerate(axes):
        starts[k] = labels[k] = total
        stride = 1  # row-major over the subset's axes: the last varies fastest
        for a in reversed(ax):
            shape = [1] * len(rvs.sizes)
            shape[a] = rvs.sizes[a]
            labels[k] += stride * np.arange(rvs.sizes[a]).reshape(shape)
            stride *= rvs.sizes[a]
        total += stride
    labels = labels.reshape(-1)
    labels.setflags(write=False)
    starts.setflags(write=False)
    return labels, starts, total


def entropy_vector(d: JointDistribution, subsets: Sequence[Sequence[str]]) -> np.ndarray:
    """Joint entropies H(X_S) in bits, one per subset S (a row per
    distribution of a batch), with exact 0*log 0 := 0.

    The package's only logarithm: every other information measure is an
    integer combination of these entropies (see compile_exprs).  One
    distribution and a batch take one path: a bincount per row over the
    cached _marginal_plan, summed in joint-cell order, so a row's marginals
    do not depend on the call's other subsets or the batch's other rows,
    and the bincount's labels and weights are at most one plan's size.
    The joint cells that are 0 in every row of the call, such as the
    structural zeros of a deterministic channel, are left out of both: a
    marginal cell is a sum from +0.0 of nonnegative weights, to which a
    zero term adds nothing, so every marginal keeps its bits.
    """
    labels, starts, total = _marginal_plan(d.rvs, tuple(map(tuple, subsets)))
    rows = d.prob.reshape(-1, math.prod(d.rvs.sizes))
    live = rows.any(axis=0)
    if not live.all():
        labels = labels.reshape(len(starts), rows.shape[1])[:, live].reshape(-1)
        rows = rows[:, live]
    marg = np.empty((len(rows), total))
    weights = np.empty((len(starts), rows.shape[1]))  # the joint once per subset
    for k, q in enumerate(rows):
        weights[:] = q
        marg[k] = np.bincount(labels, weights=weights.reshape(-1), minlength=total)
    del weights  # freed before the log pass, which can then reuse its memory
    terms = marg * np.log2(marg, out=np.zeros(marg.shape), where=marg > 0.0)
    h = -np.add.reduceat(terms, starts, axis=1) if len(starts) else terms
    return h.reshape(*d.prob.shape[:d.prob.ndim - len(d.rvs.sizes)], len(starts))


def rowwise(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matrix @ x for one vector x, or for each row of a batch x, as one
    stacked product: numpy computes each slice with the matrix-vector
    product that `matrix @ x[k]` makes, so a row maps bit for bit the same
    alone or in a batch, which a matrix-matrix product does not promise."""
    return (matrix @ x[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class CompiledExprs:
    """A tuple of MI expressions as one linear map of joint entropies, and
    named check atoms evaluated in the same pass (see compile_exprs):

        h      = entropy_vector(d, subsets)
        checks = check_matrix @ h       each must be <= MI_TOL, in order
        atoms  = atom_matrix @ h        I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
        values = expr_matrix @ atoms

    The atoms read the leading atom_matrix.shape[1] subsets, so checks
    leave the values the same bit for bit.  An atom in [-MI_CLAMP, 0) is
    roundoff and counts as 0.  A batch gives one row per distribution.
    """

    subsets: tuple[tuple[str, ...], ...]
    atom_matrix: np.ndarray  # integer, (atoms, leading subsets)
    expr_matrix: np.ndarray  # integer, (expressions, atoms)
    check_matrix: np.ndarray  # integer, (checks, subsets)
    check_names: tuple[str, ...]

    def __post_init__(self):
        # float copies, so that no product converts a matrix on every call
        for name in ("atom_matrix", "expr_matrix", "check_matrix"):
            object.__setattr__(self, "_" + name, getattr(self, name).astype(float))

    def __call__(self, d: JointDistribution) -> np.ndarray:
        """The expressions' values at d, in bits, or FactorizationViolation
        naming the first check above MI_TOL of the first violating member."""
        return self.from_entropies(entropy_vector(d, self.subsets))

    def from_entropies(self, h: np.ndarray) -> np.ndarray:
        """__call__'s values from the entropies of `subsets`, a row per distribution."""
        if self.check_names:
            checks = np.atleast_2d(rowwise(self._check_matrix, h))
            bad = np.argwhere(checks > MI_TOL)
            if bad.size:
                k, j = bad[0]
                raise FactorizationViolation(
                    f"{self.check_names[j]} = {checks[k, j]:.3e} > {MI_TOL:g}")
        atoms = rowwise(self._atom_matrix, h[..., : self.atom_matrix.shape[1]])
        atoms[(atoms >= -MI_CLAMP) & (atoms < 0.0)] = 0.0
        return rowwise(self._expr_matrix, atoms) + 0.0  # + 0.0 turns a -0.0 into 0.0


def evaluate_shared(maps: Sequence[CompiledExprs], d: JointDistribution) -> list[np.ndarray]:
    """Each map's values at d, bit for bit as map(d), from one entropy pass over
    the union of their subsets, each map reading its own in its own order."""
    column = {s: k for k, s in enumerate(dict.fromkeys(s for m in maps for s in m.subsets))}
    h = entropy_vector(d, tuple(column))
    return [m.from_entropies(h[..., [column[s] for s in m.subsets]]) for m in maps]


def _integer_matrix(rows: Sequence[dict[int, int]], width: int) -> np.ndarray:
    """A read-only int64 matrix with one row per {column: weight} dict."""
    matrix = np.zeros((len(rows), width), dtype=np.int64)
    for k, row in enumerate(rows):
        for col, w in row.items():
            matrix[k, col] = w
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=1024)
def compile_exprs(
    exprs: tuple[MIExpr, ...], checks: tuple[tuple[str, MITerm], ...] = ()
) -> CompiledExprs:
    """Compile expressions and named check atoms into one entropy pass.

    Subsets, atoms and expressions are numbered in order of first
    appearance, the expressions' subsets first and then those only the
    checks read; H(empty) = 0 gets no subset.
    """
    subsets: dict[tuple[str, ...], int] = {}

    def columns(t: MITerm) -> dict[int, int]:
        """The atom's {subset column: weight}: H(AC) + H(BC) - H(ABC) - H(C)."""
        ac, bc = set(t.left + t.given), set(t.right + t.given)
        out: dict[int, int] = {}
        for part, w in ((ac, 1), (bc, 1), (ac | bc, -1), (set(t.given), -1)):
            if part:
                col = subsets.setdefault(tuple(sorted(part)), len(subsets))
                out[col] = out.get(col, 0) + w
        return out

    atoms: dict[MITerm, int] = {}  # atom -> its row of atom_rows
    atom_rows, expr_rows = [], []
    for e in exprs:
        row: dict[int, int] = {}
        for s, t in e.terms:
            if t not in atoms:
                atoms[t] = len(atom_rows)
                atom_rows.append(columns(t))
            row[atoms[t]] = row.get(atoms[t], 0) + s
        expr_rows.append(row)
    leading = len(subsets)
    check_rows = [columns(t) for _, t in checks]
    return CompiledExprs(tuple(subsets), _integer_matrix(atom_rows, leading),
                         _integer_matrix(expr_rows, len(atom_rows)),
                         _integer_matrix(check_rows, len(subsets)),
                         tuple(name for name, _ in checks))


def entropy_term(names: Names, given: Names = ()) -> MITerm:
    """The atom H(A|C), written I(A;A|C)."""
    return _SelfInformation(names, names, given)


def factorization_checks(spec: FactorizationSpec) -> tuple[tuple[str, MITerm], ...]:
    """Every conditional independence implied by the factor chain, in order.

    Factor k with targets T and conditioning G implies T independent of
    the earlier targets outside G, given G: the atom I(T;rest|G), named
    as its FactorizationViolation names it.
    """
    out = []
    earlier: list[str] = []
    for f in spec.factors:
        rest = [n for n in earlier if n not in f.given]
        if rest:
            name = f"I({','.join(f.targets)};{','.join(rest)}|{','.join(f.given)})"
            out.append((name, mi(f.targets, rest, f.given)))
        earlier.extend(f.targets)
    return tuple(out)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def joint_to_json(d: JointDistribution) -> dict:
    return {
        "names": list(d.names),
        "sizes": list(d.rvs.sizes),
        "p": [float(v) for v in d.prob.reshape(-1)],
    }


def joint_from_json(obj: dict) -> JointDistribution:
    try:
        rvs = RandomVariableSet(tuple(obj["names"]), tuple(obj["sizes"]))
        flat = obj["p"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed distribution object: {exc}") from exc
    return JointDistribution(rvs, json_float_array(flat, rvs.sizes))


def load_joint(path: str | Path) -> JointDistribution:
    return joint_from_json(read_json(path))
