"""Joint distributions over named finite random variables.

Dense probability tensors with named axes, factorization chains, channel
extension, and conditional mutual information in bits (log base 2
throughout).  Drawing a joint from a chain lives in `cifc.sampling`.
There is one information kernel: `entropy_vector` is the only function
that takes a logarithm (with 0*log 0 := 0), and every measure is a fixed
integer combination of its joint entropies, compiled once per tuple of
expressions by `compile_exprs`.  The kernel takes all marginals of a call
with one `np.bincount` over a marginal plan cached per variable set and
subset list; a plan above MAX_MARGINAL_LABELS labels is refused.
`compile_checked` puts a leading map and a list of zero checks (such as
a chain's conditional independencies) into one such call per
distribution.  Roundoff negatives of an MI atom are clamped to zero in
one place, `CompiledExprs.of_entropies`.

All operations are pure functions of immutable inputs; callers may
evaluate many distributions in parallel without synchronization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channel import INPUTS, OUTPUTS, Channel, json_float_array, json_size
from .errors import (
    AlphabetMismatch,
    FactorizationViolation,
    InvalidParameter,
    NegativeProbability,
    UnknownVariable,
)

MASS_TOL = 1e-12
MI_CLAMP = 1e-12

# An entropy plan holds one label per (subset, joint cell), and each call
# tiles the joint as many times; at 8 bytes an entry, this cap bounds each
# at 128 MiB.  Raise it deliberately if needed.
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
    """Ordered named variables with matching cardinalities."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.names) != len(set(self.names)):
            raise InvalidParameter(f"duplicate variable names in {self.names}")
        if len(self.names) != len(self.sizes):
            raise InvalidParameter("names and sizes must have equal length")
        if any(s < 1 for s in self.sizes):
            raise InvalidParameter(f"all cardinalities must be >= 1, got {self.sizes}")

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def size(self, name: str) -> int:
        return self.sizes[self.axis(name)]

    def shape(self) -> tuple[int, ...]:
        return self.sizes


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability tensor over a RandomVariableSet."""

    rvs: RandomVariableSet
    prob: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.prob, dtype=float)
        if arr.shape != self.rvs.shape():
            raise InvalidParameter(
                f"tensor shape {arr.shape} does not match variable sizes {self.rvs.shape()}"
            )
        if arr.size and arr.min() < -MASS_TOL:
            raise NegativeProbability(f"joint has entry {arr.min():.6g} < 0")
        total = float(arr.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # NaN and inf fail too
            raise InvalidParameter(f"joint mass {total!r} differs from 1 beyond {MASS_TOL}")
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "prob", arr)

    @property
    def names(self) -> tuple[str, ...]:
        return self.rvs.names


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
    """Ordered factor chain; conditioning may reference earlier targets only."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        seen: set[str] = set()
        for f in self.factors:
            for t in f.targets:
                if t in seen:
                    raise InvalidParameter(f"variable {t!r} targeted twice")
            missing = set(f.given) - seen
            if missing:
                raise InvalidParameter(
                    f"factor {f.targets} conditions on later/unknown variables {sorted(missing)}"
                )
            seen.update(f.targets)

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(t for f in self.factors for t in f.targets)


def chain(*factors: tuple) -> FactorizationSpec:
    """Shorthand: chain(("U",), ("X", "U")) == p(U) p(X|U)."""
    out = []
    for f in factors:
        if isinstance(f, Factor):
            out.append(f)
        elif len(f) == 1:
            out.append(Factor(_names(f[0])))
        else:
            out.append(Factor(_names(f[0]), _names(f[1])))
    return FactorizationSpec(tuple(out))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# einsum subscripts of a joint's axes; "w" and "z" label the appended outputs
_AXIS_LETTERS = "abcdefghijklmnopqrstuv"


def _axis_letters(d: JointDistribution) -> str:
    """One einsum letter per variable of d, or InvalidParameter if too many."""
    n = len(d.names)
    if n > len(_AXIS_LETTERS):
        raise InvalidParameter(
            f"{n} variables exceed the limit of {len(_AXIS_LETTERS)} for channel extension"
        )
    return _AXIS_LETTERS[:n]


def extend_through_channel(d: JointDistribution, c: Channel) -> JointDistribution:
    """Append channel outputs: p(all, Y1, Y2) = p(all) p(Y1, Y2 | X1, X2)."""
    for name in INPUTS:
        if name not in d.names:
            raise AlphabetMismatch(f"distribution lacks channel input {name!r}")
    for name in OUTPUTS:
        if name in d.names:
            raise AlphabetMismatch(f"output name {name!r} already present")
    m1, m2, n1, n2 = c.shape
    if d.rvs.size("X1") != n1 or d.rvs.size("X2") != n2:
        raise AlphabetMismatch(
            f"input sizes ({d.rvs.size('X1')},{d.rvs.size('X2')}) do not match channel ({n1},{n2})"
        )
    letters = _axis_letters(d)
    i1, i2 = d.rvs.axis("X1"), d.rvs.axis("X2")
    sub = f"{letters},wz{letters[i1]}{letters[i2]}->{letters}wz"
    prob = np.einsum(sub, d.prob, c.transition)
    rvs = RandomVariableSet(d.names + OUTPUTS, d.rvs.sizes + (m1, m2))
    return JointDistribution(rvs, prob)


def pairing_onehot(sizes: Sequence[int]) -> np.ndarray:
    """Indicator tensor over (parts..., paired): 1 exactly where the paired
    value is the row-major mixed-radix index of the part values."""
    n = int(np.prod(sizes))
    return np.eye(n).reshape(*sizes, n)


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
    """Signed sum of MI atoms plus a constant, in bits."""

    terms: tuple[tuple[int, MITerm], ...] = ()
    constant: float = 0.0

    @staticmethod
    def of(x) -> "MIExpr":
        if isinstance(x, MIExpr):
            return x
        if isinstance(x, MITerm):
            return MIExpr(((1, x),))
        return MIExpr((), float(x))

    def __add__(self, other):
        o = MIExpr.of(other)
        return MIExpr(self.terms + o.terms, self.constant + o.constant)

    def __sub__(self, other):
        o = MIExpr.of(other)
        neg = tuple((-s, t) for s, t in o.terms)
        return MIExpr(self.terms + neg, self.constant - o.constant)

    def __neg__(self):
        return MIExpr(tuple((-s, t) for s, t in self.terms), -self.constant)

    def variables(self) -> set[str]:
        out: set[str] = set()
        for _, t in self.terms:
            out.update(t.left, t.right, t.given)
        return out

    def __str__(self) -> str:
        if not self.terms:
            return f"{self.constant:g}"
        parts = []
        for i, (s, t) in enumerate(self.terms):
            sign = "-" if s < 0 else ("+" if i else "")
            parts.append(f"{sign} {t}" if i else f"{sign}{t}")
        if self.constant:
            parts.append(f"+ {self.constant:g}")
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
    """Joint entropies H(X_S) in bits, one per subset S, with exact 0*log 0 := 0.

    The package's only logarithm: every other information measure is an
    integer combination of these entropies (see compile_exprs).  All
    marginals come from one bincount over the cached _marginal_plan.
    """
    labels, starts, total = _marginal_plan(d.rvs, tuple(tuple(s) for s in subsets))
    p = np.bincount(labels, weights=np.tile(d.prob.ravel(), len(starts)), minlength=total)
    terms = np.zeros(total)
    mass = p > 0.0
    terms[mass] = p[mass] * np.log2(p[mass])
    return -np.add.reduceat(terms, starts)


@dataclass(frozen=True, eq=False)
class CompiledExprs:
    """A tuple of MI expressions as one linear map of joint entropies:

        h      = entropy_vector(d, subsets)
        atoms  = atom_matrix @ h      I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
        values = expr_matrix @ atoms + constants

    An atom in [-MI_CLAMP, 0) is roundoff and counts as 0.
    """

    subsets: tuple[tuple[str, ...], ...]
    atom_matrix: np.ndarray  # integer, (atoms, subsets)
    expr_matrix: np.ndarray  # integer, (expressions, atoms)
    constants: np.ndarray  # (expressions,)

    def __call__(self, d: JointDistribution) -> np.ndarray:
        """The expressions' values at distribution d, in bits."""
        return self.of_entropies(entropy_vector(d, self.subsets))

    def of_entropies(self, h: np.ndarray) -> np.ndarray:
        """The values from entropies whose first len(subsets) entries are
        H(subsets), in order; later entries are ignored."""
        atoms = self.atom_matrix @ h[: len(self.subsets)]
        atoms[(atoms >= -MI_CLAMP) & (atoms < 0.0)] = 0.0
        return self.expr_matrix @ atoms + self.constants


@lru_cache(maxsize=1024)
def compile_exprs(exprs: tuple[MIExpr, ...]) -> CompiledExprs:
    """Compile expressions into their entropy subsets and integer matrices.

    Subsets, atoms and expressions are numbered in order of first
    appearance; H(empty) = 0 gets no subset.
    """
    subsets: dict[tuple[str, ...], int] = {}
    atoms: dict[MITerm, dict[int, int]] = {}  # atom -> {subset column: weight}
    rows = []
    for e in exprs:
        row: dict[MITerm, int] = {}
        for s, t in e.terms:
            if t not in atoms:
                ac, bc = set(t.left + t.given), set(t.right + t.given)
                atoms[t] = {}
                for part, w in ((ac, 1), (bc, 1), (ac | bc, -1), (set(t.given), -1)):
                    if part:
                        col = subsets.setdefault(tuple(sorted(part)), len(subsets))
                        atoms[t][col] = atoms[t].get(col, 0) + w
            row[t] = row.get(t, 0) + s
        rows.append(row)
    atom_matrix = np.zeros((len(atoms), len(subsets)), dtype=np.int64)
    for a, cols in enumerate(atoms.values()):
        for col, w in cols.items():
            atom_matrix[a, col] = w
    column = {t: a for a, t in enumerate(atoms)}
    expr_matrix = np.zeros((len(rows), len(atoms)), dtype=np.int64)
    for k, row in enumerate(rows):
        for t, w in row.items():
            expr_matrix[k, column[t]] = w
    constants = np.array([e.constant for e in exprs], dtype=float)
    return CompiledExprs(tuple(subsets), atom_matrix, expr_matrix, constants)


def evaluate_expr(d: JointDistribution, e: MIExpr) -> float:
    """Signed sum of the expression's terms plus its constant."""
    return float(compile_exprs((e,))(d)[0])


def mutual_information(d: JointDistribution, t: MITerm) -> float:
    """I(A;B|C) in bits; tiny negatives (roundoff) are clamped to zero."""
    return evaluate_expr(d, MIExpr.of(t))


def entropy_term(names: Names, given: Names = ()) -> MITerm:
    """The atom H(A|C), written I(A;A|C)."""
    return _SelfInformation(names, names, given)


def entropy(d: JointDistribution, names: Names, given: Names = ()) -> float:
    """H(A|C) in bits."""
    return evaluate_expr(d, MIExpr.of(entropy_term(names, given)))


@dataclass(frozen=True, eq=False)
class CheckedExprs:
    """A leading expression map and a list of checks in one entropy pass:

        h      = entropy_vector(d, subsets)   subsets = lead.subsets + the checks' others
        checks = check_matrix @ h             each must be <= tol, in order
        values = lead.of_entropies(h)         the leading map's own matrices

    Every joint entropy is the same number in any subset list, so `values`
    equals lead(d) bit for bit.
    """

    lead: CompiledExprs
    subsets: tuple[tuple[str, ...], ...]
    check_matrix: np.ndarray  # integer, (checks, subsets)
    check_names: tuple[str, ...]

    def __call__(self, d: JointDistribution, tol: float = 1e-9) -> np.ndarray:
        """The leading values at d, or FactorizationViolation naming the
        first check above `tol`."""
        h = entropy_vector(d, self.subsets)
        checks = self.check_matrix @ h
        bad = np.flatnonzero(checks > tol)
        if bad.size:
            k = bad[0]
            raise FactorizationViolation(f"{self.check_names[k]} = {checks[k]:.3e} > {tol:g}")
        return self.lead.of_entropies(h)


@lru_cache(maxsize=256)
def compile_checked(
    leading: tuple[MIExpr, ...], checks: tuple[tuple[str, MITerm], ...]
) -> CheckedExprs:
    """Compile `leading` and the named check atoms into one entropy pass;
    the leading map's subsets come first, in their own order."""
    lead = compile_exprs(leading)
    inner = compile_exprs(tuple(MIExpr.of(t) for _, t in checks))
    subsets = lead.subsets + tuple(s for s in inner.subsets if s not in lead.subsets)
    column = {s: i for i, s in enumerate(subsets)}
    check_matrix = np.zeros((len(checks), len(subsets)), dtype=np.int64)
    check_matrix[:, [column[s] for s in inner.subsets]] = inner.expr_matrix @ inner.atom_matrix
    check_matrix.setflags(write=False)
    return CheckedExprs(lead, subsets, check_matrix, tuple(name for name, _ in checks))


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


def verify_factorization(d: JointDistribution, spec: FactorizationSpec, tol: float = 1e-9) -> None:
    """Check every conditional independence implied by the factor chain;
    raises FactorizationViolation naming the first violated triple."""
    compile_checked((), factorization_checks(spec))(d, tol)


# ---------------------------------------------------------------------------
# Variable renaming / merging on expressions
# ---------------------------------------------------------------------------


def rename_term(t: MITerm, mapping: dict[str, tuple[str, ...]]) -> MITerm | None:
    """Apply a name substitution; names mapped to () are dropped.

    Returns None when the left or right set vanishes (the atom is then
    identically zero).
    """

    def sub(names: tuple[str, ...]) -> tuple[str, ...]:
        out: list[str] = []
        for n in names:
            out.extend(mapping.get(n, (n,)))
        return tuple(dict.fromkeys(out))

    left, right, given = sub(t.left), sub(t.right), sub(t.given)
    if not left or not right:
        return None
    return MITerm(left, right, given)


def rename_expr(e: MIExpr, mapping: dict[str, tuple[str, ...]]) -> MIExpr:
    terms = []
    for s, t in e.terms:
        rt = rename_term(t, mapping)
        if rt is not None:
            terms.append((s, rt))
    return MIExpr(tuple(terms), e.constant)


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
        names = tuple(obj["names"])
        sizes = tuple(json_size(s, f"sizes[{i}]") for i, s in enumerate(obj["sizes"]))
        flat = obj["p"]
    except (KeyError, TypeError) as exc:
        raise InvalidParameter(f"malformed distribution object: {exc}") from exc
    rvs = RandomVariableSet(names, sizes)
    return JointDistribution(rvs, json_float_array(flat, sizes))


def load_joint(path: str | Path) -> JointDistribution:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{path}: not valid JSON: {exc}") from exc
    return joint_from_json(obj)
