"""Catalog of achievable rate regions as declarative schemas.

The catalog is one text table, `_CATALOG`, written in the notation the
audit manifest prints and read once, at import, by `parse_schema`.  Each
block states one schema, a fact per line; a projection or constraint
names only the variables and rates declared above it.  A `chain`,
`rates`, `R1` or `R2` line comes once per block, and a `size`, `copy`,
`input` or `pin` line once per name (a copy has no size line).  A chain
draws each variable once, both channel inputs X1 and X2 and no channel
output, and gives a factor only variables drawn before it; a size is at
most MAX_ALPHABET_SIZE:

  schema RTD                        the id, first
  chain p(A) p(B,C|A) ...           the input factorization, in chain order
  copy X2 = X2a,X2b                 a paired copy of parts its factor, of it alone, is given
  rates R1c R1pb ...                the rate variables, in column order
  R1 = R1c + R1pb                   the projection onto (R1, R2), one line each
  input X2 reads U2c                a channel input's only parents, given in its factor
  size Q = 1                        a default cardinality
  pin R1c' = I(U1c;X2|U2c)          a unified-region name the region fixes, as text
  note ...                          a free-text note
  superseded GROUP: TEXT            a superseded variant, in its source's notation
  1a: R1c' >= I(U1c;X2|U2c)         a constraint, as str() prints it (0: no rhs)

Labels follow the source derivations' equation labels, so the audit
manifest maps every inequality back to its source.  Degenerate
auxiliaries are cardinality-1 variables, never removed, so one variable
set serves a whole family of schemas.

A schema's coefficient structure is fixed; only its right-hand sides
depend on the distribution.  `compile_schema` compiles a schema once
into its LE-normal `RateStructure` (rate names, integer rows, projection
vectors, row labels), row signs and checked rhs map.  A `LinearSystem`,
which `instantiate` returns, is that structure plus a right-hand side
`b`, one vector or a batch of K along a leading axis; pinning, dropping
and pruning rows select from both.
A schema's `requirements` are the named MI atoms its input distribution
must make vanish: the factorization's conditional independencies, then
the paired copies' determinism.  Every map of a schema compiles them
after its leading expressions (`compile_exprs(leading,
schema.requirements)`), so one entropy pass per batch both checks and
evaluates: the rhs map leads with the constraints' rhs, the identity
suites of `cifc.verify` with their claim tables, and a bare check of a
distribution, `compile_exprs((), schema.requirements)(d)`, with nothing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channel import INPUTS, MAX_ALPHABET_SIZE, OUTPUTS
from .errors import (
    InvalidParameter,
    UnknownSchema,
    UnknownVariable,
)
from .probability import (
    MI_TOL,
    CompiledExprs,
    Factor,
    FactorizationSpec,
    JointDistribution,
    MIExpr,
    MITerm,
    RandomVariableSet,
    compile_exprs,
    entropy_term,
    evaluate_shared,
    factorization_checks,
    mi,
)

LE = "LE"
GE = "GE"


@dataclass(frozen=True)
class LinearRateConstraint:
    """sum(coeff * rate) <sense> rhs: nonzero integer coefficients of
    distinct rates, in name order, and a sense LE or GE.  `parse_schema`
    builds and checks it."""

    coeffs: tuple[tuple[str, int], ...]
    sense: str
    rhs: MIExpr
    label: str

    def coeff(self, name: str) -> int:
        return dict(self.coeffs).get(name, 0)

    def lhs_str(self) -> str:
        parts = []
        for name, c in self.coeffs:
            parts.append(name if c == 1 else f"{c} {name}")
        return " + ".join(parts)

    def __str__(self) -> str:
        op = "<=" if self.sense == LE else ">="
        return f"{self.lhs_str()} {op} {self.rhs}"


@dataclass(frozen=True)
class RegionSchema:
    """Declarative description of one rate region.

    The random variables are the factorization's targets (auxiliaries and
    channel inputs) plus the channel outputs.  Every rate variable is
    nonnegative; those the projection uses are message rates, the rest
    binning rates.  A `deterministic` variable is a paired copy of its
    parts; an `input_deps` channel input, drawn as a deterministic map in
    the structured sampling modes, reads only the listed variables.
    `parse_schema` builds and checks it: every name a constraint or the
    projection uses is declared, and labels are distinct.
    """

    id: str
    factorization: FactorizationSpec
    rate_vars: tuple[str, ...]
    constraints: tuple[LinearRateConstraint, ...]
    projection: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]  # R1/R2 -> coeffs
    deterministic: tuple[tuple[str, tuple[str, ...]], ...] = ()
    input_deps: tuple[tuple[str, tuple[str, ...]], ...] = ()
    default_sizes: tuple[tuple[str, int], ...] = ()
    pinned: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()
    superseded: tuple[tuple[str, str], ...] = ()  # (group, variant) in the source's notation

    @property
    def variables(self) -> tuple[str, ...]:
        return self.factorization.targets

    def message_rates(self) -> set[str]:
        """The rate variables the projection onto (R1, R2) uses."""
        return {n for _, coeffs in self.projection for n, _ in coeffs}

    @cached_property
    def requirements(self) -> tuple[tuple[str, MITerm], ...]:
        """The named atoms the region requires to be zero, in order: each
        factor's I(T;earlier-G|G) in chain order (factorization_checks),
        then each deterministic variable's H(X|parts)."""
        return factorization_checks(self.factorization) + tuple(
            (f"{self.id}: H({name}|{','.join(parts)})", entropy_term(name, parts))
            for name, parts in self.deterministic
        )

    # -- lookup helpers ----------------------------------------------------

    def constraint(self, label: str) -> LinearRateConstraint:
        for c in self.constraints:
            if c.label == label:
                return c
        raise KeyError(f"{self.id}: no constraint labeled {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.constraints)

    def projection_coeffs(self, which: str) -> dict[str, int]:
        for name, coeffs in self.projection:
            if name == which:
                return dict(coeffs)
        raise KeyError(which)

    def rv_set(self, size: int = 2, overrides: Mapping[str, int] | None = None) -> RandomVariableSet:
        """Variable set with the given default cardinality.

        Deterministic variables get the product of their parts' sizes;
        per-schema defaults (degenerate auxiliaries) and explicit
        overrides take precedence.  A default cardinality or an override
        above MAX_ALPHABET_SIZE is refused with InvalidParameter.
        """
        if size > MAX_ALPHABET_SIZE:
            raise InvalidParameter(f"size {size} is above the alphabet cap of {MAX_ALPHABET_SIZE}")
        overrides = dict(overrides or {})
        for name, value in overrides.items():
            if value > MAX_ALPHABET_SIZE:
                raise InvalidParameter(f"size {name}: {value} is above the alphabet cap of "
                                       f"{MAX_ALPHABET_SIZE}")
        fixed = {**dict(self.default_sizes), **overrides}
        det = dict(self.deterministic)
        sizes: dict[str, int] = {}
        for name in self.variables:
            if name in fixed:
                sizes[name] = fixed[name]
            elif name in det:
                sizes[name] = math.prod(sizes[part] for part in det[name])
            else:
                sizes[name] = size
        return RandomVariableSet(self.variables, tuple(sizes[n] for n in self.variables))


# ---------------------------------------------------------------------------
# Numeric rate systems: a schema instantiated at a joint distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateStructure:
    """The fixed part of an LE-normal rate system {x >= 0 : rows . x <= b}:
    the rate names, the integer rows (one per label, a tuple of ints each)
    and the projection directions R1 = r1 . x and R2 = r2 . x."""

    variables: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    r1: tuple[int, ...]
    r2: tuple[int, ...]
    labels: tuple[str, ...]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The rows as a read-only integer array."""
        m = np.array(self.rows, dtype=np.int64).reshape(len(self.labels), len(self.variables))
        m.setflags(write=False)
        return m

    def select(self, rows, cols) -> RateStructure:
        """The structure on the given row and rate-column indices."""

        def pick(v, ix):
            return tuple(v[i] for i in ix)

        return RateStructure(pick(self.variables, cols),
                             tuple(pick(self.rows[i], cols) for i in rows),
                             pick(self.r1, cols), pick(self.r2, cols), pick(self.labels, rows))


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A RateStructure with its right-hand side b: one vector, or a batch
    of K along a leading axis (`system[k]` is the k-th system)."""

    structure: RateStructure
    b: np.ndarray

    def __post_init__(self):
        b = np.array(self.b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[-1] != len(self.labels):
            raise InvalidParameter(f"rhs of shape {b.shape} for {len(self.labels)} rows")
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    variables = property(lambda self: self.structure.variables)
    rows = property(lambda self: self.structure.rows)
    r1 = property(lambda self: self.structure.r1)
    r2 = property(lambda self: self.structure.r2)
    labels = property(lambda self: self.structure.labels)

    def __eq__(self, other):
        return (isinstance(other, LinearSystem) and self.structure == other.structure
                and self.b.shape == other.b.shape and bool((self.b == other.b).all()))

    def __hash__(self) -> int:
        # + 0.0 turns a -0.0 into +0.0, which compares equal to it
        return hash((self.structure, self.b.shape, (self.b + 0.0).tobytes()))

    def __getitem__(self, k: int) -> LinearSystem:
        return LinearSystem(self.structure, self.b[k])

    def one(self) -> LinearSystem:
        """This system, or InvalidParameter if it is a batch."""
        if self.b.ndim == 2:
            raise InvalidParameter(f"a batch of {len(self.b)} systems where one is needed")
        return self

    def _select(self, rows, cols, b) -> LinearSystem:
        return LinearSystem(self.structure.select(rows, cols), b[..., list(rows)])

    def drop(self, *labels: str) -> LinearSystem:
        keep = [i for i, lab in enumerate(self.labels) if lab not in labels]
        return self._select(keep, range(len(self.variables)), self.b)

    def pin(self, values: Mapping[str, float]) -> LinearSystem:
        """Fix some rate variables to constants and eliminate them; a name
        that is no rate of the system is refused with InvalidParameter."""
        unknown = [n for n in values if n not in self.variables]
        if unknown:
            raise InvalidParameter(f"cannot pin {unknown[0]!r}: the rates are "
                                   f"{', '.join(self.variables)}")
        keep = [i for i, n in enumerate(self.variables) if n not in values]
        fixed = [i for i, n in enumerate(self.variables) if n in values]
        vals = np.array([values[self.variables[i]] for i in fixed], dtype=float)
        # summed left to right from +0.0; the shift is subtracted on the
        # LE-normal row, so a -0.0 rhs stays -0.0
        shift = (self.structure.matrix[:, fixed] * vals).sum(axis=1) + 0.0
        return self._select(range(len(self.labels)), keep, self.b - shift)

    def nonvacuous(self) -> np.ndarray:
        """Mask of the rows, per system of a batch, not implied by rate nonnegativity
        alone: those with a positive coefficient or an rhs below -MI_TOL."""
        return (self.structure.matrix > 0).any(axis=1) | ~(self.b >= -MI_TOL)


class CompiledSchema(NamedTuple):
    """The LE-normal rhs at a distribution d is sign * rhs(d)."""

    structure: RateStructure
    sign: np.ndarray
    rhs: CompiledExprs


@lru_cache(maxsize=64)
def compile_schema(schema: RegionSchema) -> CompiledSchema:
    """The schema's integer rows over schema.rate_vars, each row's sign
    (-1 for GE, the one place a sense becomes a sign) and the rhs map:
    the constraints' rhs, checked against the schema's requirements."""
    names = schema.rate_vars
    signs = tuple(1 if c.sense == LE else -1 for c in schema.constraints)
    rows = tuple(tuple(s * c.coeff(n) for n in names) for s, c in zip(signs, schema.constraints))
    r1, r2 = (tuple(schema.projection_coeffs(w).get(n, 0) for n in names) for w in ("R1", "R2"))
    sign = np.array(signs, dtype=float)
    sign.setflags(write=False)
    rhs = compile_exprs(tuple(c.rhs for c in schema.constraints), schema.requirements)
    return CompiledSchema(RateStructure(names, rows, r1, r2, schema.labels()), sign, rhs)


def instantiate(schema: RegionSchema, d: JointDistribution) -> LinearSystem:
    """The schema's LE-normal rate system at `d`, already channel-extended
    (a batch of systems for a batch of distributions).

    Each rhs is sign * value of its constraint's MI expression, through
    the schema's compiled rhs map, which checks the schema's requirements
    at MI_TOL in the same entropy pass and raises FactorizationViolation
    naming the first one that `d` fails.
    """
    return instantiate_all((schema,), d)[0]


def instantiate_all(schemas: Sequence[RegionSchema], d: JointDistribution) -> list[LinearSystem]:
    """Each schema's system at `d`, bit for bit as `instantiate` gives it,
    from one entropy pass (see evaluate_shared)."""
    missing = set(OUTPUTS).union(*(s.variables for s in schemas)) - set(d.names)
    if missing:
        raise UnknownVariable(f"distribution lacks {sorted(missing)}")
    compiled = [compile_schema(schema) for schema in schemas]
    values = evaluate_shared([c.rhs for c in compiled], d)
    return [LinearSystem(c.structure, c.sign * v) for c, v in zip(compiled, values)]


def same_system(a: LinearSystem, b: LinearSystem) -> bool:
    """Structural equality: the same multiset of LE-normal rows, each
    matched on its named coefficients, with rhs equal within MI_TOL."""
    a, b = a.one(), b.one()
    if set(a.variables) != set(b.variables):
        return False
    order = [b.variables.index(n) for n in a.variables]
    ka = sorted(zip(a.rows, a.b.tolist()))
    kb = sorted(zip((tuple(r[i] for i in order) for r in b.rows), b.b.tolist()))
    return len(ka) == len(kb) and all(
        ca == cb and abs(ra - rb) <= MI_TOL for (ca, ra), (cb, rb) in zip(ka, kb)
    )


# ---------------------------------------------------------------------------
# The catalog, one text block per schema
# ---------------------------------------------------------------------------

_CATALOG = """
schema RTD
chain p(U1c,U2c,U1pb,U2pb) p(X1,X2|U1c,U2c,U1pb,U2pb)
rates R1c R1pb R2c R2pa R2pb R1c' R1pb' R2pb'
R1 = R1c + R1pb
R2 = R2c + R2pa + R2pb
input X2 reads U2c
1a: R1c' >= I(U1c;X2|U2c)
1b: R1c' + R1pb' >= I(U1c,U1pb;X2|U2c)
1c: R1c' + R1pb' + R2pb' >= I(U1c,U1pb;X2|U2c) + I(U2pb;U1pb|U1c,U2c,X2)
1d: R1c + R1c' + R2c + R2pa + R2pb + R2pb' <= I(Y2;U1c,U2c,U2pb,X2) + I(U1c;X2|U2c)
1e: R1c + R1c' + R2pa + R2pb + R2pb' <= I(Y2;U1c,U2pb,X2|U2c) + I(U1c;X2|U2c)
1f: R2pa + R2pb + R2pb' <= I(Y2;U2pb,X2|U1c,U2c) + I(U1c;X2|U2c)
1g: R1c + R1c' + R2pb + R2pb' <= I(Y2;U1c,U2pb|U2c,X2) + I(U1c;X2|U2c)
1h: R2pb + R2pb' <= I(Y2;U2pb|U1c,U2c,X2)
1i: R1c + R1c' + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c)
1j: R1c + R1c' + R1pb + R1pb' <= I(Y1;U1c,U1pb|U2c)
1k: R1pb + R1pb' <= I(Y1;U1pb|U1c,U2c)

schema RTD_IN
chain p(U2c,X2) p(U1c|X2) p(U1pb|X2) p(X1|X2,U1c,U1pb)
rates R1c R1pb R2c R2pa R1c' R1pb'
R1 = R1c + R1pb
R2 = R2c + R2pa
pin R2pb = 0
pin R2pb' = 0
pin U2pb = degenerate
e10: R1c' >= I(U1c;X2|U2c)
e12: R1c' + R1pb' >= I(X2;U1c,U1pb|U2c)
e13: R1c + R1c' + R2c + R2pa <= I(Y2;U1c,U2c,X2) + I(U1c;X2|U2c)
e14: R1c + R1c' + R2pa <= I(Y2;U1c,X2|U2c) + I(U1c;X2|U2c)
e15: R1c + R1c' <= I(Y2;U1c|U2c,X2) + I(U1c;X2|U2c)
e16: R2pa <= I(Y2;X2|U1c,U2c) + I(U1c;X2|U2c)
e17: R1c + R1c' + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c)
e18: R1c + R1c' + R1pb + R1pb' <= I(Y1;U1c,U1pb|U2c)
e19: R1pb + R1pb' <= I(Y1;U1pb|U1c,U2c)

schema DMT_OUT
chain p(U2c,X2) p(U1c|X2) p(U1pb|X2) p(X1|X2,U1c,U1pb)
rates R1c R1pb R2c R2pa R1c' R1pb'
R1 = R1c + R1pb
R2 = R2c + R2pa
note binning rows e20/e21 are stated as equalities; encoded GE, equality is WLOG
note rhs forms are the deterministic-input variants; the pre-insertion forms appear in the audit manifest only
superseded e23-e29 pre-insertion: R21' = I(V21;V11,V12|W)
superseded e23-e29 pre-insertion: R22' = I(V22;V11,V12|W)
superseded e23-e29 pre-insertion: R11 <= I(Y1,V12,V21;V11|W)
superseded e23-e29 pre-insertion: R21+R21' <= I(Y1,V11,V12;V21|W)
superseded e23-e29 pre-insertion: R11+R21+R21' <= I(Y1,V12;V11,V21|W) + I(V11;V21|W)
superseded e23-e29 pre-insertion: R11+R21+R21'+R12 <= I(Y1;V11,V21,V12|W) + I(V11,V12;V21|W)
superseded e23-e29 pre-insertion: R22+R22' <= I(Y2,V12,V21;V22|W)
superseded e23-e29 pre-insertion: R22+R22'+R21+R21' <= I(Y2,V12;V22,V21|W) + I(V22;V21|W)
superseded e23-e29 pre-insertion: R22+R22'+R21+R21'+R12 <= I(Y2;V22,V21,V12|W) + I(V22,V21;V12|W)
e20: R1c' >= I(U1c;U2c,X2)
e21: R1pb' >= I(U1pb;U2c,X2)
e23: R1c + R1c' + R2c + R2pa <= I(Y2;U1c,U2c,X2) + I(U2c,X2;U1c)
e24: R1c + R1c' + R2pa <= I(Y2;U1c,X2|U2c) + I(X2;U1c)
e25: R1c + R1c' <= I(U2c,X2,Y2;U1c)
e26: R2pa <= I(Y2;X2|U1c,U2c) + I(U1c;X2|U2c)
e27: R1c + R1c' + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c) + I(U1c,U1pb;U2c)
e28: R1c + R1c' + R1pb + R1pb' <= I(U2c,Y1;U1c,U1pb) + I(U1pb;U1c)
e29: R1pb + R1pb' <= I(U1c,U2c,Y1;U1pb)

schema CC
chain p(U10) p(U11|U10) p(V11|U10,U11) p(V20|U10,U11,V11) p(V22|U10,U11,V11,V20) p(X1|U10,U11,V11,V20,V22) p(X2|U10,U11,V11,V20,V22,X1)
rates R1 R2
R1 = R1
R2 = R2
note indices follow the comparator's own orientation (users swapped)
37: R1 <= I(Y1;U10,U11,V11,V20)
38: R2 <= I(Y2;V20,V22|U10) - I(V20,V22;U11|U10)
39: R1 + R2 <= I(Y1;U11,V11|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
40: R1 + R2 <= I(Y1;U10,U11,V11,V20) + I(Y2;V22|U10,V20) - I(V22;U11,V11|U10,V20)
41: R1 + 2 R2 <= I(Y1;U11,V11,V20|U10) + I(Y2;V22|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20) - I(V20,V22;U11|U10)

schema CCP
chain p(U2c) p(U1c|U2c) p(U1pb,U2pb|U2c,U1c) p(X2|U2c) p(X1|U2c,U1c,U1pb,U2pb,X2)
copy X2 = U2c
rates R1c R1pb R2c R2pb R1c' R1pb' R2pb'
R1 = R1c + R1pb
R2 = R2c + R2pb
pin R2pa = 0
pin X2 = U2c
note rewritten over the unified region's variables; labels cp1-cp8 correspond to the merged comparator's constraint list 37p-41p
cp1: R1c' >= 0
cp2: R1pb' + R2pb' >= I(U1pb;U2pb|U1c,U2c)
cp3: R2pb + R2pb' <= I(Y2;U2pb|U1c,U2c)
cp4: R1c + R1c' + R2pb + R2pb' <= I(Y2;U1c,U2pb|U2c)
cp5: R1c + R1c' + R2c + R2pb + R2pb' <= I(Y2;U1c,U2c,U2pb)
cp6: R1pb + R1pb' <= I(Y1;U1pb|U1c,U2c)
cp7: R1c + R1c' + R1pb + R1pb' <= I(Y1;U1c,U1pb|U2c)
cp8: R1c + R1c' + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c)

schema RTD_CC
chain p(U2c) p(U1c|U2c) p(U1pb,U2pb|U2c,U1c) p(X2|U2c) p(X1|U2c,U1c,U1pb,U2pb,X2)
copy X2 = U2c
rates R1c R1pb R2c R2pb R1c' R1pb' R2pb'
R1 = R1c + R1pb
R2 = R2c + R2pb
pin R2pa = 0
pin X2 = U2c
rc1: R1c' >= 0
rc2: R1c' + R1pb' >= 0
rc3: R1c' + R1pb' + R2pb' >= I(U1pb;U2pb|U1c,U2c)
rc4: R2pb + R2pb' <= I(Y2;U2pb|U1c,U2c)
rc5: R1c + R1c' + R2pb + R2pb' <= I(Y2;U1c,U2pb|U2c)
rc6: R1c + R1c' + R2c + R2pb + R2pb' <= I(Y2;U1c,U2c,U2pb)
rc7: R1pb + R1pb' <= I(Y1;U1pb|U1c,U2c)
rc8: R1c + R1c' + R1pb + R1pb' <= I(Y1;U1c,U1pb|U2c)
rc9: R1c + R1c' + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c)

schema JIANG
chain p(U1c) p(U2c) p(X2|U2c) p(U1pb,U2pb|U1c,U2c,X2) p(X1|U2c,U1c,U1pb,U2pb)
rates R1c R1pb R2c R2pa R1pb' R2pb'
R1 = R1c + R1pb
R2 = R2c + R2pa
pin R2pb = 0
note j5 carries the broadcast auxiliary U2pb alongside U1c per the variable correspondence
j0: R1pb' >= I(U1pb;X2|U1c,U2c)
j1: R1pb' + R2pb' >= I(U1pb;U2pb,X2|U1c,U2c)
j2: R2pa + R2pb' <= I(U2pb,X2;Y2|U1c,U2c)
j3: R2c + R2pa + R2pb' <= I(U2c,U2pb,X2;Y2|U1c)
j4: R1c + R2pa + R2pb' <= I(U1c,U2pb,X2;Y2|U2c)
j5: R1c + R2c + R2pa + R2pb' <= I(U1c,U2c,U2pb,X2;Y2)
j6: R1pb + R1pb' <= I(U1pb;Y1|U1c,U2c)
j7: R1c + R1pb + R1pb' <= I(U1c,U1pb;Y1|U2c)
j8: R1pb + R1pb' + R2c <= I(U1pb,U2c;Y1|U1c)
j9: R1c + R1pb + R1pb' + R2c <= I(U1c,U1pb,U2c;Y1)

schema RTD_JIANG
chain p(U1c) p(U2c) p(X2|U2c) p(U1pb,U2pb|U1c,U2c,X2) p(X1|U2c,U1c,U1pb,U2pb)
rates R1c R1pb R2c R2pa R1pb' R2pb'
R1 = R1c + R1pb
R2 = R2c + R2pa
pin R2pb = 0
pin R1c' = I(U1c;X2|U2c)
note R1c' is substituted at its pinned value, which vanishes under this factorization
u0: R1pb' >= I(U1pb;X2|U1c,U2c)
u1: R1pb' + R2pb' >= I(U1pb;U2pb,X2|U1c,U2c)
u2: R2pa + R2pb' <= I(Y2;U2pb,X2|U1c,U2c) + I(U1c;X2|U2c)
u3: R1c + R2pa + R2pb' <= I(Y2;U1c,U2pb,X2|U2c)
u4: R1c + R2c + R2pa + R2pb' <= I(Y2;U1c,U2c,U2pb,X2)
u5: R1pb + R1pb' <= I(Y1;U1pb|U1c,U2c)
u6: R1c + R1pb + R1pb' <= I(Y1;U1c,U1pb|U2c)
u7: R1c + R1pb + R1pb' + R2c <= I(Y1;U1c,U1pb,U2c)

schema MARIC
chain p(Q) p(U1c|Q) p(U1a|Q,U1c) p(X2a|Q,U1c,U1a) p(X2b|Q,U1c,U1a,X2a) p(X2|X2a,X2b) p(X1|Q,U1c,U1a,X2a,X2b,X2)
copy X2 = X2a,X2b
rates R1 R2
R1 = R1
R2 = R2
size Q = 1
note X2 is the deterministic pair (X2a, X2b); the time-sharing variable Q is degenerate by default
m1: R1 <= I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2b;Y2|Q,X2a)
m2: R1 <= I(U1a,U1c;Y1|Q) - I(U1a,U1c;X2a,X2b|Q)
m3: R2 <= I(U1c,X2;Y2|Q)
m4: R2 <= I(X2;U1c,Y2|Q)
m5: R1 + R2 <= I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2;Y2|Q)
"""

_VARS = r"[A-Za-z]\w*(?:,[A-Za-z]\w*)*"
_RATE = r"[A-Za-z]\w*'?"
_ATOM = re.compile(rf"(?:([1-9]\d*) )?I\(({_VARS});({_VARS})(?:\|({_VARS}))?\)")
_FACTOR = re.compile(rf"p\(({_VARS})(?:\|({_VARS}))?\)")
_RATES = re.compile(rf"({_RATE}(?: {_RATE})*)")
_TERM = re.compile(rf"(?:(-?[1-9]\d*) )?({_RATE})")
_REF = re.compile(r"\[(?:(\w+)\.)?([\w']+)\]")
_CONSTRAINT = re.compile(r"([\w']+): (.+) ([<>]=) (.+)")
_FACTS = {  # line kind -> (the text after the kind, the value's reader, the RegionSchema field)
    "input": (re.compile(rf"(\w+) reads ({_VARS})"), lambda v: tuple(v.split(",")), "input_deps"),
    "copy": (re.compile(rf"(\w+) = ({_VARS})"), lambda v: tuple(v.split(",")), "deterministic"),
    "size": (re.compile(r"(\w+) = ([1-9]\d*)"), int, "default_sizes"),
    "pin": (re.compile(rf"({_RATE}) = (.+)"), str, "pinned"),
    "superseded": (re.compile(r"([^:]+): (.+)"), str, "superseded"),
}


def _read(pattern: re.Pattern, text: str, what: str) -> tuple:
    """The groups of `pattern` matched against the whole of `text`."""
    m = pattern.fullmatch(text)
    if m is None:
        raise InvalidParameter(f"cannot read {text!r} as {what}")
    return m.groups()


def _declared(expr: MIExpr, variables: Sequence[str], where: str = "") -> MIExpr:
    """`expr`, or InvalidParameter, its message after `where`, if it reads
    a variable that is neither one of `variables` nor a channel output."""
    undeclared = expr.variables() - {*variables, *OUTPUTS}
    if undeclared:
        raise InvalidParameter(f"{where}undeclared variables {sorted(undeclared)}")
    return expr


def parse_expr(text: str, reference=None) -> MIExpr:
    """The MIExpr that prints as `text`: 0, or atoms I(A;B|C) joined by
    ' + ' and ' - ', the first of them optionally negated, each optionally
    after its coefficient's magnitude and a space ('- 3 I(A;C)').  Given
    `reference`, a term may also be a reference, `[SCHEMA.label]` or
    `[LABEL]`: `reference(SCHEMA or None, label)` is its MIExpr, which
    takes the sign written before it; a catalog line has none."""
    if text == "0":
        return MIExpr()
    parts = re.split(r" ([+-]) ", text)
    if any(part.startswith("-") for part in parts[2::2]):
        raise InvalidParameter(f"cannot read {text!r}: two signs before one term")
    terms: tuple = ()
    for sign, part in zip(["+", *parts[1::2]], parts[::2]):
        term = part.removeprefix("-")
        s = -1 if sign == "-" or term != part else 1
        if reference and term.startswith("["):
            expr = reference(*_read(_REF, term, "a reference [SCHEMA.label] or [LABEL]"))
            terms += (expr if s == 1 else -expr).terms
        else:
            c, left, right, given = _read(_ATOM, term, "a term I(A;B|C)")
            terms += ((s * int(c or 1), mi(left, right, given or ())),)
    return MIExpr(terms)


def _linear(text: str, rates: Sequence[str]) -> tuple[tuple[str, int], ...]:
    """'R1c + 2 R2' as (('R1c', 1), ('R2', 2)), in the written order."""
    terms = tuple((n, int(c or 1))
                  for c, n in (_read(_TERM, t, "a rate") for t in text.split(" + ")))
    if len(dict(terms)) < len(terms) or dict(terms).keys() - set(rates):
        raise InvalidParameter(f"a rate repeats or is undeclared in {text!r}")
    return terms


def parse_chain(text: str) -> FactorizationSpec:
    """The factorization a chain line states, 'p(A) p(B,C|A)'.  Refused
    with InvalidParameter: a variable that is a target twice, also within
    one factor, or a factor given a variable that no factor before it
    draws."""
    factors, seen = [], set()
    for part in text.split(" "):
        targets, given = _read(_FACTOR, part, "a factor p(A|B)")
        f = Factor(targets, given or ())
        missing = sorted(set(f.given) - seen)
        if missing:
            raise InvalidParameter(f"factor {f.targets} conditions on later/unknown variables {missing}")
        for name in f.targets:
            if name in seen:
                raise InvalidParameter(f"variable {name!r} targeted twice")
            seen.add(name)
        factors.append(f)
    return FactorizationSpec(tuple(factors))


@lru_cache(maxsize=1)
def _unified_names() -> frozenset[str]:
    """The names a pin may fix: the rates and variables of the unified
    region, the catalog's first block (which pins none)."""
    unified = parse_schema(_CATALOG.strip("\n").split("\n\n")[0])
    return frozenset(unified.rate_vars + unified.variables)


def _check_fact(kind: str, name: str, value, fields: dict) -> None:
    """Refuse a second size, copy, input or pin line for one name, or a size
    and a copy of one; a size above MAX_ALPHABET_SIZE; a pin of no name of the unified region; a size, copy
    or input of no variable (an input of no channel input) of the chain
    above; a copy or input that reads a variable its factor is not given;
    and a copy whose factor draws other targets too."""
    if kind != "superseded" and name in dict(fields[_FACTS[kind][2]]):
        raise InvalidParameter(f"a second {kind} line for {name}")
    clash = {"size": "deterministic", "copy": "default_sizes"}.get(kind)
    if clash and name in dict(fields[clash]):
        raise InvalidParameter(f"{kind} {name}: a paired copy's size is its parts' product")
    factor = {t: f for f in fields["factorization"].factors for t in f.targets}
    if kind == "size" and value > MAX_ALPHABET_SIZE:
        raise InvalidParameter(f"size {name}: {value} is above the alphabet cap of "
                               f"{MAX_ALPHABET_SIZE}")
    if kind == "pin" and name not in _unified_names():
        raise InvalidParameter(f"pin {name}: no rate or variable of the unified region")
    if kind in ("size", "copy", "input") and name not in factor:
        raise InvalidParameter(f"{kind} {name}: no variable of the chain above")
    if kind == "input" and name not in INPUTS:
        raise InvalidParameter(f"input {name}: no channel input")
    unread = set(value) - set(factor[name].given) if kind in ("copy", "input") else ()
    if unread:
        raise InvalidParameter(f"{kind} {name}: its factor is not given {sorted(unread)}")
    if kind == "copy" and factor[name].targets != (name,):
        raise InvalidParameter(f"copy {name}: its factor draws {factor[name].targets}")


def parse_schema(block: str) -> RegionSchema:
    """The RegionSchema one catalog block states (the line kinds are in
    the module docstring).  A line it cannot read, or whose fact names
    what its kind cannot take, is refused with InvalidParameter naming the
    schema and the line's number in the block; a block without its R1 and
    R2 lines is refused naming its last line.  Each check reads only lines
    above it, which no later line can change."""
    lines = block.strip("\n").split("\n")
    kind, _, sid = lines[0].partition(" ")
    if kind != "schema" or not sid:
        raise InvalidParameter(f"line 1: a block opens with 'schema ID', not {lines[0]!r}")
    fields: dict = {"factorization": FactorizationSpec(()), "rate_vars": (), "constraints": (),
                    "projection": (), "notes": (), **{f: () for *_, f in _FACTS.values()}}
    seen = set()
    for number, line in enumerate(lines[1:], 2):
        kind, _, rest = line.partition(" ")
        try:
            if kind in seen:
                raise InvalidParameter(f"a second {kind} line")
            seen |= {kind} & {"chain", "rates", "R1", "R2"}
            if kind == "chain":
                chain = parse_chain(rest)
                lacking = [n for n in INPUTS if n not in chain.targets]
                if lacking:
                    raise InvalidParameter(f"the chain draws no channel input {lacking[0]}")
                outputs = [n for n in OUTPUTS if n in chain.targets]
                if outputs:
                    raise InvalidParameter(f"the chain draws {outputs[0]}, a channel output")
                fields["factorization"] = chain
            elif kind == "rates":
                fields["rate_vars"] = tuple(_read(_RATES, rest, "rate names")[0].split(" "))
                if len(set(fields["rate_vars"])) < len(fields["rate_vars"]):
                    raise InvalidParameter(f"a rate repeats in {rest!r}")
            elif kind in ("R1", "R2") and rest.startswith("= "):
                fields["projection"] += ((kind, _linear(rest[2:], fields["rate_vars"])),)
            elif kind in _FACTS:
                pattern, reader, field = _FACTS[kind]
                name, value = _read(pattern, rest, f"a {kind} line")
                _check_fact(kind, name, reader(value), fields)
                fields[field] += ((name, reader(value)),)
            elif kind == "note":
                fields["notes"] += (rest,)
            elif kind.endswith(":"):
                label, lhs, op, rhs = _read(_CONSTRAINT, line, "LABEL: LHS <= RHS (or >=)")
                coeffs = tuple(sorted(_linear(lhs, fields["rate_vars"])))
                expr = _declared(parse_expr(rhs), fields["factorization"].targets)
                c = LinearRateConstraint(coeffs, LE if op == "<=" else GE, expr, label)
                if label in (d.label for d in fields["constraints"]):
                    raise InvalidParameter(f"label {label!r} is taken")
                fields["constraints"] += (c,)
            else:
                raise InvalidParameter(f"unknown line kind {kind!r}")
        except ValueError as e:
            raise InvalidParameter(f"schema {sid}, line {number}: {e}") from e
    if len(fields["projection"]) < 2:
        raise InvalidParameter(f"schema {sid}, line {len(lines)}: the block ends "
                               "without one 'R1 =' and one 'R2 =' line")
    return RegionSchema(id=sid, **fields)


_SCHEMAS = {s.id: s for s in map(parse_schema, _CATALOG.strip("\n").split("\n\n"))}

SCHEMA_IDS = tuple(_SCHEMAS)


def builtin_schema(schema_id: str) -> RegionSchema:
    """Return the catalog schema for `schema_id` (see SCHEMA_IDS)."""
    if schema_id not in _SCHEMAS:
        raise UnknownSchema(f"unknown schema {schema_id!r}; known: {', '.join(SCHEMA_IDS)}")
    return _SCHEMAS[schema_id]


# ---------------------------------------------------------------------------
# Audit manifest
# ---------------------------------------------------------------------------


def schema_manifest(schema: RegionSchema) -> dict:
    """Audit map: every constraint with its label, coefficients and rhs."""
    messages = schema.message_rates()
    out = {
        "id": schema.id,
        "variables": list(schema.variables),
        "outputs": list(OUTPUTS),
        "rate_variables": [
            {"name": n, "role": "message" if n in messages else "binning"} for n in schema.rate_vars
        ],
        "projection": {name: dict(coeffs) for name, coeffs in schema.projection},
        "factorization": [{"targets": list(f.targets), "given": list(f.given)}
                          for f in schema.factorization.factors],
        "constraints": [{"label": c.label, "lhs": dict(c.coeffs), "sense": c.sense,
                         "rhs": str(c.rhs)} for c in schema.constraints],
    }
    if schema.deterministic:
        out["deterministic"] = {name: list(parts) for name, parts in schema.deterministic}
    if schema.pinned:
        out["pinned"] = dict(schema.pinned)
    if schema.notes:
        out["notes"] = list(schema.notes)
    if schema.superseded:
        out["superseded_variants"] = {}
        for group, variant in schema.superseded:
            out["superseded_variants"].setdefault(group, []).append(variant)
    return out


def catalog_manifest() -> dict:
    return {sid: schema_manifest(builtin_schema(sid)) for sid in SCHEMA_IDS}
