"""Catalog of achievable rate regions as declarative schemas.

Each schema lists its rate variables, linear constraints whose
right-hand sides are mutual-information expressions, the projection onto
(R1, R2), and the input-distribution factorization the region is defined
over.  Nothing is stated twice: the schema's random variables are the
factorization's targets (plus the channel outputs Y1, Y2), and a rate's
role follows from the projection (message if the projection uses it,
binning otherwise).  Constraint labels follow the equation
labels of the originating derivations so the audit manifest can map every
transcribed inequality back to its source:

  RTD        1a-1k    unified inner bound (11 constraints, 8 rate vars)
  RTD_IN     e10-e19  restricted unified region used in the DMT comparison
  DMT_OUT    e20-e29  enlarged comparator region (same variable chain)
  CC         37-41    sequential-binning comparator, post-elimination form
  CCP        cp1-cp8  the CC region with its private satellite merged,
                      rewritten over the unified region's variables
  RTD_CC     rc1-rc9  unified region specialized to R2pa = 0, X2 = U2c
  JIANG      j0-j9    independent-common-messages comparator, rewritten
  RTD_JIANG  u0-u7    unified region specialized per the JIANG comparison
  MARIC      m1-m5    post-elimination comparator with a split primary input

Degenerate auxiliaries are modeled as cardinality-1 variables, never
removed, so one variable set serves every schema of a family.

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
suites of `cifc.verify` with their claim tables, and `check_distribution`
with nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .channel import OUTPUTS
from .errors import (
    InvalidParameter,
    UnknownSchema,
    UnknownVariable,
)
from .probability import (
    MI_TOL,
    CompiledExprs,
    FactorizationSpec,
    JointDistribution,
    MIExpr,
    MITerm,
    RandomVariableSet,
    chain,
    compile_exprs,
    entropy_term,
    evaluate_shared,
    factorization_checks,
    mi,
    rename_expr,
)

LE = "LE"
GE = "GE"


def _coeff_items(coeffs: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((k, int(v)) for k, v in coeffs.items() if int(v) != 0))


@dataclass(frozen=True)
class LinearRateConstraint:
    """sum(coeff * rate) <sense> rhs, with integer coefficients."""

    coeffs: tuple[tuple[str, int], ...]
    sense: str
    rhs: MIExpr
    label: str

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _coeff_items(dict(self.coeffs)))
        if not self.coeffs:
            raise ValueError(f"constraint {self.label}: no nonzero coefficient")
        if self.sense not in (LE, GE):
            raise ValueError(f"constraint {self.label}: sense must be LE|GE")

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


def _con(coeffs: Mapping[str, int], sense: str, rhs, label: str) -> LinearRateConstraint:
    return LinearRateConstraint(_coeff_items(coeffs), sense, MIExpr.of(rhs), label)


@dataclass(frozen=True)
class RegionSchema:
    """Declarative description of one rate region.

    The random variables are the factorization's targets (auxiliaries and
    channel inputs) plus the channel outputs.  Every rate variable is
    nonnegative; those the projection uses are message rates, the rest
    binning rates.  A `deterministic` variable is a paired copy of its
    parts; an `input_deps` channel input, drawn as a deterministic map in
    the structured sampling modes, reads only the listed variables.
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

    def __post_init__(self):
        declared = set(self.variables) | set(OUTPUTS)
        rates = set(self.rate_vars)
        labels = [c.label for c in self.constraints]
        if len(labels) != len(set(labels)):
            raise ValueError(f"{self.id}: duplicate constraint labels")
        for c in self.constraints:
            bad = c.rhs.variables() - declared
            if bad:
                raise ValueError(f"{self.id}/{c.label}: undeclared variables {sorted(bad)}")
            bad_rates = {n for n, _ in c.coeffs} - rates
            if bad_rates:
                raise ValueError(f"{self.id}/{c.label}: unknown rate vars {sorted(bad_rates)}")
        bad_rates = self.message_rates() - rates
        if bad_rates:
            raise ValueError(f"{self.id}: projection uses unknown rate vars {sorted(bad_rates)}")

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
        overrides take precedence.
        """
        sizes: dict[str, int] = {}
        defaults = dict(self.default_sizes)
        det = dict(self.deterministic)
        overrides = dict(overrides or {})
        for name in self.variables:
            if name in overrides:
                sizes[name] = overrides[name]
            elif name in defaults:
                sizes[name] = defaults[name]
            elif name in det:
                prod = 1
                for part in det[name]:
                    prod *= sizes[part]
                sizes[name] = prod
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

    def rhs(self, label: str):
        """The rhs of the row labeled `label` (one per system of a batch)."""
        if label not in self.labels:
            raise KeyError(f"no constraint {label!r}")
        return self.b[..., self.labels.index(label)]

    def _select(self, rows, cols, b) -> LinearSystem:
        return LinearSystem(self.structure.select(rows, cols), b[..., list(rows)])

    def drop(self, *labels: str) -> LinearSystem:
        keep = [i for i, lab in enumerate(self.labels) if lab not in labels]
        return self._select(keep, range(len(self.variables)), self.b)

    def pin(self, values: Mapping[str, float]) -> LinearSystem:
        """Fix some rate variables to constants and eliminate them."""
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

    def without_vacuous(self) -> LinearSystem:
        """Drop the rows that `nonvacuous` leaves out, from one system."""
        keep = self.one().nonvacuous()
        return self._select(np.flatnonzero(keep).tolist(), range(len(self.variables)), self.b)


def check_distribution(schema: RegionSchema, d: JointDistribution) -> None:
    """Require `d` to satisfy the schema's requirements (conditional
    independencies, then determinism) at MI_TOL; raises
    FactorizationViolation naming the first one above it."""
    compile_exprs((), schema.requirements)(d)


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
    the schema's compiled rhs map.  `d` must pass check_distribution, whose
    requirements the map checks at MI_TOL in the same entropy pass.
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
# Schema transcriptions
# ---------------------------------------------------------------------------


def _rtd() -> RegionSchema:
    a = mi("U1c", "X2", "U2c")
    return RegionSchema(
        id="RTD",
        factorization=chain(("U1c U2c U1pb U2pb",), ("X1 X2", "U1c U2c U1pb U2pb")),
        rate_vars=("R1c", "R1pb", "R2c", "R2pa", "R2pb", "R1c'", "R1pb'", "R2pb'"),
        constraints=(
            _con({"R1c'": 1}, GE, a, "1a"),
            _con({"R1c'": 1, "R1pb'": 1}, GE, mi("U1pb U1c", "X2", "U2c"), "1b"),
            _con(
                {"R1c'": 1, "R1pb'": 1, "R2pb'": 1},
                GE,
                mi("U1pb U1c", "X2", "U2c") + mi("U2pb", "U1pb", "U1c U2c X2"),
                "1c",
            ),
            _con(
                {"R2c": 1, "R2pa": 1, "R1c": 1, "R1c'": 1, "R2pb": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U2pb U1c X2 U2c") + a,
                "1d",
            ),
            _con(
                {"R2pa": 1, "R1c": 1, "R1c'": 1, "R2pb": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U2pb U1c X2", "U2c") + a,
                "1e",
            ),
            _con(
                {"R2pa": 1, "R2pb": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U2pb X2", "U1c U2c") + a,
                "1f",
            ),
            _con(
                {"R1c": 1, "R1c'": 1, "R2pb": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U2pb U1c", "X2 U2c") + a,
                "1g",
            ),
            _con({"R2pb": 1, "R2pb'": 1}, LE, mi("Y2", "U2pb", "U1c X2 U2c"), "1h"),
            _con(
                {"R2c": 1, "R1c": 1, "R1c'": 1, "R1pb": 1, "R1pb'": 1},
                LE,
                mi("Y1", "U1pb U1c U2c"),
                "1i",
            ),
            _con(
                {"R1c": 1, "R1c'": 1, "R1pb": 1, "R1pb'": 1},
                LE,
                mi("Y1", "U1pb U1c", "U2c"),
                "1j",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1pb", "U1c U2c"), "1k"),
        ),
        projection=(
            ("R1", (("R1c", 1), ("R1pb", 1))),
            ("R2", (("R2c", 1), ("R2pa", 1), ("R2pb", 1))),
        ),
        input_deps=(("X2", ("U2c",)),),  # the primary encoder sees only U2c
    )


def _rtd_in() -> RegionSchema:
    a = mi("U1c", "X2", "U2c")
    return RegionSchema(
        id="RTD_IN",
        factorization=chain(("U2c X2",), ("U1c", "X2"), ("U1pb", "X2"), ("X1", "X2 U1c U1pb")),
        rate_vars=("R1c", "R1pb", "R2c", "R2pa", "R1c'", "R1pb'"),
        constraints=(
            _con({"R1c'": 1}, GE, a, "e10"),
            _con({"R1c'": 1, "R1pb'": 1}, GE, mi("X2", "U1c U1pb", "U2c"), "e12"),
            _con(
                {"R2c": 1, "R1c": 1, "R2pa": 1, "R1c'": 1},
                LE,
                mi("Y2", "U2c U1c X2") + a,
                "e13",
            ),
            _con({"R2pa": 1, "R1c": 1, "R1c'": 1}, LE, mi("Y2", "U1c X2", "U2c") + a, "e14"),
            _con({"R1c": 1, "R1c'": 1}, LE, mi("Y2", "U1c", "U2c X2") + a, "e15"),
            _con({"R2pa": 1}, LE, mi("Y2", "X2", "U2c U1c") + a, "e16"),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y1", "U2c U1c U1pb"),
                "e17",
            ),
            _con(
                {"R1c": 1, "R1pb": 1, "R1c'": 1, "R1pb'": 1},
                LE,
                mi("Y1", "U1c U1pb", "U2c"),
                "e18",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1pb", "U2c U1c"), "e19"),
        ),
        projection=(
            ("R1", (("R1c", 1), ("R1pb", 1))),
            ("R2", (("R2c", 1), ("R2pa", 1))),
        ),
        pinned=(("R2pb", "0"), ("R2pb'", "0"), ("U2pb", "degenerate")),
    )


def _dmt_out() -> RegionSchema:
    base = _rtd_in()
    return RegionSchema(
        id="DMT_OUT",
        factorization=base.factorization,
        rate_vars=base.rate_vars,
        constraints=(
            _con({"R1c'": 1}, GE, mi("U1c", "X2 U2c"), "e20"),
            _con({"R1pb'": 1}, GE, mi("U1pb", "X2 U2c"), "e21"),
            _con(
                {"R2pa": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y2", "U1c U2c X2") + mi("X2 U2c", "U1c"),
                "e23",
            ),
            _con(
                {"R2pa": 1, "R1c": 1, "R1c'": 1},
                LE,
                mi("Y2", "X2 U1c", "U2c") + mi("X2", "U1c"),
                "e24",
            ),
            _con({"R1c": 1, "R1c'": 1}, LE, mi("Y2 X2 U2c", "U1c"), "e25"),
            _con(
                {"R2pa": 1},
                LE,
                mi("Y2", "X2", "U2c U1c") + mi("U1c", "X2", "U2c"),
                "e26",
            ),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y1", "U1pb U1c U2c") + mi("U1pb U1c", "U2c"),
                "e27",
            ),
            _con(
                {"R1c": 1, "R1pb": 1, "R1c'": 1, "R1pb'": 1},
                LE,
                mi("Y1 U2c", "U1pb U1c") + mi("U1pb", "U1c"),
                "e28",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1 U2c U1c", "U1pb"), "e29"),
        ),
        projection=base.projection,
        notes=(
            "binning rows e20/e21 are stated as equalities; encoded GE, equality is WLOG",
            "rhs forms are the deterministic-input variants; the pre-insertion forms "
            "appear in the audit manifest only",
        ),
    )


def _cc() -> RegionSchema:
    return RegionSchema(
        id="CC",
        factorization=chain(
            ("U10",),
            ("U11", "U10"),
            ("V11", "U10 U11"),
            ("V20", "U10 U11 V11"),
            ("V22", "U10 U11 V11 V20"),
            ("X1", "U10 U11 V11 V20 V22"),
            ("X2", "U10 U11 V11 V20 V22 X1"),
        ),
        rate_vars=("R1", "R2"),
        constraints=(
            _con({"R1": 1}, LE, mi("Y1", "V11 U11 V20 U10"), "37"),
            _con(
                {"R2": 1},
                LE,
                mi("Y2", "V20 V22", "U10") - mi("V22 V20", "U11", "U10"),
                "38",
            ),
            _con(
                {"R1": 1, "R2": 1},
                LE,
                mi("Y1", "V11 U11", "V20 U10")
                + mi("Y2", "V22 V20 U10")
                - mi("V22", "U11 V11", "V20 U10"),
                "39",
            ),
            _con(
                {"R1": 1, "R2": 1},
                LE,
                mi("Y1", "V11 U11 V20 U10")
                + mi("Y2", "V22", "V20 U10")
                - mi("V22", "U11 V11", "V20 U10"),
                "40",
            ),
            _con(
                {"R1": 1, "R2": 2},
                LE,
                mi("Y1", "V11 U11 V20", "U10")
                + mi("Y2", "V22", "V20 U10")
                + mi("Y2", "V20 V22 U10")
                - mi("V22", "U11 V11", "V20 U10")
                - mi("V22 V20", "U11", "U10"),
                "41",
            ),
        ),
        projection=(("R1", (("R1", 1),)), ("R2", (("R2", 1),))),
        notes=("indices follow the comparator's own orientation (users swapped)",),
    )


def _ccp() -> RegionSchema:
    return RegionSchema(
        id="CCP",
        factorization=chain(
            ("U2c",),
            ("U1c", "U2c"),
            ("U1pb U2pb", "U2c U1c"),
            ("X2", "U2c"),
            ("X1", "U2c U1c U1pb U2pb X2"),
        ),
        deterministic=(("X2", ("U2c",)),),
        rate_vars=("R1c", "R1pb", "R2c", "R2pb", "R1c'", "R1pb'", "R2pb'"),
        constraints=(
            _con({"R1c'": 1}, GE, MIExpr(), "cp1"),
            _con({"R1pb'": 1, "R2pb'": 1}, GE, mi("U1pb", "U2pb", "U2c U1c"), "cp2"),
            _con({"R2pb": 1, "R2pb'": 1}, LE, mi("Y2", "U2pb", "U2c U1c"), "cp3"),
            _con(
                {"R2pb": 1, "R2pb'": 1, "R1c": 1, "R1c'": 1},
                LE,
                mi("Y2", "U1c U2pb", "U2c"),
                "cp4",
            ),
            _con(
                {"R2pb": 1, "R2pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y2", "U1c U2c U2pb"),
                "cp5",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1pb", "U2c U1c"), "cp6"),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1},
                LE,
                mi("Y1", "U1pb U1c", "U2c"),
                "cp7",
            ),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y1", "U1pb U1c U2c"),
                "cp8",
            ),
        ),
        projection=(
            ("R1", (("R1c", 1), ("R1pb", 1))),
            ("R2", (("R2c", 1), ("R2pb", 1))),
        ),
        pinned=(("R2pa", "0"), ("X2", "U2c")),
        notes=("rewritten over the unified region's variables; labels cp1-cp8 "
               "correspond to the merged comparator's constraint list 37p-41p",),
    )


def _rtd_cc() -> RegionSchema:
    base = _ccp()
    return RegionSchema(
        id="RTD_CC",
        factorization=base.factorization,
        deterministic=base.deterministic,
        rate_vars=base.rate_vars,
        constraints=(
            _con({"R1c'": 1}, GE, MIExpr(), "rc1"),
            _con({"R1c'": 1, "R1pb'": 1}, GE, MIExpr(), "rc2"),
            _con(
                {"R1c'": 1, "R1pb'": 1, "R2pb'": 1},
                GE,
                mi("U1pb", "U2pb", "U2c U1c"),
                "rc3",
            ),
            _con({"R2pb": 1, "R2pb'": 1}, LE, mi("Y2", "U2pb", "U2c U1c"), "rc4"),
            _con(
                {"R2pb": 1, "R2pb'": 1, "R1c": 1, "R1c'": 1},
                LE,
                mi("Y2", "U1c U2pb", "U2c"),
                "rc5",
            ),
            _con(
                {"R2pb": 1, "R2pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y2", "U1c U2c U2pb"),
                "rc6",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1pb", "U2c U1c"), "rc7"),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1},
                LE,
                mi("Y1", "U1pb U1c", "U2c"),
                "rc8",
            ),
            _con(
                {"R1pb": 1, "R1pb'": 1, "R1c": 1, "R1c'": 1, "R2c": 1},
                LE,
                mi("Y1", "U1pb U1c U2c"),
                "rc9",
            ),
        ),
        projection=base.projection,
        pinned=(("R2pa", "0"), ("X2", "U2c")),
    )


def _jiang() -> RegionSchema:
    return RegionSchema(
        id="JIANG",
        factorization=chain(
            ("U1c",),
            ("U2c",),
            ("X2", "U2c"),
            ("U1pb U2pb", "U1c U2c X2"),
            ("X1", "U2c U1c U1pb U2pb"),
        ),
        rate_vars=("R1c", "R1pb", "R2c", "R2pa", "R1pb'", "R2pb'"),
        constraints=(
            _con({"R1pb'": 1}, GE, mi("U1pb", "X2", "U2c U1c"), "j0"),
            _con({"R1pb'": 1, "R2pb'": 1}, GE, mi("U1pb", "U2pb X2", "U2c U1c"), "j1"),
            _con({"R2pa": 1, "R2pb'": 1}, LE, mi("X2 U2pb", "Y2", "U2c U1c"), "j2"),
            _con({"R2c": 1, "R2pa": 1, "R2pb'": 1}, LE, mi("U2c X2 U2pb", "Y2", "U1c"), "j3"),
            _con({"R1c": 1, "R2pa": 1, "R2pb'": 1}, LE, mi("U1c X2 U2pb", "Y2", "U2c"), "j4"),
            _con(
                {"R2c": 1, "R1c": 1, "R2pa": 1, "R2pb'": 1},
                LE,
                mi("U2c X2 U1c U2pb", "Y2"),
                "j5",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("U1pb", "Y1", "U2c U1c"), "j6"),
            _con({"R1c": 1, "R1pb": 1, "R1pb'": 1}, LE, mi("U1c U1pb", "Y1", "U2c"), "j7"),
            _con({"R2c": 1, "R1pb": 1, "R1pb'": 1}, LE, mi("U2c U1pb", "Y1", "U1c"), "j8"),
            _con(
                {"R2c": 1, "R1c": 1, "R1pb": 1, "R1pb'": 1},
                LE,
                mi("U2c U1c U1pb", "Y1"),
                "j9",
            ),
        ),
        projection=(
            ("R1", (("R1c", 1), ("R1pb", 1))),
            ("R2", (("R2c", 1), ("R2pa", 1))),
        ),
        pinned=(("R2pb", "0"),),
        notes=("j5 carries the broadcast auxiliary U2pb alongside U1c per the "
               "variable correspondence",),
    )


def _rtd_jiang() -> RegionSchema:
    base = _jiang()
    return RegionSchema(
        id="RTD_JIANG",
        factorization=base.factorization,
        rate_vars=base.rate_vars,
        constraints=(
            _con({"R1pb'": 1}, GE, mi("U1pb", "X2", "U2c U1c"), "u0"),
            _con({"R1pb'": 1, "R2pb'": 1}, GE, mi("U1pb", "X2 U2pb", "U2c U1c"), "u1"),
            _con(
                {"R2pa": 1, "R2pb'": 1},
                LE,
                mi("Y2", "X2 U2pb", "U2c U1c") + mi("U1c", "X2", "U2c"),
                "u2",
            ),
            _con(
                {"R1c": 1, "R2pa": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U1c X2 U2pb", "U2c"),
                "u3",
            ),
            _con(
                {"R2c": 1, "R1c": 1, "R2pa": 1, "R2pb'": 1},
                LE,
                mi("Y2", "U2pb U1c U2c X2"),
                "u4",
            ),
            _con({"R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1pb", "U2c U1c"), "u5"),
            _con({"R1c": 1, "R1pb": 1, "R1pb'": 1}, LE, mi("Y1", "U1c U1pb", "U2c"), "u6"),
            _con(
                {"R2c": 1, "R1c": 1, "R1pb": 1, "R1pb'": 1},
                LE,
                mi("Y1", "U2c U1c U1pb"),
                "u7",
            ),
        ),
        projection=base.projection,
        pinned=(("R2pb", "0"), ("R1c'", "I(U1c;X2|U2c)")),
        notes=("R1c' is substituted at its pinned value, which vanishes under "
               "this factorization",),
    )


def _maric() -> RegionSchema:
    head = mi("U1a", "Y1", "U1c Q") - mi("U1a", "X2a X2b", "U1c Q")
    return RegionSchema(
        id="MARIC",
        factorization=chain(
            ("Q",),
            ("U1c", "Q"),
            ("U1a", "Q U1c"),
            ("X2a", "Q U1c U1a"),
            ("X2b", "Q U1c U1a X2a"),
            ("X2", "X2a X2b"),
            ("X1", "Q U1c U1a X2a X2b X2"),
        ),
        deterministic=(("X2", ("X2a", "X2b")),),
        default_sizes=(("Q", 1),),
        rate_vars=("R1", "R2"),
        constraints=(
            _con({"R1": 1}, LE, head + mi("X2b U1c", "Y2", "X2a Q"), "m1"),
            _con(
                {"R1": 1},
                LE,
                mi("U1a U1c", "Y1", "Q") - mi("U1a U1c", "X2a X2b", "Q"),
                "m2",
            ),
            _con({"R2": 1}, LE, mi("X2 U1c", "Y2", "Q"), "m3"),
            _con({"R2": 1}, LE, mi("X2", "Y2 U1c", "Q"), "m4"),
            _con({"R1": 1, "R2": 1}, LE, head + mi("X2 U1c", "Y2", "Q"), "m5"),
        ),
        projection=(("R1", (("R1", 1),)), ("R2", (("R2", 1),))),
        notes=("X2 is the deterministic pair (X2a, X2b); the time-sharing "
               "variable Q is degenerate by default",),
    )


MARIC_MERGE_MAP: dict[str, tuple[str, ...]] = {"X2a": (), "X2b": ("X2a", "X2b")}


def maric_merged() -> RegionSchema:
    """The MARIC schema after merging the decoded part of the primary input.

    Substitutes X2b' = (X2a, X2b) and drops X2a (now degenerate), expressed
    over the original variables so both forms evaluate on one joint.
    """
    base = builtin_schema("MARIC")
    constraints = tuple(
        LinearRateConstraint(
            c.coeffs, c.sense, rename_expr(c.rhs, MARIC_MERGE_MAP), c.label + "'"
        )
        for c in base.constraints
    )
    return RegionSchema(
        id="MARIC_MERGED",
        factorization=base.factorization,
        deterministic=base.deterministic,
        default_sizes=base.default_sizes,
        rate_vars=base.rate_vars,
        constraints=constraints,
        projection=base.projection,
        notes=("merged form: the decoded primary part has cardinality 1",),
    )


_BUILDERS = {
    "RTD": _rtd,
    "RTD_IN": _rtd_in,
    "DMT_OUT": _dmt_out,
    "CC": _cc,
    "CCP": _ccp,
    "RTD_CC": _rtd_cc,
    "JIANG": _jiang,
    "RTD_JIANG": _rtd_jiang,
    "MARIC": _maric,
}

SCHEMA_IDS = tuple(_BUILDERS)

_CACHE: dict[str, RegionSchema] = {}


def builtin_schema(schema_id: str) -> RegionSchema:
    """Return the catalog schema for `schema_id` (see SCHEMA_IDS)."""
    try:
        builder = _BUILDERS[schema_id]
    except KeyError:
        raise UnknownSchema(
            f"unknown schema {schema_id!r}; known: {', '.join(SCHEMA_IDS)}"
        ) from None
    if schema_id not in _CACHE:
        _CACHE[schema_id] = builder()
    return _CACHE[schema_id]


# ---------------------------------------------------------------------------
# Audit manifest
# ---------------------------------------------------------------------------

_DMT_OUT_SUPERSEDED = {
    "e23-e29 pre-insertion": [
        "R21' = I(V21;V11,V12|W)",
        "R22' = I(V22;V11,V12|W)",
        "R11 <= I(Y1,V12,V21;V11|W)",
        "R21+R21' <= I(Y1,V11,V12;V21|W)",
        "R11+R21+R21' <= I(Y1,V12;V11,V21|W) + I(V11;V21|W)",
        "R11+R21+R21'+R12 <= I(Y1;V11,V21,V12|W) + I(V11,V12;V21|W)",
        "R22+R22' <= I(Y2,V12,V21;V22|W)",
        "R22+R22'+R21+R21' <= I(Y2,V12;V22,V21|W) + I(V22;V21|W)",
        "R22+R22'+R21+R21'+R12 <= I(Y2;V22,V21,V12|W) + I(V22,V21;V12|W)",
    ]
}


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
        "projection": {
            name: {n: c for n, c in coeffs} for name, coeffs in schema.projection
        },
        "factorization": [
            {"targets": list(f.targets), "given": list(f.given)}
            for f in schema.factorization.factors
        ],
        "constraints": [
            {
                "label": c.label,
                "lhs": {n: v for n, v in c.coeffs},
                "sense": c.sense,
                "rhs": str(c.rhs),
            }
            for c in schema.constraints
        ],
    }
    if schema.deterministic:
        out["deterministic"] = {name: list(parts) for name, parts in schema.deterministic}
    if schema.pinned:
        out["pinned"] = {name: value for name, value in schema.pinned}
    if schema.notes:
        out["notes"] = list(schema.notes)
    if schema.id == "DMT_OUT":
        out["superseded_variants"] = _DMT_OUT_SUPERSEDED
    return out


def catalog_manifest() -> dict:
    return {sid: schema_manifest(builtin_schema(sid)) for sid in SCHEMA_IDS}
