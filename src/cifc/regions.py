"""Catalog of achievable rate regions as declarative schemas.

Each schema lists rate variables (message and binning roles), linear
constraints whose right-hand sides are mutual-information expressions,
the projection onto (R1, R2), and the input-distribution factorization
the region is defined over.  Constraint labels follow the equation
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
depend on the distribution.  `le_structure` writes the structure in LE
normal form once (a GE row enters negated), and `instantiate` returns the
schema at one distribution as a `LinearSystem` of labeled LE rows, the
form that projection, the enumeration oracle and `compile_schema` read.
`check_distribution` tests a distribution against the schema's
factorization and determinism requirements; `instantiate` calls it, and
the identity suites of `cifc.verify` call it once per sampled
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import (
    FactorizationViolation,
    InvalidParameter,
    NotApplicable,
    UnknownSchema,
    UnknownVariable,
)
from .probability import (
    FactorizationSpec,
    JointDistribution,
    MIExpr,
    RandomVariableSet,
    chain,
    compile_exprs,
    entropy,
    mi,
    rename_expr,
    verify_factorization,
)

MESSAGE = "message"
BINNING = "binning"

LE = "LE"
GE = "GE"


@dataclass(frozen=True)
class RateVariable:
    """A nonnegative rate: either a message split or a binning rate."""

    name: str
    role: str

    def __post_init__(self):
        if self.role not in (MESSAGE, BINNING):
            raise ValueError(f"role must be message|binning, got {self.role!r}")


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
    """Declarative description of one rate region."""

    id: str
    variables: tuple[str, ...]  # auxiliaries and channel inputs (outputs excluded)
    factorization: FactorizationSpec
    rate_vars: tuple[RateVariable, ...]
    constraints: tuple[LinearRateConstraint, ...]
    projection: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]  # R1/R2 -> coeffs
    outputs: tuple[str, str] = ("Y1", "Y2")
    deterministic: tuple[tuple[str, tuple[str, ...]], ...] = ()
    default_sizes: tuple[tuple[str, int], ...] = ()
    pinned: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        declared = set(self.variables) | set(self.outputs)
        rate_names = {rv.name for rv in self.rate_vars}
        labels = [c.label for c in self.constraints]
        if len(labels) != len(set(labels)):
            raise ValueError(f"{self.id}: duplicate constraint labels")
        for c in self.constraints:
            bad = c.rhs.variables() - declared
            if bad:
                raise ValueError(f"{self.id}/{c.label}: undeclared variables {sorted(bad)}")
            bad_rates = {n for n, _ in c.coeffs} - rate_names
            if bad_rates:
                raise ValueError(f"{self.id}/{c.label}: unknown rate vars {sorted(bad_rates)}")
        proj_cover: set[str] = set()
        for _, coeffs in self.projection:
            proj_cover.update(n for n, _ in coeffs)
        messages = {rv.name for rv in self.rate_vars if rv.role == MESSAGE}
        if proj_cover != messages:
            raise ValueError(
                f"{self.id}: projection covers {sorted(proj_cover)}, "
                f"message variables are {sorted(messages)}"
            )

    # -- lookup helpers ----------------------------------------------------

    def constraint(self, label: str) -> LinearRateConstraint:
        for c in self.constraints:
            if c.label == label:
                return c
        raise KeyError(f"{self.id}: no constraint labeled {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.constraints)

    def rate_names(self) -> tuple[str, ...]:
        return tuple(rv.name for rv in self.rate_vars)

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
        return RandomVariableSet(tuple(self.variables), tuple(sizes[n] for n in self.variables))


# ---------------------------------------------------------------------------
# Numeric rate systems: a schema instantiated at a joint distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """Integer-coefficient inequality coeffs . x <= rhs, named by its source label."""

    coeffs: tuple[int, ...]
    rhs: float
    label: str = ""


@dataclass(frozen=True)
class LinearSystem:
    """LE-normal numeric rate system {x >= 0 : rows} with the projection
    directions R1 = r1 . x and R2 = r2 . x."""

    variables: tuple[str, ...]
    rows: tuple[Row, ...]
    r1: tuple[int, ...]
    r2: tuple[int, ...]

    def rhs(self, label: str) -> float:
        for r in self.rows:
            if r.label == label:
                return r.rhs
        raise KeyError(f"no constraint {label!r}")

    def drop(self, *labels: str) -> "LinearSystem":
        return replace(self, rows=tuple(r for r in self.rows if r.label not in labels))

    def pin(self, values: Mapping[str, float]) -> "LinearSystem":
        """Fix some rate variables to constants and eliminate them."""
        keep = [i for i, n in enumerate(self.variables) if n not in values]
        fixed = [(i, values[n]) for i, n in enumerate(self.variables) if n in values]
        rows = tuple(Row(tuple(r.coeffs[i] for i in keep),
                         r.rhs - sum(r.coeffs[i] * v for i, v in fixed), r.label)
                     for r in self.rows)
        return LinearSystem(tuple(self.variables[i] for i in keep), rows,
                            tuple(self.r1[i] for i in keep), tuple(self.r2[i] for i in keep))

    def without_vacuous(self, tol: float = 1e-9) -> "LinearSystem":
        """Drop rows implied by rate nonnegativity alone.

        A row with no positive coefficient and rhs >= -tol carries no
        content.  One with a violated bound is kept, so a variable-free
        row with rhs < -tol still makes the region project empty.
        """
        return replace(self, rows=tuple(
            r for r in self.rows if any(c > 0 for c in r.coeffs) or not r.rhs >= -tol
        ))


@lru_cache(maxsize=64)
def le_structure(schema: RegionSchema):
    """The schema's fixed LE-normal structure: (rows, r1, r2, sign).

    `rows` are the integer coefficient rows over schema.rate_names(), r1
    and r2 the projection vectors, and sign (+1 for LE, -1 for GE) turns
    each constraint's MI value into its LE-normal rhs.  This is the one
    place a constraint's sense becomes a sign.
    """
    names = schema.rate_names()
    signs = tuple(1 if c.sense == LE else -1 for c in schema.constraints)
    rows = tuple(tuple(s * c.coeff(n) for n in names) for s, c in zip(signs, schema.constraints))
    r1, r2 = (tuple(schema.projection_coeffs(w).get(n, 0) for n in names) for w in ("R1", "R2"))
    sign = np.array(signs, dtype=float)
    sign.setflags(write=False)
    return rows, r1, r2, sign


def check_tolerance(name: str, tol: float) -> None:
    """InvalidParameter unless `tol` is finite and >= 0 (a NaN compares
    false and would let every check pass)."""
    if not 0.0 <= tol < math.inf:
        raise InvalidParameter(f"{name} must be finite and >= 0, got {tol!r}")


def check_distribution(schema: RegionSchema, d: JointDistribution, tol: float = 1e-9) -> None:
    """Require `d` to satisfy the schema's factorization (conditional
    independencies) and determinism requirements at tolerance `tol`."""
    check_tolerance("tol", tol)
    verify_factorization(d, schema.factorization, tol)
    for name, parts in schema.deterministic:
        h = entropy(d, name, parts)
        if h > tol:
            raise FactorizationViolation(
                f"{schema.id}: H({name}|{','.join(parts)}) = {h:.3e} > {tol:g}"
            )


def instantiate(
    schema: RegionSchema,
    d: JointDistribution,
    tol: float = 1e-9,
) -> LinearSystem:
    """The schema's LE-normal rate system at `d` (already channel-extended).

    Each rhs is sign * value of its constraint's MI expression, through the
    same compiled map as compile_schema.  `d` must pass check_distribution
    at tolerance `tol`.
    """
    missing = (set(schema.variables) | set(schema.outputs)) - set(d.names)
    if missing:
        raise UnknownVariable(f"distribution lacks {sorted(missing)}")
    check_distribution(schema, d, tol)
    rows, r1, r2, sign = le_structure(schema)
    b = sign * compile_exprs(tuple(c.rhs for c in schema.constraints))(d)
    return LinearSystem(
        schema.rate_names(),
        tuple(Row(c, v, lab) for c, v, lab in zip(rows, b.tolist(), schema.labels())),
        r1,
        r2,
    )


def same_system(a: LinearSystem, b: LinearSystem, tol: float = 1e-9) -> bool:
    """Structural equality: the same multiset of LE-normal rows, each
    matched on its named coefficients, with rhs equal within tol."""
    if set(a.variables) != set(b.variables):
        return False

    def keys(s: LinearSystem):
        return sorted(
            (tuple(sorted((n, c) for n, c in zip(s.variables, r.coeffs) if c)), r.rhs)
            for r in s.rows
        )

    ka, kb = keys(a), keys(b)
    return len(ka) == len(kb) and all(
        ca == cb and abs(ra - rb) <= tol for (ca, ra), (cb, rb) in zip(ka, kb)
    )


# ---------------------------------------------------------------------------
# Schema transcriptions
# ---------------------------------------------------------------------------


def _rtd() -> RegionSchema:
    a = mi("U1c", "X2", "U2c")
    return RegionSchema(
        id="RTD",
        variables=("U1c", "U2c", "U1pb", "U2pb", "X1", "X2"),
        factorization=chain(("U1c U2c U1pb U2pb",), ("X1 X2", "U1c U2c U1pb U2pb")),
        rate_vars=(
            RateVariable("R1c", MESSAGE),
            RateVariable("R1pb", MESSAGE),
            RateVariable("R2c", MESSAGE),
            RateVariable("R2pa", MESSAGE),
            RateVariable("R2pb", MESSAGE),
            RateVariable("R1c'", BINNING),
            RateVariable("R1pb'", BINNING),
            RateVariable("R2pb'", BINNING),
        ),
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
    )


def _rtd_in() -> RegionSchema:
    a = mi("U1c", "X2", "U2c")
    return RegionSchema(
        id="RTD_IN",
        variables=("U2c", "X2", "U1c", "U1pb", "X1"),
        factorization=chain(("U2c X2",), ("U1c", "X2"), ("U1pb", "X2"), ("X1", "X2 U1c U1pb")),
        rate_vars=(
            RateVariable("R1c", MESSAGE),
            RateVariable("R1pb", MESSAGE),
            RateVariable("R2c", MESSAGE),
            RateVariable("R2pa", MESSAGE),
            RateVariable("R1c'", BINNING),
            RateVariable("R1pb'", BINNING),
        ),
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
        variables=base.variables,
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
        variables=("U10", "U11", "V11", "V20", "V22", "X1", "X2"),
        factorization=chain(
            ("U10",),
            ("U11", "U10"),
            ("V11", "U10 U11"),
            ("V20", "U10 U11 V11"),
            ("V22", "U10 U11 V11 V20"),
            ("X1", "U10 U11 V11 V20 V22"),
            ("X2", "U10 U11 V11 V20 V22 X1"),
        ),
        rate_vars=(RateVariable("R1", MESSAGE), RateVariable("R2", MESSAGE)),
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
        variables=("U2c", "U1c", "U1pb", "U2pb", "X2", "X1"),
        factorization=chain(
            ("U2c",),
            ("U1c", "U2c"),
            ("U1pb U2pb", "U2c U1c"),
            ("X2", "U2c"),
            ("X1", "U2c U1c U1pb U2pb X2"),
        ),
        deterministic=(("X2", ("U2c",)),),
        rate_vars=(
            RateVariable("R1c", MESSAGE),
            RateVariable("R1pb", MESSAGE),
            RateVariable("R2c", MESSAGE),
            RateVariable("R2pb", MESSAGE),
            RateVariable("R1c'", BINNING),
            RateVariable("R1pb'", BINNING),
            RateVariable("R2pb'", BINNING),
        ),
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
        variables=base.variables,
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
        variables=("U1c", "U2c", "X2", "U1pb", "U2pb", "X1"),
        factorization=chain(
            ("U1c",),
            ("U2c",),
            ("X2", "U2c"),
            ("U1pb U2pb", "U1c U2c X2"),
            ("X1", "U2c U1c U1pb U2pb"),
        ),
        rate_vars=(
            RateVariable("R1c", MESSAGE),
            RateVariable("R1pb", MESSAGE),
            RateVariable("R2c", MESSAGE),
            RateVariable("R2pa", MESSAGE),
            RateVariable("R1pb'", BINNING),
            RateVariable("R2pb'", BINNING),
        ),
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
        variables=base.variables,
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
        variables=("Q", "U1c", "U1a", "X2a", "X2b", "X2", "X1"),
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
        rate_vars=(RateVariable("R1", MESSAGE), RateVariable("R2", MESSAGE)),
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
        variables=base.variables,
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
# Remark: constraints droppable when certain rates vanish
# ---------------------------------------------------------------------------

DROPPABLE = (
    ("1d", frozenset({"R2c", "R2pa", "R2pb", "R2pb'"})),
    ("1e", frozenset({"R2pa", "R2pb", "R2pb'"})),
    ("1g", frozenset({"R2pb", "R2pb'"})),
    ("1i", frozenset({"R1c", "R1c'", "R1pb", "R1pb'"})),
)


def droppable_constraints(schema: RegionSchema, zeroed: set[str]) -> tuple[int, ...]:
    """Indices of constraints droppable when all rates in `zeroed` are zero.

    Defined for the RTD schema only; raises NotApplicable otherwise.
    """
    if schema.id != "RTD":
        raise NotApplicable(f"droppable_constraints applies to RTD, not {schema.id}")
    labels = schema.labels()
    out = []
    for label, required in DROPPABLE:
        if required <= set(zeroed):
            out.append(labels.index(label))
    return tuple(out)


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
    out = {
        "id": schema.id,
        "variables": list(schema.variables),
        "outputs": list(schema.outputs),
        "rate_variables": [{"name": rv.name, "role": rv.role} for rv in schema.rate_vars],
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
