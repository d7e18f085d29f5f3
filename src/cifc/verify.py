"""Executable verification of the region relationships.

Each check samples concrete small-alphabet distributions (through
`cifc.sampling`), evaluates both sides of an algebraic identity (or
projects two regions), and reports the worst deviation together with the
seed that produced it, so every verdict is reproducible.  Strictly
positive claims are tested as >= -tol with the observed gaps logged;
degenerate distributions legitimately achieve zero.  The frontier search
climbs on the sampler's factor blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, random_channel
from .errors import IdentityViolation, InvalidParameter
from .probability import (
    JointDistribution,
    MIExpr,
    MITerm,
    RandomVariableSet,
    evaluate_expr,
    extend_through_channel,
    mi,
    mutual_information,
)
from .polytope import (
    Polytope2D,
    containment_margin,
    membership_oracle,
    oracle_polygon,
    polytope_equal,
    project_or_empty,
    halfplane_violation,
    _distance_to_hull,
    compile_schema,
)
from .regions import (
    DROPPABLE,
    SCHEMA_IDS,
    LinearSystem,
    builtin_schema,
    instantiate,
    maric_merged,
    same_system,
)
from .sampling import SAMPLING_MODES, _FactorState, _mode_for, sample_instance

MI_TOL = 1e-9
REGION_TOL = 1e-7


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    check_id: str
    seeds_run: int = 0
    max_abs_violation: float = 0.0
    worst_seed: int | None = None
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def record(self, seed: int, violation: float, message: str | None = None, tol: float = MI_TOL):
        self.seeds_run += 1
        v = abs(violation)
        if v > self.max_abs_violation:
            self.max_abs_violation = v
            self.worst_seed = seed
        if v > tol:
            self.failures.append(message or f"seed {seed}: |violation| = {v:.3e} > {tol:g}")

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        """Strict-JSON form: an infinite violation (a structural mismatch,
        such as differing vertex sets) is written as null and flagged."""
        structural = math.isinf(self.max_abs_violation)
        return {
            "id": self.check_id,
            "seeds_run": self.seeds_run,
            "max_abs_violation": None if structural else self.max_abs_violation,
            "structural_failure": structural,
            "worst_seed": self.worst_seed,
            "failures": self.failures,
            "details": self.details,
            "ok": self.ok,
        }


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, check_id: str) -> CheckReport:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_json(self) -> dict:
        return {"suite": self.suite, "ok": self.ok, "checks": [c.to_json() for c in self.checks]}

    def raise_on_failure(self) -> None:
        for c in self.checks:
            if not c.ok:
                raise IdentityViolation(
                    f"{self.suite}/{c.check_id}: {c.failures[0]}", seed=c.worst_seed
                )


# ---------------------------------------------------------------------------
# Identity checks (per-distribution algebra)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """lhs evaluated per distribution, expected Zero or a single MI atom."""

    check_id: str
    lhs: MIExpr
    expected: MITerm | None = None  # None means Zero
    expected_zero_under_factorization: bool = False


def _rhs(schema_id: str, label: str) -> MIExpr:
    return builtin_schema(schema_id).constraint(label).rhs


def devroye_identity_checks() -> tuple[IdentityCheck, ...]:
    """Differences between the restricted unified region rows (e1x) and the
    enlarged comparator rows (e2x), after cancelling the binning rates."""
    r, d = "RTD_IN", "DMT_OUT"
    return (
        IdentityCheck(
            "e13_e23", (_rhs(r, "e13") - _rhs(r, "e10")) - (_rhs(d, "e23") - _rhs(d, "e20"))
        ),
        IdentityCheck(
            "e14_e24",
            (_rhs(r, "e14") - _rhs(r, "e10")) - (_rhs(d, "e24") - _rhs(d, "e20")),
            expected=mi("U2c", "U1c", "X2"),
            expected_zero_under_factorization=True,
        ),
        IdentityCheck(
            "e15_e25", (_rhs(r, "e15") - _rhs(r, "e10")) - (_rhs(d, "e25") - _rhs(d, "e20"))
        ),
        IdentityCheck("e16_e26", _rhs(r, "e16") - _rhs(d, "e26")),
        IdentityCheck(
            "e17_e27",
            (_rhs(r, "e17") - _rhs(r, "e12"))
            - (_rhs(d, "e27") - _rhs(d, "e21") - _rhs(d, "e20")),
            expected=mi("U1c", "U1pb"),
        ),
        IdentityCheck(
            "e18_e28",
            (_rhs(r, "e18") - _rhs(r, "e12"))
            - (_rhs(d, "e28") - _rhs(d, "e21") - _rhs(d, "e20")),
        ),
        IdentityCheck(
            "e19_e29",
            (_rhs(r, "e19") - _rhs(r, "e12") + _rhs(r, "e10"))
            - (_rhs(d, "e29") - _rhs(d, "e21")),
        ),
    )


def check_devroye_identities(
    samples: int = 200, seed: int = 0, tol: float = MI_TOL, size: int = 2
) -> SuiteReport:
    """Equation-by-equation comparison of the two enlarged regions.

    Four differences vanish identically, the e14 case equals I(U2c;U1c|X2)
    (zero under the sampling chain), and the e17 case equals I(U1c;U1pb),
    which is nonnegative; its observed gap histogram is reported.
    """
    schema = builtin_schema("RTD_IN")
    checks = devroye_identity_checks()
    report = SuiteReport("devroye")
    table = {c.check_id: CheckReport(c.check_id) for c in checks}
    gaps = []
    for i in range(samples):
        s = seed + i
        d = sample_instance(schema, random_channel(s), s, size=size, mode="free")
        for c in checks:
            value = evaluate_expr(d, c.lhs)
            if c.expected is None:
                table[c.check_id].record(s, value, tol=tol)
                continue
            expected = mutual_information(d, c.expected)
            table[c.check_id].record(s, value - expected, tol=tol)
            if c.expected_zero_under_factorization:
                table[c.check_id].record(s, expected, tol=tol)
            else:
                gaps.append(expected)
                if expected < -tol:
                    table[c.check_id].failures.append(
                        f"seed {s}: gap {expected:.3e} negative"
                    )
    if gaps:
        hist, edges = np.histogram(gaps, bins=8)
        table["e17_e27"].details["gap_histogram"] = {
            "counts": hist.tolist(),
            "edges": [float(e) for e in edges],
            "min": float(min(gaps)),
            "max": float(max(gaps)),
        }
    report.checks.extend(table.values())
    return report


# -- comparator reduction (merged satellite) --------------------------------


def cc_primed_expressions() -> dict[str, MIExpr]:
    """The five merged-comparator bounds 37p-41p, transcribed independently."""
    return {
        "37p": MIExpr.of(mi("Y1", "V11 U11 V20 U10")),
        "38p": MIExpr.of(mi("Y2", "V20 V22", "U10")),
        "39p": mi("Y1", "V11 U11", "V20 U10")
        + mi("Y2", "V22 V20 U10")
        - mi("V22", "U11 V11", "V20 U10"),
        "40p": mi("Y1", "V11 U11 V20 U10")
        + mi("Y2", "V22", "V20 U10")
        - mi("V22", "U11 V11", "V20 U10"),
        "41p": mi("Y1", "V11 U11 V20", "U10")
        + mi("Y2", "V22", "V20 U10")
        + mi("Y2", "V20 V22 U10")
        - mi("V22", "U11 V11", "V20 U10"),
    }


CC_GAP = mi("V22 V20", "U11", "U10")


def check_cc_reduction(
    samples: int = 200,
    seed: int = 0,
    tol: float = MI_TOL,
    size: int = 2,
    proj_instances: int = 100,
) -> SuiteReport:
    """Two sub-checks for the sequential-binning comparator.

    (i) merging the satellite auxiliary leaves bounds 37/39/40 unchanged
    and relaxes 38/41 by exactly I(V22,V20;U11|U10) >= 0; (ii) with the
    variable correspondence and the first binning rate pinned to zero, the
    merged comparator and the specialized unified region are the same
    constraint system, hence project to identical vertex sets.
    """
    cc = builtin_schema("CC")
    primed = cc_primed_expressions()
    report = SuiteReport("cc")
    eq_checks = {lab: CheckReport(f"37..41 vs primed: {lab}") for lab in ("37", "39", "40")}
    gap_checks = {lab: CheckReport(f"{lab}p minus {lab} equals merge gap") for lab in ("38", "41")}
    for i in range(samples):
        s = seed + i
        d = sample_instance(cc, random_channel(s), s, size=size, mode="free")
        gap = mutual_information(d, CC_GAP)
        for lab in ("37", "39", "40"):
            delta = evaluate_expr(d, primed[lab + "p"]) - evaluate_expr(d, cc.constraint(lab).rhs)
            eq_checks[lab].record(s, delta, tol=tol)
        for lab in ("38", "41"):
            delta = evaluate_expr(d, primed[lab + "p"]) - evaluate_expr(d, cc.constraint(lab).rhs)
            gap_checks[lab].record(s, delta - gap, tol=tol)
            if delta < -tol:
                gap_checks[lab].failures.append(f"seed {s}: {lab}p < {lab} by {delta:.3e}")
    report.checks.extend(eq_checks.values())
    report.checks.extend(gap_checks.values())

    ccp = builtin_schema("CCP")
    rtdcc = builtin_schema("RTD_CC")
    structural = CheckReport("pinned systems structurally identical")
    projected = CheckReport("pinned projections vertex-identical")
    nonempty = 0
    for i in range(proj_instances):
        s = seed + 10_000 + i
        d = sample_instance(ccp, random_channel(s), s, size=size, mode=_mode_for(i))
        ia = instantiate(ccp, d).pin({"R1c'": 0.0}).without_vacuous()
        ib = instantiate(rtdcc, d).pin({"R1c'": 0.0}).without_vacuous()
        if same_system(ia, ib, tol):
            structural.record(s, 0.0, tol=tol)
        else:
            structural.record(s, math.inf, f"seed {s}: systems differ", tol=tol)
        pa = project_or_empty(ia)
        pb = project_or_empty(ib)
        if polytope_equal(pa, pb, tol):
            projected.record(s, 0.0, tol=tol)
        else:
            projected.record(s, math.inf, f"seed {s}: vertex sets differ", tol=tol)
        nonempty += not pa.is_empty
    projected.details["nonempty_instances"] = nonempty
    report.checks.append(structural)
    report.checks.append(projected)
    return report


# -- independent-common-messages comparator ----------------------------------


JIANG_PAIRS = (
    ("u0", "j0"),
    ("u1", "j1"),
    ("u2", "j2"),
    ("u3", "j4"),
    ("u4", "j5"),
    ("u5", "j6"),
    ("u6", "j7"),
    ("u7", "j9"),
)


def check_jiang_containment(
    samples: int = 200,
    seed: int = 0,
    tol: float = MI_TOL,
    size: int = 2,
    containment_instances: int = 100,
    tol_region: float = REGION_TOL,
) -> SuiteReport:
    """Paired bounds agree, the pinned binning rate vanishes, and the
    comparator region (two extra bounds) projects inside the unified one."""
    jg = builtin_schema("JIANG")
    uj = builtin_schema("RTD_JIANG")
    report = SuiteReport("jiang")
    paired = CheckReport("eight paired bounds equal")
    pinned = CheckReport("I(U1c;X2|U2c) vanishes under the chain")
    for i in range(samples):
        s = seed + i
        d = sample_instance(jg, random_channel(s), s, size=size, mode="free")
        ij = instantiate(jg, d)
        iu = instantiate(uj, d)
        worst = max(abs(iu.rhs(u) - ij.rhs(j)) for u, j in JIANG_PAIRS)
        paired.record(s, worst, tol=tol)
        pinned.record(s, mutual_information(d, mi("U1c", "X2", "U2c")), tol=tol)
    contain = CheckReport("comparator region inside unified region")
    strict = 0
    extra_active = 0
    for i in range(containment_instances):
        s = seed + 20_000 + i
        d = sample_instance(jg, random_channel(s), s, size=size, mode=_mode_for(i))
        ij = instantiate(jg, d)
        iu = instantiate(uj, d)
        pj = project_or_empty(ij)
        pu = project_or_empty(iu)
        if pj.is_empty:
            contain.record(s, 0.0, tol=tol_region)
            continue
        margin = containment_margin(pu, pj)
        contain.record(s, max(margin, 0.0), tol=tol_region)
        if not pu.is_empty and not polytope_equal(pu, pj, 1e-9):
            strict += 1
            tight = _active_labels(ij, pj, ("j3", "j8"))
            extra_active += bool(tight)
    contain.details["strictly_smaller"] = strict
    contain.details["extra_bound_active_when_strict"] = extra_active
    report.checks.extend([paired, pinned, contain])
    return report


def _active_labels(
    inst: LinearSystem, poly: Polytope2D, labels: Iterable[str]
) -> list[str]:
    """Labels among `labels` whose constraint shapes the projected region.

    A label is reported active when projecting the system again without
    it changes the vertex set.  Used for reporting only.
    """
    out = []
    base = poly
    for label in labels:
        reduced = project_or_empty(inst.drop(label))
        if not polytope_equal(base, reduced, 1e-9):
            out.append(label)
    return out


# -- split-primary-input comparator ------------------------------------------


def check_maric_wlog(
    samples: int = 200, seed: int = 0, tol: float = MI_TOL, size: int = 2
) -> SuiteReport:
    """Merging the decoded part of the split primary input raises the first
    bound by exactly I(X2a;Y2|Q) and leaves the other four unchanged."""
    mar = builtin_schema("MARIC")
    merged = maric_merged()
    report = SuiteReport("maric")
    unchanged = CheckReport("bounds m2..m5 unchanged under merge")
    gap = CheckReport("merged m1 exceeds m1 by I(X2a;Y2|Q)")
    nonneg = CheckReport("merge gap nonnegative")
    for i in range(samples):
        s = seed + i
        ch = random_channel(s, sizes=(2, size * size, 2, 2))
        d = sample_instance(mar, ch, s, size=size, mode="free")
        io = instantiate(mar, d)
        im = instantiate(merged, d)
        worst = max(abs(im.rhs(lab + "'") - io.rhs(lab)) for lab in ("m2", "m3", "m4", "m5"))
        unchanged.record(s, worst, tol=tol)
        diff = im.rhs("m1'") - io.rhs("m1")
        expected = mutual_information(d, mi("X2a", "Y2", "Q"))
        gap.record(s, diff - expected, tol=tol)
        nonneg.record(s, min(diff, 0.0), tol=tol)
    report.checks.extend([unchanged, gap, nonneg])
    return report


# ---------------------------------------------------------------------------
# Sampled region containment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceTable:
    """Variable/rate correspondence between a comparator and the unified region."""

    pairs: tuple[tuple[str, str], ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        sources = [a for a, _ in self.pairs]
        if len(sources) != len(set(sources)):
            raise InvalidParameter("correspondence table maps a name twice")

    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def rename_distribution(self, d: JointDistribution) -> JointDistribution:
        m = self.mapping()
        new_names = tuple(m.get(n, n) for n in d.names)
        if len(set(new_names)) != len(new_names):
            raise InvalidParameter(f"renaming collides: {new_names}")
        return JointDistribution(RandomVariableSet(new_names, d.rvs.sizes), d.prob)


IDENTITY_TABLE = CorrespondenceTable((), notes=("schemas share one variable set",))

# Documented correspondences with the comparator schemes' own symbols.
TABLE_DMT = CorrespondenceTable(
    (
        ("V12", "U2c"),
        ("V21", "U1c"),
        ("V22", "U1pb"),
        ("X1'", "X2"),
        ("X2", "X1"),
    ),
    notes=(
        "comparator indices are user-swapped",
        "R12->R2c, R21->R1c, R22->R1pb, R11->R2pa",
        "L21-R21 -> R1c', L22-R22 -> R1pb'; broadcast auxiliary absent (R2pb'=0)",
    ),
)

TABLE_CC = CorrespondenceTable(
    (
        ("U10", "U2c"),
        ("V20", "U1c"),
        ("V22", "U1pb"),
        ("V11", "U2pb"),
        ("X1", "X2"),
        ("X2", "X1"),
    ),
    notes=(
        "merged satellite: U11 degenerate, R11 = 0, X2 = U2c, R2pa = 0",
        "R10->R2c, R20->R1c, R22->R1pb; binning L20-R20 -> R1c', "
        "L22-R22 -> R1pb', L11-R11 -> R2pb'",
    ),
)

TABLE_JIANG = CorrespondenceTable(
    (
        ("U1", "U2c"),
        ("V1'", "X2"),
        ("U2", "U1c"),
        ("W2", "U1pb"),
        ("W1", "U2pb"),
        ("X0", "X1"),
    ),
    notes=(
        "comparator indices are user-swapped; R12->R2c, R21->R1c, "
        "R11->R2pa, R22->R1pb",
        "R22'->R1pb', R11'->R2pb'; R2pb = 0",
    ),
)

BUILTIN_TABLES = {"DMT": TABLE_DMT, "CC": TABLE_CC, "JIANG": TABLE_JIANG}


def sampled_region_containment(
    outer_id: str,
    inner_id: str,
    table: CorrespondenceTable | None = None,
    channel: Channel | None = None,
    samples: int = 100,
    seed: int = 0,
    tol: float = REGION_TOL,
    size: int = 2,
) -> SuiteReport:
    """Sample inner-schema distributions, map them to the outer schema, and
    assert the projected containment; violations are retried against the
    enumeration oracle before being reported (projection noise filter)."""
    outer = builtin_schema(outer_id)
    inner = builtin_schema(inner_id)
    table = table or IDENTITY_TABLE
    report = SuiteReport(f"containment:{inner_id}->in->{outer_id}")
    check = CheckReport(f"{inner_id} inside {outer_id}")
    worst_margin = -math.inf
    nonempty = 0
    for i in range(samples):
        s = seed + i
        ch = channel or random_channel(s)
        d_inner = sample_instance(inner, ch, s, size=size, mode=_mode_for(i))
        d_outer = table.rename_distribution(d_inner)
        pi = project_or_empty(instantiate(inner, d_inner))
        out_sys = instantiate(outer, d_outer)
        po = project_or_empty(out_sys)
        if pi.is_empty:
            check.record(s, 0.0, tol=tol)
            continue
        nonempty += 1
        margin = containment_margin(po, pi)
        worst_margin = max(worst_margin, margin)
        if margin > tol:
            bad = [
                v
                for v in pi.vertices
                if halfplane_violation(po, v) > tol
                and not membership_oracle(out_sys, v, tol)
            ]
            if bad:
                check.record(
                    s,
                    margin,
                    f"seed {s}: vertex {bad[0]} outside {outer_id} by {margin:.3e}",
                    tol=tol,
                )
            else:
                check.record(s, 0.0, tol=tol)
                check.details["oracle_downgrades"] = check.details.get("oracle_downgrades", 0) + 1
            continue
        check.record(s, max(margin, 0.0), tol=tol)
    check.details["worst_margin"] = worst_margin if math.isfinite(worst_margin) else None
    check.details["nonempty_instances"] = nonempty
    report.checks.append(check)
    return report


# ---------------------------------------------------------------------------
# Projection / oracle equivalence and droppability
# ---------------------------------------------------------------------------


def grid_agreement(
    system: LinearSystem,
    poly: Polytope2D,
    grid: int = 21,
    boundary_tol: float = REGION_TOL,
) -> tuple[int, float]:
    """Compare elimination and oracle membership over a grid on [0, Rmax]^2.

    Returns (#disagreements beyond the boundary tolerance, worst distance).
    Points within `boundary_tol` of either boundary are excused.  The two
    vertex sets are additionally probed against the opposite method, which
    catches boundary defects a coarse grid can step over.
    """
    hull = list(oracle_polygon(system))
    rmax = max(poly.max_coord(), max((max(p) for p in hull), default=0.0), 1e-6) + 0.25
    bad = 0
    worst = 0.0
    probes = [
        (gx, gy)
        for gx in np.linspace(0.0, rmax, grid)
        for gy in np.linspace(0.0, rmax, grid)
    ]
    probes.extend(poly.vertices)
    probes.extend(hull)
    for gx, gy in probes:
        vf = halfplane_violation(poly, (gx, gy)) if not poly.is_empty else math.inf
        vo = _distance_to_hull(hull, (gx, gy))
        in_f = vf <= boundary_tol
        in_o = vo <= boundary_tol
        if in_f != in_o:
            dist = min(abs(vf), abs(vo))
            if dist > boundary_tol:
                bad += 1
                worst = max(worst, dist)
    return bad, worst


def check_fme_oracle(
    schema_ids: Sequence[str] | None = None,
    instances: int = 50,
    seed: int = 0,
    grid: int = 21,
    boundary_tol: float = REGION_TOL,
    size: int = 2,
) -> SuiteReport:
    """Elimination vs exhaustive-enumeration oracle on a membership grid."""
    report = SuiteReport("fme_oracle")
    for sid in schema_ids or SCHEMA_IDS:
        schema = builtin_schema(sid)
        check = CheckReport(f"{sid}: projection agrees with enumeration oracle")
        nonempty = 0
        for i in range(instances):
            s = seed + i
            sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
            ch = random_channel(s, sizes=sizes)
            d = sample_instance(schema, ch, s, size=size, mode=_mode_for(i))
            system = instantiate(schema, d)
            poly = project_or_empty(system)
            nonempty += not poly.is_empty
            bad, worst = grid_agreement(system, poly, grid=grid, boundary_tol=boundary_tol)
            if bad:
                check.record(s, worst, f"seed {s}: {bad} grid disagreements", tol=boundary_tol)
            else:
                check.record(s, 0.0, tol=boundary_tol)
        check.details["nonempty_instances"] = nonempty
        report.checks.append(check)
    return report


def check_droppable(instances: int = 50, seed: int = 0, tol: float = 1e-9) -> SuiteReport:
    """Projections with and without each droppable constraint coincide.

    The three bounds whose removal is polyhedrally neutral under their
    zeroed rates are exercised on structured (nonempty) instances; the
    decode-nothing bound (1i) is exercised at the schema's own sampling
    chain, where pinning its rates to zero conflicts with the positive
    binning bound and the projection is empty either way.
    """
    rtd = builtin_schema("RTD")
    report = SuiteReport("droppable")
    for label, zeroed in DROPPABLE:
        mode = "free" if label == "1i" else "flat_det"
        check = CheckReport(f"drop {label} when {','.join(sorted(zeroed))} = 0")
        empties = 0
        for i in range(instances):
            s = seed + i
            ch = random_channel(s)
            d = sample_instance(rtd, ch, s, mode=mode)
            inst = instantiate(rtd, d).pin({v: 0.0 for v in zeroed})
            pa = project_or_empty(inst)
            pb = project_or_empty(inst.drop(label))
            empties += pa.is_empty
            if polytope_equal(pa, pb, tol):
                check.record(s, 0.0, tol=tol)
            else:
                check.record(s, math.inf, f"seed {s}: projections differ", tol=tol)
        check.details["empty_instances"] = empties
        report.checks.append(check)
    return report


# ---------------------------------------------------------------------------
# Frontier tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierResult:
    channel_id: str
    schema_id: str
    points: tuple[tuple[float, float, float, int], ...]  # (lambda, R1, R2, seed)
    pareto: tuple[tuple[float, float], ...]
    missing: tuple[float, ...] = ()  # lambdas whose search found no feasible point

    def to_csv(self) -> str:
        lines = ["lambda,R1,R2,seed"]
        for lam, r1, r2, s in self.points:
            lines.append(f"{lam:.12g},{r1:.12g},{r2:.12g},{s}")
        return "\n".join(lines) + "\n"


def frontier_points_from_csv(text: str) -> tuple[tuple[float, float, float, int], ...]:
    """Parse the CSV written by FrontierResult.to_csv."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != "lambda,R1,R2,seed":
        raise InvalidParameter("not a frontier CSV (missing header)")
    out = []
    for ln in lines[1:]:
        lam, r1, r2, s = ln.split(",")
        out.append((float(lam), float(r1), float(r2), int(s)))
    return tuple(out)


def trace_frontier(
    schema_id: str,
    channel: Channel,
    budget: int = 2000,
    seed: int = 0,
    lambdas: Sequence[float] | int = 21,
    size: int = 2,
    channel_id: str = "",
) -> FrontierResult:
    """Trace the Pareto frontier over input distributions.

    For each lambda on the grid, maximizes lambda*R1 + (1-lambda)*R2 by
    derivative-free hill climbing on the factor blocks (Dirichlet mixing,
    occasional row sharpening and block restarts), spending up to `budget`
    objective evaluations.  Each evaluation scores a distribution with the
    schema's compiled projection (no linear program).  A lambda whose
    search finds no feasible distribution is listed in `missing`.
    Deterministic in `seed`.
    """
    if budget < 1:
        raise InvalidParameter(f"budget must be at least 1 evaluation, got {budget}")
    if isinstance(lambdas, int):
        lam_grid = np.linspace(0.0, 1.0, max(lambdas, 0))
    else:
        lam_grid = np.asarray(list(lambdas), dtype=float)
    if not lam_grid.size:
        raise InvalidParameter(f"the lambda grid is empty ({lambdas!r})")
    schema = builtin_schema(schema_id)
    compiled = compile_schema(schema)
    points: list[tuple[float, float, float, int]] = []
    missing: list[float] = []
    for k, lam in enumerate(lam_grid):
        lam_seed = seed * 1_000_003 + k
        rng = np.random.default_rng(lam_seed)

        def objective(state_joint):
            b = compiled.rhs(extend_through_channel(state_joint, channel))
            return compiled.support(b, lam, 1.0 - lam)

        # a handful of random starts across sampling modes, then climb the best
        n_starts = max(1, min(6, budget // 40))
        starts = []
        for j in range(n_starts):
            st = _FactorState.of_schema(schema, size, rng, SAMPLING_MODES[j % len(SAMPLING_MODES)])
            starts.append((objective(st.joint()), st))
        evals = len(starts)
        feasible = [(val, st) for val, st in starts if val is not None]
        if feasible:
            best, state = max(feasible, key=lambda t: t[0][2])
        else:
            best, state = starts[0]
        climb_best = best
        stall = 0
        while evals < budget:
            if stall > 300 and budget - evals > 400:
                # stuck basin: restart from a fresh random state
                state = _FactorState.of_schema(
                    schema, size, rng, SAMPLING_MODES[evals % len(SAMPLING_MODES)]
                )
                cand = objective(state.joint())
                evals += 1
                stall = 0
                if cand is not None and (best is None or cand[2] > best[2] + 1e-12):
                    best = cand
                climb_best = cand
                continue
            idx, block = state.propose(rng)
            old = state.blocks[idx]
            state.set_block(idx, block)
            cand = objective(state.joint())
            evals += 1
            if cand is not None and (
                climb_best is None or cand[2] > climb_best[2] + 1e-12
            ):
                climb_best = cand
                stall = 0
                if best is None or cand[2] > best[2] + 1e-12:
                    best = cand
            else:
                state.set_block(idx, old)
                stall += 1
        if best is None:
            missing.append(float(lam))
        else:
            points.append((float(lam), best[0], best[1], lam_seed))
    pareto = _pareto_filter([(r1, r2) for _, r1, r2, _ in points])
    return FrontierResult(channel_id, schema_id, tuple(points), tuple(pareto), tuple(missing))


def _pareto_filter(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for p in points:
        if not any(
            (q[0] >= p[0] + 1e-12 and q[1] >= p[1] - 1e-12)
            or (q[0] >= p[0] - 1e-12 and q[1] >= p[1] + 1e-12)
            for q in points
            if q is not p
        ):
            out.append(p)
    uniq: list[tuple[float, float]] = []
    for p in sorted(out):
        if not uniq or abs(p[0] - uniq[-1][0]) > 1e-12 or abs(p[1] - uniq[-1][1]) > 1e-12:
            uniq.append(p)
    return uniq


# ---------------------------------------------------------------------------
# Suite registry (used by the CLI)
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    samples: int = 200,
    seed: int = 0,
    tol_mi: float = MI_TOL,
    tol_region: float = REGION_TOL,
) -> list[SuiteReport]:
    """Run one named verification suite (or all of them)."""
    if samples < 1:
        raise InvalidParameter(f"samples must be at least 1, got {samples}")
    containment_samples = min(samples, 100)
    if name == "devroye":
        return [check_devroye_identities(samples, seed, tol_mi)]
    if name == "cc":
        return [check_cc_reduction(samples, seed, tol_mi, proj_instances=containment_samples)]
    if name == "jiang":
        return [
            check_jiang_containment(
                samples,
                seed,
                tol_mi,
                containment_instances=containment_samples,
                tol_region=tol_region,
            )
        ]
    if name == "maric":
        return [check_maric_wlog(samples, seed, tol_mi)]
    if name == "containment":
        return [
            sampled_region_containment(
                "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=containment_samples,
                seed=seed, tol=tol_region,
            ),
            sampled_region_containment(
                "RTD_JIANG", "JIANG", samples=containment_samples, seed=seed, tol=tol_region
            ),
            sampled_region_containment(
                "RTD_CC", "CCP", samples=containment_samples, seed=seed, tol=tol_region
            ),
        ]
    if name == "all":
        out: list[SuiteReport] = []
        for sub in ("devroye", "cc", "jiang", "maric", "containment"):
            out.extend(run_suite(sub, samples, seed, tol_mi, tol_region))
        return out
    raise InvalidParameter(
        f"unknown suite {name!r}; choose devroye, cc, jiang, maric, containment, all"
    )


def reports_to_json(reports: list[SuiteReport]) -> dict:
    return {
        "ok": all(r.ok for r in reports),
        "suites": [r.to_json() for r in reports],
    }
