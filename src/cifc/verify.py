"""Executable verification of the region relationships.

Each check samples concrete small-alphabet distributions (through
`cifc.sampling`), evaluates an algebraic identity (or projects two
regions), and reports the worst deviation together with the seed that
produced it, so every verdict is reproducible.  The per-distribution
identities are data: each comparator has a table of `IdentityCheck`s,
MI expressions that must vanish or be nonnegative, and one runner,
`check_identities`, evaluates a table through one compiled map per
distribution.  Strictly positive claims are tested as >= -tol with the
observed gaps logged; degenerate distributions legitimately achieve
zero.  The frontier search climbs on the sampler's factor blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .channel import Channel, random_channel
from .errors import InvalidParameter
from .probability import MIExpr, compile_exprs, extend_through_channel, mi
from .polytope import (
    Polytope2D,
    containment_margin,
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
    RegionSchema,
    builtin_schema,
    check_distribution,
    check_tolerance,
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
        if not v <= tol:  # a NaN violation fails too
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


# ---------------------------------------------------------------------------
# Identity checks (per-distribution algebra)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """A per-distribution claim: every `zero` expression vanishes and every
    `nonneg` expression is nonnegative."""

    check_id: str
    zero: tuple[MIExpr, ...] = ()
    nonneg: tuple[MIExpr, ...] = ()


def check_identities(
    suite: str,
    schema_id: str,
    checks: Sequence[IdentityCheck],
    samples: int = 200,
    seed: int = 0,
    tol: float = MI_TOL,
) -> SuiteReport:
    """Run identity claims on `samples` distributions of one schema.

    All expressions are compiled into one map, and each seed's
    distribution (sampled in "free" mode, factorization and determinism
    checked) is evaluated once.  Each check records one violation per
    seed, max(|zero|..., -nonneg..., 0); a check with `nonneg` expressions
    also reports the histogram of its per-seed smallest gap.
    """
    schema = builtin_schema(schema_id)
    channel_sizes = _channel_sizes(schema)
    compiled = compile_exprs(tuple(e for c in checks for e in c.zero + c.nonneg))
    # the compiled values split into each check's zero part, then its nonneg part
    ends = np.cumsum([n for c in checks for n in (len(c.zero), len(c.nonneg))])[:-1]
    reports = [CheckReport(c.check_id) for c in checks]
    gaps: list[list[float]] = [[] for _ in checks]
    for s in range(seed, seed + samples):
        d = sample_instance(schema, random_channel(s, channel_sizes), s, mode="free")
        check_distribution(schema, d)
        parts = np.split(compiled(d), ends)
        for rep, gap, zero, nonneg in zip(reports, gaps, parts[::2], parts[1::2]):
            violation = np.maximum(np.abs(zero).max(initial=0.0), -nonneg.min(initial=0.0))
            rep.record(s, float(violation), tol=tol)
            if nonneg.size:
                gap.append(float(nonneg.min()))
    for rep, gap in zip(reports, gaps):
        if gap:
            counts, edges = np.histogram(gap, bins=8)
            rep.details["gap_histogram"] = {
                "counts": counts.tolist(), "edges": edges.tolist(), "min": min(gap), "max": max(gap)
            }
    return SuiteReport(suite, reports)


def _channel_sizes(schema: RegionSchema) -> tuple[int, int, int, int]:
    """Channel input sizes that match the schema's X1 and X2 at size 2
    (MARIC's X2 pairs two binary parts); both outputs are binary."""
    rvs = schema.rv_set(2)
    return rvs.size("X1"), rvs.size("X2"), 2, 2


def _rhs(schema_id: str, label: str) -> MIExpr:
    return builtin_schema(schema_id).constraint(label).rhs


def devroye_identity_checks() -> tuple[IdentityCheck, ...]:
    """Differences between the restricted unified region rows (e1x) and the
    enlarged comparator rows (e2x), after cancelling the binning rates.

    Four differences vanish identically, the e14 case equals I(U2c;U1c|X2),
    which vanishes under the sampling chain, and the e17 case equals the
    nonnegative I(U1c;U1pb).
    """
    u, c = partial(_rhs, "RTD_IN"), partial(_rhs, "DMT_OUT")
    e14 = u("e14") - u("e10") - (c("e24") - c("e20"))
    e14_gap = MIExpr.of(mi("U2c", "U1c", "X2"))
    e17 = u("e17") - u("e12") - (c("e27") - c("e21") - c("e20"))
    e17_gap = MIExpr.of(mi("U1c", "U1pb"))
    return (
        IdentityCheck("e13_e23", (u("e13") - u("e10") - (c("e23") - c("e20")),)),
        IdentityCheck("e14_e24", (e14 - e14_gap, e14_gap)),
        IdentityCheck("e15_e25", (u("e15") - u("e10") - (c("e25") - c("e20")),)),
        IdentityCheck("e16_e26", (u("e16") - c("e26"),)),
        IdentityCheck("e17_e27", (e17 - e17_gap,), (e17_gap,)),
        IdentityCheck("e18_e28", (u("e18") - u("e12") - (c("e28") - c("e21") - c("e20")),)),
        IdentityCheck("e19_e29", (u("e19") - u("e12") + u("e10") - (c("e29") - c("e21")),)),
    )


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


def cc_identity_checks() -> tuple[IdentityCheck, ...]:
    """Merging the satellite auxiliary leaves bounds 37/39/40 unchanged and
    relaxes 38/41 by exactly the nonnegative I(V22,V20;U11|U10)."""
    primed = cc_primed_expressions()
    delta = {lab: primed[lab + "p"] - _rhs("CC", lab) for lab in ("37", "38", "39", "40", "41")}
    return tuple(
        IdentityCheck(f"37..41 vs primed: {lab}", (delta[lab],)) for lab in ("37", "39", "40")
    ) + tuple(
        IdentityCheck(f"{lab}p minus {lab} equals merge gap", (delta[lab] - CC_GAP,), (delta[lab],))
        for lab in ("38", "41")
    )


def check_cc_reduction(
    samples: int = 200,
    seed: int = 0,
    tol: float = MI_TOL,
    proj_instances: int = 100,
) -> SuiteReport:
    """Two sub-checks for the sequential-binning comparator.

    (i) the identities of cc_identity_checks; (ii) with the variable
    correspondence and the first binning rate pinned to zero, the merged
    comparator and the specialized unified region are the same constraint
    system, hence project to identical vertex sets.
    """
    report = check_identities("cc", "CC", cc_identity_checks(), samples, seed, tol)
    ccp = builtin_schema("CCP")
    rtdcc = builtin_schema("RTD_CC")
    structural = CheckReport("pinned systems structurally identical")
    projected = CheckReport("pinned projections vertex-identical")
    nonempty = 0
    for i in range(proj_instances):
        s = seed + 10_000 + i
        d = sample_instance(ccp, random_channel(s), s, mode=_mode_for(i))
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


JIANG_EXTRA = ("j3", "j8")  # the comparator's two bounds with no unified counterpart
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


def jiang_identity_checks() -> tuple[IdentityCheck, ...]:
    """The paired bounds agree, and the pinned binning rate vanishes."""
    return (
        IdentityCheck(
            "eight paired bounds equal",
            tuple(_rhs("RTD_JIANG", u) - _rhs("JIANG", j) for u, j in JIANG_PAIRS),
        ),
        IdentityCheck(
            "I(U1c;X2|U2c) vanishes under the chain", (MIExpr.of(mi("U1c", "X2", "U2c")),)
        ),
    )


def check_jiang_containment(
    samples: int = 200,
    seed: int = 0,
    tol: float = MI_TOL,
    containment_instances: int = 100,
    tol_region: float = REGION_TOL,
) -> SuiteReport:
    """The identities of jiang_identity_checks, and the comparator region
    (two extra bounds) projects inside the unified one.  Where it is
    strictly smaller, the report counts the instances whose projection
    names an extra bound on some half-plane."""
    jg = builtin_schema("JIANG")
    uj = builtin_schema("RTD_JIANG")
    report = check_identities("jiang", "JIANG", jiang_identity_checks(), samples, seed, tol)
    contain = CheckReport("comparator region inside unified region")
    strict = 0
    extra_active = 0
    for i in range(containment_instances):
        s = seed + 20_000 + i
        d = sample_instance(jg, random_channel(s), s, mode=_mode_for(i))
        pj = project_or_empty(instantiate(jg, d))
        pu = project_or_empty(instantiate(uj, d))
        contain.record(s, max(containment_margin(pu, pj), 0.0), tol=tol_region)
        if not (pj.is_empty or pu.is_empty or polytope_equal(pu, pj, 1e-9)):
            strict += 1
            extra_active += any(lab in JIANG_EXTRA for h in pj.halfplanes for lab in h.labels)
    contain.details["strictly_smaller"] = strict
    contain.details["extra_bound_active_when_strict"] = extra_active
    report.checks.append(contain)
    return report


# -- split-primary-input comparator ------------------------------------------


def maric_identity_checks() -> tuple[IdentityCheck, ...]:
    """Merging the decoded part of the split primary input raises the first
    bound by exactly I(X2a;Y2|Q) and leaves the other four unchanged."""
    mar = builtin_schema("MARIC")
    merged = maric_merged()

    def delta(lab: str) -> MIExpr:
        return merged.constraint(lab + "'").rhs - mar.constraint(lab).rhs

    return (
        IdentityCheck(
            "bounds m2..m5 unchanged under merge",
            tuple(delta(lab) for lab in ("m2", "m3", "m4", "m5")),
        ),
        IdentityCheck("merged m1 exceeds m1 by I(X2a;Y2|Q)", (delta("m1") - mi("X2a", "Y2", "Q"),)),
        IdentityCheck("merge gap nonnegative", nonneg=(delta("m1"),)),
    )


# ---------------------------------------------------------------------------
# Sampled region containment
# ---------------------------------------------------------------------------


def sampled_region_containment(
    outer_id: str,
    inner_id: str,
    channel: Channel | None = None,
    samples: int = 100,
    seed: int = 0,
    tol: float = REGION_TOL,
) -> SuiteReport:
    """Sample inner-schema distributions, instantiate both schemas on them
    (the two share one variable set), and assert the projected
    containment; a failure names the inner vertex that violates the outer
    region most."""
    outer = builtin_schema(outer_id)
    inner = builtin_schema(inner_id)
    report = SuiteReport(f"containment:{inner_id}->in->{outer_id}")
    check = CheckReport(f"{inner_id} inside {outer_id}")
    worst_margin = -math.inf
    nonempty = 0
    for i in range(samples):
        s = seed + i
        ch = channel or random_channel(s)
        d = sample_instance(inner, ch, s, mode=_mode_for(i))
        pi = project_or_empty(instantiate(inner, d))
        po = project_or_empty(instantiate(outer, d))
        nonempty += not pi.is_empty
        margin = containment_margin(po, pi)
        worst_margin = max(worst_margin, margin)
        message = None
        if margin > tol:
            v = pi.vertices[halfplane_violation(po, pi.vertices).argmax()]
            message = f"seed {s}: vertex {v} outside {outer_id} by {margin:.3e}"
        check.record(s, max(margin, 0.0), message, tol=tol)
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
) -> tuple[int, float]:
    """Compare elimination and oracle membership over a grid on [0, Rmax]^2.

    Returns (#disagreements beyond the boundary tolerance, worst distance).
    Points within REGION_TOL of either boundary are excused.  The two
    vertex sets are additionally probed against the opposite method, which
    catches boundary defects a coarse grid can step over.
    """
    hull = oracle_polygon(system)
    rmax = max(poly.max_coord(), max((max(p) for p in hull), default=0.0), 1e-6) + 0.25
    axis = np.linspace(0.0, rmax, grid)
    probes = np.concatenate((
        np.column_stack((np.repeat(axis, grid), np.tile(axis, grid))),
        np.reshape(poly.vertices, (-1, 2)),
        np.reshape(hull, (-1, 2)),
    ))
    vf = halfplane_violation(poly, probes)
    vo = _distance_to_hull(hull, probes)
    dist = np.minimum(np.abs(vf), np.abs(vo))
    bad = ((vf <= REGION_TOL) != (vo <= REGION_TOL)) & (dist > REGION_TOL)
    return int(bad.sum()), float(dist[bad].max(initial=0.0))


def check_fme_oracle(
    schema_ids: Sequence[str] | None = None,
    instances: int = 50,
    seed: int = 0,
    grid: int = 21,
) -> SuiteReport:
    """Elimination vs exhaustive-enumeration oracle on a membership grid."""
    report = SuiteReport("fme_oracle")
    for sid in schema_ids or SCHEMA_IDS:
        schema = builtin_schema(sid)
        channel_sizes = _channel_sizes(schema)
        check = CheckReport(f"{sid}: projection agrees with enumeration oracle")
        nonempty = 0
        for i in range(instances):
            s = seed + i
            d = sample_instance(schema, random_channel(s, channel_sizes), s, mode=_mode_for(i))
            system = instantiate(schema, d)
            poly = project_or_empty(system)
            nonempty += not poly.is_empty
            bad, worst = grid_agreement(system, poly, grid=grid)
            if bad:
                check.record(s, worst, f"seed {s}: {bad} grid disagreements", tol=REGION_TOL)
            else:
                check.record(s, 0.0, tol=REGION_TOL)
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


# name -> runner(samples, projected, seed, tol_mi, tol_region), where
# `projected` caps the instances each projecting check draws; "all" runs
# every suite in this order
SUITES = {
    "devroye": lambda n, k, seed, tol_mi, tol_region: [
        check_identities("devroye", "RTD_IN", devroye_identity_checks(), n, seed, tol_mi)],
    "cc": lambda n, k, seed, tol_mi, tol_region: [
        check_cc_reduction(n, seed, tol_mi, proj_instances=k)],
    "jiang": lambda n, k, seed, tol_mi, tol_region: [
        check_jiang_containment(n, seed, tol_mi, containment_instances=k, tol_region=tol_region)],
    "maric": lambda n, k, seed, tol_mi, tol_region: [
        check_identities("maric", "MARIC", maric_identity_checks(), n, seed, tol_mi)],
    "containment": lambda n, k, seed, tol_mi, tol_region: [
        sampled_region_containment(
            "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=k, seed=seed, tol=tol_region),
        sampled_region_containment("RTD_JIANG", "JIANG", samples=k, seed=seed, tol=tol_region),
        sampled_region_containment("RTD_CC", "CCP", samples=k, seed=seed, tol=tol_region),
    ],
}
SUITE_NAMES = (*SUITES, "all")


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
    check_tolerance("tol_mi", tol_mi)
    check_tolerance("tol_region", tol_region)
    if name not in SUITE_NAMES:
        raise InvalidParameter(f"unknown suite {name!r}; choose {', '.join(SUITE_NAMES)}")
    runners = SUITES.values() if name == "all" else (SUITES[name],)
    return [r for run in runners for r in run(samples, min(samples, 100), seed, tol_mi, tol_region)]


def reports_to_json(reports: list[SuiteReport]) -> dict:
    return {
        "ok": all(r.ok for r in reports),
        "suites": [r.to_json() for r in reports],
    }
