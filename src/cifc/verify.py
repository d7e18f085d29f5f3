"""Executable verification of the region relationships.

Each check samples concrete small-alphabet distributions (through
`cifc.sampling`), evaluates an algebraic identity (or projects two
regions), and reports the worst deviation together with the seed that
produced it, so every verdict is reproducible.  The draws are made seed
by seed, each seed's random channel once for every check, and every
stage after them takes up to BATCH samples as one batch, which gives bit
for bit what each sample gives alone: two schemas on one batch share one
entropy pass, a batch's regions are projected together (cc's once per
kept-row mask) and compared in pairs by one call per batch; only the
hulls, the oracle and the report go one by one.  The per-distribution
identities are data: each comparator has a table of `IdentityCheck`s, MI
expressions that must vanish or be nonnegative, and one runner,
`check_identities`, evaluates a table through one compiled map, led by
the table and checked against the schema's requirements.  Strictly
positive claims are tested as >= -MI_TOL with the observed gaps logged;
degenerate distributions legitimately achieve zero.  Each comparator's
projected region is checked against its unified counterpart once, by
`sampled_region_containment` in the containment suite.  The tolerances
are fixed: MI_TOL for every identity and zero check, REGION_TOL for
every containment and oracle comparison.  The frontier is
`cifc.sampling.climb` with a support objective: one climb per lambda on
its own generator, going in speculative rounds, each round's rows (the
next few moves of every lambda, as if each were rejected) scored as one
batched evaluation through the schema's one checked rhs map.  A row is
scored as it is alone and a lambda keeps only moves up to its first
improving one, so the output is identical to climbing each lambda alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Iterable, Sequence

import numpy as np

from . import probability
from .channel import Channel, _random_channel, check_integer, random_channel
from .errors import InvalidParameter, Unbounded
from .probability import MI_TOL, MIExpr, compile_exprs, extend_through_channel, mi
from .polytope import (
    Polytope2D,
    compile_projection,
    containment_margins,
    oracle_polygon,
    polytopes_equal,
    project_or_empty,
    halfplane_violation,
    _distance_to_hull,
)
from .regions import (
    SCHEMA_IDS,
    LinearSystem,
    RegionSchema,
    builtin_schema,
    compile_schema,
    instantiate,
    instantiate_all,
    parse_expr,
    same_system,
)
from .sampling import _joints, _mode_for, check_climbs, climb, sample_instances

REGION_TOL = 1e-7
BATCH = 100  # samples per batch: a check's memory does not grow with its samples


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
        if not v <= tol:  # a NaN violation fails too
            # only a failure names a seed, so roundoff never moves worst_seed
            if self.worst_seed is None or v > self.max_abs_violation:
                self.worst_seed = seed
            self.failures.append(message or f"seed {seed}: |violation| = {v:.3e} > {tol:g}")
        if v > self.max_abs_violation:
            self.max_abs_violation = v

    def record_match(self, seed: int, match: bool, mismatch: str):
        """Record a structural comparison: 0 if it matched, else an infinite
        violation with the message "seed {seed}: {mismatch}"."""
        self.record(seed, 0.0 if match else math.inf, f"seed {seed}: {mismatch}")

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
) -> SuiteReport:
    """Run identity claims on `samples` distributions of one schema.

    All expressions are compiled into one map with the schema's
    requirements as its checks, so the seeds' distributions, sampled in
    "free" mode, are checked and evaluated in one entropy pass.  Each
    check records one violation per seed, max(|zero|..., -nonneg..., 0),
    against MI_TOL; a check with `nonneg` expressions also reports the
    histogram of its per-seed smallest gap.
    """
    schema = builtin_schema(schema_id)
    compiled = compile_exprs(tuple(e for c in checks for e in c.zero + c.nonneg),
                             schema.requirements)
    # the compiled values split into each check's zero part, then its nonneg part
    ends = np.cumsum([n for c in checks for n in (len(c.zero), len(c.nonneg))])[:-1]
    values = [compiled(d) for _, d in _batches(schema, seed, samples, mode="free")]
    seeds = range(seed, seed + samples)  # both checked by _batches
    parts = np.split(np.concatenate(values), ends, axis=1)
    reports = []
    for c, zero, nonneg in zip(checks, parts[::2], parts[1::2]):
        rep = CheckReport(c.check_id)
        violation = np.maximum(np.abs(zero).max(axis=1, initial=0.0),
                               -nonneg.min(axis=1, initial=0.0))
        for s, v in zip(seeds, violation.tolist()):
            rep.record(s, v)
        if nonneg.size:
            gap = nonneg.min(axis=1)
            counts, edges = np.histogram(gap, bins=8)
            rep.details["gap_histogram"] = {"counts": counts.tolist(), "edges": edges.tolist(),
                                            "min": float(gap.min()), "max": float(gap.max())}
        reports.append(rep)
    return SuiteReport(suite, reports)


def _batches(schema: RegionSchema, seed: int, samples: int, channel: Channel | None = None,
             mode: str | None = None):
    """The schema's instances at the `samples` seeds from `seed` on, BATCH at
    a time, as (seeds, batch) pairs: the i-th in `mode` (by default
    _mode_for(i)), through `channel` or its seed's random channel.  Every
    check draws here, so none passes on zero samples: samples below 1, or a
    seed or count that is not an integer, is InvalidParameter before a draw."""
    samples, seed = check_integer(samples, "samples", 1), check_integer(seed, "seed")
    seeds = range(seed, seed + samples)
    sizes = _channel_sizes(schema)
    for at in range(0, len(seeds), BATCH):
        chunk = seeds[at:at + BATCH]
        channels = channel or [_random_channel(s, *sizes) for s in chunk]
        modes = [mode or _mode_for(i) for i in range(at, at + len(chunk))]
        yield chunk, sample_instances(schema, channels, chunk, modes)


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


# the five merged-comparator bounds, transcribed apart from the CC catalog block
_CC_PRIMED = """\
37p: I(Y1;U10,U11,V11,V20)
38p: I(Y2;V20,V22|U10)
39p: I(Y1;U11,V11|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
40p: I(Y1;U10,U11,V11,V20) + I(Y2;V22|U10,V20) - I(V22;U11,V11|U10,V20)
41p: I(Y1;U11,V11,V20|U10) + I(Y2;V22|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
"""

# MARIC's five bounds with the decoded part X2a merged into X2b' = (X2a, X2b),
# written over the original variables so that both forms evaluate on one joint
_MARIC_MERGED = """\
m1': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2a,X2b;Y2|Q)
m2': I(U1a,U1c;Y1|Q) - I(U1a,U1c;X2a,X2b|Q)
m3': I(U1c,X2;Y2|Q)
m4': I(X2;U1c,Y2|Q)
m5': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2;Y2|Q)
"""


def _bounds(table: str) -> dict[str, MIExpr]:
    """A table of `label: rhs` lines, each rhs read by parse_expr."""
    return {label: parse_expr(rhs) for label, rhs in
            (line.split(": ") for line in table.splitlines())}


def cc_primed_expressions() -> dict[str, MIExpr]:
    """The five merged-comparator bounds 37p-41p, transcribed independently."""
    return _bounds(_CC_PRIMED)


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
    proj_instances: int = 100,
) -> SuiteReport:
    """Two sub-checks for the sequential-binning comparator.

    (i) the identities of cc_identity_checks; (ii) with the variable
    correspondence and the first binning rate pinned to zero, the merged
    comparator and the specialized unified region are the same constraint
    system, hence project to identical vertex sets.
    """
    report = check_identities("cc", "CC", cc_identity_checks(), samples, seed)
    ccp = builtin_schema("CCP")
    rtdcc = builtin_schema("RTD_CC")
    structural = CheckReport("pinned systems structurally identical")
    projected = CheckReport("pinned projections vertex-identical")
    nonempty = 0
    for seeds, d in _batches(ccp, seed + 10_000, proj_instances):
        pinned = [system.pin({"R1c'": 0.0}) for system in instantiate_all((ccp, rtdcc), d)]
        (sa, pa), (sb, pb) = (zip(*_nonvacuous_regions(batch)) for batch in pinned)
        for s, ia, ib, region, same in zip(seeds, sa, sb, pa, polytopes_equal(pa, pb)):
            structural.record_match(s, same_system(ia, ib), "systems differ")
            projected.record_match(s, same, "vertex sets differ")
            nonempty += not region.is_empty
    projected.details["nonempty_instances"] = nonempty
    report.checks.append(structural)
    report.checks.append(projected)
    return report


def _nonvacuous_regions(batch: LinearSystem) -> list[tuple[LinearSystem, Polytope2D]]:
    """Each system of the batch without its vacuous rows, and its region:
    the systems that keep the same rows are projected as one batch."""
    masks = batch.nonvacuous()
    out: list = [None] * len(masks)
    for mask in {m.tobytes(): m for m in masks}.values():
        ks = np.flatnonzero((masks == mask).all(axis=1))
        group = batch[ks].drop(*(lab for lab, kept in zip(batch.labels, mask) if not kept))
        for j, region in enumerate(project_or_empty(group)):
            out[ks[j]] = group[j], region
    return out


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


# -- split-primary-input comparator ------------------------------------------


def maric_identity_checks() -> tuple[IdentityCheck, ...]:
    """Merging the decoded part of the split primary input raises the first
    bound by exactly I(X2a;Y2|Q) and leaves the other four unchanged."""
    mar, merged = builtin_schema("MARIC"), _bounds(_MARIC_MERGED)

    def delta(lab: str) -> MIExpr:
        return merged[lab + "'"] - mar.constraint(lab).rhs

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
) -> SuiteReport:
    """Sample inner-schema distributions, instantiate both schemas on them
    (the two share one variable set), and assert the projected
    containment; a failure names the inner vertex that violates the outer
    region most.  The details count the nonempty inner regions and, of
    those, the ones whose vertex set differs from the outer one at 1e-9
    (`strictly_smaller`)."""
    outer = builtin_schema(outer_id)
    inner = builtin_schema(inner_id)
    report = SuiteReport(f"containment:{inner_id}->in->{outer_id}")
    check = CheckReport(f"{inner_id} inside {outer_id}")
    worst_margin = -math.inf
    nonempty = strict = 0
    for seeds, d in _batches(inner, seed, samples, channel):
        inners, outers = map(project_or_empty, instantiate_all((inner, outer), d))
        margins, equal = containment_margins(outers, inners), polytopes_equal(outers, inners, 1e-9)
        for s, pi, po, margin, same in zip(seeds, inners, outers, margins, equal):
            nonempty += not pi.is_empty
            strict += not (pi.is_empty or same)
            worst_margin = max(worst_margin, margin)
            message = None
            if margin > REGION_TOL:
                v = pi.vertices[halfplane_violation(po, pi.vertices).argmax()]
                message = f"seed {s}: vertex {v} outside {outer_id} by {margin:.3e}"
            check.record(s, max(margin, 0.0), message, tol=REGION_TOL)
    check.details["worst_margin"] = worst_margin if math.isfinite(worst_margin) else None
    check.details["nonempty_instances"] = nonempty
    check.details["strictly_smaller"] = strict
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
        check = CheckReport(f"{sid}: projection agrees with enumeration oracle")
        nonempty = 0
        for seeds, d in _batches(schema, seed, instances):
            systems = instantiate(schema, d)
            for k, (s, poly) in enumerate(zip(seeds, project_or_empty(systems))):
                bad, worst = grid_agreement(systems[k], poly, grid=grid)
                if bad:
                    check.record(s, worst, f"seed {s}: {bad} grid disagreements", tol=REGION_TOL)
                else:
                    check.record(s, 0.0, tol=REGION_TOL)
                nonempty += not poly.is_empty
        check.details["nonempty_instances"] = nonempty
        report.checks.append(check)
    return report


# ---------------------------------------------------------------------------
# Frontier tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierResult:
    points: tuple[tuple[float, float, float, int], ...]  # (lambda, R1, R2, seed)
    missing: tuple[float, ...] = ()  # lambdas whose search found no feasible point

    @property
    def pareto(self) -> tuple[tuple[float, float], ...]:
        """The points' nondominated (R1, R2), sorted, near-duplicates merged."""
        return tuple(_pareto_filter([(r1, r2) for _, r1, r2, _ in self.points]))

    def to_csv(self) -> str:
        lines = ["lambda,R1,R2,seed"]
        for lam, r1, r2, s in self.points:
            lines.append(f"{lam:.12g},{r1:.12g},{r2:.12g},{s}")
        return "\n".join(lines) + "\n"


def trace_frontier(
    schema_id: str,
    channel: Channel,
    budget: int = 2000,
    seed: int = 0,
    lambdas: Iterable[float] | int = 21,
) -> FrontierResult:
    """Trace the Pareto frontier over input distributions.

    `lambdas` is the grid: any integer size (numpy's too), spaced evenly on
    [0, 1], or an iterable of weights in [0, 1].  The budget, seed and size
    pass `cifc.channel.check_integer`, the budget and size at least 1.
    For each lambda on the grid, maximizes lambda*R1 + (1-lambda)*R2 by
    `cifc.sampling.climb` on the factor blocks, on its own generator,
    spending up to `budget` objective evaluations.  The objective checks
    and scores a round's rows as one batch through the compiled rhs map
    and projection, chunked under the channel extension's cap, so the
    result is identical to climbing each lambda alone.  A grid whose
    climbs would draw more than MAX_MARGINAL_LABELS numbers is refused
    before it is made.
    A lambda whose search finds no feasible point is listed in `missing`.
    Deterministic in `seed`.  Raises Unbounded up front for a schema whose
    projection is unbounded.
    """
    budget, seed = check_integer(budget, "budget", 1), check_integer(seed, "seed")
    lam_grid = np.asarray(list(lambdas), dtype=float) if isinstance(lambdas, Iterable) else None
    count = check_integer(lambdas if lam_grid is None else lam_grid.size, "the lambda grid size", 1)
    outside = [] if lam_grid is None else lam_grid[~((lam_grid >= 0.0) & (lam_grid <= 1.0))]
    if len(outside):  # NaN is outside too
        raise InvalidParameter(f"lambda is a Pareto weight in [0, 1], got {float(outside[0])!r}")
    schema = builtin_schema(schema_id)
    compiled = compile_schema(schema)
    projection = compile_projection(compiled.structure)
    if not projection.bounded:
        raise Unbounded(f"{schema.id}: the projected region is unbounded; "
                        "a decoding constraint is missing")
    check_climbs(schema, count, budget)  # before the grid and its generators are made
    if lam_grid is None:
        lam_grid = np.linspace(0.0, 1.0, count)
    rvs = schema.rv_set(2)
    cells = math.prod(rvs.sizes) * math.prod(channel.shape[:2])
    chunk = max(1, probability.MAX_MARGINAL_LABELS // cells)  # read per call, as the extension does
    lam_seeds = [seed * 1_000_003 + k for k in range(len(lam_grid))]

    def support(blocks: list[np.ndarray], owners: np.ndarray):
        """Each row's support at its owner's lambda, batched in chunks under the cap."""
        for at in range(0, len(owners), chunk):
            d = extend_through_channel(_joints(rvs, [b[at:at + chunk] for b in blocks]), channel)
            w = lam_grid[owners[at:at + chunk]]
            yield from projection.support(compiled.sign * compiled.rhs(d), w, 1.0 - w)

    best = climb(schema, [np.random.default_rng(s) for s in lam_seeds], budget, support)
    points = [(float(lam), b[0], b[1], s)
              for lam, b, s in zip(lam_grid, best, lam_seeds) if b is not None]
    missing = [float(lam) for lam, b in zip(lam_grid, best) if b is None]
    return FrontierResult(tuple(points), tuple(missing))


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


# name -> runner(samples, projected, seed), where `projected` caps the
# instances each projecting check draws; "all" runs every suite in order
SUITES = {
    "devroye": lambda n, k, seed: [
        check_identities("devroye", "RTD_IN", devroye_identity_checks(), n, seed)],
    "cc": lambda n, k, seed: [check_cc_reduction(n, seed, proj_instances=k)],
    "jiang": lambda n, k, seed: [
        check_identities("jiang", "JIANG", jiang_identity_checks(), n, seed)],
    "maric": lambda n, k, seed: [
        check_identities("maric", "MARIC", maric_identity_checks(), n, seed)],
    "containment": lambda n, k, seed: [
        sampled_region_containment(
            "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=k, seed=seed),
        sampled_region_containment("RTD_JIANG", "JIANG", samples=k, seed=seed),
        sampled_region_containment("RTD_CC", "CCP", samples=k, seed=seed),
    ],
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, samples: int = 200, seed: int = 0) -> list[SuiteReport]:
    """Run one named verification suite (or all of them).  Its checks refuse
    a seed or sample count that `_batches` refuses, before drawing."""
    if name not in SUITE_NAMES:
        raise InvalidParameter(f"unknown suite {name!r}; choose {', '.join(SUITE_NAMES)}")
    runners = SUITES.values() if name == "all" else (SUITES[name],)
    return [r for run in runners for r in run(samples, min(samples, 100), seed)]


def reports_to_json(reports: list[SuiteReport]) -> dict:
    return {
        "ok": all(r.ok for r in reports),
        "suites": [r.to_json() for r in reports],
    }
