"""Executable verification of the region relationships.

Each check samples concrete small-alphabet distributions (through
`cifc.sampling`), evaluates an algebraic identity (or projects two
regions), and reports the worst deviation together with the seed that
produced it, so every verdict is reproducible.  The draws are made seed
by seed, a chunk's random channels as one checked stack, each seed's
once for every check (`channel.random_channels`), and every stage after
them takes up to BATCH samples as one batch, which gives bit for bit
what each sample gives alone: two schemas on one batch share one
entropy pass, a batch's regions are projected together (cc's once per
kept-row mask) and compared in pairs by one call per batch; only the
hulls, the oracle and the report go one by one.

The claims are one text table, `_CLAIMS`, one block per suite in the
order `run_suite` runs them, read once, at import, by `parse_claims`
into `SUITES`:

  suite cc CC                      the suite, then the schema its identities sample
  37p: I(Y1;U10,U11,V11,V20)       a bound that the lines below may reference
  zero ID: EXPR                    EXPR vanishes on every draw
  nonneg ID: EXPR                  EXPR is nonnegative on every draw
  pinned CCP RTD_CC R1c' = 0       with the rate at 0, one system and one region
  contains A B [channel random_channel(7)]   B's region lies inside A's

An EXPR is `parse_expr`'s text whose terms may also be references,
`[SCHEMA.label]` for a catalog constraint's rhs and `[LABEL]` for a bound
above it, each with the sign written before it.  The zero and nonneg
lines of one ID, next to each other, are one `IdentityCheck`, and
`check_identities` evaluates a suite's checks through one compiled map,
led by them and checked against the schema's requirements.  Strictly
positive claims are tested as >= -MI_TOL with the observed gaps logged;
degenerate distributions legitimately achieve zero.  The tolerances
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
import re
from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Sequence

import numpy as np

from . import probability
from .channel import Channel, check_integer, random_channel, random_channels
from .errors import InvalidParameter, Unbounded
from .probability import MI_TOL, MIExpr, compile_exprs, extend_through_channel
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
    _RATE,
    SCHEMA_IDS,
    LinearSystem,
    RegionSchema,
    builtin_schema,
    compile_schema,
    instantiate,
    instantiate_all,
    parse_expr,
    same_system,
    _declared,
    _read,
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
    for c in checks:  # as parse_claims checks a claim line
        for e in c.zero + c.nonneg:
            _declared(e, schema.variables, f"check {c.check_id!r} on {schema_id}: ")
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
        channels = channel or random_channels(chunk, sizes)
        modes = [mode or _mode_for(i) for i in range(at, at + len(chunk))]
        yield chunk, sample_instances(schema, channels, chunk, modes)


def _channel_sizes(schema: RegionSchema) -> tuple[int, int, int, int]:
    """Channel input sizes that match the schema's X1 and X2 at size 2
    (MARIC's X2 pairs two binary parts); both outputs are binary."""
    rvs = schema.rv_set(2)
    return rvs.size("X1"), rvs.size("X2"), 2, 2


def _pinned_checks(sampled_id: str, other_id: str, rate: str, instances: int,
                   seed: int) -> list[CheckReport]:
    """On `instances` draws of the first schema, both schemas with `rate`
    pinned to zero are one constraint system and project to one vertex set."""
    schemas = builtin_schema(sampled_id), builtin_schema(other_id)
    structural = CheckReport("pinned systems structurally identical")
    projected = CheckReport("pinned projections vertex-identical")
    nonempty = 0
    for seeds, d in _batches(schemas[0], seed, instances):
        pinned = [system.pin({rate: 0.0}) for system in instantiate_all(schemas, d)]
        (sa, pa), (sb, pb) = (zip(*_nonvacuous_regions(batch)) for batch in pinned)
        for s, ia, ib, region, same in zip(seeds, sa, sb, pa, polytopes_equal(pa, pb)):
            structural.record_match(s, same_system(ia, ib), "systems differ")
            projected.record_match(s, same, "vertex sets differ")
            nonempty += not region.is_empty
    projected.details["nonempty_instances"] = nonempty
    return [structural, projected]


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
# The claims, one text block per suite (the line kinds are in the module
# docstring; run_suite and the CLI read SUITES)
# ---------------------------------------------------------------------------

# devroye: the restricted unified rows (e1x) minus the enlarged comparator's
# rows (e2x), binning rates cancelled, vanish, but for e14's, which equals
# I(U2c;U1c|X2) and vanishes under the sampling chain, and e17's, the
# nonnegative I(U1c;U1pb).  cc: the merged comparator's bounds 37p-41p,
# transcribed apart from the CC catalog block, equal 37/39/40 and relax 38/41
# by exactly the nonnegative I(V22,V20;U11|U10); with R1c' pinned to zero, CCP
# and RTD_CC are one system.  jiang: the paired bounds agree, and the pinned
# binning rate vanishes.  maric: merging the decoded part X2a into
# X2b' = (X2a, X2b), written over the original variables so that both forms
# evaluate on one joint, raises m1 by exactly I(X2a;Y2|Q) and leaves m2..m5
# unchanged.  containment: each comparator's region lies inside its
# specialized unified region.
_CLAIMS = """
suite devroye RTD_IN
zero e13_e23: [RTD_IN.e13] - [RTD_IN.e10] - [DMT_OUT.e23] + [DMT_OUT.e20]
zero e14_e24: [RTD_IN.e14] - [RTD_IN.e10] - [DMT_OUT.e24] + [DMT_OUT.e20] - I(U2c;U1c|X2)
zero e14_e24: I(U2c;U1c|X2)
zero e15_e25: [RTD_IN.e15] - [RTD_IN.e10] - [DMT_OUT.e25] + [DMT_OUT.e20]
zero e16_e26: [RTD_IN.e16] - [DMT_OUT.e26]
zero e17_e27: [RTD_IN.e17] - [RTD_IN.e12] - [DMT_OUT.e27] + [DMT_OUT.e21] + [DMT_OUT.e20] - I(U1c;U1pb)
nonneg e17_e27: I(U1c;U1pb)
zero e18_e28: [RTD_IN.e18] - [RTD_IN.e12] - [DMT_OUT.e28] + [DMT_OUT.e21] + [DMT_OUT.e20]
zero e19_e29: [RTD_IN.e19] - [RTD_IN.e12] + [RTD_IN.e10] - [DMT_OUT.e29] + [DMT_OUT.e21]

suite cc CC
37p: I(Y1;U10,U11,V11,V20)
38p: I(Y2;V20,V22|U10)
39p: I(Y1;U11,V11|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
40p: I(Y1;U10,U11,V11,V20) + I(Y2;V22|U10,V20) - I(V22;U11,V11|U10,V20)
41p: I(Y1;U11,V11,V20|U10) + I(Y2;V22|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
zero 37..41 vs primed: 37: [37p] - [CC.37]
zero 37..41 vs primed: 39: [39p] - [CC.39]
zero 37..41 vs primed: 40: [40p] - [CC.40]
zero 38p minus 38 equals merge gap: [38p] - [CC.38] - I(V20,V22;U11|U10)
nonneg 38p minus 38 equals merge gap: [38p] - [CC.38]
zero 41p minus 41 equals merge gap: [41p] - [CC.41] - I(V20,V22;U11|U10)
nonneg 41p minus 41 equals merge gap: [41p] - [CC.41]
pinned CCP RTD_CC R1c' = 0

suite jiang JIANG
zero eight paired bounds equal: [RTD_JIANG.u0] - [JIANG.j0]
zero eight paired bounds equal: [RTD_JIANG.u1] - [JIANG.j1]
zero eight paired bounds equal: [RTD_JIANG.u2] - [JIANG.j2]
zero eight paired bounds equal: [RTD_JIANG.u3] - [JIANG.j4]
zero eight paired bounds equal: [RTD_JIANG.u4] - [JIANG.j5]
zero eight paired bounds equal: [RTD_JIANG.u5] - [JIANG.j6]
zero eight paired bounds equal: [RTD_JIANG.u6] - [JIANG.j7]
zero eight paired bounds equal: [RTD_JIANG.u7] - [JIANG.j9]
zero I(U1c;X2|U2c) vanishes under the chain: I(U1c;X2|U2c)

suite maric MARIC
m1': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2a,X2b;Y2|Q)
m2': I(U1a,U1c;Y1|Q) - I(U1a,U1c;X2a,X2b|Q)
m3': I(U1c,X2;Y2|Q)
m4': I(X2;U1c,Y2|Q)
m5': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2;Y2|Q)
zero bounds m2..m5 unchanged under merge: [m2'] - [MARIC.m2]
zero bounds m2..m5 unchanged under merge: [m3'] - [MARIC.m3]
zero bounds m2..m5 unchanged under merge: [m4'] - [MARIC.m4]
zero bounds m2..m5 unchanged under merge: [m5'] - [MARIC.m5]
zero merged m1 exceeds m1 by I(X2a;Y2|Q): [m1'] - [MARIC.m1] - I(X2a;Y2|Q)
nonneg merge gap nonnegative: [m1'] - [MARIC.m1]

suite containment
contains RTD_IN DMT_OUT channel random_channel(7)
contains RTD_JIANG JIANG
contains RTD_CC CCP
"""

_BOUND = re.compile(r"([\w']+): (.+)")
_CLAIM = re.compile(r"(.+): (.+)")  # the ID ends at the last ': '
_PAIRS = {  # line kind -> its two schemas and what it runs them with
    "pinned": re.compile(rf"(\w+) (\w+) ({_RATE}) = 0"),
    "contains": re.compile(r"(\w+) (\w+)(?: channel random_channel\((\d+)\))?"),
}


@dataclass
class Claims:
    """A suite's block of the claims table, as `parse_claims` reads it: the
    schema its identity checks sample, its bounds by label, its checks, its
    pinned lines as (sampled, other, rate) and its contains lines as
    (outer, inner, the random channel's seed or None)."""

    name: str
    schema_id: str | None = None
    bounds: dict[str, MIExpr] = field(default_factory=dict)
    checks: list[IdentityCheck] = field(default_factory=list)
    pinned: list[tuple[str, str, str]] = field(default_factory=list)
    contains: list[tuple[str, str, str | None]] = field(default_factory=list)


def parse_claims(block: str) -> Claims:
    """The Claims one block of the claims table states (the line kinds are
    in the module docstring).  A line it cannot read, a reference to no
    catalog constraint or to no bound above it, a bound defined twice, a
    check that another check splits, variables the block's schema lacks,
    two schemas that do not share one variable set, or a pinned rate that
    one of them lacks is refused with InvalidParameter naming the block
    and the line's number in it."""
    lines = block.strip("\n").split("\n")
    head = re.fullmatch(r"suite (\w+)(?: (\w+))?", lines[0])
    if head is None:
        raise InvalidParameter(f"line 1: a block opens with 'suite NAME [SCHEMA]', not {lines[0]!r}")
    name, sid = head.groups()
    claims = Claims(name, sid)

    def reference(schema_id: str | None, label: str) -> MIExpr:
        if schema_id:
            return builtin_schema(schema_id).constraint(label).rhs
        if label not in claims.bounds:
            raise InvalidParameter(f"no bound {label!r} above this line")
        return claims.bounds[label]

    for number, line in enumerate(lines, 1):
        kind, _, text = line.partition(" ")
        try:
            if number == 1:
                schema = sid and builtin_schema(sid)
            elif kind.endswith(":"):
                label, text = _read(_BOUND, line, "a bound 'LABEL: EXPR'")
                if label in claims.bounds:
                    raise InvalidParameter(f"bound {label!r} is defined twice")
                claims.bounds[label] = parse_expr(text, reference)
            elif kind in ("zero", "nonneg"):
                check_id, text = _read(_CLAIM, text, f"a {kind} line '{kind} ID: EXPR'")
                if not schema:
                    raise InvalidParameter(f"a {kind} line in a suite with no schema")
                expr = _declared(parse_expr(text, reference), schema.variables)
                checks = claims.checks
                if not checks or checks[-1].check_id != check_id:
                    if any(c.check_id == check_id for c in checks):
                        raise InvalidParameter(f"check {check_id!r} is split by another check")
                    checks.append(IdentityCheck(check_id))
                checks[-1] = replace(checks[-1], **{kind: getattr(checks[-1], kind) + (expr,)})
            elif kind in _PAIRS:
                a, b, arg = _read(_PAIRS[kind], text, f"a {kind} line")
                if builtin_schema(a).rv_set(2) != builtin_schema(b).rv_set(2):
                    raise InvalidParameter(f"{a} and {b} do not share one variable set")
                if kind == "pinned" and not all(arg in builtin_schema(x).rate_vars
                                                for x in (a, b)):
                    raise InvalidParameter(f"{arg} is no rate of both {a} and {b}")
                getattr(claims, kind).append((a, b, arg))
            else:
                raise InvalidParameter(f"unknown line kind {kind!r}")
        except (ValueError, KeyError) as e:
            raise InvalidParameter(f"claims {name}, line {number}: {e.args[0]}") from e
    return claims


def _run_claims(claims: Claims, samples: int, projected: int, seed: int) -> list[SuiteReport]:
    """A block's reports: its identity checks on `samples` draws, with each
    pinned line's two checks on `projected` draws after them, then one
    containment report on `projected` draws per contains line."""
    report = SuiteReport(claims.name)
    if claims.checks:
        report = check_identities(claims.name, claims.schema_id, claims.checks, samples, seed)
    for sampled, other, rate in claims.pinned:
        report.checks += _pinned_checks(sampled, other, rate, projected, seed + 10_000)
    reports = [report] if report.checks else []
    return reports + [
        sampled_region_containment(outer, inner, c and random_channel(int(c)), projected, seed)
        for outer, inner, c in claims.contains]


# name -> its block of the claims table; "all" runs every suite in order
SUITES = {c.name: c for c in map(parse_claims, _CLAIMS.strip("\n").split("\n\n"))}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, samples: int = 200, seed: int = 0) -> list[SuiteReport]:
    """Run one named verification suite (or all of them).  A seed or sample count
    that `_batches` refuses is refused first, before a contains line's channel is drawn."""
    if name not in SUITE_NAMES:
        raise InvalidParameter(f"unknown suite {name!r}; choose {', '.join(SUITE_NAMES)}")
    samples, seed = check_integer(samples, "samples", 1), check_integer(seed, "seed")
    blocks = SUITES.values() if name == "all" else (SUITES[name],)
    return [r for claims in blocks for r in _run_claims(claims, samples, min(samples, 100), seed)]


def reports_to_json(reports: list[SuiteReport]) -> dict:
    return {
        "ok": all(r.ok for r in reports),
        "suites": [r.to_json() for r in reports],
    }
