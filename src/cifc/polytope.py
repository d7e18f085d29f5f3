"""Projection of rate constraint systems onto the (R1, R2) plane.

Every system arrives in LE normal form: a `regions.LinearSystem` from
`instantiate`, or a schema's `regions.le_structure` for `compile_schema`.
Coefficients are held exactly (integers, reduced by gcd) throughout the
elimination, and every right-hand side stays symbolic: a nonnegative
integer multiplier vector over the system's rows.  Each coefficient
structure is therefore eliminated once, and a system only evaluates its
right-hand sides (floats in bits).  The support of a multiplier names the
rows a projected half-plane comes from, so every half-plane of a
projection carries the labels of its source rows.  The projector and the
membership oracle are deliberately independent code paths: the first runs
variable elimination, the second enumerates every basic solution of the
full-dimensional system and takes the convex hull of its projections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Infeasible, InvalidParameter, Unbounded
from .probability import CompiledExprs, JointDistribution, compile_exprs
from .regions import LinearSystem, RegionSchema, le_structure

FEAS_TOL = 1e-9  # slack when testing a candidate point against a row
TIGHT_TOL = 1e-8  # a half-plane must touch a vertex this closely to be kept
VERTEX_MERGE_TOL = 1e-9
TIE_TOL = 1e-13  # relative: support values this close count as one optimal face
# Row subsets the enumeration oracle may solve; about 3x the catalog's
# largest, RTD's C(19, 8) = 75,582, and checked before anything is allocated.
MAX_ORACLE_SUBSETS = 250_000


@dataclass(frozen=True)
class HalfPlane:
    """a1*R1 + a2*R2 <= b with max(|a1|, |a2|) = 1, and the labels of the
    system rows it is derived from (see Polytope2D)."""

    a1: float
    a2: float
    b: float
    labels: tuple[str, ...]

    def value(self, r1: float, r2: float) -> float:
        return self.a1 * r1 + self.a2 * r2 - self.b


@dataclass(frozen=True)
class Polytope2D:
    """Half-planes plus counterclockwise vertices, in bits.

    The region is the intersection of the half-planes with the nonnegative
    quadrant; quadrant facets appear explicitly whenever they support the
    region.  Every listed half-plane is tight at some vertex (within
    TIGHT_TOL), but the list is not irredundant: a weakly redundant
    half-plane that touches the region at a single vertex is kept too.
    Degenerate regions (segment, single point) are allowed.

    Each half-plane's `labels` name, in system row order, the rows of the
    nonnegative combination that gives its smallest offset (the union
    over combinations tied within TIGHT_TOL); a facet of rate
    nonnegativity alone, such as a quadrant axis, names none.  Dropping
    every row that no half-plane names leaves the region unchanged.  The
    converse does not hold: the rows named by a weakly redundant
    half-plane touch the region without shaping it, and a row named in a
    tie can be replaced by the other combination.
    """

    halfplanes: tuple[HalfPlane, ...]
    vertices: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def max_coord(self) -> float:
        if not self.vertices:
            return 0.0
        return max(max(v) for v in self.vertices)


EMPTY = Polytope2D((), ())


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination with symbolic right-hand sides
# ---------------------------------------------------------------------------


def _convex_hull(
    points: list[tuple[float, float]], collinear_eps: float = 0.0
) -> list[tuple[float, float]]:
    """Monotone chain; handles 0/1/2 points.

    `collinear_eps` is a relative turn threshold: a middle point is dropped
    when its cross product is below eps times the product of the adjacent
    edge lengths.  With 0 only exact non-left turns are dropped.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
                lim = collinear_eps * math.hypot(ax - ox, ay - oy) * math.hypot(
                    p[0] - ax, p[1] - ay
                )
                if cross <= lim:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else pts


def _merge_close(points: list[tuple[float, float]], tol: float) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    for p in points:
        if all(abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol for q in out):
            out.append(p)
    return out


def _order_ccw(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(points) <= 1:
        return points
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def fme_project(system: LinearSystem) -> Polytope2D:
    """Project {x >= 0 : rows} onto (R1, R2) = (r1 . x, r2 . x).

    The system's coefficients are eliminated once per structure (cached);
    each call then only evaluates its right-hand sides.  Raises Infeasible
    when the system admits no nonnegative solution and Unbounded when the
    region is nonempty but unbounded (a missing decoding constraint).
    """
    compiled = _compile_structure(tuple(r.coeffs for r in system.rows), system.r1, system.r2)
    return compiled.polytope(np.array([r.rhs for r in system.rows], dtype=float),
                             tuple(r.label for r in system.rows))


def project_or_empty(system: LinearSystem) -> Polytope2D:
    """fme_project, with the empty region returned as EMPTY instead of raised."""
    try:
        return fme_project(system)
    except Infeasible:
        return EMPTY


@dataclass(frozen=True, eq=False)
class CompiledProjection:
    """A rate system's projection onto (R1, R2) with symbolic right-hand sides.

    The system is {x >= 0 : A x <= b} with (R1, R2) = (r1 . x, r2 . x), a
    fixed integer matrix A and a varying b.  Every projected right-hand side
    is mu . b, where mu is a nonnegative integer multiplier vector over the
    rows of A.  The system is feasible iff mu . b >= 0 for every mu in
    `feasibility` and the half-planes a1*R1 + a2*R2 <= mu . b of `projected`
    (the quadrant among them) meet; that intersection is the projected
    region.  Its recession cone does not depend on b, so `bounded` (set on
    construction) says once whether every nonempty instance is bounded.
    """

    projected: tuple[tuple[int, int, tuple[int, ...]], ...]  # (a1, a2, mu)
    feasibility: tuple[tuple[int, ...], ...]  # mu with 0 <= mu . b

    def __post_init__(self):
        # Group the projected rows by gcd-reduced normal: per b only the
        # smallest rhs of each group matters.
        width = len(self.projected[0][2])
        groups: dict[tuple[int, int], list[np.ndarray]] = {}
        for a1, a2, mu in self.projected:
            g = math.gcd(a1, a2)
            groups.setdefault((a1 // g, a2 // g), []).append(np.asarray(mu, dtype=float) / g)
        normals = sorted(groups)
        mu_rows = [m for n in normals for m in groups[n]]
        counts = [len(groups[n]) for n in normals]
        starts = np.cumsum([0] + counts[:-1])
        a = np.asarray(normals, dtype=float)
        pairs = [(i, j) for i, j in itertools.combinations(range(len(normals)), 2)
                 if a[i, 0] * a[j, 1] != a[i, 1] * a[j, 0]]
        i, j = (np.asarray(ix, dtype=int) for ix in zip(*pairs))
        object.__setattr__(self, "bounded", _recession_free(normals))
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_mu", np.array(mu_rows))
        object.__setattr__(self, "_support", self._mu != 0)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_group", np.repeat(np.arange(len(normals)), counts))
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_pairs", (i, j, a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]))
        object.__setattr__(self, "_feas", np.asarray(self.feasibility, dtype=float).reshape(-1, width))

    def _vertices(self, b: np.ndarray):
        """The rhs of every projected row at b, the smallest per normal, and
        the candidate vertices x, y: the pairwise intersections of the
        normals' lines that satisfy every row within the feasibility slack.
        None when the region is empty.
        """
        tol = FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
        if (self._feas @ b < -tol).any():
            return None
        row_rhs = self._mu @ b
        rhs = np.minimum.reduceat(row_rhs, self._starts)
        i, j, det = self._pairs
        a = self._a
        x = (rhs[i] * a[j, 1] - rhs[j] * a[i, 1]) / det
        y = (a[i, 0] * rhs[j] - a[j, 0] * rhs[i]) / det
        ok = (a @ np.stack((x, y)) <= rhs[:, None] + tol).all(axis=0)
        if not ok.any():
            return None
        return row_rhs, rhs, x[ok] + 0.0, y[ok] + 0.0

    def polytope(self, b: np.ndarray, labels: tuple[str, ...]) -> Polytope2D:
        """The projected region at rhs b, each half-plane named by the
        `labels` of the rows of A that give it (see Polytope2D).

        Raises Infeasible when it is empty and Unbounded when it is
        nonempty but unbounded.
        """
        found = self._vertices(b)
        if found is None:
            raise Infeasible("projected region is empty")
        row_rhs, rhs, x, y = found
        scale = max(1.0, float(np.abs(rhs).max()))
        tight = TIGHT_TOL * scale
        points = _merge_close(list(zip(x.tolist(), y.tolist())), VERTEX_MERGE_TOL * scale)
        hull = _order_ccw(_convex_hull(points, collinear_eps=1e-9))
        # per normal, the union of the supports of its rows tied at the minimum
        tied = (row_rhs <= rhs[self._group] + tight)[:, None] & self._support
        sources = np.logical_or.reduceat(tied, self._starts).tolist()
        halfplanes = []
        for (a1, a2), r, used in zip(self._normals, rhs.tolist(), sources):
            if min(abs(a1 * u + a2 * v - r) for u, v in hull) <= tight:
                names = dict.fromkeys(lab for lab, u in zip(labels, used) if u)
                mx = max(abs(a1), abs(a2))
                halfplanes.append(HalfPlane(a1 / mx, a2 / mx, r / mx, tuple(names)))
        halfplanes.sort(key=lambda h: math.atan2(h.a2, h.a1))
        if not self.bounded:
            raise Unbounded("the projected region is unbounded; a decoding constraint is missing")
        return Polytope2D(tuple(halfplanes), tuple(hull))

    def support(self, b: np.ndarray, w1: float, w2: float):
        """Maximize w1*R1 + w2*R2 over the region at rhs b.

        Returns (R1, R2, value) at a maximizing vertex, or None when the
        rate system is infeasible.  Among vertices within TIE_TOL of the
        maximum (a tied optimal face), the one with the largest R1 + R2,
        then the largest R1, is returned.
        """
        found = self._vertices(b)
        if found is None:
            return None
        _, _, x, y = found
        vals = w1 * x + w2 * y
        best = float(vals.max())
        tied = np.flatnonzero(vals >= best - TIE_TOL * max(1.0, abs(best)))
        k = tied[np.lexsort((x[tied], x[tied] + y[tied]))[-1]]
        return float(x[k]), float(y[k]), best


@dataclass(frozen=True, eq=False)
class CompiledSchema(CompiledProjection):
    """A schema's CompiledProjection plus its right-hand sides as one
    function of a distribution: the compiled map of the rows' MI
    expressions (see probability.compile_exprs), times the LE-normal sign
    of each row.
    """

    rhs_map: CompiledExprs
    sign: np.ndarray  # +1 for an LE row, -1 for a GE row

    def rhs(self, d: JointDistribution) -> np.ndarray:
        """LE-normal right-hand sides b of the schema's rows at distribution d."""
        return self.sign * self.rhs_map(d)


def _substitute(vec: list[int], mu: tuple[int, ...], v: int, eq: list[int]):
    """Eliminate column v from the row (vec, mu) using the equation eq . y = 0.

    The row is first multiplied by |eq[v]| > 0, so it stays an integer
    inequality with the same sense.
    """
    a, c = vec[v], eq[v]
    if not a:
        return vec, mu
    s = 1 if c > 0 else -1
    coeffs = tuple(abs(c) * x - s * a * e for x, e in zip(vec, eq))
    vec, mu = _reduce_exact(coeffs, tuple(abs(c) * m for m in mu))
    return list(vec), mu


def _reduce_exact(coeffs: tuple[int, ...], mu: tuple[int, ...]):
    g = math.gcd(*coeffs, *mu)
    if g > 1:
        return tuple(c // g for c in coeffs), tuple(m // g for m in mu)
    return coeffs, mu


def _eliminate_symbolic(rows, var: int, eliminated: int):
    """One Fourier-Motzkin step on rows (coeffs, mu, history bitmask).

    Chernikov's rule: after `eliminated` variables, a combination of more
    than eliminated + 1 source rows is redundant.  Exact duplicates merge.
    """
    out = [r for r in rows if r[0][var] == 0]
    pos = [r for r in rows if r[0][var] > 0]
    neg = [r for r in rows if r[0][var] < 0]
    for pc, pm, ph in pos:
        for qc, qm, qh in neg:
            hist = ph | qh
            if bin(hist).count("1") > eliminated + 1:
                continue
            cp, cq = pc[var], -qc[var]
            coeffs = tuple(cq * a + cp * b for a, b in zip(pc, qc))
            mu = tuple(cq * a + cp * b for a, b in zip(pm, qm))
            out.append((*_reduce_exact(coeffs, mu), hist))
    best: dict = {}
    for c, m, h in out:
        cur = best.get((c, m))
        if cur is None or bin(h).count("1") < bin(cur).count("1"):
            best[(c, m)] = h
    return [(c, m, h) for (c, m), h in best.items()]


def _recession_free(normals: list[tuple[int, int]]) -> bool:
    """True iff no nonzero d >= 0 has a . d <= 0 for every normal a.

    The cone of such d is bounded by the quadrant axes and the lines
    a . d = 0, so it is {0} iff every candidate ray on those lines is cut off.
    """
    rays = [(1, 0), (0, 1)] + [(abs(a2), abs(a1)) for a1, a2 in normals if a1 * a2 < 0]
    return all(any(a1 * d1 + a2 * d2 > 0 for a1, a2 in normals) for d1, d2 in rays)


@lru_cache(maxsize=256)
def _compile_structure(
    rows: tuple[tuple[int, ...], ...], r1: tuple[int, ...], r2: tuple[int, ...]
) -> CompiledProjection:
    """Eliminate {x >= 0 : rows . x <= b} onto (r1 . x, r2 . x) with b symbolic.

    Each projection equation R_t = r_t . x is substituted first, pivoting on
    its smallest nonzero rate coefficient; an equation with no rate left
    becomes two explicit rows in (R1, R2).  The remaining pure inequality
    system is eliminated with exact integers and Chernikov's history rule
    only; nothing is pruned by the value of a right-hand side, so the result
    holds at every b.
    """
    n, m = len(r1), len(rows)
    zero = (0,) * m
    # columns: the rates, then R1 and R2; a row is (coeffs, mu, history bitmask)
    work = [(list(vec) + [0, 0], tuple(int(k == j) for j in range(m)), 1 << k)
            for k, vec in enumerate(rows)]
    for i in range(n):
        vec = [0] * (n + 2)
        vec[i] = -1
        work.append((vec, zero, 1 << (m + i)))
    # the quadrant, and any fixed R_t below, carry no rates: never combined
    work += [([0] * n + [-1, 0], zero, 0), ([0] * n + [0, -1], zero, 0)]
    proj = [list(r1) + [-1, 0], list(r2) + [0, -1]]  # proj[t] . (x, R) = 0
    remaining = list(range(n))
    for t in range(2):
        pivots = [(abs(c), v) for v, c in enumerate(proj[t][:n]) if c]
        if not pivots:
            work += [(proj[t], zero, 0), ([-c for c in proj[t]], zero, 0)]
            continue
        v = min(pivots)[1]
        remaining.remove(v)
        work = [(*_substitute(vec, mu, v, proj[t]), h) for vec, mu, h in work]
        proj = [_substitute(p, zero, v, proj[t])[0] for p in proj]
    work = [(tuple(vec), mu, h) for vec, mu, h in work]
    eliminated = 0
    while remaining:
        var = min(remaining, key=lambda v: (
            sum(c[v] > 0 for c, _, _ in work) * sum(c[v] < 0 for c, _, _ in work), v))
        eliminated += 1
        work = _eliminate_symbolic(work, var, eliminated)
        remaining.remove(var)
    projected, feasibility = [], []
    for coeffs, mu, _ in sorted(work):
        a1, a2 = coeffs[n], coeffs[n + 1]
        if a1 or a2:
            projected.append((a1, a2, mu))
        elif any(mu):
            feasibility.append(mu)
    return CompiledProjection(tuple(projected), tuple(feasibility))


@lru_cache(maxsize=64)
def compile_schema(schema: RegionSchema) -> CompiledSchema:
    """Project a schema onto (R1, R2) once, keeping every rhs symbolic.

    The schema's LE-normal rows (regions.le_structure) go through the same
    elimination as fme_project, so nothing is pruned by the value of a
    right-hand side and the result holds at every distribution.  Raises Unbounded when the
    projection has a nonzero recession direction (a missing decoding
    constraint).
    """
    rows, r1, r2, sign = le_structure(schema)
    compiled = _compile_structure(rows, r1, r2)
    if not compiled.bounded:
        raise Unbounded(f"{schema.id}: the projected region is unbounded; "
                        "a decoding constraint is missing")
    rhs_map = compile_exprs(tuple(c.rhs for c in schema.constraints))
    return CompiledSchema(compiled.projected, compiled.feasibility, rhs_map, sign)


# ---------------------------------------------------------------------------
# Independent membership oracle (no elimination code shared)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _oracle_hull(system: LinearSystem) -> tuple[tuple[float, float], ...]:
    """All basic feasible solutions of the full system, projected and hulled.

    Enumerates every n-subset of rows (original constraints plus the
    nonnegativity facets), solves the square systems in a vectorized batch,
    and keeps the solutions satisfying the whole system.  The projection of
    the polytope equals the convex hull of the projected solutions because
    the systems handled here are bounded.  Raises InvalidParameter when
    the subset count exceeds MAX_ORACLE_SUBSETS.
    """
    n = len(system.variables)
    m = len(system.rows) + n
    subsets = math.comb(m, n)
    if subsets > MAX_ORACLE_SUBSETS:
        raise InvalidParameter(f"the oracle would solve C({m}, {n}) = {subsets} "
                               f"row subsets, above the cap of {MAX_ORACLE_SUBSETS}")
    mats = [list(r.coeffs) for r in system.rows]
    rhs = [r.rhs for r in system.rows]
    for i in range(n):
        e = [0] * n
        e[i] = -1
        mats.append(e)
        rhs.append(0.0)
    a = np.asarray(mats, dtype=float)
    b = np.asarray(rhs, dtype=float)
    combos = np.asarray(list(itertools.combinations(range(m), n)), dtype=int)
    points: list[tuple[float, float]] = []
    chunk = 200_000
    r1 = np.asarray(system.r1, dtype=float)
    r2 = np.asarray(system.r2, dtype=float)
    for start in range(0, len(combos), chunk):
        idx = combos[start : start + chunk]
        sub_a = a[idx]
        sub_b = b[idx]
        dets = np.linalg.det(sub_a)
        # integer coefficient matrices: nonsingular iff |det| >= 1
        mask = np.abs(dets) > 0.5
        if not mask.any():
            continue
        sols = np.linalg.solve(sub_a[mask], sub_b[mask][..., None])[..., 0]
        feas = (a @ sols.T <= b[:, None] + FEAS_TOL).all(axis=0)
        good = sols[feas]
        if good.size:
            for x, y in zip(good @ r1, good @ r2):
                # snap away ulp jitter between repeated basic solutions so
                # the hull sees one clean coordinate per geometric vertex
                points.append((round(float(x), 12) + 0.0, round(float(y), 12) + 0.0))
    hull = _convex_hull(_merge_close(points, 1e-12), collinear_eps=1e-12)
    return tuple(_order_ccw(hull))


def oracle_polygon(system: LinearSystem) -> tuple[tuple[float, float], ...]:
    """CCW hull of the projected region per the enumeration oracle."""
    return _oracle_hull(system)


def _points(points) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of an (n, 2) array-like of points."""
    return np.asarray(points, dtype=float).reshape(-1, 2).T


# CPython's correctly rounded hypot, elementwise; the C library's, which
# np.hypot calls, is one ulp off on about 0.1% of inputs
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _distance_to_hull(hull, points) -> np.ndarray:
    """Signed distance of each point to the hull: <= 0 inside, > 0 outside.

    A hull of one or two vertices is a point or a segment, whose distance
    is Euclidean; with no hull every point is at +inf.
    """
    x, y = _points(points)
    if not hull:
        return np.full(x.shape, math.inf)
    if len(hull) <= 2:
        (px, py), (qx, qy) = hull[0], hull[-1]
        ex, ey = qx - px, qy - py
        denom = ex * ex + ey * ey
        if denom < 1e-300:
            return _hypot(x - px, y - py).astype(float)
        t = ((x - px) * ex + (y - py) * ey) / denom
        t = np.where(t < 1.0, t, 1.0)
        t = np.where(t > 0.0, t, 0.0)
        return _hypot(x - (px + t * ex), y - (py + t * ey)).astype(float)
    worst = np.full(x.shape, -math.inf)
    for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]):
        ex, ey = qx - px, qy - py
        norm = math.hypot(ex, ey)
        if norm < 1e-300:
            continue
        # outward normal for CCW orientation
        d = ((ey) * (x - px) - (ex) * (y - py)) / norm
        worst = np.where(d > worst, d, worst)
    return worst


def membership_oracle(system: LinearSystem, point: tuple[float, float], tol: float = FEAS_TOL) -> bool:
    """True iff some nonnegative rate vector satisfies the system and
    projects to `point` (within tol), decided by basic-solution enumeration."""
    return bool(_distance_to_hull(_oracle_hull(system), [point])[0] <= tol)


# ---------------------------------------------------------------------------
# Containment and comparison
# ---------------------------------------------------------------------------


def halfplane_violation(poly: Polytope2D, points) -> np.ndarray:
    """Each point's max violation of the half-planes and the quadrant; the
    empty region contains no point, so every violation is +inf there."""
    x, y = _points(points)
    if poly.is_empty:
        return np.full(x.shape, math.inf)
    worst = np.where(-y > -x, -y, -x)
    for h in poly.halfplanes:
        v = h.value(x, y)
        worst = np.where(v > worst, v, worst)
    return worst


def containment_margin(outer: Polytope2D, inner: Polytope2D) -> float:
    """Worst violation of inner's vertices against outer (<= 0 means contained)."""
    if inner.is_empty:
        return -math.inf
    violation = halfplane_violation(outer, inner.vertices)
    return float(violation[violation.argmax()])


def polytope_contains(outer: Polytope2D, inner: Polytope2D, tol: float = 1e-7) -> bool:
    """True iff every vertex of inner satisfies every half-plane of outer."""
    return containment_margin(outer, inner) <= tol


def polytope_equal(a: Polytope2D, b: Polytope2D, tol: float = 1e-9) -> bool:
    """Vertex sets match within tol (in both directions)."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty

    def covered(src, dst):
        return all(
            any(abs(x - u) <= tol and abs(y - v) <= tol for u, v in dst) for x, y in src
        )

    return covered(a.vertices, b.vertices) and covered(b.vertices, a.vertices)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def polytope_to_json(p: Polytope2D) -> dict:
    return {
        "vertices": [[float(x), float(y)] for x, y in p.vertices],
        "halfplanes": [[h.a1, h.a2, h.b, list(h.labels)] for h in p.halfplanes],
    }


def polytope_from_json(obj: dict) -> Polytope2D:
    hps = tuple(
        HalfPlane(float(a1), float(a2), float(b), tuple(labels))
        for a1, a2, b, labels in obj["halfplanes"]
    )
    verts = tuple((float(x), float(y)) for x, y in obj["vertices"])
    return Polytope2D(hps, verts)


def vertices_csv(p: Polytope2D) -> str:
    lines = ["R1,R2"]
    for x, y in p.vertices:
        lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"
