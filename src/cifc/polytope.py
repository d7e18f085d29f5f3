"""Projection of rate constraint systems onto the (R1, R2) plane.

Coefficients are held exactly (integers, reduced by gcd) throughout the
elimination; right-hand sides are floats in bits.  The projector and the
membership oracle are deliberately independent code paths: the first runs
variable elimination, the second enumerates every basic solution of the
full-dimensional system and takes the convex hull of its projections.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import Infeasible, InvalidParameter, Unbounded
from .probability import MI_CLAMP, JointDistribution, entropy_vector
from .regions import GE, LE, InstantiatedRegion, RegionSchema

FEAS_TOL = 1e-9  # slack when testing a candidate point against a row
TIGHT_TOL = 1e-8  # a half-plane must touch a vertex this closely to be kept
VERTEX_MERGE_TOL = 1e-9
TIE_TOL = 1e-13  # relative: support values this close count as one optimal face


@dataclass(frozen=True)
class HalfPlane:
    """a1*R1 + a2*R2 <= b with max(|a1|, |a2|) = 1."""

    a1: Fraction
    a2: Fraction
    b: float

    def value(self, r1: float, r2: float) -> float:
        return float(self.a1) * r1 + float(self.a2) * r2 - self.b


@dataclass(frozen=True)
class Polytope2D:
    """Irredundant half-planes plus counterclockwise vertices, in bits.

    The region is the intersection of the half-planes with the nonnegative
    quadrant; quadrant facets appear explicitly whenever they support the
    region.  Degenerate regions (segment, single point) are allowed.
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


@dataclass(frozen=True)
class Row:
    """Integer-coefficient inequality coeffs . x <= rhs."""

    coeffs: tuple[int, ...]
    rhs: float
    guard: bool = False


@dataclass(frozen=True)
class LinearSystem:
    """LE-normal numeric system with designated projection directions."""

    variables: tuple[str, ...]
    rows: tuple[Row, ...]
    r1: tuple[int, ...]
    r2: tuple[int, ...]


def to_linear_system(inst: InstantiatedRegion) -> LinearSystem:
    """Convert an instantiated region (GE/LE rows) to LE normal form."""
    names = inst.rate_vars
    index = {n: i for i, n in enumerate(names)}
    rows = []
    for r in inst.rows:
        vec = [0] * len(names)
        for n, c in r.coeffs:
            vec[index[n]] = c
        if r.sense == LE:
            rows.append(Row(tuple(vec), float(r.rhs)))
        elif r.sense == GE:
            rows.append(Row(tuple(-v for v in vec), -float(r.rhs)))
        else:  # pragma: no cover
            raise ValueError(r.sense)
    proj = {name: dict(coeffs) for name, coeffs in inst.projection}

    def vec_of(which: str) -> tuple[int, ...]:
        d = proj.get(which, {})
        return tuple(d.get(n, 0) for n in names)

    return LinearSystem(names, tuple(rows), vec_of("R1"), vec_of("R2"))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


def _reduce(coeffs: tuple[int, ...], rhs: float, guard: bool) -> Row:
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs = rhs / g
    return Row(coeffs, rhs, guard)


def _dedupe(rows: list[Row], tol: float) -> list[Row]:
    """Keep the tightest rhs per coefficient vector; drop trivial rows."""
    best: dict[tuple[int, ...], Row] = {}
    for r in rows:
        if not any(r.coeffs):
            if r.rhs < -tol:
                raise Infeasible(f"contradictory row 0 <= {r.rhs:.3e}")
            continue
        cur = best.get(r.coeffs)
        if cur is None or r.rhs < cur.rhs - 1e-15 or (
            abs(r.rhs - cur.rhs) <= 1e-15 and cur.guard and not r.guard
        ):
            best[r.coeffs] = r
    return list(best.values())


def _eliminate(rows: list[Row], var: int, tol: float) -> list[Row]:
    zero, pos, neg = [], [], []
    for r in rows:
        c = r.coeffs[var]
        if c == 0:
            zero.append(r)
        elif c > 0:
            pos.append(r)
        else:
            neg.append(r)
    out = list(zero)
    for p in pos:
        cp = p.coeffs[var]
        for q in neg:
            cq = -q.coeffs[var]
            coeffs = tuple(cq * a + cp * b for a, b in zip(p.coeffs, q.coeffs))
            rhs = cq * p.rhs + cp * q.rhs
            out.append(_reduce(coeffs, rhs, p.guard or q.guard))
    return _dedupe(out, tol)


def _cheapest_var(rows: list[Row], remaining: set[int]) -> int:
    def cost(v: int) -> tuple[int, int]:
        p = sum(1 for r in rows if r.coeffs[v] > 0)
        q = sum(1 for r in rows if r.coeffs[v] < 0)
        return (p * q, v)

    return min(remaining, key=cost)


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


def fme_project(system: LinearSystem, feas_tol: float = FEAS_TOL) -> Polytope2D:
    """Project {x >= 0 : rows} onto (R1, R2) = (r1 . x, r2 . x).

    Raises Infeasible when the system admits no nonnegative solution and
    Unbounded when a guard-box facet survives pruning (which signals a
    missing decoding constraint in the source schema).
    """
    n = len(system.variables)
    width = n + 2
    rows: list[Row] = []
    for r in system.rows:
        rows.append(Row(r.coeffs + (0, 0), r.rhs, r.guard))
    big = 1.0 + sum(max(r.rhs, 0.0) for r in system.rows)
    for i in range(n):
        nonneg = [0] * width
        nonneg[i] = -1
        rows.append(Row(tuple(nonneg), 0.0))
        guard = [0] * width
        guard[i] = 1
        rows.append(Row(tuple(guard), big, guard=True))
    for vec, pos in ((system.r1, n), (system.r2, n + 1)):
        fwd = [-c for c in vec] + [0, 0]
        fwd[pos] = 1
        rows.append(Row(tuple(fwd), 0.0))
        rows.append(Row(tuple(-c for c in fwd), 0.0))
    rows = _dedupe(rows, feas_tol)
    remaining = set(range(n))
    while remaining:
        var = _cheapest_var(rows, remaining)
        rows = _eliminate(rows, var, feas_tol)
        remaining.remove(var)
    for vec in ((-1, 0), (0, -1)):
        final = [0] * width
        final[n], final[n + 1] = vec
        rows.append(Row(tuple(final), 0.0))
    rows = _dedupe(rows, feas_tol)
    planes = [(r.coeffs[n], r.coeffs[n + 1], r.rhs, r.guard) for r in rows]
    return _planes_to_polytope(planes, feas_tol)


def _planes_to_polytope(
    planes: list[tuple[int, int, float, bool]], feas_tol: float
) -> Polytope2D:
    scale = max(1.0, max(abs(b) for _, _, b, _ in planes))
    tol = feas_tol * scale
    candidates: list[tuple[float, float]] = []
    for (a1, a2, b1, _), (c1, c2, b2, _) in itertools.combinations(planes, 2):
        det = a1 * c2 - a2 * c1
        if det == 0:
            continue
        x = (b1 * c2 - b2 * a2) / det
        y = (a1 * b2 - c1 * b1) / det
        if all(p * x + q * y <= b + tol for p, q, b, _ in planes):
            candidates.append((x, y))
    if not candidates:
        raise Infeasible("projected region is empty")
    candidates = _merge_close(candidates, VERTEX_MERGE_TOL * scale)
    hull = _order_ccw(_convex_hull(candidates, collinear_eps=1e-9))
    tight = TIGHT_TOL * scale
    kept = []
    for a1, a2, b, guard in planes:
        if min(abs(a1 * x + a2 * y - b) for x, y in hull) <= tight:
            if guard:
                raise Unbounded("guard facet survived pruning; system is unbounded")
            kept.append((a1, a2, b))
    kept_hp = []
    for a1, a2, b in kept:
        mx = max(abs(a1), abs(a2))
        kept_hp.append(HalfPlane(Fraction(a1, mx), Fraction(a2, mx), b / mx))
    kept_hp.sort(key=lambda h: math.atan2(float(h.a2), float(h.a1)))
    verts = tuple((x + 0.0, y + 0.0) for x, y in _order_ccw(hull))
    return Polytope2D(tuple(kept_hp), verts)


def project_or_empty(system: LinearSystem, feas_tol: float = FEAS_TOL) -> Polytope2D:
    """fme_project, with the empty region returned as EMPTY instead of raised."""
    try:
        return fme_project(system, feas_tol)
    except Infeasible:
        return EMPTY


# ---------------------------------------------------------------------------
# Compiled projection: eliminate once per schema, evaluate per distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompiledSchema:
    """A schema's projection onto (R1, R2) with symbolic right-hand sides.

    Every right-hand side is mu . b, where mu is a nonnegative integer
    multiplier vector over the schema's constraint rows and b holds their
    LE-normal right-hand sides at one distribution d:

        h     = entropy_vector(d, subsets)
        atoms = atom_matrix @ h        (clamped as mutual_information clamps)
        b     = rhs_matrix @ atoms + rhs_offset

    The rate system is feasible iff mu . b >= 0 for every mu in
    `feasibility` and the half-planes a1*R1 + a2*R2 <= mu . b of
    `projected` meet the nonnegative quadrant; that intersection is the
    projected region.
    """

    subsets: tuple[tuple[str, ...], ...]
    atom_matrix: np.ndarray  # integer, (atoms, subsets)
    rhs_matrix: np.ndarray  # integer, (constraint rows, atoms)
    rhs_offset: np.ndarray  # constants of the rhs expressions, LE-normal
    projected: tuple[tuple[int, int, tuple[int, ...]], ...]  # (a1, a2, mu)
    feasibility: tuple[tuple[int, ...], ...]  # mu with 0 <= mu . b

    def __post_init__(self):
        # Group the projected rows (plus the quadrant) by gcd-reduced normal:
        # per distribution only the smallest rhs of each group matters.
        width = self.rhs_matrix.shape[0]
        rows = list(self.projected) + [(-1, 0, (0,) * width), (0, -1, (0,) * width)]
        groups: dict[tuple[int, int], list[np.ndarray]] = {}
        for a1, a2, mu in rows:
            g = math.gcd(a1, a2)
            groups.setdefault((a1 // g, a2 // g), []).append(np.asarray(mu, dtype=float) / g)
        normals = sorted(groups)
        mu_rows = [m for n in normals for m in groups[n]]
        starts = np.cumsum([0] + [len(groups[n]) for n in normals[:-1]])
        a = np.asarray(normals, dtype=float)
        pairs = [(i, j) for i, j in itertools.combinations(range(len(normals)), 2)
                 if a[i, 0] * a[j, 1] != a[i, 1] * a[j, 0]]
        i, j = (np.asarray(ix, dtype=int) for ix in zip(*pairs))
        object.__setattr__(self, "_mu", np.array(mu_rows))
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_normals", a)
        object.__setattr__(self, "_pairs", (i, j, a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]))
        object.__setattr__(self, "_feas", np.asarray(self.feasibility, dtype=float).reshape(-1, width))

    def rhs(self, d: JointDistribution) -> np.ndarray:
        """LE-normal right-hand sides b of the schema's rows at distribution d."""
        atoms = self.atom_matrix @ entropy_vector(d, self.subsets)
        atoms[(atoms >= -MI_CLAMP) & (atoms < 0.0)] = 0.0
        return self.rhs_matrix @ atoms + self.rhs_offset

    def support(self, b: np.ndarray, w1: float, w2: float):
        """Maximize w1*R1 + w2*R2 over the region at rhs b.

        Returns (R1, R2, value) at a maximizing vertex, or None when the
        rate system is infeasible.  Among vertices within TIE_TOL of the
        maximum (a tied optimal face), the one with the largest R1 + R2,
        then the largest R1, is returned.
        """
        tol = FEAS_TOL * max(1.0, float(np.abs(b).max(initial=0.0)))
        if (self._feas @ b < -tol).any():
            return None
        rhs = np.minimum.reduceat(self._mu @ b, self._starts)
        i, j, det = self._pairs
        a = self._normals
        x = (rhs[i] * a[j, 1] - rhs[j] * a[i, 1]) / det
        y = (a[i, 0] * rhs[j] - a[j, 0] * rhs[i]) / det
        ok = (a @ np.stack((x, y)) <= rhs[:, None] + tol).all(axis=0)
        if not ok.any():
            return None
        x, y = x[ok] + 0.0, y[ok] + 0.0
        vals = w1 * x + w2 * y
        best = float(vals.max())
        tied = np.flatnonzero(vals >= best - TIE_TOL * max(1.0, abs(best)))
        k = tied[np.lexsort((x[tied], x[tied] + y[tied]))[-1]]
        return float(x[k]), float(y[k]), best


def _unit_pivot(schema: RegionSchema, vec: list[int]) -> int:
    for v, c in enumerate(vec):
        if abs(c) == 1:
            return v
    raise InvalidParameter(f"{schema.id}: projection has no unit-coefficient rate to pivot on")


def _substitute(vec: list[int], v: int, eq: list[int]) -> list[int]:
    """Eliminate column v from vec using the equation eq . y = 0, |eq[v]| = 1."""
    f = vec[v] * eq[v]  # eq[v] is its own inverse
    return [a - f * e for a, e in zip(vec, eq)] if f else vec


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


def _compile_projection(schema: RegionSchema):
    """Projected rows (a1, a2, mu) and feasibility rows mu of the schema."""
    names = schema.rate_names()
    n, m = len(names), len(schema.constraints)
    index = {name: i for i, name in enumerate(names)}
    # columns: the rates, then R1 and R2; a row is (coeffs, mu, history bitmask)
    rows = []
    for k, c in enumerate(schema.constraints):
        sign = 1 if c.sense == LE else -1
        vec = [0] * (n + 2)
        for name, coeff in c.coeffs:
            vec[index[name]] = sign * coeff
        rows.append((vec, tuple(int(k == j) for j in range(m)), 1 << k))
    for i in range(n):
        vec = [0] * (n + 2)
        vec[i] = -1
        rows.append((vec, (0,) * m, 1 << (m + i)))
    proj = []  # proj[t] . (x, R) = 0 states R_t = projection_t . x
    for t, which in enumerate(("R1", "R2")):
        vec = [0] * (n + 2)
        for name, coeff in schema.projection_coeffs(which).items():
            vec[index[name]] = coeff
        vec[n + t] = -1
        proj.append(vec)
    remaining = list(range(n))
    for t in range(2):
        v = _unit_pivot(schema, proj[t][:n])
        remaining.remove(v)
        rows = [(_substitute(vec, v, proj[t]), mu, h) for vec, mu, h in rows]
        proj = [_substitute(p, v, proj[t]) for p in proj]
    work = [(tuple(vec), mu, h) for vec, mu, h in rows]
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
    return tuple(projected), tuple(feasibility)


def _compile_rhs(schema: RegionSchema):
    """Entropy subsets S, the h(S) -> atoms matrix and the atoms -> b matrix."""
    subsets: dict[tuple[str, ...], int] = {}
    atoms: dict = {}  # MI atom -> {subset column: weight}
    rhs_rows, offset = [], []
    for c in schema.constraints:
        sign = 1 if c.sense == LE else -1
        row: dict = {}
        for s, t in c.rhs.terms:
            if t not in atoms:
                # I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C), with H(empty) = 0
                ac, bc = set(t.left + t.given), set(t.right + t.given)
                atoms[t] = {}
                for part, w in ((ac, 1), (bc, 1), (ac | bc, -1), (set(t.given), -1)):
                    if part:
                        col = subsets.setdefault(tuple(sorted(part)), len(subsets))
                        atoms[t][col] = atoms[t].get(col, 0) + w
            row[t] = row.get(t, 0) + sign * s
        rhs_rows.append(row)
        offset.append(sign * c.rhs.constant)
    atom_matrix = np.zeros((len(atoms), len(subsets)), dtype=np.int64)
    rhs_matrix = np.zeros((len(rhs_rows), len(atoms)), dtype=np.int64)
    for a, cols in enumerate(atoms.values()):
        for col, w in cols.items():
            atom_matrix[a, col] = w
    column = {t: a for a, t in enumerate(atoms)}
    for k, row in enumerate(rhs_rows):
        for t, w in row.items():
            rhs_matrix[k, column[t]] = w
    return tuple(subsets), atom_matrix, rhs_matrix, np.asarray(offset, dtype=float)


@lru_cache(maxsize=64)
def compile_schema(schema: RegionSchema) -> CompiledSchema:
    """Project a schema onto (R1, R2) once, keeping every rhs symbolic.

    The R1/R2 equalities are substituted first, pivoting on a message rate
    with a unit coefficient, which leaves a pure inequality system over the
    remaining rates.  That system is eliminated with exact integers and
    Chernikov's history rule only; nothing is pruned by the value of a
    right-hand side, so the result holds at every distribution.  Raises
    Unbounded when the projection has a nonzero recession direction (a
    missing decoding constraint).
    """
    projected, feasibility = _compile_projection(schema)
    normals = [(a1 // math.gcd(a1, a2), a2 // math.gcd(a1, a2)) for a1, a2, _ in projected]
    if not _recession_free(normals + [(-1, 0), (0, -1)]):
        raise Unbounded(f"{schema.id}: the projected region is unbounded; "
                        "a decoding constraint is missing")
    return CompiledSchema(*_compile_rhs(schema), projected, feasibility)


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
    the systems handled here are bounded.
    """
    n = len(system.variables)
    mats = [list(r.coeffs) for r in system.rows]
    rhs = [r.rhs for r in system.rows]
    for i in range(n):
        e = [0] * n
        e[i] = -1
        mats.append(e)
        rhs.append(0.0)
    a = np.asarray(mats, dtype=float)
    b = np.asarray(rhs, dtype=float)
    m = len(mats)
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


def _distance_to_hull(hull, point) -> float:
    """Signed distance: <= 0 inside, > 0 outside (degenerate hulls allowed)."""
    x, y = point
    if not hull:
        return math.inf
    if len(hull) == 1:
        return math.hypot(x - hull[0][0], y - hull[0][1])
    if len(hull) == 2:
        return _segment_distance(hull[0], hull[1], point)
    worst = -math.inf
    for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]):
        ex, ey = qx - px, qy - py
        norm = math.hypot(ex, ey)
        if norm < 1e-300:
            continue
        # outward normal for CCW orientation
        d = ((ey) * (x - px) - (ex) * (y - py)) / norm
        worst = max(worst, d)
    return worst


def _segment_distance(p, q, point) -> float:
    px, py = p
    qx, qy = q
    x, y = point
    ex, ey = qx - px, qy - py
    denom = ex * ex + ey * ey
    if denom < 1e-300:
        return math.hypot(x - px, y - py)
    t = max(0.0, min(1.0, ((x - px) * ex + (y - py) * ey) / denom))
    cx, cy = px + t * ex, py + t * ey
    return math.hypot(x - cx, y - cy)


def membership_oracle(system: LinearSystem, point: tuple[float, float], tol: float = FEAS_TOL) -> bool:
    """True iff some nonnegative rate vector satisfies the system and
    projects to `point` (within tol), decided by basic-solution enumeration."""
    return _distance_to_hull(_oracle_hull(system), point) <= tol


# ---------------------------------------------------------------------------
# Containment and comparison
# ---------------------------------------------------------------------------


def halfplane_violation(poly: Polytope2D, point: tuple[float, float]) -> float:
    """Max violation of `point` against the half-planes and the quadrant."""
    worst = max(-point[0], -point[1])
    for h in poly.halfplanes:
        worst = max(worst, h.value(point[0], point[1]))
    return worst


def containment_margin(outer: Polytope2D, inner: Polytope2D) -> float:
    """Worst violation of inner's vertices against outer (<= 0 means contained)."""
    if inner.is_empty:
        return -math.inf
    if outer.is_empty:
        return math.inf
    return max(halfplane_violation(outer, v) for v in inner.vertices)


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
        "halfplanes": [[float(h.a1), float(h.a2), float(h.b)] for h in p.halfplanes],
    }


def polytope_from_json(obj: dict) -> Polytope2D:
    hps = tuple(
        HalfPlane(Fraction(a1).limit_denominator(10**9), Fraction(a2).limit_denominator(10**9), float(b))
        for a1, a2, b in obj["halfplanes"]
    )
    verts = tuple((float(x), float(y)) for x, y in obj["vertices"])
    return Polytope2D(hps, verts)


def vertices_csv(p: Polytope2D) -> str:
    lines = ["R1,R2"]
    for x, y in p.vertices:
        lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def save_polytope(p: Polytope2D, path) -> None:
    from pathlib import Path

    Path(path).write_text(json.dumps(polytope_to_json(p), sort_keys=True))
