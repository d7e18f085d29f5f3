"""Projection of rate constraint systems onto the (R1, R2) plane.

Every system arrives in LE normal form as a `regions.LinearSystem`: a
fixed `RateStructure` plus a right-hand side `b`, one vector or a batch
of K.  This module knows rate structures only, never schemas.
Coefficients are held exactly (integers, reduced by gcd) throughout the
elimination, and every right-hand side stays symbolic: a nonnegative
integer multiplier vector over the system's rows.  Each structure is
therefore eliminated once (`compile_projection`), and a system only
evaluates its right-hand sides (floats in bits), a batch's all at once:
only each region's hull is built alone; its half-planes and their labels,
and the comparisons of two regions, take one pass over a whole batch.
The support of a multiplier names the rows a projected half-plane comes
from, so every half-plane carries the labels of its source rows.
The projector and the membership oracle are deliberately independent
code paths: the first runs variable elimination, the second enumerates
every basic solution of the full-dimensional system and takes the convex
hull of its projections.  The oracle, too, does once per coefficient
structure what does not depend on the right-hand side: over row and
rate subsets listed in colex order (built directly, with no sort) it
builds every integer minor of the coefficients exactly in int64, level by
level from the one below as r signed products of 2-D takes, and keeps
each nonzero one as a basis with its adjugate, one signed gather of the
level below.  A system's basic solutions are then Cramer's rule, one
`einsum` and one division per level, with no factorization.  It refuses
a structure whose minors could overflow int64, or whose kept bases
float64 cannot hold, which one test of each level's largest minor decides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, Unbounded
from .probability import rowwise
from .regions import LinearSystem, RateStructure

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
    points: list[tuple[float, float]], collinear_eps: float
) -> list[tuple[float, float]]:
    """Monotone chain; handles 0/1/2 points, and collinear points give
    their two endpoints.

    A middle point is dropped when the chain turns right there, or turns
    left by less than `collinear_eps` times the product of the adjacent edge
    lengths while going on forward; a near-collinear reversal (the tip of a
    thin spike) is a vertex.  With 0 only exact non-left turns are dropped.
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
                forward = (ax - ox) * (p[0] - ax) + (ay - oy) * (p[1] - ay) > 0
                if cross <= 0 or (cross <= lim and forward):
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _merge_close(points: list[tuple[float, float]], tol: float) -> list[tuple[float, float]]:
    """The points in order, each dropped if within tol of one kept before.
    An exact repeat is skipped up front: it is never kept."""
    out: list[tuple[float, float]] = []
    for p in dict.fromkeys(points):
        if all(abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol for q in out):
            out.append(p)
    return out


def _order_ccw(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if len(points) <= 1:
        return points
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def project_or_empty(system: LinearSystem) -> Polytope2D | list[Polytope2D]:
    """Project {x >= 0 : rows} onto (R1, R2) = (r1 . x, r2 . x).

    The system's coefficients are eliminated once per structure (cached);
    each call then only evaluates its right-hand sides.  One system gives
    its region, or EMPTY when it admits no nonnegative solution; a batched
    system gives the list of its K regions.  Raises Unbounded when a region
    is nonempty but unbounded (a missing decoding constraint).
    """
    s = system.structure
    regions = compile_projection(s).polytopes(np.atleast_2d(system.b), s.labels)
    return regions if system.b.ndim == 2 else regions[0]


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
        object.__setattr__(self, "_mu", np.array(mu_rows))
        object.__setattr__(self, "_support", self._mu != 0)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_group", np.repeat(np.arange(len(normals)), counts))
        object.__setattr__(self, "_a", a)
        # per pair of normals: both indices, both normals and their determinant
        object.__setattr__(self, "_pairs", (i, j, a[i, 0], a[i, 1], a[j, 0], a[j, 1],
                                            a[i, 0] * a[j, 1] - a[i, 1] * a[j, 0]))
        object.__setattr__(self, "_feas", np.asarray(self.feasibility, dtype=float).reshape(-1, width))
        # each normal scaled to max(|a1|, |a2|) = 1, and the normals in order of angle
        object.__setattr__(self, "_top", np.abs(a).max(axis=1))
        object.__setattr__(self, "_unit", (a / self._top[:, None]).tolist())
        object.__setattr__(self, "_order", np.argsort(np.arctan2(a[:, 1], a[:, 0]), kind="stable"))
        object.__setattr__(self, "_names", {})  # by labels, then source-row mask: its names

    def _vertices(self, b: np.ndarray):
        """For rhs b, (m,) or (K, m): the rhs of every projected row, the
        smallest per normal, the candidate vertices x, y (the pairwise
        intersections of the normals' lines) and `ok`, which of them satisfy
        every row within the feasibility slack (none for an empty region).
        """
        tol = FEAS_TOL * np.maximum(1.0, np.abs(b).max(axis=-1, initial=0.0, keepdims=True))
        feasible = ~(rowwise(self._feas, b) < -tol).any(axis=-1, keepdims=True)
        row_rhs = rowwise(self._mu, b)
        rhs = np.minimum.reduceat(row_rhs, self._starts, axis=-1)
        i, j, ai0, ai1, aj0, aj1, det = self._pairs
        ri, rj = rhs[..., i], rhs[..., j]
        xy = np.empty((*rhs.shape[:-1], 2, len(det)))  # the (x, y) of each candidate
        np.divide(ri * aj1 - rj * ai1, det, out=xy[..., 0, :])
        np.divide(ai0 * rj - aj0 * ri, det, out=xy[..., 1, :])
        xy += 0.0
        ok = (self._a @ xy <= (rhs + tol)[..., None]).all(axis=-2)
        return row_rhs, rhs, xy[..., 0, :], xy[..., 1, :], ok & feasible

    def polytopes(self, b: np.ndarray, labels: tuple[str, ...]) -> list[Polytope2D]:
        """The projected region at each row of b, (K, m), or EMPTY, each
        half-plane named by the `labels` of the rows of A that give it (see
        Polytope2D).  Raises Unbounded when a region is nonempty but unbounded.

        Only the hull is built region by region; the normals that touch it
        (every normal against every hull vertex), their half-planes in
        order of angle and their labels are found for the batch at once.
        """
        row_rhs, rhs, x, y, ok = self._vertices(b)
        if not self.bounded and ok.any():
            raise Unbounded("the projected region is unbounded; a decoding constraint is missing")
        scale = np.maximum(1.0, np.abs(rhs).max(axis=-1))
        tight = TIGHT_TOL * scale
        hulls = []
        for xk, yk, okk, merge in zip(x, y, ok, (VERTEX_MERGE_TOL * scale).tolist()):
            points = _merge_close(list(zip(xk[okk].tolist(), yk[okk].tolist())), merge)
            hulls.append(_order_ccw(_convex_hull(points, collinear_eps=1e-9)))
        # every normal against every hull vertex; a padded vertex, NaN, is never tight
        uv, _ = _padded(hulls)
        gap = np.abs(self._a[:, :1] * uv[:, None, :, 0] + self._a[:, 1:] * uv[:, None, :, 1]
                     - rhs[..., None])
        k, n = np.nonzero((np.fmin.reduce(gap, axis=-1) <= tight[:, None])[:, self._order])
        n = self._order[n]
        # per normal, the union of the supports of its rows tied at the minimum
        tied = (row_rhs <= rhs[:, self._group] + tight[:, None])[..., None] & self._support
        used = np.logical_or.reduceat(tied, self._starts, axis=1)[k, n]
        keys = used.view(np.dtype((np.void, used.shape[-1]))).ravel().tolist()
        names = self._names.setdefault(labels, {})
        for i, key in enumerate(keys):
            if key not in names:
                names[key] = tuple(dict.fromkeys(lab for lab, u in zip(labels, used[i]) if u))
        planes = [HalfPlane(*self._unit[j], r, names[key])
                  for j, r, key in zip(n.tolist(), (rhs[k, n] / self._top[n]).tolist(), keys)]
        cuts = np.cumsum(np.bincount(k, minlength=len(hulls))).tolist()
        return [Polytope2D(tuple(planes[lo:hi]), tuple(hull)) if hull else EMPTY
                for lo, hi, hull in zip([0] + cuts, cuts, hulls)]

    def support(self, b: np.ndarray, w1: float | np.ndarray, w2: float | np.ndarray):
        """Maximize w1*R1 + w2*R2 over the region at rhs b.

        Returns (R1, R2, value) at a maximizing vertex, or None when the
        rate system is infeasible.  Among vertices within TIE_TOL of the
        maximum (a tied optimal face), the one with the largest R1 + R2,
        then the largest R1, then the last candidate, is returned.  A
        batch b of shape (K, m) takes one weight pair per row (or one for
        all) and gives the list of its K results, each as its row alone.
        """
        _, _, x, y, ok = self._vertices(np.atleast_2d(b))
        vals = np.where(ok, np.reshape(w1, (-1, 1)) * x + np.reshape(w2, (-1, 1)) * y, -np.inf)
        best = vals.max(axis=-1, keepdims=True)
        top = ok & (vals >= best - TIE_TOL * np.maximum(1.0, np.abs(best)))
        for key in (x + y, x, np.arange(x.shape[-1])):  # as a stable lexsort's last
            key = np.where(top, key, -np.inf)
            top &= key == key.max(axis=-1, keepdims=True)
        found = [(float(x[k, j]), float(y[k, j]), float(best[k, 0])) if top[k, j] else None
                 for k, j in enumerate(top.argmax(axis=-1))]
        return found if np.ndim(b) == 2 else found[0]


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
def compile_projection(structure: RateStructure) -> CompiledProjection:
    """Eliminate {x >= 0 : rows . x <= b} onto (r1 . x, r2 . x) with b symbolic.

    Each projection equation R_t = r_t . x is substituted first, pivoting on
    its smallest nonzero rate coefficient; an equation with no rate left
    becomes two explicit rows in (R1, R2).  The remaining pure inequality
    system is eliminated with exact integers and Chernikov's history rule
    only; nothing is pruned by the value of a right-hand side, so the result
    holds at every b.
    """
    rows, r1, r2 = structure.rows, structure.r1, structure.r2
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


# ---------------------------------------------------------------------------
# Independent membership oracle (no elimination code shared)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _colex(size: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-subsets of range(size), (C(size, r), r), in colex order, so a
    subset's index is its colex rank sum_i C(s_i, i + 1), and the rank of
    each with its t-th element dropped, (C(size, r), r); read-only, shared
    by every structure with as many rows or rates.

    Built without sorting, from the (r - 1)-subsets: grouped by largest
    element e, the r-subsets are the C(e, r - 1) smallest (r - 1)-subsets,
    which are those of range(e), each with e appended.  Dropping e gives
    the prefix's own rank; dropping an earlier element, the prefix's drop
    rank plus e's term C(e, r - 1).
    """
    if r == 0:
        subs, drop = np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0), dtype=np.intp)
    else:
        prefix, prefix_drop = _colex(size, r - 1)
        last = np.arange(r - 1, size)
        counts = np.array([math.comb(e, r - 1) for e in last.tolist()], dtype=np.intp)
        ends = np.cumsum(counts)
        k = np.arange(math.comb(size, r)) - np.repeat(ends - counts, counts)
        subs, drop = np.empty((len(k), r), dtype=np.intp), np.empty((len(k), r), dtype=np.intp)
        subs[:, :-1], subs[:, -1] = prefix[k], np.repeat(last, counts)
        drop[:, :-1], drop[:, -1] = prefix_drop[k], k
        drop[:, :-1] += np.repeat(counts, counts)[:, None]
    subs.flags.writeable = drop.flags.writeable = False
    return subs, drop


@lru_cache(maxsize=256)
def _oracle_bases(coeffs: tuple[tuple[int, ...], ...], n: int) -> tuple[np.ndarray, tuple]:
    """Every nonsingular basis of {x >= 0 : coeffs . x <= b}, for any b.

    A basis is an n-subset of the m = rows + n constraint rows (the system's
    rows, then the nonnegativity facets -x_i <= 0): r system rows S and the
    facets of the rates outside an r-set J, with a nonzero integer minor
    det C[S, J]; its basic solution is x_J = adj(C[S, J]) . b_S / det, every
    other rate 0.  As sum_r C(rows, r) C(n, r) = C(m, n), the levels r = 0..n
    hold every subset once.  Which are bases depends on the coefficients
    only, so each structure builds, once and exactly in int64, every r x r
    minor from level r - 1 by Laplace expansion along S's first row: r
    signed products of two 2-D takes, one of that row's coefficients and
    one of the minors below, summed.  Row and rate subsets are indexed by
    colex rank (`_colex`), so dropping an element is a rank lookup and an
    adjugate a signed gather of a float copy of the level below.  Returns
    the (m, n) row matrix and, per level r >= 1, the kept (k_r, r) subsets
    S and J, in colex order of S and then of J, their (k_r, r, r) adjugates
    and (k_r,) determinants (exact floats); r = 0, the origin, needs no
    solve.  Raises InvalidParameter, before anything is allocated, when the
    subset count exceeds MAX_ORACLE_SUBSETS or a minor could overflow int64
    (Hadamard: none exceeds the product of the largest row norms; int64
    products and sums wrap modulo 2**64, so only the minors must fit), and,
    caching no bases, when a kept determinant or adjugate entry reaches
    2**53, past which float64 does not hold every integer.  Each level's
    largest minor is tested once: it is the level's largest determinant,
    and its adjugate entries are minors of the level below, tested there.
    """
    rows = len(coeffs)
    m = rows + n
    subsets = math.comb(m, n)
    if subsets > MAX_ORACLE_SUBSETS:
        raise InvalidParameter(f"the oracle would solve C({m}, {n}) = {subsets} "
                               f"row subsets, above the cap of {MAX_ORACLE_SUBSETS}")
    top = min(rows, n)
    squares = sorted((max(1, sum(c * c for c in row)) for row in coeffs), reverse=True)
    if math.prod(squares[:top]) >= 2**126:
        raise InvalidParameter(f"the oracle's C({m}, {n}) row subsets allow minors beyond "
                               f"int64 by the rows' Hadamard bound")
    c = np.asarray(coeffs, dtype=np.int64).reshape(rows, n)
    minors = np.ones((1, 1), dtype=np.int64)  # level 0: the empty minor
    levels = []
    for r in range(1, top + 1):
        s, s_drop = _colex(rows, r)
        j, j_drop = _colex(n, r)
        below = minors
        cs, bs = c[s[:, 0]], below[s_drop[:, 0]]
        minors = np.zeros((len(s), len(j)), dtype=np.int64)
        for t in range(r):
            term = cs.take(j[:, t], 1)
            term *= bs.take(j_drop[:, t], 1)
            if t % 2:
                minors -= term
            else:
                minors += term
        if np.abs(minors).max() >= 2**53:
            raise InvalidParameter(f"the oracle's C({m}, {n}) row subsets include a basis "
                                   f"whose determinant or adjugate is not exact in float64")
        kept = np.flatnonzero(minors)
        si, ji = np.divmod(kept, minors.shape[1])
        det = minors.reshape(-1).take(kept).astype(float)
        # adj[k, p, q] = (-1)**(p + q) below[s_drop[si_k, q], j_drop[ji_k, p]]
        sign = (-1.0) ** np.add.outer(np.arange(r), np.arange(r))
        adj = below.astype(float)[s_drop.take(si, 0)[:, None, :], j_drop.take(ji, 0)[:, :, None]]
        adj *= sign
        adj += 0.0  # a zero entry of a negative cofactor reads +0.0, not -0.0
        levels.append((s.take(si, 0), j.take(ji, 0), adj, det))
    return np.vstack([c.astype(float), -np.eye(n)]), tuple(levels)


@lru_cache(maxsize=256)
def _oracle_hull(system: LinearSystem) -> tuple[tuple[float, float], ...]:
    """All basic feasible solutions of the full system, projected and hulled.

    The nonsingular bases come from _oracle_bases, once per coefficient
    structure, as exact integer minors; per system only the basic solutions
    change, and Cramer's rule gives them as one `einsum` and one division
    per level, each level written through flat indices into its own block
    of rows after the origin.  The solutions satisfying the whole system
    within FEAS_TOL are clipped to x >= 0 (the slack also admits a rate of
    -FEAS_TOL) and projected.  The projection of the polytope is the convex
    hull of the projected solutions because the systems handled here are
    bounded.  This path shares no code with the elimination: no
    multipliers, no Chernikov rule, no CompiledProjection.  Raises
    InvalidParameter for a batch of systems and when _oracle_bases refuses
    the structure.
    """
    n = len(system.variables)
    a, levels = _oracle_bases(system.rows, n)
    b = system.one().b
    ends = np.cumsum([1] + [len(det) for *_, det in levels])  # row 0: the origin
    sols = np.zeros((ends[-1], n))
    flat = sols.reshape(-1)
    for (s, j, adj, det), lo, hi in zip(levels, ends, ends[1:]):
        # basis k of the level is row lo + k; its rates J are flat lo*n + k*n + J
        flat[np.arange(lo * n, hi * n, n)[:, None] + j] = (
            np.einsum("kij,kj->ki", adj, b.take(s)) / det[:, None])
    b = np.concatenate((b, np.zeros(n)))
    feas = (a @ sols.T <= b[:, None] + FEAS_TOL).all(axis=0)
    good = np.maximum(sols[feas], 0.0)
    x, y = (good @ np.asarray(r, dtype=float) for r in (system.r1, system.r2))
    first = np.sort(np.unique(x + 1j * y, return_index=True)[1])
    # snap away ulp jitter between repeated basic solutions (the first copy of
    # each exact repeat) so the hull sees one clean coordinate per geometric vertex
    points = [(round(u, 12) + 0.0, round(v, 12) + 0.0)
              for u, v in zip(x[first].tolist(), y[first].tolist())]
    hull = _convex_hull(_merge_close(points, 1e-12), collinear_eps=1e-12)
    return tuple(_order_ccw(hull))


def oracle_polygon(system: LinearSystem) -> tuple[tuple[float, float], ...]:
    """CCW hull of the projected region per the enumeration oracle."""
    return _oracle_hull(system)


def _points(points) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of an (n, 2) array-like of points."""
    return np.asarray(points, dtype=float).reshape(-1, 2).T


def _padded(rows, fill=(math.nan, math.nan)) -> tuple[np.ndarray, np.ndarray]:
    """K lists of tuples as one (K, P, len(fill)) array, each list padded
    with `fill` to P = max(1, longest), and the (K, P) mask of real tuples."""
    counts = [len(row) for row in rows]
    real = np.arange(max([1, *counts])) < np.array(counts, dtype=np.intp)[:, None]
    out = np.full((*real.shape, len(fill)), fill)
    out[real] = np.reshape([t for row in rows for t in row], (-1, len(fill)))
    return out, real


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


# ---------------------------------------------------------------------------
# Containment and comparison
# ---------------------------------------------------------------------------


def _violations(polys, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(K, P): each point of row k of x and y against polys[k], its max
    violation of the half-planes and the quadrant, +inf for an empty
    region; a padded half-plane, 0 <= +inf, never raises it."""
    empty = [p.is_empty for p in polys]
    if all(empty):
        return np.full(x.shape, math.inf)
    planes, _ = _padded([[(h.a1, h.a2, h.b) for h in p.halfplanes] for p in polys], (0, 0, math.inf))
    a1, a2, b = planes.transpose(2, 1, 0)[..., None]
    worst = np.where(-y > -x, -y, -x)
    for v in a1 * x + a2 * y - b:  # one (K, P) slice per half-plane, in order
        np.copyto(worst, v, where=v > worst)  # np.where(v > worst, v, worst), in place
    worst[np.array(empty, dtype=bool)] = math.inf
    return worst


def halfplane_violation(poly: Polytope2D, points) -> np.ndarray:
    """Each point's max violation of the half-planes and the quadrant; the
    empty region contains no point, so every violation is +inf there."""
    return _violations([poly], *(c[None] for c in _points(points)))[0]


def containment_margins(outers, inners) -> list[float]:
    """Per pair, the worst violation of inner's vertices against outer
    (<= 0 means contained), -inf for an empty inner region."""
    xy, real = _padded([p.vertices for p in inners])
    worst = _violations(outers, xy[..., 0], xy[..., 1])
    # the value at the first argmax; a -0.0 on an axis reads as 0.0
    return (worst.max(axis=-1, initial=-math.inf, where=real) + 0.0).tolist()


def polytopes_equal(a, b, tol: float = 1e-9) -> list[bool]:
    """Per pair, whether the vertex sets match within tol in both directions
    (an empty region equals only an empty one); a padded vertex, NaN, is
    close to none and needs covering by none."""
    (p, p_real), (q, q_real) = (_padded([r.vertices for r in c]) for c in (a, b))
    close = (np.abs(p[:, :, None] - q[:, None]) <= tol).all(axis=-1)
    return ((close.any(axis=2) | ~p_real).all(axis=1)
            & (close.any(axis=1) | ~q_real).all(axis=1)).tolist()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def polytope_to_json(p: Polytope2D) -> dict:
    return {
        "vertices": [[float(x), float(y)] for x, y in p.vertices],
        "halfplanes": [[h.a1, h.a2, h.b, list(h.labels)] for h in p.halfplanes],
    }


def vertices_csv(p: Polytope2D) -> str:
    lines = ["R1,R2"]
    for x, y in p.vertices:
        lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"
