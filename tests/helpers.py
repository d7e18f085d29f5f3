"""Shared fixtures: canonical distributions used across test modules,
log-ratio references for the information measures, a cell-by-cell
reference for the factorized sampler, a sense-by-sense reference for
the LE normal form of an instantiated schema, and point-by-point
references for the region membership tests."""

import itertools
import math

import numpy as np

from cifc.channel import canonical_channel, random_channel
from cifc.probability import (
    JointDistribution,
    RandomVariableSet,
    compile_exprs,
    extend_through_channel,
)
from cifc.regions import GE, LE, LinearSystem, Row, builtin_schema


def square_assignment() -> JointDistribution:
    """Noiseless anchor: auxiliaries degenerate except U1pb = X1, X2 uniform."""
    names = ("U1c", "U2c", "U1pb", "U2pb", "X1", "X2")
    sizes = (1, 1, 2, 1, 2, 2)
    prob = np.zeros(sizes)
    for a in range(2):
        for c in range(2):
            prob[0, 0, a, 0, a, c] = 0.25
    d = JointDistribution(RandomVariableSet(names, sizes), prob)
    return extend_through_channel(d, canonical_channel("orthogonal_noiseless"))


def degenerate_rtd_distribution() -> JointDistribution:
    """Every auxiliary and input constant; the region collapses to (0, 0)."""
    rtd = builtin_schema("RTD")
    rvs = rtd.rv_set(2, overrides=dict.fromkeys(rtd.variables, 1))
    d = JointDistribution(rvs, np.ones([1] * len(rtd.variables)))
    return extend_through_channel(d, random_channel(3, sizes=(1, 1, 2, 2)))


def _marginal(d: JointDistribution, names) -> tuple[np.ndarray, tuple[str, ...]]:
    keep = set(names)
    drop = tuple(i for i, n in enumerate(d.names) if n not in keep)
    return d.prob.sum(axis=drop), tuple(n for n in d.names if n in keep)


def _xlogratio(p: np.ndarray, num: list[np.ndarray], den: list[np.ndarray]) -> float:
    """sum over p > 0 of p * log2(prod(num) / prod(den)), all broadcast to p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = sum(np.log2(np.where(q > 0, q, 1.0)) for q in num) - sum(
            np.log2(np.where(q > 0, q, 1.0)) for q in den
        )
    mask = p > 0
    return float(np.sum(p[mask] * np.broadcast_to(logs, p.shape)[mask]))


def reference_mutual_information(d: JointDistribution, left, right, given=()) -> float:
    """I(A;B|C) = sum p(abc) log2 p(abc) p(c) / (p(ac) p(bc)), unclamped.

    The log-ratio formula, independent of the entropy-vector kernel.
    """
    p, order = _marginal(d, (*left, *right, *given))
    ax_l = tuple(i for i, n in enumerate(order) if n in left)
    ax_r = tuple(i for i, n in enumerate(order) if n in right)
    pac = p.sum(axis=ax_r, keepdims=True)
    pbc = p.sum(axis=ax_l, keepdims=True)
    return _xlogratio(p, [p, pac.sum(axis=ax_l, keepdims=True)], [pac, pbc])


def reference_entropy(d: JointDistribution, names, given=()) -> float:
    """H(A|C) = sum p(ac) log2 p(c) / p(ac), unclamped."""
    p, order = _marginal(d, (*names, *given))
    ax_a = tuple(i for i, n in enumerate(order) if n in names)
    return _xlogratio(p, [p.sum(axis=ax_a, keepdims=True)], [p])


def reference_factored_joint(rvs, factors, rng, mode="free", det=(), struct_deps=()):
    """A factor chain's joint drawn cell by cell, one generator call per row.

    The per-cell loop that the vectorized sampler replaces: Dirichlet(1)
    rows in row-major order of the sorted conditioning cells, per-variable
    marginals in "flat_det", one integer per cell (or one table per
    STRUCT_INPUT_DEPS entry) for the channel inputs in "det"/"flat_det",
    and indicators for paired copies.  Each joint cell is the left-to-right
    product of its factor values, starting from 1.
    """
    det, struct_deps = dict(det), dict(struct_deps)
    tables = []  # (given names, target names, {(given cell, target cell): p})
    for f in factors:
        targets = sorted(f.targets, key=rvs.axis)
        if len(targets) == 1 and targets[0] in det:
            given = list(det[targets[0]])
        else:
            given = sorted(f.given, key=rvs.axis)
        g_cells = list(itertools.product(*(range(rvs.size(n)) for n in given)))
        t_cells = list(itertools.product(*(range(rvs.size(n)) for n in targets)))
        table = {}
        if len(targets) == 1 and targets[0] in det:
            for g in g_cells:
                code = 0
                for n, v in zip(given, g):
                    code = code * rvs.size(n) + v
                for t in t_cells:
                    table[g, t] = float(t[0] == code)
        elif mode != "free" and any(n in ("X1", "X2") for n in targets):
            maps = []
            for n in targets:
                deps = struct_deps.get(n)
                if deps is None:
                    maps.append((None, rng.integers(0, rvs.size(n), size=len(g_cells))))
                else:
                    size = int(np.prod([rvs.size(d) for d in deps]))
                    maps.append((deps, rng.integers(0, rvs.size(n), size=size)))
            for i, g in enumerate(g_cells):
                value = []
                for deps, draws in maps:
                    code = i
                    if deps is not None:
                        code = 0
                        for d in deps:
                            code = code * rvs.size(d) + g[given.index(d)]
                    value.append(int(draws[code]))
                for t in t_cells:
                    table[g, t] = float(list(t) == value)
        elif mode == "flat_det":
            marginals = [rng.dirichlet(np.ones(rvs.size(n))) for n in targets]
            for g in g_cells:
                for t in t_cells:
                    p = float(marginals[0][t[0]])
                    for m, v in zip(marginals[1:], t[1:]):
                        p = p * float(m[v])
                    table[g, t] = p
        else:
            for g in g_cells:
                row = rng.dirichlet(np.ones(len(t_cells)))
                for j, t in enumerate(t_cells):
                    table[g, t] = float(row[j])
        tables.append((given, targets, table))
    joint = np.empty(rvs.sizes)
    for cell in itertools.product(*(range(s) for s in rvs.sizes)):
        value = 1.0
        for given, targets, table in tables:
            g = tuple(cell[rvs.axis(n)] for n in given)
            t = tuple(cell[rvs.axis(n)] for n in targets)
            value = value * table[g, t]
        joint[cell] = value
    return joint


def reference_le_system(schema, d, pin=None, vacuous=False, drop=()) -> LinearSystem:
    """A schema's LE-normal system at d, transcribed from the conversion
    that ran before `instantiate` returned LE rows itself.

    Each constraint keeps its sense and schema-oriented rhs while it is
    pinned (shift summed over its name-sorted coefficients), pruned (a GE
    row with nonnegative coefficients and rhs <= tol, or a variable-free
    LE row with rhs >= -tol) and dropped; only then are its coefficients
    laid out over the remaining rate names, a GE row negated.
    """
    tol = 1e-9
    pin = pin or {}
    values = compile_exprs(tuple(c.rhs for c in schema.constraints))(d).tolist()
    names = tuple(n for n in schema.rate_names() if n not in pin)
    rows = []
    for c, value in zip(schema.constraints, values):
        coeffs = dict(c.coeffs)
        shift = sum(k * pin[n] for n, k in coeffs.items() if n in pin)
        coeffs = {n: k for n, k in coeffs.items() if n not in pin}
        rhs = value - shift
        if vacuous and c.sense == GE and rhs <= tol and all(k >= 0 for k in coeffs.values()):
            continue
        if vacuous and c.sense == LE and rhs >= -tol and not coeffs:
            continue
        if c.label in drop:
            continue
        vec = [coeffs.get(n, 0) for n in names]
        if c.sense == LE:
            rows.append(Row(tuple(vec), float(rhs), c.label))
        else:
            rows.append(Row(tuple(-v for v in vec), -float(rhs), c.label))
    r1, r2 = (tuple(schema.projection_coeffs(w).get(n, 0) for n in names) for w in ("R1", "R2"))
    return LinearSystem(names, tuple(rows), r1, r2)


def reference_halfplane_violation(poly, point) -> float:
    """Max violation of one point against the half-planes and the quadrant,
    one half-plane at a time; the first maximum wins, as in `max`.  Meant
    for nonempty regions: on EMPTY it checks only the quadrant."""
    worst = max(-point[0], -point[1])
    for h in poly.halfplanes:
        worst = max(worst, h.value(point[0], point[1]))
    return worst


def reference_distance_to_hull(hull, point) -> float:
    """Signed distance of one point: <= 0 inside, > 0 outside (degenerate
    hulls allowed), +inf with no hull."""
    x, y = point
    if not hull:
        return math.inf
    if len(hull) == 1:
        return math.hypot(x - hull[0][0], y - hull[0][1])
    if len(hull) == 2:
        return reference_segment_distance(hull[0], hull[1], point)
    hull = list(hull)
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


def reference_segment_distance(p, q, point) -> float:
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
