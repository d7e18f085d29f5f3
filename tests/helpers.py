"""Shared fixtures: canonical distributions used across test modules,
log-ratio references for the information measures, a dense-bincount
reference for the entropy pass, a cell-by-cell reference for the
factorized sampler, the one-pass reference for a climb's move, a
builder of rate systems from plain rows, a sense-by-sense reference
for the LE normal form of an instantiated schema, point-by-point
references for the region membership tests, region-at-a-time
references for a batch's regions, containment margins and vertex-set
equality, the uncompiled enumeration oracle, a sorted-combinations
reference for the oracle's
colex tables and a one-gather-per-level reference for its exact bases,
the constraints the unified region's remark lets
drop when certain rates vanish and their check, the
one-lambda-at-a-time frontier search, the identity claims and
merged bounds as Python builders, the form `cifc.verify`'s claims
table replaced, a chain drawn alone for generic chains, instances and
random channels each drawn alone on its own default_rng(seed), and the value
through `compile_exprs` of one expression, given as an MIExpr, an atom
or text that `parse_expr` reads."""

import itertools
import math
from functools import partial

import numpy as np

from cifc.channel import (
    Channel,
    canonical_channel,
    check_integer,
    normalize_exponentials,
    random_channel,
)
from cifc.errors import Unbounded
from cifc.polytope import (
    EMPTY,
    FEAS_TOL,
    TIE_TOL,
    TIGHT_TOL,
    VERTEX_MERGE_TOL,
    HalfPlane,
    Polytope2D,
    _convex_hull,
    _merge_close,
    _order_ccw,
    compile_projection,
    polytopes_equal,
    project_or_empty,
)
from cifc.probability import (
    JointDistribution,
    MIExpr,
    RandomVariableSet,
    _marginal_plan,
    compile_exprs,
    extend_through_channel,
)
from cifc.regions import (
    GE,
    LE,
    LinearSystem,
    RateStructure,
    builtin_schema,
    compile_schema,
    instantiate,
    parse_expr,
)
from cifc.sampling import (
    SAMPLING_MODES,
    _chain_plan,
    _draw,
    _improves,
    _joints,
    _schema_plan,
    sample_instances,
)
from cifc.verify import CheckReport, FrontierResult, IdentityCheck, SuiteReport


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
    """p over `names` (a string is one name), axes in d's order; an unknown
    name raises UnknownVariable."""
    names = (names,) if isinstance(names, str) else tuple(names)
    for n in names:
        d.rvs.axis(n)
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
    `struct_deps` entry) for the channel inputs in "det"/"flat_det",
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


def sample_factored(rvs, spec, seed: int) -> JointDistribution:
    """A joint over `rvs` whose conditionals follow the chain `spec`, each
    row a Dirichlet(1) draw: the package's draw of a generic chain, with no
    schema, sampling mode or channel."""
    blocks = _draw([_chain_plan(rvs, spec.factors)],
                   [np.random.default_rng(check_integer(seed, "seed"))])
    return JointDistribution(rvs, _joints(rvs, blocks)[0].prob)


def reference_random_channel(seed: int, sizes) -> Channel:
    """The random channel of `seed` at `sizes`, drawn alone on default_rng(seed)."""
    n1, n2, m1, m2 = sizes
    exps = np.random.default_rng(seed).standard_exponential((n1, n2, m1 * m2))
    return Channel(normalize_exponentials(exps).reshape(n1, n2, m1, m2).transpose(2, 3, 0, 1))


def reference_instances(schema, channels, seeds, modes, size: int = 2) -> np.ndarray:
    """`sample_instances(...).prob`, each instance drawn alone on its own
    default_rng(seed) and extended through its channel alone."""
    probs = []
    for k, (seed, mode) in enumerate(zip(seeds, modes)):
        plan = _schema_plan(schema, size, mode)
        joint = _joints(plan.rvs, _draw([plan], [np.random.default_rng(seed)]))
        channel = channels if isinstance(channels, Channel) else channels[k]
        probs.append(extend_through_channel(joint, channel).prob[0])
    return np.stack(probs)


def expr_value(d: JointDistribution, e) -> float:
    """The value at d of an MIExpr, of an atom (`mi(...)` or
    `entropy_term(...)`) or of an expression's text, read by `parse_expr`."""
    if isinstance(e, str):
        e = parse_expr(e)
    return float(compile_exprs((e if isinstance(e, MIExpr) else MIExpr(((1, e),)),))(d)[0])


def reference_propose(plan, blocks, k, rng) -> tuple[int, np.ndarray]:
    """(index, new block) for one move of row k of `blocks`, which is left
    as it is: the one-pass move that `_draw_move` and `_apply_move` split
    in two, frozen so that the sequential climb does not lean on them."""
    idx = plan.free[rng.integers(0, len(plan.free))]
    b = plan.blocks[idx]
    t_sizes = b.t_sizes
    n = math.prod(t_sizes)
    move = rng.random()
    if move < 0.06:
        new = np.empty((1, *b.shape))
        b._replace(at=0).fill(rng.standard_exponential((1, b.n_cells * n)), new)
        return idx, new[0]
    new = blocks[idx][k].copy()
    flat = new.reshape(-1, n)
    row = rng.integers(0, flat.shape[0])
    if len(t_sizes) > 1 and move < 0.40:
        row_nd = flat[row].reshape(t_sizes)
        j = int(rng.integers(0, len(t_sizes)))
        rest = row_nd.sum(axis=j, keepdims=True)
        others = tuple(i for i in range(len(t_sizes)) if i != j)
        if move < 0.23:
            dist = np.zeros(t_sizes[j])
            dist[np.argmax(row_nd.sum(axis=others))] = 1.0
        else:
            dist = np.full(t_sizes[j], 1.0 / t_sizes[j])
        flat[row] = (rest * np.expand_dims(dist, others)).reshape(-1)
    elif move < 0.55:
        peak = np.zeros(n)
        peak[np.argmax(flat[row])] = 1.0
        flat[row] = peak
    elif move < 0.70:
        alpha = (1.0, 0.4)[rng.integers(0, 2)]
        flat[row] = (1 - alpha) * flat[row] + alpha / n
    else:
        alpha = (0.5, 0.15, 0.03)[rng.integers(0, 3)]
        fresh_row = normalize_exponentials(rng.standard_exponential(n))
        flat[row] = (1 - alpha) * flat[row] + alpha * fresh_row
    return idx, new


def reference_entropy_vector(d: JointDistribution, subsets) -> np.ndarray:
    """entropy_vector with no cell left out: a bincount per row over every
    (subset, joint cell) label of the marginal plan."""
    labels, starts, total = _marginal_plan(d.rvs, tuple(map(tuple, subsets)))
    rows = d.prob.reshape(-1, math.prod(d.rvs.sizes))
    marg = np.array([np.bincount(labels, weights=np.tile(q, len(starts)), minlength=total)
                     for q in rows]).reshape(len(rows), total)
    terms = marg * np.log2(marg, out=np.zeros(marg.shape), where=marg > 0.0)
    h = -np.add.reduceat(terms, starts, axis=1) if len(starts) else terms
    return h.reshape(*d.prob.shape[:d.prob.ndim - len(d.rvs.sizes)], len(starts))


def make_system(variables, rows, b, r1, r2, labels=None) -> LinearSystem:
    """A rate system from plain lists: integer rows over `variables`, one
    rhs per row, the projection vectors, and the row labels ("" each
    unless given)."""
    labels = ("",) * len(rows) if labels is None else tuple(labels)
    rows = tuple(tuple(int(c) for c in row) for row in rows)
    return LinearSystem(RateStructure(tuple(variables), rows, tuple(r1), tuple(r2), labels), b)


def drop_vacuous(system: LinearSystem) -> LinearSystem:
    """The system without the rows that `nonvacuous` leaves out."""
    return system.drop(*(lab for lab, kept in zip(system.labels, system.nonvacuous()) if not kept))


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
    names = tuple(n for n in schema.rate_vars if n not in pin)
    rows, b, labels = [], [], []
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
            rows.append(vec)
            b.append(float(rhs))
        else:
            rows.append([-v for v in vec])
            b.append(-float(rhs))
        labels.append(c.label)
    r1, r2 = (tuple(schema.projection_coeffs(w).get(n, 0) for n in names) for w in ("R1", "R2"))
    return make_system(names, rows, b, r1, r2, labels)


def reference_halfplane_violation(poly, point) -> float:
    """Max violation of one point against the half-planes and the quadrant,
    one half-plane at a time; the first maximum wins, as in `max`.  Meant
    for nonempty regions: on EMPTY it checks only the quadrant."""
    worst = max(-point[0], -point[1])
    for h in poly.halfplanes:
        worst = max(worst, h.a1 * point[0] + h.a2 * point[1] - h.b)
    return worst


def reference_polytopes(projection, b, labels) -> list:
    """A batch's regions, b (K, m), one region at a time through
    `reference_region`, as `CompiledProjection.polytopes` built them before
    it found the touching normals and their labels for the whole batch."""
    row_rhs, rhs, x, y, ok = projection._vertices(b)
    scale = np.maximum(1.0, np.abs(rhs).max(axis=-1))
    tight = TIGHT_TOL * scale
    tied = (row_rhs <= rhs[:, projection._group] + tight[:, None])[..., None] & projection._support
    sources = np.logical_or.reduceat(tied, projection._starts, axis=1)
    found = zip(rhs, x, y, ok, (VERTEX_MERGE_TOL * scale).tolist(), tight.tolist(), sources)
    return [reference_region(projection, *region, labels) for region in found]


def reference_region(projection, rhs, x, y, ok, merge, tight, sources, labels):
    """One region: its hull, then each normal against each hull vertex in
    Python, each tight one's labels built as it is found, the half-planes
    sorted by angle at the end."""
    if not ok.any():
        return EMPTY
    points = _merge_close(list(zip(x[ok].tolist(), y[ok].tolist())), merge)
    hull = _order_ccw(_convex_hull(points, collinear_eps=1e-9))
    halfplanes = []
    normals = [(int(a1), int(a2)) for a1, a2 in projection._a.tolist()]
    for (a1, a2), r, used in zip(normals, rhs.tolist(), sources.tolist()):
        if min(abs(a1 * u + a2 * v - r) for u, v in hull) <= tight:
            names = dict.fromkeys(lab for lab, u in zip(labels, used) if u)
            mx = max(abs(a1), abs(a2))
            halfplanes.append(HalfPlane(a1 / mx, a2 / mx, r / mx, tuple(names)))
    halfplanes.sort(key=lambda h: math.atan2(h.a2, h.a1))
    if not projection.bounded:
        raise Unbounded("the projected region is unbounded; a decoding constraint is missing")
    return Polytope2D(tuple(halfplanes), tuple(hull))


def reference_halfplane_violations(poly, points) -> np.ndarray:
    """The half-plane test of a whole point set, one region and one
    half-plane at a time, each a later `np.where(v > worst, ...)`."""
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    if poly.is_empty:
        return np.full(x.shape, math.inf)
    worst = np.where(-y > -x, -y, -x)
    for h in poly.halfplanes:
        v = h.a1 * x + h.a2 * y - h.b
        worst = np.where(v > worst, v, worst)
    return worst


def reference_containment_margin(outer, inner) -> float:
    """Worst violation of inner's vertices against outer, one pair at a time."""
    if inner.is_empty:
        return -math.inf
    violation = reference_halfplane_violations(outer, inner.vertices)
    return float(violation[violation.argmax()]) + 0.0


def reference_polytope_equal(a, b, tol: float = 1e-9) -> bool:
    """Vertex sets match within tol in both directions, one pair at a time."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty

    def covered(src, dst):
        return all(
            any(abs(x - u) <= tol and abs(y - v) <= tol for u, v in dst) for x, y in src
        )

    return covered(a.vertices, b.vertices) and covered(b.vertices, a.vertices)


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


def reference_oracle_hull(system: LinearSystem) -> tuple[tuple[float, float], ...]:
    """The enumeration oracle with nothing cached: every n-subset of rows is
    built, tested for a nonzero determinant and solved afresh for this
    system, and the feasible basic solutions are projected unclipped."""
    n = len(system.variables)
    m = len(system.rows) + n
    mats = [list(r) for r in system.rows]
    rhs = system.b.tolist()
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
        mask = np.abs(dets) > 0.5
        if not mask.any():
            continue
        sols = np.linalg.solve(sub_a[mask], sub_b[mask][..., None])[..., 0]
        feas = (a @ sols.T <= b[:, None] + FEAS_TOL).all(axis=0)
        good = sols[feas]
        if good.size:
            for x, y in zip(good @ r1, good @ r2):
                points.append((round(float(x), 12) + 0.0, round(float(y), 12) + 0.0))
    hull = _convex_hull(_merge_close(points, 1e-12), collinear_eps=1e-12)
    return tuple(_order_ccw(hull))


def reference_colex(size: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r-subsets of range(size) sorted by colex rank, and the rank of
    each with its t-th element dropped, from `itertools.combinations`."""
    binom = np.array([[math.comb(i, k) for k in range(r + 1)] for i in range(max(size, 1))])
    subs = np.array(list(itertools.combinations(range(size), r)), dtype=np.intp)
    subs = subs.reshape(math.comb(size, r), r)
    subs = subs[np.argsort(binom[subs, np.arange(1, r + 1)].sum(axis=1), kind="stable")]
    # the terms before the t-th keep their place, those after it move down one
    own, moved = binom[subs, np.arange(1, r + 1)], binom[subs, np.arange(r)]
    drop = np.cumsum(own, axis=1) - own + moved.sum(axis=1, keepdims=True) - np.cumsum(moved, axis=1)
    return subs, drop


def reference_oracle_bases(coeffs, n: int) -> tuple[np.ndarray, tuple]:
    """The oracle's bases as one (A, B, r) gather-multiply-sum per level of
    minors and int64 signed adjugates cast to float, with none of its
    refusals but the 2**53 one; the kernel `_oracle_bases` must match."""
    rows = len(coeffs)
    c = np.asarray(coeffs, dtype=np.int64).reshape(rows, n)
    minors = np.ones((1, 1), dtype=np.int64)
    levels = []
    for r in range(1, min(rows, n) + 1):
        s, s_drop = reference_colex(rows, r)
        j, j_drop = reference_colex(n, r)
        sign, below = (-1) ** np.arange(r), minors
        minors = (sign * c[s[:, :1, None], j] * below[s_drop[:, :1, None], j_drop]).sum(axis=2)
        si, ji = np.nonzero(minors)
        det = minors[si, ji]
        adj = sign[:, None] * sign * below[s_drop[si][:, None, :], j_drop[ji][:, :, None]]
        if (np.abs(det) >= 2**53).any() or (np.abs(adj) >= 2**53).any():
            raise ValueError("not exact in float64")
        levels.append((s[si], j[ji], adj.astype(float), det.astype(float)))
    return np.vstack([c.astype(float), -np.eye(n)]), tuple(levels)


# the remark's (label, rates) pairs: the constraint is droppable when the rates vanish
DROPPABLE = (
    ("1d", frozenset({"R2c", "R2pa", "R2pb", "R2pb'"})),
    ("1e", frozenset({"R2pa", "R2pb", "R2pb'"})),
    ("1g", frozenset({"R2pb", "R2pb'"})),
    ("1i", frozenset({"R1c", "R1c'", "R1pb", "R1pb'"})),
)


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
            d = sample_instances(rtd, [random_channel(s)], [s], [mode])[0]
            inst = instantiate(rtd, d).pin({v: 0.0 for v in zeroed})
            pa = project_or_empty(inst)
            pb = project_or_empty(inst.drop(label))
            empties += pa.is_empty
            check.record_match(s, polytopes_equal([pa], [pb], tol)[0], "projections differ")
        check.details["empty_instances"] = empties
        report.checks.append(check)
    return report


def sequential_frontier(schema_id, channel, budget=2000, seed=0, lambdas=21) -> FrontierResult:
    """trace_frontier climbing one lambda after another, each state scored
    alone: its own joint, channel extension, rhs map and support.

    The support is the scalar rule on the unmasked feasible vertices: the
    largest value, and among those within TIE_TOL of it the largest
    R1 + R2, then the largest R1, then the last, by a stable lexsort.
    """
    if isinstance(lambdas, int):
        lam_grid = np.linspace(0.0, 1.0, lambdas)
    else:
        lam_grid = np.asarray(list(lambdas), dtype=float)
    schema = builtin_schema(schema_id)
    compiled = compile_schema(schema)
    projection = compile_projection(compiled.structure)
    plan = _schema_plan(schema, 2, "free")

    def support(b, w1, w2):
        _, _, x, y, ok = projection._vertices(b)
        if not ok.any():
            return None
        x, y = x[ok], y[ok]
        vals = w1 * x + w2 * y
        best = float(vals.max())
        tied = np.flatnonzero(vals >= best - TIE_TOL * max(1.0, abs(best)))
        k = tied[np.lexsort((x[tied], x[tied] + y[tied]))[-1]]
        return float(x[k]), float(y[k]), best

    points, missing = [], []
    for k, lam in enumerate(lam_grid):
        lam_seed = seed * 1_000_003 + k
        rng = np.random.default_rng(lam_seed)

        def objective(state):
            joint = _joints(plan.rvs, state)[0]
            b = compiled.sign * compiled.rhs(extend_through_channel(joint, channel))
            return support(b, lam, 1.0 - lam)

        n_starts = max(1, min(6, budget // 40))
        starts = []
        for j in range(n_starts):
            st = _draw([_schema_plan(schema, 2, SAMPLING_MODES[j % len(SAMPLING_MODES)])], [rng])
            starts.append((objective(st), st))
        evals = n_starts
        feasible = [(val, st) for val, st in starts if val is not None]
        if feasible:
            best, state = max(feasible, key=lambda t: t[0][2])
        else:
            best, state = starts[0]
        climb_best = best
        stall = 0
        while evals < budget:
            restart = stall > 300 and budget - evals > 400
            if restart:
                state = _draw(
                    [_schema_plan(schema, 2, SAMPLING_MODES[evals % len(SAMPLING_MODES)])], [rng]
                )
            else:
                idx, block = reference_propose(plan, state, 0, rng)
                old = state[idx]
                state[idx] = block[None]
            cand = objective(state)
            evals += 1
            if restart or _improves(cand, climb_best):
                climb_best = cand
                stall = 0
                if _improves(cand, best):
                    best = cand
            else:
                state[idx] = old
                stall += 1
        if best is None:
            missing.append(float(lam))
        else:
            points.append((float(lam), best[0], best[1], lam_seed))
    return FrontierResult(tuple(points), tuple(missing))


# -- the identity claims as Python builders ------------------------------------


def _rhs(schema_id: str, label: str) -> MIExpr:
    return builtin_schema(schema_id).constraint(label).rhs


def _sum(*exprs: MIExpr) -> MIExpr:
    """The sum of MIExprs, term by term in the written order; a difference
    is a sum with the subtrahend negated."""
    return MIExpr(tuple(term for e in exprs for term in e.terms))


def reference_devroye_identity_checks() -> tuple[IdentityCheck, ...]:
    """Differences between the restricted unified region rows (e1x) and the
    enlarged comparator rows (e2x), after cancelling the binning rates."""
    u, c = partial(_rhs, "RTD_IN"), partial(_rhs, "DMT_OUT")
    e14 = _sum(u("e14"), -u("e10"), -_sum(c("e24"), -c("e20")))
    e14_gap = parse_expr("I(U2c;U1c|X2)")
    e17 = _sum(u("e17"), -u("e12"), -_sum(c("e27"), -c("e21"), -c("e20")))
    e17_gap = parse_expr("I(U1c;U1pb)")
    return (
        IdentityCheck("e13_e23", (_sum(u("e13"), -u("e10"), -_sum(c("e23"), -c("e20"))),)),
        IdentityCheck("e14_e24", (_sum(e14, -e14_gap), e14_gap)),
        IdentityCheck("e15_e25", (_sum(u("e15"), -u("e10"), -_sum(c("e25"), -c("e20"))),)),
        IdentityCheck("e16_e26", (_sum(u("e16"), -c("e26")),)),
        IdentityCheck("e17_e27", (_sum(e17, -e17_gap),), (e17_gap,)),
        IdentityCheck("e18_e28",
                      (_sum(u("e18"), -u("e12"), -_sum(c("e28"), -c("e21"), -c("e20"))),)),
        IdentityCheck("e19_e29",
                      (_sum(u("e19"), -u("e12"), u("e10"), -_sum(c("e29"), -c("e21"))),)),
    )


# the five merged-comparator bounds, transcribed apart from the CC catalog block
REFERENCE_CC_PRIMED = """\
37p: I(Y1;U10,U11,V11,V20)
38p: I(Y2;V20,V22|U10)
39p: I(Y1;U11,V11|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
40p: I(Y1;U10,U11,V11,V20) + I(Y2;V22|U10,V20) - I(V22;U11,V11|U10,V20)
41p: I(Y1;U11,V11,V20|U10) + I(Y2;V22|U10,V20) + I(Y2;U10,V20,V22) - I(V22;U11,V11|U10,V20)
"""

# MARIC's five bounds with the decoded part X2a merged into X2b' = (X2a, X2b),
# written over the original variables so that both forms evaluate on one joint
REFERENCE_MARIC_MERGED = """\
m1': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2a,X2b;Y2|Q)
m2': I(U1a,U1c;Y1|Q) - I(U1a,U1c;X2a,X2b|Q)
m3': I(U1c,X2;Y2|Q)
m4': I(X2;U1c,Y2|Q)
m5': I(U1a;Y1|Q,U1c) - I(U1a;X2a,X2b|Q,U1c) + I(U1c,X2;Y2|Q)
"""


def reference_bounds(table: str) -> dict[str, MIExpr]:
    """A table of `label: rhs` lines, each rhs read by parse_expr."""
    return {label: parse_expr(rhs) for label, rhs in
            (line.split(": ") for line in table.splitlines())}


def reference_cc_identity_checks() -> tuple[IdentityCheck, ...]:
    """Merging the satellite auxiliary leaves bounds 37/39/40 unchanged and
    relaxes 38/41 by exactly the nonnegative I(V22,V20;U11|U10)."""
    primed = reference_bounds(REFERENCE_CC_PRIMED)
    gap = parse_expr("I(V20,V22;U11|U10)")
    delta = {lab: _sum(primed[lab + "p"], -_rhs("CC", lab))
             for lab in ("37", "38", "39", "40", "41")}
    return tuple(
        IdentityCheck(f"37..41 vs primed: {lab}", (delta[lab],)) for lab in ("37", "39", "40")
    ) + tuple(
        IdentityCheck(f"{lab}p minus {lab} equals merge gap", (_sum(delta[lab], -gap),),
                      (delta[lab],))
        for lab in ("38", "41")
    )


REFERENCE_JIANG_PAIRS = (("u0", "j0"), ("u1", "j1"), ("u2", "j2"), ("u3", "j4"),
                         ("u4", "j5"), ("u5", "j6"), ("u6", "j7"), ("u7", "j9"))


def reference_jiang_identity_checks() -> tuple[IdentityCheck, ...]:
    """The paired bounds agree, and the pinned binning rate vanishes."""
    return (
        IdentityCheck(
            "eight paired bounds equal",
            tuple(_sum(_rhs("RTD_JIANG", u), -_rhs("JIANG", j))
                  for u, j in REFERENCE_JIANG_PAIRS),
        ),
        IdentityCheck(
            "I(U1c;X2|U2c) vanishes under the chain", (parse_expr("I(U1c;X2|U2c)"),)
        ),
    )


def reference_maric_identity_checks() -> tuple[IdentityCheck, ...]:
    """Merging the decoded part of the split primary input raises the first
    bound by exactly I(X2a;Y2|Q) and leaves the other four unchanged."""
    mar, merged = builtin_schema("MARIC"), reference_bounds(REFERENCE_MARIC_MERGED)

    def delta(lab: str) -> MIExpr:
        return _sum(merged[lab + "'"], -mar.constraint(lab).rhs)

    return (
        IdentityCheck(
            "bounds m2..m5 unchanged under merge",
            tuple(delta(lab) for lab in ("m2", "m3", "m4", "m5")),
        ),
        IdentityCheck("merged m1 exceeds m1 by I(X2a;Y2|Q)",
                      (_sum(delta("m1"), -parse_expr("I(X2a;Y2|Q)")),)),
        IdentityCheck("merge gap nonnegative", nonneg=(delta("m1"),)),
    )
