import dataclasses
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cifc.channel import canonical_channel, random_channel
from cifc.errors import InvalidParameter, Unbounded
from cifc.polytope import (
    EMPTY,
    FEAS_TOL,
    MAX_ORACLE_SUBSETS,
    Polytope2D,
    _colex,
    _convex_hull,
    _distance_to_hull,
    _merge_close,
    _oracle_bases,
    _oracle_hull,
    _order_ccw,
    compile_projection,
    containment_margin,
    containment_margins,
    halfplane_violation,
    membership_oracle,
    oracle_polygon,
    polytope_equal,
    polytopes_equal,
    polytope_to_json,
    project_or_empty,
    vertices_csv,
)
from cifc.regions import (
    SCHEMA_IDS,
    LinearSystem,
    builtin_schema,
    compile_schema,
    instantiate,
    instantiate_all,
)
from cifc.sampling import SAMPLING_MODES, sample_instances
from cifc.verify import grid_agreement
from helpers import (
    degenerate_rtd_distribution,
    make_system,
    reference_colex,
    reference_containment_margin,
    reference_distance_to_hull,
    reference_halfplane_violation,
    reference_halfplane_violations,
    reference_oracle_bases,
    reference_oracle_hull,
    reference_polytope_equal,
    reference_polytopes,
)


def segment_system():
    # R1pb + R1pb' <= 1, rates nonnegative, R1 = R1pb, R2 = 0
    return make_system(("R1pb", "R1pb'"), [(1, 1)], [1.0], (1, 0), (0, 0))


def unit_square():
    return make_system(("a", "b"), [(1, 0), (0, 1)], [1.0, 1.0], (1, 0), (0, 1))


def orthogonal_square_system():
    from helpers import square_assignment

    rtd = builtin_schema("RTD")
    return instantiate(rtd, square_assignment())


def test_segment_projection():
    p = project_or_empty(segment_system())
    assert polytope_equal(p, type(p)(p.halfplanes, ((0.0, 0.0), (1.0, 0.0))), 1e-12)
    # every half-plane is tight somewhere on the segment
    for h in p.halfplanes:
        assert min(abs(h.a1 * x + h.a2 * y - h.b) for x, y in p.vertices) < 1e-9


def test_degenerate_point_projection():
    sys0 = make_system(("a", "b"), [(1, 0), (0, 1)], [0.0, 0.0], (1, 0), (0, 1))
    p = project_or_empty(sys0)
    assert p.vertices == ((0.0, 0.0),)


def test_orthogonal_square_projection():
    p = project_or_empty(orthogonal_square_system())
    expected = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    got = {(round(x, 9), round(y, 9)) for x, y in p.vertices}
    assert got == expected


def test_vertices_ccw_and_in_quadrant():
    p = project_or_empty(orthogonal_square_system())
    assert all(x >= -1e-12 and y >= -1e-12 for x, y in p.vertices)
    area2 = 0.0
    vs = list(p.vertices)
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0  # counterclockwise


def test_infeasible_system_projects_empty():
    sys_bad = make_system(("a",), [(1,)], [-1.0], (1,), (0,))
    assert project_or_empty(sys_bad) is EMPTY


def test_unbounded_detected_when_decoding_rows_removed():
    from helpers import square_assignment

    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    # strip every row bounding R2pa: the region is unbounded along it
    crippled = inst.drop("1d", "1e", "1f")
    with pytest.raises(Unbounded):
        project_or_empty(crippled)


def test_unbounded_reported_only_for_nonempty_regions():
    # a >= 1 and b <= cap: unbounded in R1 when cap >= 0, empty otherwise
    def system(cap):
        return make_system(("a", "b"), [(-1, 0), (0, 1)], [-1.0, cap], (1, 0), (0, 1))

    with pytest.raises(Unbounded):
        project_or_empty(system(1.0))
    assert project_or_empty(system(-1.0)) is EMPTY


def test_bounded_system_with_a_vertex_far_beyond_its_rhs():
    # a - b <= 1 and 3b - 2a <= 1 meet at (4, 3): a reaches 4, beyond the
    # sum of the right-hand sides
    system = make_system(("a", "b"), [(1, -1), (-2, 3)], [1.0, 1.0], (1, 0), (0, 1))
    p = project_or_empty(system)
    expected = Polytope2D((), ((0.0, 0.0), (1.0, 0.0), (4.0, 3.0), (0.0, 1.0 / 3.0)))
    assert polytope_equal(p, expected, 1e-12)
    assert polytope_equal(p, Polytope2D((), oracle_polygon(system)), 1e-9)


def test_projection_keeps_close_vertices_of_a_catalog_region():
    # RTD_CC, seed 21, "det": a numeric eliminator that merged vertices
    # within 1e-9 lost 1.26e-9 bits of the lambda = 1 maximum here
    schema = builtin_schema("RTD_CC")
    d = sample_instances(schema, [random_channel(21)], [21], ["det"])[0]
    system = instantiate(schema, d)
    got = _support(project_or_empty(system).vertices, 1.0)
    assert got == pytest.approx(_support(oracle_polygon(system), 1.0), abs=1e-12)


def test_projection_keeps_the_top_of_a_near_vertical_edge():
    # the basic solution on rows b, c, d is feasible and projects to
    # (1.6975, 1.38522); the region's right edge is 1e-12 wide in R1, where
    # a collinearity test at 1e-12 drops the top vertex of the hull
    system = make_system(
        ("x0", "x1", "x2"),
        [(-2, 1, -1), (-1, 1, 0), (2, 2, -1), (2, -1, 1)], [0.2198, 1e-12, 0.6112, 1.6975],
        (1, 0, 1), (1, 2, 0), "abcd")
    vertices = np.asarray(project_or_empty(system).vertices)
    assert np.abs(vertices - (1.6975, 1.38522)).max(axis=1).min() <= 1e-9


def test_convex_hull_keeps_the_tip_of_a_near_vertical_spike():
    # the chain reverses at (1 + 1e-12, 1): its turn is below eps times the
    # edge lengths, but a reversal is a vertex, not a collinear point
    hull = _convex_hull([(0, 0), (1, 0), (1 + 1e-12, 1), (1 + 2e-12, 1e-12)], collinear_eps=1e-9)
    assert (1 + 1e-12, 1) in hull


def test_oracle_keeps_the_top_of_a_near_vertical_edge():
    # the system above: the oracle's hull must keep (1.6975, 1.38522) too
    system = make_system(
        ("x0", "x1", "x2"),
        [(-2, 1, -1), (-1, 1, 0), (2, 2, -1), (2, -1, 1)], [0.2198, 1e-12, 0.6112, 1.6975],
        (1, 0, 1), (1, 2, 0), "abcd")
    oracle = np.asarray(oracle_polygon(system))
    projected = np.asarray(project_or_empty(system).vertices)
    for t in np.arange(16) * np.pi / 8:
        w = (np.cos(t), np.sin(t))
        assert (oracle @ w).max() == pytest.approx((projected @ w).max(), abs=1e-9), t


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    # rhs on a 1/64 grid: every vertex then sits far from the 1e-9 feasibility
    # slack, which the oracle applies per basic solution and the projector
    # per vertex, while ties and degenerate faces still occur exactly
    rhs = st.integers(-32, 128).map(lambda k: k / 64)
    rows = draw(st.lists(st.tuples(coeffs, rhs), min_size=1, max_size=4))
    proj = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    return make_system([f"x{i}" for i in range(n)], *zip(*rows), draw(proj), draw(proj))


@settings(max_examples=400, deadline=None)
@given(small_systems())
def test_projection_matches_oracle_on_random_systems(system):
    try:
        poly = project_or_empty(system)
    except Unbounded:
        assume(False)  # the oracle handles bounded systems only
    hull = oracle_polygon(system)
    assert poly.is_empty == (not hull)
    # support values, not vertex lists: the oracle keeps collinear points
    for k in range(16 if hull else 0):
        w = (math.cos(math.pi * k / 8), math.sin(math.pi * k / 8))
        got = max(w[0] * x + w[1] * y for x, y in poly.vertices)
        want = max(w[0] * x + w[1] * y for x, y in hull)
        assert got == pytest.approx(want, abs=1e-9), w


# -- compiled projection ---------------------------------------------------------


def _support(vertices, lam):
    return max(lam * x + (1.0 - lam) * y for x, y in vertices)


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_compiled_support_matches_eliminator_and_oracle(sid, mode):
    schema = builtin_schema(sid)
    compiled = compile_schema(schema)
    projection = compile_projection(compiled.structure)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    for seed in range(40):
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        b = compiled.sign * compiled.rhs(d)
        for lam in (0.0, 0.3, 0.5, 1.0):
            got = projection.support(b, lam, 1.0 - lam)
            # feasibility agrees with project_or_empty's EMPTY
            assert (got is None) == poly.is_empty, (seed, lam)
            if got is None:
                continue
            r1, r2, value = got
            assert value == pytest.approx(lam * r1 + (1.0 - lam) * r2, abs=1e-12)
            assert value == pytest.approx(_support(poly.vertices, lam), abs=1e-9), (seed, lam)
            if seed < 4:
                oracle = _support(oracle_polygon(system), lam)
                assert value == pytest.approx(oracle, abs=1e-9), (seed, lam)


def test_compiled_support_of_anchor_systems():
    from helpers import degenerate_rtd_distribution, square_assignment

    compiled = compile_schema(builtin_schema("RTD"))
    projection = compile_projection(compiled.structure)
    b = compiled.sign * compiled.rhs(square_assignment())
    assert projection.support(b, 0.5, 0.5) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert projection.support(b, 1.0, 0.0) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    b = compiled.sign * compiled.rhs(degenerate_rtd_distribution())
    origin = projection.support(b, 0.3, 0.7)
    assert origin == (0.0, 0.0, 0.0)
    assert all(str(v) == "0.0" for v in origin)  # no negative zeros


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_every_catalog_schema_compiles_bounded(sid):
    compiled = compile_schema(builtin_schema(sid))
    projection = compile_projection(compiled.structure)
    assert projection.projected and projection.bounded
    # the rhs matrices are exact integers over the schema's rows
    rhs_map = compiled.rhs
    assert rhs_map.expr_matrix.shape[0] == len(builtin_schema(sid).constraints)
    assert rhs_map.atom_matrix.dtype.kind == rhs_map.expr_matrix.dtype.kind == "i"


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_instantiated_rhs_equal_compiled_rhs_bit_for_bit(sid, mode):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    for seed in range(10):
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        system = instantiate(schema, d)
        compiled = compile_schema(schema)
        assert system.b.tolist() == (compiled.sign * compiled.rhs(d)).tolist(), seed


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_facet_labels_name_rows_that_suffice(sid):
    # a row no half-plane names never touches the polygon, so it does not shape it
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    nonempty = 0
    for mode, seed in itertools.product(SAMPLING_MODES, range(6)):
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        rows = set(system.labels)
        named = {lab for h in poly.halfplanes for lab in h.labels}
        assert named <= rows, (mode, seed)
        if not poly.is_empty:
            nonempty += 1
            reduced = project_or_empty(system.drop(*(rows - named)))
            assert polytope_equal(reduced, poly, 1e-9), (mode, seed, sorted(rows - named))
    assert nonempty


def test_compiled_unbounded_when_decoding_rows_removed():
    rtd = builtin_schema("RTD")
    crippled = dataclasses.replace(
        rtd, constraints=tuple(c for c in rtd.constraints if c.label not in ("1d", "1e", "1f"))
    )
    assert not compile_projection(compile_schema(crippled).structure).bounded


# -- membership oracle ---------------------------------------------------------


def test_oracle_origin_of_zero_system():
    rtd = builtin_schema("RTD")
    system = instantiate(rtd, degenerate_rtd_distribution())
    assert membership_oracle(system, (0.0, 0.0))
    assert not membership_oracle(system, (0.1, 0.0))


def _exact_oracle_hull(system):
    """The oracle's hull of a two-rate system from exact basic solutions:
    every 2-subset of rows solved by Cramer's rule in Fractions and kept when
    it satisfies every row within FEAS_TOL exactly, then clipped, projected,
    snapped and hulled as the oracle does."""
    rows = list(system.rows) + [(-1, 0), (0, -1)]
    rhs = [Fraction(v) for v in system.b.tolist()] + [Fraction(0)] * 2
    points = []
    for i, k in itertools.combinations(range(len(rows)), 2):
        (a, b), (c, d) = rows[i], rows[k]
        if a * d - b * c == 0:
            continue
        x = ((rhs[i] * d - rhs[k] * b) / (a * d - b * c), (a * rhs[k] - c * rhs[i]) / (a * d - b * c))
        if all(p * x[0] + q * x[1] <= r + Fraction(FEAS_TOL) for (p, q), r in zip(rows, rhs)):
            x = [max(v, Fraction(0)) for v in x]
            points.append(tuple(round(float(sum(w * v for w, v in zip(proj, x))), 12) + 0.0
                                for proj in (system.r1, system.r2)))
    return tuple(_order_ccw(_convex_hull(_merge_close(points, 1e-12), collinear_eps=1e-12)))


def test_oracle_decides_a_basis_float64_would_round_to_singular():
    # the determinant is -1, which float64 LU rounds to 0, dropping the basis
    # as singular; the exact minors keep it, with its exact adjugate
    big = 2**27
    assert (big + 1) * (big - 1) - big * big == -1
    system = make_system(("a", "b"), [(big + 1, big), (big, big - 1)], [1.0, 1.0], (1, 0), (0, 1))
    _, levels = _oracle_bases(system.rows, 2)
    s, j, adj, det = levels[1]
    assert 1 + sum(len(d) for *_, d in levels) == math.comb(4, 2)  # every subset is a basis
    assert s.tolist() == j.tolist() == [[0, 1]] and det.tolist() == [-1.0]
    assert adj.tolist() == [[[big - 1, -big], [-big, big + 1]]]
    assert oracle_polygon(system) == _exact_oracle_hull(system)
    assert len(oracle_polygon(system)) == 3


def test_oracle_refuses_minors_beyond_int64_before_allocating():
    # Hadamard: the 2 x 2 minors may reach about 2**80, past int64
    system = make_system(("a", "b"), [(2**40, 1), (1, 2**40)], [1.0, 1.0], (1, 0), (0, 1))
    _oracle_bases.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match="C\\(4, 2\\).*beyond int64"):
            oracle_polygon(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000
    assert _oracle_bases.cache_info().currsize == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1e-10, 0.5, 1.0]),
                          st.sampled_from([0.0, 2e-10, 1.0])), max_size=12),
       st.sampled_from([0.0, 1e-10, 1e-9]))
def test_merge_close_matches_pairwise_reference(points, tol):
    want: list[tuple[float, float]] = []
    for p in points:
        if all(abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol for q in want):
            want.append(p)
    got = _merge_close(points, tol)
    assert got == want and [tuple(map(str, p)) for p in got] == [tuple(map(str, p)) for p in want]


def test_oracle_rejects_point_beyond_cap():
    assert membership_oracle(segment_system(), (1.0, 0.0))
    assert not membership_oracle(segment_system(), (2.0, 0.0))


def test_oracle_hulls_a_segment_by_its_two_endpoints():
    # R1 = x1 + x2 with x1, x2 <= 0.5 and R2 = 0: the projected basic solutions
    # (0, 0), (0.5, 0) and (1, 0) are collinear, and a hull of all three read
    # as a zero-area polygon holds the whole line R2 = 0
    system = make_system(("x1", "x2"), [(1, 0), (0, 1)], [0.5, 0.5], (1, 1), (0, 0))
    assert sorted(oracle_polygon(system)) == [(0.0, 0.0), (1.0, 0.0)]
    assert membership_oracle(system, (1.0, 0.0))
    assert not membership_oracle(system, (2.0, 0.0))
    assert not membership_oracle(system, (-1.0, 0.0))


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9])
def test_convex_hull_of_collinear_points_is_their_two_endpoints(eps):
    line = [(0.25 * k, 1 - 0.5 * k) for k in range(5)]
    points = [line[k] for k in (2, 4, 0, 3, 2, 1, 4, 0)]
    assert sorted(_convex_hull(points, collinear_eps=eps)) == [line[0], line[4]]


def test_bench_tracer_counts_oracle_calls_and_cache_hits(monkeypatch):
    """The benchmark's tracer wraps the oracle's entry points and reads
    _oracle_hull's LRU: a miss enumerates C(m, n) row subsets, a repeat hits."""
    import cifc.polytope

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    system = unit_square()
    _oracle_hull.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):
            cifc.polytope.oracle_polygon(system)
    finally:
        tracer.uninstall()
    assert cifc.polytope.oracle_polygon is oracle_polygon
    metrics = tracer.metrics()
    assert metrics["polytope.oracle.calls"] == 2
    assert metrics["polytope.oracle.cache_hit_frac"] == 0.5
    assert metrics["polytope.oracle.subsets"] == math.comb(2 + 2, 2)


def test_oracle_square_grid_agreement():
    system = orthogonal_square_system()
    poly = project_or_empty(system)
    assert len(oracle_polygon(system)) == 4
    probes = list(itertools.product(np.linspace(0.0, 1.25, 21), repeat=2))
    in_f = halfplane_violation(poly, probes) <= 0
    in_o = [membership_oracle(system, p, tol=0.0) for p in probes]
    assert in_f.tolist() == in_o


def test_oracle_refuses_too_many_subsets():
    # 40 rates and one row: C(41, 40) = 41 subsets is fine, C(80, 40) is not
    n = 40
    names = [f"x{i}" for i in range(n)]
    r1, r2 = (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)
    small = make_system(names, [(1,) * n], [1.0], r1, r2)
    assert math.comb(41, 40) <= MAX_ORACLE_SUBSETS < math.comb(80, 40)
    big = make_system(names, np.eye(n, dtype=int), [1.0] * n, r1, r2)
    _oracle_bases.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match="C\\(80, 40\\)"):
            oracle_polygon(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # refused before the 80 x 40 row matrix (25.6 kB) is built, and not cached
    assert peak < 16_000
    assert _oracle_bases.cache_info().currsize == 0
    assert len(oracle_polygon(small)) == 3  # the triangle R1 + R2 <= 1
    assert _oracle_bases.cache_info().currsize == 1


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_compiled_oracle_matches_uncompiled_reference(sid):
    """The cached bases give the same hulls as enumerating every subset
    afresh, and a schema's instances share one structure, compiled once."""
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    _oracle_hull.cache_clear()
    _oracle_bases.cache_clear()
    for mode, seed in itertools.product(SAMPLING_MODES, range(10)):
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        system = instantiate(schema, d)
        assert oracle_polygon(system) == reference_oracle_hull(system), (mode, seed)
    # one enumeration for the schema; every other hull reused its bases
    info = _oracle_bases.cache_info()
    assert info.misses == 1
    assert info.hits == _oracle_hull.cache_info().misses - 1 > 0


def _catalog_system(sid):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    d = sample_instances(schema, [random_channel(0, sizes)], [0], ["free"])[0]
    return instantiate(schema, d)


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_oracle_bases_are_exact_across_chunks(sid):
    """The bases, built in one chunk per level r of r x r minors, are
    exactly the n-subsets a fresh float enumeration finds nonsingular, one
    to one, each level's minor C[S, J] with its exact integer adjugate and
    determinant."""
    system = _catalog_system(sid)
    n = len(system.variables)
    rows = len(system.rows)
    a, levels = _oracle_bases(system.rows, n)
    combos = np.asarray(list(itertools.combinations(range(rows + n), n)), dtype=np.intp)
    got = [tuple(range(rows, rows + n))]  # the origin: every facet, no minor
    for r, (s, j, adj, det) in enumerate(levels, start=1):
        got += [tuple(si) + tuple(rows + i for i in range(n) if i not in js)
                for si, js in zip(s.tolist(), j.tolist())]
        assert (adj == np.rint(adj)).all() and (det == np.rint(det)).all() and (det != 0).all()
        minor = a[s[:, :, None], j[:, None, :]]
        assert (minor @ adj == det[:, None, None] * np.eye(r)).all()
    assert sorted(got) == list(map(tuple, combos[np.abs(np.linalg.det(a[combos])) > 0.5].tolist()))


def test_colex_tables_match_sorted_combinations():
    for size in range(13):
        for r in range(size + 1):
            (subs, drop), (ref_subs, ref_drop) = _colex(size, r), reference_colex(size, r)
            assert subs.dtype == ref_subs.dtype and subs.shape == ref_subs.shape == drop.shape
            assert subs.tobytes() == ref_subs.tobytes(), (size, r)
            assert drop.tolist() == ref_drop.tolist(), (size, r)
            assert not subs.flags.writeable and not drop.flags.writeable


def _assert_bases_match_reference(coeffs, n):
    (a, levels), (ref_a, ref_levels) = _oracle_bases(coeffs, n), reference_oracle_bases(coeffs, n)
    assert len(levels) == len(ref_levels) == min(len(coeffs), n)
    for got, ref in zip((a, *itertools.chain(*levels)), (ref_a, *itertools.chain(*ref_levels))):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_oracle_bases_match_the_reference_kernel(sid):
    # byte for byte, the sign of every zero adjugate entry included
    structure = compile_schema(builtin_schema(sid)).structure
    _assert_bases_match_reference(structure.rows, len(structure.variables))


@pytest.mark.parametrize("coeffs, n", [
    (((1, 2), (3, 4)), 2),
    (((1, 1), (2, 2), (0, 0)), 2),  # singular minors and a zero row
    (((2, 0, -1), (1, 1, 1), (0, 3, 2), (1, -1, 0)), 3),
    (((1, 2, 3, 4),), 4),
    (((1, -1), (2, 1), (0, 1), (-3, 5), (7, 0)), 2),
    (((2**27 + 1, 2**27), (2**27, 2**27 - 1)), 2),  # determinant -1
])
def test_oracle_bases_of_small_matrices_match_the_reference_kernel(coeffs, n):
    _assert_bases_match_reference(coeffs, n)


@pytest.mark.parametrize("coeffs", [
    ((2**27 + 1, 1), (1, 2**27 + 1)),  # a determinant past 2**53
    ((2**53, 0), (0, 1)),  # a 1 x 1 minor, and so an adjugate entry, of 2**53
])
def test_oracle_bases_refuse_what_the_reference_kernel_cannot_hold(coeffs):
    with pytest.raises(ValueError):
        reference_oracle_bases(coeffs, 2)
    _oracle_bases.cache_clear()
    with pytest.raises(InvalidParameter, match=re.escape(
            "the oracle's C(4, 2) row subsets include a basis whose determinant or "
            "adjugate is not exact in float64")):
        _oracle_bases(coeffs, 2)
    assert _oracle_bases.cache_info().currsize == 0


def test_oracle_refuses_a_basis_not_exact_in_float64():
    # det = (2**27 + 1)**2 - 1: the products in B . adj(B) pass 2**53
    k = 2**27 + 1
    system = make_system(("a", "b"), [(k, 1), (1, k)], [1.0, 1.0], (1, 0), (0, 1))
    _oracle_bases.cache_clear()
    with pytest.raises(InvalidParameter, match="C\\(4, 2\\)"):
        oracle_polygon(system)
    assert _oracle_bases.cache_info().currsize == 0


def test_oracle_bases_build_in_bounded_memory():
    # all 75,582 RTD matrices at once took 49.1 MiB, float LU in chunks about
    # 20 MiB, the exact minors as one 3-D gather per level 4.8 MiB; as r
    # products of 2-D takes per level, colex tables included, about 4.2 MiB
    system = _catalog_system("RTD")
    coeffs = system.rows
    _oracle_bases.cache_clear()
    _colex.cache_clear()
    tracemalloc.start()
    try:
        _oracle_bases(coeffs, len(system.variables))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2**20


def test_oracle_hull_stays_in_the_quadrant():
    # a basic solution with x1 = x2 = -1e-9 passes every row within the 1e-9
    # slack, the nonnegativity rows included; it is clipped onto the origin
    system = make_system(
        ("x0", "x1", "x2"),
        [(2, -1, -1), (2, 2, 0), (0, 0, 2)], [1e-9, 1.771, 1.964],
        (0, 1, 0), (1, 1, 0))
    assert (-1e-9, -1e-9) in reference_oracle_hull(system)
    hull = oracle_polygon(system)
    assert (0.0, 0.0) in hull
    assert min(min(p) for p in hull) == 0.0
    assert (0.0, 0.0) in project_or_empty(system).vertices


@pytest.mark.parametrize("sid", ["RTD", "JIANG", "CCP"])
def test_oracle_full_agreement_sampled(sid):
    schema = builtin_schema(sid)
    for i, seed in enumerate(range(6)):
        ch = random_channel(seed)
        d = sample_instances(schema, [ch], [seed], [["free", "det", "flat_det"][i % 3]])[0]
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        bad, worst = grid_agreement(system, poly, grid=15)
        assert bad == 0, f"seed {seed}: worst {worst}"


def empty_system():
    # the unit square plus the variable-free row 0 <= -1
    return make_system(("a", "b"), [(1, 0), (0, 1), (0, 0)], [1.0, 1.0, -1.0], (1, 0), (0, 1))


@pytest.mark.parametrize("system", [
    pytest.param(lambda: instantiate(builtin_schema("RTD"), degenerate_rtd_distribution()),
                 id="point"),
    pytest.param(segment_system, id="segment"),
    pytest.param(empty_system, id="empty"),
])
def test_grid_agreement_on_degenerate_regions(system):
    system = system()
    poly = project_or_empty(system)
    hull = oracle_polygon(system)
    assert len(hull) == len(poly.vertices) <= 2
    assert grid_agreement(system, poly) == (0, 0.0)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _assert_matches_reference(poly, hulls, probes):
    """The array membership tests equal the point-by-point references bit
    for bit, the sign of zero included."""
    if not poly.is_empty:
        got = halfplane_violation(poly, probes)
        assert _hex(got) == _hex(reference_halfplane_violation(poly, p) for p in probes)
    for hull in hulls:
        got = _distance_to_hull(hull, probes)
        assert _hex(got) == _hex(reference_distance_to_hull(hull, p) for p in probes), hull


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_array_membership_matches_pointwise_reference(sid):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    nonempty = 0
    for mode, seed in itertools.product(SAMPLING_MODES, range(3)):
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        hull = oracle_polygon(system)
        axis = np.linspace(0.0, max(poly.max_coord(), 1e-6) + 0.25, 21).tolist()
        probes = [*itertools.product(axis, repeat=2), *poly.vertices, *hull]
        _assert_matches_reference(poly, (hull, poly.vertices), probes)
        nonempty += not poly.is_empty
    assert nonempty


def test_array_membership_matches_reference_on_degenerate_hulls():
    triangle = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    hulls = [(), ((0.25, 0.5),), ((0.0, 0.0), (1.0, 0.0)), ((0.1, 0.2), (0.7, 0.4)),
             ((0.3, 0.3), (0.3, 0.3)), triangle]
    # the grid, signed zeros, and points exactly on every hull edge
    probes = [*itertools.product(np.linspace(-0.5, 1.5, 9).tolist(), repeat=2),
              (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (-0.0, 0.5)]
    for hull in hulls:
        for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]):
            probes += [(px + t * (qx - px), py + t * (qy - py)) for t in (0.0, 0.25, 0.5, 1.0)]
    assert all(0.0 in (x, y) or x + y == 1.0 for x, y in probes[-12:])  # on the triangle
    for poly in (project_or_empty(segment_system()), project_or_empty(unit_square()),
                 project_or_empty(instantiate(builtin_schema("RTD"), degenerate_rtd_distribution()))):
        _assert_matches_reference(poly, hulls, probes)


def test_empty_region_contains_no_point():
    assert halfplane_violation(EMPTY, [(0.5, 0.5)]).tolist() == [math.inf]
    assert halfplane_violation(EMPTY, []).shape == (0,)
    assert containment_margin(EMPTY, project_or_empty(unit_square())) == math.inf
    assert _distance_to_hull((), [(0.0, 0.0), (1.0, 2.0)]).tolist() == [math.inf, math.inf]


# -- containment and equality ----------------------------------------------------


def test_contains_self_and_origin():
    p = project_or_empty(orthogonal_square_system())
    assert containment_margin(p, p) <= 0.0
    point = project_or_empty(make_system(("a", "b"), [(1, 0), (0, 1)], [0.0, 0.0], (1, 0), (0, 1)))
    assert containment_margin(p, point) <= 1e-7


def test_scaled_square_not_contained():
    inner = project_or_empty(unit_square())
    outer = project_or_empty(make_system(("a", "b"), [(1, 0), (0, 1)], [1.1, 1.1], (1, 0), (0, 1)))
    assert containment_margin(outer, inner) <= 1e-7
    assert not containment_margin(inner, outer) <= 1e-7
    assert containment_margin(inner, outer) == pytest.approx(0.1, abs=1e-9)


def test_empty_containment_rules():
    p = project_or_empty(unit_square())
    assert containment_margin(p, EMPTY) <= 1e-7
    assert not containment_margin(EMPTY, p) <= 1e-7
    assert polytope_equal(EMPTY, EMPTY)
    assert not polytope_equal(p, EMPTY)


# -- a batch's regions and comparisons against the one-at-a-time references -------


def _bits(regions) -> list[str]:
    """Each region's vertices, half-planes and labels as JSON: floats by
    repr, so equal text is equal bits, the sign of zero included."""
    return [json.dumps(polytope_to_json(p)) for p in regions]


def _assert_regions_match_reference(system):
    """project_or_empty gives the reference's regions bit for bit, on one
    system or a batch, EMPTY itself where the reference does, and raises
    Unbounded where the reference raises; returns the regions (or None)."""
    projection = compile_projection(system.structure)
    try:
        want = reference_polytopes(projection, np.atleast_2d(system.b), system.labels)
    except Unbounded:
        with pytest.raises(Unbounded):
            project_or_empty(system)
        return None
    got = project_or_empty(system)
    got = got if system.b.ndim == 2 else [got]
    assert _bits(got) == _bits(want)
    assert [p is EMPTY for p in got] == [p is EMPTY for p in want]
    return got


@st.composite
def small_batches(draw):
    """A small_systems structure, its rows labeled from a small alphabet
    (repeats allowed), at K = 1 to 4 right-hand sides: one system, or a
    batch, of one too."""
    system = draw(small_systems())
    m = len(system.labels)
    rhs = st.lists(st.integers(-32, 128).map(lambda k: k / 64), min_size=m, max_size=m)
    labels = draw(st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=m, max_size=m))
    b = np.array([system.b.tolist(), *draw(st.lists(rhs, max_size=3))])
    structure = dataclasses.replace(system.structure, labels=tuple(labels))
    return LinearSystem(structure, b if len(b) > 1 or draw(st.booleans()) else b[0])


@settings(max_examples=300, deadline=None)
@given(small_batches())
def test_regions_match_the_reference_on_random_batches(system):
    _assert_regions_match_reference(system)


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_catalog_regions_match_the_reference_alone_and_in_batches(sid):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    modes, seeds = zip(*itertools.product(SAMPLING_MODES, range(30)))
    d = sample_instances(schema, [random_channel(s, sizes) for s in seeds], seeds, modes)
    systems = instantiate(schema, d)
    regions = _assert_regions_match_reference(systems)  # K = 90
    assert any(p.is_empty for p in regions) and any(not p.is_empty for p in regions)
    for k in range(0, 90, 11):  # K = 1: one system, and a batch of one
        for system in (systems[k], LinearSystem(systems.structure, systems.b[k:k + 1])):
            assert _bits(_assert_regions_match_reference(system)) == _bits(regions[k:k + 1])


def test_empty_point_and_segment_regions_match_the_reference():
    # the unit square's rows at a square, a point, two segments and no point,
    # as one batch and one by one
    b = [[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]
    batch = LinearSystem(unit_square().structure, b)
    regions = _assert_regions_match_reference(batch)
    assert [len(p.vertices) for p in regions] == [4, 1, 2, 2, 0]
    for k in range(len(b)):
        assert _bits(_assert_regions_match_reference(batch[k])) == _bits(regions[k:k + 1])
    rtd_point = instantiate(builtin_schema("RTD"), degenerate_rtd_distribution())
    for system in (segment_system(), empty_system(), rtd_point):
        _assert_regions_match_reference(system)


def test_a_padded_hull_vertex_is_never_tight():
    # R1 >= 1 keeps the first region, [1, 2] x [0, 0.5], off the origin, where
    # its untouched row R2 - R1 <= 0 passes; its four vertices are padded to the
    # five of the second region, so a padded vertex at the origin would name it
    batch = make_system(("a", "b"), [(-1, 0), (1, 0), (0, 1), (-1, 1)],
                        [[-1.0, 2.0, 0.5, 0.0], [0.0, 2.0, 1.0, 0.5]], (1, 0), (0, 1),
                        ["lo", "hi", "top", "diag"])
    first, second = _assert_regions_match_reference(batch)
    assert (len(first.vertices), len(second.vertices)) == (4, 5)
    assert not any("diag" in h.labels for h in first.halfplanes)
    assert any("diag" in h.labels for h in second.halfplanes)


def test_a_batch_is_unbounded_iff_one_of_its_regions_is_nonempty():
    # a >= 1 and b <= cap: unbounded in R1 when cap >= 0, empty otherwise
    structure = make_system(("a", "b"), [(-1, 0), (0, 1)], [-1.0, 0.0], (1, 0), (0, 1)).structure

    def batch(*caps):
        return LinearSystem(structure, [[-1.0, cap] for cap in caps])

    assert all(p is EMPTY for p in project_or_empty(batch(-1.0, -2.0, -0.5)))
    for caps in [(0.0,), (1.0,), (-1.0, 1.0), (1.0, -1.0), (-2.0, -1.0, 0.0)]:
        with pytest.raises(Unbounded):
            project_or_empty(batch(*caps))
        _assert_regions_match_reference(batch(*caps))


def _degenerate_regions():
    """EMPTY, a point, two segments, two squares and the orthogonal square."""
    square = unit_square().structure
    regions = project_or_empty(LinearSystem(square, [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0],
                                                     [1.0, 1.0], [1.1, 1.1]]))
    return [EMPTY, *regions, project_or_empty(orthogonal_square_system())]


def test_margins_and_equality_match_the_reference_on_degenerate_pairs():
    regions = _degenerate_regions()
    outers, inners = zip(*itertools.product(regions, repeat=2))
    margins = containment_margins(outers, inners)
    assert _hex(margins) == _hex(map(reference_containment_margin, outers, inners))
    for tol in (1e-9, 0.2):
        want = [reference_polytope_equal(a, b, tol) for a, b in zip(outers, inners)]
        assert polytopes_equal(outers, inners, tol) == want
        assert polytopes_equal(inners, outers, tol) == want  # both directions
    for outer, inner, margin in zip(outers, inners, margins):  # K = 1
        assert containment_margin(outer, inner).hex() == margin.hex()
        assert polytope_equal(outer, inner) is reference_polytope_equal(outer, inner)
    assert containment_margin(regions[3], EMPTY) == -math.inf  # inner empty
    assert containment_margin(EMPTY, regions[3]) == math.inf  # outer empty
    assert containment_margins([], []) == [] and polytopes_equal([], []) == []
    probes = [*itertools.product(np.linspace(-0.5, 1.5, 9).tolist(), repeat=2),
              (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 0.5)]
    for poly in regions:
        for points in (probes, poly.vertices, []):
            got = halfplane_violation(poly, points)
            assert _hex(got) == _hex(reference_halfplane_violations(poly, points))


@pytest.mark.parametrize("outer_id, inner_id", [
    ("RTD_IN", "DMT_OUT"), ("RTD_JIANG", "JIANG"), ("RTD_CC", "CCP")])
def test_margins_and_equality_match_the_reference_on_containment_batches(outer_id, inner_id):
    import cifc.verify

    inner, outer = builtin_schema(inner_id), builtin_schema(outer_id)
    (_, d), = cifc.verify._batches(inner, 1, 60)
    inners, outers = map(project_or_empty, instantiate_all((inner, outer), d))
    assert any(p.is_empty for p in inners) and any(not p.is_empty for p in inners)
    # the suite's pairs, swapped (an empty outer region), and shifted by one
    for a, b in ((outers, inners), (inners, outers), (outers[1:] + outers[:1], inners)):
        assert _hex(containment_margins(a, b)) == _hex(map(reference_containment_margin, a, b))
        assert polytopes_equal(a, b) == list(map(reference_polytope_equal, a, b))


# -- spec invariants --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_relaxing_rhs_never_shrinks(seed):
    rtd = builtin_schema("RTD")
    d = sample_instances(rtd, [canonical_channel("bsc_pair", eps1=0.05, eps2=0.1)], [seed],
                         ["flat_det"])[0]
    inst = instantiate(rtd, d)
    base = project_or_empty(inst)
    for k, label in enumerate(inst.labels):
        # an LE-normal row relaxes by raising its rhs, whatever its sense
        rhs = inst.b.copy()
        rhs[k] += 0.1
        bigger = project_or_empty(LinearSystem(inst.structure, rhs))
        if base.is_empty:
            continue
        assert containment_margin(bigger, base) <= 1e-9, label


@pytest.mark.parametrize("seed", range(8))
def test_projection_downward_closed(seed):
    rtd = builtin_schema("RTD")
    d = sample_instances(rtd, [canonical_channel("bsc_pair", eps1=0.05, eps2=0.1)], [seed],
                         ["flat_det"])[0]
    poly = project_or_empty(instantiate(rtd, d))
    if poly.is_empty:
        return
    rng = np.random.default_rng(seed)
    for x, y in poly.vertices:
        t, s = rng.random(2)
        assert halfplane_violation(poly, [(x * t, y * s)])[0] <= 1e-9


# -- serialization -----------------------------------------------------------------


def _json_holds(p) -> bool:
    """The polytope's JSON, written and read back, lists its vertices and
    half-planes exactly: floats survive the text, labels become lists."""
    obj = json.loads(json.dumps(polytope_to_json(p)))
    return obj == {
        "vertices": [list(v) for v in p.vertices],
        "halfplanes": [[h.a1, h.a2, h.b, list(h.labels)] for h in p.halfplanes],
    }


def test_polytope_json_roundtrip():
    p = project_or_empty(orthogonal_square_system())
    assert _json_holds(p) and any(h.labels for h in p.halfplanes)
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        rvs = schema.rv_set(2)
        for seed in range(6):
            ch = random_channel(seed, (rvs.size("X1"), rvs.size("X2"), 2, 2))
            d = sample_instances(schema, [ch], [seed], [SAMPLING_MODES[seed % 3]])[0]
            assert _json_holds(project_or_empty(instantiate(schema, d)))


@pytest.mark.parametrize("sid, digest", [
    ("RTD", "97211a3be35cf51cfbba7c87a0b4b81596c92474acefb2813bbfeb199be1ff8a"),
    ("RTD_IN", "7dc59ff87df23cadf4021ea87b51cb46a99afe42166d89da0a0fc07ceeeccf9f"),
    ("DMT_OUT", "145410ecf5a80c91f9e90b662775106a8f8a5201aa966a37066f9e5e506ef363"),
    ("CC", "8aff59949c1c0fcae5456d09527a9e192c21b51f0a4ec0513bc0158c37f757ff"),
    ("CCP", "b2ae2e0fa8f1d1396052b505ae24174ae4054faa29534d944519b195f1351a98"),
    ("RTD_CC", "3aaddb9a962e2e5d46ee0ab3daf5e6e12ed5e61d6ad4178f03dc0a2a3a5fe418"),
    ("JIANG", "a5586182cf23b6f506b239e3aa2baef112386ed4bca516b0c370802d952670c8"),
    ("RTD_JIANG", "6b7e37b34b40363de7cb9d7e3a2dfa5ce84a65717137e12d6dcc79b0c9085844"),
    ("MARIC", "6293e039e63b2c74f03e4030ac94070a247b2285beaeef360b4ffe71766db7a9"),
])
def test_catalog_regions_are_pinned(sid, digest):
    # every region's vertices, half-planes and labels, as JSON: the verify
    # reports pin margins only, so a label could move without moving them
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    modes, seeds = zip(*itertools.product(SAMPLING_MODES, range(30)))
    d = sample_instances(schema, [random_channel(s, sizes) for s in seeds], seeds, modes)
    regions = project_or_empty(instantiate(schema, d))
    assert len(regions) == 90 and any(not p.is_empty for p in regions)
    text = json.dumps([polytope_to_json(p) for p in regions])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_vertices_csv_format():
    p = project_or_empty(segment_system())
    text = vertices_csv(p)
    lines = text.strip().splitlines()
    assert lines[0] == "R1,R2"
    assert len(lines) == 1 + len(p.vertices)
    assert "-0" not in text  # canonical zeros
