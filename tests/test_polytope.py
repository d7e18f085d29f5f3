import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cifc.channel import canonical_channel, random_channel
from cifc.errors import Infeasible, InvalidParameter, Unbounded
from cifc.polytope import (
    EMPTY,
    MAX_ORACLE_SUBSETS,
    Polytope2D,
    _distance_to_hull,
    compile_schema,
    containment_margin,
    fme_project,
    halfplane_violation,
    membership_oracle,
    oracle_polygon,
    polytope_contains,
    polytope_equal,
    polytope_from_json,
    polytope_to_json,
    project_or_empty,
    vertices_csv,
)
from cifc.regions import SCHEMA_IDS, LinearSystem, Row, builtin_schema, instantiate
from cifc.verify import SAMPLING_MODES, grid_agreement, sample_instance
from helpers import (
    degenerate_rtd_distribution,
    reference_distance_to_hull,
    reference_halfplane_violation,
)


def segment_system():
    # R1pb + R1pb' <= 1, rates nonnegative, R1 = R1pb, R2 = 0
    return LinearSystem(("R1pb", "R1pb'"), (Row((1, 1), 1.0),), (1, 0), (0, 0))


def unit_square():
    return LinearSystem(("a", "b"), (Row((1, 0), 1.0), Row((0, 1), 1.0)), (1, 0), (0, 1))


def orthogonal_square_system():
    from helpers import square_assignment

    rtd = builtin_schema("RTD")
    return instantiate(rtd, square_assignment())


def test_segment_projection():
    p = fme_project(segment_system())
    assert polytope_equal(p, type(p)(p.halfplanes, ((0.0, 0.0), (1.0, 0.0))), 1e-12)
    # every half-plane is tight somewhere on the segment
    for h in p.halfplanes:
        assert min(abs(h.value(x, y)) for x, y in p.vertices) < 1e-9


def test_degenerate_point_projection():
    sys0 = LinearSystem(("a", "b"), (Row((1, 0), 0.0), Row((0, 1), 0.0)), (1, 0), (0, 1))
    p = fme_project(sys0)
    assert p.vertices == ((0.0, 0.0),)


def test_orthogonal_square_projection():
    p = fme_project(orthogonal_square_system())
    expected = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
    got = {(round(x, 9), round(y, 9)) for x, y in p.vertices}
    assert got == expected


def test_vertices_ccw_and_in_quadrant():
    p = fme_project(orthogonal_square_system())
    assert all(x >= -1e-12 and y >= -1e-12 for x, y in p.vertices)
    area2 = 0.0
    vs = list(p.vertices)
    for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0  # counterclockwise


def test_infeasible_raises():
    sys_bad = LinearSystem(("a",), (Row((1,), -1.0),), (1,), (0,))
    with pytest.raises(Infeasible):
        fme_project(sys_bad)
    assert project_or_empty(sys_bad).is_empty


def test_unbounded_detected_when_decoding_rows_removed():
    from helpers import square_assignment

    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    # strip every row bounding R2pa: the region is unbounded along it
    crippled = inst.drop("1d", "1e", "1f")
    with pytest.raises(Unbounded):
        fme_project(crippled)


def test_unbounded_reported_only_for_nonempty_regions():
    # a >= 1 and b <= cap: unbounded in R1 when cap >= 0, empty otherwise
    def system(cap):
        return LinearSystem(("a", "b"), (Row((-1, 0), -1.0), Row((0, 1), cap)), (1, 0), (0, 1))

    with pytest.raises(Unbounded):
        fme_project(system(1.0))
    with pytest.raises(Infeasible):
        fme_project(system(-1.0))


def test_bounded_system_with_a_vertex_far_beyond_its_rhs():
    # a - b <= 1 and 3b - 2a <= 1 meet at (4, 3): a reaches 4, beyond the
    # sum of the right-hand sides
    system = LinearSystem(("a", "b"), (Row((1, -1), 1.0), Row((-2, 3), 1.0)), (1, 0), (0, 1))
    p = fme_project(system)
    expected = Polytope2D((), ((0.0, 0.0), (1.0, 0.0), (4.0, 3.0), (0.0, 1.0 / 3.0)))
    assert polytope_equal(p, expected, 1e-12)
    assert polytope_equal(p, Polytope2D((), oracle_polygon(system)), 1e-9)


def test_projection_keeps_close_vertices_of_a_catalog_region():
    # RTD_CC, seed 21, "det": a numeric eliminator that merged vertices
    # within 1e-9 lost 1.26e-9 bits of the lambda = 1 maximum here
    schema = builtin_schema("RTD_CC")
    d = sample_instance(schema, random_channel(21), 21, mode="det")
    system = instantiate(schema, d)
    got = _support(fme_project(system).vertices, 1.0)
    assert got == pytest.approx(_support(oracle_polygon(system), 1.0), abs=1e-12)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    # rhs on a 1/64 grid: every vertex then sits far from the 1e-9 feasibility
    # slack, which the oracle applies per basic solution and the projector
    # per vertex, while ties and degenerate faces still occur exactly
    rhs = st.integers(-32, 128).map(lambda k: k / 64)
    rows = draw(st.lists(st.builds(Row, coeffs, rhs), min_size=1, max_size=4))
    proj = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    return LinearSystem(tuple(f"x{i}" for i in range(n)), tuple(rows), draw(proj), draw(proj))


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
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    for seed in range(40):
        d = sample_instance(schema, random_channel(seed, sizes), seed, mode=mode)
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        b = compiled.rhs(d)
        for lam in (0.0, 0.3, 0.5, 1.0):
            got = compiled.support(b, lam, 1.0 - lam)
            # feasibility agrees with fme_project's Infeasible
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
    b = compiled.rhs(square_assignment())
    assert compiled.support(b, 0.5, 0.5) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    assert compiled.support(b, 1.0, 0.0) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
    origin = compiled.support(compiled.rhs(degenerate_rtd_distribution()), 0.3, 0.7)
    assert origin == (0.0, 0.0, 0.0)
    assert all(str(v) == "0.0" for v in origin)  # no negative zeros


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_every_catalog_schema_compiles_bounded(sid):
    compiled = compile_schema(builtin_schema(sid))
    assert compiled.projected
    # the rhs matrices are exact integers over the schema's rows
    rhs_map = compiled.rhs_map
    assert rhs_map.expr_matrix.shape[0] == len(builtin_schema(sid).constraints)
    assert rhs_map.atom_matrix.dtype.kind == rhs_map.expr_matrix.dtype.kind == "i"


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_instantiated_rhs_equal_compiled_rhs_bit_for_bit(sid, mode):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    for seed in range(10):
        d = sample_instance(schema, random_channel(seed, sizes), seed, mode=mode)
        system = instantiate(schema, d)
        assert [r.rhs for r in system.rows] == compile_schema(schema).rhs(d).tolist(), seed


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_facet_labels_name_rows_that_suffice(sid):
    # a row no half-plane names never touches the polygon, so it does not shape it
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    nonempty = 0
    for mode, seed in itertools.product(SAMPLING_MODES, range(6)):
        d = sample_instance(schema, random_channel(seed, sizes), seed, mode=mode)
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        rows = {r.label for r in system.rows}
        named = {lab for h in poly.halfplanes for lab in h.labels}
        assert named <= rows, (mode, seed)
        if not poly.is_empty:
            nonempty += 1
            reduced = fme_project(system.drop(*(rows - named)))
            assert polytope_equal(reduced, poly, 1e-9), (mode, seed, sorted(rows - named))
    assert nonempty


def test_compiled_unbounded_when_decoding_rows_removed():
    rtd = builtin_schema("RTD")
    crippled = dataclasses.replace(
        rtd, constraints=tuple(c for c in rtd.constraints if c.label not in ("1d", "1e", "1f"))
    )
    with pytest.raises(Unbounded, match="unbounded"):
        compile_schema(crippled)


# -- membership oracle ---------------------------------------------------------


def test_oracle_origin_of_zero_system():
    rtd = builtin_schema("RTD")
    system = instantiate(rtd, degenerate_rtd_distribution())
    assert membership_oracle(system, (0.0, 0.0))
    assert not membership_oracle(system, (0.1, 0.0))


def test_oracle_rejects_point_beyond_cap():
    assert membership_oracle(segment_system(), (1.0, 0.0))
    assert not membership_oracle(segment_system(), (2.0, 0.0))


def test_oracle_square_grid_agreement():
    system = orthogonal_square_system()
    poly = fme_project(system)
    assert len(oracle_polygon(system)) == 4
    probes = list(itertools.product(np.linspace(0.0, 1.25, 21), repeat=2))
    in_f = halfplane_violation(poly, probes) <= 0
    in_o = [membership_oracle(system, p, tol=0.0) for p in probes]
    assert in_f.tolist() == in_o


def test_oracle_refuses_too_many_subsets():
    # 40 rates and one row: C(41, 40) = 41 subsets is fine, C(80, 40) is not
    n = 40
    small = LinearSystem(tuple(f"x{i}" for i in range(n)), (Row((1,) * n, 1.0),),
                         (1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2))
    assert math.comb(41, 40) <= MAX_ORACLE_SUBSETS < math.comb(80, 40)
    big = dataclasses.replace(small, rows=tuple(
        Row(tuple(int(i == k) for i in range(n)), 1.0) for k in range(n)))
    with pytest.raises(InvalidParameter, match="C\\(80, 40\\)"):
        oracle_polygon(big)
    assert len(oracle_polygon(small)) == 3  # the triangle R1 + R2 <= 1


@pytest.mark.parametrize("sid", ["RTD", "JIANG", "CCP"])
def test_oracle_full_agreement_sampled(sid):
    schema = builtin_schema(sid)
    for i, seed in enumerate(range(6)):
        ch = random_channel(seed)
        d = sample_instance(schema, ch, seed, mode=["free", "det", "flat_det"][i % 3])
        system = instantiate(schema, d)
        poly = project_or_empty(system)
        bad, worst = grid_agreement(system, poly, grid=15)
        assert bad == 0, f"seed {seed}: worst {worst}"


def empty_system():
    # the unit square plus the variable-free row 0 <= -1
    return dataclasses.replace(unit_square(), rows=unit_square().rows + (Row((0, 0), -1.0),))


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
        d = sample_instance(schema, random_channel(seed, sizes), seed, mode=mode)
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
    for poly in (fme_project(segment_system()), fme_project(unit_square()),
                 project_or_empty(instantiate(builtin_schema("RTD"), degenerate_rtd_distribution()))):
        _assert_matches_reference(poly, hulls, probes)


def test_empty_region_contains_no_point():
    assert halfplane_violation(EMPTY, [(0.5, 0.5)]).tolist() == [math.inf]
    assert halfplane_violation(EMPTY, []).shape == (0,)
    assert containment_margin(EMPTY, fme_project(unit_square())) == math.inf
    assert _distance_to_hull((), [(0.0, 0.0), (1.0, 2.0)]).tolist() == [math.inf, math.inf]


# -- containment and equality ----------------------------------------------------


def test_contains_self_and_origin():
    p = fme_project(orthogonal_square_system())
    assert polytope_contains(p, p, tol=0.0)
    point = fme_project(
        LinearSystem(("a", "b"), (Row((1, 0), 0.0), Row((0, 1), 0.0)), (1, 0), (0, 1))
    )
    assert polytope_contains(p, point)


def test_scaled_square_not_contained():
    inner = fme_project(unit_square())
    outer = fme_project(
        LinearSystem(("a", "b"), (Row((1, 0), 1.1), Row((0, 1), 1.1)), (1, 0), (0, 1))
    )
    assert polytope_contains(outer, inner)
    assert not polytope_contains(inner, outer, tol=1e-7)
    assert containment_margin(inner, outer) == pytest.approx(0.1, abs=1e-9)


def test_empty_containment_rules():
    p = fme_project(unit_square())
    assert polytope_contains(p, EMPTY)
    assert not polytope_contains(EMPTY, p)
    assert polytope_equal(EMPTY, EMPTY)
    assert not polytope_equal(p, EMPTY)


# -- spec invariants --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_relaxing_rhs_never_shrinks(seed):
    rtd = builtin_schema("RTD")
    d = sample_instance(rtd, canonical_channel("bsc_pair", eps1=0.05, eps2=0.1), seed,
                        mode="flat_det")
    inst = instantiate(rtd, d)
    base = project_or_empty(inst)
    for k, row in enumerate(inst.rows):
        # an LE-normal row relaxes by raising its rhs, whatever its sense
        rows = list(inst.rows)
        rows[k] = dataclasses.replace(row, rhs=row.rhs + 0.1)
        bigger = project_or_empty(dataclasses.replace(inst, rows=tuple(rows)))
        if base.is_empty:
            continue
        assert polytope_contains(bigger, base, tol=1e-9), row.label


@pytest.mark.parametrize("seed", range(8))
def test_projection_downward_closed(seed):
    rtd = builtin_schema("RTD")
    d = sample_instance(rtd, canonical_channel("bsc_pair", eps1=0.05, eps2=0.1), seed,
                        mode="flat_det")
    poly = project_or_empty(instantiate(rtd, d))
    if poly.is_empty:
        return
    rng = np.random.default_rng(seed)
    for x, y in poly.vertices:
        t, s = rng.random(2)
        assert halfplane_violation(poly, [(x * t, y * s)])[0] <= 1e-9


# -- serialization -----------------------------------------------------------------


def test_polytope_json_roundtrip():
    p = fme_project(orthogonal_square_system())
    back = polytope_from_json(json.loads(json.dumps(polytope_to_json(p))))
    assert polytope_equal(p, back, 1e-12)
    assert len(back.halfplanes) == len(p.halfplanes)
    # the round trip is exact: normals and offsets are stored as floats, and
    # HalfPlane equality compares each facet's labels too
    assert back == p and any(h.labels for h in back.halfplanes)
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        rvs = schema.rv_set(2)
        for seed in range(6):
            ch = random_channel(seed, (rvs.size("X1"), rvs.size("X2"), 2, 2))
            d = sample_instance(schema, ch, seed, mode=SAMPLING_MODES[seed % 3])
            p = project_or_empty(instantiate(schema, d))
            assert polytope_from_json(json.loads(json.dumps(polytope_to_json(p)))) == p


def test_vertices_csv_format():
    p = fme_project(segment_system())
    text = vertices_csv(p)
    lines = text.strip().splitlines()
    assert lines[0] == "R1,R2"
    assert len(lines) == 1 + len(p.vertices)
    assert "-0" not in text  # canonical zeros
