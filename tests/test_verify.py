import ast
import hashlib
import json

import numpy as np
import pytest

from cifc.channel import Channel, Alphabet, canonical_channel, random_channel
from cifc.errors import InvalidParameter
from cifc.probability import (
    JointDistribution,
    MIExpr,
    RandomVariableSet,
    chain,
    extend_through_channel,
    evaluate_expr,
    mutual_information,
    mi,
)
from cifc.polytope import containment_margin, halfplane_violation, polytope_equal, project_or_empty
from cifc.regions import builtin_schema, instantiate
from cifc.sampling import _mode_for, sample_factored
from cifc.verify import (
    JIANG_EXTRA,
    REGION_TOL,
    IdentityCheck,
    check_cc_reduction,
    check_droppable,
    check_fme_oracle,
    check_identities,
    check_jiang_containment,
    cc_primed_expressions,
    devroye_identity_checks,
    maric_identity_checks,
    reports_to_json,
    run_suite,
    sample_instance,
    sampled_region_containment,
    trace_frontier,
)

BSC = canonical_channel("bsc_pair", eps1=0.05, eps2=0.1)


# -- samplers -----------------------------------------------------------------


@pytest.mark.parametrize("sid", ["RTD", "RTD_IN", "CCP", "JIANG", "CC"])
@pytest.mark.parametrize("mode", ["free", "det", "flat_det"])
def test_sample_instance_obeys_factorization(sid, mode):
    schema = builtin_schema(sid)
    d = sample_instance(schema, random_channel(5), 5, mode=mode)
    instantiate(schema, d)  # raises on violation


def test_sample_instance_maric_pairing():
    mar = builtin_schema("MARIC")
    d = sample_instance(mar, random_channel(1, sizes=(2, 4, 2, 2)), 1, mode="free")
    from cifc.probability import entropy

    assert entropy(d, "X2", "X2a X2b") == pytest.approx(0.0, abs=1e-12)


def test_sample_instance_unknown_mode():
    with pytest.raises(InvalidParameter):
        sample_instance(builtin_schema("RTD"), BSC, 0, mode="warm")


def test_sample_instance_deterministic():
    a = sample_instance(builtin_schema("RTD"), BSC, 9, mode="det")
    b = sample_instance(builtin_schema("RTD"), BSC, 9, mode="det")
    assert np.array_equal(a.prob, b.prob)


PINNED_DRAWS = [
    ("RTD", 0, "free", 2, "f8a8546abfe30dfc5e51d30b4b027507adf5d236e6274e712a7ea132164cc774"),
    ("RTD", 1, "det", 2, "0ced1065e46d880e047d2c6b741210f4d5231e308676e5d0a194d98b32731529"),
    ("CCP", 2, "flat_det", 2, "c4d5fd5eddb2cf2f5aa78da63d1fb9ce9173450bf59f69620f94b6c9d046e71f"),
    ("MARIC", 3, "det", 2, "49b9dffbdd8c5f65f839492e3da152ea3845f3c7b2fc8d8758a50eea66cd12e0"),
    ("JIANG", 4, "free", 2, "78a295a087a17ca92b097cd340d599d72fc1ccd63e92f1f47a501b8943a8d37e"),
    ("RTD_CC", 5, "flat_det", 2, "f983136cef4fb96ba2b347eaf7e989143ed902c1a9dd64c7fae8b4370e5e7e0b"),
    # a first factor with several targets, flattened into marginals
    ("RTD", 6, "flat_det", 2, "9bb2a1d7036b7955696e33f4d40f3b61c5cc07978b439fb0001f883f46559eb9"),
    # a first factor with a single target
    ("CC", 7, "flat_det", 2, "1c3711909370cc98450162b12d1f9accf09a72462fda50928786f292ef3192e8"),
    # the X2 <- U2c table of STRUCT_INPUT_DEPS indexed beyond binary
    ("RTD", 8, "det", 3, "9c1967d2753bbdf04be947c985879463bf182d1239213dea3b39793100fa547c"),
]


# the ids leave out the size, so the rows drawn before it was a column keep their names
@pytest.mark.parametrize(
    "sid, seed, mode, size, digest", PINNED_DRAWS,
    ids=[f"{sid}-{seed}-{mode}-{digest}" for sid, seed, mode, _, digest in PINNED_DRAWS],
)
def test_sample_instance_draws_are_pinned(sid, seed, mode, size, digest):
    # Reported counts (e.g. the nonempty instances of the acceptance
    # criteria) stay comparable only while each seed draws the same joint.
    schema = builtin_schema(sid)
    rvs = schema.rv_set(size)
    sizes = (rvs.size("X1"), rvs.size("X2"), 2, 2)
    d = sample_instance(schema, random_channel(seed, sizes), seed, size=size, mode=mode)
    assert hashlib.sha256(d.prob.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("sid, size, seed, digest", [
    ("RTD", 2, 0, "9852f2d477b987cc35fb5f14d764a3e0a8cb7926c6a49e68345f5f77cd785836"),
    ("CC", 3, 1, "2072a1c7a1be9d242b75838b1fbcd22df894fc2e655cf4465717430452125cf9"),
    ("MARIC", 2, 2, "00318b0dffc6323cfd8ef9df09d22d8bea6622b30808002c2771bd77f1968eb2"),
    ("JIANG", 3, 3, "e27439e9c8fe7d5e6d4ba893006f3b8eba44e2d348f5c12178bb60c030e7ceb2"),
])
def test_sample_factored_draws_are_pinned(sid, size, seed, digest):
    schema = builtin_schema(sid)
    d = sample_factored(schema.rv_set(size), schema.factorization, seed)
    assert hashlib.sha256(d.prob.tobytes()).hexdigest() == digest


def test_sample_factored_draw_with_unsorted_chain_is_pinned():
    # targets and conditions out of axis order, with unequal cardinalities
    rvs = RandomVariableSet(("A", "B", "C"), (2, 3, 4))
    d = sample_factored(rvs, chain(("B",), ("C A", "B")), 5)
    assert hashlib.sha256(d.prob.tobytes()).hexdigest() == (
        "8c4b30078bccb3238cb53d83cb664be4cffde307a27c13cf14abbcc98741a230"
    )


def test_frontier_search_draws_are_pinned():
    # the climb's moves, restarts and the paired X2 block all draw through
    # the sampler; the CSV below was written before it was consolidated
    result = trace_frontier("RTD_CC", BSC, budget=800, seed=3, lambdas=2)
    assert result.to_csv() == (
        "lambda,R1,R2,seed\n"
        "0,0.00355225768378,0.531004406411,3000009\n"
        "1,0.713603042884,0,3000010\n"
    )


# -- identity suites (small runs; full sizes live in the acceptance tests) ----


def test_devroye_small_run_clean():
    report, = run_suite("devroye", samples=25, seed=0)
    assert report.ok
    ids = {c.check_id for c in report.checks}
    assert ids == {"e13_e23", "e14_e24", "e15_e25", "e16_e26", "e17_e27", "e18_e28", "e19_e29"}
    assert report.check("e17_e27").details["gap_histogram"]["min"] >= 0.0


def test_devroye_product_distribution_gap_zero():
    """Fully independent auxiliaries: the e17 comparison gap I(U1c;U1pb) = 0."""
    schema = builtin_schema("RTD_IN")
    marginals = [np.random.default_rng(3 + i).dirichlet([1, 1]) for i in range(5)]
    prob = np.ones((2,) * 5)
    for ax, m in enumerate(marginals):
        shape = [1] * 5
        shape[ax] = 2
        prob = prob * m.reshape(shape)
    d = JointDistribution(schema.rv_set(2), prob)
    d = extend_through_channel(d, random_channel(3))
    for check in devroye_identity_checks():
        for e in check.zero:
            assert abs(evaluate_expr(d, e)) < 1e-9
        for e in check.nonneg:
            assert evaluate_expr(d, e) > -1e-9
    assert mutual_information(d, mi("U1c", "U1pb")) == pytest.approx(0.0, abs=1e-12)


def test_cc_small_run_clean():
    report = check_cc_reduction(samples=20, seed=0, proj_instances=12)
    assert report.ok
    projected = report.check("pinned projections vertex-identical")
    assert projected.details["nonempty_instances"] > 0


def test_cc_degenerate_satellite_gap_vanishes():
    """U11 of cardinality one: the merge gap I(V22,V20;U11|U10) is zero."""
    cc = builtin_schema("CC")
    rvs = cc.rv_set(2, overrides={"U11": 1})
    d = sample_factored(rvs, cc.factorization, 7)
    d = extend_through_channel(d, random_channel(7))
    primed = cc_primed_expressions()
    for lab in ("38", "41"):
        delta = evaluate_expr(d, primed[lab + "p"]) - evaluate_expr(d, cc.constraint(lab).rhs)
        assert delta == pytest.approx(0.0, abs=1e-12)


def test_jiang_small_run_clean():
    report = check_jiang_containment(samples=20, seed=0, containment_instances=12)
    assert report.ok
    contain = report.check("comparator region inside unified region")
    assert contain.details["strictly_smaller"] >= 0


@pytest.mark.parametrize("seed", [0, 1])
def test_jiang_extra_bounds_named_iff_dropping_them_reshapes(seed):
    # reference: a bound is active when re-projecting without it changes the
    # region; the check reads the same fact from the facet labels
    jg, uj = builtin_schema("JIANG"), builtin_schema("RTD_JIANG")
    strict = active = 0
    for i in range(100):
        s = seed + 20_000 + i
        d = sample_instance(jg, random_channel(s), s, mode=_mode_for(i))
        system = instantiate(jg, d)
        pj = project_or_empty(system)
        pu = project_or_empty(instantiate(uj, d))
        if pj.is_empty or pu.is_empty or polytope_equal(pu, pj, 1e-9):
            continue
        strict += 1
        named = {lab for h in pj.halfplanes for lab in h.labels} & set(JIANG_EXTRA)
        reshaping = {lab for lab in JIANG_EXTRA
                     if not polytope_equal(pj, project_or_empty(system.drop(lab)), 1e-9)}
        assert named == reshaping, s
        active += bool(reshaping)
    contain = check_jiang_containment(samples=1, seed=seed).check(
        "comparator region inside unified region")
    assert contain.details["strictly_smaller"] == strict > 0
    assert contain.details["extra_bound_active_when_strict"] == active


def test_maric_small_run_clean():
    report, = run_suite("maric", samples=15, seed=0)
    assert report.ok


def test_every_identity_check_records_each_seed_once():
    for report in run_suite("all", samples=5, seed=0):
        for check in report.checks:
            assert check.seeds_run == 5, (report.suite, check.check_id)


@pytest.mark.parametrize("claim", [
    IdentityCheck("false zero", zero=(MIExpr.of(mi("Y1", "U1c")),)),
    IdentityCheck("negated gap", nonneg=(-mi("U1c", "U1pb"),)),
], ids=["zero", "nonneg"])
def test_identity_runner_fails_a_false_claim(claim):
    # both claims are false on a generic RTD_IN draw; a vacuous runner would pass them
    report = check_identities("demo", "RTD_IN", [claim], samples=4, seed=0)
    check, = report.checks
    assert not report.ok and check.seeds_run == 4
    assert check.worst_seed in range(4) and check.max_abs_violation > 1e-3
    assert len(check.failures) == 4
    assert any(f.startswith(f"seed {check.worst_seed}: ") for f in check.failures)


def test_maric_degenerate_part_gives_zero_difference():
    """X2a of cardinality one: merged and original bounds coincide."""
    from cifc.regions import maric_merged

    mar = builtin_schema("MARIC")
    merged = maric_merged()
    rvs = mar.rv_set(2, overrides={"X2a": 1})
    spec = chain(
        ("Q",), ("U1c", "Q"), ("U1a", "Q U1c"), ("X2a", "Q U1c U1a"),
        ("X2b", "Q U1c U1a X2a"), ("X1", "Q U1c U1a X2a X2b"),
    )
    names = tuple(n for n in mar.variables if n != "X2")
    base = sample_factored(
        RandomVariableSet(names, tuple(rvs.size(n) for n in names)), spec, 11
    )
    from cifc.probability import add_paired_variable

    d = add_paired_variable(base, "X2", ("X2a", "X2b"))
    d = extend_through_channel(d, random_channel(11, sizes=(2, 2, 2, 2)))
    io = instantiate(mar, d)
    im = instantiate(merged, d)
    assert im.rhs("m1'") - io.rhs("m1") == pytest.approx(0.0, abs=1e-12)


# -- containment ----------------------------------------------------------------


def test_containment_self_margin_zero():
    report = sampled_region_containment("RTD_IN", "RTD_IN", samples=10, seed=0)
    assert report.ok
    worst = report.checks[0].details["worst_margin"]
    assert worst is None or worst <= 1e-12


def test_containment_dmt_pair():
    report = sampled_region_containment(
        "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=20, seed=0
    )
    assert report.ok
    assert report.checks[0].details["nonempty_instances"] > 0


def test_reversed_containment_fails_at_the_most_violating_vertex():
    # the unified region is the larger one, so JIANG cannot contain it
    check = sampled_region_containment("JIANG", "RTD_JIANG", samples=20, seed=0).checks[0]
    assert check.failures and set(check.details) == {"worst_margin", "nonempty_instances"}
    for message in check.failures:
        head, rest = message.split(": vertex ")
        s = int(head.removeprefix("seed "))
        vertex = ast.literal_eval(rest.split(" outside")[0])
        d = sample_instance(builtin_schema("RTD_JIANG"), random_channel(s), s, mode=_mode_for(s))
        po = project_or_empty(instantiate(builtin_schema("JIANG"), d))
        pi = project_or_empty(instantiate(builtin_schema("RTD_JIANG"), d))
        assert vertex in pi.vertices
        assert halfplane_violation(po, [vertex])[0] == containment_margin(po, pi) > REGION_TOL


def test_containment_jiang_pair():
    report = sampled_region_containment("RTD_JIANG", "JIANG", samples=20, seed=0)
    assert report.ok


# -- equivalence and droppability (small) -----------------------------------------


def test_fme_oracle_small():
    report = check_fme_oracle(["RTD_IN", "CC"], instances=8, seed=0, grid=11)
    assert report.ok


def test_droppable_small():
    report = check_droppable(instances=10, seed=0)
    assert report.ok
    by_id = {c.check_id: c for c in report.checks}
    sound = [c for label, c in by_id.items() if "1i" not in label]
    assert all(c.details["empty_instances"] < c.seeds_run for c in sound)


# -- frontier ----------------------------------------------------------------------


def test_frontier_constant_channel_collapses_to_origin():
    t = np.zeros((2, 2, 2, 2))
    t[1, 0, :, :] = 1.0
    ch = Channel(Alphabet("X1", 2), Alphabet("X2", 2), Alphabet("Y1", 2), Alphabet("Y2", 2), t)
    fr = trace_frontier("RTD", ch, budget=40, seed=0, lambdas=[0.3, 0.7])
    assert fr.pareto == ((0.0, 0.0),)
    assert fr.missing == ()
    assert "-0" not in fr.to_csv()  # canonical zeros


def test_frontier_orthogonal_reaches_near_corner():
    ch = canonical_channel("orthogonal_noiseless")
    fr = trace_frontier("RTD", ch, budget=1500, seed=1, lambdas=[0.5])
    (lam, r1, r2, _), = fr.points
    assert lam == 0.5
    assert r1 >= 0.95 and r2 >= 0.95


def test_frontier_deterministic_and_csv():
    from cifc.verify import frontier_points_from_csv

    fr1 = trace_frontier("RTD", BSC, budget=50, seed=4, lambdas=[0.4])
    fr2 = trace_frontier("RTD", BSC, budget=50, seed=4, lambdas=[0.4])
    assert fr1.points == fr2.points
    text = fr1.to_csv()
    assert text.splitlines()[0] == "lambda,R1,R2,seed"
    parsed = frontier_points_from_csv(text)
    assert all(
        a == pytest.approx(b, abs=1e-12)
        for row, orig in zip(parsed, fr1.points)
        for a, b in zip(row, orig)
    )


def test_frontier_pareto_filter_nondominated():
    fr = trace_frontier("RTD", BSC, budget=60, seed=2, lambdas=[0.2, 0.5, 0.8])
    for p in fr.pareto:
        assert not any(
            q[0] >= p[0] + 1e-12 and q[1] >= p[1] - 1e-12 for q in fr.pareto if q != p
        )


# -- reports ------------------------------------------------------------------------


def test_reports_reproducible_and_serializable():
    a = check_identities("maric", "MARIC", maric_identity_checks(), samples=8, seed=3)
    b = check_identities("maric", "MARIC", maric_identity_checks(), samples=8, seed=3)
    ja = json.dumps(reports_to_json([a]), sort_keys=True)
    jb = json.dumps(reports_to_json([b]), sort_keys=True)
    assert ja == jb
    payload = json.loads(ja)
    check = payload["suites"][0]["checks"][0]
    assert {"id", "seeds_run", "max_abs_violation", "worst_seed"} <= set(check)


def test_run_suite_names():
    reports = run_suite("maric", samples=5, seed=0)
    assert len(reports) == 1 and reports[0].suite == "maric"
    with pytest.raises(InvalidParameter):
        run_suite("everything")
