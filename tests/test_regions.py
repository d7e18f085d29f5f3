import numpy as np
import pytest

import cifc.probability
from cifc.channel import random_channel
from cifc.errors import FactorizationViolation, InvalidParameter, UnknownSchema, UnknownVariable
from cifc.probability import (
    CompiledExprs,
    JointDistribution,
    chain,
    compile_exprs,
    entropy_term,
    entropy_vector,
    evaluate_expr,
    extend_through_channel,
    mi,
)
from cifc.regions import (
    SCHEMA_IDS,
    LinearRateConstraint,
    LinearSystem,
    builtin_schema,
    catalog_manifest,
    check_distribution,
    compile_schema,
    instantiate,
    instantiate_all,
    maric_merged,
    same_system,
    schema_manifest,
)
from cifc.sampling import (
    SAMPLING_MODES,
    _chain_plan,
    _draw,
    _joints,
    sample_factored,
    sample_instance,
    sample_instances,
)
from cifc.verify import _channel_sizes

EXPECTED_SHAPES = {
    # schema id -> (constraints, rate variables)
    "RTD": (11, 8),
    "RTD_IN": (9, 6),
    "DMT_OUT": (9, 6),
    "CC": (5, 2),
    "CCP": (8, 7),
    "RTD_CC": (9, 7),
    "JIANG": (10, 6),
    "RTD_JIANG": (8, 6),
    "MARIC": (5, 2),
}


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_schema_shapes(sid):
    schema = builtin_schema(sid)
    n_con, n_rate = EXPECTED_SHAPES[sid]
    assert len(schema.constraints) == n_con
    assert len(schema.rate_vars) == n_rate
    assert len(set(schema.labels())) == n_con


def test_rtd_labels_and_senses():
    rtd = builtin_schema("RTD")
    assert rtd.labels() == ("1a", "1b", "1c", "1d", "1e", "1f", "1g", "1h", "1i", "1j", "1k")
    senses = [c.sense for c in rtd.constraints]
    assert senses[:3] == ["GE"] * 3 and senses[3:] == ["LE"] * 8
    assert rtd.projection_coeffs("R1") == {"R1c": 1, "R1pb": 1}
    assert rtd.projection_coeffs("R2") == {"R2c": 1, "R2pa": 1, "R2pb": 1}


def test_cc_has_coefficient_two_on_r2():
    cc = builtin_schema("CC")
    two = [c for c in cc.constraints if c.coeff("R2") == 2]
    assert len(two) == 1 and two[0].label == "41"


def test_rtd_jiang_pins():
    uj = builtin_schema("RTD_JIANG")
    pins = dict(uj.pinned)
    assert pins["R2pb"] == "0"
    assert pins["R1c'"] == "I(U1c;X2|U2c)"
    names = uj.rate_vars
    assert "R2pb" not in names and "R1c'" not in names


def test_unknown_schema():
    with pytest.raises(UnknownSchema):
        builtin_schema("HK")


def test_constraint_requires_nonzero_coeff():
    with pytest.raises(ValueError):
        LinearRateConstraint((), "LE", mi("A", "B"), "x")


# -- droppable constraints ----------------------------------------------------


def test_droppable_full_mapping():
    rtd = builtin_schema("RTD")
    assert {label for label, _ in DROPPABLE} <= set(rtd.labels())
    assert set().union(*(zeroed for _, zeroed in DROPPABLE)) <= set(rtd.rate_vars)

    def drop(zeroed):
        return {label for label, required in DROPPABLE if required <= zeroed}

    assert drop({"R2c", "R2pa", "R2pb", "R2pb'"}) == {"1d", "1e", "1g"}
    assert drop({"R2pa", "R2pb", "R2pb'"}) == {"1e", "1g"}
    assert drop({"R2pb", "R2pb'"}) == {"1g"}
    assert drop({"R1c", "R1c'", "R1pb", "R1pb'"}) == {"1i"}
    assert drop(set()) == set()
    assert drop({"R2pb"}) == set()


# -- instantiation -------------------------------------------------------------


from helpers import (
    DROPPABLE,
    degenerate_rtd_distribution,
    make_system,
    reference_le_system,
    square_assignment,
)


def test_instantiate_degenerate_all_rhs_zero():
    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, degenerate_rtd_distribution())
    assert (inst.b == 0.0).all()


def test_instantiate_orthogonal_assignment_admits_one_one():
    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    # R1pb = R2pa = 1, everything else 0 satisfies all rows
    rates = {"R1pb": 1.0, "R2pa": 1.0}
    for coeffs, rhs, label in zip(inst.rows, inst.b, inst.labels):
        lhs = sum(c * rates.get(n, 0.0) for n, c in zip(inst.variables, coeffs))
        assert lhs <= rhs + 1e-9, label


def test_instantiate_rhs_matches_direct_mi():
    rtd = builtin_schema("RTD")
    d = sample_factored(rtd.rv_set(2), rtd.factorization, 13)
    d = extend_through_channel(d, random_channel(13))
    inst = instantiate(rtd, d)
    # 1a is a GE row: its LE-normal rhs is the negated MI value
    assert -inst.rhs("1a") == pytest.approx(
        evaluate_expr(d, mi("U1c", "X2", "U2c")), abs=1e-15
    )
    assert inst.rhs("1k") == pytest.approx(
        evaluate_expr(d, mi("Y1", "U1pb", "U1c U2c")), abs=1e-15
    )


def test_instantiate_missing_variable():
    rtd = builtin_schema("RTD")
    d = sample_factored(rtd.rv_set(2), rtd.factorization, 13)  # no channel outputs
    with pytest.raises(UnknownVariable):
        instantiate(rtd, d)


def test_instantiate_rejects_factorization_violation():
    schema = builtin_schema("RTD_IN")
    rvs = schema.rv_set(2)
    # fully correlated joint breaks U1c independent of U2c given X2
    general = sample_factored(
        rvs,
        # chain with no independence at all
        chain(
            ("U2c",), ("X2", "U2c"), ("U1c", "U2c X2"), ("U1pb", "U2c X2 U1c"),
            ("X1", "U2c X2 U1c U1pb"),
        ),
        seed=2,
    )
    d = extend_through_channel(general, random_channel(2))
    with pytest.raises(FactorizationViolation):
        instantiate(schema, d)


def test_instantiate_checks_determinism():
    ccp = builtin_schema("CCP")
    rvs = ccp.rv_set(2)
    free = chain(
        ("U2c",), ("U1c", "U2c"), ("U1pb U2pb", "U2c U1c"), ("X2", "U2c"),
        ("X1", "U2c U1c U1pb U2pb X2"),
    )
    d = sample_factored(rvs, free, 4)  # X2|U2c stochastic, not a copy
    d = extend_through_channel(d, random_channel(4))
    with pytest.raises(FactorizationViolation):
        instantiate(ccp, d)


# The messages are pinned as the check-by-check implementation wrote them.
@pytest.mark.parametrize("check", [instantiate, check_distribution])
def test_violations_name_the_first_failed_check_as_pinned(check):
    # chain order: an RTD draw couples U1c with U2c given X2, RTD_IN's second factor
    d = sample_instance(builtin_schema("RTD"), random_channel(0), 0, mode="free")
    with pytest.raises(FactorizationViolation) as err:
        check(builtin_schema("RTD_IN"), d)
    assert str(err.value) == "I(U1c;U2c|X2) = 9.813e-02 > 1e-09"
    # a paired copy drawn as a free block: MARIC's X2 is no copy of (X2a, X2b)
    mar = builtin_schema("MARIC")
    plan = _chain_plan(mar.rv_set(2), mar.factorization.factors)
    joint = _joints(plan.rvs, _draw([plan], [np.random.default_rng(0)]))[0]
    d = extend_through_channel(joint, random_channel(0, sizes=(2, 4, 2, 2)))
    with pytest.raises(FactorizationViolation) as err:
        check(mar, d)
    assert str(err.value) == "MARIC: H(X2|X2a,X2b) = 1.845e+00 > 1e-09"


def test_a_batch_names_its_first_violation_as_that_member_alone_would():
    schema = builtin_schema("RTD_IN")
    general = chain(
        ("U2c",), ("X2", "U2c"), ("U1c", "U2c X2"), ("U1pb", "U2c X2 U1c"),
        ("X1", "U2c X2 U1c U1pb"),
    )
    good = [sample_instance(schema, random_channel(s), s) for s in range(2)]
    bad = [extend_through_channel(sample_factored(schema.rv_set(2), general, s), random_channel(s))
           for s in (2, 3)]
    messages = []
    for d in bad:
        with pytest.raises(FactorizationViolation) as err:
            instantiate(schema, d)
        messages.append(str(err.value))
    assert messages[0] != messages[1]
    members = (good[0], bad[0], good[1], bad[1])
    batch = JointDistribution(good[0].rvs, np.stack([m.prob for m in members]))
    for check in (instantiate, check_distribution):
        with pytest.raises(FactorizationViolation) as err:
            check(schema, batch)
        assert str(err.value) == messages[0]


# each factor's I(T;earlier-G|G) in chain order, then each paired copy's
# H(X|parts), named as the FactorizationViolation texts above name them
REQUIREMENTS = {
    "RTD": (),
    "RTD_IN": ("I(U1c;U2c|X2)", "I(U1pb;U2c,U1c|X2)", "I(X1;U2c|X2,U1c,U1pb)"),
    "DMT_OUT": ("I(U1c;U2c|X2)", "I(U1pb;U2c,U1c|X2)", "I(X1;U2c|X2,U1c,U1pb)"),
    "CC": (),
    "CCP": ("I(X2;U1c,U1pb,U2pb|U2c)", "CCP: H(X2|U2c)"),
    "RTD_CC": ("I(X2;U1c,U1pb,U2pb|U2c)", "RTD_CC: H(X2|U2c)"),
    "JIANG": ("I(U2c;U1c|)", "I(X2;U1c|U2c)", "I(X1;X2|U2c,U1c,U1pb,U2pb)"),
    "RTD_JIANG": ("I(U2c;U1c|)", "I(X2;U1c|U2c)", "I(X1;X2|U2c,U1c,U1pb,U2pb)"),
    "MARIC": ("I(X2;Q,U1c,U1a|X2a,X2b)", "MARIC: H(X2|X2a,X2b)"),
}


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_requirements_are_the_chain_independencies_then_determinism(sid):
    schema = builtin_schema(sid)
    assert tuple(name for name, _ in schema.requirements) == REQUIREMENTS[sid]
    n = len(schema.requirements) - len(schema.deterministic)
    earlier = []
    independencies = []
    for f in schema.factorization.factors:
        rest = [v for v in earlier if v not in f.given]
        if rest:
            independencies.append(mi(f.targets, rest, f.given))
        earlier += f.targets
    assert [atom for _, atom in schema.requirements[:n]] == independencies
    assert [atom for _, atom in schema.requirements[n:]] == [
        entropy_term(name, parts) for name, parts in schema.deterministic]


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_one_checked_rhs_map_per_schema(sid, monkeypatch):
    schema = builtin_schema(sid)
    rhs = compile_schema(schema).rhs
    assert rhs is compile_exprs(tuple(c.rhs for c in schema.constraints), schema.requirements)
    d = sample_instance(schema, random_channel(0, _channel_sizes(schema)), 0)
    called = []
    evaluate = CompiledExprs.from_entropies
    monkeypatch.setattr(CompiledExprs, "from_entropies",
                        lambda self, *args: called.append(self) or evaluate(self, *args))
    instantiate(schema, d)
    assert len(called) == 1 and called[0] is rhs


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_checked_leading_values_equal_their_own_map_bit_for_bit(sid):
    schema = builtin_schema(sid)
    leading = tuple(c.rhs for c in schema.constraints)
    checked, own = compile_exprs(leading, schema.requirements), compile_exprs(leading)
    assert checked.subsets[: len(own.subsets)] == own.subsets
    sign = compile_schema(schema).sign
    for mode in SAMPLING_MODES:
        for seed in range(10):
            ch = random_channel(seed, _channel_sizes(schema))
            d = sample_instance(schema, ch, seed, mode=mode)
            expected = own(d)
            assert np.array_equal(checked(d), expected), (mode, seed)
            rhs = instantiate(schema, d).b
            assert np.array_equal(rhs, sign * expected), (mode, seed)


def test_instantiate_makes_one_entropy_pass(monkeypatch):
    calls = []
    kernel = cifc.probability.entropy_vector

    def counted(d, subsets):
        calls.append(len(subsets))
        return kernel(d, subsets)

    monkeypatch.setattr(cifc.probability, "entropy_vector", counted)
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        leading = tuple(c.rhs for c in schema.constraints)
        d = sample_instance(schema, random_channel(1, _channel_sizes(schema)), 1)
        instantiate(schema, d)
        assert calls == [len(compile_exprs(leading, schema.requirements).subsets)], sid
        check_distribution(schema, d)
        assert len(calls) == 2, sid
        calls.clear()


@pytest.mark.parametrize("outer, inner", [("RTD_IN", "DMT_OUT"), ("RTD_JIANG", "JIANG"),
                                          ("RTD_CC", "CCP")])
@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_schemas_on_one_batch_share_one_entropy_pass_bit_for_bit(outer, inner, mode):
    # the verify suites instantiate these pairs on the inner schema's draws
    schemas = builtin_schema(inner), builtin_schema(outer)
    seeds = range(12)
    channels = [random_channel(s, _channel_sizes(schemas[0])) for s in seeds]
    d = sample_instances(schemas[0], channels, seeds, [mode] * len(seeds))
    compiled = [compile_schema(schema) for schema in schemas]
    assert set(compiled[1].rhs.subsets) <= set(compiled[0].rhs.subsets)
    union = compiled[0].rhs.subsets
    shared = entropy_vector(d, union)
    for c, system in zip(compiled, instantiate_all(schemas, d)):
        own = entropy_vector(d, c.rhs.subsets)
        assert shared[:, [union.index(s) for s in c.rhs.subsets]].tobytes() == own.tobytes()
        assert system.b.tobytes() == (c.sign * c.rhs(d)).tobytes()


# -- pin/drop/system comparison ------------------------------------------------


def test_pin_and_drop():
    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    pinned = inst.pin({"R2pb": 0.0, "R2pb'": 0.0})
    assert "R2pb" not in pinned.variables and "R2pb'" not in pinned.variables
    for row in pinned.rows:
        assert len(row) == len(pinned.variables) == len(inst.variables) - 2
    dropped = pinned.drop("1g")
    assert len(dropped.rows) == len(pinned.rows) - 1
    with pytest.raises(KeyError):
        dropped.rhs("1g")


def test_pin_shifts_rhs():
    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    pinned = inst.pin({"R2pa": 0.25})
    assert pinned.rhs("1f") == pytest.approx(inst.rhs("1f") - 0.25, abs=1e-12)


def test_without_vacuous_keeps_violated_variable_free_rows():
    from cifc.polytope import project_or_empty

    rows = (
        ((1,), 1.0, "cap"),  # a <= 1
        ((-1,), -0.0, "floor"),  # a >= 0
        ((0,), 0.5, "le_ok"),  # 0 <= 0.5
        ((0,), 0.5, "ge_ok"),  # 0 >= -0.5
        ((0,), -0.25, "le_bad"),  # 0 <= -0.25
        ((0,), -0.25, "ge_bad"),  # 0 >= 0.25
    )
    coeffs, rhs, labels = zip(*rows)
    inst = make_system(("a",), coeffs, rhs, (1,), (0,), labels)
    kept = inst.without_vacuous()
    assert list(kept.labels) == ["cap", "le_bad", "ge_bad"]
    assert project_or_empty(kept).is_empty
    assert project_or_empty(kept.drop("ge_bad")).is_empty
    assert not project_or_empty(kept.drop("le_bad", "ge_bad")).is_empty


def test_same_system_detects_rhs_change():
    rtd = builtin_schema("RTD")
    a = instantiate(rtd, square_assignment())
    assert same_system(a, a)
    b = a.pin({})  # copy
    rhs = b.b.copy()
    rhs[0] += 1e-6
    b2 = LinearSystem(b.structure, rhs)
    assert not same_system(a, b2)
    assert not same_system(a, a.pin({"R2pb": 0.0}))  # over other variables
    with pytest.raises(InvalidParameter, match=r"rhs of shape \(10,\) for 11 rows"):
        LinearSystem(b.structure, rhs[:-1])


def _bits(system: LinearSystem):
    """Every field of a system, each rhs by its exact bits (sign of zero too)."""
    rows = [(tuple(c), float(r).hex(), lab)
            for c, r, lab in zip(system.rows, system.b, system.labels)]
    return system.variables, system.r1, system.r2, rows


@pytest.mark.parametrize("mode", SAMPLING_MODES)
@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_instantiate_matches_reference_le_normal_form_bit_for_bit(sid, mode):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    zeroed = {n: 0.0 for n in schema.rate_vars[1::2]}
    for seed in range(10):
        d = sample_instance(schema, random_channel(seed, sizes), seed, mode=mode)
        inst = instantiate(schema, d)
        label = schema.labels()[seed % len(schema.constraints)]
        assert _bits(inst) == _bits(reference_le_system(schema, d)), seed
        assert _bits(inst.pin(zeroed).without_vacuous()) == _bits(
            reference_le_system(schema, d, pin=zeroed, vacuous=True)), seed
        assert _bits(inst.drop(label)) == _bits(reference_le_system(schema, d, drop=(label,))), seed


# -- merged comparator forms ---------------------------------------------------


def test_maric_merged_rewrites_first_bound_only():
    base = builtin_schema("MARIC")
    merged = maric_merged()
    assert merged.labels() == ("m1'", "m2'", "m3'", "m4'", "m5'")
    for lab in ("m2", "m3", "m4", "m5"):
        assert str(merged.constraint(lab + "'").rhs) == str(base.constraint(lab).rhs)
    assert "X2a,X2b" in str(merged.constraint("m1'").rhs).replace("U1c,", "")


def test_rv_set_defaults_and_overrides():
    mar = builtin_schema("MARIC")
    rvs = mar.rv_set(2)
    assert rvs.size("Q") == 1
    assert rvs.size("X2") == 4  # pair of two binary parts
    rvs3 = mar.rv_set(2, overrides={"Q": 3})
    assert rvs3.size("Q") == 3
    ccp = builtin_schema("CCP")
    assert ccp.rv_set(2).size("X2") == 2  # copy of U2c


# -- manifest -------------------------------------------------------------------


def test_manifest_covers_every_constraint():
    man = catalog_manifest()
    assert set(man) == set(SCHEMA_IDS)
    for sid, entry in man.items():
        schema = builtin_schema(sid)
        labels = [c["label"] for c in entry["constraints"]]
        assert labels == list(schema.labels())
        for c in entry["constraints"]:
            assert c["rhs"], f"{sid}/{c['label']}: empty rhs"
            assert c["sense"] in ("LE", "GE")
            assert c["lhs"]


def test_manifest_rtd_projection_and_roles():
    man = schema_manifest(builtin_schema("RTD"))
    assert man["projection"]["R1"] == {"R1c": 1, "R1pb": 1}
    roles = {rv["name"]: rv["role"] for rv in man["rate_variables"]}
    assert roles["R1c'"] == "binning" and roles["R2pa"] == "message"


def test_manifest_dmt_out_keeps_superseded_variants():
    man = schema_manifest(builtin_schema("DMT_OUT"))
    assert "superseded_variants" in man
    assert len(man["superseded_variants"]["e23-e29 pre-insertion"]) == 9


def test_manifest_matches_checked_in_audit_copy():
    """The transcription audit: regenerating the manifest must reproduce the
    checked-in copy byte for byte (labels, coefficients, senses, rhs)."""
    import json
    from pathlib import Path

    frozen = json.loads((Path(__file__).parent / "data" / "manifest.json").read_text())
    assert catalog_manifest() == frozen
