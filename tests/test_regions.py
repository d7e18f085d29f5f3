import ast
import re
from pathlib import Path

import numpy as np
import pytest

import cifc.probability
import cifc.regions
from cifc.channel import MAX_ALPHABET_SIZE, _random_channel, random_channel
from cifc.errors import FactorizationViolation, InvalidParameter, UnknownSchema, UnknownVariable
from cifc.probability import (
    CompiledExprs,
    JointDistribution,
    MIExpr,
    compile_exprs,
    entropy_term,
    entropy_vector,
    extend_through_channel,
    mi,
)
from cifc.regions import (
    SCHEMA_IDS,
    LinearRateConstraint,
    LinearSystem,
    builtin_schema,
    catalog_manifest,
    compile_schema,
    instantiate,
    instantiate_all,
    parse_chain,
    parse_expr,
    parse_schema,
    same_system,
    schema_manifest,
)
from cifc.sampling import (
    SAMPLING_MODES,
    _chain_plan,
    _draw,
    _joints,
    sample_instances,
)
from cifc.verify import SUITES, _channel_sizes

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


# -- the catalog as text ------------------------------------------------------


def test_schema_facts_the_manifest_does_not_print():
    assert SCHEMA_IDS == ("RTD", "RTD_IN", "DMT_OUT", "CC", "CCP", "RTD_CC", "JIANG",
                          "RTD_JIANG", "MARIC")
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        assert schema.input_deps == ((("X2", ("U2c",)),) if sid == "RTD" else ()), sid
        assert schema.default_sizes == ((("Q", 1),) if sid == "MARIC" else ()), sid


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_every_constraint_reads_back_from_its_printed_form(sid):
    schema = builtin_schema(sid)
    head = f"schema T\nchain p({','.join(schema.variables)})\nrates {' '.join(schema.rate_vars)}\n"
    head += f"R1 = {schema.rate_vars[0]}\nR2 = {schema.rate_vars[0]}\n"  # any projection serves
    for c in schema.constraints:
        assert parse_schema(head + f"{c.label}: {c}").constraints == (c,)
        assert parse_expr(str(c.rhs)) == c.rhs
    assert any(not c.rhs.terms for c in schema.constraints) == (sid in ("CCP", "RTD_CC"))


@pytest.mark.parametrize("terms, text", [
    (((2, mi("A", "B")), (-3, mi("A", "C"))), "2 I(A;B) - 3 I(A;C)"),
    (((-4, mi("A", "B", "C")), (1, mi("A", "C")), (-1, mi("B", "C"))),
     "-4 I(A;B|C) + I(A;C) - I(B;C)"),
])
def test_a_coefficient_other_than_one_prints_and_reads_back(terms, text):
    # its magnitude before the atom, as a rate's before its name
    expr = MIExpr(terms)
    assert str(expr) == text
    assert parse_expr(text) == expr


_HEAD = "schema T\nchain p(A) p(B,C|A) p(X1,X2|A)\nrates R1 R2\nR1 = R1\n"
_BLOCK = _HEAD + "R2 = R2\n"
_NO_R2 = "a: R1 <= I(A;B)"  # after _HEAD alone: refused naming the block's last line


def test_a_small_block_reads_into_its_schema():
    schema = parse_schema(_BLOCK + "a: R1 + 2 R2 <= -I(A;B|C) + I(Y1;A)\nb: R2 >= 0")
    assert schema.variables == ("A", "B", "C", "X1", "X2") and schema.rate_vars == ("R1", "R2")
    assert schema.projection == (("R1", (("R1", 1),)), ("R2", (("R2", 1),)))
    assert schema.constraints == (
        LinearRateConstraint((("R1", 1), ("R2", 2)), "LE", -mi("A", "B", "C") + mi("Y1", "A"), "a"),
        LinearRateConstraint((("R2", 1),), "GE", MIExpr(), "b"),
    )


@pytest.mark.parametrize("lines", [
    "bound R1 <= 1",  # an unknown line kind
    "a: R1 <= I(A;B) extra",  # text left over after the last atom
    "a: R1 <= I(A;B) + I(A;C) x",
    "a: R1 <= 1 + I(A;B)",  # a constant term
    "a: R1 <= I(A;B) + 1",
    "a: R1 I(A;B)",  # no <= or >=
    "a: R1 = I(A;B)",
    "a: R1 <= I(A;A|C)",  # overlapping sides
    "a: R1 <= I(A;Z)",  # an undeclared variable
    "a: R3 <= I(A;B)",  # an undeclared rate
    "a: R1 <= I(A;B) + -I(A;C)",
    "a: R1 + R1 <= I(A;B)",
    "a: R1 <= I(A;B)\na: R2 <= I(A;C)",  # a duplicate label
    "a: 0 R1 <= I(A;B)",  # no nonzero coefficient
    "a: R1 <= I(A;B) - 0 I(A;C)",  # a 0 coefficient of an atom
    "a: R1 <= 0 I(Y1;A)",
    "a: R1 <= 01 I(A;B)",  # a leading zero
    "a: R1 <= I(A;B) - [RTD.1a]",  # a reference is a claims line's, not a catalog line's
    "pin R1 =",
    _NO_R2,
    "R2 = R1",  # a second R2 line
    "copy C = A,Z",  # a part that is not declared
    "copy C = B",  # a part that C's factor is not given
    "copy Z = A",  # a copy of no variable
    "input X1 reads Z",  # an input the chain does not declare
    "input B reads A",  # no channel input
    "size A = 0",
    "size A = 9",  # above the alphabet cap
    "size Q = 1",  # no variable
    "pin R9 = 0",  # no rate or variable of the unified region
    "superseded e23-e29",  # no ': TEXT'
    "chain p(A)",  # a second chain line
    "rates R1 R2",  # a second rates line
    "copy C = A",  # C's factor draws B too
    "size A = 2\nsize A = 3",  # a second size line for one name
    "pin R2pb = 0\npin R2pb = 0",  # a second pin line for one name
])
def test_malformed_text_is_refused_naming_its_line(lines):
    block = (_HEAD if lines == _NO_R2 else _BLOCK) + lines
    number = block.count("\n") + 1
    with pytest.raises(InvalidParameter, match=f"schema T, line {number}: "):
        parse_schema(block)


def _catalog_blocks() -> list[str]:
    return cifc.regions._CATALOG.strip("\n").split("\n\n")


_CHAIN = "schema T\nchain p(A) p(X1,X2|A)\n"
_RATES = "rates R1 R2\nR1 = R1\nR2 = R2"
_ONE_TARGET = "schema T\nchain p(A) p(B|A) p(X1|A) p(X2|A)\nrates R1 R2\nR1 = R1\nR2 = R2\n"


@pytest.mark.parametrize("block, number", [
    (_CHAIN + "rates R1 R1 R2\nR1 = R1\nR2 = R2", 3),  # a rate named twice
    (_CHAIN + "rates R1 R2\nR1 = 0 R1\nR2 = R2", 4),  # a 0 coefficient
    (_CHAIN + "rates R1 R2\nR1 = R9\nR2 = R2", 4),  # an undeclared rate
    (_ONE_TARGET + "input X1 reads B", 6),  # read, but not given to X1
    (_ONE_TARGET + "input X1 reads A\ninput X1 reads A", 7),  # a second input line for X1
    (_ONE_TARGET + "copy B = A\ncopy B = A", 7),  # a second copy line for B
    (_ONE_TARGET + "copy B = A\nsize B = 3", 7),  # a copy's size is its parts'
    (_ONE_TARGET + "size B = 3\ncopy B = A", 7),
    (next(b for b in _catalog_blocks() if b.startswith("schema MARIC\n"))
     + "\nsize X2 = 3", 14),  # X2 pairs X2a and X2b
], ids=["rates R1 R1 R2", "R1 = 0 R1", "R1 = R9", "input X1 reads B", "input X1 twice",
        "copy B twice", "copy B, then size B", "size B, then copy B", "MARIC, size X2 = 3"])
def test_malformed_text_after_its_own_head_is_refused(block, number):
    sid = block.split("\n")[0][len("schema "):]
    with pytest.raises(InvalidParameter, match=f"schema {sid}, line {number}: "):
        parse_schema(block)


@pytest.mark.parametrize("chain, reason", [
    # the first three used to parse, then fail with no line named: the
    # first draw (UnknownVariable 'X2'), the channel extension
    # (AlphabetMismatch) or rv_set (duplicate variable names)
    ("p(A) p(X1|A)", "the chain draws no channel input X2"),
    ("p(A) p(Y1|A) p(X1,X2|A)", "the chain draws Y1, a channel output"),
    ("p(A,A) p(X1,X2|A)", "variable 'A' targeted twice"),
    ("p(A) p(X1,X2,A|A)", "variable 'A' targeted twice"),
    ("p(A) p(X1,X2|A,B)", "factor ('X1', 'X2') conditions on later/unknown variables ['B']"),
])
def test_a_malformed_chain_is_refused_at_its_line(chain, reason):
    with pytest.raises(InvalidParameter, match=re.escape(f"schema T, line 2: {reason}")):
        parse_schema(f"schema T\nchain {chain}\n{_RATES}")


def test_an_alphabet_above_the_cap_is_refused():
    # `size A = 99` used to parse to sizes (99, 2, 2), and rv_set(9) to
    # return six 9s
    with pytest.raises(InvalidParameter, match=re.escape(
            f"schema T, line 6: size A: 99 is above the alphabet cap of {MAX_ALPHABET_SIZE}")):
        parse_schema(_BLOCK + "size A = 99")
    rtd = builtin_schema("RTD")
    assert rtd.rv_set(MAX_ALPHABET_SIZE).sizes == (MAX_ALPHABET_SIZE,) * len(rtd.variables)
    with pytest.raises(InvalidParameter, match="size 9 is above the alphabet cap of 8"):
        rtd.rv_set(MAX_ALPHABET_SIZE + 1)


def _block_mutants() -> dict[str, str]:
    """Each catalog block with one line after its header deleted or
    repeated, or with one of the catalog's chain, rates or copy lines
    appended, as text -> schema id."""
    blocks = [b.split("\n") for b in _catalog_blocks()]
    extra = sorted({line for b in blocks for line in b if line.split(" ")[0] in
                    ("chain", "rates", "copy")})
    mutants = {}
    for head, *lines in blocks:
        sid = head[len("schema "):]
        for i in range(len(lines)):
            mutants["\n".join([head, *lines[:i], *lines[i + 1:]])] = sid
            mutants["\n".join([head, *lines[:i + 1], *lines[i:]])] = sid
        for line in extra:
            mutants["\n".join([head, *lines, line])] = sid
    return mutants


def test_every_mutant_of_a_catalog_block_is_refused_or_runs():
    # refused naming its schema and line, or a schema whose every draw meets
    # its own requirements: no mutant ends in another error further on
    mutants = _block_mutants()
    assert len(mutants) == 399
    refused = 0
    for text, sid in mutants.items():
        try:
            schema = parse_schema(text)
        except InvalidParameter as e:
            assert re.match(rf"schema {sid}, line \d+: ", str(e)), (text, e)
            refused += 1
            continue
        compile_schema(schema)
        channel = _random_channel(0, *_channel_sizes(schema))
        for mode in SAMPLING_MODES:
            compile_exprs((), schema.requirements)(
                sample_instances(schema, [channel], [0], [mode]))
    assert 0 < refused < len(mutants)


def test_superseded_variants_read_back_in_the_manifest():
    schema = parse_schema(_BLOCK + "pin R2pb = 0\nsuperseded old a: R11 <= I(Y1;V11|W)\n"
                                   "superseded old b: R12 <= I(V12;Y2)\n"
                                   "superseded old a: R21+R21' <= I(Y1,V11;V21|W)")
    assert schema.superseded == (("old a", "R11 <= I(Y1;V11|W)"), ("old b", "R12 <= I(V12;Y2)"),
                                 ("old a", "R21+R21' <= I(Y1,V11;V21|W)"))
    assert schema_manifest(schema)["superseded_variants"] == {
        "old a": ["R11 <= I(Y1;V11|W)", "R21+R21' <= I(Y1,V11;V21|W)"],
        "old b": ["R12 <= I(V12;Y2)"]}
    assert schema_manifest(schema)["pinned"] == {"R2pb": "0"}
    assert "superseded_variants" not in schema_manifest(parse_schema(_BLOCK))


def test_regions_code_names_no_schema():
    # a schema comes in as catalog text alone: outside `_CATALOG`, no
    # string constant of the module is a schema id
    tree = ast.parse(Path(cifc.regions.__file__).read_text())
    catalog, = (n for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["_CATALOG"])
    inside = {id(n) for n in ast.walk(catalog)}
    named = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and n.value in SCHEMA_IDS and id(n) not in inside]
    assert named == []


def test_malformed_header_is_refused():
    with pytest.raises(InvalidParameter, match="line 1: "):
        parse_schema("rates R1\nschema T")
    with pytest.raises(InvalidParameter, match="line 3: "):
        parse_schema("schema T\nrates R1\nR1 = R2")


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
    drop_vacuous,
    expr_value,
    make_system,
    reference_le_system,
    sample_factored,
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
    assert -inst.b[inst.labels.index("1a")] == pytest.approx(
        expr_value(d, mi("U1c", "X2", "U2c")), abs=1e-15
    )
    assert inst.b[inst.labels.index("1k")] == pytest.approx(
        expr_value(d, mi("Y1", "U1pb", "U1c U2c")), abs=1e-15
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
        parse_chain("p(U2c) p(X2|U2c) p(U1c|U2c,X2) p(U1pb|U2c,X2,U1c) "
                    "p(X1|U2c,X2,U1c,U1pb)"),
        seed=2,
    )
    d = extend_through_channel(general, random_channel(2))
    with pytest.raises(FactorizationViolation):
        instantiate(schema, d)


def test_instantiate_checks_determinism():
    ccp = builtin_schema("CCP")
    rvs = ccp.rv_set(2)
    free = parse_chain("p(U2c) p(U1c|U2c) p(U1pb,U2pb|U2c,U1c) p(X2|U2c) "
                       "p(X1|U2c,U1c,U1pb,U2pb,X2)")
    d = sample_factored(rvs, free, 4)  # X2|U2c stochastic, not a copy
    d = extend_through_channel(d, random_channel(4))
    with pytest.raises(FactorizationViolation):
        instantiate(ccp, d)


# The messages are pinned as the check-by-check implementation wrote them.
@pytest.mark.parametrize("check", [
    instantiate,
    pytest.param(lambda schema, d: compile_exprs((), schema.requirements)(d),
                 id="check_distribution"),
])
def test_violations_name_the_first_failed_check_as_pinned(check):
    # chain order: an RTD draw couples U1c with U2c given X2, RTD_IN's second factor
    d = sample_instances(builtin_schema("RTD"), [random_channel(0)], [0], ["free"])[0]
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
    general = parse_chain("p(U2c) p(X2|U2c) p(U1c|U2c,X2) p(U1pb|U2c,X2,U1c) "
                          "p(X1|U2c,X2,U1c,U1pb)")
    good = [sample_instances(schema, [random_channel(s)], [s], ["free"])[0] for s in range(2)]
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
    for check in (instantiate, lambda schema, d: compile_exprs((), schema.requirements)(d)):
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
    d = sample_instances(schema, [random_channel(0, _channel_sizes(schema))], [0], ["free"])[0]
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
            d = sample_instances(schema, [ch], [seed], [mode])[0]
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
        d = sample_instances(schema, [random_channel(1, _channel_sizes(schema))], [1], ["free"])[0]
        instantiate(schema, d)
        assert calls == [len(compile_exprs(leading, schema.requirements).subsets)], sid
        compile_exprs((), schema.requirements)(d)
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
    assert "1g" not in dropped.labels


def test_pin_shifts_rhs():
    rtd = builtin_schema("RTD")
    inst = instantiate(rtd, square_assignment())
    pinned = inst.pin({"R2pa": 0.25})
    row = pinned.b[pinned.labels.index("1f")]
    assert row == pytest.approx(inst.b[inst.labels.index("1f")] - 0.25, abs=1e-12)


def test_pin_refuses_a_name_that_is_no_rate_of_the_system():
    ccp = builtin_schema("CCP")
    system = instantiate(ccp, sample_instances(ccp, [random_channel(0)], [0], ["free"]))[0]
    with pytest.raises(InvalidParameter, match=r"cannot pin 'R9': the rates are R1c, R1pb, "
                                               r"R2c, R2pb, R1c', R1pb', R2pb'$"):
        system.pin({"R9": 0.0})


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
    kept = drop_vacuous(inst)
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
        d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode])[0]
        inst = instantiate(schema, d)
        label = schema.labels()[seed % len(schema.constraints)]
        assert _bits(inst) == _bits(reference_le_system(schema, d)), seed
        assert _bits(drop_vacuous(inst.pin(zeroed))) == _bits(
            reference_le_system(schema, d, pin=zeroed, vacuous=True)), seed
        assert _bits(inst.drop(label)) == _bits(reference_le_system(schema, d, drop=(label,))), seed


# -- merged comparator forms ---------------------------------------------------


def test_maric_merged_rewrites_first_bound_only():
    base = builtin_schema("MARIC")
    merged = SUITES["maric"].bounds
    assert tuple(merged) == ("m1'", "m2'", "m3'", "m4'", "m5'")
    for lab in ("m2", "m3", "m4", "m5"):
        assert str(merged[lab + "'"]) == str(base.constraint(lab).rhs)
    assert "X2a,X2b" in str(merged["m1'"]).replace("U1c,", "")


def test_rv_set_defaults_and_overrides():
    mar = builtin_schema("MARIC")
    rvs = mar.rv_set(2)
    assert rvs.size("Q") == 1
    assert rvs.size("X2") == 4  # pair of two binary parts
    rvs3 = mar.rv_set(2, overrides={"Q": 3})
    assert rvs3.size("Q") == 3
    assert mar.rv_set(2, overrides={"Q": MAX_ALPHABET_SIZE}).size("Q") == MAX_ALPHABET_SIZE
    ccp = builtin_schema("CCP")
    assert ccp.rv_set(2).size("X2") == 2  # copy of U2c


def test_an_override_above_the_alphabet_cap_is_refused():
    # rv_set(2, overrides={"Q": 50}) used to give Q size 50
    mar = builtin_schema("MARIC")
    with pytest.raises(InvalidParameter, match=re.escape(
            f"size Q: 50 is above the alphabet cap of {MAX_ALPHABET_SIZE}")):
        mar.rv_set(2, overrides={"Q": 50})


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
