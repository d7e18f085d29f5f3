import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cifc.channel import Channel, bsc_pair, canonical_channel, random_channel
from cifc.errors import (
    AlphabetMismatch,
    FactorizationViolation,
    InvalidParameter,
    NegativeProbability,
    UnknownVariable,
)
from cifc import probability
from cifc.probability import (
    FactorizationSpec,
    Factor,
    JointDistribution,
    MIExpr,
    RandomVariableSet,
    entropy_term,
    entropy_vector,
    extend_through_channel,
    joint_from_json,
    joint_to_json,
    load_joint,
    mi,
)
from cifc.regions import SCHEMA_IDS, builtin_schema, parse_chain
from cifc.sampling import (
    _draw,
    _joints,
    _schema_plan,
    sample_instances,
)
from helpers import (
    _marginal,
    expr_value,
    reference_entropy,
    reference_entropy_vector,
    reference_mutual_information,
    sample_factored,
)


def h2(eps: float) -> float:
    """Binary entropy, the independent oracle for the BSC checks."""
    return -eps * np.log2(eps) - (1 - eps) * np.log2(1 - eps)


def uniform_inputs() -> JointDistribution:
    return JointDistribution(RandomVariableSet(("X1", "X2"), (2, 2)), np.full((2, 2), 0.25))


# -- sampling ----------------------------------------------------------------


def test_sample_single_binary_rv_is_simplex_point():
    rvs = RandomVariableSet(("U",), (2,))
    d = sample_factored(rvs, parse_chain("p(U)"), seed=3)
    assert d.prob.shape == (2,)
    assert d.prob.min() >= 0
    assert d.prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_degenerate_chain_supported_on_single_slice():
    rvs = RandomVariableSet(("U", "X"), (1, 3))
    d = sample_factored(rvs, parse_chain("p(U) p(X|U)"), seed=1)
    assert d.prob.shape == (1, 3)
    assert d.prob.sum() == pytest.approx(1.0, abs=1e-12)


def test_sample_deterministic_in_seed():
    rvs = RandomVariableSet(("A", "B", "C"), (2, 2, 2))
    spec = parse_chain("p(A) p(B|A) p(C|A,B)")
    d1 = sample_factored(rvs, spec, seed=11)
    d2 = sample_factored(rvs, spec, seed=11)
    assert np.array_equal(d1.prob, d2.prob)


@pytest.mark.parametrize("names, sizes, bad", [
    (("A", "A"), (2, 2), "duplicate variable names"),
    (("A", "B"), (2,), "names and sizes must have equal length"),
    (("A", "B"), (2, 0), r"sizes\[1\] must be at least 1, got 0"),
    (("A",), (2.9,), r"sizes\[0\] must be an integer, got 2.9"),
    (("A",), (True,), r"sizes\[0\] must be an integer, got True"),
], ids=["duplicate", "lengths", "empty_alphabet", "fractional", "boolean"])
def test_variable_set_validation(names, sizes, bad):
    # a fractional size used to be truncated, and True read as 1
    with pytest.raises(InvalidParameter, match=bad):
        RandomVariableSet(names, sizes)
    assert RandomVariableSet(("A",), (np.int64(3),)).sizes == (3,)


def test_factorization_spec_validation():
    # the reader is a chain's one gate: FactorizationSpec takes what it is given
    with pytest.raises(InvalidParameter, match="variable 'A' targeted twice"):
        parse_chain("p(A) p(A)")
    with pytest.raises(InvalidParameter, match="variable 'A' targeted twice"):
        parse_chain("p(A,A)")
    with pytest.raises(InvalidParameter, match=r"later/unknown variables \['B'\]"):
        parse_chain("p(A|B)")
    with pytest.raises(InvalidParameter, match=r"later/unknown variables \['A'\]"):
        parse_chain("p(A|A)")
    assert parse_chain("p(A) p(B,C|A)") == FactorizationSpec((Factor("A"), Factor("B,C", "A")))


@pytest.mark.parametrize("seed", range(20))
def test_sampled_chain_satisfies_declared_independencies(seed):
    rvs = RandomVariableSet(("X2", "U1c", "U1pb"), (2, 2, 2))
    spec = parse_chain("p(X2) p(U1c|X2) p(U1pb|X2)")
    d = sample_factored(rvs, spec, seed)
    probability.compile_exprs((), probability.factorization_checks(spec))(d)
    assert expr_value(d, mi("U1c", "U1pb", "X2")) <= 1e-9


# -- channel extension -------------------------------------------------------


def test_orthogonal_extension_gives_clean_bit():
    d = extend_through_channel(uniform_inputs(), canonical_channel("orthogonal_noiseless"))
    assert expr_value(d, mi("Y1", "X1")) == pytest.approx(1.0, abs=1e-12)
    assert expr_value(d, mi("Y2", "X2")) == pytest.approx(1.0, abs=1e-12)


def test_constant_output_channel_gives_zero_mi():
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, :, :] = 1.0
    ch = Channel(t)
    d = extend_through_channel(uniform_inputs(), ch)
    assert expr_value(d, mi("Y1", "X1 X2")) == pytest.approx(0.0, abs=1e-12)
    assert expr_value(d, mi("Y2", "X1 X2 Y1")) == pytest.approx(0.0, abs=1e-12)


def test_bsc_mi_matches_binary_entropy_oracle():
    d = extend_through_channel(uniform_inputs(), bsc_pair(0.11, 0.11))
    expected = 1.0 - h2(0.11)
    assert expr_value(d, mi("Y1", "X1")) == pytest.approx(expected, abs=1e-12)


def test_extension_requires_matching_alphabets():
    d = uniform_inputs()
    with pytest.raises(AlphabetMismatch):
        extend_through_channel(d, random_channel(0, sizes=(3, 2, 2, 2)))
    d2 = JointDistribution(RandomVariableSet(("X1", "Z"), (2, 2)), np.full((2, 2), 0.25))
    with pytest.raises(AlphabetMismatch):
        extend_through_channel(d2, bsc_pair(0.1, 0.1))
    batch = JointDistribution(d.rvs, np.full((2, 2, 2), 0.25))
    with pytest.raises(InvalidParameter, match="3 channels for 2 joints"):
        extend_through_channel(batch, [random_channel(s) for s in range(3)])
    with pytest.raises(AlphabetMismatch, match="the channels of a batch differ in shape"):
        extend_through_channel(batch, [random_channel(0), random_channel(1, sizes=(2, 2, 3, 2))])
    with pytest.raises(AlphabetMismatch, match="output name 'Y1' already present"):
        extend_through_channel(extend_through_channel(d, bsc_pair(0.1, 0.1)), bsc_pair(0.1, 0.1))


def test_extension_marginal_is_channel_pushforward():
    ch = random_channel(9)
    d = extend_through_channel(uniform_inputs(), ch)
    out, order = _marginal(d, ("Y1", "Y2"))
    assert order == ("Y1", "Y2")
    expected = ch.transition.sum(axis=(2, 3)) / 4.0
    assert np.allclose(out, expected, atol=1e-14)


# -- marginalization (the reference measures' marginal) ----------------------


def test_marginalize_keep_all_is_identity():
    d = sample_factored(RandomVariableSet(("A", "B"), (2, 3)), parse_chain("p(A) p(B|A)"), 5)
    p, order = _marginal(d, ("B", "A"))
    assert order == ("A", "B")
    assert np.allclose(p, d.prob, atol=0)


def test_marginalize_to_nothing_is_scalar_one():
    d = sample_factored(RandomVariableSet(("A",), (4,)), parse_chain("p(A)"), 5)
    p, order = _marginal(d, ())
    assert p.shape == () and order == ()
    assert float(p) == pytest.approx(1.0, abs=1e-12)


def test_marginalize_product_recovers_factor():
    pa = np.array([0.3, 0.7])
    pb = np.array([0.2, 0.5, 0.3])
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 3)), np.outer(pa, pb))
    assert np.allclose(_marginal(d, "B")[0], pb, atol=1e-15)


def test_marginalize_unknown_variable():
    d = uniform_inputs()
    with pytest.raises(UnknownVariable):
        _marginal(d, ("X1", "W"))


# -- information measures ----------------------------------------------------


def test_mi_independent_is_zero():
    d = uniform_inputs()
    assert expr_value(d, mi("X1", "X2")) == 0.0


def test_mi_identical_uniform_bit():
    p = np.zeros((2, 2))
    p[0, 0] = p[1, 1] = 0.5
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 2)), p)
    assert expr_value(d, mi("A", "B")) == pytest.approx(1.0, abs=1e-12)


def test_mi_noisy_copy_matches_oracle():
    eps = 0.11
    p = np.array([[0.5 * (1 - eps), 0.5 * eps], [0.5 * eps, 0.5 * (1 - eps)]])
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 2)), p)
    assert expr_value(d, mi("A", "B")) == pytest.approx(1 - h2(eps), abs=1e-12)


def test_mi_unknown_variable():
    with pytest.raises(UnknownVariable):
        expr_value(uniform_inputs(), mi("X1", "Q"))


def test_miterm_validation():
    with pytest.raises(InvalidParameter):
        mi("A", "A")
    with pytest.raises(InvalidParameter):
        mi("A", "B", "A")
    with pytest.raises(InvalidParameter):
        mi("", "B")


def test_expr_cancellation_is_zero():
    d = sample_factored(
        RandomVariableSet(("A", "B"), (2, 2)), parse_chain("p(A) p(B|A)"), 17
    )
    e = mi("A", "B") - mi("A", "B")
    assert expr_value(d, e) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_expr_chain_rule_identity(seed):
    rvs = RandomVariableSet(("U1c", "U2c", "X2"), (2, 2, 2))
    d = sample_factored(rvs, parse_chain("p(U1c,U2c,X2)"), seed)
    e = mi("U1c", "X2 U2c") - mi("U1c", "X2") - mi("U2c", "U1c", "X2")
    assert abs(expr_value(d, e)) < 1e-12


def test_expr_constant_and_str():
    # an expression is a signed sum of MI atoms: a number has no place in it
    for build in (lambda: mi("A", "B") + 0.5, lambda: mi("A", "B") - MIExpr.of(mi("C", "D")) - 1,
                  lambda: MIExpr.of(0.0)):
        with pytest.raises(InvalidParameter):
            build()
    e = mi("A", "B") - mi("A", "B", "C")
    assert "I(A;B)" in str(e) and "I(A;B|C)" in str(e)
    assert e.variables() == {"A", "B", "C"}
    assert str(MIExpr()) == "0"  # as the manifest prints cp1, rc1 and rc2


def test_compiled_map_without_checks_has_an_empty_check_block():
    compiled = probability.compile_exprs((mi("A", "B") + mi("A", "C", "B"),))
    assert compiled.check_names == ()
    assert compiled.check_matrix.shape == (0, len(compiled.subsets))
    checked = probability.compile_exprs((MIExpr.of(mi("A", "B")),), (("I(A;D)", mi("A", "D")),))
    # the check's subsets come after the expressions' own
    assert checked.subsets == (("A",), ("B",), ("A", "B"), ("D",), ("A", "D"))
    assert checked.check_matrix.tolist() == [[1, 0, 0, 1, -1]]
    assert checked.check_names == ("I(A;D)",)


# -- conditional independence ------------------------------------------------


def test_ci_product_distribution():
    assert expr_value(uniform_inputs(), mi("X1", "X2")) <= 1e-9


def test_ci_rejects_identical_variables():
    p = np.zeros((2, 2))
    p[0, 0] = p[1, 1] = 0.5
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 2)), p)
    assert expr_value(d, mi("A", "B")) > 1e-9


@pytest.mark.parametrize("seed", range(100))
def test_ci_holds_for_sampled_chain(seed):
    rvs = RandomVariableSet(("X2", "U1c", "U1pb"), (2, 2, 2))
    d = sample_factored(rvs, parse_chain("p(X2) p(U1c|X2) p(U1pb|X2)"), seed)
    assert expr_value(d, mi("U1c", "U1pb", "X2")) <= 1e-9


def test_verify_factorization_names_violation():
    p = np.zeros((2, 2))
    p[0, 0] = p[1, 1] = 0.5
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 2)), p)
    checks = probability.factorization_checks(parse_chain("p(A) p(B)"))
    with pytest.raises(FactorizationViolation) as err:
        probability.compile_exprs((), checks)(d)
    assert "I(B;A" in str(err.value).replace(" ", "")


# -- spec invariants ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_mi_nonnegative_on_sampled_joints(seed):
    rvs = RandomVariableSet(("A", "B", "C"), (2, 2, 2))
    d = sample_factored(rvs, parse_chain("p(A,B,C)"), seed)
    for term in (mi("A", "B"), mi("A", "B", "C"), mi("A", "B C")):
        assert expr_value(d, term) >= 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_chain_rule_on_random_joints(seed):
    rvs = RandomVariableSet(("A", "B", "C", "D"), (2, 2, 2, 2))
    d = sample_factored(rvs, parse_chain("p(A,B,C,D)"), seed)
    lhs = expr_value(d, mi("A", "B C", "D"))
    rhs = expr_value(d, mi("A", "B", "D")) + expr_value(d, mi("A", "C", "B D"))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_entropy_vector_matches_mutual_information(seed):
    rvs = RandomVariableSet(("A", "B", "C", "D"), (2, 3, 2, 2))
    d = sample_factored(rvs, parse_chain("p(A,B) p(C,D|A)"), seed)
    subsets = [("A", "C"), ("B", "C"), ("A", "B", "C"), ("C",), ("A", "B", "C", "D")]
    h = entropy_vector(d, subsets)
    assert h[3] == pytest.approx(reference_entropy(d, "C"), abs=1e-12)
    assert h[4] == pytest.approx(reference_entropy(d, "ABCD"), abs=1e-12)
    # I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)
    assert h[0] + h[1] - h[2] - h[3] == pytest.approx(
        reference_mutual_information(d, "A", "B", "C"), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SCHEMA_IDS), st.integers(min_value=0, max_value=10**6))
def test_measures_match_log_ratio_reference_with_zero_cells(sid, seed):
    schema = builtin_schema(sid)
    sizes = (2, 4, 2, 2) if sid == "MARIC" else (2, 2, 2, 2)
    d = sample_instances(schema, [random_channel(seed, sizes)], [seed], ["det"])[0]
    assert (d.prob == 0.0).any()
    for c in schema.constraints:
        expected = 0.0
        for s, t in c.rhs.terms:
            ref = reference_mutual_information(d, t.left, t.right, t.given)
            assert expr_value(d, t) == pytest.approx(ref, abs=1e-12), (c.label, str(t))
            expected += s * ref
            names = t.left + t.right
            # a conditioning name that is also an entropy argument is dropped
            assert expr_value(d, entropy_term(names, t.given + t.left)) == pytest.approx(
                reference_entropy(d, names, t.given), abs=1e-12)
        assert expr_value(d, c.rhs) == pytest.approx(expected, abs=1e-12), c.label
        assert expr_value(d, -c.rhs) == pytest.approx(-expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_roundoff_never_makes_mi_negative(seed):
    # A, B independent and B independent of C: each entropy combination
    # below is zero up to roundoff, which can fall on either side of 0
    rvs = RandomVariableSet(("A", "B", "C"), (2, 3, 2))
    d = sample_factored(rvs, parse_chain("p(A) p(B) p(C|A)"), seed)
    for term in (mi("A", "B"), mi("A", "B", "C"), mi("B", "C")):
        assert 0.0 <= expr_value(d, term) <= 1e-12


def test_entropy_vector_exact_on_deterministic_support():
    prob = np.zeros((2, 2))
    prob[0, 0] = prob[1, 1] = 0.5  # B = A, half the cells carry no mass
    d = JointDistribution(RandomVariableSet(("A", "B"), (2, 2)), prob)
    assert entropy_vector(d, [("A",), ("A", "B"), ("B",)]).tolist() == [1.0, 1.0, 1.0]


def _small_joint() -> JointDistribution:
    return sample_factored(RandomVariableSet(("A", "B"), (2, 3)), parse_chain("p(A,B)"), 4)


def test_entropy_vector_unknown_variable_leaves_the_kernel_usable():
    d = _small_joint()
    with pytest.raises(UnknownVariable):
        entropy_vector(d, [("A",), ("Z",)])
    assert entropy_vector(d, [("A",)])[0] == pytest.approx(reference_entropy(d, "A"), abs=1e-12)


def test_entropy_vector_of_empty_and_repeated_subsets():
    d = _small_joint()
    h = entropy_vector(d, [(), ("A", "A"), ("B", "A", "B")])
    assert h[0] == pytest.approx(0.0, abs=1e-12)
    assert h[1] == pytest.approx(reference_entropy(d, "A"), abs=1e-12)
    assert h[2] == pytest.approx(reference_entropy(d, "AB"), abs=1e-12)


def _all_subsets(names):
    return [c for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)]


def _dead_cells(d) -> int:
    return int((~d.prob.reshape(-1, math.prod(d.rvs.sizes)).any(axis=0)).sum())


@pytest.mark.parametrize("case", ["noiseless RTD", "MARIC", "one-hot", "one-hot and dense",
                                  "no rows", "odd subsets"])
def test_entropy_vector_skipping_zero_cells_is_the_dense_pass_byte_for_byte(case):
    # a joint cell that is 0 in every row of a call is left out of the
    # bincounts; each marginal is a sum from +0.0 of nonnegative weights, so
    # every entropy keeps its bits against a bincount over every cell
    if case == "noiseless RTD":  # 64 of 256 extended cells live at most
        rtd = builtin_schema("RTD")
        d = sample_instances(rtd, canonical_channel("orthogonal_noiseless"), range(6),
                             ["free", "det", "flat_det"] * 2)
        assert _dead_cells(d) >= 192
    elif case == "MARIC":  # the paired X2 is a function of its parts
        d = sample_instances(builtin_schema("MARIC"), random_channel(5, (2, 4, 2, 2)),
                             range(4), ["free"] * 4)
        assert _dead_cells(d) > 0
    else:
        rvs = RandomVariableSet(("A", "B", "C"), (2, 3, 2))
        one_hot = np.zeros(rvs.sizes)
        one_hot[1, 2, 0] = 1.0
        dense = sample_factored(rvs, parse_chain("p(A,B,C)"), 1).prob
        prob = {"one-hot": one_hot, "one-hot and dense": np.stack([one_hot, dense]),
                "no rows": np.empty((0, *rvs.sizes)), "odd subsets": np.stack([one_hot] * 2)}
        d = probability._unchecked(rvs, prob[case])
        assert _dead_cells(d) == {"one-hot and dense": 0}.get(case, 11 if len(d.prob) else 12)
    subsets_list = [_all_subsets(d.rvs.names)]
    if case in ("one-hot", "odd subsets"):
        subsets_list += [[], [()], [(), ("A", "A"), ("C", "A", "C"), ()]]
    for subsets in subsets_list:
        h = entropy_vector(d, subsets)
        expected = reference_entropy_vector(d, subsets)
        assert h.shape == expected.shape and h.tobytes() == expected.tobytes()


def test_marginal_plan_above_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(probability, "MAX_MARGINAL_LABELS", 10)
    probability._marginal_plan.cache_clear()  # a plan cached under the real cap skips the check
    d = _small_joint()
    assert entropy_vector(d, [("A", "B")])[0] > 0.0  # 1 subset x 6 cells fits
    with pytest.raises(InvalidParameter, match="2 entropy subsets x 6 joint cells .* cap of 10"):
        entropy_vector(d, [("A",), ("B",)])


@pytest.mark.parametrize("count", [1, 7, 100])
def test_batched_measures_match_log_ratio_references_with_zero_cells(count):
    schema = builtin_schema("RTD")
    seeds = range(count)
    d = sample_instances(schema, [random_channel(s) for s in seeds], seeds, ["det"] * count)
    assert d.batched and (d.prob == 0.0).any()
    subsets = [("U1c", "X2"), ("Y1",), ("U2c", "U1pb", "Y2"), schema.variables + ("Y1", "Y2")]
    h = entropy_vector(d, subsets)
    term = mi("Y1", "U1pb", "U1c U2c")
    values = probability.compile_exprs((MIExpr.of(term),))(d)
    assert h.shape == (count, len(subsets)) and values.shape == (count, 1)
    for k in range(count):
        for names, value in zip(subsets, h[k]):
            assert value == pytest.approx(reference_entropy(d[k], names), abs=1e-12)
        ref = reference_mutual_information(d[k], term.left, term.right, term.given)
        assert values[k, 0] == pytest.approx(ref, abs=1e-12)


def test_only_a_batch_has_members():
    with pytest.raises(InvalidParameter, match="only a batch"):
        uniform_inputs()[0]
    pair = JointDistribution(uniform_inputs().rvs, np.full((2, 2, 2), 0.25))
    assert pair.batched and not pair[1].batched and pair[1].prob.tolist() == [[0.25] * 2] * 2


def test_a_batch_above_the_marginal_plan_cap_is_refused_before_extension(monkeypatch):
    schema = builtin_schema("RTD")
    plan = _schema_plan(schema, 2, "free")
    joints = _joints(plan.rvs, _draw([plan] * 4, [np.random.default_rng(s) for s in range(4)]))
    channels = [random_channel(s) for s in range(4)]
    # three extended joints of 64 x 4 cells fit the cap, four do not
    monkeypatch.setattr(probability, "MAX_MARGINAL_LABELS", 3 * 256)
    assert extend_through_channel(joints[:3], channels[:3]).prob.shape == (3, *(2,) * 8)

    def einsum(*args, **kwargs):
        raise AssertionError("the refused batch was extended")

    monkeypatch.setattr(probability.np, "einsum", einsum)
    with pytest.raises(InvalidParameter,
                       match="4 extended joints of 256 cells exceed the marginal-plan cap of 768"):
        extend_through_channel(joints, channels)


def test_an_empty_channel_sequence_is_refused_even_for_an_empty_batch():
    rvs = builtin_schema("RTD").rv_set(2)
    for count in (0, 2):
        d = JointDistribution(rvs, np.full((count, *rvs.sizes), 1.0 / 64))
        with pytest.raises(InvalidParameter, match="empty channel sequence"):
            extend_through_channel(d, [])


@pytest.mark.parametrize("seed", range(25))
def test_data_processing_through_channel(seed):
    rvs = RandomVariableSet(("X1", "X2"), (2, 2))
    d = sample_factored(rvs, parse_chain("p(X1,X2)"), seed)
    ext = extend_through_channel(d, random_channel(seed))
    assert expr_value(ext, mi("X1", "Y1")) <= expr_value(ext, entropy_term("X1")) + 1e-9


# -- deterministic variables and serialization --------------------------------


def test_too_many_variables_for_the_einsum_letters_is_invalid():
    # 22 variables fit the einsum letters; a 23rd is refused before indexing
    def joint(n):
        names = tuple(f"A{i}" for i in range(n - 2)) + ("X1", "X2")
        return JointDistribution(RandomVariableSet(names, (1,) * n), np.ones((1,) * n))

    ch = random_channel(0, sizes=(1, 1, 2, 2))
    assert extend_through_channel(joint(22), ch).names[-2:] == ("Y1", "Y2")
    with pytest.raises(InvalidParameter, match="23 variables exceed the limit of 22"):
        extend_through_channel(joint(23), ch)


def test_joint_json_roundtrip():
    d = sample_factored(
        RandomVariableSet(("A", "B"), (2, 3)), parse_chain("p(A) p(B|A)"), 8
    )
    back = joint_from_json(joint_to_json(d))
    assert back.names == d.names
    assert np.array_equal(back.prob, d.prob)


@pytest.mark.parametrize("p, bad", [
    ([False, "1e0"], "entry 0 must be a number, got False"),
    ([0.0, "1e0"], "entry 1 must be a number, got '1e0'"),
])
def test_joint_json_probabilities_are_json_numbers(p, bad):
    with pytest.raises(InvalidParameter, match=bad):
        joint_from_json({"names": ["A"], "sizes": [2], "p": p})


def test_joint_json_rejects_bad_length():
    with pytest.raises(InvalidParameter):
        joint_from_json({"names": ["A"], "sizes": [2], "p": [1.0]})


@pytest.mark.parametrize("obj", [
    {"names": ["A"], "p": [1.0]},
    {"names": ["A"], "sizes": 2, "p": [0.5, 0.5]},
    {"names": [["A"]], "sizes": [2], "p": [0.5, 0.5]},
    ["A", 2],
], ids=["no_sizes", "sizes_not_a_list", "unhashable_name", "not_an_object"])
def test_joint_json_rejects_a_malformed_object(obj):
    with pytest.raises(InvalidParameter, match="malformed distribution object"):
        joint_from_json(obj)


def test_load_joint_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "joint.json"
    path.write_text('{"names": ["A"], "sizes": [2],')
    with pytest.raises(InvalidParameter, match="joint.json: not valid JSON"):
        load_joint(path)


def test_joint_mass_validation():
    rvs = RandomVariableSet(("A",), (2,))
    with pytest.raises(InvalidParameter):
        JointDistribution(rvs, np.array([0.6, 0.6]))
    with pytest.raises(InvalidParameter, match=r"tensor shape \(3,\) does not match"):
        JointDistribution(rvs, np.full(3, 1 / 3))
    with pytest.raises(NegativeProbability, match="joint has entry -0.5 < 0"):
        JointDistribution(rvs, np.array([1.5, -0.5]))
