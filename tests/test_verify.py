import ast
import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from cifc.channel import Channel, _random_channel, canonical_channel, random_channel
from cifc.errors import FactorizationViolation, InvalidParameter
from cifc.probability import (
    JointDistribution,
    MIExpr,
    RandomVariableSet,
    _marginal_plan,
    extend_through_channel,
    entropy_term,
    entropy_vector,
    mi,
)
from cifc.polytope import (
    EMPTY,
    compile_projection,
    containment_margins,
    halfplane_violation,
    oracle_polygon,
    polytopes_equal,
    project_or_empty,
)
from cifc.regions import (
    SCHEMA_IDS,
    builtin_schema,
    compile_schema,
    instantiate,
    parse_chain,
    same_system,
)
from cifc.sampling import (
    SAMPLING_MODES,
    _chain_plan,
    _draw,
    _joints,
    _mode_for,
    sample_instances,
)
from cifc.verify import (
    REGION_TOL,
    SUITES,
    _CLAIMS,
    _channel_sizes,
    _nonvacuous_regions,
    _pinned_checks,
    _run_claims,
    CheckReport,
    IdentityCheck,
    SuiteReport,
    check_fme_oracle,
    check_identities,
    grid_agreement,
    parse_claims,
    reports_to_json,
    run_suite,
    sampled_region_containment,
    trace_frontier,
)
from helpers import (
    REFERENCE_CC_PRIMED,
    REFERENCE_MARIC_MERGED,
    check_droppable,
    drop_vacuous,
    expr_value,
    reference_bounds,
    reference_cc_identity_checks,
    reference_devroye_identity_checks,
    reference_jiang_identity_checks,
    reference_maric_identity_checks,
    reference_mutual_information,
    sample_factored,
    sequential_frontier,
)

BSC = canonical_channel("bsc_pair", eps1=0.05, eps2=0.1)


# -- samplers -----------------------------------------------------------------


@pytest.mark.parametrize("sid", ["RTD", "RTD_IN", "CCP", "JIANG", "CC"])
@pytest.mark.parametrize("mode", ["free", "det", "flat_det"])
def test_sample_instance_obeys_factorization(sid, mode):
    schema = builtin_schema(sid)
    d = sample_instances(schema, [random_channel(5)], [5], [mode])[0]
    instantiate(schema, d)  # raises on violation


def test_sample_instance_maric_pairing():
    mar = builtin_schema("MARIC")
    d = sample_instances(mar, [random_channel(1, sizes=(2, 4, 2, 2))], [1], ["free"])[0]
    assert expr_value(d, entropy_term("X2", "X2a X2b")) == pytest.approx(0.0, abs=1e-12)


def test_sample_instance_unknown_mode():
    with pytest.raises(InvalidParameter):
        sample_instances(builtin_schema("RTD"), [BSC], [0], ["warm"])[0]
    with pytest.raises(InvalidParameter, match="a batch needs at least one seed"):
        sample_instances(builtin_schema("RTD"), BSC, [], [])


def test_sample_instance_deterministic():
    a = sample_instances(builtin_schema("RTD"), [BSC], [9], ["det"])[0]
    b = sample_instances(builtin_schema("RTD"), [BSC], [9], ["det"])[0]
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
    # the X2 <- U2c table of RTD's input_deps indexed beyond binary
    ("RTD", 8, "det", 3, "9c1967d2753bbdf04be947c985879463bf182d1239213dea3b39793100fa547c"),
    # every catalog schema in every mode at one seed, taken before the
    # sampler drew through a compiled plan
    ("RTD", 11, "free", 2, "05b511ef194700ab9ab5e54db9ee1fba4ed27f618c8f7547d2129255b085a14e"),
    ("RTD", 11, "det", 2, "421bb4d39e4f9966149d0199edebb51631191c860c68ad67ab7838a7efec5b0a"),
    ("RTD", 11, "flat_det", 2, "57e4527ac4656285bd2022b0ffd01f9f2157969c2dac5bcd367406352b5cc242"),
    ("RTD_IN", 11, "free", 2, "ea18fd6aec0eef937084847cffe497a48e489a8148ff4fd17e1f156f4918fdca"),
    ("RTD_IN", 11, "det", 2, "92f998bb6eac5f0c52dab54ae42709e66271a0be812f1f5496f7d02747a45e98"),
    ("RTD_IN", 11, "flat_det", 2, "c8f0ff0fa417cbb9f0c6f3dfe91f6d5398fe465098944572ebf98b12ba617573"),
    ("DMT_OUT", 11, "free", 2, "ea18fd6aec0eef937084847cffe497a48e489a8148ff4fd17e1f156f4918fdca"),
    ("DMT_OUT", 11, "det", 2, "92f998bb6eac5f0c52dab54ae42709e66271a0be812f1f5496f7d02747a45e98"),
    ("DMT_OUT", 11, "flat_det", 2, "c8f0ff0fa417cbb9f0c6f3dfe91f6d5398fe465098944572ebf98b12ba617573"),
    ("CC", 11, "free", 2, "a5aeb27c722a88bca36dcf7d47d1b6457ecc5eb86a39dff7c9d543d9f090ddce"),
    ("CC", 11, "det", 2, "946c0f358cd9857862d9de859ad33b8d3a0b0ebfef7d9960d9f1c568d53c7ec2"),
    ("CC", 11, "flat_det", 2, "c59dca5a253f3e2a0f6254cf5d043212a3e8972e7c9ab74eb5b1945a827b7188"),
    ("CCP", 11, "free", 2, "eb99e041a73c7352ad16548a922182d052f0d48083ec098af96e730a52d97fe2"),
    ("CCP", 11, "det", 2, "5621636568042fb408e7b82a47ef929e57d783018f06975509dd7d279c24d466"),
    ("CCP", 11, "flat_det", 2, "beeb495a19f81468f6d3566cd409f435392df22560bd0c1b839025310b337528"),
    ("RTD_CC", 11, "free", 2, "eb99e041a73c7352ad16548a922182d052f0d48083ec098af96e730a52d97fe2"),
    ("RTD_CC", 11, "det", 2, "5621636568042fb408e7b82a47ef929e57d783018f06975509dd7d279c24d466"),
    ("RTD_CC", 11, "flat_det", 2, "beeb495a19f81468f6d3566cd409f435392df22560bd0c1b839025310b337528"),
    ("JIANG", 11, "free", 2, "587faf4e6eae94f845ade590b63ecfba6d4747dae48f29a43edc96e0418d6c93"),
    ("JIANG", 11, "det", 2, "d2d0765f508dc124312f64886df97070f4da39f6dc5c1fad7fef62ae2b7d5083"),
    ("JIANG", 11, "flat_det", 2, "3bb42d968e58a8ce3e8dc6d47d7339da30c0ec7d74ba2f853c5bf20e70f80076"),
    ("RTD_JIANG", 11, "free", 2, "587faf4e6eae94f845ade590b63ecfba6d4747dae48f29a43edc96e0418d6c93"),
    ("RTD_JIANG", 11, "det", 2, "d2d0765f508dc124312f64886df97070f4da39f6dc5c1fad7fef62ae2b7d5083"),
    ("RTD_JIANG", 11, "flat_det", 2, "3bb42d968e58a8ce3e8dc6d47d7339da30c0ec7d74ba2f853c5bf20e70f80076"),
    ("MARIC", 11, "free", 2, "0eb0e4ccf77440069cd0117110d6e48dde9158d037395a480c31587b18b959f0"),
    ("MARIC", 11, "det", 2, "99b7a381cbffb427c9d976fc52a4a8aea24818196fdfe58bb47701f8bf03934d"),
    ("MARIC", 11, "flat_det", 2, "69547797d2ab7b82051355bd4915bc3b85e7c50903d87ea3e256045b97bc0f59"),
]


@pytest.mark.parametrize("draw", [
    lambda: run_suite("maric", samples=3, seed=-1),
    lambda: trace_frontier("RTD", canonical_channel("orthogonal_noiseless"), budget=10,
                           seed=-1, lambdas=2),
    lambda: sample_instances(builtin_schema("RTD"), canonical_channel("orthogonal_noiseless"),
                             [0, -2], ["free"] * 2),
    lambda: sample_factored(builtin_schema("RTD").rv_set(2),
                            builtin_schema("RTD").factorization, -1),
    lambda: random_channel(-3),
], ids=["run_suite", "trace_frontier", "sample_instances", "sample_factored", "random_channel"])
def test_a_negative_seed_is_refused_before_anything_is_drawn(monkeypatch, draw):
    # numpy's own refusal is a ValueError naming no seed
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(InvalidParameter, match=r"seed must be a non-negative integer, got -\d"):
        draw()


def _frontier(**kwargs):
    return lambda: trace_frontier("RTD", BSC, **{"budget": 10, "lambdas": 2, **kwargs})


@pytest.mark.parametrize("draw, bad", [
    (lambda: run_suite("maric", samples=3, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: run_suite("maric", samples=3, seed=True), "seed must be an integer, got True"),
    (lambda: run_suite("containment", samples=2.5), "samples must be an integer, got 2.5"),
    (lambda: check_fme_oracle(["CC"], instances=True), "samples must be an integer, got True"),
    (_frontier(seed=1.5), "seed must be an integer, got 1.5"),
    (_frontier(seed=True), "seed must be an integer, got True"),
    (_frontier(budget=2.5), "budget must be an integer, got 2.5"),
    (_frontier(budget=True), "budget must be an integer, got True"),
    (_frontier(budget=0), "budget must be at least 1, got 0"),
    (_frontier(lambdas=3.0), "the lambda grid size must be an integer, got 3.0"),
    (_frontier(lambdas=True), "the lambda grid size must be an integer, got True"),
    (_frontier(lambdas=[]), "the lambda grid size must be at least 1, got 0"),
    (lambda: sample_instances(builtin_schema("RTD"), BSC, [0, 1.0], ["free"] * 2),
     "seed must be an integer, got 1.0"),
    (lambda: sample_factored(builtin_schema("RTD").rv_set(2),
                             builtin_schema("RTD").factorization, 2.0),
     "seed must be an integer, got 2.0"),
    (lambda: random_channel(False), "seed must be an integer, got False"),
], ids=["run_suite_seed_float", "run_suite_seed_bool", "run_suite_samples_float",
        "fme_oracle_instances_bool", "frontier_seed_float", "frontier_seed_bool",
        "frontier_budget_float", "frontier_budget_bool", "frontier_budget_zero",
        "frontier_grid_float", "frontier_grid_bool", "frontier_grid_empty",
        "sample_instances_seed_float", "sample_factored_seed_float",
        "random_channel_seed_bool"])
def test_a_seed_or_count_that_is_not_an_integer_is_refused_before_anything_is_drawn(
        monkeypatch, draw, bad):
    # a float ended in numpy's TypeError, and True passed as 1
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(InvalidParameter, match=re.escape(bad)):
        draw()


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize("check", [
    lambda n: check_identities("maric", "MARIC", SUITES["maric"].checks, samples=n),
    lambda n: _run_claims(SUITES["cc"], 3, n, 0),
    lambda n: sampled_region_containment("RTD_JIANG", "JIANG", samples=n),
    lambda n: check_fme_oracle(["CC", "RTD"], instances=n),
], ids=["identities", "cc_pinned", "containment", "fme_oracle"])
def test_no_check_passes_on_zero_samples(check, samples):
    # each of these reported ok with every seeds_run at 0 when called directly
    with pytest.raises(InvalidParameter, match=f"samples must be at least 1, got {samples}"):
        check(samples)


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
    d = sample_instances(schema, [random_channel(seed, sizes)], [seed], [mode], size)[0]
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
    d = sample_factored(rvs, parse_chain("p(B) p(C,A|B)"), 5)
    assert hashlib.sha256(d.prob.tobytes()).hexdigest() == (
        "8c4b30078bccb3238cb53d83cb664be4cffde307a27c13cf14abbcc98741a230"
    )


def test_compiled_rhs_of_sampled_instances_is_pinned():
    # The channel tensor's memory layout sets the summation order of the
    # channel-extended joint, and the entropy kernel's marginal plan sets
    # the order of each marginal's sum, so a change to either moves these
    # last bits while every stored value stays the same.
    h = hashlib.sha256()
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        compiled = compile_schema(schema)
        for mode in SAMPLING_MODES:
            for seed in range(10):
                ch = random_channel(seed, _channel_sizes(schema))
                d = sample_instances(schema, [ch], [seed], [mode])[0]
                h.update((compiled.sign * compiled.rhs(d)).tobytes())
    assert h.hexdigest() == "6b007d94c613ae1ce5a0a7cc019b68fe95bbeef33a86e3cc4da3dc0433342560"


def test_compiled_rhs_of_sampled_instances_matches_log_ratio_reference():
    # the same instances as the digest above, held to a tolerance instead
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        compiled = compile_schema(schema)
        for mode in SAMPLING_MODES:
            for seed in range(10):
                ch = random_channel(seed, _channel_sizes(schema))
                d = sample_instances(schema, [ch], [seed], [mode])[0]
                expected = [
                    sum(s * reference_mutual_information(d, t.left, t.right, t.given)
                        for s, t in c.rhs.terms)
                    for c in schema.constraints
                ]
                np.testing.assert_allclose(
                    compiled.sign * compiled.rhs(d), compiled.sign * expected, rtol=0, atol=1e-12,
                    err_msg=f"{sid} {mode} seed {seed}",
                )


def test_frontier_search_draws_are_pinned():
    # the climb's moves, restarts and the paired X2 block all draw through
    # the sampler; the CSV below was written before it was consolidated,
    # and its R2 at lambda = 1 is roundoff of the entropy kernel's sums
    result = trace_frontier("RTD_CC", BSC, budget=800, seed=3, lambdas=2)
    assert result.to_csv() == (
        "lambda,R1,R2,seed\n"
        "0,0.00355225768378,0.531004406411,3000009\n"
        "1,0.713603042884,2.22044604925e-16,3000010\n"
    )


def test_frontier_checks_the_distributions_it_scores(monkeypatch):
    # RTD_CC requires X2 = U2c; a uniform joint has H(X2|U2c) = 1 bit
    import cifc.verify

    rvs = builtin_schema("RTD_CC").rv_set(2)
    cells = math.prod(rvs.sizes)
    monkeypatch.setattr(cifc.verify, "_joints", lambda rvs, blocks: JointDistribution(
        rvs, np.full((len(blocks[0]), *rvs.sizes), 1.0 / cells)))
    with pytest.raises(FactorizationViolation, match=r"RTD_CC: H\(X2\|U2c\) = 1\.000e\+00"):
        trace_frontier("RTD_CC", BSC, budget=10, seed=0, lambdas=2)


_STUCK = np.zeros((2, 2, 2, 2))
_STUCK[1, 0] = 1.0  # every input gives the same outputs


@pytest.mark.parametrize("sid, channel, budget, seed, lambdas", [
    ("RTD", canonical_channel("orthogonal_noiseless"), 200, 1, 5),
    ("RTD_CC", BSC, 800, 3, 2),  # long enough for a restart
    ("JIANG", random_channel(7), 300, 2, 4),
    ("RTD", BSC, 500, 1, 21),
    ("RTD", BSC, 120, 5, [0.3]),
    ("RTD_IN", BSC, 100, 1, [0.4, 0.9, 0.4]),
    ("RTD", Channel(_STUCK), 60, 0, [0.3, 0.7]),
    ("MARIC", random_channel(5, (2, 4, 2, 2)), 200, 2, 3),  # a paired X2 of four letters
    ("RTD", random_channel(7), 1200, 1, [0.3]),  # rounds ROUND_ROWS deep, two restarts
    ("RTD_IN", random_channel(3), 400, 4, 2),
])
def test_lockstep_frontier_is_the_sequential_search_byte_for_byte(sid, channel, budget, seed,
                                                                  lambdas):
    # each lambda keeps its own generator, and a batch scores each member
    # as it scores alone, so stepping the climbs together changes nothing
    expected = sequential_frontier(sid, channel, budget=budget, seed=seed, lambdas=lambdas)
    result = trace_frontier(sid, channel, budget=budget, seed=seed, lambdas=lambdas)
    assert result.to_csv() == expected.to_csv()
    assert result == expected


def test_lockstep_frontier_chunks_its_batches_under_the_extension_cap(monkeypatch):
    # RTD's 18 entropy subsets of 256 extended cells fit under a cap of 20
    # joints, so the marginal plan is allowed while a round of 21 lambdas,
    # and the 42 starts, must be split
    import cifc.probability
    import cifc.verify

    expected = sequential_frontier("RTD", BSC, budget=90, seed=2, lambdas=21)
    sizes = []

    def extend(d, c):
        sizes.append(len(d.prob))
        return extend_through_channel(d, c)

    monkeypatch.setattr(cifc.probability, "MAX_MARGINAL_LABELS", 20 * 256)
    monkeypatch.setattr(cifc.verify, "extend_through_channel", extend)
    result = trace_frontier("RTD", BSC, budget=90, seed=2, lambdas=21)
    assert result.to_csv() == expected.to_csv()
    assert sizes[:3] == [20, 20, 2] and max(sizes) == 20


def test_frontier_rtd_workload_csv_is_pinned():
    # the benchmark's frontier-rtd run, written before the climbs ran in lockstep
    result = trace_frontier("RTD", canonical_channel("orthogonal_noiseless"), budget=200, seed=1,
                            lambdas=5)
    assert result.to_csv() == (
        "lambda,R1,R2,seed\n"
        "0,0.0070024787573,0.999999993031,1000003\n"
        "0.25,0.311278124459,1,1000004\n"
        "0.5,0,0.999546624338,1000005\n"
        "0.75,0.976011544304,0.135345004215,1000006\n"
        "1,1,0,1000007\n"
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_frontier_rtd_workload_draws_each_move_once(monkeypatch, seed):
    # the benchmark's frontier-rtd run: 5 lambdas of 200 evaluations, 5 of
    # them starts and none a restart, in rounds several rows deep; a move
    # drawn after a kept one is carried to the next round, not drawn again
    import cifc.sampling

    draws = []
    draw_move = cifc.sampling._draw_move

    def spy(plan, rng):
        draws.append(rng)
        return draw_move(plan, rng)

    monkeypatch.setattr(cifc.sampling, "_draw_move", spy)
    trace_frontier("RTD", canonical_channel("orthogonal_noiseless"), budget=200, seed=seed,
                   lambdas=5)
    assert len(draws) == 5 * (200 - 5)


# -- batches ----------------------------------------------------------------------


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_a_batch_evaluates_bit_for_bit_as_its_members_one_by_one(sid):
    # every stage after the draws keeps one row per distribution, so the
    # joints, rhs, supports, systems and regions of a batch are those of its
    # members taken one at a time
    schema = builtin_schema(sid)
    compiled = compile_schema(schema)
    projection = compile_projection(compiled.structure)
    seeds = list(range(30))
    modes = [_mode_for(s) for s in seeds]
    channels = [random_channel(s, _channel_sizes(schema)) for s in seeds]
    d = sample_instances(schema, channels, seeds, modes)
    b = compiled.sign * compiled.rhs(d)
    lams = np.linspace(0.0, 1.0, len(seeds))
    supports = projection.support(b, lams, 1.0 - lams)
    shared = sample_instances(schema, channels[0], seeds, modes)
    systems = instantiate(schema, d)
    regions = project_or_empty(systems)
    assert b.shape == systems.b.shape == (30, len(schema.constraints)) and len(regions) == 30
    for k, s in enumerate(seeds):
        one = sample_instances(schema, [channels[k]], [s], [modes[k]])[0]
        assert d[k].prob.tobytes() == one.prob.tobytes()
        assert b[k].tobytes() == (compiled.sign * compiled.rhs(one)).tobytes()
        assert supports[k] == projection.support(compiled.sign * compiled.rhs(one), lams[k],
                                                 1.0 - lams[k])
        alone = sample_instances(schema, [channels[0]], [s], [modes[k]])[0]
        assert shared[k].prob.tobytes() == alone.prob.tobytes()
        assert systems[k] == instantiate(schema, one)
        region = project_or_empty(instantiate(schema, one))
        assert regions[k] == region and polytopes_equal([regions[k]], [region], 1e-9)[0]


@pytest.mark.parametrize("sid", ["RTD", "MARIC"])
def test_an_empty_batch_is_a_value_at_every_stage(sid):
    # K = 0 takes the same path as any K: each stage returns its empty result
    schema = builtin_schema(sid)
    compiled = compile_schema(schema)
    rvs = schema.rv_set(2)
    d = extend_through_channel(JointDistribution(rvs, np.empty((0, *rvs.sizes))),
                               random_channel(0, _channel_sizes(schema)))
    assert d.batched and len(d.prob) == 0
    assert entropy_vector(d, compiled.rhs.subsets).shape == (0, len(compiled.rhs.subsets))
    b = compiled.sign * compiled.rhs(d)
    assert b.shape == instantiate(schema, d).b.shape == (0, len(schema.constraints))
    assert project_or_empty(instantiate(schema, d)) == []
    projection = compile_projection(compiled.structure)
    assert projection.support(b, 0.5, 0.5) == []
    assert projection.support(b, np.empty(0), np.empty(0)) == []


def test_a_check_beyond_one_batch_runs_under_a_cap_that_refuses_all_its_samples(monkeypatch):
    # a check evaluates BATCH samples at a time, so its memory stays bounded
    # and the extension cap holds for any sample count; the report is the same
    import cifc.probability
    import cifc.verify

    batch, samples = 40, 110
    expected = check_identities("maric", "MARIC", SUITES["maric"].checks, samples, seed=3)
    schema = builtin_schema("MARIC")
    cells = math.prod(schema.rv_set(2).sizes) * 4  # with the binary outputs
    monkeypatch.setattr(cifc.verify, "BATCH", batch)
    monkeypatch.setattr(cifc.probability, "MAX_MARGINAL_LABELS", batch * cells)
    seeds = range(samples)
    with pytest.raises(InvalidParameter, match=f"{samples} extended joints"):
        sample_instances(schema, [random_channel(s, _channel_sizes(schema)) for s in seeds],
                         seeds, ["free"] * samples)
    report = check_identities("maric", "MARIC", SUITES["maric"].checks, samples, seed=3)
    assert report.ok and report.to_json() == expected.to_json()
    assert all(c.seeds_run == samples for c in report.checks)
    checks = {c.check_id: c for c in report.checks}
    assert "gap_histogram" in checks["merge gap nonnegative"].details


def test_batches_draw_their_channels_without_rechecking_seeds_or_sizes(monkeypatch):
    # _batches has checked its seeds and takes its sizes from the schema, so it
    # draws each channel through the cached draw; random_channel checks for others
    import cifc.verify

    schema = builtin_schema("MARIC")
    sizes = _channel_sizes(schema)
    expected = sample_instances(schema, [random_channel(s, sizes) for s in range(1, 101)],
                                range(1, 101), [_mode_for(i) for i in range(100)])
    monkeypatch.setattr(cifc.verify, "random_channel", None)
    (seeds, d), = cifc.verify._batches(schema, 1, 100)
    assert seeds == range(1, 101) and d.prob.tobytes() == expected.prob.tobytes()


def test_the_one_system_operations_refuse_a_batch():
    schema = builtin_schema("CCP")
    seeds = [0, 1]
    d = sample_instances(schema, [random_channel(s, _channel_sizes(schema)) for s in seeds],
                         seeds, ["free", "det"])
    batch = instantiate(schema, d)
    refused = (lambda: same_system(batch, batch),
               lambda: oracle_polygon(batch), lambda: grid_agreement(batch, EMPTY))
    for operation in refused:
        with pytest.raises(InvalidParameter, match="a batch of 2 systems where one is needed"):
            operation()
    assert same_system(drop_vacuous(batch[1]), drop_vacuous(batch[1]))
    assert oracle_polygon(batch[0]) == oracle_polygon(instantiate(schema, d[0]))


# -- the claims table ------------------------------------------------------------


def test_the_claims_table_builds_the_python_builders_claims_bit_for_bit():
    # the table's terms are in the builders' order, so the checks compare equal
    # as MIExprs, term by term, not only in value
    assert list(SUITES) == ["devroye", "cc", "jiang", "maric", "containment"]
    assert tuple(SUITES["devroye"].checks) == reference_devroye_identity_checks()
    assert tuple(SUITES["cc"].checks) == reference_cc_identity_checks()
    assert tuple(SUITES["jiang"].checks) == reference_jiang_identity_checks()
    assert tuple(SUITES["maric"].checks) == reference_maric_identity_checks()
    assert SUITES["cc"].bounds == reference_bounds(REFERENCE_CC_PRIMED)
    assert SUITES["maric"].bounds == reference_bounds(REFERENCE_MARIC_MERGED)
    assert SUITES["cc"].pinned == [("CCP", "RTD_CC", "R1c'")]
    assert SUITES["containment"].contains == [
        ("RTD_IN", "DMT_OUT", "7"), ("RTD_JIANG", "JIANG", None), ("RTD_CC", "CCP", None)]
    assert SUITES["containment"].schema_id is None and not SUITES["containment"].checks


def test_cc_block_is_its_identities_then_its_pinned_checks():
    report, = run_suite("cc", samples=4, seed=2)
    identities = check_identities("cc", "CC", SUITES["cc"].checks, samples=4, seed=2)
    pinned = _pinned_checks("CCP", "RTD_CC", "R1c'", 4, seed=10_002)
    assert report.to_json() == SuiteReport("cc", identities.checks + pinned).to_json()
    assert [c.check_id for c in report.checks][-2:] == [
        "pinned systems structurally identical", "pinned projections vertex-identical"]


@pytest.mark.parametrize("block, number, reason", [
    ("suite t NOPE", 1, "unknown schema 'NOPE'"),
    ("suite t RTD_IN\nzero a: [NOPE.e1]", 2, "unknown schema 'NOPE'"),
    ("suite t RTD_IN\nzero a: I(U1c;X2) - [RTD_IN.e99]", 2, "RTD_IN: no constraint labeled 'e99'"),
    ("suite t RTD_IN\nequal a: I(U1c;X2)", 2, "unknown line kind 'equal'"),
    ("suite t RTD_IN\nsuite u", 2, "unknown line kind 'suite'"),
    ("suite t RTD_IN\nzero a: I(U1c;X2)\nzero b: I(U1c;X2)\nnonneg a: I(U1c;X2)", 4,
     "check 'a' is split by another check"),
    ("suite t MARIC\nzero a: [m1']\nm1': I(X2;Y2|Q)", 2, "no bound \"m1'\" above this line"),
    ("suite t MARIC\nm1': I(X2;Y2|Q)\nm1': I(X2;Y2|Q)", 3, "bound \"m1'\" is defined twice"),
    ("suite t\ncontains RTD_IN JIANG", 2, "RTD_IN and JIANG do not share one variable set"),
    ("suite t\npinned CC RTD_CC R1c' = 0", 2, "CC and RTD_CC do not share one variable set"),
    ("suite t\ncontains RTD_IN DMT_OUT channel bsc(3)", 2, "as a contains line"),
    # LinearSystem.pin ignores a name that is no rate, so this would pin nothing
    ("suite t\npinned CCP RTD_CC R9 = 0", 2, "R9 is no rate of both CCP and RTD_CC"),
    ("suite t JIANG\nzero a: I(V22;U11)", 2, "undeclared variables ['U11', 'V22']"),
    ("suite t\nzero a: I(X1;X2)", 2, "a zero line in a suite with no schema"),
    ("suite t RTD_IN\nzero a: I(U1c;X2) + -[RTD_IN.e13]", 2, "two signs before one term"),
    ("suite t RTD_IN\nzero a: I(U1c;X2) - 0 I(U1c;X1)", 2, "as a term I(A;B|C)"),
    ("suite t RTD_IN\nzero a: 01 I(U1c;X2)", 2, "as a term I(A;B|C)"),
])
def test_a_malformed_claims_block_is_refused_naming_its_line(block, number, reason):
    with pytest.raises(InvalidParameter, match=re.escape(f"claims t, line {number}: ") + ".*"
                       + re.escape(reason)):
        parse_claims(block)


def test_a_claims_block_opens_with_its_suite_line():
    for head in ("suit t", "suite", "suite t RTD_IN extra"):
        with pytest.raises(InvalidParameter, match="line 1: a block opens with 'suite NAME"):
            parse_claims(head + "\nzero a: I(U1c;X2)")


def test_a_reference_takes_the_sign_written_before_it():
    claims = parse_claims("suite t MARIC\nm: I(X2;Y2|Q) - I(U1c;Y1)\n"
                          "zero a: -[m] - [MARIC.m3] + [m]")
    m, m3 = claims.bounds["m"], builtin_schema("MARIC").constraint("m3").rhs
    assert claims.checks == [IdentityCheck("a", (-m - m3 + m,))]
    assert str(claims.checks[0].zero[0]) == (
        "-I(X2;Y2|Q) + I(U1c;Y1) - I(U1c,X2;Y2|Q) + I(X2;Y2|Q) - I(U1c;Y1)")


def _claims_mutants() -> dict[str, str]:
    """Each claims block with one line after its header deleted or
    repeated, or with one of the table's pinned or contains lines
    appended, as text -> suite name."""
    blocks = [b.split("\n") for b in _CLAIMS.strip("\n").split("\n\n")]
    extra = sorted({line for b in blocks for line in b
                    if line.split(" ")[0] in ("pinned", "contains")})
    mutants = {}
    for head, *lines in blocks:
        name = head.split(" ")[1]
        for i in range(len(lines)):
            mutants["\n".join([head, *lines[:i], *lines[i + 1:]])] = name
            mutants["\n".join([head, *lines[:i + 1], *lines[i:]])] = name
        for line in extra:
            mutants["\n".join([head, *lines, line])] = name
    return mutants


def test_every_mutant_of_a_claims_block_is_refused_or_runs(monkeypatch):
    # refused naming its block and line, or a suite that runs at --samples 2
    # and writes its strict-JSON report: no mutant ends in another error
    mutants = _claims_mutants()
    assert len(mutants) == 108
    refused = 0
    for text, name in mutants.items():
        try:
            claims = parse_claims(text)
        except InvalidParameter as e:
            assert re.match(rf"claims {name}, line \d+: ", str(e)), (text, e)
            refused += 1
            continue
        monkeypatch.setitem(SUITES, name, claims)
        json.dumps(reports_to_json(run_suite(name, samples=2, seed=0)), allow_nan=False)
    assert 0 < refused < len(mutants)


# -- identity suites (small runs; full sizes live in the acceptance tests) ----


def test_identity_suite_makes_one_entropy_pass_per_sample(monkeypatch):
    # one kernel call takes every sample of the check, one row each
    import cifc.probability

    calls = []
    kernel = cifc.probability.entropy_vector

    def counted(d, subsets):
        calls.append(d.prob.shape[0] if d.batched else None)
        return kernel(d, subsets)

    monkeypatch.setattr(cifc.probability, "entropy_vector", counted)
    for suite, sid, checks in (
        ("devroye", "RTD_IN", SUITES["devroye"].checks),
        ("maric", "MARIC", SUITES["maric"].checks),
    ):
        report = check_identities(suite, sid, checks, samples=6, seed=2)
        assert report.ok and calls == [6], suite
        calls.clear()


def test_devroye_small_run_clean():
    report, = run_suite("devroye", samples=25, seed=0)
    assert report.ok
    ids = {c.check_id for c in report.checks}
    assert ids == {"e13_e23", "e14_e24", "e15_e25", "e16_e26", "e17_e27", "e18_e28", "e19_e29"}
    checks = {c.check_id: c for c in report.checks}
    assert checks["e17_e27"].details["gap_histogram"]["min"] >= 0.0


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
    for check in SUITES["devroye"].checks:
        for e in check.zero:
            assert abs(expr_value(d, e)) < 1e-9
        for e in check.nonneg:
            assert expr_value(d, e) > -1e-9
    assert expr_value(d, mi("U1c", "U1pb")) == pytest.approx(0.0, abs=1e-12)


def test_cc_small_run_clean():
    report, = run_suite("cc", samples=20, seed=0)
    assert report.ok
    projected = {c.check_id: c for c in report.checks}["pinned projections vertex-identical"]
    assert projected.details["nonempty_instances"] > 0


def test_cc_projects_each_kept_row_mask_as_one_batch():
    # the batch of the cc check's projections, each system alone as reference
    ccp = builtin_schema("CCP")
    seeds = range(10_000, 10_006)
    d = sample_instances(ccp, [random_channel(s, _channel_sizes(ccp)) for s in seeds], seeds,
                         [_mode_for(i) for i in range(len(seeds))])
    batch = instantiate(ccp, d).pin({"R1c'": 0.0})
    assert len({mask.tobytes() for mask in batch.nonvacuous()}) == 2
    for k, (system, region) in enumerate(_nonvacuous_regions(batch)):
        alone = drop_vacuous(batch[k])
        assert system.structure == alone.structure and system.b.tobytes() == alone.b.tobytes()
        assert region == project_or_empty(alone)


def test_cc_degenerate_satellite_gap_vanishes():
    """U11 of cardinality one: the merge gap I(V22,V20;U11|U10) is zero."""
    cc = builtin_schema("CC")
    rvs = cc.rv_set(2, overrides={"U11": 1})
    d = sample_factored(rvs, cc.factorization, 7)
    d = extend_through_channel(d, random_channel(7))
    primed = SUITES["cc"].bounds
    for lab in ("38", "41"):
        delta = expr_value(d, primed[lab + "p"]) - expr_value(d, cc.constraint(lab).rhs)
        assert delta == pytest.approx(0.0, abs=1e-12)


def test_jiang_small_run_clean():
    report, = run_suite("jiang", samples=20, seed=0)
    assert report.ok
    assert [c.check_id for c in report.checks] == [
        "eight paired bounds equal", "I(U1c;X2|U2c) vanishes under the chain"]


JIANG_EXTRA = ("j3", "j8")  # the comparator's two bounds with no unified counterpart


@pytest.mark.parametrize("seed", [0, 1])
def test_jiang_extra_bounds_named_iff_dropping_them_reshapes(seed):
    # reference: a bound is active when re-projecting without it changes the
    # region; the facet labels name the same bounds.  Every strictly smaller
    # comparator region is cut by an extra bound.
    jg, uj = builtin_schema("JIANG"), builtin_schema("RTD_JIANG")
    strict = active = 0
    for i in range(100):
        s = seed + 20_000 + i
        d = sample_instances(jg, [random_channel(s)], [s], [_mode_for(i)])[0]
        system = instantiate(jg, d)
        pj = project_or_empty(system)
        pu = project_or_empty(instantiate(uj, d))
        if pj.is_empty or pu.is_empty or polytopes_equal([pu], [pj], 1e-9)[0]:
            continue
        strict += 1
        named = {lab for h in pj.halfplanes for lab in h.labels} & set(JIANG_EXTRA)
        reshaping = {lab for lab in JIANG_EXTRA
                     if not polytopes_equal([pj], [project_or_empty(system.drop(lab))], 1e-9)[0]}
        assert named == reshaping, s
        active += bool(reshaping)
    contain, = sampled_region_containment("RTD_JIANG", "JIANG", seed=seed + 20_000).checks
    assert contain.details["strictly_smaller"] == strict > 0
    assert active == strict


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


def test_identity_runner_refuses_a_variable_the_schema_lacks():
    # refused as parse_claims refuses it at a claim line, not as the entropy
    # pass's UnknownVariable
    claims = [IdentityCheck("gap", nonneg=(MIExpr.of(mi("X2a", "Y2")),)),
              IdentityCheck("other comparator", zero=(mi("X2a", "Y2") - mi("V22", "Y1"),))]
    with pytest.raises(InvalidParameter, match=re.escape(
            "check 'other comparator' on MARIC: undeclared variables ['V22']")):
        check_identities("maric", "MARIC", claims, samples=2)


def test_roundoff_violations_name_no_worst_seed():
    # a passing check reports the size of its roundoff but no seed, so a
    # change of summation order cannot move worst_seed
    check = CheckReport("roundoff")
    check.record(0, 4.4e-16)
    check.record(1, -8.9e-16)
    check.record(2, 0.0)
    assert check.ok and check.worst_seed is None
    assert check.max_abs_violation == 8.9e-16
    assert check.to_json()["worst_seed"] is None
    check.record(3, 2e-3)
    check.record(4, 5e-4)
    assert check.worst_seed == 3 and check.max_abs_violation == 2e-3


def test_maric_degenerate_part_gives_zero_difference():
    """X2a of cardinality one: merged and original bounds coincide."""
    mar = builtin_schema("MARIC")
    merged = SUITES["maric"].bounds
    rvs = mar.rv_set(2, overrides={"X2a": 1})
    plan = _chain_plan(rvs, mar.factorization.factors, det=mar.deterministic)
    joint = _joints(rvs, _draw([plan], [np.random.default_rng(11)]))[0]
    d = extend_through_channel(joint, random_channel(11, sizes=(2, 2, 2, 2)))
    io = instantiate(mar, d)
    m1 = io.b[io.labels.index("m1")]
    assert expr_value(d, merged["m1'"]) - m1 == pytest.approx(0.0, abs=1e-12)


# -- containment ----------------------------------------------------------------


def test_containment_self_margin_zero():
    report = sampled_region_containment("RTD_IN", "RTD_IN", samples=10, seed=0)
    assert report.ok
    details = report.checks[0].details
    # the vertices on an axis give a margin of +0.0, never -0.0
    assert details["worst_margin"] == 0.0 and math.copysign(1.0, details["worst_margin"]) == 1.0
    # a region is never strictly smaller than itself
    assert details["nonempty_instances"] > 0 and details["strictly_smaller"] == 0


def test_containment_dmt_pair():
    report = sampled_region_containment(
        "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=20, seed=0
    )
    assert report.ok
    assert report.checks[0].details["nonempty_instances"] > 0


def test_reversed_containment_fails_at_the_most_violating_vertex():
    # the unified region is the larger one, so JIANG cannot contain it
    check = sampled_region_containment("JIANG", "RTD_JIANG", samples=20, seed=0).checks[0]
    assert check.failures
    assert set(check.details) == {"worst_margin", "nonempty_instances", "strictly_smaller"}
    for message in check.failures:
        head, rest = message.split(": vertex ")
        s = int(head.removeprefix("seed "))
        vertex = ast.literal_eval(rest.split(" outside")[0])
        d = sample_instances(builtin_schema("RTD_JIANG"), [random_channel(s)], [s],
                             [_mode_for(s)])[0]
        po = project_or_empty(instantiate(builtin_schema("JIANG"), d))
        pi = project_or_empty(instantiate(builtin_schema("RTD_JIANG"), d))
        assert vertex in pi.vertices
        margin, = containment_margins([po], [pi])
        assert halfplane_violation(po, [vertex])[0] == margin > REGION_TOL


def test_containment_jiang_pair():
    report = sampled_region_containment("RTD_JIANG", "JIANG", samples=20, seed=0)
    assert report.ok


# -- equivalence and droppability (small) -----------------------------------------


def test_fme_oracle_small():
    report = check_fme_oracle(["RTD_IN", "CC"], instances=8, seed=0, grid=11)
    assert report.ok


@pytest.mark.parametrize("seed, digest", [
    (1, "313497aadac9b619206d10dc0baa73d192f8b5ae5394ec7c174eacc80ab0fe5b"),
    (2, "3e1ad973efdad21dba1aaaeb200a8372f8f0626faf45fca1d89e4f5d1ce098f0"),
    (3, "ab572b2c30db0e58afc0444b9494d8980d29bb4d61ee2f0190c6d21801a71db3"),
])
def test_fme_oracle_reports_are_pinned(seed, digest):
    # the oracle-grid benchmark workload's reports, strict JSON, byte for byte
    report = check_fme_oracle(SCHEMA_IDS, instances=10, seed=seed, grid=21)
    text = json.dumps(reports_to_json([report]), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, digest", [
    (1, "505f23451eb53d44d26e1f92741c7c1fa2df7ec164768d49dc8545691a9907fb"),
    (2, "a4e1fd1e275ed4e85456bedde08fede7e899fe90e4743623995568ff1246cbbd"),
    (3, "95de16fcebadaf6a9f740969cef0f703a200375caff732d592ad281ecf5ffd10"),
])
def test_oracle_hulls_of_the_oracle_workload_are_pinned(seed, digest):
    # the oracle's hull of every system the oracle-grid workload checks, by
    # repr: a hull can move without flipping a grid verdict of the report pin
    import cifc.verify

    hulls = []
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        for seeds, d in cifc.verify._batches(schema, seed, 10):
            systems = instantiate(schema, d)
            hulls += [repr(oracle_polygon(systems[k])) for k in range(len(seeds))]
    assert len(hulls) == 10 * len(SCHEMA_IDS)
    assert hashlib.sha256("\n".join(hulls).encode()).hexdigest() == digest


def _moved_regions(system):
    """Each projected region with its first labeled half-plane moved out by 0.01."""
    out = []
    for region in project_or_empty(system):
        hps = list(region.halfplanes)
        k = next((i for i, h in enumerate(hps) if h.labels), None)
        if k is not None:
            hps[k] = dataclasses.replace(hps[k], b=hps[k].b + 0.01)
        out.append(dataclasses.replace(region, halfplanes=tuple(hps)))
    return out


def test_the_oracle_check_fails_a_region_moved_by_a_hundredth(monkeypatch):
    import cifc.verify

    schema = builtin_schema("MARIC")
    assert check_fme_oracle(["MARIC"], instances=10, seed=1, grid=21).ok
    (seeds, d), = cifc.verify._batches(schema, 1, 10)
    systems = instantiate(schema, d)
    k = seeds.index(6)
    assert grid_agreement(systems[k], project_or_empty(systems)[k]) == (0, 0.0)
    bad, worst = grid_agreement(systems[k], _moved_regions(systems)[k])
    assert bad > 0 and 0.0 < worst <= 0.01
    monkeypatch.setattr(cifc.verify, "project_or_empty", _moved_regions)
    report = check_fme_oracle(["MARIC"], instances=10, seed=1, grid=21)
    assert report.ok is False
    (check,) = report.checks
    assert check.seeds_run == 10 and 0.0 < check.max_abs_violation <= 0.01
    assert check.failures == [f"seed 6: {bad} grid disagreements", "seed 9: 1 grid disagreements"]
    assert check.worst_seed == 6 and check.max_abs_violation == worst


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
    ch = Channel(t)
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


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 1.5, -0.5])
def test_frontier_rejects_a_lambda_outside_the_unit_interval(lam):
    with pytest.raises(InvalidParameter, match=r"lambda is a Pareto weight in \[0, 1\]"):
        trace_frontier("RTD", BSC, budget=10, seed=0, lambdas=[0.5, lam])


def test_frontier_refuses_a_lambda_grid_above_the_cap_at_once():
    # 10**12 climbs of 6 starts over RTD's 80-number chain; neither the grid
    # nor a generator per lambda may be made first
    with pytest.raises(InvalidParameter, match=r"1000000000000 climbs of 6 starts over RTD's chain "
                                               r"of 80 numbers draw .* above the cap of 16777216"):
        trace_frontier("RTD", BSC, budget=2000, seed=0, lambdas=10**12)


def test_a_numpy_integer_grid_size_is_the_same_grid():
    # np.int64 used to be taken for an iterable of weights
    expected = trace_frontier("RTD", BSC, budget=40, seed=1, lambdas=3).to_csv()
    assert trace_frontier("RTD", BSC, budget=40, seed=1, lambdas=np.int64(3)).to_csv() == expected
    assert trace_frontier("RTD", BSC, budget=np.int64(40), seed=np.int64(1),
                          lambdas=[0.0, 0.5, 1.0]).to_csv() == expected


def test_one_frontier_builds_one_marginal_plan():
    _marginal_plan.cache_clear()
    trace_frontier("RTD", canonical_channel("orthogonal_noiseless"), budget=40, seed=1, lambdas=2)
    assert _marginal_plan.cache_info().misses == 1


def test_frontier_deterministic_and_csv():
    fr1 = trace_frontier("RTD", BSC, budget=50, seed=4, lambdas=[0.4])
    fr2 = trace_frontier("RTD", BSC, budget=50, seed=4, lambdas=[0.4])
    assert fr1.points == fr2.points
    text = fr1.to_csv()
    assert text.splitlines()[0] == "lambda,R1,R2,seed"
    parsed = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    assert len(parsed) == len(fr1.points)
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
    a = check_identities("maric", "MARIC", SUITES["maric"].checks, samples=8, seed=3)
    b = check_identities("maric", "MARIC", SUITES["maric"].checks, samples=8, seed=3)
    ja = json.dumps(reports_to_json([a]), sort_keys=True)
    jb = json.dumps(reports_to_json([b]), sort_keys=True)
    assert ja == jb
    payload = json.loads(ja)
    check = payload["suites"][0]["checks"][0]
    assert {"id", "seeds_run", "max_abs_violation", "worst_seed"} <= set(check)


def test_each_suite_reports_alone_what_it_reports_in_all():
    # no memo may make a report depend on the suites that ran before it
    _random_channel.cache_clear()
    alone = {name: [r.to_json() for r in run_suite(name, samples=20, seed=1)]
             for name in reversed(SUITES)}
    together = [r.to_json() for r in run_suite("all", samples=20, seed=1)]
    assert together == [r for name in SUITES for r in alone[name]]


def test_run_suite_names():
    reports = run_suite("maric", samples=5, seed=0)
    assert len(reports) == 1 and reports[0].suite == "maric"
    with pytest.raises(InvalidParameter):
        run_suite("everything")
