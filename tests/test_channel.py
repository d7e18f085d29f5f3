import json

import numpy as np
import pytest

import cifc.channel
from cifc.channel import (
    CHANNEL_CACHE,
    Channel,
    _check_transitions,
    bsc_pair,
    canonical_channel,
    channel_from_json,
    channel_to_json,
    load_channel,
    normalize_exponentials,
    random_channel,
    random_channels,
    save_channel,
)
from cifc.errors import InvalidParameter, NegativeProbability, RowSumMismatch
from cifc.regions import builtin_schema
from cifc.sampling import _schema_plan
from helpers import reference_random_channel


def test_orthogonal_noiseless_is_deterministic_and_valid():
    ch = canonical_channel("orthogonal_noiseless")
    assert set(np.unique(ch.transition)) <= {0.0, 1.0}
    # Y1 = X1, Y2 = X2
    for x1 in range(2):
        for x2 in range(2):
            assert ch.transition[x1, x2, x1, x2] == 1.0


def test_negative_entry_rejected():
    t = bsc_pair(0.1, 0.2).transition.copy()
    t[0, 0, 0, 0] = -0.1
    with pytest.raises(NegativeProbability):
        Channel(t)


def test_scaled_row_reports_residual():
    t = bsc_pair(0.1, 0.2).transition.copy()
    t[:, :, 1, 0] *= 0.5
    with pytest.raises(RowSumMismatch) as err:
        Channel(t)
    assert err.value.residual == pytest.approx(0.5, abs=1e-12)
    assert "x1=1" in str(err.value) and "x2=0" in str(err.value)


def test_balanced_row_sums_rejected():
    # the two slice errors cancel over a uniform input, so nothing
    # downstream of the channel notices them
    t = canonical_channel("orthogonal_noiseless").transition.copy()
    t[:, :, 0, 0] *= 1.5
    t[:, :, 1, 1] *= 0.5
    with pytest.raises(RowSumMismatch) as err:
        Channel(t)
    assert err.value.residual == pytest.approx(-0.5, abs=1e-12)
    assert "x1=0" in str(err.value) and "x2=0" in str(err.value)


def test_nan_entry_rejected():
    t = bsc_pair(0.1, 0.2).transition.copy()
    t[1, 0, 0, 1] = np.nan
    with pytest.raises(RowSumMismatch) as err:
        Channel(t)
    assert "x1=0" in str(err.value) and "x2=1" in str(err.value)


def test_bsc_zero_noise_equals_orthogonal():
    assert np.array_equal(
        canonical_channel("bsc_pair", eps1=0.0, eps2=0.0).transition,
        canonical_channel("orthogonal_noiseless").transition,
    )


def test_random_channel_deterministic_in_seed():
    a = canonical_channel("random", seed=42)
    b = canonical_channel("random", seed=42)
    assert np.array_equal(a.transition, b.transition)
    c = canonical_channel("random", seed=43)
    assert not np.array_equal(a.transition, c.transition)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
def test_normalized_exponentials_are_numpys_dirichlet(n, lead):
    # Dirichlet(1) as normalized Exp(1) variates is numpy's own algorithm
    # for all-ones alpha; a numpy release that changes it fails here
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = normalize_exponentials(rng.standard_exponential((*lead, n)))
        expected = ref.dirichlet(np.ones(n), size=lead or None)
        assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("values", [(1.0, 0.4), (0.5, 0.15, 0.03)])
def test_an_indexed_bounded_integer_is_numpys_choice(values):
    # the climb's moves pick a weight as values[rng.integers(0, n)], which is
    # numpy's own Generator.choice draw of one element; a release that
    # changes it fails here
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert values[rng.integers(0, len(values))] == ref.choice(list(values))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [1, 3, 8])
def test_one_run_of_exponentials_filled_across_an_integers_call(n):
    # the sampler fills a state's row of exponential variates run by run,
    # with the integer draws of structured inputs between the runs
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        row = np.empty(3 * n)
        rng.standard_exponential(out=row[:n])
        ints = rng.integers(0, 3, size=5)
        rng.standard_exponential(out=row[n:])
        rows = normalize_exponentials(row.reshape(3, n))
        first = ref.dirichlet(np.ones(n))
        expected_ints = ref.integers(0, 3, size=5)
        expected = np.vstack([first, ref.dirichlet(np.ones(n), size=2)])
        assert rows.tobytes() == expected.tobytes()
        assert np.array_equal(ints, expected_ints)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_consecutive_integers_calls_of_one_bound_are_one_call(bound):
    # the sampler merges a structured input's integer draws into the next
    # one's when the bounds agree, as it merges runs of exponential variates
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        split = np.concatenate([rng.integers(0, bound, size=4), rng.integers(0, bound, size=3)])
        assert np.array_equal(split, ref.integers(0, bound, size=7))
        assert rng.bit_generator.state == ref.bit_generator.state
    # RTD in "det": one run of exponentials for its auxiliaries, then X1's
    # and X2's maps below 2 as one call
    assert [bound for _, _, bound in _schema_plan(builtin_schema("RTD"), 2, "det").calls] == [
        None, 2]


@pytest.mark.parametrize(
    "kind,params",
    [
        ("orthogonal_noiseless", {}),
        ("bsc_pair", {"eps1": 0.0, "eps2": 0.5}),
        ("bsc_pair", {"eps1": 0.11, "eps2": 0.3}),
        ("random", {"seed": 0}),
        ("random", {"seed": 7, "sizes": (2, 4, 3, 2)}),
    ],
)
def test_canonical_channels_validate(kind, params):
    t = canonical_channel(kind, **params).transition
    assert (t >= 0).all()
    assert np.abs(t.sum(axis=(0, 1)) - 1.0).max() <= 1e-12


def test_a_random_channel_is_drawn_once_per_seed_and_sizes():
    a = random_channel(11, [2, 4, 2, 2])  # any sequence of sizes
    assert a is random_channel(11, (2, 4, 2, 2))
    assert a.transition.tobytes() == reference_random_channel(11, (2, 4, 2, 2)).transition.tobytes()
    assert not a.transition.flags.writeable
    for seed in range(CHANNEL_CACHE + 1):
        random_channel(50_000 + seed)
    assert len(cifc.channel._CHANNELS) == CHANNEL_CACHE
    # a refused call draws nothing and caches nothing
    cifc.channel._CHANNELS.clear()
    for refused in ((-1, (2, 2, 2, 2)), (1, (2, 2, 2, 9)), (1.5, (2, 2, 2, 2)),
                    (True, (2, 2, 2, 2)), (1, (2, 2.5, 2, 2))):
        with pytest.raises(InvalidParameter):
            random_channel(*refused)
    assert not cifc.channel._CHANNELS


@pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (2, 4, 2, 2), (3, 2, 2, 3)])
def test_a_chunk_of_random_channels_is_each_seeds_channel_drawn_alone(sizes):
    # drawn as one stack, with some seeds cached and one repeated, byte for byte
    cifc.channel._CHANNELS.clear()
    seeds = list(range(300))
    cached = [random_channel(s, sizes) for s in seeds[::7]]
    for at in range(0, 300, 100):
        chunk = seeds[at:at + 100] + [seeds[at]]
        got = random_channels(chunk, sizes)
        assert got[0] is got[-1]
        for s, channel in zip(chunk, got):
            assert channel.transition.flags.c_contiguous and not channel.transition.flags.writeable
            assert channel.transition.tobytes() == reference_random_channel(s, sizes).transition.tobytes()
            assert channel is random_channel(s, sizes)
    assert all(c is random_channel(s, sizes) for s, c in zip(seeds[::7], cached))


@pytest.mark.parametrize("entry, value, error", [
    ((1, 0, 1, 0), -0.1, NegativeProbability),
    ((0, 1, 0, 1), 0.7, RowSumMismatch),
], ids=["negative", "row_sum"])
def test_the_stack_check_is_channels_own_naming_the_channel(entry, value, error):
    good = random_channel(3).transition
    bad = good.copy()
    bad[entry] = value
    with pytest.raises(error) as alone:
        Channel(bad)
    with pytest.raises(error) as stacked:
        _check_transitions(np.stack([good, good, bad, good]))
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == f"channel 2: {alone.value}"
    assert getattr(stacked.value, "residual", None) == getattr(alone.value, "residual", None)


def test_random_channels_validate_many_seeds():
    for seed in range(1000):
        random_channel(seed)  # raises if the drawn tensor is not a valid channel


@pytest.mark.parametrize("eps", [-0.01, 0.51, 1.2])
def test_bsc_parameter_range(eps):
    with pytest.raises(InvalidParameter):
        bsc_pair(eps, 0.1)


def test_unknown_kind():
    with pytest.raises(InvalidParameter):
        canonical_channel("gaussian")


@pytest.mark.parametrize("kind, params, bad", [
    ("bsc_pair", {"eps1": 0.1}, "missing a required argument: 'eps2'"),
    ("random", {}, "missing a required argument: 'seed'"),
    ("bsc_pair", {"eps1": 0.1, "eps2": 0.1, "seed": 3}, "unexpected keyword argument 'seed'"),
    ("orthogonal_noiseless", {"eps1": 0.0}, "unexpected keyword argument 'eps1'"),
    ("random", {"seed": 1, "size": (2, 2, 2, 2)}, "unexpected keyword argument 'size'"),
], ids=["missing", "missing_seed", "extra", "extra_for_none", "misspelt"])
def test_a_channel_kind_takes_its_builders_parameters(kind, params, bad):
    # a missing parameter was a KeyError, and bsc_pair ignored a seed
    with pytest.raises(InvalidParameter, match=f"channel kind '{kind}': .*{bad}"):
        canonical_channel(kind, **params)


def test_alphabet_bounds():
    with pytest.raises(InvalidParameter, match="axes"):
        Channel(np.full((2, 2, 2), 0.25))
    with pytest.raises(InvalidParameter, match="'Y2': size must be >= 1"):
        Channel(np.ones((2, 0, 2, 2)))
    with pytest.raises(InvalidParameter, match="'Y1': size 9 exceeds cap"):  # the default cap
        Channel(np.full((9, 1, 1, 1), 1 / 9))
    with pytest.raises(InvalidParameter, match="'Y1': size 9 exceeds cap"):
        random_channel(0, sizes=(1, 1, 9, 1))
    with pytest.raises(InvalidParameter, match="'X2': size must be >= 1"):
        channel_from_json({"x1": 1, "x2": 0, "y1": 1, "y2": 1, "p": []})


def test_json_roundtrip(tmp_path):
    ch = random_channel(5, sizes=(2, 3, 2, 2))
    path = tmp_path / "ch.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert np.allclose(back.transition, ch.transition, atol=0)
    assert back.shape == ch.shape


def test_json_length_mismatch_rejected():
    obj = {"x1": 2, "x2": 2, "y1": 2, "y2": 2, "p": [0.25] * 15}
    with pytest.raises(InvalidParameter):
        channel_from_json(obj)


@pytest.mark.parametrize("p, bad", [
    (["0.5", "0.5"], "entry 0 must be a number, got '0.5'"),
    ([0.5, "0.5"], "entry 1 must be a number, got '0.5'"),
    ([True, False], "entry 0 must be a number, got True"),
    ([1, None], "entry 1 must be a number, got None"),
    ([[1.0], [0.0]], r"entry 0 must be a number, got \[1\.0\]"),
    ([10**400, 0], "int too large to convert to float"),
])
def test_json_probabilities_are_json_numbers(p, bad):
    # a string or a boolean used to pass as a probability
    with pytest.raises(InvalidParameter, match=bad):
        channel_from_json({"x1": 1, "x2": 1, "y1": 1, "y2": 2, "p": p})


def test_json_integer_probabilities_are_numbers():
    ch = channel_from_json({"x1": 1, "x2": 1, "y1": 1, "y2": 2, "p": [1, 0]})
    assert ch.transition.dtype == float and ch.transition.reshape(-1).tolist() == [1.0, 0.0]


def test_json_missing_field_rejected():
    obj = channel_to_json(bsc_pair(0.1, 0.1))
    del obj["y2"]
    with pytest.raises(InvalidParameter):
        channel_from_json(obj)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParameter, match="broken.json: not valid JSON"):
        load_channel(path)
    path.write_bytes(b'{"x1": "\xff"}')  # not UTF-8
    with pytest.raises(InvalidParameter, match="broken.json: not valid JSON"):
        load_channel(path)


def test_transition_is_immutable():
    ch = bsc_pair(0.1, 0.1)
    with pytest.raises(ValueError):
        ch.transition[0, 0, 0, 0] = 0.5


