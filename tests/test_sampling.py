import numpy as np
import pytest

from cifc.probability import RandomVariableSet, chain
from cifc.regions import SCHEMA_IDS, builtin_schema
from cifc.sampling import SAMPLING_MODES, STRUCT_INPUT_DEPS, _FactorState, sample_factored

from helpers import reference_factored_joint


@pytest.mark.parametrize("sid", SCHEMA_IDS)
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_vectorized_blocks_match_cell_by_cell_reference(sid, size, mode):
    # bit for bit, and the generator ends in the same state
    schema = builtin_schema(sid)
    rvs = schema.rv_set(size)
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        joint = _FactorState.of_schema(schema, size, rng, mode).joint().prob
        expected = reference_factored_joint(
            rvs, schema.factorization.factors, ref_rng, mode,
            schema.deterministic, STRUCT_INPUT_DEPS.get(sid, {}),
        )
        assert np.array_equal(joint, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_sample_factored_matches_cell_by_cell_reference(sid):
    schema = builtin_schema(sid)
    rvs = schema.rv_set(3)
    for seed in range(3):
        expected = reference_factored_joint(
            rvs, schema.factorization.factors, np.random.default_rng(seed)
        )
        assert np.array_equal(sample_factored(rvs, schema.factorization, seed).prob, expected)


def test_paired_copy_indexes_parts_in_declared_order():
    # P = (B, A), parts listed against the axis order
    rvs = RandomVariableSet(("A", "B", "P"), (2, 3, 6))
    factors = chain(("A",), ("B", "A"), ("P", "B A")).factors
    det = {"P": ("B", "A")}
    joint = _FactorState(rvs, factors, np.random.default_rng(2), "free", det).joint().prob
    expected = reference_factored_joint(rvs, factors, np.random.default_rng(2), "free", det)
    assert np.array_equal(joint, expected)
    # A = 1, B = 0: P = 0 * 2 + 1, not 1 * 3 + 0
    assert joint[1, 0, 1] > 0 and joint[1, 0, 3] == 0
