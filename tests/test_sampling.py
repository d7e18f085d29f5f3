import math
import tracemalloc

import numpy as np
import pytest

from cifc.errors import InvalidParameter
from cifc.probability import MAX_MARGINAL_LABELS, RandomVariableSet, chain
from cifc.regions import SCHEMA_IDS, builtin_schema
from cifc.sampling import (
    SAMPLING_MODES,
    _chain_plan,
    _FactorState,
    _joints,
    sample_factored,
)

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
        joint = _joints([_FactorState.of_schema(schema, size, rng, mode)])[0].prob
        expected = reference_factored_joint(
            rvs, schema.factorization.factors, ref_rng, mode,
            schema.deterministic, schema.input_deps,
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
    det = (("P", ("B", "A")),)
    plan = _chain_plan(rvs, factors, "free", det)
    joint = _joints([_FactorState(plan, np.random.default_rng(2))])[0].prob
    expected = reference_factored_joint(rvs, factors, np.random.default_rng(2), "free", det)
    assert np.array_equal(joint, expected)
    # A = 1, B = 0: P = 0 * 2 + 1, not 1 * 3 + 0
    assert joint[1, 0, 1] > 0 and joint[1, 0, 3] == 0


def test_sampling_plan_refuses_a_joint_above_the_cell_cap():
    # 2^12 + 1 by 2^12 cells is 2^12 more than the cap; refused before any
    # block is allocated (a drawn block of that joint alone is 128 MiB)
    rvs = RandomVariableSet(("A", "B"), (2**12 + 1, 2**12))
    cells = math.prod(rvs.sizes)
    assert cells == MAX_MARGINAL_LABELS + 2**12
    rtd = builtin_schema("RTD")
    size = round(MAX_MARGINAL_LABELS ** (1 / len(rtd.variables))) + 1  # 17 for 6 variables
    rtd_cells = math.prod(rtd.rv_set(size).sizes)
    assert rtd_cells > MAX_MARGINAL_LABELS
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter) as err:
            sample_factored(rvs, chain(("A",), ("B", "A")), 0)
        assert f"{cells} cells" in str(err.value)
        assert f"cap of {MAX_MARGINAL_LABELS}" in str(err.value)
        with pytest.raises(InvalidParameter) as err:
            _FactorState.of_schema(rtd, size, np.random.default_rng(0), "det")
        assert f"{rtd_cells} cells" in str(err.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
