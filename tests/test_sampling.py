import copy
import math
import tracemalloc

import numpy as np
import pytest

import cifc.sampling
from cifc.channel import random_channel
from cifc.errors import InvalidParameter
from cifc.probability import MAX_MARGINAL_LABELS, RandomVariableSet
from cifc.regions import SCHEMA_IDS, builtin_schema, parse_chain
from cifc.sampling import (
    SAMPLING_MODES,
    _apply_move,
    _chain_plan,
    _draw,
    _draw_move,
    _joints,
    _schema_plan,
    climb,
    sample_instances,
)

from helpers import reference_factored_joint, reference_propose, sample_factored


@pytest.mark.parametrize("sid", SCHEMA_IDS)
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("mode", SAMPLING_MODES)
def test_vectorized_blocks_match_cell_by_cell_reference(sid, size, mode):
    # bit for bit, and every generator ends in the same state: a population
    # of 7 states in modes cycling from `mode`, consecutive states sharing a
    # generator as a lambda's frontier starts do, against each state's
    # cell-by-cell joint drawn alone in the same order on its own generator
    schema = builtin_schema(sid)
    rvs = schema.rv_set(size)
    first = SAMPLING_MODES.index(mode)
    modes = [SAMPLING_MODES[(first + k) % 3] for k in range(7)]
    owners = [0, 0, 0, 1, 2, 2, 2]
    for seed in (0, 3):
        rngs = [np.random.default_rng(seed + i) for i in range(3)]
        ref_rngs = [np.random.default_rng(seed + i) for i in range(3)]
        plans = [_schema_plan(schema, size, m) for m in modes]
        joints = _joints(rvs, _draw(plans, [rngs[i] for i in owners])).prob
        for k, m in enumerate(modes):
            expected = reference_factored_joint(
                rvs, schema.factorization.factors, ref_rngs[owners[k]], m,
                schema.deterministic, schema.input_deps,
            )
            assert np.array_equal(joints[k], expected)
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


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
    factors = parse_chain("p(A) p(B|A) p(P|B,A)").factors
    det = (("P", ("B", "A")),)
    plan = _chain_plan(rvs, factors, "free", det)
    joint = _joints(rvs, _draw([plan], [np.random.default_rng(2)]))[0].prob
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
    # a schema's chain cannot get there: its default size is capped first
    rtd = builtin_schema("RTD")
    size = round(MAX_MARGINAL_LABELS ** (1 / len(rtd.variables))) + 1  # 17 for 6 variables
    assert size ** len(rtd.variables) > MAX_MARGINAL_LABELS
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter) as err:
            _chain_plan(rvs, parse_chain("p(A) p(B|A)").factors)
        assert f"{cells} cells" in str(err.value)
        assert f"cap of {MAX_MARGINAL_LABELS}" in str(err.value)
        with pytest.raises(InvalidParameter, match=f"size {size} is above the alphabet cap"):
            _draw([_schema_plan(rtd, size, "det")], [np.random.default_rng(0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("sid", SCHEMA_IDS)
def test_a_mixed_mode_population_is_its_one_state_draws(sid):
    # state by state, each state's blocks in chain order: with a generator
    # shared by consecutive states, as by a lambda's frontier starts, every
    # row and every generator end as if the states were drawn one at a time
    schema = builtin_schema(sid)
    plans = [_schema_plan(schema, 2, SAMPLING_MODES[k % 3]) for k in range(7)]
    owners = [0, 0, 0, 1, 2, 2, 2]
    rngs = [np.random.default_rng(40 + i) for i in range(3)]
    blocks = _draw(plans, [rngs[i] for i in owners])
    assert [b.shape for b in blocks] == [(7, *b.shape) for b in plans[0].blocks]
    alone = [np.random.default_rng(40 + i) for i in range(3)]
    for k, plan in enumerate(plans):
        one = _draw([plan], [alone[owners[k]]])
        assert all(b[k].tobytes() == o[0].tobytes() for b, o in zip(blocks, one))
        joint = _joints(plan.rvs, one)[0]
        assert _joints(plan.rvs, blocks)[k].prob.tobytes() == joint.prob.tobytes()
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in alone]


def _move_kind(plan, rng) -> str:
    """The kind of move `_draw_move` is about to draw with `rng`, read off a copy."""
    peek = copy.deepcopy(rng)
    idx = plan.free[peek.integers(0, len(plan.free))]
    move = peek.random()
    multi = len(plan.blocks[idx].t_sizes) > 1
    for kind, below in (("resample", 0.06), ("axis sharpen", 0.23 if multi else 0.0),
                        ("axis flatten", 0.40 if multi else 0.0), ("peak", 0.55),
                        ("flatten", 0.70)):
        if move < below:
            return kind
    return "mix"


ROW_MOVES = {"resample", "peak", "flatten", "mix"}


class _Forced:
    """A generator that draws the move it is told to: its first integer is
    `i` (the block plan.free[i]), its uniform `u` (the kind), and every
    other number comes from default_rng(seed)."""

    def __init__(self, i, u, seed):
        self.rng, self.first, self.u = np.random.default_rng(seed), [i], u

    def integers(self, *args):
        return self.first.pop() if self.first else self.rng.integers(*args)

    def random(self):
        return self.u

    def standard_exponential(self, *args):
        return self.rng.standard_exponential(*args)


# a uniform in each kind's range of _draw_move's thresholds
FORCED = {"resample": 0.03, "axis sharpen": 0.1, "axis flatten": 0.3, "peak": 0.5,
          "flatten": 0.6, "mix": 0.9}


@pytest.mark.parametrize("kind", FORCED)
def test_each_move_kind_applied_is_the_reference_arithmetic(kind):
    # every free block of every catalog schema (a multi-target one for an
    # axis move), on the states the three modes draw, so rows meet zeros
    # and ties: `_apply_move` writes the block that `reference_propose`
    # computes with numpy, byte for byte, and moves nothing else
    moved = 0
    for sid in SCHEMA_IDS:
        schema = builtin_schema(sid)
        plan = _schema_plan(schema, 2, "free")
        blocks = _draw([_schema_plan(schema, 2, mode) for mode in SAMPLING_MODES],
                       [np.random.default_rng(s) for s in range(3)])
        for i, idx in enumerate(plan.free):
            if kind.startswith("axis") and len(plan.blocks[idx].t_sizes) == 1:
                continue
            for seed in range(4):
                k = seed % 3
                rng, ref_rng = _Forced(i, FORCED[kind], seed), _Forced(i, FORCED[kind], seed)
                move = _draw_move(plan, rng)
                ref_idx, block = reference_propose(plan, blocks, k, ref_rng)
                assert move[:2] == (idx, kind) and ref_idx == idx
                assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
                expected = [b.copy() for b in blocks]
                expected[idx][k] = block
                _apply_move(plan, move, blocks, k)
                assert all(b.tobytes() == e.tobytes() for b, e in zip(blocks, expected)), (sid, idx)
                moved += 1
    assert moved >= 4 * 8  # the catalog has 8 free multi-target blocks


@pytest.mark.parametrize("sid, kinds_hit", [
    ("RTD", ROW_MOVES | {"axis sharpen", "axis flatten"}),
    ("MARIC", ROW_MOVES),  # one target per free block, and a paired X2
])
def test_a_move_drawn_then_applied_is_the_reference_move(sid, kinds_hit):
    # the draw pass makes the one-pass reference's generator calls and no
    # other; the apply pass writes the reference's block, bit for bit, into
    # its row of the population and leaves every other row and block alone
    # (another row is another lambda's state).  The moves pile up on the
    # rows, so later ones meet the zeros that earlier ones left
    schema = builtin_schema(sid)
    plan = _schema_plan(schema, 2, "free")
    blocks = _draw([_schema_plan(schema, 2, mode) for mode in SAMPLING_MODES],
                   [np.random.default_rng(s) for s in range(3)])
    rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
    kinds = set()
    for step in range(200):
        k = step % 3
        kind = _move_kind(plan, rng)
        move = _draw_move(plan, rng)
        idx, block = reference_propose(plan, blocks, k, ref_rng)
        assert move[:2] == (idx, kind)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        expected = [b.copy() for b in blocks]
        expected[idx][k] = block
        _apply_move(plan, move, blocks, k)
        assert all(b.tobytes() == e.tobytes() for b, e in zip(blocks, expected))
        kinds.add(kind)
    assert kinds == kinds_hit


@pytest.mark.parametrize("seeds, modes", [
    ([0, 1, 2], ["free"]),
    ([0], ["free", "det", "flat_det"]),
])
def test_sample_instances_refuses_seeds_and_modes_of_different_lengths(monkeypatch, seeds, modes):
    # one channel for all used to stop silently at the shorter list
    def draw(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(cifc.sampling, "_draw", draw)
    with pytest.raises(InvalidParameter,
                       match=f"{len(seeds)} seeds but {len(modes)} sampling modes"):
        sample_instances(builtin_schema("RTD"), random_channel(0), seeds, modes)


# -- climb, scored by a fake objective ------------------------------------------------


def _state_bytes(blocks, r):
    return b"".join(b[r].tobytes() for b in blocks)


@pytest.mark.parametrize("budget", [1, 40, 90, 300])
def test_climb_scores_the_starts_then_a_row_per_generator_each_step(monkeypatch, budget):
    # every score is a new best, so each climb keeps the first row of each
    # round, one evaluation, and ends on the last round's; a round holds each
    # generator's moves as rows, grouped and in the order they were drawn,
    # every move drawn once: the rows after a kept one come back first in
    # the climb's next round.  Each row is the state it is scored on with
    # one block replaced by what the one-pass reference move, on the
    # generator as the move was drawn, makes of it; that state is the
    # climb's first row in the last call
    plan = _schema_plan(builtin_schema("RTD"), 2, "free")
    rngs = [np.random.default_rng(s) for s in range(3)]
    calls, drawn, state = [], [[], [], []], [np.empty((3, *b.shape)) for b in plan.blocks]
    draw_move = cifc.sampling._draw_move

    def spy(plan, rng):
        k = next(k for k, g in enumerate(rngs) if g is rng)
        drawn[k].append(copy.deepcopy(rng))
        return draw_move(plan, rng)

    def score(blocks, owners):
        assert [b.shape for b in blocks] == [(len(owners), *b.shape) for b in plan.blocks]
        rows = owners.tolist()
        if calls:
            # the drawn moves not yet kept, each a row
            assert [k for k in range(3) for _ in drawn[k]] == rows
            for r, k in enumerate(rows):
                rng = copy.deepcopy(drawn[k][rows[:r].count(k)])
                idx, block = reference_propose(plan, state, k, rng)
                assert all(b[r].tobytes() == (block if i == idx else s[k]).tobytes()
                           for i, (b, s) in enumerate(zip(blocks, state)))
            for k in set(rows):
                drawn[k].pop(0)
        calls.append(rows)
        for k in set(rows):
            for s, b in zip(state, blocks):
                s[k] = b[rows.index(k)]
        return [(float(len(calls)),)] * len(owners)

    monkeypatch.setattr(cifc.sampling, "_draw_move", spy)
    best = climb(builtin_schema("RTD"), rngs, budget, score)
    n_starts = max(1, min(6, budget // 40))
    depth = min(-(-cifc.sampling.ROUND_ROWS // 3), budget - n_starts)
    assert calls[0] == [k for k in range(3) for _ in range(n_starts)]
    for i, c in enumerate(calls[1:]):
        assert c == sorted(c) and [c.count(k) for k in range(3)] == [min(depth, budget - n_starts - i)] * 3
    # the starts, then one kept row per generator a round, and no move left unscored
    assert [n_starts + sum(k in c for c in calls[1:]) for k in range(3)] == [budget] * 3
    assert drawn == [[], [], []]
    assert best == [(float(len(calls)),)] * 3


def test_climb_restarts_a_stalled_climb_at_the_steps_the_rule_names(monkeypatch):
    # a score that never beats the starts stalls every climb: a climb
    # restarts once stalled for more than 300 steps while more than 400
    # evaluations are left, at evaluations 307, 609 and 911 of 1613 (from
    # 6 starts); at 1213 exactly 400 are left, one too few.  No row is
    # kept but a restart, which ends its round, so every row scored is an
    # evaluation, and a generator's evaluations are its moves and restarts
    rngs = [np.random.default_rng(s) for s in range(2)]
    evals, restarts, scored = [6, 6], [[], []], [0, 0]
    draw, draw_move = cifc.sampling._draw, cifc.sampling._draw_move

    def draw_spy(plans, gens):
        if len(plans) == 1:
            k = next(k for k, rng in enumerate(rngs) if rng is gens[0])
            restarts[k].append(evals[k])
            evals[k] += 1
        return draw(plans, gens)

    def draw_move_spy(plan, rng):
        evals[next(k for k, g in enumerate(rngs) if g is rng)] += 1
        return draw_move(plan, rng)

    def score(blocks, owners):
        for k in owners.tolist():
            scored[k] += 1
        return [(0.0,)] * len(owners)

    monkeypatch.setattr(cifc.sampling, "_draw", draw_spy)
    monkeypatch.setattr(cifc.sampling, "_draw_move", draw_move_spy)
    best = climb(builtin_schema("RTD"), rngs, 1613, score)
    assert restarts == [[307, 609, 911]] * 2
    assert evals == scored == [1613] * 2
    assert best == [(0.0,)] * 2


@pytest.mark.parametrize("keeps", ["every row", "no row"])
def test_a_round_leaves_each_climb_as_stepping_one_row_at_a_time(monkeypatch, keeps):
    # a score that beats every best makes each climb keep its round's first
    # row and carry the moves after it to its next round; one that beats
    # none keeps only the restarts, each a round's first row; either way
    # each generator evaluates the same states and ends in the same state
    # as at a round of one row
    def run(round_rows):
        monkeypatch.setattr(cifc.sampling, "ROUND_ROWS", round_rows)
        rngs = [np.random.default_rng(s) for s in range(3)]
        evaluated, calls = [[], [], []], []

        def score(blocks, owners):
            calls.append(None)
            first = {r for r, k in enumerate(owners) if r == 0 or owners[r - 1] != k}
            for r, k in enumerate(owners.tolist()):
                if keeps == "no row" or r in first or len(calls) == 1:
                    evaluated[k].append(_state_bytes(blocks, r))
            value = float(len(calls)) if keeps == "every row" else 0.0
            return [(_state_bytes(blocks, r), value) for r in range(len(owners))]

        best = climb(builtin_schema("RTD_CC"), rngs, 1000, score)
        return evaluated, best, [rng.bit_generator.state for rng in rngs], len(calls)

    evaluated, best, states, calls = run(cifc.sampling.ROUND_ROWS)
    assert (evaluated, best, states) == run(1)[:3]
    assert all(len(e) == 1000 for e in evaluated)
    assert calls < 1000 - 6 if keeps == "no row" else calls == 1000 - 6 + 1


def test_a_move_kept_just_before_a_restart_is_due_puts_the_restart_off(monkeypatch):
    # climb k of 1400 evaluations from 6 starts keeps one move, at
    # evaluation 306 - k: alone it would restart at 307, 609 and 911, but
    # the keep resets its stall, so it restarts at 608 - k and 910 - k.  A
    # round draws its rows as if each were rejected, so a restart looks due
    # in the rows after the kept one; it waits for a round's first row, and
    # the climbs end as they do one row at a time
    values, draw, round_rows = {}, cifc.sampling._draw, cifc.sampling.ROUND_ROWS

    def run(round_rows):
        monkeypatch.setattr(cifc.sampling, "ROUND_ROWS", round_rows)
        rngs = [np.random.default_rng(s) for s in range(3)]
        restarts, calls = [[], [], []], []

        def draw_spy(plans, gens):
            if len(plans) == 1:  # drawn before its round's call, evaluation len(calls) + 5
                k = next(k for k, g in enumerate(rngs) if g is gens[0])
                restarts[k].append(len(calls) + 5)
            return draw(plans, gens)

        def score(blocks, owners):
            calls.append(None)
            if round_rows == 1:  # call c > 1 is every climb's evaluation c + 4
                for r, k in enumerate(owners.tolist()):
                    values[_state_bytes(blocks, r)] = float(len(calls) + 4 == 306 - k)
            return [(values.get(_state_bytes(blocks, r), 0.0),) for r in range(len(owners))]

        monkeypatch.setattr(cifc.sampling, "_draw", draw_spy)
        best = climb(builtin_schema("RTD"), rngs, 1400, score)
        return best, [rng.bit_generator.state for rng in rngs], restarts

    best, states, restarts = run(1)
    assert restarts == [[608 - k, 910 - k] for k in range(3)]
    assert best == [(1.0,)] * 3
    best_rounds, states_rounds, restarts_rounds = run(round_rows)
    assert (best_rounds, states_rounds) == (best, states)
    assert [len(r) for r in restarts_rounds] == [2] * 3


def test_climb_with_no_feasible_row_has_no_best():
    best = climb(builtin_schema("MARIC"), [np.random.default_rng(s) for s in range(3)], 60,
                 lambda blocks, owners: [None] * len(owners))
    assert best == [None] * 3
