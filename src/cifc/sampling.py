"""Factorized sampling of joint distributions.

The only module that knows how a factor block is drawn and laid out.  A
chain is compiled once per (variable set, factors, mode, paired copies,
input dependencies) into a `_ChainPlan`: a state's generator calls in
chain order, one call per run of consecutive draws of one kind (Exp(1)
variates for Dirichlet(1) rows and flat marginals, or integers below one
bound for structured inputs), and per factor a `_BlockPlan` that fixes
where its numbers lie in a state's row, its axes, transpose, paired-copy
indicator and input lookup tables.  K states of one chain are one
population, a list of one (K, *block shape) array per factor, and a
state is a row.  `_draw` alone draws populations: the calls state by
state, then each factor once per group of states that share a plan.
`_joints` multiplies a population into an unchecked batch of joints.
A move of one block of a row goes in two passes: `_draw_move` makes its
generator calls into a record and reads no block, and `_apply_move`
writes the record into a population row in place.  `climb`, the one
hill climb, alone writes a row after its draw.  It goes in speculative
rounds: each climb's next few moves, as if each were rejected, are
applied to the round's population and scored in one batch.  A draw reads
no block, so each move is drawn once: the moves after a kept one carry
over to the climb's next round, onto the kept state, and only a restart,
which hangs on what was kept, waits to open a round.  An apply reads
only the row it writes, so a row's bits do not depend on the round
around it.

A seed fixes the joint bit for bit, whatever was drawn before: its state
is drawn on `channel.seeded`'s generator, reset to the initial state of
default_rng(seed), and a Dirichlet(1) row is normalized Exp(1) variates,
numpy's own `Generator.dirichlet` arithmetic.  A joint
of more than MAX_MARGINAL_LABELS cells is refused before anything is
allocated: no entropy plan could take it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channel import Channel, check_integer, normalize_exponentials, seeded
from .errors import InvalidParameter
from .probability import (
    MAX_MARGINAL_LABELS,
    Factor,
    JointDistribution,
    RandomVariableSet,
    _unchecked,
    extend_through_channel,
)

if TYPE_CHECKING:
    from .regions import RegionSchema

SAMPLING_MODES = ("free", "det", "flat_det")

# (name, names) pairs, as in RegionSchema.deterministic and
# RegionSchema.input_deps, so that a chain plan is hashable
Pairs = tuple[tuple[str, tuple[str, ...]], ...]


class _BlockPlan(NamedTuple):
    """One factor's block p(targets | given), resolved up to its random numbers.

    `kind` is how the block is drawn:
      "paired"     a single target declared deterministic (a paired copy):
                   the indicator, built once and never drawn;
      "struct"     in "det"/"flat_det" modes, a channel-input factor: a
                   uniformly random deterministic map of the conditioning
                   cell, or of the schema's `input_deps` variables;
      "flat"       in "flat_det" mode, every other factor: a product of
                   per-variable Dirichlet(1) marginals, the same in every
                   conditioning cell;
      "dirichlet"  otherwise: each conditioning cell its own Dirichlet(1)
                   row over the joint target cells.
    """

    kind: str
    n_cells: int  # conditioning cells
    t_sizes: tuple[int, ...]  # target sizes, in axis order
    layout: tuple[int, ...]  # the drawn block's shape: given sizes, then target sizes
    perm: tuple[int, ...]  # its axes onto the joint's ascending axes
    shape: tuple[int, ...]  # the joint's shape with 1 on the axes it leaves out
    # its generator draws, from `at` on in a state's row: (the bound of an
    # integers call, or None for Exp(1) variates; how many numbers; for
    # "struct", a conditioning cell -> value index, or None when each cell
    # draws its own value)
    draws: tuple[tuple[int | None, int, np.ndarray | None], ...] = ()
    indicator: np.ndarray | None = None  # "paired", in layout
    at: int = 0

    def fill(self, rows: np.ndarray, out: np.ndarray, where=slice(None)) -> None:
        """Write the blocks of K states' rows onto the joint's ascending axes
        of out[where], out C-contiguous so that dropping its 1-axes is a view."""
        k, at, ng = len(rows), self.at, len(self.layout) - len(self.t_sizes)
        if self.kind == "paired":
            block = self.indicator[None]
        elif self.kind == "dirichlet":
            e = rows[:, at:at + self.draws[0][1]].reshape(k, self.n_cells, -1)
            block = normalize_exponentials(e).reshape(k, *self.layout)
        else:  # the outer product, left to right, of per-target marginals
            # ("flat", alike in every cell) or one-hot maps of the cells ("struct")
            cells = self.layout[:ng] if self.kind == "struct" else (1,) * ng
            block = np.ones((k, *cells))
            for size, count, index in self.draws:
                drawn = rows[:, at:at + count]
                if size is None:
                    part = normalize_exponentials(drawn)
                else:
                    part = (drawn if index is None else drawn[:, index])[..., None] == np.arange(size)
                block = block[..., None] * part.reshape(k, *cells, *(1,) * (block.ndim - 1 - ng), -1)
                at += count
        sizes = tuple(self.layout[p] for p in self.perm)
        out.reshape(len(out), *sizes)[where] = block.transpose(0, *(p + 1 for p in self.perm))


def _block_plan(
    rvs: RandomVariableSet,
    factor: Factor,
    mode: str,
    det: dict[str, tuple[str, ...]],
    struct_deps: dict[str, tuple[str, ...]],
) -> _BlockPlan:
    """Resolve one factor's draw under `mode` (see _BlockPlan)."""
    targets = factor.targets
    if len(targets) == 1 and targets[0] in det:
        kind = "paired"
        g_axes = [rvs.axis(p) for p in det[targets[0]]]
        t_axes = [rvs.axis(targets[0])]
    else:
        if mode != "free" and any(t in ("X1", "X2") for t in targets):
            kind = "struct"
        elif mode == "flat_det":
            kind = "flat"
        else:
            kind = "dirichlet"
        g_axes = sorted(rvs.axis(n) for n in factor.given)
        t_axes = sorted(rvs.axis(n) for n in targets)
    g_sizes = [rvs.sizes[a] for a in g_axes]
    t_sizes = tuple(rvs.sizes[a] for a in t_axes)
    n_cells = math.prod(g_sizes)
    draws = []
    if kind == "struct":
        for a in t_axes:
            deps = struct_deps.get(rvs.names[a])
            if deps is None:
                draws.append((rvs.sizes[a], n_cells, None))
                continue
            dep_sizes = [rvs.size(d) for d in deps]
            cells = np.unravel_index(np.arange(n_cells), g_sizes)
            dep_cells = [cells[g_axes.index(rvs.axis(d))] for d in deps]
            index = np.ravel_multi_index(dep_cells, dep_sizes)
            index.setflags(write=False)
            draws.append((rvs.sizes[a], math.prod(dep_sizes), index))
    elif kind == "flat":
        draws = [(None, s, None) for s in t_sizes]
    elif kind == "dirichlet":
        draws = [(None, n_cells * math.prod(t_sizes), None)]
    current = g_axes + t_axes
    layout = tuple(g_sizes) + t_sizes
    perm = tuple(current.index(a) for a in sorted(current))
    shape = tuple(s if a in current else 1 for a, s in enumerate(rvs.sizes))
    indicator = np.eye(n_cells).reshape(layout) if kind == "paired" else None
    return _BlockPlan(kind, n_cells, t_sizes, layout, perm, shape, tuple(draws), indicator)


class _ChainPlan(NamedTuple):
    """A factor chain's block plans and a state's generator calls.

    `calls` are (lo, hi, bound) in chain order: one call filling [lo, hi)
    of a state's row of `width` numbers, Exp(1) variates if bound is None,
    else integers below it.  `free` lists the factors `climb` may move:
    all but the paired copies.  `alone` is each block at offset 0, which a
    "resample" move fills from its own numbers.
    """

    rvs: RandomVariableSet
    blocks: tuple[_BlockPlan, ...]
    free: tuple[int, ...]
    calls: tuple[tuple[int, int, int | None], ...]
    width: int
    alone: tuple[_BlockPlan, ...]


@lru_cache(maxsize=256)
def _chain_plan(
    rvs: RandomVariableSet,
    factors: tuple[Factor, ...],
    mode: str = "free",
    det: Pairs = (),
    struct_deps: Pairs = (),
) -> _ChainPlan:
    """Compile a chain's draw once.  `det` maps paired copies to their
    parts and `struct_deps` names the variables a structured channel
    input may look at, both as (name, names) pairs.  Refused with
    InvalidParameter, before any allocation, when the joint has more
    than MAX_MARGINAL_LABELS cells."""
    cells = math.prod(rvs.sizes)
    if cells > MAX_MARGINAL_LABELS:
        raise InvalidParameter(
            f"the joint over {', '.join(rvs.names)} has {cells} cells, above the "
            f"cap of {MAX_MARGINAL_LABELS} cells"
        )
    det_map, deps_map = dict(det), dict(struct_deps)
    alone = tuple(_block_plan(rvs, f, mode, det_map, deps_map) for f in factors)
    blocks, calls, width = [], [], 0
    for block in alone:
        block = block._replace(at=width)
        for bound, count, _ in block.draws:  # consecutive draws of one kind merge
            lo = calls.pop()[0] if calls and calls[-1][2] == bound else width
            width += count
            calls.append((lo, width, bound))
        blocks.append(block)
    free = tuple(i for i, b in enumerate(blocks) if b.kind != "paired")
    return _ChainPlan(rvs, tuple(blocks), free, tuple(calls), width, alone)


def _schema_plan(schema: RegionSchema, size: int, mode: str) -> _ChainPlan:
    """The schema's chain plan at default cardinality `size`, from `_chain_plan`'s cache."""
    return _chain_plan(schema.rv_set(size), schema.factorization.factors, mode,
                       schema.deterministic, schema.input_deps)


def _draw(plans: Sequence[_ChainPlan], rngs: Iterable[np.random.Generator]) -> list[np.ndarray]:
    """The population of state k drawn through plans[k] (of one chain, in
    any modes) on the k-th of `rngs`, taken once state k - 1 is drawn: the
    calls state by state, so each generator is consumed as if its state were
    drawn alone, then each factor once per group of states that share a plan."""
    # a row of floats holds the integer draws exactly
    rows = np.empty((len(plans), max(plan.width for plan in plans)))
    for plan, rng, row in zip(plans, rngs, rows):
        for lo, hi, bound in plan.calls:
            if bound is None:
                rng.standard_exponential(out=row[lo:hi])
            else:
                row[lo:hi] = rng.integers(0, bound, size=hi - lo)
    population = [np.empty((len(plans), *b.shape)) for b in plans[0].blocks]
    for plan in {id(p): p for p in plans}.values():
        ks = [k for k, p in enumerate(plans) if p is plan]
        group = rows[ks]
        for out, b in zip(population, plan.blocks):
            b.fill(group, out, ks)
    return population


def _draw_move(plan: _ChainPlan, rng: np.random.Generator) -> tuple:
    """Draw one derivative-free move of a block of a "free"-mode `plan`'s
    row as a record (block index, kind, row, argument), making every
    generator call of the move and reading no block: `_apply_move` does
    the arithmetic.

    Row moves: "peak" sharpens to the mode, "flatten" mixes toward uniform
    by an α, "mix" mixes with a fresh Dirichlet row (α, Exp(1) variates),
    and "resample" redraws the whole block (its Exp(1) variates).
    Multi-variable blocks also get axis moves, "axis sharpen" and "axis
    flatten", that act on a single variable's marginal (the axis) while
    keeping the rest of the row intact.  Paired blocks are never moved.
    """
    idx = plan.free[rng.integers(0, len(plan.free))]
    b = plan.blocks[idx]
    n = math.prod(b.t_sizes)
    move = rng.random()
    if move < 0.06:
        return idx, "resample", None, rng.standard_exponential((1, b.n_cells * n))
    row = rng.integers(0, b.n_cells)
    if len(b.t_sizes) > 1 and move < 0.40:
        kind = "axis sharpen" if move < 0.23 else "axis flatten"
        return idx, kind, row, int(rng.integers(0, len(b.t_sizes)))
    if move < 0.55:
        return idx, "peak", row, None
    if move < 0.70:
        # rng.choice's draw, at a third of its cost
        return idx, "flatten", row, (1.0, 0.4)[rng.integers(0, 2)]
    alpha = (0.5, 0.15, 0.03)[rng.integers(0, 3)]
    return idx, "mix", row, (alpha, rng.standard_exponential(n))


def _apply_move(plan: _ChainPlan, move: tuple, population: list[np.ndarray], r: int) -> None:
    """Write a `_draw_move` record into row r of `population`, in place:
    only the moved conditional row of the moved block changes."""
    idx, kind, row, arg = move
    if kind == "resample":
        plan.alone[idx].fill(arg, population[idx], [r])
        return
    b = plan.blocks[idx]
    x = population[idx][r].reshape(b.n_cells, -1)[row]  # a view: C-contiguous rows
    if kind == "peak":
        peak = x.argmax()
        x[:] = 0.0
        x[peak] = 1.0
    elif kind == "flatten":
        # numpy's arithmetic a cell at a time, on a row of a few cells:
        # v * (1 - α) + α / n
        keep, add = 1 - arg, arg / len(x)
        x[:] = [v * keep + add for v in x.tolist()]
    elif kind == "mix":
        # v * (1 - α) + α * (u * (1 / s)), s the left-to-right sum of the
        # variates u that ends np.cumsum, as normalize_exponentials takes it
        # (not sum(), which compensates from Python 3.12 on)
        alpha, e = arg[0], arg[1].tolist()
        s = 0.0
        for u in e:
            s += u
        keep, inv = 1 - alpha, 1.0 / s
        x[:] = [v * keep + alpha * (u * inv) for v, u in zip(x.tolist(), e)]
    else:  # an axis move: the rest of the row is the sum over the axis
        x = x.reshape(b.t_sizes)
        rest = x.sum(axis=arg, keepdims=True)
        if kind == "axis flatten":
            x[...] = rest * (1.0 / b.t_sizes[arg])
        else:  # rest times a one-hot on the axis's marginal mode
            peak = x.sum(axis=tuple(i for i in range(x.ndim) if i != arg)).argmax()
            x[...] = 0.0
            x.swapaxes(0, arg)[peak] = rest.swapaxes(0, arg)[0]


def _joints(rvs: RandomVariableSet, blocks: Sequence[np.ndarray]) -> JointDistribution:
    """A population's joints as an unchecked batch: the stacked factors
    multiply it in chain order, so each joint is its own blocks' product."""
    joint = np.ones((len(blocks[0]), *rvs.sizes))
    for stacked in blocks:
        joint *= stacked
    return _unchecked(rvs, joint)


def sample_instances(
    schema: RegionSchema,
    channels: Channel | Sequence[Channel],
    seeds: Sequence[int],
    modes: Sequence[str],
    size: int = 2,
) -> JointDistribution:
    """Sample channel-extended joints satisfying the schema factorization:
    the joint at each seeds[k], in modes[k], through channels[k] or one
    channel for all, drawn seed by seed, multiplied and extended as one
    batch.  A joint alone is `sample_instances(schema, [channel], [seed],
    [mode])[0]`.

    Modes: "free" draws every conditional from Dirichlet(1); "det" makes
    the channel inputs deterministic codeword maps; "flat_det" additionally
    decouples the auxiliaries (independent marginals).  All modes are
    special cases of the schema's factorization.
    """
    if not len(seeds):
        raise InvalidParameter("a batch needs at least one seed")
    if len(modes) != len(seeds):
        raise InvalidParameter(f"{len(seeds)} seeds but {len(modes)} sampling modes")
    unknown = [mode for mode in modes if mode not in SAMPLING_MODES]
    if unknown:
        raise InvalidParameter(f"unknown sampling mode {unknown[0]!r}")
    seeds = [check_integer(s, "seed") for s in seeds]
    plans = {mode: _schema_plan(schema, size, mode) for mode in set(modes)}
    blocks = _draw([plans[mode] for mode in modes], seeded(seeds))
    return extend_through_channel(_joints(plans[modes[0]].rvs, blocks), channels)


def _mode_for(seed: int) -> str:
    return SAMPLING_MODES[seed % len(SAMPLING_MODES)]


# Rows scored per round of `climb`, over all running climbs.  A small
# `score` call costs mostly a fixed amount, and most moves are rejected (61
# of 975 at RTD 200 x 5 lambdas, 1,104 of 41,874 at 2000 x 21, 130 of 2,470
# for JIANG 500 x 5), so a climb's next moves are mostly scored on the
# state it is in now.  A kept move drops the scores of the rows after it,
# which are scored again on the kept state next round, and the deeper the
# round the more.  At 200 x 5 (seeds 1, 2, 3), 12 rows, 3 moves a climb,
# take 72, 78 and 73 calls and score 60, 131 and 91 rows twice; 24 rows, 5
# moves, take 48, 58 and 49 calls and score 160, 386 and 191 twice, yet
# run faster: a call saved costs more than the rows scored again.  At 2000
# x 21, 12 rows are one move a climb, 1,995 calls; 24 are two, 1,024 calls
# that score 769 rows twice.  A draw reads no block and an apply reads
# only its own row, so the depth moves no bit.
ROUND_ROWS = 24


def _n_starts(budget: int) -> int:
    """The draws a climb of `budget` evaluations starts from."""
    return max(1, min(6, budget // 40))


def check_climbs(schema: RegionSchema, climbs: int, budget: int) -> None:
    """Refuse with InvalidParameter, before anything is allocated, `climbs`
    climbs whose starts would draw more than MAX_MARGINAL_LABELS numbers."""
    starts, width = _n_starts(budget), _schema_plan(schema, 2, "free").width
    numbers = climbs * starts * width
    if numbers > MAX_MARGINAL_LABELS:
        raise InvalidParameter(
            f"{climbs} climbs of {starts} starts over {schema.id}'s chain of "
            f"{width} numbers draw {numbers} numbers, above the cap of {MAX_MARGINAL_LABELS}"
        )


def _improves(cand: tuple | None, ref: tuple | None) -> bool:
    """A feasible `cand` whose value, its last entry, beats `ref`'s by more than 1e-12."""
    return cand is not None and (ref is None or cand[-1] > ref[-1] + 1e-12)


def climb(schema: RegionSchema, rngs: Sequence[np.random.Generator], budget: int,
          score: Callable[[list[np.ndarray], np.ndarray], Iterable]) -> list[tuple | None]:
    """Each generator's best score in `budget` evaluations of a hill climb
    on the schema's chain at its `rv_set(2)` cardinalities, or None.

    `score(blocks, owners)` scores each row r of a population, a state of
    rngs[owners[r]]: None if infeasible, else a tuple whose last entry is
    the value to maximize.  A climb starts from the best of a few draws
    across the sampling modes; a step's move (`_draw_move`) is kept if it
    improves on the best since the last restart, else reverted.  The climbs
    go in speculative rounds, one `score` call each: each running climb
    scores its next ceil(ROUND_ROWS / climbs running) moves on its state as
    if each were rejected, within its budget, so `score` may get several
    rows of one generator, in the order drawn.  The round's population is
    built once, a copy of its climb's state per row, and each move is
    applied to its row in place (`_apply_move`).  Each climb keeps at most
    its first improving row; the moves after it are already drawn, and
    they open its next round, applied to the kept state.  A restart, due
    by the stall count that a keep resets, is drawn only as a round's
    first row and is its climb's only row: a round that reaches one in a
    later row ends there.  So each generator makes the calls of its climb
    alone, and a score that rates each row as it rates it alone gives each
    climb its result alone.
    """
    plan = _schema_plan(schema, 2, "free")  # every mode's plan moves the same blocks
    n_starts = _n_starts(budget)
    starts = _draw([_schema_plan(schema, 2, _mode_for(j)) for _ in rngs for j in range(n_starts)],
                   [rng for rng in rngs for _ in range(n_starts)])
    tried = list(score(starts, np.repeat(np.arange(len(rngs)), n_starts)))
    # per generator: its row, the best so far, the best since a restart, the
    # stall and the evaluations made
    rows = [max(range(at, at + n_starts), key=lambda r: tried[r][-1] if tried[r] else -math.inf)
            for at in range(0, len(tried), n_starts)]
    blocks, best = [b[rows] for b in starts], [tried[r] for r in rows]
    climb_best, stall, evals = list(best), [0] * len(rngs), [n_starts] * len(rngs)
    pending = [[] for _ in rngs]  # per climb, moves drawn but not yet scored on its state
    while running := [k for k in range(len(rngs)) if evals[k] < budget]:
        depth = -(-ROUND_ROWS // len(running))
        # per climb, its rows' moves: a _draw_move record or (None, a fresh state)
        rounds = []
        for k in running:
            rows, rng = [], rngs[k]
            for i, e in enumerate(range(evals[k], min(evals[k] + depth, budget))):
                # a stuck basin restarts from a fresh state, accepted whatever
                # its value; only a round's first row knows its stall
                if stall[k] + i > 300 and budget - e > 400:
                    if i == 0:
                        rows.append((None, _draw([_schema_plan(schema, 2, _mode_for(e))], [rng])))
                    break
                rows.append(pending[k][i] if i < len(pending[k]) else _draw_move(plan, rng))
            rounds.append(rows)
        owners = np.repeat(running, [len(rows) for rows in rounds])
        population = [b[owners] for b in blocks]
        for r, move in enumerate(move for rows in rounds for move in rows):
            if move[0] is None:
                for b, row in zip(population, move[1]):
                    b[r] = row[0]
            else:
                _apply_move(plan, move, population, r)
        tried, at = list(score(population, owners)), 0
        for k, rows in zip(running, rounds):
            for j, move in enumerate(rows):
                cand = tried[at + j]
                if move[0] is None or _improves(cand, climb_best[k]):
                    for b, row in zip(blocks, population):
                        b[k] = row[at + j]
                    climb_best[k], stall[k] = cand, 0
                    if _improves(cand, best[k]):
                        best[k] = cand
                    break
                stall[k] += 1
            pending[k] = rows[j + 1:]  # the next round applies them to the kept state
            evals[k] += j + 1
            at += len(rows)
    return best
