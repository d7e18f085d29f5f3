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
`_joints` multiplies a population into an unchecked batch of joints;
`_propose` moves one block of a row; `climb`, the one hill climb, alone
writes a row after its draw.  It goes in speculative rounds: each climb's
next few moves, drawn as if each were rejected, are scored in one batch.

A seed fixes the joint bit for bit: a Dirichlet(1) row is normalized
Exp(1) variates, numpy's own `Generator.dirichlet` arithmetic.  A joint
of more than MAX_MARGINAL_LABELS cells is refused before anything is
allocated: no entropy plan could take it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channel import Channel, check_integer, normalize_exponentials
from .errors import InvalidParameter, SpecCoverageError
from .probability import (
    MAX_MARGINAL_LABELS,
    Factor,
    FactorizationSpec,
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
    all but the paired copies.
    """

    rvs: RandomVariableSet
    blocks: tuple[_BlockPlan, ...]
    free: tuple[int, ...]
    calls: tuple[tuple[int, int, int | None], ...]
    width: int


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
    blocks, calls, width = [], [], 0
    for f in factors:
        block = _block_plan(rvs, f, mode, det_map, deps_map)._replace(at=width)
        for bound, count, _ in block.draws:  # consecutive draws of one kind merge
            lo = calls.pop()[0] if calls and calls[-1][2] == bound else width
            width += count
            calls.append((lo, width, bound))
        blocks.append(block)
    free = tuple(i for i, b in enumerate(blocks) if b.kind != "paired")
    return _ChainPlan(rvs, tuple(blocks), free, tuple(calls), width)


@lru_cache(maxsize=64)
def _schema_plan(schema: RegionSchema, size: int, mode: str) -> _ChainPlan:
    """The schema's chain at default cardinality `size`, looked up by schema."""
    return _chain_plan(schema.rv_set(size), schema.factorization.factors, mode,
                       schema.deterministic, schema.input_deps)


def _draw(plans: Sequence[_ChainPlan], rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    """The population of state k drawn through plans[k] (of one chain, in
    any modes) on rngs[k]: the calls state by state, so each generator is
    consumed as if its state were drawn alone, then each factor once per
    group of states that share a plan."""
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


def _propose(plan: _ChainPlan, blocks: Sequence[np.ndarray], k: int,
             rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Return (index, new_block) for one derivative-free move of row k of
    the population `blocks` of the "free"-mode `plan`, which is left as it is.

    Row moves: sharpen to the mode, flatten toward uniform, mix with a
    fresh Dirichlet draw, or resample the block.  Multi-variable blocks
    additionally get axis moves that sharpen or uniformize a single
    variable's marginal while keeping the rest of the row intact.
    Deterministic (paired) blocks are never proposed.
    """
    idx = plan.free[rng.integers(0, len(plan.free))]
    b = plan.blocks[idx]
    t_sizes = b.t_sizes
    n = math.prod(t_sizes)
    move = rng.random()
    if move < 0.06:
        new = np.empty((1, *b.shape))
        b._replace(at=0).fill(rng.standard_exponential((1, b.n_cells * n)), new)
        return idx, new[0]
    new = blocks[idx][k].copy()
    flat = new.reshape(-1, n)
    row = rng.integers(0, flat.shape[0])
    if len(t_sizes) > 1 and move < 0.40:
        row_nd = flat[row].reshape(t_sizes)
        j = int(rng.integers(0, len(t_sizes)))
        rest = row_nd.sum(axis=j, keepdims=True)
        others = tuple(i for i in range(len(t_sizes)) if i != j)
        if move < 0.23:
            dist = np.zeros(t_sizes[j])
            dist[np.argmax(row_nd.sum(axis=others))] = 1.0
        else:
            dist = np.full(t_sizes[j], 1.0 / t_sizes[j])
        flat[row] = (rest * np.expand_dims(dist, others)).reshape(-1)
    elif move < 0.55:
        peak = np.zeros(n)
        peak[np.argmax(flat[row])] = 1.0
        flat[row] = peak
    elif move < 0.70:
        alpha = (1.0, 0.4)[rng.integers(0, 2)]  # rng.choice's draw, at a third of its cost
        flat[row] = (1 - alpha) * flat[row] + alpha / n
    else:
        alpha = (0.5, 0.15, 0.03)[rng.integers(0, 3)]
        fresh_row = normalize_exponentials(rng.standard_exponential(n))
        flat[row] = (1 - alpha) * flat[row] + alpha * fresh_row
    return idx, new


def _joints(rvs: RandomVariableSet, blocks: Sequence[np.ndarray]) -> JointDistribution:
    """A population's joints as an unchecked batch: the stacked factors
    multiply it in chain order, so each joint is its own blocks' product."""
    joint = np.ones((len(blocks[0]), *rvs.sizes))
    for stacked in blocks:
        joint *= stacked
    return _unchecked(rvs, joint)


def sample_factored(
    rvs: RandomVariableSet, spec: FactorizationSpec, seed: int
) -> JointDistribution:
    """Sample a joint whose conditionals follow `spec`, deterministically in seed.

    Every conditional row is an independent symmetric Dirichlet(1) draw.
    """
    if set(spec.targets) != set(rvs.names):
        missing = set(rvs.names) - set(spec.targets)
        extra = set(spec.targets) - set(rvs.names)
        raise SpecCoverageError(
            f"factorization does not cover variable set (missing {sorted(missing)}, "
            f"extra {sorted(extra)})"
        )
    blocks = _draw([_chain_plan(rvs, spec.factors)],
                   [np.random.default_rng(check_integer(seed, "seed"))])
    return JointDistribution(rvs, _joints(rvs, blocks)[0].prob)


def sample_instances(
    schema: RegionSchema,
    channels: Channel | Sequence[Channel],
    seeds: Sequence[int],
    modes: Sequence[str],
    size: int = 2,
) -> JointDistribution:
    """sample_instance at each seeds[k], in modes[k], through channels[k] or
    one channel for all: drawn seed by seed, multiplied and extended as one batch."""
    if not len(seeds):
        raise InvalidParameter("a batch needs at least one seed")
    if len(modes) != len(seeds):
        raise InvalidParameter(f"{len(seeds)} seeds but {len(modes)} sampling modes")
    unknown = [mode for mode in modes if mode not in SAMPLING_MODES]
    if unknown:
        raise InvalidParameter(f"unknown sampling mode {unknown[0]!r}")
    seeds = [check_integer(s, "seed") for s in seeds]
    plans = {mode: _schema_plan(schema, size, mode) for mode in set(modes)}
    blocks = _draw([plans[mode] for mode in modes], [np.random.default_rng(s) for s in seeds])
    return extend_through_channel(_joints(plans[modes[0]].rvs, blocks), channels)


def sample_instance(
    schema: RegionSchema,
    channel: Channel,
    seed: int,
    size: int = 2,
    mode: str = "free",
) -> JointDistribution:
    """Sample a channel-extended joint satisfying the schema factorization.

    Modes: "free" draws every conditional from Dirichlet(1); "det" makes
    the channel inputs deterministic codeword maps; "flat_det" additionally
    decouples the auxiliaries (independent marginals).  All modes are
    special cases of the schema's factorization.
    """
    return sample_instances(schema, [channel], [seed], [mode], size)[0]


def _mode_for(seed: int) -> str:
    return SAMPLING_MODES[seed % len(SAMPLING_MODES)]


# Rows scored per round of `climb`, over all running climbs.  A small
# `score` call costs mostly a fixed amount, and most moves are rejected (61
# of 975 at RTD 200 x 5 lambdas, 1,104 of 41,874 at 2000 x 21, 130 of 2,470
# for JIANG 500 x 5), so a climb's next moves are mostly drawn from the
# state it is in now.  A kept move drops the rows after it, and the deeper
# the round the more: at 200 x 5 (seeds 1, 2), 12 rows, 3 moves a climb,
# take 72 and 78 calls and drop 60 and 131 rows; 24 take 48 and 58 calls
# but drop 160 and 386, and were slower.  At 21 lambdas a round is one step.
ROUND_ROWS = 12


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
    across the sampling modes; a step's move (`_propose`) is kept if it
    improves on the best since the last restart, else reverted.  The climbs
    go in speculative rounds, one `score` call each: each running climb
    draws its next ceil(ROUND_ROWS / climbs running) moves from its state as
    if each were rejected, within its budget and up to a restart, so `score`
    may get several rows of one generator, in the order drawn.  Each climb
    keeps at most its first improving row, drops the rest and sets its
    generator back to just after that move, so a score that rates each row
    as it rates it alone gives each climb its result alone.
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
    while running := [k for k in range(len(rngs)) if evals[k] < budget]:
        depth = -(-ROUND_ROWS // len(running))
        # per row, its owner and move, (block index, block) or (None, a fresh
        # state); per climb, its generator's state after each row but the last
        owners, moves, marks = [], [], []
        for k in running:
            rng, mark, first = rngs[k], [], evals[k]
            for e in range(first, min(first + depth, budget)):
                if e > first:
                    mark.append(rng.bit_generator.state)
                # a stuck basin restarts from a fresh state, accepted whatever its value
                if stall[k] + e - first > 300 and budget - e > 400:
                    moves.append((None, _draw([_schema_plan(schema, 2, _mode_for(e))], [rng])))
                    break
                moves.append(_propose(plan, blocks, k, rng))
            marks.append(mark)
            owners += [k] * (len(mark) + 1)
        owners = np.array(owners)
        population = [b[owners] for b in blocks]
        for r, (idx, new) in enumerate(moves):
            if idx is None:
                for b, row in zip(population, new):
                    b[r] = row[0]
            else:
                population[idx][r] = new
        tried, at = list(score(population, owners)), 0
        for k, mark in zip(running, marks):
            for j in range(len(mark) + 1):
                cand = tried[at + j]
                if moves[at + j][0] is None or _improves(cand, climb_best[k]):
                    for b, row in zip(blocks, population):
                        b[k] = row[at + j]
                    climb_best[k], stall[k] = cand, 0
                    if _improves(cand, best[k]):
                        best[k] = cand
                    if j < len(mark):
                        rngs[k].bit_generator.state = mark[j]
                    break
                stall[k] += 1
            evals[k] += j + 1
            at += len(mark) + 1
    return best
