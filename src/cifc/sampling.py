"""Factorized sampling of joint distributions.

The only module that knows how a factor block is drawn and laid out.  A
chain is compiled once per (variable set, factors, mode, paired copies,
input dependencies) into a `_ChainPlan`: for each factor a `_BlockPlan`
that has resolved the block's axes, sizes, transpose and broadcast shape,
the paired-copy indicator and the lookup tables of the structured
channel inputs.  A draw then makes only the generator calls and one
reshape and transpose onto the joint's ascending axes.  K states of one
chain are one population, a list of one (K, *block shape) array per
factor, and a state is a row.  `_draw` alone draws populations, for
`sample_factored`, `sample_instances` and the frontier search; `_joints`
multiplies one into an unchecked batch of joints (the channel extension
checks it once); `_propose` returns a moved block for a row.

Every draw is a pure function of the generator passed in, so a seed fixes
the joint bit for bit.  A joint of more than MAX_MARGINAL_LABELS cells is
refused before anything is allocated: no entropy plan could take it.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .channel import Channel
from .errors import InvalidParameter, SpecCoverageError
from .probability import (
    MAX_MARGINAL_LABELS,
    Factor,
    FactorizationSpec,
    JointDistribution,
    RandomVariableSet,
    _unchecked,
    extend_through_channel,
    pairing_onehot,
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
    # "struct": per target, (size, values drawn, conditioning cell -> value
    # index, or None when each cell draws its own value)
    inputs: tuple[tuple[int, int, np.ndarray | None], ...] = ()
    indicator: np.ndarray | None = None  # "paired"

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """The block shaped to broadcast against the joint."""
        if self.kind == "paired":
            return self.indicator
        if self.kind == "struct":
            block = np.zeros((self.n_cells, *self.t_sizes))
            values = []
            for size, count, index in self.inputs:
                drawn = rng.integers(0, size, size=count)
                values.append(drawn if index is None else drawn[index])
            block[(np.arange(self.n_cells), *values)] = 1.0
        elif self.kind == "flat":
            marginals = [rng.dirichlet(np.ones(s)) for s in self.t_sizes]
            block = np.broadcast_to(
                reduce(np.multiply.outer, marginals), (self.n_cells, *self.t_sizes)
            )
        else:
            block = rng.dirichlet(np.ones(math.prod(self.t_sizes)), size=self.n_cells)
        return _onto_joint(block, self.layout, self.perm, self.shape)


def _onto_joint(block: np.ndarray, layout, perm, shape) -> np.ndarray:
    """One reshape to `layout` and one transpose onto the joint's axes."""
    return np.ascontiguousarray(np.transpose(block.reshape(layout), perm)).reshape(shape)


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
    inputs = []
    if kind == "struct":
        for a in t_axes:
            deps = struct_deps.get(rvs.names[a])
            if deps is None:
                inputs.append((rvs.sizes[a], n_cells, None))
                continue
            dep_sizes = [rvs.size(d) for d in deps]
            cells = np.unravel_index(np.arange(n_cells), g_sizes)
            dep_cells = [cells[g_axes.index(rvs.axis(d))] for d in deps]
            index = np.ravel_multi_index(dep_cells, dep_sizes)
            index.setflags(write=False)
            inputs.append((rvs.sizes[a], math.prod(dep_sizes), index))
    current = g_axes + t_axes
    layout = tuple(g_sizes) + t_sizes
    perm = tuple(current.index(a) for a in sorted(current))
    shape = tuple(s if a in current else 1 for a, s in enumerate(rvs.sizes))
    indicator = None
    if kind == "paired":
        indicator = _onto_joint(pairing_onehot(g_sizes), layout, perm, shape)
        indicator.setflags(write=False)
    return _BlockPlan(kind, n_cells, t_sizes, layout, perm, shape, tuple(inputs), indicator)


class _ChainPlan(NamedTuple):
    """A factor chain's block plans, and `_propose`'s fresh-block plans.

    `free` lists the factors the frontier search may move: all but the
    paired copies.  `fresh` is the chain's "free"-mode blocks, so
    `fresh[i]` redraws a free factor i as a Dirichlet block.
    """

    rvs: RandomVariableSet
    blocks: tuple[_BlockPlan, ...]
    fresh: tuple[_BlockPlan, ...]
    free: tuple[int, ...]


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
    blocks = tuple(_block_plan(rvs, f, mode, det_map, deps_map) for f in factors)
    fresh = (blocks if mode == "free"
             else _chain_plan(rvs, factors, "free", det, struct_deps).blocks)
    free = tuple(i for i, b in enumerate(blocks) if b.kind != "paired")
    return _ChainPlan(rvs, blocks, fresh, free)


@lru_cache(maxsize=64)
def _schema_plan(schema: RegionSchema, size: int, mode: str) -> _ChainPlan:
    """The schema's chain at default cardinality `size`, looked up by schema."""
    return _chain_plan(schema.rv_set(size), schema.factorization.factors, mode,
                       schema.deterministic, schema.input_deps)


def _draw(plans: Sequence[_ChainPlan], rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    """The population of state k drawn through plans[k] (of one chain, in
    any modes) on rngs[k]: state by state, each state's blocks in chain
    order, so each generator is consumed as if its state were drawn alone."""
    drawn = [[b.draw(rng) for b in plan.blocks] for plan, rng in zip(plans, rngs)]
    return [np.stack(factor) for factor in zip(*drawn)]


def _propose(plan: _ChainPlan, blocks: Sequence[np.ndarray], k: int,
             rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Return (index, new_block) for one derivative-free move of row k of
    the population `blocks`, which is left as it is.

    Row moves: sharpen to the mode, flatten toward uniform, mix with a
    fresh Dirichlet draw, or resample the block.  Multi-variable blocks
    additionally get axis moves that sharpen or uniformize a single
    variable's marginal while keeping the rest of the row intact.
    Deterministic (paired) blocks are never proposed.
    """
    idx = plan.free[rng.integers(0, len(plan.free))]
    fresh = plan.fresh[idx]
    t_sizes = fresh.t_sizes
    n = math.prod(t_sizes)
    move = rng.random()
    if move < 0.06:
        return idx, fresh.draw(rng)
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
        alpha = float(rng.choice([1.0, 0.4]))
        flat[row] = (1 - alpha) * flat[row] + alpha / n
    else:
        alpha = float(rng.choice([0.5, 0.15, 0.03]))
        flat[row] = (1 - alpha) * flat[row] + alpha * rng.dirichlet(np.ones(n))
    return idx, new


def _joints(rvs: RandomVariableSet, blocks: Sequence[np.ndarray]) -> JointDistribution:
    """A population's joints as an unchecked batch: the stacked factors
    multiply it in chain order, so each joint is its own blocks' product."""
    joint = np.ones((len(blocks[0]), *rvs.shape()))
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
    blocks = _draw([_chain_plan(rvs, spec.factors)], [np.random.default_rng(seed)])
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
