"""Factorized sampling of joint distributions.

The only module that knows how a factor block is drawn and laid out.  One
routine, `_block`, draws a conditional p(targets | given) as a
(given..., target...) array in a single call and transposes it once onto
the joint's ascending axes; `_FactorState` holds one such block per factor
of a chain and multiplies them into the joint.  `sample_factored`,
`sample_instance` and the frontier search all draw through it.

Every draw is a pure function of the generator passed in, so a seed fixes
the joint bit for bit.
"""

from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .channel import Channel
from .errors import InvalidParameter, SpecCoverageError
from .probability import (
    Factor,
    FactorizationSpec,
    JointDistribution,
    RandomVariableSet,
    extend_through_channel,
    pairing_onehot,
)

if TYPE_CHECKING:
    from .regions import RegionSchema

SAMPLING_MODES = ("free", "det", "flat_det")

# In structured mode the channel inputs become uniformly random
# deterministic maps of their conditioning cells; for the unified region
# the primary input may only look at the variables its encoder sees.
STRUCT_INPUT_DEPS: dict[str, dict[str, tuple[str, ...]]] = {
    "RTD": {"X2": ("U2c",)},
}


def _block(
    rvs: RandomVariableSet,
    factor: Factor,
    rng: np.random.Generator,
    mode: str,
    det: Mapping[str, tuple[str, ...]],
    struct_deps: Mapping[str, tuple[str, ...]],
) -> np.ndarray:
    """Draw p(targets | given) under `mode`, shaped to broadcast against the joint.

    A single target declared deterministic (a paired copy) is always an
    indicator.  In "det"/"flat_det" modes a channel-input factor becomes a
    uniformly random deterministic map, and "flat_det" draws every other
    factor as a product of per-variable Dirichlet(1) marginals, the same
    for every conditioning cell.  Otherwise each conditioning cell gets
    its own Dirichlet(1) row.
    """
    targets = factor.targets
    if len(targets) == 1 and targets[0] in det:
        g_axes = [rvs.axis(p) for p in det[targets[0]]]
        t_axes = [rvs.axis(targets[0])]
        block = pairing_onehot([rvs.sizes[a] for a in g_axes])
    else:
        g_axes = sorted(rvs.axis(n) for n in factor.given)
        t_axes = sorted(rvs.axis(n) for n in targets)
        g_sizes = [rvs.sizes[a] for a in g_axes]
        t_sizes = [rvs.sizes[a] for a in t_axes]
        n_cells = int(np.prod(g_sizes))
        if mode != "free" and any(t in ("X1", "X2") for t in targets):
            values = []
            for a in t_axes:
                deps = struct_deps.get(rvs.names[a])
                if deps is None:
                    values.append(rng.integers(0, rvs.sizes[a], size=n_cells))
                    continue
                dep_sizes = [rvs.size(d) for d in deps]
                table = rng.integers(0, rvs.sizes[a], size=int(np.prod(dep_sizes)))
                cells = np.unravel_index(np.arange(n_cells), g_sizes)
                dep_cells = [cells[g_axes.index(rvs.axis(d))] for d in deps]
                values.append(table[np.ravel_multi_index(dep_cells, dep_sizes)])
            block = np.zeros((n_cells, *t_sizes))
            block[(np.arange(n_cells), *values)] = 1.0
        elif mode == "flat_det":
            marginals = [rng.dirichlet(np.ones(s)) for s in t_sizes]
            block = np.broadcast_to(reduce(np.multiply.outer, marginals), (n_cells, *t_sizes))
        else:
            block = rng.dirichlet(np.ones(int(np.prod(t_sizes))), size=n_cells)
        block = block.reshape(g_sizes + t_sizes)
    current = g_axes + t_axes
    block = np.transpose(block, [current.index(a) for a in sorted(current)])
    shape = [s if a in current else 1 for a, s in enumerate(rvs.sizes)]
    return np.ascontiguousarray(block).reshape(shape)


class _FactorState:
    """The factor blocks of one chain, each drawn once by `_block`.

    `joint` multiplies them into the distribution; the frontier search
    replaces single entries of `blocks` with `propose`'s moves while hill
    climbing.  Deterministic (paired) blocks are never proposed.
    """

    def __init__(
        self,
        rvs: RandomVariableSet,
        factors: Sequence[Factor],
        rng: np.random.Generator,
        mode: str = "free",
        det: Mapping[str, tuple[str, ...]] | None = None,
        struct_deps: Mapping[str, tuple[str, ...]] | None = None,
    ):
        det, struct_deps = det or {}, struct_deps or {}
        self.rvs = rvs
        self.factors = list(factors)
        self.blocks = [_block(rvs, f, rng, mode, det, struct_deps) for f in self.factors]
        self.free = [
            i for i, f in enumerate(self.factors)
            if not (len(f.targets) == 1 and f.targets[0] in det)
        ]

    @classmethod
    def of_schema(
        cls, schema: RegionSchema, size: int, rng: np.random.Generator, mode: str = "free"
    ) -> _FactorState:
        """The schema's factorization at default cardinality `size`."""
        return cls(
            schema.rv_set(size),
            schema.factorization.factors,
            rng,
            mode,
            dict(schema.deterministic),
            STRUCT_INPUT_DEPS.get(schema.id, {}),
        )

    def joint(self) -> JointDistribution:
        joint = np.ones(self.rvs.shape())
        for block in self.blocks:
            joint = joint * block
        return JointDistribution(self.rvs, joint)

    def propose(self, rng: np.random.Generator):
        """Return (index, new_block) for one derivative-free move.

        Row moves: sharpen to the mode, flatten toward uniform, mix with a
        fresh Dirichlet draw, or resample the block.  Multi-variable blocks
        additionally get axis moves that sharpen or uniformize a single
        variable's marginal while keeping the rest of the row intact.
        """
        idx = self.free[rng.integers(0, len(self.free))]
        factor = self.factors[idx]
        t_sizes = [self.rvs.size(n) for n in sorted(factor.targets, key=self.rvs.axis)]
        k = int(np.prod(t_sizes))
        move = rng.random()
        if move < 0.06:
            return idx, _block(self.rvs, factor, rng, "free", {}, {})
        new = self.blocks[idx].copy()
        flat = new.reshape(-1, k)
        row = rng.integers(0, flat.shape[0])
        if len(t_sizes) > 1 and move < 0.40:
            row_nd = flat[row].reshape(t_sizes)
            j = int(rng.integers(0, len(t_sizes)))
            rest = row_nd.sum(axis=j, keepdims=True)
            shape_j = [1] * len(t_sizes)
            shape_j[j] = t_sizes[j]
            if move < 0.23:
                sum_axes = tuple(i for i in range(len(t_sizes)) if i != j)
                marg = row_nd.sum(axis=sum_axes)
                dist = np.zeros(t_sizes[j])
                dist[np.argmax(marg)] = 1.0
            else:
                dist = np.full(t_sizes[j], 1.0 / t_sizes[j])
            flat[row] = (rest * dist.reshape(shape_j)).reshape(-1)
        elif move < 0.55:
            peak = np.zeros(k)
            peak[np.argmax(flat[row])] = 1.0
            flat[row] = peak
        elif move < 0.70:
            alpha = float(rng.choice([1.0, 0.4]))
            flat[row] = (1 - alpha) * flat[row] + alpha / k
        else:
            alpha = float(rng.choice([0.5, 0.15, 0.03]))
            flat[row] = (1 - alpha) * flat[row] + alpha * rng.dirichlet(np.ones(k))
        return idx, new


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
    return _FactorState(rvs, spec.factors, np.random.default_rng(seed)).joint()


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
    if mode not in SAMPLING_MODES:
        raise InvalidParameter(f"unknown sampling mode {mode!r}")
    state = _FactorState.of_schema(schema, size, np.random.default_rng(seed), mode)
    return extend_through_channel(state.joint(), channel)


def _mode_for(seed: int) -> str:
    return SAMPLING_MODES[seed % len(SAMPLING_MODES)]
