"""Shared fixtures: canonical distributions used across test modules, and
log-ratio references for the information measures."""

import numpy as np

from cifc.channel import canonical_channel, random_channel
from cifc.probability import JointDistribution, RandomVariableSet, extend_through_channel
from cifc.regions import builtin_schema


def square_assignment() -> JointDistribution:
    """Noiseless anchor: auxiliaries degenerate except U1pb = X1, X2 uniform."""
    names = ("U1c", "U2c", "U1pb", "U2pb", "X1", "X2")
    sizes = (1, 1, 2, 1, 2, 2)
    prob = np.zeros(sizes)
    for a in range(2):
        for c in range(2):
            prob[0, 0, a, 0, a, c] = 0.25
    d = JointDistribution(RandomVariableSet(names, sizes), prob)
    return extend_through_channel(d, canonical_channel("orthogonal_noiseless"))


def degenerate_rtd_distribution() -> JointDistribution:
    """Every auxiliary and input constant; the region collapses to (0, 0)."""
    rtd = builtin_schema("RTD")
    rvs = rtd.rv_set(2, overrides=dict.fromkeys(rtd.variables, 1))
    d = JointDistribution(rvs, np.ones([1] * len(rtd.variables)))
    return extend_through_channel(d, random_channel(3, sizes=(1, 1, 2, 2)))


def _marginal(d: JointDistribution, names) -> tuple[np.ndarray, tuple[str, ...]]:
    keep = set(names)
    drop = tuple(i for i, n in enumerate(d.names) if n not in keep)
    return d.prob.sum(axis=drop), tuple(n for n in d.names if n in keep)


def _xlogratio(p: np.ndarray, num: list[np.ndarray], den: list[np.ndarray]) -> float:
    """sum over p > 0 of p * log2(prod(num) / prod(den)), all broadcast to p."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = sum(np.log2(np.where(q > 0, q, 1.0)) for q in num) - sum(
            np.log2(np.where(q > 0, q, 1.0)) for q in den
        )
    mask = p > 0
    return float(np.sum(p[mask] * np.broadcast_to(logs, p.shape)[mask]))


def reference_mutual_information(d: JointDistribution, left, right, given=()) -> float:
    """I(A;B|C) = sum p(abc) log2 p(abc) p(c) / (p(ac) p(bc)), unclamped.

    The log-ratio formula, independent of the entropy-vector kernel.
    """
    p, order = _marginal(d, (*left, *right, *given))
    ax_l = tuple(i for i, n in enumerate(order) if n in left)
    ax_r = tuple(i for i, n in enumerate(order) if n in right)
    pac = p.sum(axis=ax_r, keepdims=True)
    pbc = p.sum(axis=ax_l, keepdims=True)
    return _xlogratio(p, [p, pac.sum(axis=ax_l, keepdims=True)], [pac, pbc])


def reference_entropy(d: JointDistribution, names, given=()) -> float:
    """H(A|C) = sum p(ac) log2 p(c) / p(ac), unclamped."""
    p, order = _marginal(d, (*names, *given))
    ax_a = tuple(i for i, n in enumerate(order) if n in names)
    return _xlogratio(p, [p.sum(axis=ax_a, keepdims=True)], [p])
