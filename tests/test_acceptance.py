"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import time

import numpy as np
import pytest

from cifc.channel import canonical_channel, random_channel
from cifc.polytope import project_or_empty
from cifc.probability import extend_through_channel
from cifc.regions import SCHEMA_IDS, builtin_schema, compile_schema, instantiate, schema_manifest
from cifc.verify import (
    check_fme_oracle,
    run_suite,
    sampled_region_containment,
    trace_frontier,
)

from helpers import (
    check_droppable,
    degenerate_rtd_distribution,
    sample_factored,
    square_assignment,
)


def report(num: int, name: str, ok: bool, detail: str = "", elapsed: float | None = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] criterion {num}: {name}{timing} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_rtd_transcription_audit():
    t0 = time.monotonic()
    rtd = builtin_schema("RTD")
    ok = len(rtd.constraints) == 11 and len(rtd.rate_vars) == 8
    manifest = schema_manifest(rtd)
    labels = [c["label"] for c in manifest["constraints"]]
    ok &= labels == ["1a", "1b", "1c", "1d", "1e", "1f", "1g", "1h", "1i", "1j", "1k"]
    worst = 0.0
    sign = compile_schema(rtd).sign  # LE-normal rhs = sign * MI value
    for seed in range(1000):
        d = sample_factored(rtd.rv_set(2), rtd.factorization, seed)
        d = extend_through_channel(d, random_channel(seed))
        inst = instantiate(rtd, d)
        worst = min(worst, float((sign * inst.b).min()))
    ok &= worst >= -1e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(1, "unified-region transcription audit", ok,
           f"(11 constraints, labels 1a-1k, min rhs {worst:.2e} over 1000 draws)", elapsed)


def test_criterion_2_fme_oracle_equivalence():
    t0 = time.monotonic()
    rep = check_fme_oracle(SCHEMA_IDS, instances=50, seed=0, grid=21)
    elapsed = time.monotonic() - t0
    nonempty = sum(c.details["nonempty_instances"] for c in rep.checks)
    ok = rep.ok and elapsed < 300.0
    report(2, "projection agrees with enumeration oracle on 21x21 grids", ok,
           f"(9 schemas x 50 instances, {nonempty} nonempty)", elapsed)


def test_criterion_3_devroye_suite():
    t0 = time.monotonic()
    rep, = run_suite("devroye", samples=200, seed=0)
    contain = sampled_region_containment(
        "RTD_IN", "DMT_OUT", channel=random_channel(7), samples=100, seed=0
    )
    ok = rep.ok and contain.ok
    zero_ids = ("e13_e23", "e15_e25", "e18_e28", "e19_e29")
    checks = {c.check_id: c for c in rep.checks}
    worst_zero = max(checks[i].max_abs_violation for i in zero_ids)
    detail = (
        f"(four zero diffs <= {worst_zero:.1e}; e14 = I(U2c;U1c|X2) = 0; "
        f"e17 = I(U1c;U1pb) >= 0; containment "
        f"{contain.checks[0].seeds_run - len(contain.checks[0].failures)}/100,"
        f" {contain.checks[0].details['nonempty_instances']} nonempty)"
    )
    report(3, "equation-by-equation suite and containment", ok, detail,
           time.monotonic() - t0)


def test_criterion_4_cc_suite():
    t0 = time.monotonic()
    rep, = run_suite("cc", samples=200, seed=0)  # the pinned checks on min(200, 100) draws
    ok = rep.ok
    proj = {c.check_id: c for c in rep.checks}["pinned projections vertex-identical"]
    detail = (
        f"(37/39/40 equal, 38p/41p relax by the merge gap; vertex equality "
        f"100/100, {proj.details['nonempty_instances']} nonempty)"
    )
    report(4, "merged-satellite suite and pinned-region equality", ok, detail,
           time.monotonic() - t0)


def test_criterion_5_jiang_suite():
    t0 = time.monotonic()
    rep, = run_suite("jiang", samples=200, seed=0)
    checks = {c.check_id: c for c in rep.checks}
    contain, = sampled_region_containment(
        "RTD_JIANG", "JIANG", samples=100, seed=20_000).checks
    ok = rep.ok and contain.ok
    detail = (
        f"(paired bounds <= {checks['eight paired bounds equal'].max_abs_violation:.1e}; "
        f"pinned binning <= {checks['I(U1c;X2|U2c) vanishes under the chain'].max_abs_violation:.1e}; "
        f"containment 100/100 <= {contain.max_abs_violation:.1e}, "
        f"{contain.details['strictly_smaller']} strict)"
    )
    report(5, "independent-common-messages suite", ok, detail, time.monotonic() - t0)


def test_criterion_6_maric_suite():
    t0 = time.monotonic()
    rep, = run_suite("maric", samples=200, seed=0)
    checks = {c.check_id: c for c in rep.checks}
    detail = (
        f"(m2-m5 unchanged <= {checks['bounds m2..m5 unchanged under merge'].max_abs_violation:.1e}; "
        f"m1 gap matches I(X2a;Y2|Q) <= "
        f"{checks['merged m1 exceeds m1 by I(X2a;Y2|Q)'].max_abs_violation:.1e})"
    )
    report(6, "split-input merge suite", rep.ok, detail, time.monotonic() - t0)


def test_criterion_7_anchors_and_frontier():
    t0 = time.monotonic()
    # all-constant auxiliaries collapse to the origin, exactly
    poly0 = project_or_empty(instantiate(builtin_schema("RTD"), degenerate_rtd_distribution()))
    ok = poly0.vertices == ((0.0, 0.0),)

    # the stated assignment on the clean channel reaches (1,1) within 1e-6
    poly1 = project_or_empty(instantiate(builtin_schema("RTD"), square_assignment()))
    corner = min(max(abs(x - 1.0), abs(y - 1.0)) for x, y in poly1.vertices)
    ok &= corner <= 1e-6

    # derivative-free rediscovery from random initialization
    fr = trace_frontier(
        "RTD", canonical_channel("orthogonal_noiseless"), budget=2000, seed=1,
        lambdas=[0.5],
    )
    dist = min(
        (max(abs(r1 - 1.0), abs(r2 - 1.0)) for _, r1, r2, _ in fr.points),
        default=np.inf,
    )
    ok &= dist <= 0.02
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(7, "degenerate and noiseless anchors", ok,
           f"(origin exact; assignment corner {corner:.1e}; search within {dist:.4f} bits)",
           elapsed)


def test_criterion_8_remark_droppability():
    t0 = time.monotonic()
    rep = check_droppable(instances=50, seed=0, tol=1e-9)
    empties = {c.check_id: c.details["empty_instances"] for c in rep.checks}
    detail = "(vertex sets identical 50/50 per bullet; empty counts " + \
        ", ".join(f"{k.split()[1]}={v}" for k, v in empties.items()) + ")"
    report(8, "droppable-constraint projections", rep.ok, detail, time.monotonic() - t0)
