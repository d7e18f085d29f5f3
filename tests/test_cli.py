import hashlib
import json

import pytest

from cifc import probability, verify
from cifc.channel import canonical_channel, random_channel, save_channel
from cifc.cli import main
from cifc.probability import JointDistribution, MIExpr, RandomVariableSet, joint_to_json, mi
from cifc.polytope import polytope_from_json
from cifc.regions import builtin_schema
from cifc.sampling import sample_factored

from helpers import _marginal, square_assignment


@pytest.fixture()
def orth_channel(tmp_path):
    path = tmp_path / "orth.json"
    save_channel(canonical_channel("orthogonal_noiseless"), path)
    return path


@pytest.fixture()
def square_dist(tmp_path):
    p, order = _marginal(square_assignment(), ("U1c", "U2c", "U1pb", "U2pb", "X1", "X2"))
    pre = JointDistribution(RandomVariableSet(order, p.shape), p)
    path = tmp_path / "square.json"
    path.write_text(json.dumps(joint_to_json(pre)))
    return path


def test_validate_ok(orth_channel):
    assert main(["validate", "--channel", str(orth_channel)]) == 0


def test_validate_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"x1":2,"x2":2,"y1":2,"y2":2,"p":[0.5,0.5]}')
    assert main(["validate", "--channel", str(bad)]) == 2
    assert "p" in capsys.readouterr().err


@pytest.mark.parametrize("p", ['["0.5","0.5"]', "[true,false]"])
def test_validate_refuses_probabilities_that_are_not_numbers(tmp_path, capsys, p):
    bad = tmp_path / "bad.json"
    bad.write_text('{"x1":1,"x2":1,"y1":1,"y2":2,"p":%s}' % p)
    assert main(["validate", "--channel", str(bad)]) == 2
    assert "field 'p': entry 0 must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("data", [b"{not json", b'{"x1": "\xff"}', b"[" * 10**5 + b"]" * 10**5],
                         ids=["syntax", "not_utf8", "too_deep"])
def test_a_file_that_is_not_json_exits_2(tmp_path, orth_channel, capsys, data):
    # both loaders read through one reader, so the CLI need not catch a parser error
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["validate", "--channel", str(bad)]) == 2
    rc = main(["project", "--schema", "RTD", "--channel", str(orth_channel),
               "--dist", str(bad), "--out", str(tmp_path / "poly.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count(f"error: {bad}: not valid JSON") == 2 and "Traceback" not in err


def test_validate_missing_file_exits_2(tmp_path):
    assert main(["validate", "--channel", str(tmp_path / "nope.json")]) == 2


def test_project_square(tmp_path, orth_channel, square_dist):
    out = tmp_path / "poly.json"
    rc = main([
        "project", "--schema", "RTD", "--channel", str(orth_channel),
        "--dist", str(square_dist), "--out", str(out),
    ])
    assert rc == 0
    poly = polytope_from_json(json.loads(out.read_text()))
    assert any(abs(x - 1) < 1e-9 and abs(y - 1) < 1e-9 for x, y in poly.vertices)
    csv_lines = (tmp_path / "poly.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "R1,R2" and len(csv_lines) == 5


def test_project_writes_an_empty_region_as_a_value(tmp_path, capsys):
    # RTD's binning lower bounds exceed its decoding bounds at this draw
    rtd = builtin_schema("RTD")
    dist, channel, out = tmp_path / "joint.json", tmp_path / "ch.json", tmp_path / "poly.json"
    dist.write_text(json.dumps(joint_to_json(sample_factored(rtd.rv_set(2), rtd.factorization, 0))))
    save_channel(random_channel(0), channel)
    rc = main(["project", "--schema", "RTD", "--channel", str(channel),
               "--dist", str(dist), "--out", str(out)])
    assert rc == 0
    assert "note: RTD region is empty at this distribution" in capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text()) == {"halfplanes": [], "vertices": []}
    assert (tmp_path / "poly.csv").read_text() == "R1,R2\n"


def test_project_above_the_marginal_plan_cap_exits_2(
    tmp_path, orth_channel, square_dist, capsys, monkeypatch
):
    monkeypatch.setattr(probability, "MAX_MARGINAL_LABELS", 10)
    probability._marginal_plan.cache_clear()
    rc = main(["project", "--schema", "RTD", "--channel", str(orth_channel),
               "--dist", str(square_dist), "--out", str(tmp_path / "poly.json")])
    assert rc == 2
    assert "marginal-plan cap of 10" in capsys.readouterr().err


def test_project_names_the_source_rows_of_each_halfplane(tmp_path, orth_channel, square_dist):
    out = tmp_path / "poly.json"
    main([
        "project", "--schema", "RTD", "--channel", str(orth_channel),
        "--dist", str(square_dist), "--out", str(out),
    ])
    halfplanes = json.loads(out.read_text())["halfplanes"]
    rtd_labels = {f"1{c}" for c in "abcdefghijk"}
    assert halfplanes and all(len(h) == 4 and isinstance(h[3], list) for h in halfplanes)
    assert all(set(h[3]) <= rtd_labels for h in halfplanes)
    assert any(h[3] for h in halfplanes)


def test_project_artifacts_roundtrip_and_deterministic(tmp_path, orth_channel, square_dist):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        main([
            "project", "--schema", "RTD", "--channel", str(orth_channel),
            "--dist", str(square_dist), "--out", str(out),
        ])
    assert out1.read_bytes() == out2.read_bytes()


def test_frontier_writes_csv(tmp_path, orth_channel):
    out = tmp_path / "front.csv"
    rc = main([
        "frontier", "--schema", "RTD", "--channel", str(orth_channel),
        "--seed", "2", "--samples", "40", "--grid", "3", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,R1,R2,seed"
    assert len(lines) >= 2


def test_frontier_deterministic(tmp_path, orth_channel):
    outs = []
    for name in ("f1.csv", "f2.csv"):
        out = tmp_path / name
        main([
            "frontier", "--schema", "RTD", "--channel", str(orth_channel),
            "--seed", "5", "--samples", "30", "--grid", "2", "--out", str(out),
        ])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_frontier_names_lambdas_without_a_feasible_point(tmp_path, orth_channel, capsys):
    out = tmp_path / "front.csv"
    rc = main([
        "frontier", "--schema", "RTD", "--channel", str(orth_channel),
        "--samples", "12", "--grid", "2", "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text() == "lambda,R1,R2,seed\n"
    captured = capsys.readouterr()
    assert "no feasible point for lambda 0, 1" in captured.out
    assert "lambda 0, 1" in captured.err


def test_frontier_unbounded_schema_exits_2(tmp_path, orth_channel, monkeypatch, capsys):
    import dataclasses

    import cifc.verify
    from cifc.regions import builtin_schema

    rtd = builtin_schema("RTD")
    crippled = dataclasses.replace(
        rtd, constraints=tuple(c for c in rtd.constraints if c.label not in ("1d", "1e", "1f"))
    )
    monkeypatch.setattr(cifc.verify, "builtin_schema", lambda sid: crippled)
    rc = main([
        "frontier", "--schema", "RTD", "--channel", str(orth_channel),
        "--samples", "10", "--grid", "2", "--out", str(tmp_path / "front.csv"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RTD: the projected region is unbounded")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--grid", "-1"],
    ["--grid", "0"],
    ["--samples", "-3"],
    ["--samples", "0"],
    ["--grid", "1000000000"],  # refused before a generator per lambda is made
])
def test_frontier_rejects_nonsensical_counts(tmp_path, orth_channel, capsys, flags):
    out = tmp_path / "front.csv"
    rc = main(["frontier", "--schema", "RTD", "--channel", str(orth_channel),
               "--samples", "10", "--grid", "2", *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["-2", "0"])
def test_verify_rejects_nonpositive_samples(tmp_path, capsys, samples):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "devroye", "--samples", samples, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: samples must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "maric", "--samples", "3"],
    ["frontier", "--schema", "RTD", "--samples", "10", "--grid", "2"],
])
def test_negative_seed_exits_2_before_drawing(tmp_path, orth_channel, capsys, command):
    # numpy refuses a negative seed with a ValueError, which would end in a
    # traceback and exit 1, the code of a violation found
    out = tmp_path / "out"
    channel = ["--channel", str(orth_channel)] if command[0] == "frontier" else []
    rc = main([*command, *channel, "--seed", "-1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a non-negative integer, got -1")
    assert "Traceback" not in err
    assert not out.exists()


def test_project_with_too_many_variables_exits_2(tmp_path, orth_channel, capsys):
    # 21 singleton auxiliaries plus the two binary inputs: 23 variables
    names = [f"A{i}" for i in range(21)] + ["X1", "X2"]
    dist = tmp_path / "wide.json"
    dist.write_text(json.dumps({
        "names": names, "sizes": [1] * 21 + [2, 2], "p": [0.25] * 4,
    }))
    rc = main(["project", "--schema", "RTD", "--channel", str(orth_channel),
               "--dist", str(dist), "--out", str(tmp_path / "poly.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 23 variables exceed the limit of 22")


def test_project_names_the_requirement_a_joint_breaks(tmp_path, orth_channel, capsys):
    # uniform: every independence of CCP's chain holds, but X2 is no copy of U2c
    names = ["U2c", "U1c", "U1pb", "U2pb", "X2", "X1"]
    dist = tmp_path / "uniform.json"
    dist.write_text(json.dumps({"names": names, "sizes": [2] * 6, "p": [1 / 64] * 64}))
    rc = main(["project", "--schema", "CCP", "--channel", str(orth_channel),
               "--dist", str(dist), "--out", str(tmp_path / "poly.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: CCP: H(X2|U2c) = 1.000e+00 > 1e-09\n"
    assert not (tmp_path / "poly.json").exists()


NAN, INF = float("nan"), float("inf")
RTD_INPUTS = {"names": ["U1c", "U2c", "U1pb", "U2pb", "X1", "X2"], "sizes": [1, 1, 1, 1, 2, 2]}


@pytest.mark.parametrize("body", [
    {"x1": 2, "x2": 2, "y1": 2, "y2": 2, "p": [NAN] * 16},  # every slice sums to NaN
    {"x1": 1, "x2": 1, "y1": 1, "y2": 2, "p": [1.0, NAN]},
    {"x1": 1, "x2": 1, "y1": 1, "y2": 2, "p": [1.0, INF]},
    {"x1": 2**32, "x2": 2**32, "y1": 1, "y2": 1, "p": []},  # np.prod wraps to 0
    {"x1": 1, "x2": 1, "y1": 1, "y2": 1, "p": ["x"]},
    {"x1": 1, "x2": 1, "y1": 1, "y2": 1, "p": 1.0},
    {"x1": 1, "x2": 1, "y1": 1, "y2": INF, "p": [1.0]},
], ids=["all_nan", "one_nan", "inf", "overflowing_sizes", "non_numeric", "scalar_p", "inf_size"])
def test_validate_rejects_bad_channel_with_exit_2(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert main(["validate", "--channel", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("body", [
    dict(RTD_INPUTS, p=[NAN, 0.0, 0.0, 1.0]),
    dict(RTD_INPUTS, p=[INF, 0.0, 0.0, 1.0]),
    {"names": ["X1", "X2"], "sizes": [2**32, 2**32], "p": []},  # np.prod wraps to 0
    dict(RTD_INPUTS, p=["x", 0.0, 0.0, 1.0]),
    dict(RTD_INPUTS, sizes=[1, 1, 1, 1, 2, INF], p=[1.0]),
], ids=["nan", "inf", "overflowing_sizes", "non_numeric", "inf_size"])
def test_project_rejects_bad_joint_with_exit_2(tmp_path, orth_channel, capsys, body):
    dist = tmp_path / "bad.json"
    dist.write_text(json.dumps(body))
    out = tmp_path / "poly.json"
    rc = main(["project", "--schema", "RTD", "--channel", str(orth_channel),
               "--dist", str(dist), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body, bad", [
    (dict(RTD_INPUTS, sizes=[1, 1, 1, 1, 2, 2.9], p=[0.25] * 4), "2.9"),
    (dict(RTD_INPUTS, sizes=[1, 1, 1, 1, 2, True], p=[0.5, 0.5]), "True"),
], ids=["fractional", "boolean"])
def test_project_rejects_non_integer_joint_sizes(tmp_path, orth_channel, capsys, body, bad):
    # int() would truncate 2.9 to a binary variable and read true as 1
    dist = tmp_path / "bad.json"
    dist.write_text(json.dumps(body))
    rc = main(["project", "--schema", "RTD", "--channel", str(orth_channel),
               "--dist", str(dist), "--out", str(tmp_path / "poly.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: sizes[5] must be an integer, got {bad}\n"


@pytest.mark.parametrize("body", [
    {"x1": True, "x2": 1.7, "y1": 1, "y2": 1, "p": [1.0]},
    {"x1": 2, "x2": 2, "y1": 2, "y2": 2.0, "p": [0.5] * 16},
    {"x1": 2, "x2": "2", "y1": 2, "y2": 2, "p": [0.5] * 16},
], ids=["boolean_and_fractional", "integral_float", "string"])
def test_validate_rejects_non_integer_channel_sizes(tmp_path, capsys, body):
    path = tmp_path / "ch.json"
    path.write_text(json.dumps(body))
    assert main(["validate", "--channel", str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "maric", "--samples", "3", "--tol-mi", "1e-3"],
    ["verify", "--suite", "maric", "--samples", "3", "--tol-region", "1e-3"],
    ["project", "--schema", "RTD", "--tol-mi", "1e-3"],
], ids=["verify-tol-mi", "verify-tol-region", "project-tol-mi"])
def test_tolerances_cannot_be_set_from_the_command_line(tmp_path, orth_channel, square_dist,
                                                         argv):
    # the acceptance tolerances are fixed by the code, so no flag loosens a check
    out = tmp_path / "out.json"
    if argv[0] == "project":
        argv = [*argv, "--channel", str(orth_channel), "--dist", str(square_dist)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_imports_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cifc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_report_with_structural_failure_is_strict_json(tmp_path):
    import math

    from cifc.cli import _dump_json
    from cifc.verify import CheckReport, SuiteReport, reports_to_json

    check = CheckReport("vertex sets identical")
    check.record(3, 0.0)
    check.record(4, math.inf, "seed 4: vertex sets differ")
    out = tmp_path / "report.json"
    _dump_json(reports_to_json([SuiteReport("demo", [check])]), str(out))

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    payload = report["suites"][0]["checks"][0]
    assert report["ok"] is False
    assert payload["max_abs_violation"] is None
    assert payload["structural_failure"] is True
    assert payload["worst_seed"] == 4
    with pytest.raises(ValueError):
        _dump_json({"margin": math.inf}, str(out))


def test_verify_suite_ok(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "maric", "--samples", "6", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    check = report["suites"][0]["checks"][0]
    assert {"id", "seeds_run", "max_abs_violation", "worst_seed"} <= set(check)


def test_verify_reports_violation_with_exit_1(tmp_path, monkeypatch):
    # a false identity claim: X2 and Y2 are dependent given Q through the channel
    false_claim = (verify.IdentityCheck("false claim", (MIExpr.of(mi("X2", "Y2", "Q")),)),)
    monkeypatch.setitem(verify.SUITES, "maric", lambda n, k, seed: [
        verify.check_identities("maric", "MARIC", false_claim, n, seed)])
    rc = main(["verify", "--suite", "maric", "--samples", "6", "--seed", "1",
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["ok"] is False


def test_verify_deterministic_bytes(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["verify", "--suite", "devroye", "--samples", "5", "--seed", "3",
              "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_report_writes_no_negative_zero(tmp_path):
    # seed 1 has a containment margin of zero from a vertex on an axis
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "all", "--samples", "100", "--seed", "1",
                 "--out", str(out)]) == 0
    assert "-0.0" not in out.read_text()


def test_verify_all_report_is_pinned(tmp_path):
    # taken before the per-instance checks and the sampler were compiled
    # once per schema; any change to a draw or a reported value moves it
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "all", "--samples", "100", "--seed", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4bf26c2225f752f21bf9531749c4d991c628a5990d0693733cadfbae542e09f0"
    )


def test_verify_all_report_at_seed_3_is_pinned(tmp_path):
    # taken before the random channels were drawn once per seed, schemas on
    # one batch shared an entropy pass and the cc regions were projected in
    # batches; a cc system or an entropy column out of place moves it
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "all", "--samples", "100", "--seed", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f55fbca1f0407766e3200d8ef28ce73f81e57fdcc166878e3d11b36f9daeccdf"
    )


def test_manifest_full_catalog(tmp_path):
    out = tmp_path / "manifest.json"
    assert main(["manifest", "--out", str(out)]) == 0
    man = json.loads(out.read_text())
    assert set(man) == {
        "RTD", "RTD_IN", "DMT_OUT", "CC", "CCP", "RTD_CC", "JIANG", "RTD_JIANG", "MARIC"
    }
    assert [c["label"] for c in man["RTD"]["constraints"]][:3] == ["1a", "1b", "1c"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0e2ca6f6ea37c85f2147c0384c35d2bb1eb19f46046287e315e794f6d89210d2"
    )


def test_manifest_single_schema(tmp_path):
    out = tmp_path / "rtd.json"
    assert main(["manifest", "--schema", "RTD", "--out", str(out)]) == 0
    man = json.loads(out.read_text())
    assert man["id"] == "RTD"
