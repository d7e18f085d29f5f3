"""One benchmark unit in a fresh process: set up, run one workload, check it.

Started by `bench/run.py`, never imported.  Prints one JSON object as its
last line of standard output:

    {"setup_s", "wall_s", "probe_s", "slice_s", "peak_rss_mb", "items",
     "digest", "gap_bits", "trace"}

`wall_s` includes `probe_s`, the time the speed probe took during the work
(see speed.py); `slice_s` is the probe's median slice time.

`items` holds one boolean per output item (True when the item passed its
check); `digest` is the sha256 of the workload's artifact, which must not
change between units that share a seed.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here: before numpy or cifc load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed work per unit.  "tiny" is for the smoke test only.
SIZES = {
    "full": {
        "verify-all": {"samples": 100},
        "frontier-rtd": {"budget": 200, "grid": 5},
        "oracle-grid": {"instances": 10, "grid": 21},
    },
    "tiny": {
        "verify-all": {"samples": 3},
        "frontier-rtd": {"budget": 40, "grid": 2},
        "oracle-grid": {"instances": 1, "grid": 5},
    },
}

BOX_TOL = 1e-9  # capacity box slack for frontier points


def _strict_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def _run_cli(argv: list[str]) -> int:
    import cifc.cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cifc.cli.main(argv)


# --- verify-all: the claim-checking path through the CLI ---------------------


def setup_verify_all(seed: int, size: dict, tmp: Path) -> dict:
    out = tmp / f"verify-{os.getpid()}.json"
    argv = ["verify", "--suite", "all", "--samples", str(size["samples"]),
            "--seed", str(seed), "--out", str(out)]
    return {"argv": argv, "out": out, "items": 1}


def run_verify_all(inputs: dict):
    return _run_cli(inputs["argv"])


def check_verify_all(inputs: dict, code) -> tuple[list[bool], str, None]:
    """One item: exit code 0, a strict-JSON report, and `ok` true."""
    raw = inputs["out"].read_bytes()
    inputs["out"].unlink()
    try:
        report = json.loads(raw, parse_constant=_strict_constant)
    except ValueError as exc:
        print(f"verify-all: report is not strict JSON: {exc}", file=sys.stderr)
        report = {}
    ok = code == 0 and report.get("ok") is True
    return [ok], hashlib.sha256(raw).hexdigest(), None


# --- frontier-rtd: the frontier search on the noiseless channel --------------


def setup_frontier_rtd(seed: int, size: dict, tmp: Path) -> dict:
    from cifc.channel import canonical_channel, save_channel

    channel = tmp / f"channel-{os.getpid()}.json"
    save_channel(canonical_channel("orthogonal_noiseless"), channel)
    out = tmp / f"frontier-{os.getpid()}.csv"
    argv = ["frontier", "--schema", "RTD", "--channel", str(channel),
            "--samples", str(size["budget"]), "--grid", str(size["grid"]),
            "--seed", str(seed), "--out", str(out)]
    return {"argv": argv, "out": out, "channel": channel, "grid": size["grid"],
            "items": size["grid"]}


def run_frontier_rtd(inputs: dict):
    return _run_cli(inputs["argv"])


def check_frontier_rtd(inputs: dict, code) -> tuple[list[bool], str, float | None]:
    """One item per lambda: exactly one point, inside [0, 1]^2 + BOX_TOL.

    The gap is the mean over lambda of 1 - (lambda R1 + (1 - lambda) R2),
    the distance of the best point found from the known optimum, the
    corner (1, 1) of the noiseless channel's capacity region.
    """
    raw = inputs["out"].read_bytes()
    inputs["out"].unlink()
    inputs["channel"].unlink()
    grid = inputs["grid"]
    lambdas = [k / (grid - 1) for k in range(grid)] if grid > 1 else [0.0]
    lines = raw.decode().strip().splitlines()
    points = []
    if code == 0 and lines and lines[0] == "lambda,R1,R2,seed":
        points = [tuple(float(v) for v in ln.split(",")[:3]) for ln in lines[1:]]
    items, gaps = [], []
    for lam in lambdas:
        found = [(r1, r2) for pl, r1, r2 in points if abs(pl - lam) <= 1e-9]
        ok = len(found) == 1 and all(-BOX_TOL <= r <= 1 + BOX_TOL for r in found[0])
        items.append(ok)
        if found:
            gaps.append(1.0 - (lam * found[0][0] + (1.0 - lam) * found[0][1]))
    gap = sum(gaps) / len(gaps) if gaps else None
    return items, hashlib.sha256(raw).hexdigest(), gap


# --- oracle-grid: eliminator vs enumeration oracle on membership grids -------


def setup_oracle_grid(seed: int, size: dict, tmp: Path) -> dict:
    from cifc.regions import SCHEMA_IDS

    return {"schemas": list(SCHEMA_IDS), "instances": size["instances"],
            "seed": seed, "grid": size["grid"], "items": len(SCHEMA_IDS)}


def run_oracle_grid(inputs: dict):
    import cifc.verify

    return cifc.verify.check_fme_oracle(
        inputs["schemas"], instances=inputs["instances"], seed=inputs["seed"],
        grid=inputs["grid"],
    )


def check_oracle_grid(inputs: dict, report) -> tuple[list[bool], str, None]:
    """One item per schema: its eliminator-vs-oracle check is ok."""
    from cifc.verify import reports_to_json

    payload = reports_to_json([report])
    raw = json.dumps(payload, sort_keys=True).encode()
    items = [check["ok"] is True for check in payload["suites"][0]["checks"]]
    if len(items) != inputs["items"]:
        items = [False] * inputs["items"]
    return items, hashlib.sha256(raw).hexdigest(), None


WORKLOADS = {
    "verify-all": (setup_verify_all, run_verify_all, check_verify_all),
    "frontier-rtd": (setup_frontier_rtd, run_frontier_rtd, check_frontier_rtd),
    "oracle-grid": (setup_oracle_grid, run_oracle_grid, check_oracle_grid),
}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True)
    args = p.parse_args()

    # Build from the checkout's own source tree, never from an installed copy.
    sys.path.insert(0, str(SRC))
    import cifc
    import cifc.cli  # noqa: F401  (the CLI is part of the package a user loads)
    from cifc.regions import SCHEMA_IDS, builtin_schema

    if Path(cifc.__file__).resolve().parent != SRC / "cifc":
        print(f"error: imported cifc from {cifc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for sid in SCHEMA_IDS:
        builtin_schema(sid)
    setup, run, check = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    inputs = setup(args.seed, size, args.tmp)
    setup_s = time.perf_counter() - _T0

    from speed import SpeedProbe
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    probe = SpeedProbe(on_slice=tracer.exclude if tracer else None)
    wall_s = None
    try:
        with probe:
            if tracer:
                tracer.install()
            start = time.perf_counter()
            outcome = run(inputs)
            wall_s = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        items, digest, gap = check(inputs, outcome)
    except Exception:
        # an exception fails every item of the unit
        traceback.print_exc()
        items, digest, gap = [False] * inputs["items"], None, None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_s": sum(probe.work_slices),
        "slice_s": probe.slice_s(),
        "peak_rss_mb": peak_rss_mb,
        "items": items,
        "digest": digest,
        "gap_bits": gap,
        "trace": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
