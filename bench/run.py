"""Benchmark for the cifc rate-region engine.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` of them, one after another) closed loop: a single
caller starts a fresh worker process, waits for its result, and starts the
next one until `--seconds` have passed (at least MIN_UNITS units).  Each
worker imports cifc from this checkout's `src/`, sets up, runs the
workload's fixed work once and checks its output.  Set-up time, work time
and peak RSS are the medians over the units.  Set-up and work time are
rescaled to the reference host's speed by a probe that samples the host
while the work runs (see speed.py); their raw medians are printed too.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics named in BENCHMARK.json; with `--trace 1` it has the
per-layer metrics instead, from units traced at cifc's module boundaries
(see tracing.py), alternated with untraced units so that the tracing
overhead is measured in the same run.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "cifc"
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-all", "frontier-rtd", "oracle-grid")
MIN_UNITS = {0: 3, 1: 4}  # by --trace: the traced run needs two units of each kind
# A workload's units all end within this many seconds (a late unit is
# stopped and counts as failed), so a run ends inside three minutes.
RUN_LIMIT_S = 165.0
# Mean slice time of the speed probe (speed.py) on the reference host,
# 2 vCPUs with Python 3.11.7 and numpy 2.4.6; it only scales the reported times.
SLICE_REF_S = 0.002
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def worker_env() -> tuple[dict[str, str], int]:
    """The workers' environment, with BLAS/OpenMP pools capped at nproc.

    The oracle's batched det/solve would otherwise let a BLAS library size
    its pool from a host that has more cores than this process may use.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc)
    return env, nproc


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args: argparse.Namespace, nproc: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "src_sha256": sources.hexdigest(),
        "nproc": nproc,
        "blas_threads": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_unit(workload: str, seed: int, size: str, traced: bool, tmp: Path,
             env: dict, timeout: float) -> dict:
    """Start one worker, wait for it, and return its parsed result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(traced)), "--tmp", str(tmp)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker stopped after {timeout:.0f} s", file=sys.stderr)
        return {"items": [False], "error": True}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with {proc.returncode}", file=sys.stderr)
        return {"items": [False], "error": True}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str,
                 tmp: Path, env: dict) -> list[dict]:
    """Closed loop: one unit at a time until `seconds` have passed."""
    units: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while len(units) < MIN_UNITS[trace] or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        if units and t - start + last > RUN_LIMIT_S:
            break
        traced = bool(trace) and len(units) % 2 == 1
        unit = run_unit(workload, seed, size, traced, tmp, env,
                        timeout=RUN_LIMIT_S - (t - start))
        unit["traced"] = traced
        units.append(unit)
        last = time.perf_counter() - t
        if unit.get("error"):
            break
    return units


def _at_ref_speed(seconds: float, unit: dict) -> float:
    """`seconds` measured in `unit`, rescaled to the reference host's speed.

    They are scaled by the probe's mean slice time on the reference host
    over its mean slice time in this unit, so a change in host speed that
    slows kernel and cifc alike cancels out.
    """
    return seconds * SLICE_REF_S / unit["slice_s"]


def _wall_ref_s(unit: dict) -> float:
    """The unit's work time, without the probe's own time, at reference speed."""
    return _at_ref_speed(unit["wall_s"] - unit["probe_s"], unit)


def summarize(workload: str, units: list[dict], trace: int,
              end_to_end: dict[str, str], per_layer: dict[str, str]) -> dict:
    """Apply the cross-unit checks and reduce the units to the result object.

    Besides the result's own keys, `notes` holds (name, value, unit, comment)
    lines printed for readers only.
    """
    problems = []
    ran = [u for u in units if not u.get("error")]
    attempted = sum(len(u["items"]) for u in units)
    failed = sum(not ok for u in units for ok in u["items"])
    digests = {u["digest"] for u in ran if u["digest"]}
    if len(digests) > 1:
        problems.append(f"artifact differs between units with one seed: {sorted(map(str, digests))}")
        failed = attempted
    done = [u for u in ran if u["wall_s"] is not None]
    plain = [u for u in done if not u["traced"]]
    traced = [u for u in done if u["traced"]]
    notes = [("error_frac", failed / attempted, "ratio", f"{failed} of {attempted} items failed")]
    metrics: dict[str, dict] = {}
    if plain:
        raw = [u["wall_s"] for u in plain]
        values = {
            "setup_s": statistics.median(_at_ref_speed(u["setup_s"], u) for u in ran),
            "wall_ref_s": statistics.median(_wall_ref_s(u) for u in plain),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in plain),
        }
        notes.append(("wall_s", statistics.median(raw), "s",
                      f"raw; {min(raw):.4g} to {max(raw):.4g} over {len(raw)} units"))
        notes.append(("setup_raw_s", statistics.median(u["setup_s"] for u in ran), "s", "raw"))
        notes.append(("probe_slice_s", statistics.median(u["slice_s"] for u in plain), "s",
                      f"host-speed probe; {SLICE_REF_S} s on the reference host"))
        gaps = {u["gap_bits"] for u in plain if u["gap_bits"] is not None}
        notes.extend(("frontier_gap_bits", g, "bits", "mean over lambda") for g in gaps)
        if not trace:
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in end_to_end.items() if name in values}
            missing = sorted(set(end_to_end) - set(values))
            if missing:
                problems.append(f"end-to-end metrics not measured: {missing}")
    if trace and traced and plain:
        layer = {}
        for key in traced[0]["trace"]:
            samples = [u["trace"][key] for u in traced]
            if key.endswith("self_s"):
                layer[key] = statistics.median(samples)
            elif len(set(samples)) > 1:
                problems.append(f"count {key} differs between traced units: {samples}")
            else:
                layer[key] = samples[0]
        layer["trace.wall_s"] = statistics.median(u["wall_s"] for u in traced)
        layer["trace.overhead_frac"] = (
            statistics.median(_wall_ref_s(u) for u in traced)
            / statistics.median(_wall_ref_s(u) for u in plain) - 1.0
        )
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer.items() if name in layer}
        missing = sorted(set(per_layer) - set(layer))
        if missing:
            problems.append(f"per-layer metrics not measured: {missing}")
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "units": len(units),
        "notes": notes,
    }


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric by name, value and unit."""
    print(f"{workload}: medians over {result['units']} units")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {_fmt(m['value'])} {m['unit']}")
    for name, value, unit, comment in result["notes"]:
        print(f"  {name:<44} {_fmt(value)} {unit}  ({comment})")


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minimal work per unit, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    if not (SRC / "__init__.py").is_file():
        print(f"error: no cifc source tree at {SRC}", file=sys.stderr)
        return 2
    try:
        end_to_end, per_layer = load_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind like on Ctrl-C: subprocess.run kills and reaps the
    # running worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, _stop)
    env, nproc = worker_env()
    print("environment " + json.dumps(environment(args, nproc), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        results = {}
        for w in workloads:
            units = run_workload(w, args.seed, args.seconds, args.trace, args.size, tmp, env)
            results[w] = summarize(w, units, args.trace, end_to_end, per_layer)
            report(w, results[w])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
