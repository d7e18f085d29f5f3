"""Command-line front end.

Subcommands: validate a channel file, project a schema at a distribution,
trace a frontier, run verification suites, and dump the audit manifest.
All randomness flows from the explicit --seed flag; identical invocations
produce byte-identical artifacts.  Exit codes: 0 ok, 1 violation found,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channel import load_channel
from .errors import CifcError
from .polytope import polytope_to_json, project_or_empty, vertices_csv
from .probability import extend_through_channel, load_joint
from .regions import SCHEMA_IDS, builtin_schema, catalog_manifest, instantiate, schema_manifest
from .verify import SUITE_NAMES, reports_to_json, run_suite, trace_frontier


def _dump_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    ch = load_channel(args.channel)
    print(f"{args.channel}: valid channel {ch.shape}")
    return 0


def _cmd_project(args) -> int:
    ch = load_channel(args.channel)
    schema = builtin_schema(args.schema)
    d = load_joint(args.dist)
    d = extend_through_channel(d, ch)
    poly = project_or_empty(instantiate(schema, d))
    if poly.is_empty:
        print(f"note: {args.schema} region is empty at this distribution")
    out = args.out or "polytope.json"
    _dump_json(polytope_to_json(poly), out)
    csv_path = Path(out).with_suffix(".csv")
    csv_path.write_text(vertices_csv(poly))
    print(f"wrote {out} and {csv_path} ({len(poly.vertices)} vertices)")
    return 0


def _cmd_frontier(args) -> int:
    ch = load_channel(args.channel)
    result = trace_frontier(args.schema, ch, budget=args.samples, seed=args.seed, lambdas=args.grid)
    out = args.out or "frontier.csv"
    Path(out).write_text(result.to_csv())
    summary = f"{len(result.points)} points, {len(result.pareto)} on the frontier"
    if result.missing:
        lams = ", ".join(f"{lam:g}" for lam in result.missing)
        summary += f"; no feasible point for lambda {lams}"
        print(f"warning: {args.schema}: no feasible point found for lambda {lams}; "
              "raise --samples", file=sys.stderr)
    print(f"wrote {out} ({summary})")
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, samples=args.samples, seed=args.seed)
    payload = reports_to_json(reports)
    _dump_json(payload, args.out)
    for r in reports:
        for c in r.checks:
            status = "ok" if c.ok else "FAIL"
            print(f"[{status}] {r.suite}: {c.check_id} "
                  f"(seeds={c.seeds_run}, max|v|={c.max_abs_violation:.3e})")
    return 0 if payload["ok"] else 1


def _cmd_manifest(args) -> int:
    if args.schema:
        payload = schema_manifest(builtin_schema(args.schema))
    else:
        payload = catalog_manifest()
    _dump_json(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cifc",
        description="Rate regions for the two-user cognitive interference channel.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a channel JSON file")
    v.add_argument("--channel", required=True)
    v.set_defaults(func=_cmd_validate)

    pr = sub.add_parser("project", help="project a schema onto the (R1,R2) plane")
    pr.add_argument("--schema", required=True, choices=SCHEMA_IDS)
    pr.add_argument("--channel", required=True)
    pr.add_argument("--dist", required=True, help="joint distribution JSON (pre-channel)")
    pr.add_argument("--out", default=None, help="output JSON path (CSV written alongside)")
    pr.set_defaults(func=_cmd_project)

    fr = sub.add_parser("frontier", help="trace the Pareto frontier over distributions")
    fr.add_argument("--schema", required=True, choices=SCHEMA_IDS)
    fr.add_argument("--channel", required=True)
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--samples", type=int, default=2000,
                    help="objective evaluations per lambda")
    fr.add_argument("--grid", type=int, default=21, help="lambda grid size")
    fr.add_argument("--out", default=None)
    fr.set_defaults(func=_cmd_frontier)

    ve = sub.add_parser("verify", help="run a verification suite")
    ve.add_argument("--suite", required=True, choices=SUITE_NAMES)
    ve.add_argument("--samples", type=int, default=200)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--out", default=None, help="report JSON path")
    ve.set_defaults(func=_cmd_verify)

    ma = sub.add_parser("manifest", help="dump the constraint audit manifest")
    ma.add_argument("--schema", default=None, choices=SCHEMA_IDS)
    ma.add_argument("--out", default=None)
    ma.set_defaults(func=_cmd_manifest)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (CifcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
