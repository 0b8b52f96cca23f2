"""Command-line front-end.

Subcommands: optimality, generate, verify, synth, export-dot.  All output
is deterministic for identical inputs and flags.  `verify` also prints the
schedule's witness cut, which certifies its bound from the topology alone.

Exit codes: 0 success; 1 usage, parse, validation and pipeline errors;
2 oracle disagreement (optimality --brute-force) or failed verification
(verify); 3 self-validation failure in generate.  Exit 3 is expected today
for a reduce-scatter or allreduce on a network where some link has no
equal reverse twin: the reversed schedule overdraws or invents links.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import CollschedError
from .optimality import bottleneck_search
from .pipeline import COLLECTIVES, generate
from .schedule import export, fraction_text, parse_schedule
from .topology import parse_topology, serialize_topology, synth_topology
from .verify import brute_force_bottleneck, validate_schedule


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CollschedError(f"cannot read {path}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CollschedError(f"cannot write {path}: {exc}") from None


def _positive_int(text: str) -> int:
    # Only plain ASCII digits, as in _parse_param: int() would also take
    # "1_0", "+2", " 2" and non-ASCII digits.
    if not re.fullmatch(r"[0-9]+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's own 2 means failed verification here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="collsched",
        description="Throughput-optimal collective communication schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def topology_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("-t", "--topology", required=True, help="topology JSON file")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("optimality", help="optimal throughput ratio of a topology")
    topology_arg(p)
    p.add_argument("--brute-force", action="store_true",
                   help="also run the exhaustive cut oracle and compare")
    common(p)

    p = sub.add_parser("generate", help="generate a collective schedule")
    topology_arg(p)
    p.add_argument("-o", "--output", help="schedule file (default: stdout)")
    p.add_argument(
        "--collective",
        choices=[c.replace("_", "-") for c in COLLECTIVES],
        default="allgather",
    )
    p.add_argument("--fixed-k", type=_positive_int, metavar="K",
                   help="force exactly K trees per root")
    common(p)

    p = sub.add_parser("verify", help="validate a schedule against a topology")
    topology_arg(p)
    p.add_argument("schedule", help="schedule JSON file")
    common(p)

    p = sub.add_parser("synth", help="generate a topology from a named family")
    p.add_argument("family", help="boxes | ring | fat-tree")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="family parameter (repeatable), e.g. --param boxes=2")
    p.add_argument("-o", "--output", help="topology file (default: stdout)")

    p = sub.add_parser("export-dot", help="render a schedule's trees as DOT")
    p.add_argument("schedule", help="schedule JSON file")
    p.add_argument("-o", "--output", help="DOT file (default: stdout)")

    return parser


def cmd_optimality(args) -> int:
    t = parse_topology(_read(args.topology))
    result = bottleneck_search(t)
    doc = {
        "inv_x_star": fraction_text(result.inv_x_star),
        "U": fraction_text(result.U),
        "k": result.k,
        "y": fraction_text(result.y),
        "iterations": result.search_iterations,
        "cut": sorted(result.witness),
    }
    agree = True
    if args.brute_force:
        oracle, witness = brute_force_bottleneck(t)
        agree = oracle == result.inv_x_star
        doc["brute_force"] = fraction_text(oracle)
        doc["witness"] = sorted(witness.S)
        doc["agreement"] = agree
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"1/x* = {doc['inv_x_star']}, k = {doc['k']}, y = {doc['y']}"
        )
        print(f"U = {doc['U']}, iterations = {doc['iterations']}")
        print(f"cut = {{{', '.join(doc['cut'])}}}")
        if args.brute_force:
            members = ", ".join(doc["witness"])
            print(f"brute force = {doc['brute_force']}, witness = {{{members}}}")
            print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 2


def cmd_generate(args) -> int:
    t = parse_topology(_read(args.topology))
    s, meta = generate(
        t,
        collective=args.collective.replace("-", "_"),
        fixed_k=args.fixed_k,
    )
    report = validate_schedule(s, t, meta)
    if not report.ok:
        print("error: generated schedule failed self-validation:", file=sys.stderr)
        for v in report.violations:
            print(f"  {v.kind}: {v.detail}", file=sys.stderr)
        print(
            f"  achieved {fraction_text(report.achieved_T_comm)} vs bound {fraction_text(report.bound_T_comm)}",
            file=sys.stderr,
        )
        return 3
    _write(args.output, export(s, "json"))
    summary = {
        "collective": s.collective,
        "inv_x_star": fraction_text(s.inv_x_star),
        "k": s.k,
        "U": fraction_text(s.U),
        "y": fraction_text(s.y),
        "time_per_unit": fraction_text(report.achieved_T_comm),
        "self_validation": "ok",
        "output": args.output,
    }
    out = sys.stdout if args.output is not None else sys.stderr
    if args.json:
        print(json.dumps(summary, indent=2), file=out)
    else:
        print(
            f"{s.collective}: 1/x* = {summary['inv_x_star']}, k = {s.k}, "
            f"time = {summary['time_per_unit']} per unit",
            file=out,
        )
        print("self-validation: ok", file=out)
        if args.output is not None:
            print(f"wrote {args.output}", file=out)
    return 0


def cmd_verify(args) -> int:
    t = parse_topology(_read(args.topology))
    s = parse_schedule(_read(args.schedule))
    report = validate_schedule(s, t)
    cut = sorted(s.witness)
    if args.json:
        print(json.dumps(dict(report.to_dict(), cut=cut), indent=2))
    else:
        print("ok" if report.ok else "FAIL")
        for v in report.violations:
            print(f"  {v.kind}: {v.detail}")
        print(f"achieved T_comm = {fraction_text(report.achieved_T_comm)} per unit")
        print(f"bound T_comm = {fraction_text(report.bound_T_comm)} per unit")
        print(f"cut = {{{', '.join(cut)}}}")
    return 0 if report.ok else 2


def _parse_param(text: str):
    if "=" not in text:
        raise CollschedError(f"--param expects KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    # Only plain ASCII integers; anything else stays a string, which
    # synth_topology refuses.
    if re.fullmatch(r"-?[0-9]+", raw):
        return key, int(raw)
    return key, raw


def cmd_synth(args) -> int:
    params = dict(_parse_param(p) for p in args.param)
    _write(args.output, serialize_topology(synth_topology(args.family, **params)))
    return 0


def cmd_export_dot(args) -> int:
    _write(args.output, export(parse_schedule(_read(args.schedule)), "dot"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "optimality": cmd_optimality,
        "generate": cmd_generate,
        "verify": cmd_verify,
        "synth": cmd_synth,
        "export-dot": cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except CollschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
