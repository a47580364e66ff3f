"""Command line interface tying the toolkit together.

Five subcommands: ``generate`` emits the multicurve of a family
instance, ``verify`` recomputes the claimed quantities of an instance,
``certify`` evaluates the lower-bound conditions on hand-encoded planar
pieces, ``facewidth`` reports genus and face width of an embedded graph,
and ``bounds`` propagates attribute intervals from tags and seed facts.

Every subcommand except ``generate`` prints a versioned run report
(schema ``run-report/1``) as JSON on standard output, or as indented
text with ``--pretty``.  Exit codes form a stable contract: 0 for
success, 1 for a failed check or a contradiction, 2 for unusable input.

Each subcommand reads, then reports.  The read step decodes and
validates the input (``certify_pieces`` and ``propagate`` validate, so
they run there) and raises OSError, ValueError or TypeError on unusable
input.  The report step returns the report body and whether it passed;
``generate`` prints its curve and returns None.  :func:`main` owns the
clock, the ``error:`` line and exit 2 of a failed read, the verdict and
exit 0 or 1.  An exception from a report step, on input that decoded,
is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from surfrep.bounds import Contradiction, Interval, SubjectTags, propagate
from surfrep.certificate import Certificate, certify_pieces
from surfrep.facewidth import RotationSystem, face_width
from surfrep.families import Check, FamilyInstance, parse_family, verify_family
from surfrep.smoothing import PlanarPiece
from surfrep.surface import _ascii_int, _strict_int

__all__ = ["build_parser", "main"]

SCHEMA = "run-report/1"

_OK, _FAIL, _USAGE = 0, 1, 2


def _emit(report: dict[str, Any], pretty: bool) -> None:
    if not pretty:
        print(json.dumps(report))
        return
    lines = ["command: " + " ".join(report["command"])]
    if report["inputs"]:
        lines.append("inputs:")
        lines.extend(_render("  ", report["inputs"]))
    if report["checks"]:
        lines.append("checks:")
        for check in report["checks"]:
            mark = "ok  " if check["pass"] else "FAIL"
            lines.append(
                f"  {mark} {check['name']}: expected {check['expected']}, got {check['actual']}"
            )
    if report["results"]:
        lines.append("results:")
        lines.extend(_render("  ", report["results"]))
    lines.append(f"verdict: {report['verdict']} ({report['duration_seconds']}s)")
    print("\n".join(lines))


def _render(pad: str, mapping: dict[str, Any]) -> list[str]:
    lines = []
    for key, value in mapping.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render(pad + "  ", value))
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _load_json(path: str) -> Any:
    try:
        with open(path) as file:
            return json.load(file)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply") from None


#-- Subcommands: read, then report --#

Body = dict[str, Any]


def _read_family(args: argparse.Namespace) -> FamilyInstance:
    return parse_family(args.family)


def _report_generate(args: argparse.Namespace, inst: FamilyInstance) -> None:
    print(json.dumps(inst.curve.to_json(), indent=2 if args.pretty else None))


def _report_verify(args: argparse.Namespace, inst: FamilyInstance) -> tuple[Body, bool]:
    family = verify_family(inst)
    body = {
        "command": ["verify", args.family],
        "inputs": {"family": family.family, "extrapolated": family.extrapolated},
        "checks": [c.to_json() for c in family.checks],
    }
    return body, family.passed


def _read_certify(args: argparse.Namespace) -> Certificate:
    raw = _load_json(args.pieces)
    if isinstance(raw, dict):
        items, file_n = raw.get("pieces"), raw.get("n")
    else:
        items, file_n = raw, None
    if not isinstance(items, list):
        raise ValueError("piece file must hold a list of pieces")
    pieces = [PlanarPiece.from_json(item) for item in items]
    if file_n is not None:
        file_n = _strict_int(file_n, "stored n")
    n = file_n if args.n is None else args.n
    if n is None:
        raise ValueError("no certificate level: pass --n or store n in the file")
    return certify_pieces(pieces, n)


def _report_certify(args: argparse.Namespace, cert: Certificate) -> tuple[Body, bool]:
    body = {
        "command": ["certify", args.pieces],
        "inputs": {"file": args.pieces, "n": cert.n},
        "checks": [
            Check(f"{piece.piece_id} {name}", f">= {cert.n}", value, value >= cert.n).to_json()
            for piece in cert.pieces
            for name, value in piece.conditions()
        ],
        "results": {"lower_bound_holds": cert.lower_ok},
    }
    return body, cert.lower_ok


def _read_facewidth(args: argparse.Namespace) -> RotationSystem:
    rs = RotationSystem.from_json(_load_json(args.map))
    rs.genus()  # a disconnected map has no genus: unusable input
    return rs


def _report_facewidth(args: argparse.Namespace, rs: RotationSystem) -> tuple[Body, bool]:
    width = face_width(rs)
    body = {
        "command": ["facewidth", args.map],
        "inputs": {"file": args.map},
        "results": {
            "genus": rs.genus(),
            "face_width": "infinite" if width == math.inf else width,
        },
    }
    return body, True


def _level(text: str) -> int:
    """The ``--n`` value; argparse reports a bad one with the option's name."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_seeds(items: Sequence[str]) -> dict[str, Fraction]:
    """Seeds ``name=p`` or ``name=p/q``: ASCII integers, q unsigned, spaces
    allowed around ``=``."""
    seeds: dict[str, Fraction] = {}
    for item in items:
        name, eq, raw = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ValueError(f"seed {item!r} must look like b=3 or bs=7/2")
        if name in seeds:
            raise ValueError(f"duplicate seed for {name!r}")
        p, slash, q = raw.strip().partition("/")
        try:
            # a sign belongs on p alone, as Fraction() has it
            if q.startswith("-"):
                raise ValueError
            seeds[name] = Fraction(_ascii_int(p), _ascii_int(q) if slash else 1)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"seed value {raw!r} is not a rational number") from None
    return seeds


#: tags, seeds, and their facts or the contradiction they reach (a result, not bad input)
Bounds = tuple[SubjectTags, dict[str, Fraction], dict[str, Interval] | Contradiction]


def _read_bounds(args: argparse.Namespace) -> Bounds:
    tags = SubjectTags.from_strings(args.tag)
    seeds = _parse_seeds(args.seed)
    try:
        return tags, seeds, propagate(tags, seeds)
    except Contradiction as exc:
        return tags, seeds, exc


def _report_bounds(args: argparse.Namespace, read: Bounds) -> tuple[Body, bool]:
    tags, seeds, facts = read
    body: Body = {
        "command": ["bounds", *(f"--tag {t}" for t in tags.labels()),
                    *(f"--seed {k}={v}" for k, v in sorted(seeds.items()))],
        "inputs": {
            "tags": list(tags.labels()),
            "seeds": {k: str(v) for k, v in sorted(seeds.items())},
        },
    }
    if isinstance(facts, Contradiction):
        body["results"] = {
            "contradiction": {
                "attribute": facts.attribute,
                "lo": str(facts.lo),
                "hi": str(facts.hi),
                "rules": list(facts.rules),
            }
        }
        return body, False
    display = {}
    for name, iv in facts.items():
        lo, hi = iv.integer_hull()
        display[name] = f"[{lo}, {hi}]" if hi is not None else f"[{lo}, inf)"
    body["results"] = {"facts": {k: iv.to_json() for k, iv in facts.items()}, "display": display}
    return body, True


#-- Entry point --#

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfrep",
        description="curve families on closed surfaces: generation, certificates, "
        "face width, and interval bounds",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, read, report, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--pretty", action="store_true", help="indented text instead of JSON"
        )
        p.set_defaults(read=read, report=report)
        return p

    generate = command("generate", _read_family, _report_generate,
                       "emit the multicurve of a family instance")
    generate.add_argument("family", help="family string, e.g. torus:3,5 or lpq:2,7")

    verify = command("verify", _read_family, _report_verify,
                     "recompute the claimed quantities of an instance")
    verify.add_argument("family", help="family string, e.g. exactly:4,2")

    certify = command("certify", _read_certify, _report_certify,
                      "check the lower-bound conditions on stored pieces")
    certify.add_argument("pieces", help="JSON file with planar pieces")
    certify.add_argument("--n", type=_level, help="certificate level, overrides the file")

    facewidth = command("facewidth", _read_facewidth, _report_facewidth,
                        "genus and face width of an embedded graph")
    facewidth.add_argument("map", help="rotation system JSON file")

    bounds = command("bounds", _read_bounds, _report_bounds,
                     "propagate attribute intervals from tags and seeds")
    bounds.add_argument(
        "--tag", action="append", default=[], metavar="NAME[=P,Q]",
        help="subject tag, repeatable (e.g. torus_knot=3,5)",
    )
    bounds.add_argument(
        "--seed", action="append", default=[], metavar="ATTR=VALUE",
        help="known exact value, repeatable (e.g. b=3)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        read = args.read(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    # an error raised from here on, on input that decoded, is a bug and not exit 2
    outcome = args.report(args, read)
    if outcome is None:
        return _OK
    body, passed = outcome
    # the key order is part of the output; a body fills the slots it has
    report = {"schema": SCHEMA, "command": [], "inputs": {}, "checks": [], "results": {},
              **body, "verdict": "pass" if passed else "fail",
              "duration_seconds": round(time.perf_counter() - started, 6)}
    _emit(report, args.pretty)
    return _OK if passed else _FAIL


if __name__ == "__main__":
    raise SystemExit(main())
