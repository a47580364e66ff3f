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
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from surfrep.bounds import ATTRIBUTES, Contradiction, SubjectTags, propagate
from surfrep.certificate import certify_pieces
from surfrep.facewidth import RotationSystem, face_width
from surfrep.families import parse_family, verify_family
from surfrep.smoothing import PlanarPiece
from surfrep.surface import _json_int

__all__ = ["build_parser", "main"]

SCHEMA = "run-report/1"

_OK, _FAIL, _USAGE = 0, 1, 2


def _fail_usage(problem: str | Exception) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return _USAGE


def _report(command: list[str], inputs: dict[str, Any]) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "checks": [],
        "results": {},
        "verdict": "pass",
    }


def _emit(report: dict[str, Any], started: float, pretty: bool) -> None:
    report["duration_seconds"] = round(time.perf_counter() - started, 6)
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
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply") from None


#-- Subcommands --#

def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        inst = parse_family(args.family)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps(inst.curve.to_json(), indent=2 if args.pretty else None))
    return _OK


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        inst = parse_family(args.family)
    except ValueError as exc:
        return _fail_usage(str(exc))
    family = verify_family(inst)
    report = _report(
        ["verify", args.family],
        {"family": family.family, "extrapolated": family.extrapolated},
    )
    report["checks"] = [c.to_json() for c in family.checks]
    report["verdict"] = "pass" if family.passed else "fail"
    _emit(report, started, args.pretty)
    return _OK if family.passed else _FAIL


def _cmd_certify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        raw = _load_json(args.pieces)
        if isinstance(raw, dict):
            items, file_n = raw.get("pieces"), raw.get("n")
        else:
            items, file_n = raw, None
        if not isinstance(items, list):
            raise ValueError("piece file must hold a list of pieces")
        pieces = [PlanarPiece.from_json(item) for item in items]
        if file_n is not None:
            file_n = _json_int(file_n, "stored n")
        n = file_n if args.n is None else args.n
        if n is None:
            raise ValueError("no certificate level: pass --n or store n in the file")
        certificate = certify_pieces(pieces, n)
    except (OSError, ValueError, TypeError) as exc:
        return _fail_usage(exc)
    report = _report(["certify", args.pieces], {"file": args.pieces, "n": n})
    for piece in certificate.pieces:
        report["checks"].append(
            {
                "name": f"{piece.piece_id} loop minimum",
                "expected": f">= {n}",
                "actual": piece.loop_min,
                "pass": piece.loop_min >= n,
            }
        )
        if piece.arc_min is not None:
            report["checks"].append(
                {
                    "name": f"{piece.piece_id} doubled arc minimum",
                    "expected": f">= {n}",
                    "actual": 2 * piece.arc_min,
                    "pass": 2 * piece.arc_min >= n,
                }
            )
    report["results"] = {"lower_bound_holds": certificate.lower_ok}
    report["verdict"] = "pass" if certificate.lower_ok else "fail"
    _emit(report, started, args.pretty)
    return _OK if certificate.lower_ok else _FAIL


def _cmd_facewidth(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        rs = RotationSystem.from_json(_load_json(args.map))
        genus = rs.genus()
    except (OSError, ValueError, TypeError) as exc:
        return _fail_usage(exc)
    width = face_width(rs)
    report = _report(["facewidth", args.map], {"file": args.map})
    report["results"] = {
        "genus": genus,
        "face_width": "infinite" if width == math.inf else width,
    }
    _emit(report, started, args.pretty)
    return _OK


def _parse_seeds(items: Sequence[str]) -> dict[str, Fraction]:
    seeds: dict[str, Fraction] = {}
    for item in items:
        name, eq, raw = item.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ValueError(f"seed {item!r} must look like b=3 or bs=7/2")
        if name in seeds:
            raise ValueError(f"duplicate seed for {name!r}")
        try:
            seeds[name] = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"seed value {raw!r} is not a rational number") from None
    return seeds


def _cmd_bounds(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    contradiction = None
    try:
        tags = SubjectTags.from_strings(args.tag)
        seeds = _parse_seeds(args.seed)
        facts = propagate(tags, seeds)
    except Contradiction as exc:
        contradiction = exc
    except ValueError as exc:
        return _fail_usage(str(exc))
    report = _report(
        ["bounds", *(f"--tag {t}" for t in tags.labels()),
         *(f"--seed {k}={v}" for k, v in sorted(seeds.items()))],
        {
            "tags": list(tags.labels()),
            "seeds": {k: str(v) for k, v in sorted(seeds.items())},
        },
    )
    if contradiction is not None:
        report["results"] = {
            "contradiction": {
                "attribute": contradiction.attribute,
                "lo": str(contradiction.lo),
                "hi": str(contradiction.hi),
                "rules": list(contradiction.rules),
            }
        }
        report["verdict"] = "fail"
        _emit(report, started, args.pretty)
        return _FAIL
    display = {}
    for name in ATTRIBUTES:
        lo, hi = facts[name].integer_hull()
        display[name] = f"[{lo}, {hi}]" if hi is not None else f"[{lo}, inf)"
    report["results"] = {"facts": facts.to_json()["facts"], "display": display}
    _emit(report, started, args.pretty)
    return _OK


#-- Entry point --#

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfrep",
        description="curve families on closed surfaces: generation, certificates, "
        "face width, and interval bounds",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--pretty", action="store_true", help="indented text instead of JSON"
        )
        p.set_defaults(func=func)
        return p

    generate = command("generate", _cmd_generate, "emit the multicurve of a family instance")
    generate.add_argument("family", help="family string, e.g. torus:3,5 or lpq:2,7")

    verify = command("verify", _cmd_verify, "recompute the claimed quantities of an instance")
    verify.add_argument("family", help="family string, e.g. exactly:4,2")

    certify = command("certify", _cmd_certify, "check the lower-bound conditions on stored pieces")
    certify.add_argument("pieces", help="JSON file with planar pieces")
    certify.add_argument("--n", type=int, help="certificate level, overrides the file")

    facewidth = command("facewidth", _cmd_facewidth, "genus and face width of an embedded graph")
    facewidth.add_argument("map", help="rotation system JSON file")

    bounds = command("bounds", _cmd_bounds, "propagate attribute intervals from tags and seeds")
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
