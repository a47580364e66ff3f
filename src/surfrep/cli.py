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
This module is the one home of the report's keys: the envelope, the
check rows of ``Check`` values and the ``facts`` entries of ``Interval``s.
The piece file is read in ``certificate``, the map file in ``facewidth``.

Each subcommand reads, then reports.  ``_COMMANDS`` is the one map
from a subcommand's name to its two steps: a parse records the name
alone, and :func:`main` looks the steps up by it.  The read step
decodes and validates the input (``certify_pieces`` and ``propagate``
validate, so they run there) and raises OSError, ValueError or
TypeError on unusable input.  The report step returns the report body
and whether it passed; ``generate`` prints its curve and returns None.
``verify`` and ``certify`` both read that verdict off their check rows,
``Check`` values from the domain: it passes when every row passes.
:func:`main` owns the clock, the ``error:`` line and exit 2 of a failed
read, the verdict and exit 0 or 1.  An exception from a report step, on
input that decoded, is a bug and propagates; a closed stdout is none,
and keeps the verdict.

Package modules are imported inside the step that uses them: one start
serves one subcommand, so it loads only that subcommand's modules and
builds only its reader, a parser with no ``-h`` that prints nothing.
The full tree prints every help, usage and error text: a call the
reader refuses, a leftover argument included, is parsed again by it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Any, NoReturn, Sequence, TypeAlias

if TYPE_CHECKING:
    from surfrep.bounds import Contradiction, Interval, SubjectTags
    from surfrep.facewidth import RotationSystem
    from surfrep.families import FamilyInstance
    from surfrep.surface import Check

__all__ = ["build_parser", "main"]

SCHEMA = "run-report/1"

_OK, _FAIL, _USAGE = 0, 1, 2


def _emit(report: dict[str, Any], pretty: bool) -> None:
    if not pretty:
        print(json.dumps(report))
        return
    lines = ["command: " + " ".join(report["command"])]
    if report["inputs"]:
        lines += ["inputs:", *_render("  ", report["inputs"])]
    if report["checks"]:
        lines.append("checks:")
        for check in report["checks"]:
            mark = "ok  " if check["pass"] else "FAIL"
            lines.append(
                f"  {mark} {check['name']}: expected {check['expected']}, got {check['actual']}"
            )
    if report["results"]:
        lines += ["results:", *_render("  ", report["results"])]
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


def _row(check: Check) -> dict[str, Any]:
    """A check as a report row: ``expected`` is shown bare for ``==`` and
    with its relation otherwise, as ``>= 4`` or ``< 12``."""
    shown = check.expected if check.relation == "==" else f"{check.relation} {check.expected}"
    return {"name": check.name, "expected": shown, "actual": check.actual, "pass": check.passed}


def _fact(iv: Interval) -> dict[str, Any]:
    """An interval as a ``facts`` entry: exact endpoints as strings, an
    open upper end as null, and the rule chain of each end."""
    return {
        "lo": str(iv.lo),
        "hi": None if iv.hi is None else str(iv.hi),
        "lo_rules": list(iv.lo_rules),
        "hi_rules": list(iv.hi_rules),
    }


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as file:
            return json.load(file)
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None


#-- Subcommands: read, then report --#

Body = dict[str, Any]


def _read_family(args: argparse.Namespace) -> FamilyInstance:
    from surfrep.families import parse_family

    return parse_family(args.family)


def _report_generate(args: argparse.Namespace, inst: FamilyInstance) -> None:
    print(json.dumps(inst.curve.to_json(), indent=2 if args.pretty else None))


def _report_verify(args: argparse.Namespace, inst: FamilyInstance) -> tuple[Body, bool]:
    from surfrep.families import verify_family

    checks = verify_family(inst)
    return {
        "command": ["verify", args.family],
        "inputs": {"family": inst.label},
        "checks": [_row(c) for c in checks],
    }, all(c.passed for c in checks)


def _read_certify(args: argparse.Namespace) -> tuple[int, list[Check]]:
    from surfrep.certificate import certify_pieces, pieces_from_json

    pieces, stored_n = pieces_from_json(_load_json(args.pieces))
    n = stored_n if args.n is None else args.n
    if n is None:
        raise ValueError("no certificate level: pass --n or store n in the file")
    return n, certify_pieces(pieces, n)


def _report_certify(args: argparse.Namespace, read: tuple[int, list[Check]]) -> tuple[Body, bool]:
    n, checks = read
    holds = all(c.passed for c in checks)
    return {
        "command": ["certify", args.pieces],
        "inputs": {"file": args.pieces, "n": n},
        "checks": [_row(c) for c in checks],
        "results": {"lower_bound_holds": holds},
    }, holds


def _read_facewidth(args: argparse.Namespace) -> RotationSystem:
    from surfrep.facewidth import RotationSystem

    rs = RotationSystem.from_json(_load_json(args.map))
    rs.genus()  # a disconnected map has no genus: unusable input
    return rs


def _report_facewidth(args: argparse.Namespace, rs: RotationSystem) -> tuple[Body, bool]:
    from surfrep.facewidth import face_width

    width = face_width(rs)
    return {
        "command": ["facewidth", args.map],
        "inputs": {"file": args.map},
        "results": {
            "genus": rs.genus(),
            "face_width": "infinite" if width == math.inf else width,
        },
    }, True


def _level(text: str) -> int:
    """The ``--n`` value; argparse reports a bad one with the option's name."""
    from surfrep.surface import _ascii_int

    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


#: tags, seeds, and their facts or the contradiction they reach (a result, not bad input)
Bounds: TypeAlias = "tuple[SubjectTags, dict[str, Interval], dict[str, Interval] | Contradiction]"


def _read_bounds(args: argparse.Namespace) -> Bounds:
    from surfrep.bounds import Contradiction, SubjectTags, propagate, seeds_from_strings

    tags = SubjectTags.from_strings(args.tag or ())
    seeds = seeds_from_strings(args.seed or ())
    try:
        return tags, seeds, propagate(tags, seeds)
    except Contradiction as exc:
        return tags, seeds, exc


def _report_bounds(args: argparse.Namespace, read: Bounds) -> tuple[Body, bool]:
    from surfrep.bounds import Contradiction

    tags, seeds, facts = read
    body: Body = {
        "command": ["bounds", *(f"--tag {t}" for t in tags.labels()),
                    *(f"--seed {k}={v.lo}" for k, v in sorted(seeds.items()))],
        "inputs": {
            "tags": list(tags.labels()),
            "seeds": {k: str(v.lo) for k, v in sorted(seeds.items())},
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
    body["results"] = {"facts": {k: _fact(iv) for k, iv in facts.items()}, "display": display}
    return body, True


#-- Entry point --#

#: name -> (read step, report step, help line, argument specs after --pretty)
_COMMANDS = {
    "generate": (_read_family, _report_generate, "emit the multicurve of a family instance",
                 (("family", {"help": "family string, e.g. torus:3,5 or lpq:2,7"}),)),
    "verify": (_read_family, _report_verify, "recompute the claimed quantities of an instance",
               (("family", {"help": "family string, e.g. exactly:4,2"}),)),
    "certify": (_read_certify, _report_certify, "check the lower-bound conditions on stored pieces",
                (("pieces", {"help": "JSON file with planar pieces"}),
                 ("--n", {"type": _level, "help": "certificate level, overrides the file"}))),
    "facewidth": (_read_facewidth, _report_facewidth, "genus and face width of an embedded graph",
                  (("map", {"help": "rotation system JSON file"}),)),
    "bounds": (_read_bounds, _report_bounds, "propagate attribute intervals from tags and seeds",
               (("--tag", {"action": "append", "metavar": "NAME[=P,Q]",
                           "help": "subject tag, repeatable (e.g. torus_knot=3,5)"}),
                ("--seed", {"action": "append", "metavar": "ATTR=VALUE",
                            "help": "known exact value, repeatable (e.g. b=3)"}))),
}


def _arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments of subcommand ``name``."""
    parser.add_argument("--pretty", action="store_true", help="indented text instead of JSON")
    for flag, options in _COMMANDS[name][3]:
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with all five subcommand parsers."""
    parser = argparse.ArgumentParser(prog="surfrep", description="curve families on closed "
                                     "surfaces: generation, certificates, face width, and "
                                     "interval bounds")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, help_text, _) in _COMMANDS.items():
        _arguments(sub.add_parser(name, help=help_text), name)
    return parser


class _Refused(Exception):
    """A call the reader does not take; the full tree parses it again and reports it."""


class _FixedWidth(argparse.HelpFormatter):
    """A formatter that never asks the terminal its width; the reader prints no text."""

    def __init__(self, prog: str) -> None:
        super().__init__(prog, width=80)


class _Reader(argparse.ArgumentParser):
    """A subcommand's parser without ``-h`` and without text: it reads a valid call
    as ``add_parser``'s parser does, and raises on anything it would report."""

    def __init__(self, name: str) -> None:
        super().__init__(prog=f"surfrep {name}", add_help=False, formatter_class=_FixedWidth)

    def error(self, message: str) -> NoReturn:
        raise _Refused(message)


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Read what follows a subcommand's name with that subcommand's reader alone.
    Anything it refuses, leftover arguments included, and anything else goes to
    the full tree, which prints every help, usage and error text."""
    if argv and argv[0] in _COMMANDS:
        reader = _arguments(_Reader(argv[0]), argv[0])
        try:
            return reader.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        except _Refused:
            pass
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    read, report, _, _ = _COMMANDS[args.subcommand]
    started = time.perf_counter()
    try:
        decoded = read(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE
    # an error raised from here on, on input that decoded, is a bug and not exit 2
    code = _OK
    try:
        outcome = report(args, decoded)
        if outcome is not None:
            body, passed = outcome
            code = _OK if passed else _FAIL
            # the key order is part of the output; a body fills the slots it has
            report = {"schema": SCHEMA, "command": [], "inputs": {}, "checks": [],
                      "results": {}, **body, "verdict": "pass" if passed else "fail",
                      "duration_seconds": round(time.perf_counter() - started, 6)}
            _emit(report, args.pretty)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the verdict stands, and the final flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
