"""A catalog of mutants the test suite must kill.

Each entry breaks one module of the package in one place: an exact
snippet of its source, the replacement, the test files that must each
fail on the broken copy, and the fault the replacement stands for.  Run
from anywhere, with pytest installed::

    python tests/mutants.py

It copies the repo without ``.git`` and ``bench`` to a temporary
directory and checks that every listed test file passes there.  Then,
one mutant at a time, it writes the replacement into the copy, runs
pytest on each listed file in turn, and restores the module.  A run
that fails, or outlasts ``TIMEOUT_S``, kills the mutant.  Each run has
an address-space cap, since a mutant that breaks a loop's exit can
grow a list without end.  The script prints one line per mutant and a
total, and exits 1 if a mutant survives one of its files.

The catalog is kept out of tier-1 because each entry runs whole test
files; ``tests/test_source_rules.py`` checks in tier-1 that every
snippet occurs exactly once in its module, so an entry cannot go stale
unseen.  Only the standard library is imported here.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
MEMORY_CAP = 1 << 30


class Mutant(NamedTuple):
    module: str  # file name under src/surfrep
    snippet: str  # exact source text, found once in the module
    replacement: str
    killers: tuple[str, ...]  # test files under tests/, each of which must fail
    reason: str


MUTANTS = (
    Mutant("smoothing.py",
           "pieces.append((lo, lo + bi - 1, base[jn, i] + a[jn]))",
           "pieces.append((lo, lo + bi, base[jn, i] + a[jn]))",
           ("test_smoothing.py",),
           "the first piece of a block overruns the middle one by a position"),
    Mutant("smoothing.py",
           "    for start in range(n):\n",
           "    for start in range(n - 1):\n",
           ("test_smoothing.py", "test_families.py"),
           "the scan skips the last position, so a cycle through it alone is lost"),
    Mutant("smoothing.py",
           "        if p != start:\n"
           "            raise RuntimeError(f\"first-return cycle from position {start} "
           "does not close\")\n",
           "",
           ("test_smoothing.py",),
           "a walk that ends short of its start is listed as an orbit instead of raising"),
    Mutant("smoothing.py",
           "succ[lo:hi] = range(to, to + hi - lo)",
           "succ[lo:hi] = range(to, to + hi + lo)",
           ("test_smoothing.py",),
           "each piece writes 2 lo extra successors, which grow the list but change no orbit"),
    Mutant("smoothing.py",
           "left -= (left - 1) // tail * tail",
           "left -= left // tail * tail",
           ("test_smoothing.py", "test_golden.py"),
           "whole rounds run one too far when the winner is a multiple of the tail, leaving it empty"),
    Mutant("smoothing.py",
           "        return length[t]\n",
           "        return 1\n",
           ("test_smoothing.py", "test_golden.py"),
           "a piece that is its own top and bottom closes one cycle, not one per position"),
    Mutant("smoothing.py",
           "    if not (_tiles(top, los, length, n) and _tiles(bottom, tos, length, n)):\n"
           "        raise RuntimeError(f\"the pieces do not tile the positions 0 .. {n - 1} twice\")\n",
           "",
           ("test_smoothing.py",),
           "pieces that are no bijection are counted as the exchange of their lengths"),
    Mutant("bounds.py",
           "if iv.hi is not None and math.floor(iv.hi) == v:",
           "if iv.hi is not None and iv.hi == v:",
           ("test_bounds.py",),
           "a hole misses a fractional upper end whose floor it is"),
    Mutant("bounds.py",
           "if math.ceil(iv.lo) == v:",
           "if iv.lo == v:",
           ("test_bounds.py",),
           "a hole misses a fractional lower end whose ceiling it is"),
    Mutant("bounds.py",
           "if lo is None or lo <= iv.lo:",
           "if lo is None or lo < iv.lo:",
           ("test_bounds.py", "test_golden.py"),
           "a lower end equal to the stored one counts as a move"),
    Mutant("bounds.py",
           "if hi is None or iv.hi is not None and hi >= iv.hi:",
           "if hi is None or iv.hi is not None and hi > iv.hi:",
           ("test_bounds.py", "test_golden.py"),
           "an upper end equal to the stored one counts as a move"),
    Mutant("bounds.py",
           "if hi is not None and math.ceil(lo) > math.floor(hi):",
           "if hi is not None and lo > hi:",
           ("test_bounds.py",),
           "an interval with no integer point is kept, as only crossed ends are tested"),
    Mutant("bounds.py",
           "    if lo is iv.lo and hi is iv.hi:\n"
           "        return\n",
           "",
           ("test_bounds.py", "test_golden.py"),
           "a step that moves no end still stores a new interval, so no run reaches its fixed point"),
    Mutant("bounds.py",
           "if all(map(operator.is_, before, facts.values())):",
           "if any(map(operator.is_, before, facts.values())):",
           ("test_bounds.py", "test_work.py", "test_golden.py"),
           "a run stops after a pass that left any interval in place, not only after one that left all"),
    Mutant("bounds.py",
           "            if iv.hi is not None and math.floor(iv.hi) == v:\n"
           "                _narrow(f, x, None, v - 1, (), iv.hi_rules, rule)\n"
           "            if math.ceil(iv.lo) == v:\n"
           "                _narrow(f, x, v + 1, None, iv.lo_rules, (), rule)\n",
           "            lo = v + 1 if math.ceil(iv.lo) == v else None\n"
           "            hi = v - 1 if iv.hi is not None and math.floor(iv.hi) == v else None\n"
           "            _narrow(f, x, lo, hi, iv.lo_rules, iv.hi_rules, rule)\n",
           ("test_bounds.py", "test_golden.py"),
           "a hole narrows both ends in one call, so a hole at the point reports [v + 1, v - 1]"),
    Mutant("bounds.py",
           "super().__init__(_exact(lo), _exact(hi), lo_rules, hi_rules)",
           "super().__init__(lo, hi, lo_rules, hi_rules)",
           ("test_bounds.py",),
           "an Interval keeps an integral Fraction end as given"),
    Mutant("bounds.py",
           "self.lo = _exact(lo)\n        self.hi = _exact(hi)",
           "self.lo = lo\n        self.hi = hi",
           ("test_bounds.py",),
           "a Contradiction keeps an integral Fraction end as given"),
    Mutant("bounds.py",
           "lo = lo // n if lo % n == 0 else Fraction(lo, n)",
           "lo = lo // n",
           ("test_bounds.py", "test_golden.py"),
           "a relation's lower end is truncated to an integer where it does not divide"),
    Mutant("bounds.py",
           "lo, lo_rules = iv.lo, iv.lo_rules",
           "lo, lo_rules = iv.lo, _chain(iv.lo_rules, rule)",
           ("test_bounds.py", "test_golden.py"),
           "a lower end that did not move takes the rule onto its chain"),
    Mutant("bounds.py",
           "return source if source and source[-1] == rule else (*source, rule)",
           "return (*source, rule)",
           ("test_bounds.py", "test_golden.py"),
           "a chain that already ends with the rule takes it a second time in a row"),
    Mutant("bounds.py",
           "\"R13\": (None, [(\"r\", 1, None), (\"b\", 1, None)]),",
           "\"R13\": (None, [(\"r\", 1, None)]),",
           ("test_bounds.py", "test_cli.py", "test_golden.py"),
           "R13 drops b >= 1, so a bridge number of 0 is no contradiction"),
    Mutant("bounds.py",
           "sum(x % 2 == 0 for x in pretzel) > 1",
           "sum(x % 2 == 0 for x in pretzel) > 2",
           ("test_bounds.py",),
           "a pretzel with two even parameters, a two-component link, is taken as a knot"),
    Mutant("bounds.py",
           "abs(p * q + q * s + s * p) == 1",
           "abs(p * q + q * s + s * p) == 0",
           ("test_bounds.py", "test_cli.py"),
           "a pretzel diagram of the unknot, of determinant 1, is taken as a subject"),
    Mutant("bounds.py",
           "        if \"theta_curve\" in names and names & _KNOT_TAGS:\n"
           "            raise ValueError(\"theta_curve is incompatible with knot tags\")\n",
           "",
           ("test_bounds.py",),
           "a theta curve may carry knot tags, so knot rules run on a graph"),
    Mutant("bounds.py",
           "        if name in seen:\n"
           "            raise ValueError(duplicate.format(name))\n",
           "",
           ("test_bounds.py", "test_cli.py"),
           "a repeated tag or seed name is read, the later value silently winning"),
    Mutant("bounds.py",
           "            if q.startswith(\"-\"):\n"
           "                raise ValueError\n",
           "",
           ("test_cli.py",),
           "a sign on a seed's denominator is read, so b=-6/-2 enters as 3"),
    Mutant("surface.py",
           "digits = text.removeprefix(\"-\")",
           "digits = text.lstrip(\"+-\")",
           ("test_bounds.py", "test_cli.py"),
           "an integer on the command line may carry a plus sign, so +3 runs as 3"),
    Mutant("certificate.py",
           "k = max(len(mc.meridians), 2)",
           "k = len(mc.meridians)",
           ("test_certificate.py",),
           "a torus curve is cut with one class per family, not as the genus-1 chain surface"),
    Mutant("certificate.py",
           "min(pb.loop_min for pb in bounds)",
           "bounds[0].loop_min",
           ("test_certificate.py",),
           "the upper end is read from the meridian cut alone"),
    Mutant("certificate.py",
           "min(pb.loop_min for pb in bounds)",
           "max(pb.loop_min for pb in bounds)",
           ("test_certificate.py", "test_families.py", "test_golden.py"),
           "the upper end is the larger of the two loop minima, not the least"),
    Mutant("certificate.py",
           "min(pb.loop_min for pb in bounds)",
           "bounds[1].loop_min",
           ("test_certificate.py", "test_families.py", "test_golden.py"),
           "the upper end is read from the longitude cut alone"),
    Mutant("certificate.py",
           "0 <= _strict_int(a, \"a\") < _strict_int(b, \"b\") < circles",
           "0 <= _strict_int(a, \"a\") <= _strict_int(b, \"b\") < circles",
           ("test_certificate.py",),
           "an arc (a, a) passes the endpoint check and is refused only as not adjacent"),
    Mutant("certificate.py",
           "or lower > _strict_int(upper, \"upper end\")",
           "or _strict_int(upper, \"upper end\") is None",
           ("test_values.py",),
           "a window whose lower end is above its upper end is built"),
    Mutant("certificate.py",
           "PieceBounds(piece.id, lightest + runner_up,",
           "PieceBounds(piece.id, runner_up + runner_up,",
           ("test_certificate.py", "test_families.py", "test_golden.py"),
           "the loop minimum sums the runner-up sector twice, not the two lightest"),
    Mutant("certificate.py",
           "Check(f\"{pb.piece_id} {name}\", n, value, \">=\")",
           "Check(f\"{pb.piece_id} {name}\", n, value, \"==\")",
           ("test_certificate.py", "test_cli.py", "test_golden.py"),
           "a certify row asks for the level exactly instead of at least"),
    Mutant("cli.py",
           "holds = all(c.passed for c in checks)",
           "holds = any(c.passed for c in checks)",
           ("test_cli.py", "test_golden.py"),
           "certify passes when one row passes, not when every row does"),
    Mutant("certificate.py",
           "    return pieces[0], pieces[1]\n",
           "    return pieces[1], pieces[0]\n",
           ("test_certificate.py", "test_cli.py", "test_golden.py"),
           "the cut pieces come in the order (F2+, F1+)"),
    Mutant("families.py",
           "cheapest = min(check.actual for check in checks)",
           "cheapest = max(check.actual for check in checks)",
           ("test_families.py", "test_cli.py", "test_golden.py"),
           "the torus row reads the dearest reference class, not the cheapest"),
    Mutant("families.py",
           "        cheapest = min(check.actual for check in checks)\n"
           "        checks.append(Check(\"smoothed components = gcd(p, q)\", math.gcd(p, q), comps))\n",
           "        checks.append(Check(\"smoothed components = gcd(p, q)\", math.gcd(p, q), comps))\n"
           "        cheapest = min(check.actual for check in checks)\n",
           ("test_families.py", "test_cli.py", "test_golden.py"),
           "the torus row is read after the components row, so gcd(p, q) counts as a class"),
    Mutant("cli.py",
           "\"inputs\": {\"family\": inst.label},",
           "\"inputs\": {\"family\": inst.label, \"kind\": inst.kind},",
           ("test_cli.py", "test_golden.py"),
           "a verify report's inputs hold a key beside the canonical family label"),
    Mutant("cli.py",
           "return reader.parse_args(argv[1:], argparse.Namespace(subcommand=argv[0]))",
           "return reader.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))[0]",
           ("test_cli.py",),
           "the reader drops leftover arguments instead of handing the call to the full tree"),
    Mutant("cli.py",
           "    for flag, options in _COMMANDS[name][3]:\n",
           "    parser.set_defaults(read=_COMMANDS[name][0], report=_COMMANDS[name][1])\n"
           "    for flag, options in _COMMANDS[name][3]:\n",
           ("test_cli.py", "test_source_rules.py"),
           "the steps ride on the parse again, a second map from a subcommand to its steps"),
    Mutant("cli.py",
           "add_help=False, formatter_class=_FixedWidth",
           "add_help=True, formatter_class=_FixedWidth",
           ("test_work.py", "test_cli.py"),
           "the reader adds its own -h, one more argument per call and a help that is not the tree's"),
    Mutant("cli.py",
           "add_help=False, formatter_class=_FixedWidth",
           "add_help=False",
           ("test_work.py",),
           "the reader takes argparse's default formatter, which reads the terminal's size"),
    Mutant("cli.py",
           "    def error(self, message: str) -> NoReturn:\n"
           "        raise _Refused(message)\n",
           "",
           ("test_cli.py",),
           "the reader reports a bad call itself, with its own usage, instead of the full tree"),
    Mutant("cli.py",
           "        except _Refused:\n"
           "            pass\n",
           "        except _Refused:\n"
           "            return argparse.Namespace(subcommand=argv[0])\n",
           ("test_cli.py",),
           "a call the reader refuses is run as a valid call with no arguments read"),
    Mutant("facewidth.py",
           "        searched[x] = True\n",
           "",
           ("test_work.py",),
           "a searched root is never marked, so later searches walk back into its nodes"),
    Mutant("families.py",
           "    from surfrep.smoothing import trace_components\n",
           "    from surfrep.certificate import representativity_exact\n"
           "    from surfrep.smoothing import trace_components\n",
           ("test_source_rules.py",),
           "verify on a torus loads the certificate, which it never calls"),
)


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _fails(tree: Path, test_file: str) -> bool:
    """Whether pytest fails on one test file of the copy ``tree``; a run
    past the timeout counts as failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             f"tests/{test_file}"],
            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def main() -> int:
    started = time.perf_counter()
    survivors = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "bench", "__pycache__", ".hypothesis", ".pytest_cache"))
        files = sorted({name for mutant in MUTANTS for name in mutant.killers})
        broken = [name for name in files if _fails(tree, name)]
        if broken:
            print(f"the unmutated copy fails {broken}: no mutant can be judged", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            path = tree / "src" / "surfrep" / mutant.module
            source = path.read_text()
            if source.count(mutant.snippet) != 1:
                raise ValueError(f"{mutant.module}: snippet not found once: {mutant.snippet!r}")
            path.write_text(source.replace(mutant.snippet, mutant.replacement))
            try:
                passed = [name for name in mutant.killers if not _fails(tree, name)]
            finally:
                path.write_text(source)
            survivors += bool(passed)
            verdict = f"SURVIVED {', '.join(passed)}" if passed else "killed"
            print(f"{verdict}: {mutant.module}: {mutant.reason}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
