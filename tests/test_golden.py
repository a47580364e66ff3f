"""Golden reports: the exact stdout and exit code of a fixed command corpus.

Every report a subcommand prints is pinned byte for byte, JSON and
``--pretty`` text alike, together with its exit code: the full rule
chains of ``bounds``, every check of ``verify`` and ``certify``, and the
text layout.  Two parts of a report vary between runs and are taken
out before comparing: the ``duration_seconds`` field of the JSON and the
duration in the ``verdict:`` line of the text.  The input files are
written to a temporary directory, whose path reads ``{tmp}`` in the
recorded argv and output.

After a deliberate change of the output, rewrite the data file with
``PYTHONPATH=src:tests python tests/test_golden.py`` and review its diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from surfrep.certificate import cut_pieces
from surfrep.cli import main
from surfrep.families import lpq_link
from test_facewidth import TETRAHEDRON, toroidal_grid

GOLDEN = Path(__file__).with_name("data") / "golden_reports.json"

CORPUS = [
    ["bounds"],
    ["bounds", "--tag", "torus_knot=3,5"],
    ["bounds", "--tag", "two_bridge"],
    ["bounds", "--tag", "composite", "--seed", "b=4"],
    ["bounds", "--tag", "algebraic", "--seed", "waist=3"],
    ["bounds", "--tag", "primitive"],
    ["bounds", "--tag", "nontrivial_knot", "--seed", "bs=3"],
    ["bounds", "--tag", "composite", "--seed", "b=4", "--pretty"],
    ["bounds", "--tag", "nontrivial_knot", "--seed", "bs=3", "--pretty"],
    ["verify", "torus:6,4"],
    ["verify", "exactly:4,2"],
    ["verify", "exactly:5,2"],
    ["verify", "lpq:2,7"],
    ["verify", "exactly:5,2", "--pretty"],
    ["certify", "{tmp}/level4.json"],
    ["certify", "{tmp}/level6.json"],
    ["certify", "{tmp}/level4.json", "--n", "2"],
    ["certify", "{tmp}/level4.json", "--n", "5"],
    ["certify", "{tmp}/level4.json", "--n", "5", "--pretty"],
    ["facewidth", "{tmp}/grid.json"],
    ["facewidth", "{tmp}/sphere.json"],
    ["facewidth", "{tmp}/grid.json", "--pretty"],
    ["generate", "lpq:2,7"],
    ["generate", "lpq:2,7", "--pretty"],
    ["bounds", "--tag", "pretzel=1,3,7", "--tag", "algebraic"],
    ["bounds", "--tag", "pretzel=-2,3,5"],
    ["bounds", "--tag", "torus_knot=3,5", "--seed", "r=3"],
    ["verify", "exactly:3,1"],
    ["verify", "exactly:4,3"],
    ["bounds", "--tag", "pretzel=1,3,7", "--seed", "r=3"],
    ["bounds", "--tag", "torus_knot=3,5", "--seed", "bs=6"],
    ["verify", "torus:12000,18000"],
    ["bounds", "--tag", "theta_curve", "--seed", "bs=6"],
    ["bounds", "--seed", "bs=7"],
    ["verify", "torus:1000000,1000001"],
    ["verify", "exactly:100000,8"],
]

_JSON_DURATION = re.compile(r', "duration_seconds": [-+0-9.e]+')
_TEXT_DURATION = re.compile(r"^(verdict: \w+) \([-+0-9.e]+s\)$", re.MULTILINE)


def _write_inputs(directory: Path) -> None:
    curve = lpq_link(2, 7).curve
    pieces = [piece.to_json() for piece in cut_pieces(curve)]
    files = {
        "level4.json": {"pieces": pieces, "n": 4},
        "level6.json": {"pieces": pieces, "n": 6},
        "grid.json": toroidal_grid(4, 5).to_json(),
        "sphere.json": TETRAHEDRON.to_json(),
    }
    for name, payload in files.items():
        (directory / name).write_text(json.dumps(payload))


def run_corpus(directory: Path) -> list[dict]:
    """Run every command of the corpus with its files in ``directory``."""
    _write_inputs(directory)
    tmp = str(directory)
    records = []
    for argv in CORPUS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        text = out.getvalue().replace(tmp, "{tmp}")
        text = _TEXT_DURATION.sub(r"\1", _JSON_DURATION.sub("", text))
        records.append({"argv": argv, "exit": code, "stdout": text})
    return records


def test_reports_match_the_golden_file(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = run_corpus(tmp_path)
    assert [r["argv"] for r in expected] == CORPUS
    for want, got in zip(expected, actual):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(run_corpus(Path(scratch)), indent=1) + "\n")
