"""Command line interface: exit codes, report schema, determinism."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import candidate_face_width
import surfrep
from surfrep import facewidth
from surfrep.bounds import ATTRIBUTES, TAG_NAMES
from surfrep.certificate import PlanarPiece, cut_pieces
from surfrep.cli import _parse, build_parser, main
from surfrep.families import lpq_link
from test_facewidth import ONE_VERTEX_TORUS, TETRAHEDRON, toroidal_grid


def run_cli(capsys, *argv: str):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name: str, payload) -> str:
    target = tmp_path / name
    target.write_text(json.dumps(payload))
    return str(target)


def _undecodable(tmp_path) -> list[tuple[str, str]]:
    """Files the JSON decoder refuses, each with the message that names it:
    bytes that are not UTF-8, and, where the interpreter limits the digits
    of an integer, one past that limit."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    files = [binary]
    if hasattr(sys, "get_int_max_str_digits"):
        huge = tmp_path / "huge.json"
        huge.write_text("[" + "9" * 5000 + "]")
        files.append(huge)
    return [(str(path), f"{path} is not JSON") for path in files]


def _pants_pieces() -> list[dict]:
    curve = lpq_link(2, 7).curve
    pieces = cut_pieces(curve)
    assert [p.id for p in pieces] == ["F1+", "F2+"]
    return [p.to_json() for p in pieces]


def _piece_json(piece_id, circles, arcs) -> dict:
    """A piece in the file form, whatever its fields hold."""
    return {"piece": piece_id, "circles": circles,
            "arcs": [{"a": a, "b": b, "mult": m} for a, b, m in arcs]}


#-- generate --#

def test_generate_emits_curve_json(capsys):
    code, out, _ = run_cli(capsys, "generate", "lpq:2,7")
    assert code == 0
    payload = json.loads(out)
    assert payload["surface"] == {"kind": "chain", "genus": 2}
    assert payload["meridians"] == [7, 7, 7]
    assert payload["longitudes"] == [2, 2, 2]

    code, out, _ = run_cli(capsys, "generate", "exactly:4,2")
    assert code == 0
    assert json.loads(out)["meridians"] == [5, 4, 2]


def test_generate_rejects_bad_strings(capsys):
    # int() would run the strings from torus:\u0663,5 to torus:3,\uff15, e.g. as torus:10,5
    for family in ("lpq:2,6", "torus:a,b", "weird:1,2", "torus:3",
                   "torus:\u0663,5", "torus: 3,5", "torus:+3,5", "torus:1_0,5",
                   "torus:3,5 ", "torus:3,\uff15", "torus:-,5"):
        code, out, err = run_cli(capsys, "generate", family)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


#-- verify --#

def test_verify_reports_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "exactly:4,2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "run-report/1"
    assert report["command"] == ["verify", "exactly:4,2"]
    assert report["inputs"] == {"family": "exactly:4,2"}
    assert report["verdict"] == "pass"
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    assert isinstance(report["duration_seconds"], float)

    assert run_cli(capsys, "verify", "torus:3,5")[0] == 0


def test_verify_failure_sets_exit_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "exactly:3,2")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["certified representativity"]


#-- certify --#

def test_certify_level_four_passes(capsys, tmp_path):
    path = _write(tmp_path, "pieces.json", {"pieces": _pants_pieces(), "n": 4})
    code, out, _ = run_cli(capsys, "certify", path)
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["n"] == 4
    assert report["results"] == {"lower_bound_holds": True}
    names = [c["name"] for c in report["checks"]]
    assert any(name.endswith("loop minimum") for name in names)
    assert all(c["pass"] for c in report["checks"])


def test_certify_flag_overrides_stored_level(capsys, tmp_path):
    path = _write(tmp_path, "pieces.json", {"pieces": _pants_pieces(), "n": 4})
    code, out, _ = run_cli(capsys, "certify", path, "--n", "5")
    assert code == 1
    report = json.loads(out)
    assert report["inputs"]["n"] == 5
    assert report["verdict"] == "fail"
    assert not report["results"]["lower_bound_holds"]


def test_certify_accepts_bare_piece_list(capsys, tmp_path):
    path = _write(tmp_path, "pieces.json", _pants_pieces())
    assert run_cli(capsys, "certify", path, "--n", "4")[0] == 0
    # a bare list carries no level of its own
    assert run_cli(capsys, "certify", path)[0] == 2


def test_certify_rejects_bad_files(capsys, tmp_path):
    empty = _write(tmp_path, "empty.json", {"pieces": [], "n": 4})
    assert run_cli(capsys, "certify", empty)[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, "certify", str(broken))[0] == 2
    assert run_cli(capsys, "certify", str(tmp_path / "missing.json"))[0] == 2
    scalar = _write(tmp_path, "scalar.json", {"pieces": 7, "n": 4})
    assert run_cli(capsys, "certify", scalar)[0] == 2
    # counts decode strictly: no float truncation, no bool as 1
    pants = _pants_pieces()
    loose = [
        ("circles.json", {"pieces": [{**pants[0], "circles": 3.9}], "n": 4}),
        ("mult.json", {"pieces": [{**pants[0], "arcs": [{"a": 0, "b": 1, "mult": True}]}], "n": 0}),
        ("level.json", {"pieces": pants, "n": 4.7}),
        ("flag.json", {"pieces": pants, "n": True}),
    ]
    for name, payload in loose:
        code, out, err = run_cli(capsys, "certify", _write(tmp_path, name, payload))
        assert (code, out) == (2, ""), name
        assert "must be an integer" in err
    # the read step holds a stored n to the file's integer rule even when
    # --n overrides it
    override = _write(tmp_path, "override.json", {"pieces": pants, "n": 4.7})
    code, out, err = run_cli(capsys, "certify", override, "--n", "4")
    assert (code, out) == (2, "") and "stored n must be an integer" in err
    # every level below 0 is refused, -1 included, and 0 is a level
    stored = _write(tmp_path, "four.json", {"pieces": pants, "n": 4})
    for level in (-3, -1):
        negative = _write(tmp_path, "negative.json", {"pieces": pants, "n": level})
        refused = f"error: certificate level must be >= 0, got {level}\n"
        assert run_cli(capsys, "certify", negative) == (2, "", refused)
        assert run_cli(capsys, "certify", stored, "--n", str(level)) == (2, "", refused)
    zero = _write(tmp_path, "zero.json", {"pieces": pants, "n": 0})
    for argv in ((zero,), (stored, "--n", "0")):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert (code, err) == (0, "") and json.loads(out)["inputs"]["n"] == 0
    # a missing field is named, a piece id must be a string, and deep
    # nesting or a syntax error is refused like any other unusable file
    no_arcs = {key: value for key, value in pants[0].items() if key != "arcs"}
    unnamed = {**pants[0], "piece": {"x": 1}}
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    for path, message in (
        (_write(tmp_path, "no_arcs.json", {"pieces": [no_arcs], "n": 4}), "missing field 'arcs'"),
        (_write(tmp_path, "object_id.json", {"pieces": [unnamed], "n": 4}), "must be a string"),
        (str(deep), "nested too deeply"),
        (str(broken), f"{broken} is not JSON"),
        *_undecodable(tmp_path),
        # a wrong shape names the field and the JSON type it needs
        (_write(tmp_path, "bare_list_piece.json", {"pieces": [[1]], "n": 1}),
         "expected an object with field 'piece'"),
        (_write(tmp_path, "arcs_scalar.json", {"pieces": [{**pants[0], "arcs": 5}], "n": 4}),
         "field 'arcs' must be an array"),
        # the decoder reads shapes and the constructor every count, in its own order
        (_write(tmp_path, "two_faults.json",
                {"pieces": [{"piece": "P", "circles": 1, "arcs": [{"a": 1.5, "b": 2, "mult": 1}]}],
                 "n": 4}),
         "piece needs at least two boundary circles, got 1"),
        # pieces are built in file order: one that is not a necklace is
        # named before a float count in the piece after it
        (_write(tmp_path, "two_pieces.json",
                {"pieces": [_piece_json("A", 4, [(0, 2, 1)]), _piece_json("B", 3.5, [])],
                 "n": 4}),
         "arc pair (0, 2) is not cyclically adjacent among 4 circles"),
    ):
        code, out, err = run_cli(capsys, "certify", path)
        assert (code, out) == (2, ""), path
        assert message in err and "Traceback" not in err


#: one fault per piece: the constructor's arguments and the message it gives
PIECE_FAULTS = [
    (5, 3, [], "piece id must be a string, got int"),
    ("P", 1, [], "piece needs at least two boundary circles, got 1"),
    ("P", 3, [(1, 3, 1)], "bad arc endpoints (1, 3) for 3 circles"),
    ("P", 4, [(0, 2, 1)], "arc pair (0, 2) is not cyclically adjacent among 4 circles"),
    ("P", 3, [(0, 1, 0)], "arc multiplicity must be >= 1, got 0"),
    ("P", 3, [(0, 1, 1), (1, 2, 1), (0, 1, 2)], "duplicate arc pair (0, 1)"),
    ("P", 3.0, [], "circles must be an integer, got 3.0"),
    ("P", 3, [(0, True, 1)], "b must be an integer, got True"),
    ("P", 3, [(0, 1, 2.5)], "mult must be an integer, got 2.5"),
]


@pytest.mark.parametrize("piece_id, circles, arcs, message", PIECE_FAULTS)
def test_piece_faults_read_the_same_everywhere(capsys, tmp_path, piece_id, circles, arcs,
                                               message):
    """The constructor is the one check for each piece fault: the decoder and
    ``certify`` on a file name it with the constructor's own message."""
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exact):
        PlanarPiece(piece_id, circles, arcs)
    stored = json.loads(json.dumps(_piece_json(piece_id, circles, arcs)))
    with pytest.raises(ValueError, match=exact):
        PlanarPiece.from_json(stored)
    code, out, err = run_cli(capsys, "certify", _write(tmp_path, "bad.json", [stored]), "--n", "0")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_certify_level_is_an_ascii_integer(capsys, tmp_path):
    """--n reads only -?[0-9]+; int() would run each of these as a level."""
    stored = _write(tmp_path, "four.json", {"pieces": _pants_pieces(), "n": 4})
    for level in ("\u0664", "+4", " 4", "4 ", "0_4", "4.0", "x"):
        with pytest.raises(SystemExit) as excinfo:
            main(["certify", stored, "--n", level])
        assert excinfo.value.code == 2, level
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument --n: invalid int value: {level!r}\n"), level
    assert run_cli(capsys, "certify", stored, "--n", "4")[0] == 0


def test_certify_reads_a_huge_circle_count_from_its_arcs(capsys, tmp_path):
    """Memory follows the arcs: 10^15 circles leave empty sectors that cost 0."""
    huge = {"piece": "H", "circles": 10**15, "arcs": [{"a": 0, "b": 1, "mult": 2}]}
    code, out, _ = run_cli(capsys, "certify", _write(tmp_path, "huge.json", [huge]), "--n", "0")
    assert code == 0
    assert [c["actual"] for c in json.loads(out)["checks"]] == [0, 0]


#-- facewidth --#

def test_facewidth_reports_genus_and_width(capsys, tmp_path):
    grid = _write(tmp_path, "grid3.json", toroidal_grid(3).to_json())
    code, out, _ = run_cli(capsys, "facewidth", grid)
    assert code == 0
    assert json.loads(out)["results"] == {"genus": 1, "face_width": 3}

    sphere = _write(tmp_path, "tetra.json", TETRAHEDRON.to_json())
    code, out, _ = run_cli(capsys, "facewidth", sphere)
    assert code == 0
    assert json.loads(out)["results"] == {"genus": 0, "face_width": "infinite"}

    torus = _write(tmp_path, "onevertex.json", ONE_VERTEX_TORUS.to_json())
    code, out, _ = run_cli(capsys, "facewidth", torus)
    assert code == 0
    assert json.loads(out)["results"]["face_width"] == 1


def test_facewidth_floods_for_components_once(capsys, tmp_path, monkeypatch):
    """The CLI and face_width share one component flood: genus is cached on the map."""
    floods = []
    original = facewidth._piece_chis

    def counting(rs, cut):
        if not cut:
            floods.append(rs)
        return original(rs, cut)

    monkeypatch.setattr(facewidth, "_piece_chis", counting)
    grid = _write(tmp_path, "grid4.json", toroidal_grid(4).to_json())
    code, out, _ = run_cli(capsys, "facewidth", grid)
    assert code == 0
    assert json.loads(out)["results"] == {"genus": 1, "face_width": 4}
    assert len(floods) == 1


def test_facewidth_rejects_broken_maps(capsys, tmp_path):
    two_tori = {
        "rotations": [[0, 1, 2, 3], [10, 11, 12, 13]],
        "edges": [[0, 2], [1, 3], [10, 12], [11, 13]],
    }
    path = _write(tmp_path, "twotori.json", two_tori)
    code, _, err = run_cli(capsys, "facewidth", path)
    assert code == 2 and "connected" in err

    bad = _write(tmp_path, "bad.json", {"rotations": [[0, 1]], "edges": [[0, 0]]})
    assert run_cli(capsys, "facewidth", bad)[0] == 2

    # darts decode strictly: no float truncation, no bool as 1
    loose = [
        ("float_dart.json", {"rotations": [[0.9, 2, 1, 3]], "edges": [[0, 1], [2, 3]]}),
        ("bool_dart.json", {"rotations": [[True, 0, 2, 3]], "edges": [[0, 2], [1, 3]]}),
        ("float_end.json", {"rotations": [[0, 1, 2, 3]], "edges": [[0, 2.0], [1, 3]]}),
    ]
    for name, payload in loose:
        code, out, err = run_cli(capsys, "facewidth", _write(tmp_path, name, payload))
        assert (code, out) == (2, ""), name
        assert "must be an integer" in err

    no_edges = _write(tmp_path, "no_edges.json", {"rotations": [[0, 1, 2, 3]]})
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    # a wrong shape names the field and the JSON type it needs
    list_map = _write(tmp_path, "list_map.json", [1, 2])
    int_rotations = _write(tmp_path, "int_rotations.json", {"rotations": 5, "edges": []})
    int_rotation = _write(tmp_path, "int_rotation.json",
                          {"rotations": [[0, 1], 7], "edges": [[0, 1]]})
    # arrays decode in file order, rotations first, each one's shape before its darts
    in_order = [
        ({"rotations": [[0, 1.5], 7], "edges": []}, "dart must be an integer, got 1.5"),
        ({"rotations": [[0, 1], 7, [True]], "edges": []}, "each rotation must be an array"),
        ({"rotations": [[0, 1], [2, "3"]], "edges": [5]}, "dart must be an integer, got '3'"),
        ({"rotations": [[0, 1]], "edges": [[0, None], 5]}, "edge dart must be an integer"),
        ({"rotations": [[0, 1]], "edges": [[0, 1], 5]}, "each edge must be an array"),
    ]
    for path, message in (
        (no_edges, "missing field 'edges'"),
        (str(deep), "nested too deeply"),
        (str(broken), f"{broken} is not JSON"),
        *_undecodable(tmp_path),
        (list_map, "expected an object with field 'rotations'"),
        (int_rotations, "field 'rotations' must be an array"),
        (int_rotation, "each rotation must be an array"),
        *((_write(tmp_path, f"in_order{t}.json", payload), message)
          for t, (payload, message) in enumerate(in_order)),
    ):
        code, out, err = run_cli(capsys, "facewidth", path)
        assert (code, out) == (2, ""), path
        assert message in err and "Traceback" not in err


#-- bounds --#

def test_bounds_torus_knot_intervals(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--tag", "torus_knot=2,3")
    assert code == 0
    report = json.loads(out)
    facts = report["results"]["facts"]
    assert (facts["r"]["lo"], facts["r"]["hi"]) == ("2", "2")
    assert (facts["bs"]["lo"], facts["bs"]["hi"]) == ("4", "4")
    assert report["results"]["display"]["r"] == "[2, 2]"
    assert report["results"]["display"]["beta1"] == "[0, inf)"


def test_bounds_two_bridge(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--tag", "two_bridge")
    assert code == 0
    facts = json.loads(out)["results"]["facts"]
    assert (facts["r"]["lo"], facts["r"]["hi"]) == ("2", "2")


def test_bounds_contradiction_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--tag", "nontrivial_knot", "--seed", "bs=3"
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    contradiction = report["results"]["contradiction"]
    assert "seed:bs" in contradiction["rules"]


def test_bounds_primitive_raises_beta1_to_r(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--tag", "primitive")
    assert code == 0
    assert json.loads(out)["results"]["display"]["beta1"] == "[1, inf)"


def test_bounds_flags_do_not_leak_between_calls(capsys):
    """Repeatable flags start empty on every call of main.

    A parser kept between calls must not carry the argparse ``append``
    defaults of one call into the next.
    """
    assert run_cli(capsys, "bounds", "--seed", "b=4", "--tag", "composite")[0] == 0
    code, out, _ = run_cli(capsys, "bounds")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == ["bounds"]
    assert report["inputs"] == {"tags": [], "seeds": {}}


def test_bounds_without_flags_stays_wide(capsys):
    code, out, _ = run_cli(capsys, "bounds")
    assert code == 0
    display = json.loads(out)["results"]["display"]
    assert display["r"] == "[1, inf)"
    assert display["bs"] == "[2, inf)"


def test_bounds_refuses_a_bridge_number_of_zero(capsys):
    """Every subject has a maximum: b = 0 is a contradiction, b = 1 is not."""
    code, out, err = run_cli(capsys, "bounds", "--seed", "b=0")
    assert (code, err) == (1, "")
    assert json.loads(out)["results"]["contradiction"] == {
        "attribute": "b", "lo": "1", "hi": "0", "rules": ["R13", "seed:b"],
    }
    code, out, _ = run_cli(capsys, "bounds", "--seed", "b=1")
    assert code == 0
    assert json.loads(out)["results"]["display"]["b"] == "[1, 1]"


def test_bounds_rejects_bad_flags(capsys):
    assert run_cli(capsys, "bounds", "--tag", "mystery")[0] == 2
    assert run_cli(capsys, "bounds", "--tag", "torus_knot=1,5")[0] == 2
    for seeds, message in (
        (["b"], "seed 'b' must look like b=3 or bs=7/2"),
        (["b=x"], "seed value 'x' is not a rational number"),
        (["b=1/0"], "seed value '1/0' is not a rational number"),
        (["girth=3"], "unknown attribute 'girth'"),
        (["b=2", "b=2"], "duplicate seed for 'b'"),
        # the sign is checked once, by the Interval the seed becomes
        (["b=-3"], "seed for 'b': interval endpoints must be non-negative"),
    ):
        argv = [arg for seed in seeds for arg in ("--seed", seed)]
        assert run_cli(capsys, "bounds", *argv) == (2, "", f"error: {message}\n"), seeds
    # the constructor counts a tag's parameters, for the command line as for a caller
    code, out, err = run_cli(capsys, "bounds", "--tag", "torus_knot=3")
    assert (code, out, err) == (2, "", "error: torus_knot takes exactly 2 parameters\n")
    # two even pretzel parameters close into a link, not a knot
    code, out, err = run_cli(capsys, "bounds", "--tag", "pretzel=2,4,6")
    assert (code, out) == (2, "")
    assert err == "error: pretzel parameters with two or more even numbers give a link\n"
    # P(1, -1, 1) is a knot diagram of the unknot, which is no subject either
    code, out, err = run_cli(capsys, "bounds", "--tag", "pretzel=1,-1,1")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: pretzel parameters .* give the unknot\n", err)


def test_bounds_integers_are_ascii(capsys):
    """Tag parameters and seeds read only ASCII -?[0-9]+ integers (and p/q
    for seeds); int() or Fraction() would run each of these as another value."""
    for tag in ("torus_knot=1_0,3", "torus_knot=\u0663,5", "torus_knot=+3,5",
                "torus_knot=3,\uff15", "torus_knot=3, 5", "pretzel=-2,3,+7"):
        code, out, err = run_cli(capsys, "bounds", "--tag", tag)
        assert (code, out) == (2, ""), tag
        assert err == f"error: parameters of {tag.partition('=')[0]!r} must be integers\n"
    for seed in ("b=\u0663", "b=1_0", "b=+3", "bs=3.5", "bs=7/+2", "bs=7/-2", "bs=7/ 2",
                 "b=1e1", "b=-", "b="):
        code, out, err = run_cli(capsys, "bounds", "--seed", seed)
        assert (code, out) == (2, ""), seed
        assert err == f"error: seed value {seed.partition('=')[2]!r} is not a rational number\n"
    # spaces around '=' keep working, and the report echoes the value read
    code, out, _ = run_cli(capsys, "bounds", "--tag", "torus_knot = 3,5", "--seed", " bs = 12/2 ")
    assert code == 0
    assert json.loads(out)["command"] == ["bounds", "--tag torus_knot=3,5", "--seed bs=6"]


#-- Fuzzing --#

_small_int = st.integers(min_value=-9, max_value=9).map(str)
_tag = st.one_of(
    st.sampled_from(["two_bridge", "composite", "theta_curve", "torus_knot=3,5",
                     "pretzel=-2,3,7"]),
    st.builds(
        lambda name, params: name if params is None else f"{name}={','.join(params)}",
        st.sampled_from(sorted(TAG_NAMES) + ["", "knot"]),
        st.none() | st.lists(_small_int | st.text(max_size=3), max_size=4),
    ),
    st.text(max_size=12),
)
_seed = st.builds(
    lambda name, sep, value: f"{name}{sep}{value}",
    st.sampled_from(ATTRIBUTES + ("girth", "")),
    st.sampled_from(["=", "", " = "]),
    _small_int | st.builds(lambda p, q: f"{p}/{q}", _small_int, _small_int) | st.text(max_size=4),
)
# the parameter ranges keep every verify call small and fast
_family = st.one_of(
    st.text(max_size=12),
    st.builds(
        lambda kind, x, y: f"{kind}:{x},{y}",
        st.sampled_from(["torus", "exactly", "lpq", "weird", ""]),
        st.integers(min_value=-2, max_value=9),
        st.integers(min_value=-2, max_value=40),
    ),
)


def _assert_exit_contract(capsys, argv: list[str]) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


_fuzz = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz
@given(tags=st.lists(_tag, max_size=2), seeds=st.lists(_seed, max_size=2))
def test_fuzzed_bounds_flags_keep_the_exit_contract(capsys, tags, seeds):
    """Any tag and seed strings exit 0, 1 or 2, never with a traceback."""
    argv = ["bounds", *(f"--tag={t}" for t in tags), *(f"--seed={s}" for s in seeds)]
    _assert_exit_contract(capsys, argv)


@_fuzz
@given(cmd=st.sampled_from(["verify", "generate"]), family=_family)
def test_fuzzed_families_keep_the_exit_contract(capsys, cmd, family):
    """Any family string exits 0, 1 or 2, never with a traceback."""
    _assert_exit_contract(capsys, [cmd, family])


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.integers(min_value=-10**30, max_value=10**30), st.sampled_from([0, 1, 2, 3, 10**15]),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["pieces", "n", "piece", "circles", "arcs", "a", "b", "mult",
                         "rotations", "edges"]) | st.text(max_size=2),
        inner, max_size=4,
    ),
    max_leaves=12,
)


def _spoiled(draw, value):
    """``value`` with one node, found by walking down at random, replaced or dropped."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        keys = range(len(value)) if isinstance(value, list) else sorted(value)
        key = draw(st.sampled_from(keys))
        out = list(value) if isinstance(value, list) else dict(value)
        if isinstance(out, dict) and draw(st.booleans()):
            del out[key]
        else:
            out[key] = _spoiled(draw, out[key])
        return out
    return draw(_json_value)


@st.composite
def _piece_file(draw):
    pieces = []
    for t in range(draw(st.integers(1, 2))):
        k = draw(st.integers(2, 6))
        pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=k, unique=True))
        arcs = [{"a": a, "b": b, "mult": draw(st.integers(1, 5))} for a, b in pairs]
        pieces.append({"piece": f"P{t}", "circles": k, "arcs": arcs})
    return {"pieces": pieces, "n": draw(st.integers(0, 9))}


_dart_name = st.one_of(st.integers(-2**45, -1), st.integers(0, 64), st.integers(2**40, 2**45))


@st.composite
def _map_file(draw):
    """A valid map file over sparse dart names: negatives, gaps and names past 2**40."""
    m = draw(st.integers(1, 5))
    names = draw(st.lists(_dart_name, min_size=2 * m, max_size=2 * m, unique=True))
    darts = draw(st.permutations(names))
    cuts = sorted(draw(st.sets(st.integers(1, 2 * m - 1), max_size=3)))
    rotations = [darts[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * m])]
    edges = [names[2 * t:2 * t + 2][::draw(st.sampled_from([1, -1]))] for t in range(m)]
    return {"rotations": rotations, "edges": edges}


def _file_text(valid):
    """JSON text: a valid file, the same file spoiled, junk, or deep nesting."""
    spoiled = st.composite(lambda draw: _spoiled(draw, draw(valid)))()
    deep = st.builds(lambda depth, opener: opener * depth,
                     st.sampled_from([10, 5000, 200_000]), st.sampled_from(["[", '{"a": ']))
    return st.one_of(valid.map(json.dumps), spoiled.map(json.dumps),
                     _json_value.map(json.dumps), deep)


def _assert_file_contract(capsys, tmp_path, command: str, text: str) -> None:
    """Exit 0, 1 or 2 without a traceback, with the same report on a rerun."""
    path = tmp_path / "input.json"
    path.write_text(text)
    reports = []
    for _ in range(2):
        code, out, err = run_cli(capsys, command, str(path))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if out:
            report = json.loads(out)
            del report["duration_seconds"]
            out = json.dumps(report)
        reports.append((code, out))
    assert reports[0] == reports[1]


@_fuzz
@given(text=_file_text(_piece_file()))
def test_fuzzed_certify_files_keep_the_exit_contract(capsys, tmp_path, text):
    _assert_file_contract(capsys, tmp_path, "certify", text)


@_fuzz
@given(text=_file_text(_map_file()))
def test_fuzzed_facewidth_files_keep_the_exit_contract(capsys, tmp_path, text):
    _assert_file_contract(capsys, tmp_path, "facewidth", text)


@_fuzz
@given(payload=_map_file())
def test_fuzzed_sparse_maps_report_the_oracle_face_width(capsys, tmp_path, payload):
    code, out, err = run_cli(capsys, "facewidth", _write(tmp_path, "map.json", payload))
    if code == 2:
        # a valid map is refused only when it is not connected
        assert "connected" in err
        return
    assert code == 0
    width = candidate_face_width(payload["rotations"], payload["edges"])
    assert json.loads(out)["results"]["face_width"] == (
        "infinite" if width == math.inf else width
    )


#-- Report behaviour --#

def test_reports_are_deterministic_up_to_duration(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "verify", "exactly:4,2")
        report = json.loads(out)
        del report["duration_seconds"]
        runs.append(json.dumps(report))
    assert runs[0] == runs[1]

    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "bounds", "--tag", "torus_knot=3,5")
        report = json.loads(out)
        del report["duration_seconds"]
        runs.append(json.dumps(report))
    assert runs[0] == runs[1]


def test_pretty_output_is_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "exactly:4,2", "--pretty")
    assert code == 0
    assert out.startswith("command: verify")
    assert "verdict: pass" in out

    code, out, _ = run_cli(capsys, "bounds", "--tag", "torus_knot=3,5", "--pretty")
    assert code == 0
    assert "r: [3, 3]" in out


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_errors_after_decoding_are_not_usage_errors(tmp_path, monkeypatch, error):
    """Exit 2 means unusable input.  An error raised by the computation on
    input that already decoded is a bug, and it escapes ``main``."""

    def broken(*args):
        raise error("broken computation")

    monkeypatch.setattr("surfrep.families.verify_family", broken)
    monkeypatch.setattr("surfrep.facewidth.face_width", broken)
    grid = _write(tmp_path, "grid3.json", toroidal_grid(3).to_json())
    for argv in (["verify", "torus:3,5"], ["facewidth", grid]):
        with pytest.raises(error, match="broken computation"):
            main(argv)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_keeps_the_verdict(unbuffered):
    """A reader that leaves early, as ``| head -n 1`` does, is no crash:
    the exit code is the verdict's, or 0 for ``generate``, and stderr
    stays empty.  The pipe's read end is closed before the command starts,
    so every write to stdout fails."""
    env = {**os.environ, "PYTHONPATH": str(Path(surfrep.__file__).parent.parent),
           "PYTHONUNBUFFERED": unbuffered}
    for argv, code in ((["verify", "exactly:4,2", "--pretty"], 0),
                       (["verify", "exactly:5,2"], 1),
                       (["generate", "lpq:2,7"], 0)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "surfrep.cli", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, b""), argv


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["unknown-command"])
    assert excinfo.value.code == 2


#-- Parsing --#

def _outcome(capsys, parse, argv: list[str]):
    """The namespace a parse returns, or the code it exits with, and what it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def _assert_parse_matches_the_full_tree(capsys, argv: list[str]) -> None:
    """``_parse`` reads what follows a subcommand's name with a reader that
    has no ``-h`` and prints nothing, and hands every call it refuses to the
    full tree; it must read every argv as the full tree does, printing the
    same help and errors."""
    assert _outcome(capsys, _parse, argv) == _outcome(capsys, build_parser().parse_args, argv)


def test_parse_matches_the_full_tree(capsys):
    for argv in ([], ["-h"], ["verify", "-h"], ["bogus"], ["verif", "torus:3,5"], ["verify"],
                 ["verify", "a", "b"], ["verify", "torus:3,5", "--bogus"],
                 ["certify", "x", "--n", "q"], ["bounds", "--tag"], ["--pretty", "verify", "x"],
                 ["verify", "--", "torus:3,5"], ["verify", "torus:3,5", "-h"],
                 ["verify", "--pre", "torus:3,5"], ["certify", "f.json", "--n=3"],
                 ["bounds", "--seed=b=2", "--ta", "composite"], ["verify", "--", "-3"],
                 ["generate", "--pretty", "--pretty", "torus:3,5"],
                 # the reader has no -h: help, and prefixes of --help, go to the tree
                 ["verify", "-h", "torus:3,5"], ["verify", "--he", "torus:3,5"],
                 ["bounds", "--h"], ["bounds", "--tag", "-h"], ["certify", "f.json", "--n", "-h"],
                 ["certify", "f.json", "--n", "-3"], ["verify", "--", "-h"], ["facewidth"],
                 ["generate", "--pretty"]):
        _assert_parse_matches_the_full_tree(capsys, argv)


def test_a_valid_call_parses_to_plain_values():
    """The parse records a call's subcommand by name alone: ``main`` takes
    its two steps from ``cli._COMMANDS``, so the namespace of a valid call
    of each subcommand is the full tree's and holds no callable."""
    for argv in (["generate", "torus:3,5"], ["verify", "--pretty", "lpq:2,7"],
                 ["certify", "f.json", "--n", "4"], ["facewidth", "map.json"],
                 ["bounds", "--tag", "two_bridge", "--seed", "b=2"]):
        parsed = vars(_parse(argv))
        assert parsed == vars(build_parser().parse_args(argv)), argv
        assert parsed["subcommand"] == argv[0]
        assert not [key for key, value in parsed.items() if callable(value)], argv


@_fuzz
@given(argv=st.lists(st.sampled_from(
    ["generate", "verify", "certify", "facewidth", "bounds", "-h", "--help", "--pretty", "--n",
     "--tag", "--seed", "--", "-", "torus:3,5", "4", "--pre", "--n=4", "--tag=composite", "-x",
     "--he", "--h", "-hx"]),
    max_size=5))
def test_fuzzed_argv_parses_as_with_the_full_tree(capsys, argv):
    _assert_parse_matches_the_full_tree(capsys, argv)


def test_a_call_builds_only_the_parsers_it_reads(capsys, tmp_path, monkeypatch):
    """A valid subcommand call builds its own reader alone; help lists every
    subcommand, so it builds all six, and a call the reader refuses or
    leaves arguments over is reported by the full tree after the reader."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    pieces = _write(tmp_path, "pieces.json", {"pieces": _pants_pieces(), "n": 4})
    grid = _write(tmp_path, "grid3.json", toroidal_grid(3).to_json())
    for argv in (["generate", "torus:3,5"], ["verify", "torus:3,5"], ["certify", pieces],
                 ["facewidth", grid], ["bounds", "--tag", "two_bridge"]):
        built.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert built == [f"surfrep {argv[0]}"]
    built.clear()
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert len(built) == 6
    names = ["generate", "verify", "certify", "facewidth", "bounds"]
    for argv, code in ((["verify", "torus:3,5", "extra"], 2), (["verify", "-h"], 0),
                       (["certify", "x", "--n", "q"], 2)):
        built.clear()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == code
        assert built == [f"surfrep {argv[0]}", "surfrep", *(f"surfrep {name}" for name in names)]
