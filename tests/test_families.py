"""Parametric families: construction, claimed counts, verification reports."""

from __future__ import annotations

import json
import math

import pytest

from surfrep.cli import main
from surfrep.families import (
    claimed_counts,
    exact_knot,
    lpq_link,
    parse_family,
    torus_knot,
    verify_family,
)
from surfrep.surface import MultiCurve


#-- Construction --#

def test_constructor_validation():
    with pytest.raises(ValueError):
        torus_knot(0, 5)
    with pytest.raises(ValueError):
        torus_knot(3, 0)
    with pytest.raises(ValueError):
        exact_knot(1, 2)
    with pytest.raises(ValueError):
        exact_knot(4, 0)
    with pytest.raises(ValueError):
        lpq_link(0, 4)
    with pytest.raises(ValueError):
        lpq_link(2, 6)  # q must exceed 3p
    lpq_link(2, 7)


def test_weight_vectors():
    assert torus_knot(3, 5).curve == MultiCurve((5,), (3,))
    assert exact_knot(4, 2).curve == MultiCurve((5, 4, 2), (2, 2, 2))
    assert exact_knot(5, 3).curve == MultiCurve((6, 5, 3, 3), (3, 2, 3, 3))
    assert exact_knot(4, 1).curve == MultiCurve((5, 4), (2, 2))
    assert lpq_link(2, 7).curve == MultiCurve((7, 7, 7), (2, 2, 2))


def test_parse_family():
    assert parse_family("torus:3,5") == torus_knot(3, 5)
    assert parse_family("exactly:4,2") == exact_knot(4, 2)
    assert parse_family("lpq:2,7") == lpq_link(2, 7)
    for bad in ("torus:3", "torus:3,5,7", "weird:1,2", "lpq:2,6", "torus:a,b", "torus",
                "torus:\u0663,5", "torus: 3,5", "torus:+3,5", "torus:1_0,5",
                "torus:3,5 ", "torus:3,\uff15", "torus:-,5", "torus:--3,5"):
        with pytest.raises(ValueError):
            parse_family(bad)


#-- Claimed counts --#

def test_exactly_counts_match_computation():
    """Closed-form counts agree with the pairing for the whole grid."""
    for n in range(2, 9):
        for g in range(1, 4):
            inst = exact_knot(n, g)
            for family, index, expected, _ in claimed_counts(inst):
                assert inst.curve.boundary_count(family, index) == expected, (n, g, family, index)


def test_lpq_counts_match_computation():
    for p in range(1, 4):
        for q in range(3 * p + 1, 3 * p + 5):
            inst = lpq_link(p, q)
            for family, index, expected, _ in claimed_counts(inst):
                assert inst.curve.boundary_count(family, index) == expected


def test_torus_counts_match_computation():
    for p in range(1, 7):
        for q in range(1, 7):
            inst = torus_knot(p, q)
            for family, index, expected, _ in claimed_counts(inst):
                assert inst.curve.boundary_count(family, index) == expected


def test_exactly_count_values_at_4_2():
    by_name = {f"{fam}{i}": (v, f) for fam, i, v, f in claimed_counts(exact_knot(4, 2))}
    assert by_name == {
        "m0": (4, "n"),
        "m1": (4, "n"),
        "m2": (4, "2*ceil(n/2)"),
        "l0": (7, "n+1+ceil(n/2)"),
        "l1": (9, "2*n+1"),
        "l2": (6, "n+ceil(n/2)"),
    }


#-- Reports --#

def passed(checks) -> bool:
    """The verdict of a verify run over these checks."""
    return all(c.passed for c in checks)


def test_torus_reports_pass():
    for p in range(1, 7):
        for q in range(1, 7):
            checks = verify_family(torus_knot(p, q))
            assert passed(checks), checks
            names = [c.name for c in checks]
            assert "smoothed components = gcd(p, q)" in names
            assert "crossing upper bound = min(p, q)" in names


def test_exactly_reports_even_weights_pass():
    for n in (2, 4, 6, 8):
        for g in (1, 2, 3):
            checks = verify_family(exact_knot(n, g))
            assert passed(checks), (n, g, checks)


def test_exactly_reports_odd_weights_fail_only_representativity():
    """Odd n at genus >= 2: counts hold but the certificate stops at n-1."""
    for n in (3, 5, 7):
        for g in (2, 3):
            checks = verify_family(exact_knot(n, g))
            assert not passed(checks)
            failing = [c for c in checks if not c.passed]
            assert [c.name for c in failing] == ["certified representativity"]
            assert all(c.passed for c in checks if c.name.startswith("count"))
    # genus 1 keeps the loop condition only, which meets n for odd n too
    for n in (3, 5, 7):
        assert passed(verify_family(exact_knot(n, 1)))


def test_lpq_reports_pass():
    for p, q in [(1, 4), (1, 5), (2, 7), (2, 9), (3, 10)]:
        checks = verify_family(lpq_link(p, q))
        assert passed(checks), (p, q, checks)
        comps = next(c for c in checks if c.name == "smoothed components")
        assert comps.actual >= 1


def test_report_json_shape(capsys):
    """The verify report names the instance in its inputs and shows one
    row per check, in order."""
    for family in ("torus:2,3", "exactly:4,1"):
        assert main(["verify", family]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {"family": family}
        checks = report["checks"]
        assert all(set(c) == {"name", "expected", "actual", "pass"} for c in checks)
        inst = parse_family(family)
        assert [c["name"] for c in checks] == [c.name for c in verify_family(inst)]


def test_components_match_gcd_for_torus_family():
    from surfrep.smoothing import trace_components

    for p in range(1, 7):
        for q in range(1, 7):
            assert trace_components(torus_knot(p, q).curve) == math.gcd(p, q)
