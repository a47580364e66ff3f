"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
are produced; without ``-s`` pytest shows them for failing criteria only.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from surfrep import (
    Interval,
    MultiCurve,
    PlanarPiece,
    SubjectTags,
    face_width,
    propagate,
    representativity_exact,
    trace_components,
)
from surfrep.certificate import evaluate_piece
from surfrep.families import claimed_counts, exact_knot, lpq_link, torus_knot

from oracles import enumerated_face_width, necklace_arc_min, necklace_loop_min
from test_bounds import RULE_ORDER, catalog_order, contains, snapshot
from test_facewidth import K33_TORUS, ONE_VERTEX_TORUS, toroidal_grid

BUDGETS = {1: 1.0, 2: 5.0, 3: 5.0, 4: 1.0, 5: 30.0, 6: 30.0, 7: 1.0, 8: 1.0}


def _conclude(num: int, failures: list, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < BUDGETS[num]
    status = "PASS" if ok else "FAIL"
    extra = f"; failures: {failures}" if failures else ""
    print(
        f"criterion {num}: {status} - {detail} "
        f"({elapsed:.2f}s / {BUDGETS[num]:.0f}s budget){extra}"
    )
    assert not failures, f"criterion {num}: {failures}"
    assert elapsed < BUDGETS[num], f"criterion {num} took {elapsed:.2f}s"


def test_criterion_1_exact_family_counts():
    """Every boundary count of K(n, g) matches its closed form."""
    started = time.perf_counter()
    failures = []
    compared = 0
    for n in range(2, 9):
        for g in range(1, 4):
            inst = exact_knot(n, g)
            for family, index, expected, formula in claimed_counts(inst):
                actual = inst.curve.boundary_count(family, index)
                compared += 1
                if actual != expected:
                    failures.append((n, g, f"{family}{index}", formula, expected, actual))
    _conclude(1, failures, started, f"{compared} boundary counts over 21 instances")


def test_criterion_2_representativity_exactness():
    """Certified representativity of K(n, g) equals n across the grid."""
    started = time.perf_counter()
    failures = []
    for n in range(2, 9):
        for g in range(1, 4):
            rep = representativity_exact(exact_knot(n, g).curve)
            if rep.upper != n or rep.exact != n:
                failures.append((n, g, rep.lower, rep.upper, rep.exact))
    _conclude(2, failures, started, "lower bound meets the upper bound on 21 instances")


def test_criterion_3_chain_link_certificates():
    """L(p, q) certifies to exactly 2p, consistent with its 6p strings."""
    started = time.perf_counter()
    failures = []
    for p in (1, 2, 3):
        for q in range(3 * p + 1, 3 * p + 5):
            rep = representativity_exact(lpq_link(p, q).curve)
            if rep.exact != 2 * p:
                failures.append((p, q, rep.lower, rep.upper, rep.exact))
                continue
            strings = 6 * p  # recorded bridge string count of the family
            facts = propagate(SubjectTags(), {"bs": Interval(strings, strings)})
            if not contains(facts["r"], rep.exact) or not rep.exact < Fraction(strings, 2):
                failures.append((p, q, "inconsistent with bs seed"))
    _conclude(3, failures, started, "12 instances certify r = 2p with strict slack")


def test_criterion_4_torus_knot_suite():
    """Certified representativity and component counts on the standard torus."""
    started = time.perf_counter()
    failures = []
    coprime = 0
    for p in range(2, 10):
        for q in range(p + 1, 10):
            if math.gcd(p, q) != 1:
                continue
            coprime += 1
            curve = torus_knot(p, q).curve
            r = representativity_exact(curve).exact
            if r != p or trace_components(curve) != 1:
                failures.append((p, q, r, trace_components(curve)))
    checked = 0
    for p in range(1, 13):
        for q in range(1, 13):
            if math.gcd(p, q) == 1:
                continue
            checked += 1
            got = trace_components(torus_knot(p, q).curve)
            if got != math.gcd(p, q):
                failures.append((p, q, got))
    _conclude(
        4, failures, started,
        f"{coprime} coprime pairs knotted, {checked} non-coprime pairs split into gcd circles",
    )


def test_criterion_5_certificate_oracle_equivalence():
    """Loop and arc minima match the dual-graph enumeration oracle."""
    started = time.perf_counter()
    failures = []
    rng = random.Random(8)
    systems = 0
    while systems < 220:
        k = rng.choice((2, 3, 3, 4, 4))
        mults = [rng.randrange(0, 5) for _ in range(k)]
        if sum(mults) > 12:
            continue
        merged: dict[tuple[int, int], int] = {}
        for u, mlt in enumerate(mults):
            if mlt:
                a, b = sorted((u, (u + 1) % k))
                merged[(a, b)] = merged.get((a, b), 0) + mlt
        arcs = tuple((a, b, mlt) for (a, b), mlt in sorted(merged.items()))
        piece = PlanarPiece("S", k, arcs)
        systems += 1
        bounds = evaluate_piece(piece)
        if bounds.loop_min != necklace_loop_min(k, arcs):
            failures.append(("loop", k, arcs))
        arc_min = min(necklace_arc_min(k, arcs, base) for base in range(k)) if k >= 3 else None
        if bounds.arc_min != arc_min:
            failures.append(("arc", k, arcs))
    _conclude(5, failures, started, f"{systems} random arc systems agree with the oracle")


def test_criterion_6_face_width_oracle_equivalence():
    """Face width matches length-bounded cycle enumeration on four maps."""
    started = time.perf_counter()
    failures = []
    cases = [
        ("grid3", toroidal_grid(3), 3),
        ("grid4", toroidal_grid(4), 4),
        ("one-vertex torus", ONE_VERTEX_TORUS, 1),
        ("K33 torus", K33_TORUS, 2),
    ]
    for name, rs, expected in cases:
        got = face_width(rs)
        brute = enumerated_face_width(list(rs.rotations), list(rs.edges), 2 * expected)
        if got != expected or brute != expected:
            failures.append((name, expected, got, brute))
    _conclude(6, failures, started, "module and brute-force widths 3/4/1/2 agree")


def test_criterion_7_bounds_engine():
    """Fixed points of the rule catalog, order independence included."""
    started = time.perf_counter()
    failures = []

    fs = propagate(SubjectTags.from_strings(("two_bridge",)))
    if snapshot(fs)["r"] != (2, 2) or snapshot(fs)["bs"] != (4, 4):
        failures.append(("two_bridge", snapshot(fs)))

    for p in range(2, 10):
        for q in range(p + 1, 10):
            if math.gcd(p, q) != 1:
                continue
            fs = propagate(SubjectTags.from_strings((f"torus_knot={p},{q}",)))
            snap = snapshot(fs)
            m = min(p, q)
            if snap["r"] != (m, m) or snap["b"] != (m, m) or snap["bs"] != (2 * m, 2 * m):
                failures.append(((p, q), snap))

    fs = propagate(SubjectTags.from_strings(("composite",)), {"b": Interval(4, 4)})
    if snapshot(fs)["r"] != (2, 2) or snapshot(fs)["bs"] != (8, 8):
        failures.append(("composite b=4", snapshot(fs)))

    subjects = [
        (SubjectTags.from_strings(("two_bridge",)), {}),
        (SubjectTags.from_strings(("torus_knot=3,5",)), {}),
        (SubjectTags.from_strings(("composite",)), {"b": Interval(4, 4)}),
        (SubjectTags.from_strings(("theta_curve", "primitive")),
         {"beta1": Interval(2, 2), "b": Interval(2, 2)}),
        (SubjectTags.from_strings(("nontrivial_knot",)), {"r": Interval(5, 5)}),
    ]
    rng = random.Random(3)
    references = [snapshot(propagate(t, s)) for t, s in subjects]
    for _ in range(100):
        order = tuple(rng.sample(RULE_ORDER, len(RULE_ORDER)))
        for (tags, seeds), reference in zip(subjects, references):
            with catalog_order(order):
                fixed_point = snapshot(propagate(tags, seeds))
            if fixed_point != reference:
                failures.append(("order", order, tags.labels()))
    _conclude(7, failures, started, "catalog fixed points reproduced under 100 rule orders")


def test_criterion_8_half_string_inequality():
    """r <= bs/2 on every instance with a pinned string count; equality only for torus knots."""
    started = time.perf_counter()
    failures = []
    for p in range(2, 10):
        for q in range(p + 1, 10):
            if math.gcd(p, q) != 1:
                continue
            r = representativity_exact(torus_knot(p, q).curve).exact
            strings = 2 * min(p, q)  # doubled bridge number
            if 2 * r != strings:
                failures.append(("torus", p, q, r, strings))
    for p in (1, 2, 3):
        for q in range(3 * p + 1, 3 * p + 5):
            rep = representativity_exact(lpq_link(p, q).curve)
            strings = 6 * p
            if rep.exact is None or not 2 * rep.exact < strings:
                failures.append(("lpq", p, q, rep.exact, strings))
    _conclude(8, failures, started, "equality exactly on torus knots, strict slack on the chains")
