"""Cut pieces, exact loop/arc minima, and the certificate pipeline."""

from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import cheapest_class, necklace_arc_min, necklace_loop_min
from surfrep.certificate import (
    PlanarPiece,
    Representativity,
    certify_pieces,
    cut_pieces,
    evaluate_piece,
    pieces_from_json,
    representativity_exact,
)
from surfrep.families import exact_knot, lpq_link
from surfrep.smoothing import trace_components
from surfrep.surface import MultiCurve


def _knot_curve(n: int, g: int) -> MultiCurve:
    c, f = -(-n // 2), n // 2
    a = (n + 1, n) + (c,) * (g - 1)
    b = (c, f) + (c,) * (g - 1)
    return MultiCurve(a, b)


#-- Cutting --#

def test_cut_pieces_chain2():
    mc = MultiCurve((5, 4, 2), (2, 2, 2))
    f1, f2 = cut_pieces(mc)
    assert f1.id == "F1+"
    assert f1.circles == 3
    assert f1.arcs == ((0, 1, 2), (0, 2, 2), (1, 2, 2))
    assert f2.id == "F2+"
    assert f2.arcs == ((0, 1, 5), (0, 2, 2), (1, 2, 4))


def test_cut_pieces_chain1_merges_pairs():
    """Genus 1: both classes connect the same two circles, so mults add."""
    mc = MultiCurve((5, 4), (2, 3))
    f1, f2 = cut_pieces(mc)
    assert f1.circles == 2
    assert f1.arcs == ((0, 1, 5),)
    assert f2.arcs == ((0, 1, 9),)


def test_cut_pieces_drops_zero_weights():
    mc = MultiCurve((3, 0, 1), (0, 0, 2))
    f1, f2 = cut_pieces(mc)
    assert f1.arcs == ((1, 2, 2),)
    assert f2.arcs == ((0, 1, 3), (0, 2, 1))


def test_torus_is_the_genus_one_chain_surface():
    """One weight per family is cut as two weights per family whose second
    class is empty: both pieces are annuli, the window closes at the
    torus's r = min(p, q), and the components are gcd(p, q) either way."""
    for p in range(1, 40):
        for q in range(1, 40):
            torus, chain = MultiCurve((q,), (p,)), MultiCurve((q, 0), (p, 0))
            assert representativity_exact(torus) == Representativity(min(p, q), min(p, q))
            assert representativity_exact(chain) == representativity_exact(torus)
            assert trace_components(torus) == trace_components(chain) == math.gcd(p, q)
    pieces = cut_pieces(MultiCurve((3,), (5,)))
    assert pieces == (PlanarPiece("F1+", 2, ((0, 1, 5),)), PlanarPiece("F2+", 2, ((0, 1, 3),)))


def test_piece_validation_and_json():
    with pytest.raises(ValueError):
        PlanarPiece("X", 1, ())
    with pytest.raises(ValueError, match=r"^bad arc endpoints \(0, 0\) for 3 circles$"):
        PlanarPiece("X", 3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        PlanarPiece("X", 3, ((1, 0, 1),))
    with pytest.raises(ValueError):
        PlanarPiece("X", 3, ((0, 1, 0),))
    with pytest.raises(ValueError):
        PlanarPiece("X", 3, ((0, 1, 1), (0, 1, 2)))
    p = PlanarPiece("F1+", 3, ((1, 2, 4), (0, 1, 2)))
    assert p.arcs == ((0, 1, 2), (1, 2, 4))  # canonical order
    assert PlanarPiece.from_json(json.loads(json.dumps(p.to_json()))) == p


@pytest.mark.parametrize("bad", [True, 2.0])
def test_piece_rejects_non_integer_counts(bad):
    """Circles, arc ends and multiplicities are counts, as ``from_json`` reads them."""
    for circles, arcs in (
        (bad, ()),
        (3, ((0, bad, 1),)),
        (3, ((bad, 2, 1),)),
        (3, ((0, 1, bad),)),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            PlanarPiece("P", circles, arcs)


def test_piece_decoder_leaves_every_count_to_the_constructor():
    """A piece with two faults earns the constructor's first one, read from
    a file or passed directly: the decoder checks only the JSON shape."""
    message = "piece needs at least two boundary circles, got 1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        PlanarPiece("P", 1, ((1.5, 2, 1),))
    with pytest.raises(ValueError, match=f"^{message}$"):
        PlanarPiece.from_json({"piece": "P", "circles": 1, "arcs": [{"a": 1.5, "b": 2, "mult": 1}]})


def test_a_piece_file_is_a_list_or_an_object_with_a_level():
    """The piece file is a bare list of pieces or ``{"pieces": [...], "n": k}``;
    a stored level is held to the integer rule and its sign is left to
    the certificate."""
    piece = PlanarPiece("P", 3, ((0, 1, 2), (1, 2, 2), (0, 2, 2)))
    stored = json.loads(json.dumps(piece.to_json()))
    assert pieces_from_json([stored]) == ([piece], None)
    assert pieces_from_json({"pieces": [stored], "n": 4}) == ([piece], 4)
    assert pieces_from_json({"pieces": [stored], "n": None}) == ([piece], None)
    assert pieces_from_json({"pieces": [], "n": -3}) == ([], -3)
    for raw in (7, "P", {"n": 4}, {"pieces": 7, "n": 4}, {"pieces": {"piece": "P"}}):
        with pytest.raises(ValueError, match="^piece file must hold a list of pieces$"):
            pieces_from_json(raw)
    for n in (4.7, True, "4"):
        message = f"stored n must be an integer, got {n!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pieces_from_json({"pieces": [stored], "n": n})
    # the pieces are decoded before the level is read
    with pytest.raises(ValueError, match="^missing field 'arcs'$"):
        pieces_from_json({"pieces": [{"piece": "P", "circles": 3}], "n": 4.7})


_LOOSE_COUNTS = st.one_of(st.integers(0, 4), st.booleans(), st.sampled_from([1.0, 3.0]))


@given(st.one_of(st.text(max_size=3), st.integers(-2, 9), st.none()), _LOOSE_COUNTS,
       st.lists(st.tuples(_LOOSE_COUNTS, _LOOSE_COUNTS, _LOOSE_COUNTS), max_size=3))
@example(7, 2, [])
@example(0, 3, [(0, 1, 1)])
def test_accepted_pieces_survive_json(piece_id, circles, arcs):
    try:
        piece = PlanarPiece(piece_id, circles, tuple(arcs))
    except ValueError:
        return
    assert PlanarPiece.from_json(json.loads(json.dumps(piece.to_json()))) == piece


def test_piece_conditions_give_the_score():
    pb = evaluate_piece(PlanarPiece("P", 3, ((0, 1, 2), (1, 2, 3), (0, 2, 5))))
    assert pb.conditions() == [("loop minimum", 5), ("doubled arc minimum", 4)]
    assert pb.score == 4
    pair = evaluate_piece(PlanarPiece("Q", 2, ((0, 1, 6),)))
    assert pair.conditions() == [("loop minimum", 6)] and pair.score == 6


#-- Loop minima --#

def test_loop_min_three_circle_examples():
    assert evaluate_piece(PlanarPiece("P", 3, ((0, 1, 2), (1, 2, 2), (0, 2, 2)))).loop_min == 4
    assert evaluate_piece(PlanarPiece("P", 3, ((0, 1, 7), (1, 2, 7), (0, 2, 7)))).loop_min == 14
    # a loop around an untouched circle crosses nothing
    assert evaluate_piece(PlanarPiece("P", 3, ((0, 1, 1),))).loop_min == 0


def test_loop_min_small_pieces():
    assert evaluate_piece(PlanarPiece("P", 2, ((0, 1, 6),))).loop_min == 6
    assert evaluate_piece(PlanarPiece("P", 2, ())).loop_min == 0


#-- Arc minima --#

def test_arc_min_vacuous_below_three_circles():
    assert evaluate_piece(PlanarPiece("P", 2, ((0, 1, 9),))).arc_min is None
    assert evaluate_piece(PlanarPiece("P", 2, ())).arc_min is None


def test_minima_read_the_arcs_not_the_circle_count():
    """Empty sectors cost 0 without being listed, so 10^15 circles are cheap."""
    huge = 10**15
    piece = PlanarPiece("H", huge, ((0, 1, 2), (0, huge - 1, 5)))
    assert (evaluate_piece(piece).loop_min, evaluate_piece(piece).arc_min) == (0, 0)
    # three circles, every sector filled: the far sectors weigh 6, 9 and 4
    full = evaluate_piece(PlanarPiece("F", 3, ((0, 1, 4), (1, 2, 6), (0, 2, 9))))
    assert (full.loop_min, full.arc_min) == (10, 4)
    # five circles, both empty sectors touching circle 4: per circle 0, 0, 0, 0, 4
    sparse = evaluate_piece(PlanarPiece("S", 5, ((0, 1, 4), (1, 2, 6), (2, 3, 8))))
    assert (sparse.loop_min, sparse.arc_min) == (0, 0)
    # one empty sector among four: the loop pairs it with the lightest full one
    single = evaluate_piece(PlanarPiece("T", 4, ((0, 1, 4), (1, 2, 6), (2, 3, 8))))
    assert (single.loop_min, single.arc_min) == (4, 0)


def test_arc_min_requires_adjacent_pairs():
    """Only a necklace can be built, so every piece has sector weights."""
    message = "arc pair (0, 2) is not cyclically adjacent among 4 circles"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PlanarPiece("P", 4, ((0, 2, 1),))


def test_arc_min_three_circle_examples():
    pants = evaluate_piece(PlanarPiece("P", 3, ((0, 1, 2), (1, 2, 2), (0, 2, 2))))
    assert pants.arc_min == 2
    lone = evaluate_piece(PlanarPiece("P", 3, ((0, 1, 1),)))
    # circles 0 and 1 can shed an arc around the untouched circle 2;
    # from circle 2 every essential arc separates 0 from 1: per circle 0, 0, 1
    assert lone.arc_min == 0


def test_arc_min_far_side_shortcut():
    """An arc hugging a far circle beats crossing any full sector.

    With uneven sector weights the cheapest essential arc encloses one
    endpoint of the lightest sector from across the necklace, crossing
    just that sector's copies.
    """
    piece = PlanarPiece("P", 3, ((0, 1, 2), (0, 2, 3), (1, 2, 3)))
    assert evaluate_piece(piece).arc_min == 2


#-- Oracle agreement --#

def test_minima_match_enumeration_oracle():
    """Closed-form minima equal the explicit dual-graph enumeration, and
    ``certify_pieces`` lists one ``>=`` row per condition of each piece in
    file order: the loop minimum, and the doubled arc minimum from three
    circles up.  Every row passes exactly when the level is at most the
    least score."""
    rng = random.Random(20260825)
    for _ in range(150):
        pieces, rows = [], []
        for t in range(rng.randint(1, 3)):
            k = rng.randrange(2, 8)
            while True:
                mults = [rng.randrange(0, 5) for _ in range(k)]
                if sum(mults) <= 12:
                    break
            merged: dict[tuple[int, int], int] = {}
            for u, mlt in enumerate(mults):
                if mlt:
                    a, b = sorted((u, (u + 1) % k))
                    merged[(a, b)] = merged.get((a, b), 0) + mlt
            arcs = tuple((a, b, mlt) for (a, b), mlt in sorted(merged.items()))
            piece = PlanarPiece(f"R{t}", k, arcs)
            loop = necklace_loop_min(k, arcs)
            arc = min(necklace_arc_min(k, arcs, b) for b in range(k)) if k >= 3 else None
            bounds = evaluate_piece(piece)
            assert (bounds.loop_min, bounds.arc_min) == (loop, arc)
            pieces.append(piece)
            rows.append((f"R{t} loop minimum", loop))
            if arc is not None:
                rows.append((f"R{t} doubled arc minimum", 2 * arc))
        least = min(value for _, value in rows)
        for n in range(least + 2):
            checks = certify_pieces(pieces, n)
            assert [(c.name, c.expected, c.actual, c.relation) for c in checks] == [
                (name, n, value, ">=") for name, value in rows
            ]
            assert all(c.passed for c in checks) == (n <= least)


def test_cut_piece_minima_match_oracle():
    rng = random.Random(11)
    for _ in range(40):
        g = rng.choice((1, 2, 3))
        k = g + 1
        while True:
            a = tuple(rng.randrange(0, 5) for _ in range(k))
            b = tuple(rng.randrange(0, 5) for _ in range(k))
            if sum(a) + sum(b):
                break
        mc = MultiCurve(a, b)
        for piece in cut_pieces(mc):
            bounds = evaluate_piece(piece)
            assert bounds.loop_min == necklace_loop_min(k, piece.arcs)
            if k >= 3:
                arc_min = min(necklace_arc_min(k, piece.arcs, b) for b in range(k))
                assert bounds.arc_min == arc_min
            else:
                assert bounds.arc_min is None


#-- Certificates --#

def test_certificate_exact_square_case():
    mc = _knot_curve(4, 2)
    assert all(c.passed for c in certify_pieces(cut_pieces(mc), 4))
    assert cheapest_class(mc) == 4
    by_id = {p.piece_id: p for p in map(evaluate_piece, cut_pieces(mc))}
    assert set(by_id) == {"F1+", "F2+"}
    assert (by_id["F1+"].loop_min, by_id["F1+"].arc_min) == (4, 2)
    assert (by_id["F2+"].loop_min, by_id["F2+"].arc_min) == (6, 2)
    assert (by_id["F1+"].score, by_id["F2+"].score) == (4, 4)
    assert not all(c.passed for c in certify_pieces(cut_pieces(mc), 5))

    rep = representativity_exact(mc)
    assert (rep.lower, rep.upper, rep.exact) == (4, 4, 4)


def test_certificate_link_case():
    mc = MultiCurve((7, 7, 7), (2, 2, 2))
    rep = representativity_exact(mc)
    assert (rep.lower, rep.upper, rep.exact) == (4, 4, 4)
    assert all(c.passed for c in certify_pieces(cut_pieces(mc), 4))
    by_id = {p.piece_id: p for p in map(evaluate_piece, cut_pieces(mc))}
    assert (by_id["F1+"].loop_min, by_id["F1+"].arc_min) == (4, 2)
    assert (by_id["F2+"].loop_min, by_id["F2+"].arc_min) == (14, 7)


def test_a_light_meridian_piece_closes_the_window():
    """The meridian piece's loop around two circles crosses one arc of each
    weight-1 sector, a disk of cost 2, where every reference class costs
    at least 6: the window [2, 6] of the cheapest class closes to [2, 2]."""
    mc = MultiCurve((9, 9, 9, 9), (1, 5, 1, 5))
    assert cheapest_class(mc) == 6
    rep = representativity_exact(mc)
    assert (rep.lower, rep.upper, rep.exact) == (2, 2, 2)


def test_the_upper_end_is_the_least_loop_minimum_of_both_cuts():
    """On random chain curves the upper end is the least loop minimum over
    both cuts, re-derived by enumeration, never above the cheapest class,
    and the lower end is what the cheapest class capped before: every
    score is at most its piece's loop minimum, so the cap never bit."""
    rng = random.Random(32)
    below = 0
    for _ in range(300):
        k = rng.randint(2, 7)
        weights = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(2 * k)]
        if not any(weights):
            continue
        mc = MultiCurve(weights[:k], weights[k:])
        pieces = cut_pieces(mc)
        scores = [evaluate_piece(p).score for p in pieces]
        rep = representativity_exact(mc)
        assert rep.upper == min(necklace_loop_min(k, p.arcs) for p in pieces)
        cheapest = cheapest_class(mc)
        assert rep.lower == min(cheapest, *scores) <= rep.upper <= cheapest
        below += rep.upper < cheapest
    assert below > 0


def test_family_upper_ends_are_the_cheapest_class():
    """On the chain families the least loop minimum is the cheapest class:
    on ``exactly:n,g`` the meridian piece's two lightest sectors are
    floor(n/2) + ceil(n/2) = n, the count of m0, and on ``lpq:p,q`` it is
    2p.  So no family's certified window moved with the upper end's source."""
    for n in range(2, 41):
        for g in range(1, 11):
            mc = exact_knot(n, g).curve
            assert representativity_exact(mc).upper == cheapest_class(mc) == n
    for p in range(1, 21):
        for q in range(3 * p + 1, 3 * p + 12):
            mc = lpq_link(p, q).curve
            assert representativity_exact(mc).upper == cheapest_class(mc) == 2 * p


def test_certificate_genus1_has_no_arc_condition():
    for n in range(2, 9):
        mc = _knot_curve(n, 1)
        checks = certify_pieces(cut_pieces(mc), n)
        assert all(c.passed for c in checks)
        assert representativity_exact(mc).exact == n
        # one loop row per piece and no arc row
        assert [c.name for c in checks] == ["F1+ loop minimum", "F2+ loop minimum"]
        assert {c.actual for c in checks} == {n, 2 * n + 1}


def test_odd_weights_leave_a_gap_at_higher_genus():
    """Uneven sector weights cap the certified bound below the upper one.

    The cheapest essential arc crosses only the lighter half of the
    split sector, so for odd n the arc condition stops at n-1 while the
    upper end, the meridian piece's loop minimum, stays at n.  The window
    is reported honestly instead of being rounded shut.
    """
    for n, g in [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)]:
        rep = representativity_exact(_knot_curve(n, g))
        assert rep.upper == n
        assert rep.lower == n - 1
        assert rep.exact is None
    for n, g in [(2, 2), (4, 2), (6, 2), (8, 2), (4, 3), (6, 3), (8, 3)]:
        rep = representativity_exact(_knot_curve(n, g))
        assert rep.exact == n


def test_certify_explicit_pieces():
    pieces = [
        PlanarPiece("F1+", 3, ((0, 1, 2), (1, 2, 2), (0, 2, 2))),
        PlanarPiece("F1-", 3, ((0, 1, 2), (1, 2, 2), (0, 2, 2))),
    ]
    assert all(c.passed for c in certify_pieces(pieces, 4))
    assert not all(c.passed for c in certify_pieces(pieces, 5))
    with pytest.raises(ValueError, match="^no pieces to certify$"):
        certify_pieces([], 4)
    for level in (2.5, True, "4"):
        with pytest.raises(ValueError, match="certificate level must be an integer"):
            certify_pieces(pieces, level)
    for level in (-1, -3):
        with pytest.raises(ValueError, match=f"^certificate level must be >= 0, got {level}$"):
            certify_pieces(pieces, level)
    assert all(c.passed for c in certify_pieces(pieces, 0))
    assert [evaluate_piece(p).score for p in pieces] == [4, 4]


def test_certify_pieces_is_monotone_in_the_level():
    mc = _knot_curve(5, 2)
    results = [all(c.passed for c in certify_pieces(cut_pieces(mc), n)) for n in range(0, 9)]
    assert all(cert_ok or not later
               for cert_ok, later in zip(results, results[1:]))
    assert cheapest_class(mc) == 5
    # certified level tops out one below the upper bound for odd weights
    assert results == [True] * 5 + [False] * 4


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(st.integers(0, 9), min_size=g + 1, max_size=g + 1),
        st.lists(st.integers(0, 9), min_size=g + 1, max_size=g + 1),
    )
))
def test_parity_lemma_at_genus_two_and_up(case):
    """At genus >= 2 every class count and every loop minimum is at least
    twice the lightest weight, each being a sum of two weights.

    Each cut piece then scores twice its lightest sector, so the
    certified window is min(upper, 2 * min weight) and any exact value
    is even: odd levels cannot be certified there.
    """
    g, a, b = case
    assume(any(a + b))
    mc = MultiCurve(tuple(a), tuple(b))
    lightest = 2 * min(a + b)
    assert cheapest_class(mc) >= lightest
    rep = representativity_exact(mc)
    assert rep.lower == min(rep.upper, lightest)
    assert rep.exact is None or rep.exact % 2 == 0


#-- Symmetries of the chain surface --#

def _invariants(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, int, int]:
    mc = MultiCurve(b, a)
    rep = representativity_exact(mc)
    return trace_components(mc), rep.lower, rep.upper


def _symmetric_images(b: tuple[int, ...], a: tuple[int, ...], s: int):
    """The three maps of the weights that keep the chain's pairing: a
    cyclic shift of both tuples by s, the reversal and the exchange."""
    k = len(b)
    return (
        (b[s:] + b[:s], a[s:] + a[:s]),
        (tuple(b[-i % k] for i in range(k)), tuple(a[(1 - j) % k] for j in range(k))),
        (a[1:] + a[:1], b),
    )


def _check_chain_symmetries(rng: random.Random, draws: int, weight) -> None:
    """``draws`` random chains of genus 1 to 5, their weights drawn by
    ``weight(rng)``: each symmetric image keeps the invariants, and the
    plain exchange changes them on some draw."""
    done = changed = 0
    while done < draws:
        k = rng.randint(1, 5) + 1
        b = tuple(weight(rng) for _ in range(k))
        a = tuple(weight(rng) for _ in range(k))
        if not any(b + a):
            continue
        done += 1
        reference = _invariants(b, a)
        for mapped in _symmetric_images(b, a, rng.randrange(1, k)):
            assert _invariants(*mapped) == reference, (b, a, mapped)
        changed += _invariants(a, b) != reference
    assert changed > 0


def test_chain_symmetries_keep_components_and_bounds():
    """m_i meets l_i and l_{i+1} (indices mod g + 1), so three maps of the
    weights (b, a) keep the pairing, and with it the component count and
    both certified ends: a cyclic shift of both tuples, the reversal
    b'_i = b_{-i}, a'_j = a_{1-j}, and the exchange
    (b', a') = ((a_1, ..., a_g, a_0), b).  The plain exchange (a, b)
    breaks the pairing and changes them on some draws, so the check can
    fail."""
    _check_chain_symmetries(random.Random(20261019), 3000, lambda rng: rng.randint(0, 6))


def test_chain_symmetries_hold_at_large_weights():
    """The same three symmetries at weights of 10**6 to 10**9, zero about
    one time in ten: no walk could count these components, so the
    induction is checked against itself under maps it does not know."""
    _check_chain_symmetries(
        random.Random(20261021), 300,
        lambda rng: 0 if rng.random() < 0.1 else rng.randint(10**6, 10**9))
