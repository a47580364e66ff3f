"""Rotation systems, the radial map, and face-width computations."""

from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    _map_structure,
    candidate_face_width,
    cut_component_chis,
    enumerated_face_width,
    map_fault,
    radial_cycle_candidates,
    radial_cycle_catalog,
    radial_map,
)
from surfrep import facewidth
from surfrep.facewidth import (
    RotationSystem,
    _search_roots,
    _z2_labels,
    cut_along,
    cycle_is_contractible,
    face_width,
    radial,
)


#-- Reference maps --#

def component_chis(rs: RotationSystem) -> tuple[int, ...]:
    """Euler characteristic of each connected component, sorted, rebuilt by
    the oracle: a cut along no cycle leaves the components."""
    return cut_component_chis(rs.rotations, rs.edges, ())


def vertex_of(rs: RotationSystem) -> dict[int, int]:
    """Dart -> vertex, read off the rotations."""
    return {d: v for v, rot in enumerate(rs.rotations) for d in rot}


def toroidal_grid(rows: int, cols: int | None = None) -> RotationSystem:
    """rows-by-cols square grid on the torus; dart 4*(r*cols+c)+t, t = E,N,W,S."""
    cols = rows if cols is None else cols

    def dart(r: int, c: int, t: int) -> int:
        return 4 * ((r % rows) * cols + (c % cols)) + t

    rotations = tuple(
        tuple(dart(r, c, t) for t in range(4)) for r in range(rows) for c in range(cols)
    )
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((dart(r, c, 0), dart(r, c + 1, 2)))
            edges.append((dart(r, c, 3), dart(r + 1, c, 1)))
    return RotationSystem(rotations, tuple(edges))


def double_cover(n: int) -> RotationSystem:
    """Genus-2 double cover of the n-by-n toroidal grid, branched at two faces.

    Two copies of the grid, the second with darts shifted by 4 n^2, and
    the vertical edges between rows 0 and 1 in columns 0 .. n//2 - 1
    cross-paired between the copies.  The faces at the two ends of that
    slit join their copies into octagons, so chi = 2 * 0 - 2.
    """
    grid = toroidal_grid(n)
    shift = 4 * n * n
    # south dart of (0, c) with north dart of (1, c)
    slit = {(4 * c + 3, 4 * (n + c) + 1) for c in range(n // 2)}
    rotations = [*grid.rotations, *(tuple(d + shift for d in rot) for rot in grid.rotations)]
    edges = []
    for a, b in grid.edges:
        if (a, b) in slit:
            edges += [(a, b + shift), (a + shift, b)]
        else:
            edges += [(a, b), (a + shift, b + shift)]
    return RotationSystem(tuple(rotations), tuple(edges))


def relabelled(rs: RotationSystem, rng: random.Random) -> RotationSystem:
    """The same map under shuffled dart names, vertex order and rotation starts."""
    darts = [d for rot in rs.rotations for d in rot]
    names = dict(zip(darts, rng.sample(range(3 * len(darts)), len(darts))))
    rotations = []
    for rot in rng.sample(rs.rotations, len(rs.rotations)):
        k = rng.randrange(len(rot))
        rotations.append(tuple(names[d] for d in rot[k:] + rot[:k]))
    edges = [tuple(names[d] for d in rng.sample(e, 2)) for e in rs.edges]
    rng.shuffle(edges)
    return RotationSystem(tuple(rotations), tuple(edges))


ONE_VERTEX_TORUS = RotationSystem(((0, 1, 2, 3),), ((0, 2), (1, 3)))

# hexagonal embedding: one side keeps the order 3,4,5 at every vertex,
# the other reverses it, giving three hexagonal faces on the torus
K33_TORUS = RotationSystem(
    tuple(
        tuple(10 * v + w for w in rot)
        for v, rot in enumerate(
            [(3, 4, 5), (3, 4, 5), (3, 4, 5), (2, 1, 0), (2, 1, 0), (2, 1, 0)]
        )
    ),
    tuple((10 * v + w, 10 * w + v) for v in range(3) for w in range(3, 6)),
)

# one vertex, one octagonal face: the word a b a' b' c d c' d' of two handles
DOUBLE_TORUS = RotationSystem(
    ((0, 1, 2, 3, 4, 5, 6, 7),), ((0, 2), (1, 3), (4, 6), (5, 7))
)

TETRAHEDRON = RotationSystem(
    tuple(
        tuple(10 * v + w for w in rot)
        for v, rot in enumerate([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])
    ),
    tuple((10 * v + w, 10 * w + v) for v in range(4) for w in range(v + 1, 4)),
)


def face_refined(rs: RotationSystem) -> RotationSystem:
    """Subdivide every face by a center joined to each corner occurrence."""
    spokes: dict[int, tuple[int, int]] = {}
    c = max(d for rot in rs.rotations for d in rot) + 1
    for orbit in rs.faces:
        for y in orbit:
            spokes[y] = (c, c + 1)  # (corner-side dart, center-side dart)
            c += 2
    rotations = [tuple(x for y in rot for x in (spokes[y][0], y)) for rot in rs.rotations]
    for orbit in rs.faces:
        rotations.append(tuple(spokes[y][1] for y in reversed(orbit)))
    edges = list(rs.edges) + [pair for pair in spokes.values()]
    return RotationSystem(tuple(rotations), tuple(edges))


#-- Structure --#

def test_validation():
    # the CLI prints these on exit 2, so the text is part of the contract
    for rotations, edges, message in (
        ((), (), "map needs at least one vertex"),
        (((0, 1), ()), ((0, 1),), "vertex 1 has no darts"),
        (((0, 1, 0),), ((0, 1),), "dart 0 appears twice in the rotations"),
        (((0, 1),), ((0, 0),), "edge (0, 0) must pair two distinct darts"),
        (((0, 1),), ((0, 2),), "edge dart 2 missing from the rotations"),
        (((0, 1, 2, 3),), ((0, 1), (0, 2)), "dart 0 appears in two edges"),
        (((0, 1, 2, 3),), ((0, 1),), "darts without an opposite: [2, 3]"),
        # of several faults, the first met reading rotations, then edges
        (((0, 1), (), (1, 2)), ((0, 1),), "vertex 1 has no darts"),
        (((0, 1, 0),), ((5, 5),), "dart 0 appears twice in the rotations"),
        (((0, 1, 2, 3),), ((0, 1, 2), (7, 1)), "edge (0, 1, 2) must pair two distinct darts"),
        (((0, 1, 2, 3),), ((2, 3), (9, 0), (1, 1)), "edge dart 9 missing from the rotations"),
        (((0, 1, 2, 3),), ((3, 2), (1, 3), (0, 7)), "dart 3 appears in two edges"),
        (((5, -1, 2, 40),), ((40, 5),), "darts without an opposite: [-1, 2]"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RotationSystem(rotations, edges)


def _broken(rs: RotationSystem, rng: random.Random) -> tuple[list, list]:
    """``rs`` as plain lists with one to three seeded faults, any of which a
    later one may undo or hide."""
    rotations = [list(rot) for rot in rs.rotations]
    edges = [list(e) for e in rs.edges]
    darts = [d for rot in rotations for d in rot]
    fresh = max(darts) + 1
    for _ in range(rng.randrange(1, 4)):
        rot = rng.choice(rotations)
        if not isinstance(rot, list):  # replaced by fault 7, it takes no other
            continue
        arrays = [e for e in edges if isinstance(e, list)]
        fault = rng.randrange(8)
        if fault == 0 and rot:  # a dart dropped, from its rotation or with its edge
            if rng.random() < 0.5 or not edges:
                rot.pop(rng.randrange(len(rot)))
            else:
                edges.pop(rng.randrange(len(edges)))
        elif fault == 1:  # a dart repeated
            rot.insert(rng.randrange(len(rot) + 1), rng.choice(darts))
        elif fault == 2 and rot:  # a dart renamed, in the rotations or in an edge
            names = rot if rng.random() < 0.5 or not arrays else rng.choice(arrays)
            names[rng.randrange(len(names))] = rng.choice([fresh, rng.choice(darts)])
        elif fault == 3:  # a rotation emptied
            rot.clear()
        elif fault == 4 and arrays:  # an edge with three darts
            rng.choice(arrays).append(rng.choice([fresh, rng.choice(darts)]))
        elif fault == 5:  # a dart paired twice
            edges.insert(rng.randrange(len(edges) + 1), [rng.choice(darts), fresh])
        elif fault == 6:  # a dart that is not an integer, in the rotations or in an edge
            names = rot if rng.random() < 0.5 or not arrays else rng.choice(arrays)
            if names:
                t = rng.randrange(len(names))
                names[t] = rng.choice([float(names[t]), True, str(names[t])])
        elif fault == 7:  # a rotation or an edge that is an int, a string or an object
            rows = rotations if rng.random() < 0.5 or not edges else edges
            d = rng.choice(darts)
            rows[rng.randrange(len(rows))] = rng.choice([d, str(d), {"dart": d}])
    return rotations, edges


def test_constructor_names_the_reference_fault():
    """On seeded broken maps the constructor and the JSON decoder name the
    fault that the reference meets first in reading order."""
    rng = random.Random(18)
    faults = set()
    bases = [TETRAHEDRON, K33_TORUS, DOUBLE_TORUS, toroidal_grid(3)]
    for _ in range(600):
        base = rng.choice(bases) if rng.random() < 0.3 else _random_map(rng, rng.randrange(1, 8))
        rotations, edges = _broken(relabelled(base, rng), rng)
        fault = map_fault(rotations, edges)
        if fault is None:
            assert RotationSystem(rotations, edges).edges == tuple(map(tuple, edges))
            # the outer containers may be any iterable: the checks do not use them up
            assert RotationSystem(iter(rotations), iter(edges)).edges == tuple(map(tuple, edges))
            continue
        with pytest.raises(ValueError) as caught:
            RotationSystem(rotations, edges)
        assert str(caught.value) == fault
        payload = json.loads(json.dumps({"rotations": rotations, "edges": edges}))
        with pytest.raises(ValueError) as decoded:
            RotationSystem.from_json(payload)
        assert str(decoded.value) == fault
        faults.add(re.sub(r"got .*|\(.*\)|\[.*\]|-?\d+", "#", fault))
    # each message a map with a vertex can earn was met
    assert faults == {
        "each rotation must be an array, #",
        "each edge must be an array, #",
        "dart must be an integer, #",
        "edge dart must be an integer, #",
        "vertex # has no darts",
        "dart # appears twice in the rotations",
        "edge # must pair two distinct darts",
        "edge dart # missing from the rotations",
        "dart # appears in two edges",
        "darts without an opposite: #",
    }


def test_counts_and_genus():
    tetra = TETRAHEDRON
    assert (tetra.num_vertices, tetra.num_edges, tetra.num_faces) == (4, 6, 4)
    assert tetra.euler_characteristic == 2
    assert tetra.genus() == 0
    assert all(len(f) == 3 for f in tetra.faces)

    g3 = toroidal_grid(3)
    assert (g3.num_vertices, g3.num_edges, g3.num_faces) == (9, 18, 9)
    assert g3.genus() == 1
    assert all(len(f) == 4 for f in g3.faces)

    assert ONE_VERTEX_TORUS.faces == ((0, 3, 2, 1),)
    assert ONE_VERTEX_TORUS.genus() == 1

    assert K33_TORUS.genus() == 1
    assert sorted(len(f) for f in K33_TORUS.faces) == [6, 6, 6]


def test_disconnected_genus_raises():
    two_tori = RotationSystem(
        ((0, 1, 2, 3), (4, 5, 6, 7)),
        ((0, 2), (1, 3), (4, 6), (5, 7)),
    )
    assert component_chis(two_tori) == (0, 0)
    with pytest.raises(ValueError):
        two_tori.genus()


def test_json_roundtrip():
    for rs in (TETRAHEDRON, ONE_VERTEX_TORUS, toroidal_grid(3)):
        blob = json.loads(json.dumps(rs.to_json()))
        assert RotationSystem.from_json(blob) == rs


@st.composite
def _named_maps(draw) -> tuple[list[list[int]], list[list[int]]]:
    """Rotations and edges of a valid map on arbitrary distinct integer names."""
    names = draw(st.lists(st.integers(-2**80, 2**80), min_size=2, max_size=16, unique=True))
    names = names[:len(names) // 2 * 2]
    cuts = draw(st.sets(st.integers(1, len(names) - 1), max_size=len(names) // 2))
    bounds = [0, *sorted(cuts), len(names)]
    rotations = [names[a:b] for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations(names))
    return rotations, [order[t:t + 2] for t in range(0, len(order), 2)]


@settings(max_examples=150)
@given(_named_maps())
def test_every_accepted_map_round_trips_through_json(named):
    rs = RotationSystem(*named)
    assert RotationSystem.from_json(json.loads(json.dumps(rs.to_json()))) == rs


@settings(max_examples=150)
@given(_named_maps(), st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=3)),
       st.booleans(), st.data())
def test_non_integer_darts_are_refused_as_the_decoder_refuses_them(named, bad, in_edge, data):
    """A float, bool or string dart is the decoder's ValueError, word for word,
    whether it sits in a rotation or in an edge."""
    rotations, edges = named
    arrays = edges if in_edge else rotations
    names = data.draw(st.sampled_from(arrays))
    names[data.draw(st.integers(0, len(names) - 1))] = bad
    with pytest.raises(ValueError) as direct:
        RotationSystem(rotations, edges)
    with pytest.raises(ValueError) as decoded:
        RotationSystem.from_json(json.loads(json.dumps({"rotations": rotations, "edges": edges})))
    field = "edge dart" if in_edge else "dart"
    assert str(direct.value) == str(decoded.value) == f"{field} must be an integer, got {bad!r}"


#-- Radial map --#

def test_radial_structure():
    for rs in (TETRAHEDRON, ONE_VERTEX_TORUS, K33_TORUS, toroidal_grid(3)):
        rad = radial(rs)
        rotations, edges = radial_map(rs.rotations, rs.edges)
        assert rad == RotationSystem(tuple(rotations), tuple(edges))
        assert rad.euler_characteristic == rs.euler_characteristic
        assert rad.num_vertices == rs.num_vertices + rs.num_faces
        assert rad.num_edges == 2 * rs.num_edges
        # one quadrilateral face around every original edge
        assert all(len(f) == 4 for f in rad.faces)
        assert rad.num_faces == rs.num_edges
        # bipartite between vertex nodes and face nodes
        vert = vertex_of(rad)
        for d1, d2 in rad.edges:
            sides = {vert[d1] < rs.num_vertices, vert[d2] < rs.num_vertices}
            assert sides == {True, False}


def test_radial_equals_its_rebuild_through_the_constructor():
    """The radial map built by arithmetic is the map the constructor builds
    from its rotations and edges, down to the dense tables."""
    rng = random.Random(18)
    maps = []
    per_genus = dict.fromkeys(range(4), 0)
    while min(per_genus.values()) < 15:
        rs = _random_map(rng, rng.randrange(1, 10))
        if len(component_chis(rs)) != 1 or per_genus.get(rs.genus(), 15) >= 15:
            continue
        per_genus[rs.genus()] += 1
        maps.append(rs)
    maps += [relabelled(toroidal_grid(rows, cols), rng) for rows in (3, 4, 6) for cols in (rows, 7)]
    maps += [double_cover(n) for n in (3, 4, 5)]
    for rs in maps:
        rad = radial(rs)
        again = RotationSystem(rad.rotations, rad.edges)
        assert rad == again and rad.faces == again.faces
        assert list(rad._darts) == again._darts
        assert [list(rot) for rot in rad._rots] == again._rots
        for table in ("_pos", "_vert", "_alpha", "_faces", "_face_of"):
            assert getattr(rad, table) == getattr(again, table)


#-- Cutting --#

def test_cut_along_face_boundary_splits_off_a_disk():
    face = TETRAHEDRON.faces[0]
    assert cut_along(TETRAHEDRON, face) == (2, 2)
    assert cycle_is_contractible(TETRAHEDRON, face)


def test_cut_along_essential_loop_keeps_one_piece():
    assert cut_along(ONE_VERTEX_TORUS, (0,)) == (2,)
    assert not cycle_is_contractible(ONE_VERTEX_TORUS, (0,))


def test_cut_along_rejects_bad_cycles():
    with pytest.raises(ValueError, match="^cycle must be nonempty$"):
        cut_along(TETRAHEDRON, ())
    with pytest.raises(ValueError, match="^cycle repeats an edge$"):
        cut_along(TETRAHEDRON, (1, 10))  # both darts of edge 1-10
    with pytest.raises(ValueError, match="^cycle repeats a vertex$"):
        cut_along(TETRAHEDRON, (1, 2))  # both darts leave vertex 0
    # dart 1 runs from vertex 0 to vertex 1, but dart 21 leaves vertex 2
    with pytest.raises(ValueError, match="^cycle darts do not join up$"):
        cut_along(TETRAHEDRON, (1, 21))


def test_unknown_dart_is_named():
    """A dart that is not in the map is a ValueError naming it, not a KeyError."""
    with pytest.raises(ValueError, match="^dart 7 is not in the map$"):
        cut_along(ONE_VERTEX_TORUS, (7,))


def test_cut_along_separating_essential_cycle_leaves_two_tori():
    """A cycle splitting the double torus into two handles is essential.

    Its GF(2) class is zero, so only the cut can tell it from a
    contractible cycle.
    """
    assert DOUBLE_TORUS.genus() == 2
    rad = radial(DOUBLE_TORUS)
    # leaves the vertex beside dart 4 and returns beside dart 0, splitting
    # the darts 1-3 of one handle from the darts 5-7 of the other
    cycle = (8, 1)
    assert cut_along(rad, cycle) == (0, 0)
    assert cut_component_chis(rad.rotations, rad.edges, cycle) == (0, 0)
    assert not cycle_is_contractible(rad, cycle)


def test_face_width_builds_only_the_radial_map(monkeypatch):
    """face_width builds its radial map by arithmetic and cuts by a flood,
    so it never runs the constructor, on the torus or at genus 2."""
    grid, cover = toroidal_grid(8), double_cover(4)
    width = candidate_face_width(cover.rotations, cover.edges)
    built = []
    original = RotationSystem.__init__

    def counting(self, rotations, edges):
        built.append(self)
        original(self, rotations, edges)

    monkeypatch.setattr(RotationSystem, "__init__", counting)
    assert face_width(grid) == 8
    assert face_width(cover) == width
    rad = radial(grid)
    for cand in radial_cycle_candidates(rad.rotations, rad.edges)[:50]:
        cut_along(rad, cand)
    assert built == []


def test_cutter_agrees_with_homology_class():
    """Cut-and-check and the Z/2 labels equal the GF(2) class test on every
    simple cycle of these tori."""
    for rs, bound in ((ONE_VERTEX_TORUS, 4), (K33_TORUS, 6), (toroidal_grid(3), 6)):
        rad = radial(rs)
        labels = _z2_labels(rad)
        ordered = sorted(d for rot in rs.rotations for d in rot)
        p = {d: t for t, d in enumerate(ordered)}
        checked = 0
        for tags, essential in radial_cycle_catalog(rs.rotations, rs.edges, bound):
            mod_cycle = [2 * p[d] + (s % 2) for s, d in enumerate(tags)]
            assert cycle_is_contractible(rad, mod_cycle) == (not essential)
            assert (_cycle_class(labels, mod_cycle) != 0) == essential
            checked += 1
        assert checked > 0


#-- Z/2 labels --#

def _cycle_class(labels: list[int], cycle) -> int:
    out = 0
    for d in cycle:
        out ^= labels[d]
    return out


def _check_labels(rs: RotationSystem) -> None:
    rad = radial(rs)
    labels = _z2_labels(rad)
    # one label per radial dart, indexed by the dart, which is its own position
    assert len(labels) == 2 * rad.num_edges
    assert all(type(h) is int for h in labels)
    for d1, d2 in rad.edges:
        assert labels[d1] == labels[d2]
    # a cocycle: every face sums to 0 under every bit
    for orbit in rad.faces:
        assert _cycle_class(labels, orbit) == 0
    # exactly 2g bits, each a leftover edge's own
    bits = 0
    for h in labels:
        bits |= h
    assert bits == (1 << 2 * rs.genus()) - 1
    for b in range(2 * rs.genus()):
        assert sum(h == 1 << b for h in labels) >= 2
    # the zero edges hold a spanning tree: they reach every vertex
    vert, alpha, _ = _map_structure(rad.rotations, rad.edges)
    reached, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for d in rad.rotations[v]:
            w = vert[alpha[d]]
            if labels[d] == 0 and w not in reached:
                reached.add(w)
                stack.append(w)
    assert len(reached) == rad.num_vertices


def test_z2_labels_on_random_maps_and_grids():
    rng = random.Random(8)
    maps = genus_two_up = 0
    while maps < 200:
        rs = _random_map(rng, rng.randrange(1, 12))
        if len(component_chis(rs)) != 1:
            continue
        maps += 1
        genus_two_up += rs.genus() >= 2
        _check_labels(rs)
    assert genus_two_up >= 50
    for rows in range(3, 7):
        for cols in range(rows, 7):
            _check_labels(relabelled(toroidal_grid(rows, cols), rng))
    _check_labels(DOUBLE_TORUS)
    _check_labels(TETRAHEDRON)


def test_nonzero_class_never_bounds_a_disk():
    """At genus >= 2 a zero class may still be essential, but a nonzero
    one never passes the cut test."""
    rng = random.Random(12)
    maps = nonzero = zero_essential = 0
    while maps < 150:
        rs = _random_map(rng, rng.randrange(3, 10))
        if len(component_chis(rs)) != 1 or rs.genus() < 2:
            continue
        maps += 1
        rad = radial(rs)
        labels = _z2_labels(rad)
        for cand in radial_cycle_candidates(rad.rotations, rad.edges):
            if _cycle_class(labels, cand):
                assert not cycle_is_contractible(rad, cand)
                nonzero += 1
            else:
                zero_essential += not cycle_is_contractible(rad, cand)
    assert nonzero >= 1000 and zero_essential >= 10


def test_every_nonzero_class_cycle_passes_a_root():
    """On the torus the search roots meet every cycle of nonzero class,
    and at genus >= 2 they are all the vertex nodes."""
    rng = random.Random(13)
    maps = []
    while len(maps) < 150:
        rs = _random_map(rng, rng.randrange(2, 10))
        if len(component_chis(rs)) == 1 and rs.genus() == 1:
            maps.append(rs)
    maps += [relabelled(toroidal_grid(rows, cols), rng)
             for rows in range(3, 6) for cols in range(rows, 6)]
    checked = 0
    for rs in maps:
        rad = radial(rs)
        labels = _z2_labels(rad)
        roots = set(_search_roots(rs, labels))
        assert roots and roots <= set(range(rs.num_vertices))
        vert = vertex_of(rad)
        for cand in radial_cycle_candidates(rad.rotations, rad.edges):
            if _cycle_class(labels, cand):
                assert roots & {vert[d] for d in cand}, cand
                checked += 1
    assert checked >= 2000
    for rs in (DOUBLE_TORUS, double_cover(3)):
        assert _search_roots(rs, _z2_labels(radial(rs))) == list(range(rs.num_vertices))


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_face_width_needs_no_root_order(monkeypatch, order):
    """The search finds a shortest noncontractible cycle from whichever root
    of it comes first, so any order of the roots gives the same width."""
    rng = random.Random(30)
    maps = [relabelled(toroidal_grid(rows, cols), rng)
            for rows in range(3, 7) for cols in range(rows, 7)]
    maps += [double_cover(n) for n in range(3, 6)] + [DOUBLE_TORUS]
    widths = [face_width(rs) for rs in maps]
    original = facewidth._search_roots

    def reordered(rs, labels):
        roots = original(rs, labels)
        return roots[::-1] if order == "reversed" else rng.sample(roots, len(roots))

    monkeypatch.setattr(facewidth, "_search_roots", reordered)
    assert [face_width(rs) for rs in maps] == widths


def test_face_width_refuses_a_contractible_witness(monkeypatch):
    """Labels that call a face essential are caught by the witness cut."""
    grid = toroidal_grid(4)
    monkeypatch.setattr(
        facewidth, "_z2_labels", lambda rad: [int(d < 2) for d in range(2 * rad.num_edges)]
    )
    with pytest.raises(RuntimeError, match="bounds a disk"):
        face_width(grid)


#-- Face-width --#

def test_face_width_reference_values():
    assert face_width(toroidal_grid(3)) == 3
    assert face_width(toroidal_grid(4)) == 4
    assert face_width(ONE_VERTEX_TORUS) == 1
    assert face_width(K33_TORUS) == 2
    assert face_width(TETRAHEDRON) == math.inf


def test_face_width_matches_enumeration():
    for rs, bound in (
        (ONE_VERTEX_TORUS, 4),
        (K33_TORUS, 6),
        (toroidal_grid(3), 6),
        (toroidal_grid(4), 8),
    ):
        assert face_width(rs) == enumerated_face_width(rs.rotations, rs.edges, bound)


@pytest.mark.parametrize("rows", range(3, 13))
def test_face_width_on_relabelled_grids(rows):
    rng = random.Random(rows)
    for cols in range(rows, 13):
        assert face_width(relabelled(toroidal_grid(rows, cols), rng)) == rows
        assert face_width(relabelled(toroidal_grid(cols, rows), rng)) == rows


def test_face_width_raises_on_disconnected():
    two_tori = RotationSystem(
        ((0, 1, 2, 3), (4, 5, 6, 7)),
        ((0, 2), (1, 3), (4, 6), (5, 7)),
    )
    with pytest.raises(ValueError):
        face_width(two_tori)


def test_refinement_preserves_genus_and_width():
    """Triangulating the faces never drops the face-width."""
    for rs in (toroidal_grid(3), K33_TORUS):
        ref = face_refined(rs)
        assert ref.genus() == rs.genus()
        assert all(len(f) == 3 for f in ref.faces)
        assert face_width(ref) >= face_width(rs)
    ref3 = face_refined(toroidal_grid(3))
    assert face_width(ref3) == 3
    assert enumerated_face_width(ref3.rotations, ref3.edges, 6) == 3


#-- Random maps --#

def _random_map(rng: random.Random, m: int) -> RotationSystem:
    darts = list(range(2 * m))
    rng.shuffle(darts)
    cuts = sorted(rng.sample(range(1, 2 * m), rng.randrange(0, min(m, 2 * m - 1))))
    groups = [darts[a:b] for a, b in zip([0, *cuts], [*cuts, 2 * m])]
    edges = tuple((2 * t, 2 * t + 1) for t in range(m))
    return RotationSystem(tuple(tuple(g) for g in groups), edges)


def test_random_maps_have_consistent_invariants():
    rng = random.Random(31)
    for _ in range(120):
        rs = _random_map(rng, rng.randrange(1, 7))
        assert rs.euler_characteristic % 2 == 0
        chis = component_chis(rs)
        assert sum(chis) == rs.euler_characteristic
        assert all(chi <= 2 and chi % 2 == 0 for chi in chis)
        if len(chis) == 1:
            rad = radial(rs)
            assert all(len(f) == 4 for f in rad.faces)
            fw = face_width(rs)
            if rs.genus() == 0:
                assert fw == math.inf
            else:
                assert isinstance(fw, int) and fw >= 1


def test_random_maps_keep_their_contracts_under_relabelling():
    """Genus, face count and face width ignore dart names, and the faces and
    the radial map follow the order the oracles rebuild from scratch."""
    rng = random.Random(9)
    per_genus = dict.fromkeys(range(4), 0)
    while min(per_genus.values()) < 25:
        rs = _random_map(rng, rng.randrange(1, 10))
        if len(component_chis(rs)) != 1 or per_genus.get(rs.genus(), 25) >= 25:
            continue
        per_genus[rs.genus()] += 1
        invariants = (rs.genus(), rs.num_faces, face_width(rs))
        for m in (rs, relabelled(rs, rng), relabelled(rs, rng)):
            assert (m.genus(), m.num_faces, face_width(m)) == invariants
            vert, alpha, faces = _map_structure(m.rotations, m.edges)
            # no public accessor reads the dense tables, so they are checked directly
            assert all(m._vert[m._pos[d]] == v for d, v in vert.items())
            assert all(m._darts[m._alpha[m._pos[d]]] == e for d, e in alpha.items())
            assert m.faces == tuple(faces)
            rotations, edges = radial_map(m.rotations, m.edges)
            assert radial(m) == RotationSystem(tuple(rotations), tuple(edges))


def test_cut_along_matches_rebuilt_cut_map():
    """The face flood equals the explicit cut map on every radial candidate."""
    rng = random.Random(4)
    maps = genus_two_up = cycles = 0
    while maps < 300:
        rs = _random_map(rng, rng.randrange(1, 10))
        if len(component_chis(rs)) != 1:
            continue
        maps += 1
        genus_two_up += rs.genus() >= 2
        rad = radial(rs)
        for cand in radial_cycle_candidates(rad.rotations, rad.edges):
            assert cut_along(rad, cand) == cut_component_chis(rad.rotations, rad.edges, cand)
            cycles += 1
    assert genus_two_up >= 50 and cycles >= 2500


def test_face_width_matches_candidate_reference():
    """The bounded search equals the first noncontractible oracle candidate."""
    rng = random.Random(6)
    maps = genus_two_up = 0
    while maps < 300:
        rs = _random_map(rng, rng.randrange(1, 10))
        if len(component_chis(rs)) != 1:
            continue
        maps += 1
        genus_two_up += rs.genus() >= 2
        assert face_width(rs) == candidate_face_width(rs.rotations, rs.edges)
    assert genus_two_up >= 50

    for rows in range(3, 8):
        for cols in range(rows, 8):
            grid = relabelled(toroidal_grid(rows, cols), rng)
            width = candidate_face_width(grid.rotations, grid.edges)
            assert face_width(grid) == width == rows

    # some of the one-vertex double torus's shortest essential cycles separate
    assert face_width(DOUBLE_TORUS) == candidate_face_width(
        DOUBLE_TORUS.rotations, DOUBLE_TORUS.edges
    ) == 1
    # two 3x3 grids joined by a bridge: only the loops around the bridge,
    # which separate, cross the graph once
    grid = toroidal_grid(3)
    shift = 4 * grid.num_vertices
    rotations = [(*grid.rotations[0], 2 * shift), *grid.rotations[1:],
                 (*(d + shift for d in grid.rotations[0]), 2 * shift + 1),
                 *(tuple(d + shift for d in rot) for rot in grid.rotations[1:])]
    edges = [*grid.edges, *((a + shift, b + shift) for a, b in grid.edges),
             (2 * shift, 2 * shift + 1)]
    bridged = RotationSystem(tuple(rotations), tuple(edges))
    assert bridged.genus() == 2
    assert face_width(bridged) == candidate_face_width(bridged.rotations, bridged.edges) == 1


def test_face_width_on_double_covers():
    """Genus-2 double covers of the grid, whose shortest essential cycles
    may separate, equal the candidate reference under relabelling too."""
    rng = random.Random(14)
    for n in range(3, 6):
        cover = double_cover(n)
        assert cover.genus() == 2 and len(component_chis(cover)) == 1
        width = candidate_face_width(cover.rotations, cover.edges)
        assert face_width(cover) == face_width(relabelled(cover, rng)) == width
