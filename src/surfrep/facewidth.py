"""Face-width of graphs embedded in closed oriented surfaces.

A map is encoded combinatorially: every edge contributes two darts,
each vertex carries the counterclockwise cyclic order of its darts, and
the involution alpha swaps the two darts of each edge.  Faces are
recovered as orbits of sigma-after-alpha, which yields the Euler
characteristic and the genus without any geometry.

The face-width of a map is the smallest number of intersections a
noncontractible closed curve on the surface must have with the graph.
Such a curve can be pushed to alternate between vertices and faces, so
the face-width is half the length of a shortest noncontractible cycle
in the radial map, the bipartite map joining each vertex to each face
once per incidence.  That cycle is found by one bounded breadth first
search per root, which looks only at simple cycles between two branches
of its tree.  Z/2 cohomology labels from a tree-cotree decomposition
give each such cycle's homology class in O(1): a nonzero class is
noncontractible outright, and only a zero class at genus >= 2 needs
the cut test.  A cycle is contractible exactly when cutting the surface
open along it leaves two pieces, one of them a disk, counted by a flood
over the faces of the map itself; no cut map is ever built.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from surfrep.surface import _json_field, _json_int, _json_shape

__all__ = [
    "RotationSystem",
    "radial",
    "cut_along",
    "cycle_is_contractible",
    "face_width",
]


@dataclass(frozen=True)
class RotationSystem:
    """A graph embedded in a closed oriented surface.

    ``rotations[v]`` lists the darts at vertex v in counterclockwise
    order; ``edges`` pairs each dart with its opposite.  Dart names are
    arbitrary integers, each appearing exactly once in the rotations
    and exactly once across the edge pairs.
    """

    rotations: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotations", tuple(tuple(r) for r in self.rotations))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if not self.rotations:
            raise ValueError("map needs at least one vertex")
        seen: set[int] = set()
        for v, rot in enumerate(self.rotations):
            if not rot:
                raise ValueError(f"vertex {v} has no darts")
            for d in rot:
                if d in seen:
                    raise ValueError(f"dart {d} appears twice in the rotations")
                seen.add(d)
        paired: set[int] = set()
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError(f"edge {e} must pair two distinct darts")
            for d in e:
                if d not in seen:
                    raise ValueError(f"edge dart {d} missing from the rotations")
                if d in paired:
                    raise ValueError(f"dart {d} appears in two edges")
                paired.add(d)
        if paired != seen:
            raise ValueError(f"darts without an opposite: {sorted(seen - paired)}")
        if self.euler_characteristic % 2:
            raise RuntimeError(f"odd Euler characteristic {self.euler_characteristic}")

    #-- Derived structure --#

    @cached_property
    def _vertex_of(self) -> dict[int, int]:
        return {d: v for v, rot in enumerate(self.rotations) for d in rot}

    @cached_property
    def _alpha(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d1, d2 in self.edges:
            out[d1], out[d2] = d2, d1
        return out

    @cached_property
    def _sigma(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rot in self.rotations:
            for t, d in enumerate(rot):
                out[d] = rot[(t + 1) % len(rot)]
        return out

    def vertex_of(self, dart: int) -> int:
        return self._vertex_of[dart]

    def alpha(self, dart: int) -> int:
        return self._alpha[dart]

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of sigma-after-alpha, each starting at its least dart."""
        nxt = {d: self._sigma[self._alpha[d]] for d in self._vertex_of}
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in sorted(nxt):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            d = nxt[start]
            while d != start:
                orbit.append(d)
                seen.add(d)
                d = nxt[d]
            out.append(tuple(orbit))
        return tuple(out)

    @property
    def num_vertices(self) -> int:
        return len(self.rotations)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    @cached_property
    def _face_of(self) -> dict[int, int]:
        """Index into ``faces`` of the face each dart lies on."""
        return {d: f for f, orbit in enumerate(self.faces) for d in orbit}

    def component_euler_characteristics(self) -> tuple[int, ...]:
        """Euler characteristic of each connected component, sorted."""
        return _piece_chis(self, ())

    def genus(self) -> int:
        if len(self.component_euler_characteristics()) != 1:
            raise ValueError("genus needs a connected map")
        return (2 - self.euler_characteristic) // 2

    #-- Serialization --#

    def to_json(self) -> dict[str, Any]:
        return {
            "rotations": [list(r) for r in self.rotations],
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "RotationSystem":
        rotations = _json_field(obj, "rotations", list)
        edges = _json_field(obj, "edges", list)
        return RotationSystem(
            tuple(tuple(_json_int(d, "dart") for d in _json_shape(r, list, "each rotation"))
                  for r in rotations),
            tuple(tuple(_json_int(d, "edge dart") for d in _json_shape(e, list, "each edge"))
                  for e in edges),
        )


#-- Radial map --#

def radial(rs: RotationSystem) -> RotationSystem:
    """Vertex-face incidence map of ``rs``, embedded in the same surface.

    One new edge per dart joins the dart's vertex node to its face
    node.  Vertex nodes keep the original dart order and face nodes
    take the reversed face orbit, which keeps the embedding
    consistently oriented: every face of the result is a quadrilateral
    around one original edge, so the Euler characteristic is preserved.
    """
    darts = sorted(rs._vertex_of)
    idx = {d: 2 * t for t, d in enumerate(darts)}
    rotations = [tuple(idx[d] for d in rot) for rot in rs.rotations]
    for orbit in rs.faces:
        rotations.append(tuple(idx[d] + 1 for d in reversed(orbit)))
    edges = tuple((idx[d], idx[d] + 1) for d in darts)
    out = RotationSystem(tuple(rotations), edges)
    if out.euler_characteristic != rs.euler_characteristic:
        raise RuntimeError("radial map changed the Euler characteristic")
    return out


#-- Cutting along a cycle --#

def _piece_chis(rs: RotationSystem, cut_darts: Sequence[int]) -> tuple[int, ...]:
    """Sorted Euler characteristics of the capped pieces left by a cut.

    ``cut_darts`` is a simple dart cycle of length L, or empty.  Faces
    are open disks the cut never enters, so the pieces are the classes
    of faces joined across uncut edges, found by one flood.  A piece
    keeps its faces, its uncut edges and the vertices off the cut; each
    side of the cut that borders it adds a copy of the cycle's vertices
    and edges, L of each, and one capping face, so
    chi = (interior vertices) - (uncut edges) + (faces) + (sides).  The
    face of dart d lies on one side of the cut and the face of its
    opposite on the other.  With nothing cut the pieces are the
    connected components.
    """
    faces, face_of, alpha = rs.faces, rs._face_of, rs._alpha
    cut = {*cut_darts, *(alpha[d] for d in cut_darts)}
    piece = [-1] * len(faces)
    chis: list[int] = []
    for seed in range(len(faces)):
        if piece[seed] >= 0:
            continue
        p = len(chis)
        piece[seed] = p
        stack, num_faces, uncut_darts = [seed], 0, 0
        while stack:
            f = stack.pop()
            num_faces += 1
            for x in faces[f]:
                if x in cut:
                    continue
                uncut_darts += 1
                g = face_of[alpha[x]]
                if piece[g] < 0:
                    piece[g] = p
                    stack.append(g)
        # both darts of an uncut edge lie in the same piece
        chis.append(num_faces - uncut_darts // 2)
    on_cut = {rs._vertex_of[x] for x in cut}
    for v, rot in enumerate(rs.rotations):
        if v not in on_cut:
            chis[piece[face_of[rot[0]]]] += 1
    for side in (cut_darts, [alpha[d] for d in cut_darts]):
        for p in {piece[face_of[d]] for d in side}:
            chis[p] += 1
    return tuple(sorted(chis))


def cut_along(rs: RotationSystem, cycle: Sequence[int]) -> tuple[int, ...]:
    """Sorted Euler characteristics of the surface cut open along a simple cycle.

    ``cycle`` lists darts d0 .. d(L-1); dart dt leaves vertex vt, its
    opposite sits at v(t+1), vertices and edges are distinct, and the
    walk closes up.  Each side of the cut is capped by a disk, so the
    characteristics sum to the surface's plus two.  The pieces are
    counted by a face flood over ``rs`` itself; no map is built.
    """
    L = len(cycle)
    if L == 0:
        raise ValueError("cycle must be nonempty")
    verts = [rs.vertex_of(d) for d in cycle]
    if len(set(verts)) != L:
        raise ValueError("cycle repeats a vertex")
    if len({frozenset((d, rs.alpha(d))) for d in cycle}) != L:
        raise ValueError("cycle repeats an edge")
    for t, d in enumerate(cycle):
        if rs.vertex_of(rs.alpha(d)) != verts[(t + 1) % L]:
            raise ValueError("cycle darts do not join up")

    chis = _piece_chis(rs, cycle)
    # one side of the cut bordering two pieces would push the sum past chi + 2
    if sum(chis) != rs.euler_characteristic + 2:
        raise RuntimeError("cut pieces do not sum to the Euler characteristic plus 2")
    return chis


def cycle_is_contractible(rs: RotationSystem, cycle: Sequence[int]) -> bool:
    """Whether the simple cycle bounds a disk on the surface.

    Cutting along a contractible cycle splits the map in two, with the
    disk side capping off to a sphere; any other outcome, one piece or
    two pieces of positive genus, certifies an essential cycle.
    """
    chis = cut_along(rs, cycle)
    return len(chis) == 2 and 2 in chis


#-- Face-width --#

def _z2_labels(rad: RotationSystem) -> dict[int, int]:
    """Z/2 cohomology labels of a connected map's edges, as bitmasks per dart.

    Tree-cotree decomposition (Eppstein, SODA 2003): a breadth first
    spanning tree of the map, a spanning tree of the dual over the
    remaining edges, and 2g leftover edges.  Tree edges get 0, each
    leftover edge its own bit, and the cotree edges are resolved leaves
    first so that every face XORs to 0.  Bit i then evaluates to 1 on the
    fundamental cycle of the i-th leftover edge and to 0 on the others,
    so the labels summed along a closed walk give its Z/2 homology class
    in that basis.  Both darts of an edge carry the same label.
    """
    rotations, alpha, vertex_of = rad.rotations, rad._alpha, rad._vertex_of
    faces, face_of = rad.faces, rad._face_of
    spanned: set[int] = set()  # darts of tree and cotree edges
    reached = {0}
    queue = [0]
    for v in queue:
        for d in rotations[v]:
            w = vertex_of[alpha[d]]
            if w not in reached:
                reached.add(w)
                spanned.update((d, alpha[d]))
                queue.append(w)
    # face -> dart on its boundary across the edge to its parent face
    parent = {0: -1}
    order = [0]
    for f in order:
        for d in faces[f]:
            g = face_of[alpha[d]]
            if d not in spanned and g not in parent:
                parent[g] = alpha[d]
                spanned.update((d, alpha[d]))
                order.append(g)
    labels = dict.fromkeys(alpha, 0)
    bit = 0
    for d1, d2 in rad.edges:
        if d1 not in spanned:
            labels[d1] = labels[d2] = 1 << bit
            bit += 1
    if bit != 2 - rad.euler_characteristic:
        raise RuntimeError(f"tree-cotree left {bit} edges, not twice the genus")
    for f in reversed(order[1:]):
        # the parent edge is still 0, so this is the sum of the rest of the face
        h = 0
        for d in faces[f]:
            h ^= labels[d]
        d = parent[f]
        labels[d] = labels[alpha[d]] = h
    return labels


def face_width(rs: RotationSystem) -> int | float:
    """Least crossings of a noncontractible closed curve with the graph.

    Infinite on the sphere; elsewhere half the length of a shortest
    noncontractible cycle of the radial map, which is bipartite, so
    loopless.  A breadth first search from each root x visits only the
    vertices >= x and gives each one a branch, the first dart out of x
    on its tree path, and a class h, the XOR of the Z/2 labels along
    that path.  Each non-tree edge d = vw between two branches closes
    the simple cycle x..v w..x of class h(v) ^ h(w) ^ label(d), read in
    O(1).  A nonzero class is noncontractible, so the cycle is taken as
    the best one yet.  A zero class is skipped on the torus; at genus
    >= 2 the cycle is cut open, and taken if it does not bound a disk.
    The search stops once twice the depth reaches the best length, and
    the winning cycle is cut once more as an independent check.

    Let C be a shortest noncontractible cycle and x its least vertex.
    C lies among the vertices >= x, so tree distances from x are at
    most those along C.  Based at x, C is the product of the
    fundamental loops of its non-tree edges, so one of them, L, is
    noncontractible and at most |C| long.  Were its tree paths to share
    a first dart, trimming them would give a shorter noncontractible
    cycle.  So L is a simple cycle between two branches of length |C|,
    with ends shallow enough for the search to reach, and the search
    recognises it: a nonzero class outright, a zero class by the cut at
    genus >= 2.  On the torus L cannot have class zero, since a simple
    cycle of class zero separates and a separating simple cycle on the
    torus bounds a disk; at genus >= 2 it may, as a cycle that separates
    two handles (Cabello & Mohar, DCG 2007).
    """
    genus = rs.genus()
    if genus == 0:
        return math.inf
    rad = radial(rs)
    rotations, alpha, vertex_of = rad.rotations, rad._alpha, rad._vertex_of
    labels = _z2_labels(rad)
    best: int | float = math.inf
    witness: list[int] = []
    for x in range(rad.num_vertices):
        # vertex -> (queue position, depth, dart reached by, branch, class), -1 for none
        seen = {x: (0, 0, -1, -1, 0)}
        queue = [x]
        for head, v in enumerate(queue):
            _, depth, _, branch, h = seen[v]
            if 2 * depth >= best:
                break
            for d in rotations[v]:
                w = vertex_of[alpha[d]]
                if w < x:
                    continue
                if w not in seen:
                    seen[w] = (len(queue), depth + 1, d, d if head == 0 else branch,
                               h ^ labels[d])
                    queue.append(w)
                    continue
                pos_w, depth_w, _, branch_w, h_w = seen[w]
                # only from the end scanned first: skips tree edges and repeats
                if pos_w > head and branch_w != branch and depth + depth_w + 1 < best:
                    essential = h ^ h_w ^ labels[d]
                    if not essential and genus == 1:
                        continue
                    down, up, u = [d], [], v
                    while u != x:
                        down.append(seen[u][2])
                        u = vertex_of[down[-1]]
                    while w != x:
                        up.append(seen[w][2])
                        w = vertex_of[up[-1]]
                    cycle = down[::-1] + [alpha[y] for y in up]
                    if essential or not cycle_is_contractible(rad, cycle):
                        best, witness = len(cycle), cycle
    if not witness:
        raise RuntimeError("no noncontractible cycle on a positive genus surface")
    if cycle_is_contractible(rad, witness):
        raise RuntimeError("the shortest cycle found bounds a disk")
    return best // 2
