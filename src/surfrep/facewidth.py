"""Face-width of graphs embedded in closed oriented surfaces.

A map is encoded combinatorially: every edge contributes two darts,
each vertex carries the counterclockwise cyclic order of its darts, and
the involution alpha swaps the two darts of each edge.  Faces are
recovered as orbits of sigma-after-alpha, listed by the package's one
permutation walk, ``surface._cycles``, which yields the Euler
characteristic and the genus without any geometry.

Dart names are arbitrary integers, under the package's one integer
rule.  The map file, the JSON form ``to_json`` writes, is read here and
nowhere else: its decoder checks only the two fields, and the
constructor validates the rest in one pass in reading order, each
rotation's and edge's shape before its darts, naming the first fault
it meets.  So a map read from a file is checked once, and every map the
constructor accepts reads back from its file.  The constructor numbers
the darts in sorted name order, and vertex, alpha and face-of are lists
over those positions.  One method, ``_trace``, traces the faces and
stores every such table, the dart names and their inverse included.
The walk lists the faces from position 0 upward, so they come in their
public order, least dart first, without a sort.  Position p of a map
becomes darts 2p (at the vertex node) and 2p + 1 (at the face node) of
its radial map, so the radial alpha is x ^ 1 and the radial map's names
are its own positions: the radial map is built by arithmetic, with no
sort or validation, and its name table is the identity.

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
the cut test.  On the torus the labels also pick the roots: only the
vertices that an edge of nonzero label touches.  A cycle is
contractible exactly when cutting the surface open along it leaves two
pieces, one of them a disk, counted by a flood over the faces of the
map itself; no cut map is ever built.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import Any

from surfrep.surface import _Value, _cycles, _json_field, _set_field, _strict_int

__all__ = [
    "RotationSystem",
    "radial",
    "cut_along",
    "cycle_is_contractible",
    "face_width",
]


def _row(row: Any, what: str) -> Sequence[Any]:
    """``row`` when it is a list or a tuple, the array of a map file."""
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"{what} must be an array, got {type(row).__name__}")
    return row


class RotationSystem(_Value):
    """A graph embedded in a closed oriented surface.

    ``rotations[v]`` lists the darts at vertex v in counterclockwise
    order; ``edges`` pairs each dart with its opposite.  Dart names are
    arbitrary integers, each appearing exactly once in the rotations
    and exactly once across the edge pairs.  Each rotation and each
    edge is a list or a tuple, and a float, bool or string dart is
    refused, with the messages a map file earns.
    """

    rotations: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(
        self, rotations: Iterable[Sequence[int]], edges: Iterable[Sequence[int]]
    ) -> None:
        # one pass in reading order checks every row and dart and names the first fault
        rotations, edges = tuple(rotations), tuple(edges)
        if not rotations:
            raise ValueError("map needs at least one vertex")
        seen: set[int] = set()
        for v, rot in enumerate(rotations):
            if not _row(rot, "each rotation"):
                raise ValueError(f"vertex {v} has no darts")
            for d in rot:
                if _strict_int(d, "dart") in seen:
                    raise ValueError(f"dart {d} appears twice in the rotations")
                seen.add(d)
        darts = sorted(seen)
        pos = dict(zip(darts, range(len(darts))))
        alpha = [-1] * len(darts)
        for e in edges:
            for d in _row(e, "each edge"):
                _strict_int(d, "edge dart")
            if len(e) != 2 or e[0] == e[1]:
                raise ValueError(f"edge {tuple(e)} must pair two distinct darts")
            for d in e:
                if d not in pos:
                    raise ValueError(f"edge dart {d} missing from the rotations")
                if alpha[pos[d]] >= 0:
                    raise ValueError(f"dart {d} appears in two edges")
            a, b = pos[e[0]], pos[e[1]]
            alpha[a], alpha[b] = b, a
        if -1 in alpha:
            unpaired = [darts[p] for p, q in enumerate(alpha) if q < 0]
            raise ValueError(f"darts without an opposite: {unpaired}")
        super().__init__(tuple(map(tuple, rotations)), tuple(map(tuple, edges)))
        self._trace(darts, pos, [[pos[d] for d in rot] for rot in rotations], alpha)

    def _trace(self, darts: Sequence[int], pos: dict[int, int],
               rots: Sequence[Sequence[int]], alpha: list[int]) -> None:
        """Trace the faces of a valid map numbered 0 .. 2E-1, and store
        its dense tables; the one place that stores them.

        ``darts`` names each position in ascending order and ``pos``
        inverts it; ``rots`` lists the rotations as positions and
        ``alpha`` the opposite of each position.  The vertex table is
        read off the rotations, and the faces are the cycles of
        sigma-after-alpha as :func:`surface._cycles` lists them, each
        from its least position, in ascending order of those positions.
        """
        n = len(alpha)
        vert = [0] * n
        sigma = [0] * n
        for v, rot in enumerate(rots):
            prev = rot[-1]
            for p in rot:
                vert[p] = v
                sigma[prev] = p
                prev = p
        faces, face_of = _cycles([sigma[a] for a in alpha])
        for name, value in (("_darts", darts), ("_pos", pos), ("_rots", rots), ("_vert", vert),
                            ("_alpha", alpha), ("_faces", faces), ("_face_of", face_of)):
            _set_field(self, name, value)
        if self.euler_characteristic % 2:
            raise RuntimeError(f"odd Euler characteristic {self.euler_characteristic}")

    #-- Derived structure --#

    # over dart positions 0 .. 2E-1 in sorted name order, all stored by _trace:
    #   _darts    position -> dart name
    #   _pos      dart name -> position
    #   _rots     the rotations as positions
    #   _vert     position -> vertex
    #   _alpha    position -> position of the opposite dart
    #   _faces    face orbits as positions, in the order of ``faces``
    #   _face_of  position -> index of its face

    def _position(self, dart: int) -> int:
        """Position of a dart name, or a ValueError naming a dart not in the map."""
        try:
            return self._pos[dart]
        except KeyError:
            raise ValueError(f"dart {dart!r} is not in the map") from None

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of sigma-after-alpha, each starting at its least dart."""
        names = self._darts
        return tuple(tuple(names[p] for p in orbit) for orbit in self._faces)

    @property
    def num_vertices(self) -> int:
        return len(self.rotations)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return len(self._faces)

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    @cached_property
    def _component_chis(self) -> tuple[int, ...]:
        return _piece_chis(self, ())

    def genus(self) -> int:
        if len(self._component_chis) != 1:
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
        """Decode a map; the constructor checks each rotation, edge and dart."""
        return RotationSystem(_json_field(obj, "rotations", array=True),
                              _json_field(obj, "edges", array=True))


#-- Radial map --#

def radial(rs: RotationSystem) -> RotationSystem:
    """Vertex-face incidence map of ``rs``, embedded in the same surface.

    One new edge per dart joins the dart's vertex node to its face
    node: the dart at position p becomes radial dart 2p at the vertex
    node and 2p + 1 at the face node, so each radial dart's position is
    its name and the radial alpha is x ^ 1.  Vertex nodes keep the
    original dart order and face nodes, numbered after them in face
    order, take the reversed face orbit, which keeps the embedding
    consistently oriented: every face of the result is a quadrilateral
    around one original edge, so the Euler characteristic is preserved.
    """
    rotations = [tuple([2 * p for p in rot]) for rot in rs._rots]
    rotations += [tuple([2 * p + 1 for p in orbit[::-1]]) for orbit in rs._faces]
    n = 2 * len(rs._darts)
    out = RotationSystem.__new__(RotationSystem)
    _Value.__init__(out, tuple(rotations), tuple(zip(range(0, n, 2), range(1, n, 2))))
    out._trace(range(n), dict(zip(range(n), range(n))), rotations, [x ^ 1 for x in range(n)])
    if out.euler_characteristic != rs.euler_characteristic:
        raise RuntimeError("radial map changed the Euler characteristic")
    return out


#-- Cutting along a cycle --#

def _piece_chis(rs: RotationSystem, cut: Sequence[int]) -> tuple[int, ...]:
    """Sorted Euler characteristics of the capped pieces left by a cut.

    ``cut`` is a simple cycle of L dart positions, or empty.  Faces
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
    faces, face_of, alpha = rs._faces, rs._face_of, rs._alpha
    back = [alpha[p] for p in cut]
    on_cut = {*cut, *back}
    piece = [-1] * len(faces)
    chis: list[int] = []
    for seed in range(len(faces)):
        if piece[seed] >= 0:
            continue
        k = len(chis)
        piece[seed] = k
        stack, num_faces, uncut_darts = [seed], 0, 0
        while stack:
            f = stack.pop()
            num_faces += 1
            for x in faces[f]:
                if x in on_cut:
                    continue
                uncut_darts += 1
                g = face_of[alpha[x]]
                if piece[g] < 0:
                    piece[g] = k
                    stack.append(g)
        # both darts of an uncut edge lie in the same piece
        chis.append(num_faces - uncut_darts // 2)
    cut_vertices = {rs._vert[x] for x in on_cut}
    for v, rot in enumerate(rs._rots):
        if v not in cut_vertices:
            chis[piece[face_of[rot[0]]]] += 1
    for side in (cut, back):
        for k in {piece[face_of[x]] for x in side}:
            chis[k] += 1
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
    vert, alpha = rs._vert, rs._alpha
    cut = [rs._position(d) for d in cycle]
    verts = [vert[p] for p in cut]
    if len(set(verts)) != L:
        raise ValueError("cycle repeats a vertex")
    if len({min(p, alpha[p]) for p in cut}) != L:
        raise ValueError("cycle repeats an edge")
    for t, p in enumerate(cut):
        if vert[alpha[p]] != verts[(t + 1) % L]:
            raise ValueError("cycle darts do not join up")

    chis = _piece_chis(rs, cut)
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

def _z2_labels(rad: RotationSystem) -> list[int]:
    """Z/2 cohomology labels of a connected map's edges, as bitmasks per dart position.

    Tree-cotree decomposition (Eppstein, SODA 2003): a breadth first
    spanning tree of the map, a spanning tree of the dual over the
    remaining edges, and 2g leftover edges.  Tree edges get 0, each
    leftover edge its own bit, and the cotree edges are resolved leaves
    first so that every face XORs to 0.  Bit i then evaluates to 1 on the
    fundamental cycle of the i-th leftover edge and to 0 on the others,
    so the labels summed along a closed walk give its Z/2 homology class
    in that basis.  Both darts of an edge carry the same label.
    """
    rots, vert, alpha = rad._rots, rad._vert, rad._alpha
    faces, face_of = rad._faces, rad._face_of
    spanned = [False] * len(alpha)  # darts of tree and cotree edges
    reached = [False] * len(rots)
    reached[0] = True
    queue = [0]
    for v in queue:
        for d in rots[v]:
            w = vert[alpha[d]]
            if not reached[w]:
                reached[w] = True
                spanned[d] = spanned[alpha[d]] = True
                queue.append(w)
    # face -> dart on its boundary across the edge to its parent face
    parent = [-1] * len(faces)
    joined = [False] * len(faces)
    joined[0] = True
    order = [0]
    for f in order:
        for d in faces[f]:
            g = face_of[alpha[d]]
            if not spanned[d] and not joined[g]:
                joined[g] = True
                parent[g] = alpha[d]
                spanned[d] = spanned[alpha[d]] = True
                order.append(g)
    labels = [0] * len(alpha)
    bit = 0
    for d, e in enumerate(alpha):
        if d < e and not spanned[d]:
            labels[d] = labels[e] = 1 << bit
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


def _search_roots(rs: RotationSystem, labels: Sequence[int]) -> list[int]:
    """The radial nodes that ``face_width`` searches from, ascending.

    Every cycle of the bipartite radial map passes a vertex node, so at
    genus >= 2 these are all vertex nodes 0 .. V-1.  On the torus they
    are only the vertex nodes at the even end of a radial edge with a
    nonzero label: a cycle of nonzero class XORs to nonzero, so it uses
    such an edge, and with it that edge's vertex node.  Radial dart 2p
    sits at the vertex node of original position p.
    """
    if rs.genus() >= 2:
        return list(range(rs.num_vertices))
    return sorted({v for v, h in zip(rs._vert, labels[::2]) if h})


def face_width(rs: RotationSystem) -> int | float:
    """Least crossings of a noncontractible closed curve with the graph.

    Infinite on the sphere; elsewhere half the length of a shortest
    noncontractible cycle of the radial map, which is bipartite, so
    loopless.  A breadth first search runs from each root of
    :func:`_search_roots` in turn and skips the roots searched before
    it.  It gives each node it reaches a branch, the first dart out of
    the root x on its tree path, and a class h, the XOR of the Z/2
    labels along that path.  Each non-tree edge d = vw between two
    branches closes the simple cycle x..v w..x of class
    h(v) ^ h(w) ^ label(d), read in O(1).  It is looked at from v when w
    is one level deeper, which in a bipartite map is every edge to a
    node not yet scanned, so it has length 2 depth(v) + 2.  A nonzero
    class is noncontractible, so the cycle is taken as the best one
    yet.  A zero class is skipped on the torus; at genus >= 2 the cycle
    is cut open, and taken if it does not bound a disk.  The search
    stops at the first depth whose cycles are no shorter than the best,
    and the winning cycle is cut once more as an independent check.

    The search reads the radial map's own lists, whose positions are
    the radial dart names: dart d leaves node vert(d), arrives at
    vert(d ^ 1) and carries label(d).  The search state of a node
    belongs to root x while its stamp is x, so no per-root table is
    cleared or rebuilt.

    Let C be a shortest noncontractible cycle.  It passes a root: at
    genus >= 2 every vertex node is one, and on the torus C has a
    nonzero class (below), so it uses an edge of nonzero label, whose
    vertex node is a root.  Let x be the first root on C that the search
    takes.  C avoids every root searched before x, so it lies among the
    nodes the search from x visits, and tree distances from x are at
    most those along C.  Based at x, C is the product of the fundamental
    loops of its non-tree edges, so one of them, L, is noncontractible
    and at most |C| long.  Were its tree paths to share a first dart,
    trimming them would give a shorter noncontractible cycle.  So L is a
    simple cycle between two branches of length |C|, with ends shallow
    enough for the search to reach, and the search recognises it: a
    nonzero class outright, a zero class by the cut at genus >= 2.  No
    order of the roots is needed.  On the torus neither C nor L can have
    class zero, since a simple cycle of class zero separates and a
    separating simple cycle on the torus bounds a disk; at genus >= 2 it
    may, as a cycle that separates two handles (Cabello & Mohar, DCG
    2007), and such a cycle can miss every edge of nonzero label, which
    is why all vertex nodes stay roots there.
    """
    genus = rs.genus()
    if genus == 0:
        return math.inf
    rad = radial(rs)
    rots, vert = rad._rots, rad._vert
    labels = _z2_labels(rad)
    n = rad.num_vertices
    # per node: whether its own search has run, the root whose search
    # reached it last, then that search's depth, dart reached by, branch and class
    searched = [False] * n
    stamp = [-1] * n
    depth = [0] * n
    via = [-1] * n
    branch = [-1] * n
    cls = [0] * n
    best: int | float = math.inf
    witness: list[int] = []
    for x in _search_roots(rs, labels):
        stamp[x], depth[x], cls[x] = x, 0, 0
        queue = [x]
        for v in queue:
            dv = depth[v]
            if 2 * dv + 2 >= best:
                break
            bv, hv = branch[v], cls[v]
            for d in rots[v]:
                w = vert[d ^ 1]
                if searched[w]:
                    continue
                if stamp[w] != x:
                    stamp[w], depth[w], via[w], cls[w] = x, dv + 1, d, hv ^ labels[d]
                    branch[w] = d if v == x else bv
                    queue.append(w)
                # only from the end scanned first: skips tree edges and repeats
                elif depth[w] > dv and branch[w] != bv and 2 * dv + 2 < best:
                    essential = hv ^ cls[w] ^ labels[d]
                    if not essential and genus == 1:
                        continue
                    down, up, u = [d], [], v
                    while u != x:
                        down.append(via[u])
                        u = vert[down[-1]]
                    while w != x:
                        up.append(via[w])
                        w = vert[up[-1]]
                    cycle = down[::-1] + [y ^ 1 for y in up]
                    if essential or not cycle_is_contractible(rad, cycle):
                        best, witness = len(cycle), cycle
        searched[x] = True
    if not witness:
        raise RuntimeError("no noncontractible cycle on a positive genus surface")
    if cycle_is_contractible(rad, witness):
        raise RuntimeError("the shortest cycle found bounds a disk")
    return best // 2
