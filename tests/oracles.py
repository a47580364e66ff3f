"""Brute-force reference computations used only by the test suite.

Planar pieces are modeled through their face adjacency graph and the
candidate curves are enumerated explicitly, one face at a time.  Nothing
here is shared with the package implementations beyond the piece data,
so agreement on random inputs is meaningful evidence.

Layout convention for a necklace piece with k circles: the circles sit
in cyclic order; the arcs of sector u join circle u to circle u+1 (mod
k) as parallel copies numbered from the inside out.  Faces are IN and
OUT (or one merged CORE face when some sector is empty) plus the strip
faces between consecutive parallel copies.

The smoothing walk visits every crossing state one at a time, with its
own copy of the chain surface's crossing order; it is the reference for
the entry walk of ``trace_orbits`` on small weights.

The map-fault reference names the first fault of a map in reading order
with plain sets; it is the reference for the messages of the
``RotationSystem`` constructor.

The face-width reference lists every breadth first search fundamental
cycle of the radial map from every root, shortest first, and cuts them
open one by one on an explicitly rebuilt cut map; it is the reference
for the bounded search of ``face_width``.

The bounds catalog is restated as one plain predicate per rule, and the
integer points of a small box that satisfy it are enumerated; it is the
reference for the interval engine of ``propagate``.

The pretzel walk follows each strand of the standard pretzel diagram
crossing by crossing and counts the closed strands; it is the reference
for the knot check on the ``pretzel`` tag's parameters.

The cheapest reference class is the least boundary count over both
families, the embedded upper bound on the representativity that the
certificate's upper end is compared with.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations, product

IN = ("IN",)
OUT = ("OUT",)
CORE = ("CORE",)


class DisjointSet:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def groups(self):
        out = defaultdict(set)
        for x in self.parent:
            out[self.find(x)].add(x)
        return list(out.values())


def sector_mults(circles: int, arcs) -> list[int]:
    """Arc multiplicity per sector; sector u joins circles u and u+1."""
    mu = [0] * circles
    for a, b, m in arcs:
        d = (b - a) % circles
        if d == 1:
            mu[a] += m
        elif d == circles - 1:
            mu[b] += m
        else:
            raise ValueError(f"({a}, {b}) is not adjacent on the necklace")
    return mu


def _dual(circles: int, mu: list[int]):
    """Faces, dual edges (one per arc copy), and face-to-circle incidence."""
    merged = any(v == 0 for v in mu)
    fin = CORE if merged else IN
    fout = CORE if merged else OUT
    faces = {fin, fout}
    for u in range(circles):
        for r in range(1, mu[u]):
            faces.add(("S", u, r))
    edges = []
    for u in range(circles):
        for c in range(1, mu[u] + 1):
            inner = fin if c == 1 else ("S", u, c - 1)
            outer = fout if c == mu[u] else ("S", u, c)
            edges.append((inner, outer, (u, c)))
    incid = {}
    for f in faces:
        incid[f] = {f[1], (f[1] + 1) % circles} if f[0] == "S" else set(range(circles))
    return faces, edges, incid, fin, fout


def _simple_cycles(faces, edges):
    """Node-simple cycles as (edge id list, visited face set) pairs."""
    out = []
    plain = []
    for x, y, eid in edges:
        if x == y:
            out.append(([eid], {x}))
        else:
            plain.append((x, y, eid))

    par = defaultdict(list)
    for x, y, eid in plain:
        par[frozenset((x, y))].append(eid)
    for pair, ids in par.items():
        for n, first in enumerate(ids):
            for second in ids[n + 1:]:
                out.append(([first, second], set(pair)))

    adj = defaultdict(list)
    for x, y, eid in plain:
        adj[x].append((y, eid))
        adj[y].append((x, eid))
    order = {f: n for n, f in enumerate(sorted(faces))}

    def extend(root, cur, path_faces, path_edges):
        for nxt, eid in adj[cur]:
            if nxt == root and len(path_faces) >= 3:
                out.append((path_edges + [eid], set(path_faces)))
            elif nxt not in path_faces and order[nxt] > order[root]:
                extend(root, nxt, path_faces + [nxt], path_edges + [eid])

    for root in faces:
        extend(root, root, [root], [])
    return out


def _simple_paths(edges, src, dst):
    """Node-simple paths as (edge id list, visited face set) pairs."""
    adj = defaultdict(list)
    for x, y, eid in edges:
        if x != y:
            adj[x].append((y, eid))
            adj[y].append((x, eid))
    out = []

    def extend(cur, path_faces, path_edges):
        if cur == dst:
            out.append((list(path_edges), set(path_faces)))
            return
        for nxt, eid in adj[cur]:
            if nxt not in path_faces:
                extend(nxt, path_faces + [nxt], path_edges + [eid])

    extend(src, [src], [])
    return out


def _selfloop_variants(route, visited, edges):
    """The route plus optional extra crossings of self-loop copies.

    A curve passing through a face can dip across any arc copy bordering
    that face on both sides; such forced crossings never show up on
    node-simple routes, so they are added here explicitly.
    """
    pool = [eid for x, y, eid in edges if x == y and x in visited and eid not in route]
    for r in range(len(pool) + 1):
        for extra in combinations(pool, r):
            yield route + list(extra)


def necklace_loop_min(circles: int, arcs) -> int | None:
    """Fewest arc copies crossed by an essential loop, by enumeration."""
    if circles < 2:
        return None
    mu = sector_mults(circles, arcs)

    contact = DisjointSet(range(circles))
    for u in range(circles):
        if mu[u]:
            contact.union(u, (u + 1) % circles)
    if len(contact.groups()) >= 2:
        return 0

    faces, edges, incid, _, _ = _dual(circles, mu)
    copy_ends = {eid: eid[0] for _, _, eid in edges}  # sector of each copy
    best = None
    for route, visited in _simple_cycles(faces, edges):
        for crossed in _selfloop_variants(route, visited, edges):
            crossed_set = set(crossed)
            dsu = DisjointSet(range(circles))
            for _, _, eid in edges:
                if eid not in crossed_set:
                    u = copy_ends[eid]
                    dsu.union(u, (u + 1) % circles)
            for f in faces:
                if f not in visited:
                    cs = sorted(incid[f])
                    for c in cs[1:]:
                        dsu.union(cs[0], c)
            if len(dsu.groups()) >= 2:
                cost = len(crossed)
                if best is None or cost < best:
                    best = cost
    return best


def necklace_arc_min(circles: int, arcs, base: int) -> int | None:
    """Fewest arc copies crossed by an essential arc based at ``base``."""
    if circles < 3:
        return None
    k = circles
    mu = sector_mults(k, arcs)
    faces, edges, incid, fin, fout = _dual(k, mu)

    prev_sector = (base - 1) % k
    next_sector = base
    mup, mun = mu[prev_sector], mu[next_sector]
    m = mup + mun

    # end position -> arc copy; prev copies outermost first, then next
    # copies innermost first
    def end_copy(pos):
        if pos < mup:
            return (prev_sector, mup - pos)
        return (next_sector, pos - mup + 1)

    def gap_face(r):
        if r == 0:
            return fout
        if r < mup:
            return ("S", prev_sector, mup - r)
        if r == mup:
            return fin
        return ("S", next_sector, r - mup)

    # gaps of the base circle grouped by the face behind them
    gaps_of_face = defaultdict(list)
    for r in range(m or 1):
        gaps_of_face[gap_face(r)].append(r)

    all_cycles = _simple_cycles(faces, edges)
    others = [c for c in range(k) if c != base]
    # copy id -> (non-base end circle, end position on the base circle)
    touching = {}
    for c in range(1, mup + 1):
        touching[(prev_sector, c)] = (prev_sector, mup - c)
    for c in range(1, mun + 1):
        touching[(next_sector, c)] = ((base + 1) % k, mup + c - 1)

    best = None
    span = range(m or 1)
    for s in span:
        for t in span:
            def end_side(pos):
                # ends s..t-1 lie on side 1, the rest on side 2
                if m == 0 or s == t:
                    return 2
                return 1 if (pos - s) % m < (t - s) % m else 2

            def gap_side(r):
                # gaps strictly between the endpoint gaps lie on side 1
                if m == 0 or s == t:
                    return 2
                return 1 if 0 < (r - s) % m < (t - s) % m else 2

            fs, ft = gap_face(s), gap_face(t)
            routes = []
            if fs == ft:
                routes.append(([], {fs}))
                routes.extend(rv for rv in all_cycles if fs in rv[1])
            else:
                routes.extend(_simple_paths(edges, fs, ft))

            for route, visited in routes:
                for crossed in _selfloop_variants(route, visited, edges):
                    crossed_set = set(crossed)
                    sides = (("side", 1), ("side", 2))
                    dsu = DisjointSet([*others, *sides])
                    for _, _, eid in edges:
                        if eid in crossed_set:
                            continue
                        if eid in touching:
                            other, pos = touching[eid]
                            dsu.union(other, sides[end_side(pos) - 1])
                        else:
                            u = eid[0]
                            dsu.union(u, (u + 1) % k)
                    for f in faces:
                        if f in visited:
                            continue
                        members = sorted(incid[f] - {base})
                        for c in members[1:]:
                            dsu.union(members[0], c)
                        for r in gaps_of_face.get(f, []):
                            # endpoint gap faces are always visited
                            dsu.union(members[0], sides[gap_side(r) - 1])
                    if dsu.find(sides[0]) == dsu.find(sides[1]):
                        continue
                    r1, r2 = dsu.find(sides[0]), dsu.find(sides[1])
                    c1 = sum(1 for c in others if dsu.find(c) == r1)
                    c2 = sum(1 for c in others if dsu.find(c) == r2)
                    free = len({dsu.find(c) for c in others} - {r1, r2})
                    feasible = (
                        (c1 > 0 and c2 > 0)
                        or ((c1 > 0 or c2 > 0) and free >= 1)
                        or free >= 2
                    )
                    if not feasible:
                        continue
                    cost = len(crossed)
                    if best is None or cost < best:
                        best = cost
    return best


#-- Pairing --#

def adjacent(k: int, j: int, i: int) -> int:
    """1 when l_j crosses m_i among k classes per family, by the explicit
    rule (i - j) % k in (0, k - 1): l_j meets m_{j-1} and m_j, cyclically."""
    return 1 if (i - j) % k in (0, k - 1) else 0


#-- Smoothing walk --#

def smoothing_state_orbits(kind: str, meridians, longitudes) -> list[list[tuple]]:
    """Orbits of the full smoothing walk, one state per crossing and strand.

    The surface is the torus or the chain surface with len(meridians)
    classes per family.  Crossing (j, c, i, d) is copy c of l_j meeting
    copy d of m_i.  Along l_j the copies of m_{j-1} come before those of
    m_j; along m_i the copies of l_i come before those of l_{i+1}
    (indices cyclic).  State (x, "l") arrives at x along a longitude and
    moves to the next crossing on its meridian copy as (y, "m"); state
    (x, "m") moves on along the longitude.  Every state is walked, so
    the cost is twice the crossing count.
    """
    k = len(meridians)

    def along_longitude(j):
        return [0] if kind == "torus" else [(j - 1) % k, j]

    def along_meridian(i):
        return [0] if kind == "torus" else [i, (i + 1) % k]

    def cyclic_next(seq):
        return {x: seq[(t + 1) % len(seq)] for t, x in enumerate(seq)}

    next_on_longitude = {}
    for j in range(k):
        for c in range(1, longitudes[j] + 1):
            seq = [(j, c, i, d) for i in along_longitude(j)
                   for d in range(1, meridians[i] + 1)]
            next_on_longitude.update(cyclic_next(seq))
    next_on_meridian = {}
    for i in range(k):
        for d in range(1, meridians[i] + 1):
            seq = [(j, c, i, d) for j in along_meridian(i)
                   for c in range(1, longitudes[j] + 1)]
            next_on_meridian.update(cyclic_next(seq))

    def successor(state):
        x, fam = state
        if fam == "l":
            return next_on_meridian[x], "m"
        return next_on_longitude[x], "l"

    seen = set()
    orbits = []
    for start in [(x, fam) for x in next_on_longitude for fam in ("l", "m")]:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = successor(start)
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = successor(cur)
        orbits.append(orbit)
    return orbits


def entry_walk_orbits(kind: str, meridians, longitudes) -> list[list[tuple]]:
    """Orbits of the first return to entries, walked one entry at a time.

    Entries (j, c, i, d) are the crossings with c = 1 or d = 1.  From an
    entry the walk takes t = min(a_j - c, b_i - d) diagonal steps at
    once and then one step that leaves the block: the meridian step
    wraps to copy 1 of the next longitude class with copies along m_i
    when c = a_j, and the longitude step to copy 1 of the next meridian
    class with copies along l_j when d = b_i.  Starts are tried per block
    (l_j, m_i), j ascending and then i ascending, as d = 1 .. b_i with
    c = 1 and then c = 2 .. a_j with d = 1.  This is the reference for
    ``trace_orbits``, which lists the same cycles by entry position and
    from other starts, so the two agree as cycles of named entries, not
    in the order of the starts.  Crossing orders are the same as in
    :func:`smoothing_state_orbits`: a curve meets at most two classes,
    so the cyclic order along it does not depend on where it starts.
    """
    k = len(meridians)
    a, b = longitudes, meridians

    def along_longitude(j):
        return sorted({(j - 1) % k, j})

    def along_meridian(i):
        return [0] if kind == "torus" else [i, (i + 1) % k]

    def next_with_copies(classes, weights):
        live = [x for x in classes if weights[x]]
        return {x: live[(t + 1) % len(live)] for t, x in enumerate(live)}

    next_long = {i: next_with_copies(along_meridian(i), a) for i in range(k)}
    next_mer = {j: next_with_copies(along_longitude(j), b) for j in range(k)}

    def first_return(x):
        j, c, i, d = x
        t = min(a[j] - c, b[i] - d)
        c, d = c + t, d + t
        if c < a[j]:
            c += 1
        else:
            j, c = next_long[i][j], 1
        if d < b[i]:
            d += 1
        else:
            i, d = next_mer[j][i], 1
        return j, c, i, d

    seen = set()
    orbits = []
    for j in range(k):
        if not a[j]:
            continue
        for i in next_mer[j]:
            entries = [(j, 1, i, d) for d in range(1, b[i] + 1)]
            entries += [(j, c, i, 1) for c in range(2, a[j] + 1)]
            for start in entries:
                if start in seen:
                    continue
                orbit = [start]
                x = first_return(start)
                while x != start:
                    orbit.append(x)
                    x = first_return(x)
                seen.update(orbit)
                orbits.append(orbit)
    return orbits


#-- Face-width enumeration --#

class _XorBasis:
    """GF(2) row space over edge-index bitmasks."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def reduce(self, vec: int) -> int:
        while vec:
            row = self.rows.get(vec.bit_length() - 1)
            if row is None:
                return vec
            vec ^= row
        return 0

    def add(self, vec: int) -> None:
        vec = self.reduce(vec)
        if vec:
            self.rows[vec.bit_length() - 1] = vec


def map_fault(rotations, edges):
    """The first fault of a map in reading order, or None for a valid map.

    Rotations are read before edges, vertex by vertex and dart by dart;
    each rotation and each edge is checked to be an array before its
    darts, each edge's darts are checked to be integers before the edge
    is checked to pair two of them, and the darts left without an
    opposite are named last.  It is the reference for the messages of
    ``RotationSystem``, and reads the map with sets alone.
    """
    if not rotations:
        return "map needs at least one vertex"
    seen: set[int] = set()
    for v, rot in enumerate(rotations):
        if not isinstance(rot, (list, tuple)):
            return f"each rotation must be an array, got {type(rot).__name__}"
        if not rot:
            return f"vertex {v} has no darts"
        for d in rot:
            if not isinstance(d, int) or isinstance(d, bool):
                return f"dart must be an integer, got {d!r}"
            if d in seen:
                return f"dart {d} appears twice in the rotations"
            seen.add(d)
    paired: set[int] = set()
    for e in edges:
        if not isinstance(e, (list, tuple)):
            return f"each edge must be an array, got {type(e).__name__}"
        e = tuple(e)
        for d in e:
            if not isinstance(d, int) or isinstance(d, bool):
                return f"edge dart must be an integer, got {d!r}"
        if len(e) != 2 or e[0] == e[1]:
            return f"edge {e} must pair two distinct darts"
        for d in e:
            if d not in seen:
                return f"edge dart {d} missing from the rotations"
            if d in paired:
                return f"dart {d} appears in two edges"
            paired.add(d)
    if seen - paired:
        return f"darts without an opposite: {sorted(seen - paired)}"
    return None


def _map_structure(rotations, edges):
    """Vertex map, edge involution, and face orbits, recomputed from scratch."""
    alpha: dict[int, int] = {}
    for d1, d2 in edges:
        alpha[d1], alpha[d2] = d2, d1
    vert: dict[int, int] = {}
    sigma: dict[int, int] = {}
    for v, rot in enumerate(rotations):
        for t, d in enumerate(rot):
            vert[d] = v
            sigma[d] = rot[(t + 1) % len(rot)]
    nxt = {d: sigma[alpha[d]] for d in alpha}
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
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
        orbits.append(tuple(orbit))
    return vert, alpha, orbits


def _simple_cycles_upto(n_nodes, ends, max_len):
    """Node-simple cycles with at most max_len edges, one orientation each.

    ``ends[e]`` names the endpoints of edge e; parallel edges are kept
    distinct.  Each cycle is anchored at its smallest node and returned
    as the list of edge ids in traversal order.
    """
    adj = defaultdict(list)
    for e, (u, v) in enumerate(ends):
        adj[u].append((e, v))
        adj[v].append((e, u))
    out: list[list[int]] = []
    seen_sets: set[frozenset[int]] = set()

    def extend(start, node, used_edges, used_nodes, trail):
        for e, nbr in adj[node]:
            if e in used_edges:
                continue
            if nbr == start and trail:
                key = frozenset([*used_edges, e])
                if key not in seen_sets:
                    seen_sets.add(key)
                    out.append(trail + [e])
            elif nbr not in used_nodes and nbr > start and len(trail) + 2 <= max_len:
                used_nodes.add(nbr)
                used_edges.add(e)
                extend(start, nbr, used_edges, used_nodes, trail + [e])
                used_nodes.remove(nbr)
                used_edges.remove(e)

    for start in range(n_nodes):
        extend(start, start, set(), {start}, [])
    return out


def radial_cycle_catalog(rotations, edges, max_len):
    """Simple radial cycles with their homology classes, by enumeration.

    The radial multigraph joins the vertex of every dart to its face.
    Each entry is (tags, essential): the cycle as the list of darts
    naming its radial edges in traversal order from a vertex node, and
    whether its class is nonzero.  A cycle step inside a face is read
    off the face orbit between the entry and exit corners, so the class
    lives over the original edges and is tested against the span of the
    face boundaries over GF(2).  On the torus a simple cycle is
    essential exactly when that class is nonzero.
    """
    vert, alpha, orbits = _map_structure(rotations, edges)
    n_v = len(rotations)
    orbit_of: dict[int, int] = {}
    pos: dict[int, int] = {}
    for j, orbit in enumerate(orbits):
        for t, d in enumerate(orbit):
            orbit_of[d] = j
            pos[d] = t

    darts = sorted(vert)
    ends = [(vert[d], n_v + orbit_of[d]) for d in darts]
    edge_idx = {frozenset(e): t for t, e in enumerate(edges)}
    eidx = {d: edge_idx[frozenset((d, alpha[d]))] for d in darts}

    basis = _XorBasis()
    for orbit in orbits:
        vec = 0
        for d in orbit:
            vec ^= 1 << eidx[d]
        basis.add(vec)

    catalog = []
    for trail in _simple_cycles_upto(n_v + len(orbits), ends, max_len):
        tags = [darts[e] for e in trail]
        vec = 0
        for s in range(0, len(tags), 2):
            din, dout = tags[s], tags[s + 1]
            orbit = orbits[orbit_of[din]]
            t = pos[din]
            while t != pos[dout]:
                vec ^= 1 << eidx[orbit[t]]
                t = (t + 1) % len(orbit)
        catalog.append((tags, basis.reduce(vec) != 0))
    return catalog


def enumerated_face_width(rotations, edges, max_len):
    """Half the length of the shortest essential radial cycle found."""
    lengths = [
        len(tags)
        for tags, essential in radial_cycle_catalog(rotations, edges, max_len)
        if essential
    ]
    if not lengths:
        raise AssertionError(f"no essential radial cycle of length <= {max_len}")
    return min(lengths) // 2


def cut_component_chis(rotations, edges, cycle):
    """Sorted Euler characteristics of the map cut open along a simple dart cycle.

    The cut map is built explicitly: every cycle vertex splits into a
    left and a right copy, every cycle edge into one copy per side, and
    the two boundary walks become faces.  Components are then found by
    a vertex search and their faces counted from scratch.
    """
    vert, alpha, _ = _map_structure(rotations, edges)
    n = len(cycle)
    verts = [vert[d] for d in cycle]
    copy: dict[tuple[int, str], int] = {}
    fresh = max(vert) + 1
    for d in cycle:
        for x in (d, alpha[d]):
            for side in ("L", "R"):
                copy[(x, side)] = fresh
                fresh += 1

    # at vertex vt the cycle arrives by the opposite of d(t-1) and
    # leaves by dt; sweeping counterclockwise from the outgoing dart to
    # the incoming one passes the darts left of the direction of travel
    out_dart = {verts[t]: cycle[t] for t in range(n)}
    in_dart = {verts[(t + 1) % n]: alpha[d] for t, d in enumerate(cycle)}

    def between(rot, start, stop):
        k = len(rot)
        out = []
        p = (rot.index(start) + 1) % k
        while rot[p] != stop:
            out.append(rot[p])
            p = (p + 1) % k
        return out

    cut_rotations = []
    for v, rot in enumerate(rotations):
        if v not in out_dart:
            cut_rotations.append(tuple(rot))
            continue
        o, i = out_dart[v], in_dart[v]
        cut_rotations.append((copy[(o, "L")], *between(rot, o, i), copy[(i, "L")]))
        cut_rotations.append((copy[(i, "R")], *between(rot, i, o), copy[(o, "R")]))

    cut_edges = {frozenset((d, alpha[d])) for d in cycle}
    cut_pairs = [tuple(e) for e in edges if frozenset(e) not in cut_edges]
    for d in cycle:
        a = alpha[d]
        cut_pairs.append((copy[(d, "L")], copy[(a, "L")]))
        cut_pairs.append((copy[(d, "R")], copy[(a, "R")]))

    cvert, calpha, orbits = _map_structure(cut_rotations, cut_pairs)
    comps = DisjointSet(range(len(cut_rotations)))
    for d1, d2 in cut_pairs:
        comps.union(cvert[d1], cvert[d2])
    chi: dict[int, int] = defaultdict(int)
    for v in range(len(cut_rotations)):
        chi[comps.find(v)] += 1
    for d1, _ in cut_pairs:
        chi[comps.find(cvert[d1])] -= 1
    for orbit in orbits:
        chi[comps.find(cvert[orbit[0]])] += 1
    return tuple(sorted(chi.values()))


def radial_map(rotations, edges):
    """Vertex-face incidence map as plain (rotations, edges) data.

    Radial dart 2t (at the vertex node) and 2t + 1 (at the face node)
    stand for the t-th original dart in sorted order; face nodes follow
    the vertex nodes and list their darts against the face orbit.
    """
    vert, _, orbits = _map_structure(rotations, edges)
    idx = {d: 2 * t for t, d in enumerate(sorted(vert))}
    rad_rotations = [tuple(idx[d] for d in rot) for rot in rotations]
    rad_rotations += [tuple(idx[d] + 1 for d in reversed(orbit)) for orbit in orbits]
    return rad_rotations, [(idx[d], idx[d] + 1) for d in sorted(vert)]


def radial_cycle_candidates(rotations, edges):
    """Simple cycles containing a shortest one from every essential class.

    Breadth first search from every root; each non-tree edge closes a
    fundamental cycle, trimmed of the common tree prefix.  Any family
    of cycles closed under rerouting along two of three internally
    disjoint paths has a shortest member of this form, and the
    noncontractible cycles are such a family.  Duplicate edge sets keep
    their shortest cycle; the result is sorted by length.
    """
    vert, alpha, _ = _map_structure(rotations, edges)
    found: dict[frozenset, tuple[int, ...]] = {}
    for root in range(len(rotations)):
        path: dict[int, tuple[int, ...]] = {root: ()}
        order = [root]
        tree: set[frozenset[int]] = set()
        for v in order:
            for d in rotations[v]:
                w = vert[alpha[d]]
                ekey = frozenset((d, alpha[d]))
                if w not in path:
                    path[w] = path[v] + (d,)
                    order.append(w)
                    tree.add(ekey)
                elif ekey not in tree:
                    if w == v:
                        cand: tuple[int, ...] = (d,)
                    else:
                        pu, pw = path[v], path[w]
                        c = 0
                        while c < len(pu) and c < len(pw) and pu[c] == pw[c]:
                            c += 1
                        back = tuple(alpha[x] for x in reversed(pw[c:]))
                        cand = pu[c:] + (d,) + back
                    key = frozenset(frozenset((x, alpha[x])) for x in cand)
                    if key not in found or len(found[key]) > len(cand):
                        found[key] = cand
    return sorted(found.values(), key=len)


def candidate_face_width(rotations, edges):
    """Half the length of the first radial candidate that does not bound a disk.

    The map must be connected.  A cycle bounds a disk exactly when the
    explicit cut map has two components, one of them a sphere.
    """
    _, _, orbits = _map_structure(rotations, edges)
    if len(rotations) - len(edges) + len(orbits) == 2:
        return math.inf
    rad_rotations, rad_edges = radial_map(rotations, edges)
    for cand in radial_cycle_candidates(rad_rotations, rad_edges):
        chis = cut_component_chis(rad_rotations, rad_edges, cand)
        if not (len(chis) == 2 and 2 in chis):
            return len(cand) // 2
    raise AssertionError("no noncontractible candidate on a positive genus surface")


#-- Bounds catalog by enumeration --#

_KNOT_TAGS = {"nontrivial_knot", "torus_knot", "two_bridge", "algebraic", "pretzel",
              "composite", "has_conway_sphere"}
_PRETZEL_THREE = {(-2, 3, 3), (-3, -3, 2), (-2, 3, 5), (-5, -3, 2)}
BOUNDS_AXES = ("r", "b", "bs", "waist", "beta1")


def catalog_holds(tags, r, b, bs, waist, beta1) -> bool:
    """The rule catalog of the surfrep.bounds docstring, one predicate per rule.

    ``tags`` needs ``names``, ``torus_knot`` and ``pretzel`` as on
    SubjectTags; any knot-only tag makes the subject a nontrivial knot.
    """
    names = tags.names
    knot = bool(names & _KNOT_TAGS)
    return (
        2 * r <= bs  # R1
        and (not knot or 2 <= r <= b)  # R2
        and (not knot or bs == 2 * b)  # R3
        and (tags.torus_knot is None or r == b == min(tags.torus_knot))  # R4
        and ("two_bridge" not in names or b == 2)  # R5, r = 2 then by R2
        and ("algebraic" not in names or r <= 3)  # R6
        and (tags.pretzel is None
             or (r == 3) == (tuple(sorted(tags.pretzel)) in _PRETZEL_THREE))  # R7
        and ("composite" not in names or r == 2)  # R8
        and ("has_conway_sphere" not in names or r <= 4)  # R9
        and ("theta_curve" not in names or bs <= 2 * b + 1)  # R10
        and ("primitive" not in names or r <= beta1)  # R11
        and 3 * waist <= bs  # R12
        and r >= 1 and b >= 1  # R13
    )


def feasible_points(tags, seeds, box: int) -> list[tuple[int, ...]]:
    """Integer points (r, b, bs, waist, beta1) in [0, box]^5 that satisfy
    the catalog and lie in the seeds, each an ``Interval``.

    The component count appears in no rule, so its seed only has to hold
    an integer.  A seed that holds no integer admits no point.
    """
    seeds = dict(seeds or {})

    def admits(axis: str, value: int) -> bool:
        iv = seeds.get(axis)
        return iv is None or (iv.lo <= value and (iv.hi is None or value <= iv.hi))

    components = seeds.get("components")
    if components is not None and not admits("components", math.ceil(components.lo)):
        return []
    ranges = [[v for v in range(box + 1) if admits(axis, v)] for axis in BOUNDS_AXES]
    return [point for point in product(*ranges) if catalog_holds(tags, *point)]


#-- Pretzel diagram components by a walk --#

def pretzel_components(params) -> int:
    """Number of components of the standard diagram of the pretzel link
    P(p_0, ..., p_{k-1}).

    Column i is a vertical twist of two strands with |p_i| crossings; a
    strand entering a column on side 0 (left) or 1 (right) switches side
    at each crossing on its way through.  Above and below the columns,
    arcs join the right end of each column to the left end of the next,
    the last back to the first.  An end is (row, column, side), row 0 at
    the top and 1 at the bottom, and each closed walk is one component.
    """
    k = len(params)

    def through(end):
        row, i, side = end
        for _ in range(abs(params[i])):
            side = 1 - side
        return 1 - row, i, side

    def across(end):
        row, i, side = end
        return (row, (i + 1) % k, 0) if side else (row, (i - 1) % k, 1)

    seen = set()
    count = 0
    for start in product((0, 1), range(k), (0, 1)):
        if start in seen:
            continue
        count += 1
        end = start
        while end not in seen:
            exit_ = through(end)
            seen.update((end, exit_))
            end = across(exit_)
    return count


def cheapest_class(mc) -> int:
    """The least boundary count of any reference class of ``mc``."""
    return min(mc.boundary_count(f, i) for f in "ml" for i in range(len(mc.meridians)))
