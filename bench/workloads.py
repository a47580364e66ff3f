"""The four seeded workloads and their reference answers.

Each workload turns a seed into passes of CLI operations.  A pass has a
fixed composition (the same strata, grid sizes or operation counts on
every seed), so that a run's figures depend on the program rather than on
the luck of the draw; the seed chooses the values inside the strata, the
order, and the labelling of the inputs.

References are computed here from closed forms and from the brute-force
oracles in ``tests/oracles.py``, never by calling the package.  Every
operation is classified as

* ``OK`` - the report gives the reference answer with the expected exit code;
* ``KNOWN`` - the documented criterion 2 failure: ``verify exactly:n,g``
  with odd n and g >= 2 cannot certify n (the best even level below n is
  all the cut-piece certificate can reach), so the report says fail;
* ``WRONG`` - anything else: a different answer, exit 2, or a traceback.

Operations that are not ``OK`` count as failed; only ``WRONG`` makes the
run incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from oracles import necklace_arc_min, necklace_loop_min

OK, KNOWN, WRONG = "ok", "known", "wrong"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and the reference the report must match."""

    argv: tuple[str, ...]
    ref: Any
    known_failure: bool = False


def _report(out: str) -> dict[str, Any] | None:
    try:
        report = json.loads(out)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


#-- verify: family instances --#

def exactly_weights(n: int, g: int) -> tuple[list[int], list[int]]:
    """Meridian and longitude weights of exactly:n,g, from the family's definition."""
    c, f = -(-n // 2), n // 2
    return [n + 1, n] + [c] * (g - 1), [c, f] + [c] * (g - 1)


def chain_counts(meridians: list[int], longitudes: list[int]) -> dict[str, int]:
    """Boundary count of every reference class on the chain surface.

    l_j crosses m_(j-1) and m_j once each, so a copy of m_i meets the
    longitude copies of classes i and i+1, and a copy of l_j meets the
    meridian copies of classes j-1 and j (indices mod g+1).
    """
    k = len(meridians)
    out = {f"count m{i}": longitudes[i] + longitudes[(i + 1) % k] for i in range(k)}
    out.update({f"count l{j}": meridians[(j - 1) % k] + meridians[j] for j in range(k)})
    return out


def verify_reference(kind: str, x: int, y: int) -> dict[str, Any]:
    """The value each named check of ``verify kind:x,y`` must report."""
    if kind == "torus":
        return {
            "count m0": x,
            "count l0": y,
            "smoothed components": math.gcd(x, y),
            "crossing upper bound": min(x, y),
        }
    if kind == "exactly":
        out: dict[str, Any] = chain_counts(*exactly_weights(x, y))
        out.update({"smoothed components": 1, "certified representativity": x})
        return out
    out = chain_counts([y] * 3, [x] * 3)
    out.update({
        "smoothed components": ">= 1",
        "certified representativity": 2 * x,
        "doubled representativity strictly below recorded 6p strings": 4 * x,
    })
    return out


def _verify_actuals(report: dict[str, Any]) -> dict[str, Any]:
    return {c["name"].partition(" = ")[0]: c["actual"] for c in report.get("checks", [])}


def classify_verify(op: Op, code: Any, out: str) -> str:
    report = _report(out)
    if report is None or code not in (0, 1):
        return WRONG
    actual = _verify_actuals(report)
    ref = op.ref
    if actual.keys() != ref.keys():
        return WRONG
    mismatched = set()
    for key, want in ref.items():
        got = actual[key]
        if want == ">= 1":
            good = isinstance(got, int) and got >= 1
        else:
            good = got == want
        if not good:
            mismatched.add(key)
    if not mismatched:
        passed = code == 0 and report.get("verdict") == "pass"
        return OK if passed else WRONG
    if (op.known_failure and mismatched == {"certified representativity"}
            and code == 1 and report.get("verdict") == "fail"):
        return KNOWN
    return WRONG


def verify_op(kind: str, x: int, y: int) -> Op:
    known = kind == "exactly" and x % 2 == 1 and y >= 2
    return Op(("verify", f"{kind}:{x},{y}"), verify_reference(kind, x, y), known)


#: largest n per genus in verify-exactly; subset enumeration costs ~2^g,
#: so the top genera stop early and one pass stays near five seconds
EXACTLY_N_MAX = {6: 10, 7: 8, 8: 6}


class VerifyExactly:
    """verify exactly:n,g over g in 1..8 and n in 2..14 (both parities), plus lpq:p,q."""

    name = "verify-exactly"
    classify = staticmethod(classify_verify)

    def __init__(self, seed: int, workdir: Path, max_genus: int = 8, max_n: int = 14,
                 max_lpq: int = 12) -> None:
        self.rng = random.Random(seed)
        self.cells = [
            (n, g)
            for g in range(1, max_genus + 1)
            for n in range(2, min(max_n, EXACTLY_N_MAX.get(g, max_n)) + 1)
        ]
        self.max_lpq = max_lpq

    def next_pass(self) -> list[Op]:
        ops = [verify_op("exactly", n, g) for n, g in self.cells]
        for p in range(1, self.max_lpq + 1):
            ops.append(verify_op("lpq", p, 3 * p + 1 + self.rng.randrange(7)))
        self.rng.shuffle(ops)
        return ops


class VerifyTorus:
    """verify torus:p,q with p, q log-uniform in [30, 400], stratified.

    The log range of each parameter is cut into ``strata`` bands and every
    pair of bands gets one draw, so each pass covers the product range
    evenly.  A draw lies within a tenth of a band of the band's centre:
    that moves p and q by about 3%, enough to change gcd(p, q) and so the
    orbit structure, while the walk length pq, which sets the cost, stays
    nearly the same on every seed.  The corner (400, 400) is added to every
    pass so that the largest walk, which sets peak memory, is always the same.
    """

    name = "verify-torus"
    classify = staticmethod(classify_verify)

    def __init__(self, seed: int, workdir: Path, lo: int = 30, hi: int = 400,
                 strata: int = 8) -> None:
        self.rng = random.Random(seed)
        self.lo, self.hi, self.strata = lo, hi, strata

    def _draw(self, band: int) -> int:
        a, b = math.log(self.lo), math.log(self.hi)
        x = math.exp(a + (band + self.rng.uniform(0.4, 0.6)) * (b - a) / self.strata)
        return min(self.hi, max(self.lo, round(x)))

    def next_pass(self) -> list[Op]:
        ops = [
            verify_op("torus", self._draw(i), self._draw(j))
            for i in range(self.strata)
            for j in range(self.strata)
        ]
        ops.append(verify_op("torus", self.hi, self.hi))
        self.rng.shuffle(ops)
        return ops


#-- facewidth: toroidal grids --#

def grid_map(r: int, c: int, rng: random.Random | None = None) -> dict[str, Any]:
    """The r-by-c square grid on the torus as rotation-system JSON.

    Vertex (i, j) has darts E, N, W, S in counterclockwise order; E pairs
    with W of (i, j+1) and N with S of (i+1, j), indices wrapping.  With
    ``rng`` the same map is relabelled: darts get random distinct names,
    vertices and edges are shuffled, and each rotation starts at a random
    dart.  None of that changes the embedding.
    """
    def dart(i: int, j: int, t: int) -> int:
        return 4 * ((i % r) * c + (j % c)) + t

    rotations = [[dart(i, j, t) for t in range(4)] for i in range(r) for j in range(c)]
    edges = [
        pair
        for i in range(r)
        for j in range(c)
        for pair in ([dart(i, j, 0), dart(i, j + 1, 2)], [dart(i, j, 1), dart(i + 1, j, 3)])
    ]
    if rng is not None:
        names = rng.sample(range(8 * r * c), 4 * r * c)
        rotations = [[names[d] for d in rot] for rot in rotations]
        for rot in rotations:
            s = rng.randrange(4)
            rot[:] = rot[s:] + rot[:s]
        rng.shuffle(rotations)
        edges = [[names[a], names[b]] for a, b in edges]
        for e in edges:
            rng.shuffle(e)
        rng.shuffle(edges)
    return {"rotations": rotations, "edges": edges}


def classify_facewidth(op: Op, code: Any, out: str) -> str:
    report = _report(out)
    if report is None or code != 0:
        return WRONG
    results = report.get("results", {})
    genus, width = op.ref
    return OK if (results.get("genus"), results.get("face_width")) == (genus, width) else WRONG


class FacewidthGrids:
    """facewidth on every toroidal r-by-c grid with 3 <= r <= c <= 7, relabelled per pass."""

    name = "facewidth-grids"
    classify = staticmethod(classify_facewidth)

    def __init__(self, seed: int, workdir: Path, max_side: int = 7) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.sizes = [(r, c) for r in range(3, max_side + 1) for c in range(r, max_side + 1)]

    def next_pass(self) -> list[Op]:
        ops = []
        for r, c in self.sizes:
            path = self.workdir / f"grid{r}x{c}.json"
            path.write_text(json.dumps(grid_map(r, c, self.rng)))
            ops.append(Op(("facewidth", str(path)), (1, min(r, c))))
        self.rng.shuffle(ops)
        return ops


#-- cli-mix: bounds, certify, generate --#

def _interval(lo: int, hi: int | None) -> str:
    return f"[{lo}, {hi}]" if hi is not None else f"[{lo}, inf)"


def bounds_display(r: int, b: int | None) -> dict[str, str]:
    """Fixed point of a nontrivial knot with r pinned and b pinned or free.

    R2 and R3 give b >= r and bs = 2b, R12 gives waist <= bs/3; nothing
    constrains beta1 or the component count.  b free means b in [2, inf).
    """
    bs_hi = None if b is None else 2 * b
    return {
        "r": _interval(r, r),
        "b": _interval(r, None) if b is None else _interval(b, b),
        "bs": _interval(2 * r, None) if b is None else _interval(bs_hi, bs_hi),
        "waist": _interval(0, None if bs_hi is None else bs_hi // 3),
        "beta1": _interval(0, None),
        "components": _interval(0, None),
    }


def bounds_case(rng: random.Random) -> Op:
    """One bounds request whose fixed point or contradiction is known.

    torus_knot=p,q pins r = b = min(p,q) (R4), two_bridge pins r = b = 2
    (R5), composite pins r = 2 (R8) and leaves b free unless seeded.
    Half the requests carry no seed, a quarter a consistent one, and a
    quarter one that contradicts, which must exit 1.
    """
    tag = rng.choice(("torus_knot", "two_bridge", "composite"))
    if tag == "torus_knot":
        while True:
            p, q = rng.randint(2, 60), rng.randint(2, 60)
            if math.gcd(p, q) == 1:
                break
        m = min(p, q)
        tag_arg, r, b = f"torus_knot={p},{q}", m, m
        consistent = [f"r={m}", f"b={m}", f"bs={2 * m}"]
        contradicting = [f"b={m + 1}", f"r={m - 1}", f"bs={2 * m + 1}"]
    elif tag == "two_bridge":
        tag_arg, r, b = tag, 2, 2
        consistent = ["r=2", "b=2", "bs=4"]
        contradicting = ["b=3", "r=1", "bs=5"]
    else:
        tag_arg, r, b = tag, 2, None
        k = rng.randint(2, 9)
        consistent = [f"b={k}", f"bs={2 * k}"]
        contradicting = ["r=3", "b=1", "bs=3"]
    argv = ["bounds", "--tag", tag_arg]
    roll = rng.random()
    if roll < 0.25:
        argv += ["--seed", rng.choice(contradicting)]
        return Op(tuple(argv), None)
    if roll < 0.5:
        seed = rng.choice(consistent)
        argv += ["--seed", seed]
        if b is None:
            value = int(seed.partition("=")[2])
            b = value if seed.startswith("b=") else value // 2
    return Op(tuple(argv), bounds_display(r, b))


#: sector weights of certify pieces by circle count, one set with an empty
#: sector and one without; the seed only arranges them around the necklace,
#: so the cost of the piece pool is the same on every seed
PIECE_WEIGHTS = {
    3: ((0, 2, 3), (1, 2, 3)),
    4: ((0, 1, 2, 3), (1, 1, 2, 3)),
    5: ((0, 1, 2, 2, 3), (1, 1, 2, 2, 3)),
    6: ((0, 1, 1, 2, 2, 3), (1, 1, 1, 2, 2, 3)),
}


def necklace_piece(rng: random.Random, piece_id: str, slot: int) -> dict[str, Any]:
    """Piece number ``slot`` of the pool: 3-6 circles, sector u joining circles u and u+1."""
    k = 3 + slot % 4
    weights = list(PIECE_WEIGHTS[k][slot // 4 % 2])
    rng.shuffle(weights)
    arcs = [
        {"a": min(u, (u + 1) % k), "b": max(u, (u + 1) % k), "mult": w}
        for u, w in enumerate(weights)
        if w
    ]
    return {"piece": piece_id, "circles": k, "arcs": arcs}


def piece_minima(piece: dict[str, Any]) -> tuple[int, int | None]:
    """Loop minimum and least arc minimum of a stored piece, from the oracles."""
    k = piece["circles"]
    arcs = [(e["a"], e["b"], e["mult"]) for e in piece["arcs"]]
    loop = necklace_loop_min(k, arcs)
    arc_values = [v for base in range(k) if (v := necklace_arc_min(k, arcs, base)) is not None]
    return loop, (min(arc_values) if arc_values else None)


def certify_checks(pieces: list[dict[str, Any]], minima: list[tuple[int, int | None]],
                   n: int) -> tuple[list[tuple[str, int]], bool]:
    """The (name, actual) checks a certify report must list, and its verdict."""
    checks: list[tuple[str, int]] = []
    holds = True
    for piece, (loop, arc) in zip(pieces, minima):
        checks.append((f"{piece['piece']} loop minimum", loop))
        holds &= loop >= n
        if arc is not None:
            checks.append((f"{piece['piece']} doubled arc minimum", 2 * arc))
            holds &= 2 * arc >= n
    return checks, holds


def classify_mix(op: Op, code: Any, out: str) -> str:
    kind = op.argv[0]
    if kind == "generate":
        try:
            curve = json.loads(out)
        except ValueError:
            return WRONG
        return OK if code == 0 and curve == op.ref else WRONG
    report = _report(out)
    if report is None:
        return WRONG
    results = report.get("results", {})
    if kind == "bounds":
        if op.ref is None:
            good = code == 1 and report.get("verdict") == "fail" and "contradiction" in results
        else:
            good = code == 0 and results.get("display") == op.ref
        return OK if good else WRONG
    checks, holds = op.ref
    got = [(c.get("name"), c.get("actual")) for c in report.get("checks", [])]
    good = (
        got == checks
        and results.get("lower_bound_holds") is holds
        and code == (0 if holds else 1)
    )
    return OK if good else WRONG


def generate_case(rng: random.Random) -> Op:
    """generate on a random family instance; the reference is its weight vector."""
    kind = rng.choice(("torus", "exactly", "lpq"))
    if kind == "torus":
        p, q = rng.randint(1, 50), rng.randint(1, 50)
        ref = {"surface": {"kind": "torus", "genus": 1}, "meridians": [q], "longitudes": [p]}
        return Op(("generate", f"torus:{p},{q}"), ref)
    if kind == "exactly":
        n, g = rng.randint(2, 14), rng.randint(1, 8)
        a, b = exactly_weights(n, g)
        ref = {"surface": {"kind": "chain", "genus": g}, "meridians": a, "longitudes": b}
        return Op(("generate", f"exactly:{n},{g}"), ref)
    p = rng.randint(1, 12)
    q = 3 * p + rng.randint(1, 7)
    ref = {"surface": {"kind": "chain", "genus": 2}, "meridians": [q] * 3, "longitudes": [p] * 3}
    return Op(("generate", f"lpq:{p},{q}"), ref)


class CliMix:
    """Short requests: 20 bounds, 20 certify and 10 generate per pass.

    Set-up writes the certify piece files and computes their minima with
    the oracles.  Files hold one and two pieces in turn and are stored
    three ways: bare (level given by --n) and with the passing and the
    failing level stored in the file.  The passing level is the largest
    the pieces certify; the failing one is one above it.
    """

    name = "cli-mix"
    classify = staticmethod(classify_mix)

    def __init__(self, seed: int, workdir: Path, files: int = 12,
                 counts: tuple[int, int, int] = (20, 20, 10)) -> None:
        self.rng = random.Random(seed)
        self.counts = counts
        self.certify_ops: list[Op] = []
        slot = 0
        for f in range(files):
            pieces = []
            for t in range(1 + f % 2):
                pieces.append(necklace_piece(self.rng, f"P{t}", slot))
                slot += 1
            minima = [piece_minima(p) for p in pieces]
            score = min(min(loop, 2 * arc) if arc is not None else loop for loop, arc in minima)
            bare = workdir / f"pieces{f}.json"
            bare.write_text(json.dumps(pieces))
            for n in (score, score + 1):
                ref = certify_checks(pieces, minima, n)
                stored = workdir / f"pieces{f}-n{n}.json"
                stored.write_text(json.dumps({"pieces": pieces, "n": n}))
                self.certify_ops.append(Op(("certify", str(bare), "--n", str(n)), ref))
                self.certify_ops.append(Op(("certify", str(stored)), ref))

    def next_pass(self) -> list[Op]:
        n_bounds, n_certify, n_generate = self.counts
        ops = [bounds_case(self.rng) for _ in range(n_bounds)]
        ops += self.rng.sample(self.certify_ops, n_certify)
        ops += [generate_case(self.rng) for _ in range(n_generate)]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (VerifyExactly, VerifyTorus, FacewidthGrids, CliMix)}
