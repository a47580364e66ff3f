"""Work counts pinned exactly: performance regressions caught without a clock.

Each test counts calls of one layer on fixed inputs, by wrapping the
function that does the work, and pins the count.  A count reads the
same on any machine, where a timing drifts with the machine's state.
A change that moves a count updates it here and says why; a rise is a
regression unless the change argues otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import shutil

from surfrep import bounds, facewidth, smoothing
from surfrep.cli import _parse, main
from surfrep.facewidth import _search_roots, _z2_labels, face_width, radial
from surfrep.families import parse_family, verify_family
from surfrep.surface import MultiCurve, _set_field
from test_facewidth import DOUBLE_TORUS, double_cover, relabelled, toroidal_grid
from test_golden import CORPUS


#-- Face width --#

def test_torus_grids_take_the_fast_paths(monkeypatch):
    """On the torus every zero-class cycle is skipped without a cut, so the
    witness check is the one cut, and the labels pick fewer roots than
    there are vertex nodes."""
    rng = random.Random(29)
    cuts = []
    original = facewidth.cycle_is_contractible

    def counting(rad, cycle):
        cuts.append(cycle)
        return original(rad, cycle)

    monkeypatch.setattr(facewidth, "cycle_is_contractible", counting)
    for rows in range(3, 9):
        for cols in range(rows, 9):
            for _ in range(2):
                grid = relabelled(toroidal_grid(rows, cols), rng)
                cuts.clear()
                assert face_width(grid) == rows
                assert len(cuts) == 1
                roots = _search_roots(grid, _z2_labels(radial(grid)))
                assert len(roots) < grid.num_vertices


def test_genus_two_searches_skip_the_nodes_of_earlier_roots(monkeypatch):
    """At genus 2 every vertex node is a root and each zero-class candidate
    costs one cut, so the cuts count the search's work: these are the
    counts per map, the witness check included.  A search that walked
    back into the nodes of earlier roots would find the same widths with
    5/258/405/1154/1 cuts; a change that lowers the counts updates them."""
    cuts = []
    original = facewidth.cycle_is_contractible

    def counting(rad, cycle):
        cuts.append(cycle)
        return original(rad, cycle)

    monkeypatch.setattr(facewidth, "cycle_is_contractible", counting)
    found = []
    for rs in (*map(double_cover, range(3, 7)), DOUBLE_TORUS):
        cuts.clear()
        found.append((face_width(rs), len(cuts)))
    assert found == [(2, 5), (4, 111), (4, 172), (6, 406), (1, 1)]


def test_face_width_expands_a_pinned_number_of_radial_nodes(monkeypatch):
    """Each node a search expands reads its radial rotation once, so the
    reads of the radial map's rotations, less the one read per node of the
    Z/2 labelling, count the search's work: per row count r, summed over
    the torus grids r x c with r <= c <= 8 and two relabellings each, and
    per genus-2 map."""
    reads = []

    class Counted(list):
        def __getitem__(self, node):
            reads.append(node)
            return super().__getitem__(node)

    build, label = facewidth.radial, facewidth._z2_labels

    def counting_radial(rs):
        rad = build(rs)
        _set_field(rad, "_rots", Counted(rad._rots))
        return rad

    def uncounted_labels(rad):
        before = len(reads)
        labels = label(rad)
        del reads[before:]
        return labels

    monkeypatch.setattr(facewidth, "radial", counting_radial)
    monkeypatch.setattr(facewidth, "_z2_labels", uncounted_labels)
    rng = random.Random(29)
    rows_found: dict[int, int] = {}
    for rows in range(3, 9):
        for cols in range(rows, 9):
            for _ in range(2):
                reads.clear()
                assert face_width(relabelled(toroidal_grid(rows, cols), rng)) == rows
                rows_found[rows] = rows_found.get(rows, 0) + len(reads)
    assert rows_found == {3: 612, 4: 1169, 5: 2104, 6: 2772, 7: 3133, 8: 2354}
    found = []
    for rs in (*map(double_cover, range(3, 7)), DOUBLE_TORUS):
        reads.clear()
        found.append((face_width(rs), len(reads)))
    assert found == [(2, 22), (4, 329), (4, 496), (6, 1903), (1, 1)]


#-- Verify and smoothing --#

def test_verify_reads_each_class_count_twice(monkeypatch):
    """``verify`` counts every reference class once for its claimed row and
    once more in ``trace_components``: 4k calls on every surface with k
    classes per family.  The certificate reads none, as both of its ends
    come from the cut pieces, and the torus row "crossing upper bound"
    reads the least of the count rows."""
    calls = []
    original = MultiCurve.boundary_count

    def counting(self, family, index):
        calls.append((family, index))
        return original(self, family, index)

    monkeypatch.setattr(MultiCurve, "boundary_count", counting)
    found = {}
    for text in ("exactly:4,3", "exactly:5,2", "lpq:2,7", "torus:3,5"):
        calls.clear()
        verify_family(parse_family(text))
        found[text] = len(calls)
    assert found == {"exactly:4,3": 16, "exactly:5,2": 12, "lpq:2,7": 12, "torus:3,5": 4}


def test_smoothing_builds_three_pieces_per_block_and_pins_its_steps(monkeypatch):
    """``_return_pieces`` writes three translation pieces per block.  The
    cycle walk takes one successor step per entry, 34 and 48 on the two
    chains, so its work follows the blocks and the weights, not the
    crossings (90,300 at ``torus:300,301``).  ``torus:300,301`` has 600
    entries in 3 pieces, too many per piece for the walk: the induction
    counts it in 5 steps, where the walk took 600."""
    pieces, steps = [], []
    build, walk, induce = smoothing._return_pieces, smoothing.trace_orbits, smoothing._induce

    def counting_pieces(mc):
        out = build(mc)
        pieces.append(len(out[2]))
        return out

    def counting_walk(mc):
        orbits = walk(mc)
        steps[-1] += sum(map(len, orbits))
        return orbits

    def counting_induction(top, bottom, length):
        steps[-1] += 1
        return induce(top, bottom, length)

    monkeypatch.setattr(smoothing, "_return_pieces", counting_pieces)
    monkeypatch.setattr(smoothing, "trace_orbits", counting_walk)
    monkeypatch.setattr(smoothing, "_induce", counting_induction)
    for text in ("exactly:4,3", "lpq:2,7", "torus:300,301"):
        steps.append(0)
        smoothing.trace_components(parse_family(text).curve)
    assert pieces == [24, 18, 3]
    assert steps == [34, 48, 5]


#-- Bounds --#

def _per_bounds_input(work: list) -> dict[str, int]:
    """The length of ``work`` after each distinct ``bounds`` input of the
    golden corpus, cleared before each; keyed by the arguments."""
    found = {}
    for argv in CORPUS:
        if argv[0] == "bounds":
            work.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
            found[" ".join(a for a in argv[1:] if a != "--pretty")] = len(work)
    return found


def test_bounds_applies_each_rule_a_pinned_number_of_times(monkeypatch):
    """Rule applications per distinct ``bounds`` input of the golden corpus,
    seeds included: each pass applies every active rule once, until a
    pass changes nothing or a contradiction ends the run."""
    calls = []
    original = bounds._apply

    def counting(rule, steps, facts):
        calls.append(rule)
        return original(rule, steps, facts)

    monkeypatch.setattr(bounds, "_apply", counting)
    assert _per_bounds_input(calls) == {
        "": 9,
        "--tag torus_knot=3,5": 18,
        "--tag two_bridge": 18,
        "--tag composite --seed b=4": 13,
        "--tag algebraic --seed waist=3": 25,
        "--tag primitive": 12,
        "--tag nontrivial_knot --seed bs=3": 3,
        "--tag pretzel=1,3,7 --tag algebraic": 14,
        "--tag pretzel=-2,3,5": 18,
        "--tag torus_knot=3,5 --seed r=3": 19,
        "--tag pretzel=1,3,7 --seed r=3": 5,
        "--tag torus_knot=3,5 --seed bs=6": 13,
        "--tag theta_curve --seed bs=6": 9,
        "--seed bs=7": 7,
    }


def test_bounds_builds_an_interval_only_for_a_move(monkeypatch):
    """``Interval`` constructions per distinct ``bounds`` input of the
    golden corpus: one per seed read, and one per ``_narrow`` call that
    moves an end.  Every run starts from one shared [0, inf), so a run of
    no seed and no move builds none; six fresh starts would add 6 to each."""
    built = []
    original = bounds.Interval.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(bounds.Interval, "__init__", counting)
    assert _per_bounds_input(built) == {
        "": 3,
        "--tag torus_knot=3,5": 8,
        "--tag two_bridge": 7,
        "--tag composite --seed b=4": 8,
        "--tag algebraic --seed waist=3": 10,
        "--tag primitive": 4,
        "--tag nontrivial_knot --seed bs=3": 3,
        "--tag pretzel=1,3,7 --tag algebraic": 5,
        "--tag pretzel=-2,3,5": 6,
        "--tag torus_knot=3,5 --seed r=3": 7,
        "--tag pretzel=1,3,7 --seed r=3": 4,
        "--tag torus_knot=3,5 --seed bs=6": 9,
        "--tag theta_curve --seed bs=6": 6,
        "--seed bs=7": 6,
    }


def test_bounds_narrows_only_where_a_step_offers_an_end(monkeypatch):
    """``_narrow`` calls per distinct ``bounds`` input of the golden corpus.
    A relation x <= c * y + d offers x an upper end only when y has one,
    so a relation whose y is unbounded makes one call, not two: 7 of 45
    calls go on ``torus_knot=3,5``, 45 -> 38."""
    calls = []
    original = bounds._narrow

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(bounds, "_narrow", counting)
    assert _per_bounds_input(calls) == {
        "": 12,
        "--tag torus_knot=3,5": 38,
        "--tag two_bridge": 35,
        "--tag composite --seed b=4": 27,
        "--tag algebraic --seed waist=3": 37,
        "--tag primitive": 15,
        "--tag nontrivial_knot --seed bs=3": 4,
        "--tag pretzel=1,3,7 --tag algebraic": 19,
        "--tag pretzel=-2,3,5": 27,
        "--tag torus_knot=3,5 --seed r=3": 39,
        "--tag pretzel=1,3,7 --seed r=3": 7,
        "--tag torus_knot=3,5 --seed bs=6": 30,
        "--tag theta_curve --seed bs=6": 15,
        "--seed bs=7": 13,
    }


#-- Parse --#

def test_a_valid_call_builds_one_reader_and_never_asks_the_terminal(monkeypatch):
    """A valid call builds one parser, with no ``-h`` action: ``--pretty``
    and the subcommand's own arguments, 2/2/3/2/3 ``add_argument`` calls.
    Its formatter has a fixed width, so ``add_argument``'s metavar check
    never reads the terminal's size; help and errors are the full tree's."""
    built, added, probes = [], [], []
    init, add, size = (argparse.ArgumentParser.__init__,
                       argparse._ActionsContainer.add_argument, shutil.get_terminal_size)

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_add(self, *args, **kwargs):
        added.append(args[0])
        return add(self, *args, **kwargs)

    def counting_size(*args, **kwargs):
        probes.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting_add)
    monkeypatch.setattr(shutil, "get_terminal_size", counting_size)
    found = {}
    for argv in (["generate", "torus:3,5"], ["verify", "torus:3,5"],
                 ["certify", "p.json", "--n", "4"], ["facewidth", "m.json"],
                 ["bounds", "--tag", "two_bridge", "--seed", "b=2"]):
        for counts in (built, added, probes):
            counts.clear()
        _parse(argv)
        found[argv[0]] = (len(built), len(probes), len(added))
    assert found == {"generate": (1, 0, 2), "verify": (1, 0, 2), "certify": (1, 0, 3),
                     "facewidth": (1, 0, 2), "bounds": (1, 0, 3)}
