"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest -q bench``.  It
checks that the benchmark's references agree with the oracles in
``tests/oracles.py`` and with values the test suite already pins, that
traced spans nest and have non-negative self times, that an untraced run
records no spans, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import inspect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _path in (ROOT / "src", ROOT / "tests", BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import surfrep.cli as cli  # noqa: E402
from oracles import enumerated_face_width, necklace_arc_min, necklace_loop_min  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import METHODS, Tracer, child_cover  # noqa: E402

TINY = {
    "verify-exactly": lambda seed, d: wl.VerifyExactly(seed, d, max_genus=3, max_n=7, max_lpq=2),
    "verify-torus": lambda seed, d: wl.VerifyTorus(seed, d, lo=3, hi=12, strata=3),
    "facewidth-grids": lambda seed, d: wl.FacewidthGrids(seed, d, max_side=4),
    "cli-mix": lambda seed, d: wl.CliMix(seed, d, files=3, counts=(6, 6, 3)),
}


def tiny_phase(name, tmp_path, seed=3):
    phase = run.Phase()
    run.run_pass(phase, TINY[name](seed, tmp_path), cli, run.Speed())
    return phase


def test_grid_references_match_oracle_and_known_widths():
    # the test suite pins grid 3 -> 3 and grid 4 -> 4
    for r, c, known in ((3, 3, 3), (4, 4, 4), (3, 4, 3)):
        m = wl.grid_map(r, c, random.Random(r * 10 + c))
        assert min(r, c) == known
        assert enumerated_face_width(m["rotations"], m["edges"], 2 * known) == known


def test_certify_references_are_the_oracles_and_levels_split():
    rng = random.Random(5)
    for t in range(8):
        piece = wl.necklace_piece(rng, f"P{t}", t)
        k = piece["circles"]
        arcs = [(e["a"], e["b"], e["mult"]) for e in piece["arcs"]]
        loop, arc = wl.piece_minima(piece)
        assert loop == necklace_loop_min(k, arcs)
        assert arc == min(necklace_arc_min(k, arcs, b) for b in range(k))
        score = min(loop, 2 * arc)
        assert wl.certify_checks([piece], [(loop, arc)], score)[1] is True
        assert wl.certify_checks([piece], [(loop, arc)], score + 1)[1] is False


def test_closed_forms_match_known_values():
    torus = wl.verify_reference("torus", 3, 5)
    assert torus["smoothed components"] == 1 and torus["crossing upper bound"] == 3
    exactly = wl.verify_reference("exactly", 4, 2)
    assert exactly["certified representativity"] == 4
    assert (exactly["count m0"], exactly["count l1"], exactly["count l2"]) == (4, 9, 6)
    # fixed points pinned by tests/test_bounds.py
    assert wl.bounds_display(3, 3) == {
        "r": "[3, 3]", "b": "[3, 3]", "bs": "[6, 6]", "waist": "[0, 2]",
        "beta1": "[0, inf)", "components": "[0, inf)",
    }
    assert wl.bounds_display(2, 4)["bs"] == "[8, 8]"
    assert wl.bounds_display(2, None)["b"] == "[2, inf)"


def test_every_workload_matches_its_references(tmp_path):
    for name in TINY:
        phase = tiny_phase(name, tmp_path)
        assert phase.outcomes[wl.WRONG] == 0, name
        if name != "verify-exactly":
            assert phase.outcomes[wl.KNOWN] == 0, name


def test_known_failures_are_exactly_odd_n_at_genus_two_and_up(tmp_path):
    workload = TINY["verify-exactly"](1, tmp_path)
    ops = workload.next_pass()
    odd = sum(1 for op in ops if op.argv[1].startswith("exactly:")
              and int(op.argv[1][8:].split(",")[0]) % 2 == 1
              and int(op.argv[1].split(",")[1]) >= 2)
    phase = tiny_phase("verify-exactly", tmp_path, seed=1)
    assert odd > 0
    assert phase.outcomes[wl.KNOWN] == odd
    assert phase.outcomes[wl.OK] == len(ops) - odd


def test_same_seed_same_inputs(tmp_path):
    for name in ("verify-exactly", "verify-torus", "cli-mix"):
        a = [op.argv for op in TINY[name](7, tmp_path).next_pass()]
        b = [op.argv for op in TINY[name](7, tmp_path).next_pass()]
        assert a == b


def test_spans_nest_with_nonnegative_self_time(tmp_path):
    original = cli.main
    tracer = Tracer()
    with tracer.installed():
        assert cli.main is not original
        for name in TINY:
            tiny_phase(name, tmp_path, seed=2)
    assert cli.main is original
    spans = tracer.spans
    assert spans
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    cover = child_cover(spans)
    assert all((s[2] - s[1]) - c >= 0 for s, c in zip(spans, cover))
    summary = tracer.summary()
    assert all(row["self_s"] >= 0 for row in summary.values())
    # calls made inside the package are caught, not only those from the CLI
    assert summary["certificate.evaluate_piece"]["calls"] > 0
    assert summary["smoothing.trace_orbits"]["calls"] > 0
    assert summary["facewidth.cut_along"]["calls"] > 0
    assert tracer.counts["bounds.contradictions"] > 0


def package_bindings():
    """Every callable bound in a surfrep module namespace or traced method slot."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "surfrep" or name.startswith("surfrep."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    for short, cls_name, attr in METHODS.values():
        cls = getattr(sys.modules[f"surfrep.{short}"], cls_name)
        out[(short, cls_name, attr)] = inspect.getattr_static(cls, attr)
    return out


def test_untraced_run_records_no_spans(tmp_path):
    before = package_bindings()
    tracer = Tracer()
    with tracer.installed():
        assert package_bindings() != before
        tiny_phase("cli-mix", tmp_path)
    # leaving the block binds the original functions again everywhere
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans, counts = len(tracer.spans), dict(tracer.counts)
    assert spans > 0
    for name in TINY:
        tiny_phase(name, tmp_path)
    assert len(tracer.spans) == spans and dict(tracer.counts) == counts


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = tiny_phase("cli-mix", tmp_path)
    e2e = run.end_to_end(plain, [0.05])
    assert [(k, v["unit"]) for k, v in e2e.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    plain, traced, tracer = run.run_traced(TINY["cli-mix"], 4, tmp_path, cli, 0)
    assert plain.times and len(plain.times) == len(traced.times)
    assert plain.outcomes == traced.outcomes
    layer = run.per_layer(tracer, plain, traced)
    assert [(k, v["unit"]) for k, v in layer.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]


def test_percentile_has_ten_samples_beyond_at_the_minimum_count():
    values = [float(v) for v in range(run.MIN_SAMPLES)]
    assert run.tail_beyond(values, 90) >= 10
    assert run.percentile(values, 50) == 49.0
