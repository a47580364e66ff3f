"""End-to-end benchmark of the surfrep command line.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-torus --seed 1 --seconds 15 --trace 0

It drives ``surfrep.cli.main(argv)`` in this process as a closed loop with
one client and no threads: the next call starts when the previous one
has returned and its report has been checked against the benchmark's own
reference.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced passes with traced replays of the same inputs, in
which every public function of the package is wrapped in spans, and
reports per-layer metrics and the tracing overhead.  ``--workload all`` runs each workload in a
fresh process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric by name with its unit, and the run environment.  A
fuller record (and, when traced, every span) is written under
``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path
from typing import Any

from tracer import Tracer, layer_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = BENCH / "out"

#: fresh interpreters started per run for setup_s; the median is reported
SETUP_STARTS = 31
#: the calibration loop's usual time on the machine the bounds were set on
#: (a 2-core Xeon VM); op times are scaled to a machine running at that speed
REFERENCE_CAL_S = 0.0035
#: op times are scaled by the median of the last CAL_WINDOW calibrations,
#: one taken before an op whenever CAL_EVERY_S have passed since the last
CAL_EVERY_S = 0.2
CAL_WINDOW = 5
#: a run keeps going past --seconds until it has this many operations, so
#: that at least ten samples lie beyond the 90th percentile
MIN_SAMPLES = 100

#: times calibrate()'s loop three times, then ``import surfrep.cli``; prints
#: the import time and the middle loop time, so each start carries its own
#: reading of the machine's speed
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "def calibrate():\n"
    "    started = time.perf_counter()\n"
    "    total = 0\n"
    "    for i in range(50_000):\n"
    "        total += i * i\n"
    "    return time.perf_counter() - started\n"
    "loop_s = sorted(calibrate() for _ in range(3))[1]\n"
    "t = time.perf_counter()\n"
    "import surfrep.cli\n"
    "print(time.perf_counter() - t, loop_s)\n"
)

#: layers whose share of op time the traced run checks, with the share
#: each should take on the workload it names
PREDICTIONS = {
    "verify-exactly": ("share.certificate", 0.90),
    "verify-torus": ("share.smoothing.trace_orbits", 0.90),
    "facewidth-grids": ("share.facewidth", 0.95),
}

#: share metrics: time inside the outermost spans of a layer over op time
SHARES = {
    "share.certificate": "certificate.",
    "share.smoothing.trace_orbits": "smoothing.trace_orbits",
    "share.facewidth": "facewidth.",
    "share.bounds": "bounds.",
}

#: per-layer metrics: (metric name, span name, field)
SPAN_METRICS = [
    *(
        (f"certificate.{fn}.{field}", f"certificate.{fn}", field)
        for fn in ("representativity_exact", "min_essential_loop", "min_essential_arc",
                   "certify_pieces")
        for field in ("calls", "total_s", "self_s")
    ),
    ("certificate.evaluate_piece.calls", "certificate.evaluate_piece", "calls"),
    ("certificate.evaluate_piece.total_s", "certificate.evaluate_piece", "total_s"),
    ("smoothing.trace_orbits.calls", "smoothing.trace_orbits", "calls"),
    ("smoothing.trace_orbits.total_s", "smoothing.trace_orbits", "total_s"),
    *(
        (f"smoothing.{fn}.{field}", f"smoothing.{fn}", field)
        for fn in ("trace_components", "cut_pieces")
        for field in ("calls", "total_s", "self_s")
    ),
    ("facewidth.face_width.calls", "facewidth.face_width", "calls"),
    ("facewidth.face_width.self_s", "facewidth.face_width", "self_s"),
    ("facewidth.radial.total_s", "facewidth.radial", "total_s"),
    ("facewidth.cycle_is_contractible.calls", "facewidth.cycle_is_contractible", "calls"),
    ("facewidth.cycle_is_contractible.total_s", "facewidth.cycle_is_contractible", "total_s"),
    ("facewidth.cut_along.calls", "facewidth.cut_along", "calls"),
    ("facewidth.cut_along.total_s", "facewidth.cut_along", "total_s"),
    ("facewidth.RotationSystem.from_json.total_s", "facewidth.RotationSystem.from_json",
     "total_s"),
    ("bounds.propagate.calls", "bounds.propagate", "calls"),
    ("bounds.propagate.total_s", "bounds.propagate", "total_s"),
    ("bounds.SubjectTags.from_strings.total_s", "bounds.SubjectTags.from_strings", "total_s"),
    ("families.parse_family.total_s", "families.parse_family", "total_s"),
    ("families.verify_family.self_s", "families.verify_family", "self_s"),
    ("surface.boundary_count.calls", "surface.boundary_count", "calls"),
    ("surface.boundary_count.total_s", "surface.boundary_count", "total_s"),
    ("cli.main.total_s", "cli.main", "total_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
]


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


#-- Environment --#

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources: names the code under test without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "surfrep").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


#-- Measurement --#

def measure_setup(starts: int) -> tuple[list[float], list[float]]:
    """Seconds a fresh interpreter spends in ``import surfrep.cli``, per start.

    Returns the raw times and the same times scaled like op times, by
    REFERENCE_CAL_S over the loop time the child took just before it
    imported.  One unrecorded start first writes the bytecode cache, as
    any install would.
    """
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(SRC)]
    raw, scaled = [], []
    for k in range(starts + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
        if k:
            import_s, loop_s = map(float, done.stdout.split())
            raw.append(import_s)
            scaled.append(import_s * REFERENCE_CAL_S / loop_s)
    return raw, scaled


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs right now."""
    started = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - started


def call(cli: Any, argv: tuple[str, ...]) -> tuple[Any, str, float]:
    """One closed-loop operation: exit code (or "raised"), stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises is a counted failure
            code = "raised"
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


class Phase:
    """Samples and outcomes of one closed-loop phase.

    ``times`` are the op times as measured; ``scaled`` are the same times
    multiplied by REFERENCE_CAL_S over the calibration loop's time when the
    op ran.  The machine is shared with other tenants and its speed drifts
    by 20% over seconds to minutes; the loop slows down with it, and the
    scaled times cancel most of that drift while the program's own cost
    stays in them.  End-to-end op metrics use the scaled times.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.pass_rates: list[float] = []
        self.calibration: list[float] = []
        self.outcomes: Counter = Counter()
        self.wall_s = 0.0

    @property
    def passes(self) -> int:
        return len(self.pass_rates)

    @property
    def ops_per_s(self) -> float:
        """Median over passes of operations per second of scaled op time.

        Every pass has the same composition, so each pass rate estimates the
        same throughput; the median keeps a burst of load from other
        processes on the machine, which slows one pass, out of the figure.
        """
        return statistics.median(self.pass_rates)


class Speed:
    """The calibration loop's recent time: how fast the machine runs now."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque([calibrate()], maxlen=CAL_WINDOW)
        self.taken = time.perf_counter()

    def current(self) -> float:
        if time.perf_counter() - self.taken >= CAL_EVERY_S:
            self.recent.append(calibrate())
            self.taken = time.perf_counter()
        return statistics.median(self.recent)


def run_pass(phase: Phase, workload: Any, cli: Any, speed: Speed) -> None:
    """One pass of the workload, each operation timed, scaled and checked."""
    ops = workload.next_pass()
    for op in ops:
        loop_s = speed.current()
        code, out, elapsed = call(cli, op.argv)
        phase.times.append(elapsed)
        phase.scaled.append(elapsed * REFERENCE_CAL_S / loop_s)
        phase.calibration.append(loop_s)
        phase.outcomes[workload.classify(op, code, out)] += 1
    phase.pass_rates.append(len(ops) / sum(phase.scaled[-len(ops):]))


def run_phase(workload: Any, cli: Any, seconds: float) -> Phase:
    """Whole passes until ``seconds`` have passed and MIN_SAMPLES ops are done."""
    phase, speed = Phase(), Speed()
    started = time.perf_counter()
    while phase.wall_s < seconds or len(phase.times) < MIN_SAMPLES:
        run_pass(phase, workload, cli, speed)
        phase.wall_s = time.perf_counter() - started
    return phase


def run_traced(factory: Any, seed: int, workdir: Path, cli: Any,
               seconds: float) -> tuple[Phase, Phase, Tracer]:
    """Untraced and traced passes in turn, on the same inputs.

    Two workloads built from one seed give identical passes; alternating
    them pass by pass lets the machine's drift fall on both sides alike,
    so the gap between them is the tracing overhead.
    """
    plain_load, traced_load = factory(seed, workdir), factory(seed, workdir)
    plain, traced, tracer, speed = Phase(), Phase(), Tracer(), Speed()
    started = time.perf_counter()
    while plain.wall_s < seconds or len(plain.times) < MIN_SAMPLES:
        run_pass(plain, plain_load, cli, speed)
        with tracer.installed():
            run_pass(traced, traced_load, cli, speed)
        plain.wall_s = traced.wall_s = time.perf_counter() - started
    return plain, traced, tracer


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_beyond(values: list[float], q: float) -> int:
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


#-- Results --#

def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase, setup: list[float]) -> dict[str, dict[str, Any]]:
    attempted = len(phase.times)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_s.p50": metric(statistics.median(phase.scaled), "s"),
        "op_s.p90": metric(percentile(phase.scaled, 90), "s"),
        "ops_per_s": metric(phase.ops_per_s, "1/s"),
        "ok_share": metric(phase.outcomes["ok"] / attempted, "share"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer: Tracer, plain: Phase, traced: Phase) -> dict[str, dict[str, Any]]:
    """Per-layer metrics of a traced run, each a cost per traced operation.

    The traced run repeats whole passes until its time is up, so sums over
    the run grow with the number of passes that fit; divided by the number
    of traced operations they do not, since every pass has the same
    composition.
    """
    summary = tracer.summary()
    ops = len(traced.times)
    out = {}
    for name, span, field in SPAN_METRICS:
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[name] = metric(row[field] / ops, "count/op" if field == "calls" else "s/op")
    counts = tracer.counts
    for name in ("smoothing.trace_orbits.states", "smoothing.trace_orbits.orbits",
                 "bounds.contradictions"):
        out[name] = metric(counts[name] / ops, "count/op")
    cuts = summary.get("facewidth.cycle_is_contractible", {}).get("calls", 0)
    widths = summary.get("facewidth.face_width", {}).get("calls", 0)
    out["facewidth.cut_yield"] = metric(widths / cuts if cuts else 0.0, "share")
    certificate_calls = sum(
        row["calls"] for name, row in summary.items() if name.startswith("certificate.")
    )
    out["certificate.calls"] = metric(certificate_calls / ops, "count/op")
    op_time = summary.get("cli.main", {}).get("total_s", 0.0)
    for name, prefix in SHARES.items():
        share = layer_time(tracer.spans, prefix) / op_time if op_time else 0.0
        out[name] = metric(share, "share")
    out["trace.ops_per_s.untraced"] = metric(plain.ops_per_s, "1/s")
    out["trace.ops_per_s.traced"] = metric(traced.ops_per_s, "1/s")
    out["trace.overhead_share"] = metric(1 - traced.ops_per_s / plain.ops_per_s, "share")
    out["trace.spans"] = metric(len(tracer.spans) / ops, "count/op")
    return out


def print_metrics(metrics: dict[str, dict[str, Any]]) -> None:
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "surfrep" / "__init__.py").is_file():
        return fail(f"no package sources at {SRC / 'surfrep'}")
    if not (TESTS / "oracles.py").is_file():
        return fail(f"no reference oracles at {TESTS / 'oracles.py'}")
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = environment(args)
    raw_setup, setup = ([], []) if args.trace else measure_setup(SETUP_STARTS)

    import surfrep.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "surfrep").resolve():
        return fail(f"imported surfrep from {cli.__file__}, not from {SRC}")
    factory = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            plain, traced, tracer = run_traced(factory, args.seed, workdir, cli, args.seconds)
            metrics = per_layer(tracer, plain, traced)
            phases = [plain, traced]
        else:
            phase = run_phase(factory(args.seed, workdir), cli, args.seconds)
            metrics = end_to_end(phase, setup)
            phases = [phase]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = sum((p.outcomes for p in phases), Counter())
    attempted = sum(len(p.times) for p in phases)
    failed = attempted - outcomes["ok"]
    last = phases[-1]
    env.update({
        "samples": len(last.times),
        "passes": last.passes,
        "wall_s": last.wall_s,
        "samples_beyond_p90": tail_beyond(last.times, 90),
        "calibration_s": statistics.median(last.calibration),
        "raw_op_s.p50": statistics.median(last.times),
        "raw_op_s.p90": percentile(last.times, 90),
        "raw_ops_per_s": len(last.times) / sum(last.times),
        "setup_starts": len(setup),
        "raw_setup_s": statistics.median(raw_setup) if raw_setup else None,
        "outcomes": dict(outcomes),
    })
    result = {
        "correct": outcomes["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, **result}, indent=1))
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
        if args.workload in PREDICTIONS:
            name, predicted = PREDICTIONS[args.workload]
            share = metrics[name]["value"]
            verdict = "met" if share >= predicted else "NOT met"
            print(f"prediction: {SHARES[name]}* takes >= {predicted:.0%} of op time; "
                  f"measured {share:.1%}: {verdict}")
    print_metrics(metrics)
    print(f"{'failed_share':44s} {failed / attempted:.6g} share")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one at a time."""
    sys.path.insert(0, str(TESTS))
    from workloads import WORKLOADS

    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return fail(f"workload {name} exited {done.returncode}")
        lines = done.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="verify-exactly, verify-torus, facewidth-grids, cli-mix or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
