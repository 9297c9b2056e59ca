"""Benchmark of freiheit: one workload per run, in one process, jobs=1.

    python3 benchmark/run.py --workload sweep|freeness|diagrams \
        --seed N --seconds S --trace 0|1

Imports the program from ``src/`` of the checkout this file sits in. Sets
up SETUPS times (fresh import and warm-up each time; ``setup_s`` is their
median), then repeats whole rounds of the workload for ``--seconds``,
checking each round's outputs between rounds, outside the timed sum. Times
are scaled to a fixed machine speed: reference computations that use none of
the program's code are timed between set-ups and between rounds, and each
set-up or round time is multiplied by the machine's speed around it. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics (end-to-end with
``--trace 0``; per-layer with ``--trace 1``, over the last warm-up and a
fixed number of rounds, so that counts repeat for a fixed seed).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench_oracles as oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
MODULES = ("words", "density", "stallings", "complexes", "diagrams",
           "abstract_diagrams", "experiments", "cli")

# (layer, module, attribute, work counters taken from each call's result).
# The layers of map_code and face_permutation count calls only, so that
# canonical_map_code's self time is the whole of the canonical code.
TRACED = (
    ("words.unrank", "words", "_WordTables.unrank", None),
    ("words.min_cyclic_rotation", "words", "min_cyclic_rotation", None),
    ("words.word_tables", "words", "word_tables", None),
    ("density.sample_relator_set", "density", "sample_relator_set",
     lambda relators: {"words": len(relators)}),
    ("experiments.run_trial", "experiments", "run_trial", None),
    ("experiments.count_collapse_class", "experiments", "count_collapse_class", None),
    ("experiments.count_triviality_pairs", "experiments", "count_triviality_pairs", None),
    ("experiments.collapse_probe", "experiments", "collapse_probe", None),
    ("experiments.triviality_probe", "experiments", "triviality_probe", None),
    ("experiments.freeness_probe", "experiments", "freeness_probe",
     lambda report: {"checked": report.words_checked,
                     "exhausted": report.budget_exhausted_words}),
    ("diagrams.bounded_triviality", "diagrams", "bounded_triviality",
     lambda verdict: {"steps": verdict.steps_used}),
    ("diagrams.enumerate_reduced_disk_diagrams", "diagrams",
     "enumerate_reduced_disk_diagrams", None),
    ("diagrams.is_reduced", "diagrams", "is_reduced", None),
    ("complexes.canonical_map_code", "complexes", "canonical_map_code", None),
    ("complexes.map_code", "complexes", "map_code", None, False),
    ("complexes.face_permutation", "complexes", "face_permutation", None, False),
    ("abstract_diagrams.enumerate_abstract_diagrams", "abstract_diagrams",
     "enumerate_abstract_diagrams", None),
    ("abstract_diagrams.fillings_with_boundary", "abstract_diagrams",
     "fillings_with_boundary", None),
    ("abstract_diagrams.classify", "abstract_diagrams", "classify", None),
    ("abstract_diagrams.filling_bound_exact", "abstract_diagrams", "filling_bound_exact", None),
    ("stallings.iter_reduced_loops", "stallings", "iter_reduced_loops", None),
    ("stallings.is_readable", "stallings", "is_readable", None),
    ("cli.dispatch", "cli", "dispatch", None),
)

# The per-layer metrics as BENCHMARK.json names them: ``<layer>.calls`` and
# ``<layer>.self_s`` are read off the layer, the ratios are derived.
PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def import_freiheit() -> dict:
    """A fresh import of the program, so that every setup builds its lazy
    tables again."""
    for name in [n for n in sys.modules if n.split(".")[0] == "freiheit"]:
        del sys.modules[name]
    package = importlib.import_module("freiheit")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "freiheit":
        raise ImportError(f"freiheit imported from {package.__file__}, not from {ROOT / 'src'}")
    return {name: importlib.import_module(f"freiheit.{name}") for name in MODULES}


# The machine's speed is measured by two reference computations that use none
# of the program's code: a breadth-first search over cyclically reduced words
# (tuples, sets and lists of the program's kind, about 1 MB of them) and an
# integer loop that touches no memory. On a shared host the speed of fixed
# work changes by up to a factor of two within minutes, with no steal time to
# show for it, and the program slows less than the search and more than the
# loop; the geometric mean of their two rates tracked it best (README.md).
SEARCH_STATES = 5000
# Their rates on a quiet 2-vCPU VM, in units per second: scaled figures read
# as seconds on that VM.
SEARCH_RATE = 40.0
LOOP_RATE = 450.0


def search_unit() -> int:
    frontier = [(1,), (2,)]
    states = set(frontier)
    while frontier and len(states) < SEARCH_STATES:
        grown = []
        for state in frontier:
            for x in (-3, -2, -1, 1, 2, 3):
                word = oracles.cyclic_core(state + (x,))
                if word not in states:
                    states.add(word)
                    grown.append(word)
        frontier = grown
    return len(states)


def loop_unit() -> int:
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def rate(unit, seconds: float) -> float:
    n, t0 = 0, perf_counter()
    while True:
        unit()
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


def machine_speed(seconds: float = 0.05) -> float:
    """The machine's speed at this moment relative to the quiet VM, from
    about ``seconds`` of reference work. The cyclic garbage collector is off
    meanwhile, so that the speed does not depend on how many objects the
    program holds."""
    gc.disable()
    try:
        return math.sqrt(rate(search_unit, seconds / 2) / SEARCH_RATE
                         * rate(loop_unit, seconds / 2) / LOOP_RATE)
    finally:
        gc.enable()


def per_layer(layers: dict) -> dict:
    """Per-layer metrics; a ratio over no work reads 0."""
    def ratio(a, b):
        return a / b if b else 0.0

    sample = layers["density.sample_relator_set"]
    probe = layers["experiments.freeness_probe"].work
    trivial = layers["diagrams.bounded_triviality"]
    derived = {
        "density.sample_relator_set.words_per_s":
            (ratio(sample.work["words"], sample.total_s), "words/s"),
        "experiments.freeness_probe.decided_ratio":
            (ratio(probe["checked"] - probe["exhausted"], probe["checked"]), "ratio"),
        "diagrams.bounded_triviality.steps_per_s":
            (ratio(trivial.work["steps"], trivial.self_s), "steps/s"),
    }
    metrics = {}
    for spec in PER_LAYER:
        name = spec["name"]
        if name in derived:
            metrics[name] = derived[name]
        else:
            layer, field = name.rsplit(".", 1)
            metrics[name] = (getattr(layers[layer], field), spec["unit"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]

    import_freiheit()  # fails here, before anything is written, without src/
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_times = []  # scaled, as are all times below
        tracer = None
        for i in range(SETUPS):
            workload = fh = None
            gc.collect()
            before = machine_speed()
            t0 = perf_counter()
            fh = import_freiheit()
            if args.trace and i == SETUPS - 1:
                tracer = Tracer()
                loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "freiheit"}
                for name, module, attr, work, *timed in TRACED:
                    tracer.install(loaded, name, f"freiheit.{module}", attr, work, *timed)
            workload = cls(fh, args.seed, workdir)
            workload.warm_up()
            elapsed = perf_counter() - t0
            setup_times.append(elapsed * (before + machine_speed()) / 2)

        attempted = failed = rounds = 0
        wall = scaled = 0.0
        speeds = [machine_speed()]
        start = perf_counter()
        while (rounds < cls.trace_rounds) if args.trace \
                else (not rounds or perf_counter() - start < args.seconds):
            t0 = perf_counter()
            ops, lost = workload.round(rounds)
            elapsed = perf_counter() - t0
            speeds.append(machine_speed())
            wall += elapsed
            scaled += elapsed * (speeds[-2] + speeds[-1]) / 2
            attempted += ops
            failed += lost
            workload.check_round(rounds)
            rounds += 1
        workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for fault in dict.fromkeys(workload.faults):
        print(f"check failed: {fault}", file=sys.stderr)
    setups = ", ".join(f"{t:.3f}" for t in setup_times)
    print(f"# {args.workload}: {rounds} rounds, {attempted} ops in {wall:.3f} s "
          f"({attempted / wall:.4g} ops/s unscaled); scaled set-ups {setups} s; "
          f"machine speed median {statistics.median(speeds):.3f} "
          f"(range {min(speeds):.3f} to {max(speeds):.3f})")
    if args.trace:
        metrics = per_layer(tracer.layers)
    else:
        metrics = {
            "ops_per_s": (attempted / scaled, "ops/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({
        "correct": not workload.faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
