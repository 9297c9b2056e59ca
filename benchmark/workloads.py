"""The three workloads.

Each workload is built from the program's modules (``fh``, a dict of the
freshly imported ``freiheit`` submodules by short name), the run's seed and a
scratch directory. ``warm_up`` makes one call of each entry point the
workload times, on inputs that do not depend on the seed, so that set-up
time does not vary with it; ``round`` is the timed unit and returns
(attempted, failed) operations; ``check_round`` and ``finish`` check the
outputs against ``bench_oracles`` outside the timed region and append what
is wrong to ``faults``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from collections import Counter
from pathlib import Path

import bench_oracles as oracles

PINS = Path(__file__).resolve().parent / "pins.json"
# A sweep cell whose collapse count has a two-sided binomial tail below this
# fails its check: with 8 cells a run, a false alarm takes ~60,000 runs.
ALPHA = 1e-6


def derive_seed(seed: int, *path) -> int:
    """An independent 63-bit seed per (run seed, path)."""
    text = repr((seed,) + path).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") >> 1


class Sweep:
    """The transition sweep as users run it: ``freiheit experiments sweep``
    through ``cli.dispatch``, on the top-level README's grid and on
    criterion 08's grid. One op is one trial; a round is one trial per cell
    of both grids."""

    name = "sweep"
    trace_rounds = 8
    GRIDS = {
        "readme": {"m": 3, "r": 2, "lengths": [12, 20], "densities": [0.15, 0.45]},
        "crit08": {"m": 2, "r": 1, "lengths": [12], "densities": [0.3, 0.45, 0.6, 0.75]},
    }
    TRIALS = 1

    def __init__(self, fh, seed: int, workdir: Path):
        self.fh = fh
        self.seed = seed
        self.workdir = workdir
        self.faults: list[str] = []
        self.configs = {}
        for key, grid in self.GRIDS.items():
            config = dict(grid, trials=self.TRIALS, model="bernoulli", seed=0,
                          budgets={"materialize_limit": 50_000})
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(config))
            self.configs[key] = (config, path)
        self.cells = sum(len(c["lengths"]) * len(c["densities"])
                         for c, _ in self.configs.values())
        self.tally: dict[tuple, list[int]] = {}  # cell -> [collapses, trials]
        self.outputs: list[tuple[str, int, Path]] = []

    def _sweep(self, key: str, seed: int, out: Path) -> int:
        _, config_path = self.configs[key]
        return self.fh["cli"].dispatch(["--seed", str(seed), "--out", str(out),
                                        "experiments", "sweep", "--config", str(config_path)])

    def warm_up(self) -> None:
        for key in self.configs:
            self._sweep(key, derive_seed(0, "warm-up", key),
                        self.workdir / f"warm-{key}.csv")

    def round(self, i: int) -> tuple[int, int]:
        failed = 0
        for key, (config, _) in self.configs.items():
            seed = derive_seed(self.seed, "round", i, key)
            out = self.workdir / f"round{i}-{key}.csv"
            cells = len(config["lengths"]) * len(config["densities"])
            if self._sweep(key, seed, out) != 0:
                failed += cells * self.TRIALS
            else:
                self.outputs.append((key, seed, out))
        return self.cells * self.TRIALS, failed

    def check_round(self, i: int) -> None:
        for key, seed, out in self.outputs:
            config, _ = self.configs[key]
            text = out.read_text()
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            if manifest["output_sha256"] != hashlib.sha256(text.encode()).hexdigest():
                self.faults.append(f"{out.name}: manifest digest does not match the CSV")
            rows = list(csv.DictReader(text.splitlines()))
            grid = [(l, d) for l in config["lengths"] for d in config["densities"]]
            if [(int(row["l"]), float(row["d"])) for row in rows] != grid:
                self.faults.append(f"{out.name}: rows do not follow the grid {grid}")
                continue
            for row in rows:
                if (int(row["m"]), int(row["r"]), int(row["trials"]), int(row["seed"])) != \
                        (config["m"], config["r"], config["trials"], seed):
                    self.faults.append(f"{out.name}: row {row} does not echo its config")
                cell = (config["m"], config["r"], int(row["l"]), float(row["d"]))
                tally = self.tally.setdefault(cell, [0, 0])
                tally[0] += round(float(row["collapse_freq"]) * config["trials"])
                tally[1] += config["trials"]
            for path in (out, Path(str(out) + ".manifest.json")):
                os.remove(path)
        self.outputs.clear()

    def finish(self) -> None:
        for (m, r, maxlen, d), (hits, trials) in sorted(self.tally.items()):
            p = oracles.collapse_probability(m, r, maxlen, d)
            tail = oracles.binomial_tail(hits, trials, p)
            if tail < ALPHA:
                self.faults.append(
                    f"cell m={m} r={r} l={maxlen} d={d}: {hits}/{trials} collapses, "
                    f"expected rate {p:.4g} (binomial tail {tail:.3g})")


class Freeness:
    """Low-density presentations (m=3, r=2, below d_2 ~ 0.317) probed with
    ``experiments.freeness_probe`` on the wedge of x1 and x2. One op is one
    presentation sampled and probed; a round is one presentation per density."""

    name = "freeness"
    trace_rounds = 30
    M, R, MAXLEN = 3, 2, 8
    DENSITIES = (0.1, 0.2)
    BUDGET = {"word_length": 4, "max_steps": 30, "max_states": 400}
    CLASSES = oracles.rotation_classes(R, BUDGET["word_length"])

    def __init__(self, fh, seed: int, workdir: Path):
        self.fh = fh
        self.seed = seed
        self.faults: list[str] = []
        word = fh["words"].Word
        self.graph = fh["stallings"].wedge_of_words([word((i,)) for i in range(1, self.R + 1)])
        self.models = [fh["density"].DensityModel("bernoulli", d, 0) for d in self.DENSITIES]
        self.outputs: list = []

    def _probe(self, model, rng):
        relators = self.fh["density"].sample_relator_set(self.M, self.MAXLEN, model, rng)
        return relators, self.fh["experiments"].freeness_probe(relators, self.graph,
                                                                dict(self.BUDGET))

    def warm_up(self) -> None:
        self._probe(self.models[0], random.Random(derive_seed(0, "warm-up")))

    def round(self, i: int) -> tuple[int, int]:
        for model in self.models:
            rng = random.Random(derive_seed(self.seed, "round", i, model.d))
            self.outputs.append(self._probe(model, rng))
        return len(self.models), 0

    def check_round(self, i: int) -> None:
        for relators, report in self.outputs:
            words = [rel.letters for rel in relators.relators]
            if len(set(words)) != len(words) or not all(
                    oracles.is_cyclically_reduced(w) and len(w) <= self.MAXLEN
                    and max(map(abs, w)) <= self.M for w in words):
                self.faults.append(f"round {i}: sampled relators {words} are not in B_l")
            if report.collapse_found:
                loop = report.collapse_word.letters
                if not (report.verdict.status == "trivial"
                        and all(abs(x) <= self.R for x in loop)
                        and oracles.replay_rewrites(words, loop, report.verdict.witness)):
                    self.faults.append(f"round {i}: collapse of {loop} does not replay")
            elif report.words_checked != self.CLASSES:
                self.faults.append(f"round {i}: {report.words_checked} loop words checked, "
                                   f"{self.CLASSES} rotation classes exist")
            if not 0 <= report.budget_exhausted_words <= report.words_checked:
                self.faults.append(f"round {i}: exhausted count out of range")
        self.outputs.clear()

    def finish(self) -> None:
        pass


class Diagrams:
    """The certification side: abstract distortion diagrams with their
    fillings, letter classes and filling bounds, and disk diagrams over a
    fixed relator set. Inputs do not depend on the seed. One op is one
    diagram instance processed; see README.md for the round's make-up."""

    name = "diagrams"
    trace_rounds = 5
    ABSTRACT_FACES, ABSTRACT_LENGTH = 2, 4
    FILLED_LENGTH = 3  # fillings and bounds only for faces this short
    DISK_RELATORS = ((1, 1, 2), (2, 2, 1), (1, 2, -1, -2), (1, 1, -2, -2))
    DISK_FACES = 3

    def __init__(self, fh, seed: int, workdir: Path):
        self.fh = fh
        self.faults: list[str] = []
        graph = fh["stallings"].LabeledGraph
        # The loop reads powers of x1 (r = 1); the figure eight reads every
        # word over x1, x2 (r = 2).
        self.graphs = ((graph(1, [(0, 0, 1)]), 1), (graph(1, [(0, 0, 1), (0, 0, 2)]), 2))
        word = fh["words"].Word
        self.relators = fh["density"].make_relator_set(
            2, 4, [word(w) for w in self.DISK_RELATORS])
        self.out = None

    def warm_up(self) -> None:
        ad = self.fh["abstract_diagrams"]
        rep = ad.enumerate_abstract_diagrams(1, 2).representatives[0]
        self._certify(rep, {})
        for _ in self.fh["diagrams"].enumerate_reduced_disk_diagrams(self.relators, 1):
            pass

    def _certify(self, rep, memo) -> tuple[int, int, list]:
        """Fillings of one representative, and for each choice of p and each
        graph the readable-filling count against ``filling_bound_exact``."""
        ad = self.fh["abstract_diagrams"]
        is_readable = self.fh["stallings"].is_readable
        fillings = ad.fillings_with_boundary(rep, 2)
        doubled = [(b + b, mult) for b, mult in Counter(b for _, b in fillings).items()]
        n = rep.boundary_length()
        results = []
        for p_len in range(n + 1):
            for p_start in range(n if p_len else 1):
                add = ad.AbstractDistortionDiagram(rep, p_start, p_len)
                for graph, r in self.graphs:
                    # filling_bound_exact classifies the letters of (D, p).
                    bound = ad.filling_bound_exact(add, 2, r, graph.num_edges)
                    count = 0
                    for boundary, mult in doubled:
                        key = (r, boundary[p_start:p_start + p_len])
                        if key not in memo:
                            memo[key] = is_readable(graph, key[1])
                        count += mult * memo[key]
                    results.append((count, bound))
        return len(fillings), len(results), results

    def round(self, i: int) -> tuple[int, int]:
        ad = self.fh["abstract_diagrams"]
        enum = ad.enumerate_abstract_diagrams(self.ABSTRACT_FACES, self.ABSTRACT_LENGTH)
        short = [rep for rep in enum.representatives
                 if rep.max_length() <= self.FILLED_LENGTH]
        memo: dict = {}
        fillings = instances = 0
        bounds = []
        for rep in short:
            f, k, results = self._certify(rep, memo)
            fillings += f
            instances += k
            bounds += results
        disks = list(self.fh["diagrams"].enumerate_reduced_disk_diagrams(
            self.relators, self.DISK_FACES))
        self.out = (enum, short, fillings, bounds, disks)
        return len(enum.representatives) + len(short) + instances + len(disks), 0

    def counts(self) -> dict:
        """The counts of the last round that only a pinned copy can check."""
        enum, short, fillings, bounds, disks = self.out
        return {"iso_count": enum.iso_count, "labeled_count": enum.labeled_count,
                "representatives": len(enum.representatives),
                "filled_representatives": len(short), "fillings": fillings,
                "readable_fillings_loop": sum(c for c, _ in bounds[0::2]),
                "readable_fillings_figure_eight": sum(c for c, _ in bounds[1::2]),
                "disk_diagrams": len(disks)}

    def check_round(self, i: int) -> None:
        enum, short, fillings, bounds, disks = self.out
        pins = json.loads(PINS.read_text())
        for key, value in self.counts().items():
            if pins.get(key) != value:
                self.faults.append(f"{key} = {value}, pinned {pins.get(key)}")
        over = [(c, b) for c, b in bounds if c > b]
        if over:
            self.faults.append(f"{len(over)} readable-filling counts exceed the bound")
        words = [rel.letters for rel in self.relators.relators]
        if sorted(words) != sorted(self.DISK_RELATORS):
            self.faults.append(f"the disk relator set is {words}")
        for d in disks:
            c = d.complex
            fault = oracles.disk_diagram_fault(c.num_vertices, c.dart_vertex, c.faces,
                                               c.outer, d.dart_labels, d.face_labels, words)
            if fault:
                self.faults.append(f"disk diagram: {fault}")
                break
        self.out = None

    def finish(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Sweep, Freeness, Diagrams)}
