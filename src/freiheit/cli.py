"""Command-line entry point.

Exit codes: 0 success, 1 domain error or unreadable file, 2 usage error,
3 feasibility guard.
Every file written via --out gets a sibling ``<out>.manifest.json`` with the
command, argument vector, master seed, version, input digests and the output
digest; re-running the recorded command reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .density import (MODEL_KINDS, DensityModel, intersection_experiment,
                      make_relator_set, sample_relator_set)
from .diagrams import (diagram_to_json, enumerate_reduced_disk_diagrams,
                       certify_bilipschitz)
from .abstract_diagrams import (abstract_from_json, classify, count_inequalities,
                                elementary_segments, enumerate_fillings,
                                filling_bound)
from .errors import DomainError, FeasibilityError
from .experiments import (SweepBudgets, TransitionConfig,
                          critical_density, fillability_bound,
                          fillability_crossover, run_trial, transition_sweep,
                          SWEEP_COLUMNS)
from .seeds import rng_for
from .stallings import (enumerate_reduced_graphs, fold, graph_from_text,
                        graph_to_text, readable_words)
from .words import (enumerate_cyclically_reduced, sample_cyclically_reduced,
                    word_from_text, word_to_text)


def _seed(args) -> int:
    if args.seed is None:
        args.seed = 0
    return args.seed


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _sha256_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_relators(path: str, m: int | None = None):
    lines = [line.strip() for line in Path(path).read_text().splitlines()]
    words = [word_from_text(line) for line in lines if line and not line.startswith("#")]
    inferred = max((max(abs(x) for x in w.letters) for w in words if w.letters),
                   default=2)
    maxlen = max((len(w) for w in words), default=1)
    if m is not None and m < 2:
        raise DomainError(f"need m >= 2, got m={m}")
    return make_relator_set(max(2, inferred) if m is None else m, maxlen, words)


def _lines(items: Iterable[str]) -> Iterator[str]:
    """The items as newline-terminated lines, joined 4,096 to a chunk."""
    items = iter(items)
    while chunk := "".join(item + "\n" for item in islice(items, 4096)):
        yield chunk


def _emit(args, text: str | Iterable[str], inputs: list[str]) -> None:
    """Write the output, whole or as an iterable of chunks, to stdout or to
    ``--out`` with its manifest; chunks are written and hashed as they come."""
    chunks = iter((text,) if isinstance(text, str) else text)
    out = getattr(args, "out", None)
    if out is None:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    started = getattr(args, "_started", time.time())
    # Read the first chunk before opening the file, so that a command that
    # fails at its start (a feasibility guard) leaves no file behind.
    chunks = chain((next(chunks, ""),), chunks)
    digest = hashlib.sha256()
    with open(out, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk.encode())
    manifest = {
        "command": args._command,
        "argv": args._argv,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {path: _sha256_file(path) for path in inputs},
        "output": out,
        "output_sha256": digest.hexdigest(),
        "started_at": started,
        "finished_at": time.time(),
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_words_enumerate(args) -> int:
    words = enumerate_cyclically_reduced(args.m, args.maxlen)
    _emit(args, _lines(map(word_to_text, words)), [])
    return 0


def _cmd_words_sample(args) -> int:
    if args.count < 0:
        raise DomainError(f"need count >= 0, got count={args.count}")
    rng = rng_for(_seed(args), "words-sample")
    words = (sample_cyclically_reduced(args.m, args.maxlen, rng) for _ in range(args.count))
    _emit(args, _lines(map(word_to_text, words)), [])
    return 0


def _cmd_density_sample(args) -> int:
    model = DensityModel(args.model, args.d, _seed(args))
    relators = sample_relator_set(args.m, args.maxlen, model,
                                  rng_for(_seed(args), "density-sample"))
    lines = [word_to_text(w) for w in relators.relators]
    header = f"# model={args.model} d={args.d} m={args.m} maxlen={args.maxlen} size={len(relators)}\n"
    _emit(args, header + "\n".join(lines) + ("\n" if lines else ""), [])
    return 0


def _cmd_density_intersect(args) -> int:
    rows = intersection_experiment(args.da, args.db, args.m, args.lengths,
                                   args.trials, _seed(args), args.model)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["l", "d_A", "d_B", "trial", "size_A", "size_B",
                     "size_intersection", "density_estimate"])
    writer.writerows([row.maxlen, row.d_a, row.d_b, row.trial, row.size_a, row.size_b,
                      row.size_intersection, row.density_est] for row in rows)
    _emit(args, buf.getvalue(), [])
    return 0


def _cmd_stallings_fold(args) -> int:
    g = graph_from_text(Path(getattr(args, "in")).read_text())
    _emit(args, graph_to_text(fold(g)), [getattr(args, "in")])
    return 0


def _cmd_stallings_readable(args) -> int:
    g = graph_from_text(Path(getattr(args, "in")).read_text())
    counts = readable_words(g, args.L)
    _emit(args, json.dumps({"length": args.L, "paths": counts.paths,
                            "words": counts.words}) + "\n", [getattr(args, "in")])
    return 0


def _cmd_stallings_enumerate(args) -> int:
    blocks = [graph_to_text(g)
              for g in enumerate_reduced_graphs(args.m, args.max_edges, args.max_betti)]
    _emit(args, "\n".join(blocks), [])
    return 0


def _cmd_diagrams_enumerate(args) -> int:
    if args.K < 1:
        raise DomainError(f"need K >= 1, got K={args.K}")
    relators = _read_relators(args.relators, args.m)
    out = [json.loads(diagram_to_json(d))
           for d in enumerate_reduced_disk_diagrams(relators, args.K)]
    _emit(args, json.dumps({"count": len(out), "relators":
                            [word_to_text(w) for w in relators.relators],
                            "diagrams": out}, indent=1) + "\n", [args.relators])
    return 0


def _cmd_diagrams_certify(args) -> int:
    relators = _read_relators(args.relators, args.m)
    graph = graph_from_text(Path(args.graph).read_text())
    report = certify_bilipschitz(relators, graph, args.K, args.lam)
    _emit(args, json.dumps({
        "holds": report.holds, "lambda": report.lam,
        "threshold": report.threshold, "max_ratio": report.max_ratio,
        "diagrams_checked": report.diagrams_checked}, indent=1) + "\n",
        [args.relators, args.graph])
    return 0


def _cmd_abstract_classify(args) -> int:
    add = abstract_from_json(Path(getattr(args, "in")).read_text())
    cl = classify(add)
    report = count_inequalities(add)
    segments = {str(i): [[list(l) for l in seg.letters] for seg in
                         elementary_segments(add, i)]
                for i in add.base.indices()}
    _emit(args, json.dumps({
        "classes": {f"{i},{j}": cls for (i, j), cls in sorted(cl.classes.items())},
        "alpha": cl.alpha, "eta": cl.eta, "eta_prime": cl.eta_prime,
        "count_inequalities": {
            "sum_alpha_eta_prime": report.sum_alpha_eta_prime,
            "sum_alpha_eta": report.sum_alpha_eta,
            "p_edges": report.p_edges, "edges": report.total_edges,
            "per_face_ok": report.per_face_ok, "global_ok": report.global_ok},
        "segments": segments}, indent=1) + "\n", [getattr(args, "in")])
    return 0


def _cmd_abstract_fillings(args) -> int:
    add = abstract_from_json(Path(getattr(args, "in")).read_text())
    graph = graph_from_text(Path(args.graph).read_text())
    fillings = enumerate_fillings(add, args.m, args.maxlen, graph)
    _emit(args, json.dumps({
        "count": len(fillings),
        "fillings": [[word_to_text(w) for w in combo] for combo in fillings]},
        indent=1) + "\n", [getattr(args, "in"), args.graph])
    return 0


def _cmd_abstract_bound(args) -> int:
    if args.m < 2 or not 1 <= args.r <= args.m - 1 or args.graph_size < 1:
        raise DomainError(f"need m >= 2, 1 <= r <= m-1 and graph size >= 1, got "
                          f"m={args.m}, r={args.r}, graph size={args.graph_size}")
    add = abstract_from_json(Path(getattr(args, "in")).read_text())
    value = filling_bound(add, args.m, args.r, args.graph_size)
    _emit(args, json.dumps({"log_bound": value}) + "\n", [getattr(args, "in")])
    return 0


def read_config(path: str) -> TransitionConfig:
    """Read a sweep config: a JSON object whose keys are the fields of
    TransitionConfig ("model" for ``kind``), with ``budgets`` an object whose
    keys are the fields of SweepBudgets.  Those constructors check the values."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("budgets", {}), dict):
        raise DomainError("a sweep config and its budgets must be JSON objects")
    budgets = data.pop("budgets", {})
    fields = {"model" if f.name == "kind" else f.name: f
              for f in dataclasses.fields(TransitionConfig)}
    budget_keys = {f.name for f in dataclasses.fields(SweepBudgets)}
    unknown = sorted(set(data) - set(fields)) + [f"budgets.{key}"
                                                 for key in sorted(set(budgets) - budget_keys)]
    missing = [key for key, f in fields.items()
               if f.default is dataclasses.MISSING and key not in data]
    if unknown or missing:
        raise DomainError(f"invalid sweep config: unknown keys {unknown}, missing keys {missing}")
    return TransitionConfig(**{fields[key].name: value for key, value in data.items()},
                            budgets=SweepBudgets(**budgets))


def _cmd_experiments_sweep(args) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    rows = transition_sweep(cfg, jobs=args.jobs)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SWEEP_COLUMNS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    args.seed = cfg.seed
    _emit(args, buf.getvalue(), [args.config])
    return 0


def _cmd_experiments_collapse(args) -> int:
    rng = rng_for(_seed(args), "collapse-trial")
    res = run_trial(args.m, args.r, args.maxlen, args.d, "bernoulli", rng)
    cr = res.collapse_result
    payload = {
        "m": args.m, "r": args.r, "maxlen": args.maxlen, "d": args.d,
        "critical_density": critical_density(args.m, args.r).d_r,
        "collapse": res.collapse,
        # A count past the float range is null: JSON has no Infinity.
        "relator_count": res.relator_count if math.isfinite(res.relator_count) else None,
        "fast_path": res.fast_path,
        "substitutions": ({str(g): word_to_text(w) for g, w in cr.substitutions.items()}
                          if cr and cr.substitutions else None),
    }
    _emit(args, json.dumps(payload, indent=1) + "\n", [])
    return 0


def _cmd_experiments_bound(args) -> int:
    crossover = fillability_crossover(args.K, args.m, args.r, args.d)
    samples = []
    if crossover:
        probe_lengths = sorted({2, crossover // 2, crossover - 1, crossover,
                                2 * crossover} - {0, 1})
        samples = [{"maxlen": l, "log_bound": fillability_bound(args.K, l, args.m,
                                                                args.r, args.d)}
                   for l in probe_lengths]
    _emit(args, json.dumps({"K": args.K, "m": args.m, "r": args.r, "d": args.d,
                            "crossover": crossover, "samples": samples},
                           indent=1) + "\n", [])
    return 0


# ---------------------------------------------------------------------------
# Parser.


# The commands that spell words or graphs over all m letters, as a..z, A..Z.
_SPELLS_ALL_LETTERS = frozenset({_cmd_words_enumerate, _cmd_words_sample,
                                 _cmd_density_sample, _cmd_stallings_enumerate,
                                 _cmd_abstract_fillings})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freiheit",
        description="Random groups in the density model: sampling, foldings, "
                    "diagrams and phase-transition experiments.")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    parser.add_argument("--out", type=str, default=None,
                        help="output file (manifest written alongside)")
    sub = parser.add_subparsers(dest="module", required=True)

    words = sub.add_parser("words").add_subparsers(dest="op", required=True)
    p = words.add_parser("enumerate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.set_defaults(func=_cmd_words_enumerate)
    p = words.add_parser("sample")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_words_sample)

    density = sub.add_parser("density").add_subparsers(dest="op", required=True)
    p = density.add_parser("sample")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.set_defaults(func=_cmd_density_sample)
    p = density.add_parser("intersect")
    p.add_argument("--da", type=float, required=True)
    p.add_argument("--db", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lengths", type=_int_list, required=True,
                   help="comma-separated word lengths")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--model", choices=MODEL_KINDS, default="bernoulli")
    p.set_defaults(func=_cmd_density_intersect)

    stal = sub.add_parser("stallings").add_subparsers(dest="op", required=True)
    p = stal.add_parser("fold")
    p.add_argument("--in", required=True)
    p.set_defaults(func=_cmd_stallings_fold)
    p = stal.add_parser("readable")
    p.add_argument("--in", required=True)
    p.add_argument("--L", type=int, required=True)
    p.set_defaults(func=_cmd_stallings_readable)
    p = stal.add_parser("enumerate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--max-betti", type=int, required=True)
    p.set_defaults(func=_cmd_stallings_enumerate)

    diag = sub.add_parser("diagrams").add_subparsers(dest="op", required=True)
    p = diag.add_parser("enumerate")
    p.add_argument("--relators", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_diagrams_enumerate)
    p = diag.add_parser("certify")
    p.add_argument("--relators", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_diagrams_certify)

    abst = sub.add_parser("abstract").add_subparsers(dest="op", required=True)
    p = abst.add_parser("classify")
    p.add_argument("--in", required=True)
    p.set_defaults(func=_cmd_abstract_classify)
    p = abst.add_parser("fillings")
    p.add_argument("--in", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_abstract_fillings)
    p = abst.add_parser("bound")
    p.add_argument("--in", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--graph-size", type=int, required=True)
    p.set_defaults(func=_cmd_abstract_bound)

    exp = sub.add_parser("experiments").add_subparsers(dest="op", required=True)
    p = exp.add_parser("sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiments_sweep)
    p = exp.add_parser("collapse")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--maxlen", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.set_defaults(func=_cmd_experiments_collapse)
    p = exp.add_parser("bound")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.set_defaults(func=_cmd_experiments_bound)
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``dispatch`` in this process parses with: building
    its subcommands costs more than a parse, and a parse leaves it as it was."""
    return build_parser()


def dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = argv
    args._command = " ".join(["freiheit"] + argv)
    args._started = time.time()
    try:
        if args.func in _SPELLS_ALL_LETTERS and args.m > 26:
            raise DomainError(f"need m <= 26 to spell letters as a..z, got m={args.m}")
        if args.func is _cmd_experiments_collapse and args.r > 26:
            raise DomainError(f"need r <= 26 to spell substitutions as a..z, got r={args.r}")
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except FeasibilityError as exc:
        print(f"feasibility guard: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
