"""Acceptance suite: twelve numbered criteria, one printed line each.

Criterion 4 asserts the literal letter-class counting inequalities only
where they are a theorem: on diagrams in which each abstract index labels
one face.  With two faces of one abstract relator sharing an edge, their
eta' (semi-free-to-fill, on p) halves have genuine counterexamples, so
there the criterion pins the shape of the failure instead; the
occurrence-summed forms and the eta halves are asserted everywhere (see
the criterion's docstring).
"""

import math
import random
from collections import Counter
from freiheit.abstract_diagrams import (AbstractDistortionDiagram, classify,
                                        count_inequalities, decorate,
                                        distinguished_vertices,
                                        edge_partition, elementary_segments,
                                        enumerate_abstract_diagrams,
                                        enumerate_abstract_distortion_diagrams,
                                        enumerate_fillings, filling_bound_exact,
                                        fillings_with_boundary)
from freiheit.cli import dispatch
from freiheit.density import (DensityModel, intersection_experiment,
                              sample_relator_set)
from freiheit.diagrams import enumerate_reduced_disk_diagrams, is_reduced
from freiheit.experiments import (collapse_success_probability,
                                  critical_density, rewrite_presentation,
                                  run_trial)
from freiheit.seeds import rng_for
from freiheit.stallings import (LabeledGraph, betti, canonical_code,
                                enumerate_reduced_graphs,
                                enumerate_topological_types, fold, graph_stats,
                                is_readable, readable_words, wedge_of_words)
from freiheit.words import (Word, count_reduced_exact, cyclic_reduce,
                            free_reduce)
from freiheit.density import make_relator_set

from oracles import (binomial_tail, brute_reduced_words, reducible_pair_oracle, stack_reduce,
                     triple_concat_cyclic_reduce, union_find_fold)


def _report(number: int, passed: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} - {description}")


def test_criterion_01_exact_reduced_counts():
    for m in (2, 3):
        for L in range(1, 7):
            assert count_reduced_exact(m, L) == len(brute_reduced_words(m, L))
    _report(1, True, "reduced word counts match 2m(2m-1)^(L-1) exhaustively")


GRAPH_FAMILY = None


def _graph_family():
    global GRAPH_FAMILY
    if GRAPH_FAMILY is None:
        GRAPH_FAMILY = list(enumerate_reduced_graphs(2, 6, 3))
    return GRAPH_FAMILY


def test_criterion_02_readable_word_bound():
    for g in _graph_family():
        r = betti(g)
        for L in range(1, 7):
            counts = readable_words(g, L)
            bound = 2 * g.num_edges * (2 * r - 1) ** L
            assert counts.words <= counts.paths <= bound
            if r == 1:
                # a start dart determines the path: exactly 2|G| of them
                assert counts.paths == 2 * g.num_edges
    _report(2, True, f"readable-word bound on {len(_graph_family())} graphs, L <= 6")


# The homeomorphism types of rank 3: (vertices, edge multiset).
TYPES_R3 = [
    (1, ((0, 0), (0, 0), (0, 0))),
    (2, ((0, 0), (0, 0), (0, 1), (1, 1))),
    (2, ((0, 0), (0, 1), (0, 1), (0, 1))),
    (2, ((0, 0), (0, 1), (0, 1), (1, 1))),
    (2, ((0, 1), (0, 1), (0, 1), (0, 1))),
    (3, ((0, 0), (0, 1), (0, 1), (1, 2), (2, 2))),
    (3, ((0, 0), (0, 1), (0, 2), (1, 1), (2, 2))),
    (3, ((0, 0), (0, 1), (0, 2), (1, 2), (1, 2))),
    (3, ((0, 0), (0, 1), (1, 2), (1, 2), (1, 2))),
    (3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2))),
    (4, ((0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3))),
    (4, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (3, 3))),
    (4, ((0, 0), (0, 1), (1, 2), (1, 3), (2, 3), (2, 3))),
    (4, ((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3))),
    (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
]


def test_criterion_03_structure_bounds_and_types():
    for g in _graph_family():
        r = betti(g)
        stats = graph_stats(g)
        assert stats.degree3plus <= max(0, 2 * (r - 1))
        assert stats.maximal_arcs <= max(0, 3 * (r - 1))
    assert len(enumerate_topological_types(1)) == 1
    types2 = enumerate_topological_types(2)
    assert len(types2) == 3
    assert len(types2) <= (2 * 2) ** (6 * 2)
    types3 = enumerate_topological_types(3)
    assert len(types3) == 15
    assert [(t.num_vertices, t.edge_multiset) for t in types3] == TYPES_R3
    _report(3, True, "arc/branch-vertex bounds and topological type counts")


ADD_FAMILY = None


def _add_family():
    global ADD_FAMILY
    if ADD_FAMILY is None:
        ADD_FAMILY = list(enumerate_abstract_distortion_diagrams(2, 4))
    return ADD_FAMILY


def _shares_edge_with_same_index(ad) -> bool:
    """Some edge borders two distinct faces carrying one abstract index."""
    for entries in decorate(ad).values():
        faces_by_index: dict[int, set[int]] = {}
        for rec in entries:
            faces_by_index.setdefault(rec.letter[0], set()).add(rec.face_pos)
        if any(len(faces) > 1 for faces in faces_by_index.values()):
            return True
    return False


def test_criterion_04_letter_class_invariants():
    """Edge partition, segment class uniformity, distinguished-vertex and
    segment-count bounds, and the counting inequalities on every abstract
    distortion diagram with <= 2 faces and face lengths <= 4.

    On every instance: the occurrence-summed inequalities hold, and so do
    the eta (free-to-fill, off p) halves of the literal ones,
    eta_i <= |E_f \\ p| for each face f labeled i and
    sum alpha_i eta_i <= |E| - |p|: each free letter owns, in every face
    bearing it, a distinct preferred edge off p.

    The eta' (semi-free-to-fill, on p) halves are not a theorem.  When one
    abstract relator labels two faces that share an edge, a letter can be
    minimal on all its edges while taking its p-certificate from one face
    only; two bigons over one relator glued along an edge, fillable by any
    word xx, violate alpha_1 * eta'_1 <= |p|.  So the full literal forms
    (per-face and alpha-weighted global) are asserted where each abstract
    index labels exactly one face, and every instance that violates them
    must be self-adjacent in this sense and fail only on an eta' half.
    That lens lies in the family, so violations must exist.
    """
    family = _add_family()
    single_occurrence = 0
    literal_violations = 0
    for add in family:
        ad = add.base
        size = ad.num_faces
        parts = edge_partition(ad)
        union = set()
        for edges in parts.values():
            assert not (union & edges)
            union |= edges
        assert union == set(range(ad.complex.num_edges))
        assert len(distinguished_vertices(add)) <= 3 * size
        for i in ad.indices():
            segments = elementary_segments(add, i)
            assert all(s.cls is not None for s in segments)
            assert len(segments) <= 3 * size * size
            assert sum(len(s.letters) for s in segments) == ad.lengths()[i]
        report = count_inequalities(add)
        assert report.per_relator_ok and report.global_unweighted_ok

        cl = classify(add)
        p_edges = add.p_edges()
        faces = [(idx, parts[fpos])
                 for fpos, (idx, _) in enumerate(ad.face_labels)]
        assert all(cl.eta[i] <= len(ef - p_edges) for i, ef in faces)
        assert report.sum_alpha_eta <= report.total_edges - report.p_edges
        eta_prime_ok = (
            all(cl.eta_prime[i] <= len(ef & p_edges) for i, ef in faces)
            and report.sum_alpha_eta_prime <= report.p_edges)

        literal_ok = report.per_face_ok and report.global_ok
        assert literal_ok == eta_prime_ok
        if all(a == 1 for a in cl.alpha.values()):
            single_occurrence += 1
            assert literal_ok
        if not literal_ok:
            literal_violations += 1
            assert _shares_edge_with_same_index(ad)
    assert literal_violations > 0
    _report(4, True, "partition/segments/bounds and occurrence-summed and eta "
                     f"count inequalities hold on {len(family)} instances; "
                     f"literal forms hold on {single_occurrence} "
                     "single-occurrence instances and fail, on an eta' half, "
                     f"on {literal_violations} self-adjacent ones")


def test_criterion_05_filling_count_bound():
    loop = LabeledGraph(1, [(0, 0, 1)])
    fig8 = fold(wedge_of_words([Word((1,)), Word((2,))]))
    enum = enumerate_abstract_diagrams(2, 4)
    rng = random.Random(77)
    instances = 0
    spot_checks = 0
    # Readability of each p-word, per graph, shared across representatives.
    readable: dict[tuple, bool] = {}
    for ad in enum.representatives:
        pairs = fillings_with_boundary(ad, 2)
        n = ad.boundary_length()
        per_boundary = Counter(b for _, b in pairs)
        assert all(len(boundary) == n for boundary in per_boundary)
        doubled = [(boundary + boundary, c) for boundary, c in per_boundary.items()]
        for graph, r in ((loop, 1), (fig8, 2)):
            for p_len in range(0, n + 1):
                for p_start in range(n if p_len else 1):
                    add = AbstractDistortionDiagram(ad, p_start, p_len)
                    count = 0
                    for boundary, c in doubled:
                        key = (r, boundary[p_start:p_start + p_len])
                        if key not in readable:
                            readable[key] = is_readable(graph, Word(key[1]))
                        if readable[key]:
                            count += c
                    assert count <= filling_bound_exact(add, 2, r, graph.num_edges)
                    instances += 1
                    if rng.random() < 0.004:
                        assert count == len(enumerate_fillings(add, 2, 4, graph))
                        spot_checks += 1
    assert spot_checks > 5
    _report(5, True, f"filling count <= bound on {instances} instances "
                     f"({spot_checks} spot-checked against direct enumeration)")


def test_criterion_06_example_classification():
    from fixtures import three_face_example

    add = three_face_example()
    assert classify(add).not_free() == {(1, 4), (2, 1), (2, 2)}
    _report(6, True, "three-face example classifies to {(1,4),(2,1),(2,2)}")


def test_criterion_07_collapse_transition():
    m, r, maxlen, trials = 3, 2, 20, 200
    d_low, d_high = 0.15, 0.45
    assert abs(critical_density(m, r).d_r - 0.3174) < 1e-3
    # Exact expectation oracle pre-validates the thresholds.
    p_high = collapse_success_probability(m, r, maxlen, d_high)[3]
    p_low = collapse_success_probability(m, r, maxlen, d_low)[3]
    assert p_high > 0.99 and p_low < 0.1
    hits = {}
    for d in (d_low, d_high):
        hits[d] = 0
        for t in range(trials):
            rng = rng_for(1400, "collapse-criterion", d, t)
            hits[d] += run_trial(m, r, maxlen, d, "bernoulli", rng).collapse
    freq = {d: k / trials for d, k in hits.items()}
    assert freq[d_high] >= 0.9, freq
    # Two-sided exact binomial test against the oracle, at the benchmark's
    # alpha: a fixed bound of 0.1 fails a correct sampler with probability
    # 0.32 at p_low = 0.094 over 200 trials.
    assert binomial_tail(hits[d_low], trials, p_low) >= 1e-6, freq
    _report(7, True, f"collapse frequency {freq[d_high]:.3f} at d=0.45, "
                     f"{freq[d_low]:.3f} at d=0.15 (oracle: {p_high:.3f}/{p_low:.3f})")


def test_criterion_08_triviality_trend():
    m, maxlen, trials = 2, 12, 200
    grid = (0.3, 0.45, 0.6, 0.75)
    freqs = []
    for di, d in enumerate(grid):
        hits = 0
        for t in range(trials):
            rng = rng_for(800, "trivial-criterion", di, t)
            hits += run_trial(m, 1, maxlen, d, "bernoulli", rng).trivial
        freqs.append(hits / trials)
    for lo, hi in zip(freqs, freqs[1:]):
        sigma = math.sqrt(lo * (1 - lo) / trials + hi * (1 - hi) / trials)
        assert hi >= lo - 2 * sigma, freqs
    _report(8, True, f"triviality-evidence frequencies {freqs} nondecreasing")


def test_criterion_09_intersection_formula():
    m, maxlen = 2, 14
    rows = intersection_experiment(0.7, 0.7, m, [maxlen], trials=50, seed=900)
    estimates = [row.density_est for row in rows]
    mean = sum(estimates) / len(estimates)
    assert abs(mean - 0.4) < 0.08
    rows_low = intersection_experiment(0.2, 0.2, m, [maxlen], trials=200, seed=901)
    empty = sum(row.size_intersection == 0 for row in rows_low)
    assert empty >= 0.95 * len(rows_low)
    _report(9, True, f"intersection density {mean:.3f} ~ 0.4; "
                     f"{empty}/200 empty at low density")


def test_criterion_10_oracle_equivalences():
    rng = random.Random(1010)
    for _ in range(10_000):
        letters = tuple(rng.choice((-2, -1, 1, 2))
                        for _ in range(rng.randrange(0, 30)))
        assert free_reduce(letters).letters == stack_reduce(letters)
        assert cyclic_reduce(letters).letters == triple_concat_cyclic_reduce(letters)

    for i in range(100):
        grng = random.Random(2000 + i)
        words = [[grng.choice((-2, -1, 1, 2)) for _ in range(grng.randrange(1, 8))]
                 for _ in range(grng.randrange(1, 4))]
        g = wedge_of_words(words)
        baseline = fold(g)
        codes = set()
        for order in range(10):
            folded = fold(g, random.Random(order))
            codes.add("point" if folded.num_edges == 0 else canonical_code(folded))
        assert len(codes) == 1
        oracle = union_find_fold(g)
        if baseline.num_edges:
            assert canonical_code(oracle) == codes.pop()

    relators = make_relator_set(2, 4, [Word((1, 2)), Word((1, 1, 2)),
                                       Word((2, 2, -1))])
    checked = 0
    for diagram in enumerate_reduced_disk_diagrams(relators, 3):
        assert is_reduced(diagram, relators)
        assert not reducible_pair_oracle(diagram, relators)
        checked += 1
    _report(10, True, f"reduction/fold/reducibility oracles agree "
                      f"({checked} diagrams at K = 3)")


def test_criterion_11_rewrite_bookkeeping():
    rng = random.Random(1100)
    model = DensityModel("bernoulli", 0.35, 0)
    for _ in range(100):
        relators = sample_relator_set(3, 8, model, rng)
        length = rng.randrange(0, relators.maxlen)
        subs = {3: Word(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(length)))}
        out = rewrite_presentation(relators, subs)
        assert out.r == 2
        for w in out.relators:
            assert all(abs(x) <= 2 for x in w.letters)
            assert len(w) <= relators.maxlen * (relators.maxlen - 1)
    _report(11, True, "rewritten relators stay over X_r with length <= l(l-1)")


def test_criterion_12_sweep_determinism(tmp_path, capsys):
    import json

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "r": 2, "lengths": [10],
                               "densities": [0.15, 0.45], "trials": 25,
                               "seed": 7}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(["--out", str(out1), "experiments", "sweep",
                     "--config", str(cfg)]) == 0
    assert dispatch(["--out", str(out2), "experiments", "sweep",
                     "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    m1 = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    m2 = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert m1["output_sha256"] == m2["output_sha256"]
    _report(12, True, "sweep re-run reproduces byte-identical CSV")
