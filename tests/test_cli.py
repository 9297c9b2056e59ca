import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import freiheit
from freiheit.cli import dispatch, read_config
from freiheit.errors import DomainError
from freiheit.stallings import graph_from_text


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which Python
    writes by default but JSON does not allow."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_words_enumerate(capsys):
    code, out, _ = run(capsys, "words", "enumerate", "--m", "2", "--maxlen", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 16


def test_words_sample_deterministic(capsys):
    code1, out1, _ = run(capsys, "--seed", "3", "words", "sample", "--m", "2",
                         "--maxlen", "5", "--count", "10")
    code2, out2, _ = run(capsys, "--seed", "3", "words", "sample", "--m", "2",
                         "--maxlen", "5", "--count", "10")
    assert code1 == code2 == 0 and out1 == out2


def test_density_sample(capsys):
    code, out, _ = run(capsys, "--seed", "1", "density", "sample", "--model",
                       "bernoulli", "--d", "0.4", "--m", "2", "--maxlen", "8")
    assert code == 0
    assert out.startswith("# model=bernoulli")


def test_density_intersect_csv(capsys):
    code, out, _ = run(capsys, "--seed", "2", "density", "intersect", "--da", "0.7",
                       "--db", "0.7", "--m", "2", "--lengths", "8", "--trials", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,d_A,d_B,trial,size_A,size_B,size_intersection,density_estimate"
    assert len(lines) == 4


def test_stallings_fold_file_roundtrip(tmp_path, capsys):
    src = tmp_path / "g.txt"
    dst = tmp_path / "folded.txt"
    src.write_text("V 3\nE 0 1 a\nE 0 2 a\nE 1 0 b\nE 2 0 b\n")
    code, _, _ = run(capsys, "--out", str(dst), "stallings", "fold", "--in", str(src))
    assert code == 0
    folded = graph_from_text(dst.read_text())
    assert folded.num_edges == 2 and folded.num_vertices == 2
    manifest = strict_json((tmp_path / "folded.txt.manifest.json").read_text())
    assert manifest["output_sha256"]
    assert str(src) in manifest["inputs"]


def test_stallings_readable(tmp_path, capsys):
    src = tmp_path / "loop.txt"
    src.write_text("V 1\nE 0 0 a\n")
    code, out, _ = run(capsys, "stallings", "readable", "--in", str(src), "--L", "3")
    assert code == 0
    data = strict_json(out)
    assert data == {"length": 3, "paths": 2, "words": 2}


@pytest.mark.parametrize("text, expected", [
    # a lollipop: a loop at the end of a two-edge stick
    ("V 3\nE 0 1 a\nE 1 2 b\nE 2 2 c\n", '{"length": 3, "paths": 12, "words": 12}\n'),
    # a two-cycle and two loops labeled a, so two paths spell each of aaa, AAA
    ("V 4\nE 0 1 a\nE 1 0 b\nE 2 2 a\nE 3 3 a\n", '{"length": 3, "paths": 8, "words": 6}\n'),
], ids=["lollipop", "disconnected"])
def test_stallings_readable_output_is_pinned(tmp_path, capsys, text, expected):
    src = tmp_path / "graph.txt"
    src.write_text(text)
    code, out, _ = run(capsys, "stallings", "readable", "--in", str(src), "--L", "3")
    assert code == 0 and out == expected


def test_stallings_readable_refuses_a_graph_that_is_not_label_deterministic(tmp_path, capsys):
    src = tmp_path / "graph.txt"
    src.write_text("V 2\nE 0 1 a\nE 0 0 a\n")
    code, out, err = run(capsys, "stallings", "readable", "--in", str(src), "--L", "3")
    assert code == 1 and out == ""
    assert err.startswith("domain error:")


def test_stallings_enumerate(capsys):
    code, out, _ = run(capsys, "stallings", "enumerate", "--m", "2",
                       "--max-edges", "1", "--max-betti", "1")
    assert code == 0
    assert out.count("V 1") == 2


@pytest.mark.parametrize("edges, betti, capped", [("3", "4", "3"), ("4", "5", "4")])
def test_stallings_enumerate_caps_the_rank_at_the_edge_count(capsys, edges, betti, capped):
    # A graph of rank r has at least r edges: ranks above --max-edges add
    # nothing, and no rank-5 type is built at four edges.
    args = ["stallings", "enumerate", "--m", "2", "--max-edges", edges, "--max-betti"]
    code, out, err = run(capsys, *args, betti)
    assert code == 0 and out and err == ""
    assert run(capsys, *args, capped) == (code, out, err)


@pytest.mark.parametrize("edges", ["5", "7"])
def test_stallings_enumerate_guards_rank_five_from_five_edges(capsys, edges):
    # The rank cap refuses before any graph of rank <= 4 is listed.
    code, out, err = run(capsys, "stallings", "enumerate", "--m", "2", "--max-edges", edges,
                         "--max-betti", "5")
    assert code == 3 and out == ""
    assert err == "feasibility guard: topological type enumeration capped at r = 4, got 5\n"


@pytest.mark.parametrize("m", ["1", "0", "-2"])
def test_stallings_enumerate_refuses_fewer_than_two_generators(capsys, m):
    code, out, err = run(capsys, "stallings", "enumerate", "--m", m,
                         "--max-edges", "3", "--max-betti", "2")
    assert code == 1 and out == ""
    assert err.startswith(f"domain error: need m >= 2, got m={m}")


def test_diagrams_enumerate_and_certify(tmp_path, capsys):
    rel = tmp_path / "relators.txt"
    rel.write_text("abAB\n")
    code, out, _ = run(capsys, "diagrams", "enumerate", "--relators", str(rel),
                       "--K", "1")
    assert code == 0
    data = strict_json(out)
    assert data["count"] == 1
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    rel2 = tmp_path / "torsion.txt"
    rel2.write_text("aaaa\n")
    code, out, _ = run(capsys, "diagrams", "certify", "--relators", str(rel2),
                       "--graph", str(graph), "--K", "1", "--lambda", "4.0")
    assert code == 0
    report = strict_json(out)
    assert report["holds"] is False and report["max_ratio"] == 1.0


@pytest.mark.parametrize("m", ["0", "1"])
@pytest.mark.parametrize("op", ["enumerate", "certify"])
def test_diagrams_refuse_an_explicit_m_below_two(tmp_path, capsys, op, m):
    # The relator uses only a, so even m = 1 covers its letters: an explicit
    # --m is read as given, never replaced by the inferred one.
    rel = tmp_path / "torsion.txt"
    rel.write_text("aaaa\n")
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    extra = ["--graph", str(graph), "--lambda", "4.0"] if op == "certify" else []
    code, out, err = run(capsys, "diagrams", op, "--relators", str(rel), "--K", "1",
                         "--m", m, *extra)
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1


def test_words_enumerate_streams_its_output(tmp_path, capsys):
    # B_7 at m = 3 is about 700 kB of text. It is written and hashed in
    # chunks, so the command never holds it whole; the file is what stdout
    # prints, and the manifest holds its digest.
    argv = ["words", "enumerate", "--m", "3", "--maxlen", "7"]
    path = tmp_path / "words.txt"
    tracemalloc.start()
    try:
        assert dispatch(["--out", str(path), *argv]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
    assert dispatch(argv) == 0
    text = capsys.readouterr().out
    assert path.read_text() == text
    manifest = strict_json((tmp_path / "words.txt.manifest.json").read_text())
    assert manifest["output_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_abstract_pipeline(tmp_path, capsys):
    from fixtures import three_face_example
    from freiheit.abstract_diagrams import abstract_to_json

    add = three_face_example()
    path = tmp_path / "add.json"
    path.write_text(abstract_to_json(add))
    code, out, _ = run(capsys, "abstract", "classify", "--in", str(path))
    assert code == 0
    data = strict_json(out)
    not_free = [k for k, v in data["classes"].items() if v == "not-free-to-fill"]
    assert sorted(not_free) == ["1,4", "2,1", "2,2"]

    graph = tmp_path / "f8.txt"
    graph.write_text("V 1\nE 0 0 a\nE 0 0 b\n")
    code, out, _ = run(capsys, "abstract", "bound", "--in", str(path), "--m", "3",
                       "--r", "2", "--graph-size", "2")
    assert code == 0
    assert strict_json(out)["log_bound"] > 0


@pytest.mark.parametrize("m, r, size", [("1", "1", "2"), ("2", "0", "2"), ("2", "2", "2"),
                                        ("3", "1", "0")])
def test_abstract_bound_refuses_ranks_and_graph_sizes_out_of_range(tmp_path, capsys,
                                                                    m, r, size):
    from fixtures import three_face_example
    from freiheit.abstract_diagrams import abstract_to_json

    path = tmp_path / "add.json"
    path.write_text(abstract_to_json(three_face_example()))
    code, out, err = run(capsys, "abstract", "bound", "--in", str(path), "--m", m,
                         "--r", r, "--graph-size", size)
    assert code == 1 and out == ""
    assert err.startswith("domain error: need m >= 2, 1 <= r <= m-1 and graph size >= 1")


def test_abstract_fillings(tmp_path, capsys):
    from freiheit.abstract_diagrams import AbstractDistortionDiagram, \
        _one_face_abstract, abstract_to_json

    add = AbstractDistortionDiagram(_one_face_abstract(2), 0, 0)
    path = tmp_path / "one.json"
    path.write_text(abstract_to_json(add))
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    code, out, _ = run(capsys, "abstract", "fillings", "--in", str(path), "--m", "2",
                       "--maxlen", "2", "--graph", str(graph))
    assert code == 0
    assert strict_json(out)["count"] == 12


def test_abstract_fillings_refuses_a_diagram_with_an_isolated_edge(tmp_path, capsys):
    # Two loops joined by a bridge: fillings died with KeyError at the outer
    # labels, while classify refused the same file.
    from freiheit.abstract_diagrams import AbstractDiagram, AbstractDistortionDiagram, \
        abstract_to_json
    from freiheit.complexes import PlanarComplex

    ad = AbstractDiagram(PlanarComplex(((0,), (4,)), (1, 2, 5, 3)),
                         ((1, 1), (2, 1)))
    path = tmp_path / "dumbbell.json"
    path.write_text(abstract_to_json(AbstractDistortionDiagram(ad, 0, 0)))
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    _refused(capsys, ["abstract", "fillings", "--in", str(path), "--m", "2",
                      "--maxlen", "2", "--graph", str(graph)], "isolated edge 1")
    _refused(capsys, ["abstract", "classify", "--in", str(path)], "isolated edge 1")


def test_abstract_fillings_rejects_one_generator(tmp_path, capsys):
    from freiheit.abstract_diagrams import AbstractDistortionDiagram, \
        _one_face_abstract, abstract_to_json

    path = tmp_path / "one.json"
    path.write_text(abstract_to_json(AbstractDistortionDiagram(_one_face_abstract(2), 0, 0)))
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    code, out, err = run(capsys, "abstract", "fillings", "--in", str(path), "--m", "1",
                         "--maxlen", "2", "--graph", str(graph))
    assert code == 1 and out == ""
    assert "m >= 2" in err


def test_abstract_fillings_refuses_a_large_alphabet_at_once(tmp_path, capsys):
    from freiheit.abstract_diagrams import AbstractDistortionDiagram, \
        _one_face_abstract, abstract_to_json

    path = tmp_path / "one.json"
    path.write_text(abstract_to_json(AbstractDistortionDiagram(_one_face_abstract(6), 0, 0)))
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    # Past 26 letters the alphabet check refuses first; at 26 the search
    # space of a hexagon is over the feasibility limit.
    argv = ["abstract", "fillings", "--in", str(path), "--maxlen", "6", "--graph", str(graph)]
    code, out, err = run(capsys, *argv, "--m", "100")
    assert code == 1 and out == ""
    assert err == "domain error: need m <= 26 to spell letters as a..z, got m=100\n"
    code, out, err = run(capsys, *argv, "--m", "26")
    assert code == 3 and out == ""
    assert "feasibility guard" in err and "exceeds limit" in err


def _triangle_with(edit):
    from freiheit.abstract_diagrams import AbstractDistortionDiagram, \
        _one_face_abstract, abstract_to_json

    data = strict_json(abstract_to_json(
        AbstractDistortionDiagram(_one_face_abstract(3), 0, 0)))
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("edit", [
    lambda data: data["faces"][0].update(darts=[0, 2, 99]),
    lambda data: data["outer_face"].update(darts=[0, 2, 4]),
    # Vertex 2's darts named as vertex 1: one id for two rotation orbits.
    lambda data: [rec.update(vertex=1) for rec in data["darts"] if rec["vertex"] == 2],
], ids=["face-names-a-missing-dart", "outer-walk-reuses-face-darts",
        "vertex-ids-merge-two-orbits"])
def test_abstract_classify_rejects_a_map_that_is_not_a_complex(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    path.write_text(_triangle_with(edit))
    code, out, err = run(capsys, "abstract", "classify", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("domain error:")


def _bigon_on_triangle_with(edit):
    """A triangle labeled 1 and a bigon labeled 2 glued along one edge."""
    from freiheit.abstract_diagrams import AbstractDiagram, AbstractDistortionDiagram, \
        abstract_to_json
    from freiheit.complexes import glue_face, polygon

    ad = AbstractDiagram(glue_face(polygon(3), 0, 1, 2, 0), ((1, 1), (2, 1)))
    data = strict_json(abstract_to_json(AbstractDistortionDiagram(ad, 0, 0)))
    edit(data)
    return json.dumps(data)


def _refused(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"domain error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text, message", [
    ("V 0\n", "graph needs at least one vertex"),
    ("V 2\nB 2\nE 0 1 a\n", "base vertex 2 out of range"),
    ("V 2\nE 0 2 a\n", "edge (0,2) out of range"),
    ("V 1\nX 0\nE 0 0 a\n", "unrecognized graph line: 'X 0'"),
    ("E 0 0 a\n", "graph text missing 'V n' line"),
], ids=["no-vertices", "base-out-of-range", "edge-end-out-of-range", "unknown-tag",
        "no-vertex-line"])
def test_graph_file_refusals(tmp_path, capsys, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    _refused(capsys, ["stallings", "fold", "--in", str(path)], message)


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["darts"][0].update(id=7), "dart ids must be 0..2E-1"),
    (lambda data: data["darts"][0].update(inverse=2), "dart pairing must be 2i <-> 2i+1"),
    (lambda data: data["faces"][1].update(relator=1),
     "faces labeled 1 have unequal boundary lengths"),
    (lambda data: data.update(p={"start": 3, "length": 1}), "p start 3 out of range"),
    (lambda data: data.update(p={"start": 0, "length": 4}), "p length 4 out of range 0..3"),
], ids=["dart-ids-not-0-to-2E-1", "pairing-not-2i-2i+1", "one-index-unequal-lengths",
        "p-start-out-of-range", "p-length-out-of-range"])
def test_abstract_json_refusals(tmp_path, capsys, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(_bigon_on_triangle_with(edit))
    _refused(capsys, ["abstract", "classify", "--in", str(path)], message)


def test_sweep_config_that_is_not_json_is_refused(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{'m': 2}")
    _refused(capsys, ["experiments", "sweep", "--config", str(path)], "config is not JSON")


def test_sweep_refuses_a_count_model_cell_past_the_budget(tmp_path, capsys):
    # |B_40|^0.5 ~ 4.3e9 relators at m = 2, past the budget: a count-model
    # trial there has no fast path.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "r": 1, "lengths": [40], "densities": [0.5],
                               "trials": 2, "model": "count"}))
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "--out", str(csv_path), "experiments", "sweep",
                         "--config", str(cfg))
    assert code == 3 and out == ""
    assert err.startswith("feasibility guard: count-model trial")
    assert not csv_path.exists() and not (tmp_path / "sweep.csv.manifest.json").exists()


def test_sweep_reproducible_with_manifest(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "r": 1, "lengths": [6],
                               "densities": [0.3, 0.6], "trials": 6, "seed": 11}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert dispatch(["--out", str(out1), "experiments", "sweep", "--config", str(cfg)]) == 0
    assert dispatch(["--out", str(out2), "experiments", "sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    m1 = strict_json((tmp_path / "a.csv.manifest.json").read_text())
    m2 = strict_json((tmp_path / "b.csv.manifest.json").read_text())
    assert m1["output_sha256"] == m2["output_sha256"]
    assert m1["seed"] == 11


def test_sweep_seed_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "r": 1, "lengths": [6],
                               "densities": [0.3], "trials": 6, "seed": 11}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert dispatch(["--seed", "99", "--out", str(out1), "experiments", "sweep",
                     "--config", str(cfg)]) == 0
    assert dispatch(["--out", str(out2), "experiments", "sweep",
                     "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert out1.read_text().splitlines()[1].endswith("99")
    assert out2.read_text().splitlines()[1].endswith("11")


def _no_parser():
    raise AssertionError("dispatch built a second parser")


def test_dispatch_parses_every_call_with_one_parser(tmp_path, capsys, monkeypatch):
    # A refused parse leaves the parser as it was: two sweeps after it,
    # with no parser built for them, write the same bytes.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "r": 1, "lengths": [5, 9],
                               "densities": [0.3, 0.6], "trials": 4, "seed": 5}))
    assert dispatch(["experiments", "sweep"]) == 2
    assert "required: --config" in capsys.readouterr().err
    monkeypatch.setattr("freiheit.cli.build_parser", _no_parser)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert dispatch(["--out", str(out1), "experiments", "sweep", "--config", str(cfg)]) == 0
    assert dispatch(["--out", str(out2), "experiments", "sweep", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 1 + 2 * 2


def test_validate_config_collects_all_errors(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m": 1, "r": 0, "lengths": [], "densities": [2.0],
                               "trials": 0, "model": "weird", "seed": "x"}))
    with pytest.raises(DomainError) as info:
        read_config(str(cfg))
    message = str(info.value)
    for named in ("m must be an integer >= 2, got 1",
                  "r must be an integer >= 1, got 0",
                  "lengths must be a nonempty list of integers >= 1, got []",
                  "density must be a number in [0, 1], got 2.0",
                  "trials must be an integer >= 1, got 0",
                  "model kind must be one of ('bernoulli', 'count'), got 'weird'",
                  "seed must be an integer, got 'x'"):
        assert named in message


GOOD_CONFIG = {"m": 2, "r": 1, "lengths": [6], "densities": [0.3], "trials": 2}


@pytest.mark.parametrize("config, named", [
    ([1, 2], ["must be JSON objects"]),
    (dict(GOOD_CONFIG, seeed=5), ["unknown keys ['seeed']"]),
    ({"r": 1, "lengths": [6]}, ["missing keys ['m']"]),
    (dict(GOOD_CONFIG, budgets={"materialize_limit": "big"}),
     ["materialize_limit must be an integer >= 0, got 'big'"]),
    (dict(GOOD_CONFIG, budgets={"materialize_limit": -1}),
     ["materialize_limit must be an integer >= 0, got -1"]),
    (dict(GOOD_CONFIG, budgets=5), ["must be JSON objects"]),
    (dict(GOOD_CONFIG, lengths=[True], trials=True),
     ["lengths must be a nonempty list of integers >= 1, got [True]",
      "trials must be an integer >= 1, got True"]),
    (dict(GOOD_CONFIG, lengths=6), ["lengths must be a nonempty list"]),
    (dict(GOOD_CONFIG, densities=[0.3, 0]),
     ["invalid sweep config: the Bernoulli model requires d > 0"]),
], ids=["not-an-object", "misspelled-key", "missing-key", "budget-not-an-int",
        "negative-budget", "budgets-not-an-object", "bools-as-ints",
        "lengths-not-a-list", "bernoulli-density-zero"])
def test_sweep_rejects_malformed_config(tmp_path, capsys, config, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "--out", str(csv_path), "experiments", "sweep",
                         "--config", str(path))
    assert code == 1 and out == "" and not csv_path.exists()
    assert err.startswith("domain error:") and len(err.splitlines()) == 1
    for fragment in named:
        assert fragment in err


@pytest.mark.parametrize("text", ["V x\n", "V 2\nE 0 1\n", "V 1\nE 0 0 ab\n"],
                         ids=["non-integer-field", "short-edge-line", "two-letter-label"])
def test_stallings_fold_rejects_malformed_graph_file(tmp_path, capsys, text):
    path = tmp_path / "g.txt"
    path.write_text(text)
    code, out, err = run(capsys, "stallings", "fold", "--in", str(path))
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1


def test_unreadable_files_exit_cleanly(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00a\n")
    for argv in (["diagrams", "enumerate", "--relators", missing, "--K", "1"],
                 ["diagrams", "enumerate", "--relators", str(binary), "--K", "1"],
                 ["experiments", "sweep", "--config", missing]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("file error:") and len(err.splitlines()) == 1


def test_density_intersect_rejects_count_density_above_one(capsys):
    code, out, err = run(capsys, "density", "intersect", "--model", "count", "--da", "1.5",
                         "--db", "0.5", "--m", "2", "--lengths", "6", "--trials", "1")
    assert code == 1 and out == ""
    assert err.startswith("domain error: density must be a number in [0, 1], got 1.5")


def test_exit_codes(capsys, tmp_path):
    # usage error
    assert dispatch(["words", "enumerate", "--frobnicate"]) == 2
    assert dispatch(["density", "intersect", "--da", "0.7", "--db", "0.7", "--m", "2",
                     "--lengths", "10,1x"]) == 2
    capsys.readouterr()
    # feasibility guard
    assert dispatch(["words", "enumerate", "--m", "5", "--maxlen", "30"]) == 3
    capsys.readouterr()
    # domain error: r = m in config
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"m": 2, "r": 2, "lengths": [6], "densities": [0.3],
                               "trials": 2}))
    assert dispatch(["experiments", "sweep", "--config", str(cfg)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("r, d", [("1", "0.95"), ("2", "0.4")])
def test_experiments_collapse_runs_past_the_float_range(capsys, r, d):
    # |B_700| ~ 5^700 at m = 3: its d-th power passes the float range at
    # d = 0.95, and the r = 2 collapse class does at every density.
    code, out, _ = run(capsys, "--seed", "1", "experiments", "collapse", "--m", "3",
                       "--r", r, "--maxlen", "700", "--d", d)
    assert code == 0
    data = strict_json(out)
    # At d = 0.95 the relator count itself is past the float range: null.
    count = data["relator_count"]
    assert data["fast_path"] and (count is None if d == "0.95" else count > 1e195)


@pytest.mark.parametrize("model", ["bernoulli", "count"])
def test_density_sample_draws_indices_past_sys_maxsize(capsys, model):
    # |B_30| ~ 1.1e21 at m = 3, past sys.maxsize, so range() has no length.
    code, out, _ = run(capsys, "--seed", "7", "density", "sample", "--model", model,
                       "--d", "0.05", "--m", "3", "--maxlen", "30")
    assert code == 0
    words = out.splitlines()[1:]
    assert words and all(len(w) <= 30 for w in words)


def _limit_address_space():
    limit = 10 ** 9
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_density_sample_at_26_letters_runs_in_a_gigabyte():
    # Unranking at m = 26, l = 100 needs no table per length and letter pair.
    src = str(Path(freiheit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "freiheit", "--seed", "7", "density", "sample", "--model",
         "bernoulli", "--d", "0.01", "--m", "26", "--maxlen", "100"],
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=_limit_address_space,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].endswith(" size=45")
    assert len(done.stdout.splitlines()) == 46


def _spelling_commands(m):
    # density sample exited 0 or 1 by seed at m = 27 before the alphabet check;
    # abstract fillings listed its fillings before it failed to spell one.
    m = str(m)
    return [["words", "enumerate", "--m", m, "--maxlen", "1"],
            ["words", "sample", "--m", m, "--maxlen", "3"],
            ["stallings", "enumerate", "--m", m, "--max-edges", "1", "--max-betti", "1"],
            *(["--seed", str(seed), "density", "sample", "--model", "bernoulli", "--m", m,
               "--maxlen", "3", "--d", "0.2"] for seed in range(1, 7)),
            ["abstract", "fillings", "--in", "{diagram}", "--m", m, "--maxlen", "2",
             "--graph", "{graph}"]]


def _with_files(tmp_path, argv):
    """argv with {diagram} a one-face abstract diagram (a bigon) and {graph}
    a loop, written under tmp_path."""
    from freiheit.abstract_diagrams import AbstractDistortionDiagram, \
        _one_face_abstract, abstract_to_json

    diagram, graph = tmp_path / "one.json", tmp_path / "loop.txt"
    diagram.write_text(abstract_to_json(AbstractDistortionDiagram(_one_face_abstract(2), 0, 0)))
    graph.write_text("V 1\nE 0 0 a\n")
    return [arg.format(diagram=diagram, graph=graph) for arg in argv]


@pytest.mark.parametrize("argv", _spelling_commands(27))
def test_spelling_commands_refuse_more_than_26_letters(tmp_path, capsys, argv):
    code, out, err = run(capsys, *_with_files(tmp_path, argv))
    assert code == 1 and out == ""
    assert err == "domain error: need m <= 26 to spell letters as a..z, got m=27\n"


@pytest.mark.parametrize("argv", _spelling_commands(26))
def test_spelling_commands_run_at_26_letters(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *_with_files(tmp_path, argv))
    assert code == 0 and out


@pytest.mark.parametrize("seed", range(1, 13))
def test_collapse_refuses_more_than_26_generators_before_any_draw(capsys, seed):
    # At r = 27 the substitutions over X_r failed to print at some seeds only.
    code, out, err = run(capsys, "--seed", str(seed), "experiments", "collapse", "--m", "28",
                         "--r", "27", "--maxlen", "3", "--d", "0.45")
    assert code == 1 and out == ""
    assert err.startswith("domain error:")


def test_collapse_runs_at_26_generators(capsys):
    code, out, _ = run(capsys, "--seed", "8", "experiments", "collapse", "--m", "27", "--r",
                       "26", "--maxlen", "3", "--d", "0.45")
    assert code == 0 and strict_json(out)["r"] == 26


def test_words_sample_refuses_a_negative_count(capsys):
    code, out, err = run(capsys, "words", "sample", "--m", "2", "--maxlen", "3",
                         "--count", "-1")
    assert code == 1 and out == ""
    assert err == "domain error: need count >= 0, got count=-1\n"


def test_words_sample_of_no_words_prints_nothing(capsys):
    code, out, err = run(capsys, "words", "sample", "--m", "2", "--maxlen", "3",
                         "--count", "0")
    assert code == 0 and out == "" and err == ""


def test_density_intersect_refuses_a_negative_trial_count(capsys):
    code, out, err = run(capsys, "density", "intersect", "--da", "0.5", "--db", "0.5",
                         "--m", "2", "--lengths", "4", "--trials", "-1")
    assert code == 1 and out == ""
    assert err == "domain error: need trials >= 0, got trials=-1\n"


def test_experiments_bound_cli(capsys):
    code, out, _ = run(capsys, "experiments", "bound", "--K", "2", "--m", "3",
                       "--r", "2", "--d", "0.1")
    assert code == 0
    data = strict_json(out)
    assert data["crossover"] == 4852


@pytest.mark.parametrize("d", ["1.5", "nan"])
def test_experiments_collapse_refuses_a_density_off_the_model_on_the_fast_path(capsys, d):
    # |B_30|^d is past the materialization limit, so the trial takes the
    # fast path, which drew the collapse events at any d.
    code, out, err = run(capsys, "--seed", "3", "experiments", "collapse", "--m", "3",
                         "--r", "2", "--maxlen", "30", "--d", d)
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("lam", ["-1", "-3", "nan", "0"])
def test_diagrams_certify_refuses_a_lambda_that_is_not_a_positive_number(
        tmp_path, capsys, lam):
    # lambda = -1 divided by zero, -3 gave the threshold 1.5 and nan printed NaN.
    rel = tmp_path / "torsion.txt"
    rel.write_text("aaaa\n")
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    code, out, err = run(capsys, "diagrams", "certify", "--relators", str(rel),
                         "--graph", str(graph), "--K", "1", "--lambda", lam)
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("K", ["0", "-1"])
@pytest.mark.parametrize("op", ["enumerate", "certify"])
def test_diagrams_refuse_a_face_bound_below_one(tmp_path, capsys, op, K):
    # certify printed "holds": true with no diagram checked, and enumerate
    # printed "count": 0.
    rel = tmp_path / "commutator.txt"
    rel.write_text("abAB\n")
    graph = tmp_path / "loop.txt"
    graph.write_text("V 1\nE 0 0 a\n")
    extra = ["--graph", str(graph), "--lambda", "2"] if op == "certify" else []
    _refused(capsys, ["diagrams", op, "--relators", str(rel), "--K", K, *extra],
             "need K >= 1")


@pytest.mark.parametrize("K, d", [("0", "0.1"), ("-2", "0.1"), ("2", "nan"),
                                  ("2", "-0.1")])
def test_experiments_bound_refuses_bad_inputs(capsys, K, d):
    # K < 1 reported crossover 1 and d = nan died converting NaN to an int.
    code, out, err = run(capsys, "experiments", "bound", "--K", K, "--m", "3",
                         "--r", "2", "--d", d)
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and len(err.splitlines()) == 1


def test_python_m_freiheit_runs_the_cli():
    # A checkout runs the CLI without installing: PYTHONPATH=src python -m freiheit.
    src = str(Path(freiheit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "freiheit", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "experiments" in done.stdout
