"""Golden outputs of the two diagram enumerations, and a cross-check between
them: concrete diagrams forget their letters into the abstract family;
golden outputs of the sampled CLI commands for fixed seeds; and the
freeness probe's reports on sampled sets.

The digests pin the byte-exact output of the enumerations and the JSON
codecs, so any change to the gluing order, the canonical keys or the
serialization shows up here. The sampled digests pin the random streams: a
change that alters them must say so and re-pin."""

import hashlib
import json
import random

from freiheit.abstract_diagrams import (AbstractDistortionDiagram, abstract_to_json,
                                        enumerate_abstract_diagrams,
                                        underlying_abstract)
from freiheit import experiments
from freiheit.cli import dispatch
from freiheit.density import DensityModel, make_relator_set, sample_relator_set
from freiheit.diagrams import enumerate_reduced_disk_diagrams
from freiheit.experiments import run_trial
from freiheit.seeds import rng_for
from freiheit.stallings import wedge_of_words
from freiheit.words import Word, word_from_text

from oracles import abstract_iso_key

DISK_RELATORS = ("aab", "bba", "abAB", "aaBB")


def test_disk_enumeration_cli_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "relators.txt"
    path.write_text("".join(w + "\n" for w in DISK_RELATORS))
    assert dispatch(["diagrams", "enumerate", "--relators", str(path), "--K", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["count"] == 983
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "de7f714d1d98848b6b037852fda71ad0c925418fedc03ddc6c17824633941a35"


def _representatives_digest(enum):
    digest = hashlib.sha256()
    for rep in enum.representatives:
        digest.update(abstract_to_json(AbstractDistortionDiagram(rep, 0, 0)).encode())
    return digest.hexdigest()


def test_abstract_enumeration_json_is_pinned():
    enum = enumerate_abstract_diagrams(2, 4)
    assert (enum.iso_count, enum.labeled_count) == (267, 786)
    assert len(enum.representatives) == 267
    assert _representatives_digest(enum) == \
        "fac99faea0979feea825ee3b0c520d3a6fa813944c0f9df1d50730871a9e4119"


def test_abstract_enumeration_json_is_pinned_at_face_length_5():
    # A size the benchmark does not run.
    enum = enumerate_abstract_diagrams(2, 5)
    assert (enum.iso_count, enum.labeled_count) == (733, 2278)
    assert len(enum.representatives) == 733
    assert _representatives_digest(enum) == \
        "27a06251fe73814c52cd7ef6cb75d24c9f9d2f3136cfa7c764980cd253b59a4a"


def test_concrete_diagrams_forget_into_abstract_classes():
    relators = make_relator_set(2, 4, [word_from_text(w) for w in DISK_RELATORS])
    classes = {abstract_iso_key(rep)
               for rep in enumerate_abstract_diagrams(2, 4).representatives}
    # The oracle separates every representative the enumeration returns.
    assert len(classes) == 267
    disks = list(enumerate_reduced_disk_diagrams(relators, 2))
    assert len(disks) == 56
    for d in disks:
        ad, _ = underlying_abstract(d)
        assert abstract_iso_key(ad) in classes


def test_density_sample_cli_output_is_pinned(capsys):
    argv = ["--seed", "7", "density", "sample", "--model", "bernoulli",
            "--d", "0.4", "--m", "2", "--maxlen", "10"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("# model=bernoulli d=0.4 m=2 maxlen=10 size=84\n")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ae79aa0170f9d1e5367720aee629431f1655bba550726915a5cb0376a513dff2"


def test_sweep_cli_output_is_pinned(tmp_path, capsys):
    # |B_8| = 9856 at m = 2: |B_8|^0.3 ~ 16 relators are materialized, while
    # |B_8|^0.6 ~ 249 exceeds the limit and runs on the fast path.
    config = {"m": 2, "r": 1, "lengths": [8], "densities": [0.3, 0.6], "trials": 20,
              "seed": 5, "budgets": {"materialize_limit": 100}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert dispatch(["experiments", "sweep", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[2].endswith(",249.0120805278597,5")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "56bf520b7e13e8076b12ee2f198dd2bd415a8eb04a5e2da96ba0b055a124a3e3"


def test_sweep_trial_results_are_pinned():
    # The sweep CLI prints per-cell frequencies only, so a change to the
    # sampled members can leave its digest in place. The repr of each trial
    # pins its relator count, its collapse witnesses and its triviality
    # outcome, on the cell streams the sweep derives (cell 0, di, t).
    results = [run_trial(3, 2, 8, d, "bernoulli", rng_for(5, "sweep", 0, di, t))
               for di, d in enumerate((0.1, 0.2)) for t in range(10)]
    assert not any(res.fast_path for res in results)
    assert sum(res.relator_count for res in results) == 177
    digest = hashlib.sha256(b"".join(repr(res).encode() for res in results))
    assert digest.hexdigest() == \
        "835a65f4efe7ecc0b39968cd1d1c41d7f66fc9cdf8ba9e6991d3733001460b11"


def test_words_enumerate_cli_output_is_pinned(capsys):
    # All of B_6 at m = 3, in length-then-lex order.
    argv = ["words", "enumerate", "--m", "3", "--maxlen", "6"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:3] == ["C", "B", "A"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "982f0955e86fc9a89887a96080bb7f2f9cf6de79e93d76bc3fdb520180edecbf"


def test_stallings_enumerate_cli_output_is_pinned(capsys):
    # The b1 = 1 cycles and the arc labelings of the b1 = 2, 3 types, in
    # the order the enumeration finds them.
    argv = ["stallings", "enumerate", "--m", "2", "--max-edges", "6", "--max-betti", "3"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert sum(line.startswith("V ") for line in out.splitlines()) == 1505
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9c7528aedc02af3931cb1ec67dccd2717b253a458748dfd889d639f35ec68d83"


def test_words_sample_cli_output_is_pinned(capsys):
    # The README's line: five uniform draws from B_12, one rng stream.
    argv = ["--seed", "7", "words", "sample", "--m", "2", "--maxlen", "12", "--count", "5"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ABAbAABaBBAB"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "99494767f2e51b76db5afda3d1c8e773bed56baebdd831b6647e4c830c683bab"


def test_freeness_probe_reports_are_pinned(sampled_freeness_probes):
    # The reports' repr pins each outcome and count; the bounded word
    # problem's verdicts, recorded on their way to the probe, pin its 4,080
    # searches (a report with no collapse keeps none of them).
    reports, verdicts = (hashlib.sha256(b"".join(repr(x).encode() for x in xs))
                         for xs in sampled_freeness_probes)
    assert reports.hexdigest() == \
        "a1e288a5c20aee0bf2740d3bddfecb423c62f60fbda86d122fb9ea9d07440b3b"
    assert verdicts.hexdigest() == \
        "5e8dfe2ce9fe84bbec31cd128ae948137cd9ab33ec22ac8210c6d31a8f777702"


def test_freeness_probe_verdicts_on_long_relators_are_pinned(monkeypatch):
    # Sets of relators up to 12 and 20 letters long (m=3, r=2, below d_2 ~
    # 0.317), probed with the README's budget, so that long rotated words
    # with no shared prefix past their first few letters are matched. No
    # probe finds a collapse, so the reports all read alike; the recorded
    # verdicts pin each search's step count.
    search = experiments.bounded_triviality
    verdicts = []

    def recorded(*args):
        verdict = search(*args)
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(experiments, "bounded_triviality", recorded)
    graph = wedge_of_words([Word((1,)), Word((2,))])
    reports, sizes = [], []
    for maxlen in (12, 20):
        for d in (0.05, 0.15, 0.25):
            for seed in range(1300, 1303):
                relators = sample_relator_set(3, maxlen, DensityModel("bernoulli", d, 0),
                                              random.Random(seed))
                sizes.append(len(relators))
                reports.append(experiments.freeness_probe(
                    relators, graph, {"word_length": 4, "max_steps": 60}))
    assert sizes == [6, 2, 2, 26, 22, 21, 123, 141, 129,
                     8, 6, 4, 121, 139, 124, 3290, 3362, 3360]
    assert len(verdicts) == 18 * 50
    digests = [hashlib.sha256(b"".join(repr(x).encode() for x in xs)).hexdigest()
               for xs in (reports, verdicts)]
    assert digests == [
        "017a3ae5d367fdc4417284ac73171a39746ee5629482e277f0ba45d3583655c3",
        "e8ca0fb0ba7271544e5d2af63f300df7420d16f1c9807a408ca15db737ad824e"]
