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

from freiheit.abstract_diagrams import (AbstractDistortionDiagram, abstract_to_json,
                                        enumerate_abstract_diagrams,
                                        underlying_abstract)
from freiheit.cli import dispatch
from freiheit.density import make_relator_set
from freiheit.diagrams import enumerate_reduced_disk_diagrams
from freiheit.words import word_from_text

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


def test_abstract_enumeration_json_is_pinned():
    enum = enumerate_abstract_diagrams(2, 4)
    assert (enum.iso_count, enum.labeled_count) == (267, 786)
    assert len(enum.representatives) == 267
    digest = hashlib.sha256()
    for rep in enum.representatives:
        digest.update(abstract_to_json(AbstractDistortionDiagram(rep, 0, 0)).encode())
    assert digest.hexdigest() == \
        "fac99faea0979feea825ee3b0c520d3a6fa813944c0f9df1d50730871a9e4119"


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
        "5c40d5420eb817eba813d863f8d37434767ee3a7137fa6f5ad5dc9cb4634f948"


def test_words_sample_cli_output_is_pinned(capsys):
    # The README's line: five uniform draws from B_12, one rng stream.
    argv = ["--seed", "7", "words", "sample", "--m", "2", "--maxlen", "12", "--count", "5"]
    assert dispatch(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "AbAABaBAbAbA"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1eca07d57d63a42d953e78c7dfc5ae80cfae162ce452fab17e2c33208b4081b3"


def test_freeness_probe_reports_are_pinned(sampled_freeness_probes):
    # The reports' repr pins each outcome and count; the bounded word
    # problem's verdicts, recorded on their way to the probe, pin its 4,080
    # searches (a report with no collapse keeps none of them).
    reports, verdicts = (hashlib.sha256(b"".join(repr(x).encode() for x in xs))
                         for xs in sampled_freeness_probes)
    assert reports.hexdigest() == \
        "a1e288a5c20aee0bf2740d3bddfecb423c62f60fbda86d122fb9ea9d07440b3b"
    assert verdicts.hexdigest() == \
        "addba0a3caaf8db1a77b0101c7695b2aed118913b157cbf30539c9e4650b2f4f"
