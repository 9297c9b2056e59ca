"""Fixtures shared between test modules."""

import random

import pytest

from freiheit import experiments
from freiheit.density import DensityModel, sample_relator_set
from freiheit.stallings import fold, wedge_of_words
from freiheit.words import Word


@pytest.fixture(scope="session")
def sampled_freeness_probes():
    """The freeness probes of 40 low-density sampled sets (m=3, l=10,
    d=0.15, seeds 4000-4039) with a budget scaled down from the headline
    setting to keep the breadth-first rewriting affordable in pure Python.

    Returns ``(reports, verdicts)``: the 40 reports in seed order, and every
    bounded word problem verdict, recorded on its way to the probe, in call
    order (a report with no collapse keeps none of them). Computed once per
    session, since the 40 probes take seconds."""
    search = experiments.bounded_triviality
    verdicts = []

    def recorded(*args):
        verdict = search(*args)
        verdicts.append(verdict)
        return verdict

    graph = fold(wedge_of_words([Word((1,)), Word((2,))]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "bounded_triviality", recorded)
        reports = [
            experiments.freeness_probe(
                sample_relator_set(3, 10, DensityModel("bernoulli", 0.15, 0),
                                   random.Random(4000 + t)),
                graph, {"word_length": 5, "max_steps": 30, "max_states": 400})
            for t in range(40)]
    return reports, verdicts
