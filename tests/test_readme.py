"""The README's commands and sweep configs stay in step with the code: every
``freiheit`` line in a code block parses with the CLI's parser (nothing is
run), every sweep config it shows passes the config reader and
TransitionConfig's validation, the sweep CSV columns it lists are the
ones the sweep writes, and the exact collapse probabilities it quotes are
the ones ``collapse_success_probability`` gives."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from freiheit.cli import build_parser, read_config
from freiheit.experiments import SWEEP_COLUMNS, collapse_success_probability, critical_density

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [" ".join(line.split()) for lang, body in BLOCKS if not lang
            for line in body.replace("\\\n", " ").splitlines()
            if line.startswith("freiheit ")]
CONFIGS = ([body for lang, body in BLOCKS if lang == "json"]
           + re.findall(r"\*Sweep config\*: JSON: `(\{.*?\})`", README, re.S))


def test_readme_shows_commands_and_configs():
    assert len(COMMANDS) >= 17 and len(CONFIGS) == 2


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


@pytest.mark.parametrize("text", CONFIGS, ids=[f"config{i}" for i in range(len(CONFIGS))])
def test_readme_sweep_config_is_valid(tmp_path, text):
    path = tmp_path / "sweep.json"
    path.write_text(text)
    cfg = read_config(str(path))
    assert cfg.lengths and cfg.densities and cfg.trials >= 1
    assert json.loads(text)["m"] == cfg.m


def test_readme_lists_the_sweep_columns():
    listed = re.search(r"Sweep CSV columns:\s*`([^`]*)`", README)
    assert listed is not None
    assert tuple(re.split(r",\s*", listed.group(1))) == SWEEP_COLUMNS


def _collapse_probability(maxlen: int, d: float) -> float:
    return math.prod(collapse_success_probability(3, 2, maxlen, d).values())


def _half_crossover(maxlen: int) -> float:
    """The density at which P(collapse) = 1/2 at m = 3, r = 2, by bisection."""
    lo, hi = 0.0, critical_density(3, 2).d_r
    assert _collapse_probability(maxlen, lo) < 0.5 < _collapse_probability(maxlen, hi)
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _collapse_probability(maxlen, mid) < 0.5 else (lo, mid)
    return (lo + hi) / 2


def test_readme_collapse_crossovers_are_the_exact_ones():
    claim = re.search(r"P\(collapse\) = 1/2 at d = (0\.\d+) for\s+l = (\d+) and at "
                      r"d = (0\.\d+) for l = (\d+)", README)
    assert claim is not None
    for d, maxlen in ((claim[1], claim[2]), (claim[3], claim[4])):
        assert abs(_half_crossover(int(maxlen)) - float(d)) <= 0.001
    # The crossover rises with l and stays below d_2 ~ 0.3174.
    crossovers = [_half_crossover(maxlen) for maxlen in (12, 20, 40)]
    assert crossovers == sorted(crossovers)
    assert crossovers[-1] < critical_density(3, 2).d_r


def test_readme_quotes_the_exact_collapse_probabilities():
    claim = re.search(r"word length (\d+), the collapse\s+frequency is [\d.]+ at density "
                      r"(0\.\d+) and [\d.]+ at (0\.\d+)\s+\(`collapse_success_probability` "
                      r"gives ([\d.]+) and ([\d.]+) exactly\)", README)
    assert claim is not None
    maxlen = int(claim[1])
    for d, p in ((claim[2], claim[4]), (claim[3], claim[5])):
        assert abs(_collapse_probability(maxlen, float(d)) - float(p)) <= 0.0005
