"""The README's commands and sweep configs stay in step with the code: every
``freiheit`` line in a code block parses with the CLI's parser (nothing is
run), every sweep config it shows passes the config reader and
TransitionConfig's validation, and the sweep CSV columns it lists are the
ones the sweep writes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from freiheit.cli import build_parser, read_config
from freiheit.experiments import SWEEP_COLUMNS

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
