"""The exit-code contract under fuzzing: `cli.main` returns 0, 2, 3 or 4,
lets no exception escape, and leaves a diagnostic.txt when it returns 3.

The base config is README's channel example on a 16x4 mesh, with the disk
radius raised from 0.08 to 0.15 so that the coarse mesh resolves it (at 0.08
the filtered level set no longer crosses zero there). Hypothesis mutates one
key or section header at a time, and truncates or corrupts the checkpoint of
a one-iteration optimization before `--restart`. The key and header spaces
are small enough to run through whole: Hypothesis stops once it has drawn
every example. Checkpoint values are sampled, since every restart that reads
a valid checkpoint runs one optimization iteration.
"""

import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutflow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _base():
    text = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    for old, new in (("nx = 160", "nx = 16"), ("ny = 40", "ny = 4"),
                     ("solid_disk 0.3 0.2 0.08", "solid_disk 0.3 0.2 0.15")):
        assert old in text
        text = text.replace(old, new)
    return text.splitlines()


LINES = _base()
KEYS = [i for i, line in enumerate(LINES) if "=" in line]
HEADERS = [i for i, line in enumerate(LINES) if line.startswith("[")]
# drop the key; wrong type, NaN, inf, negative, zero, an unknown name; a list
# one entry short or one entry long
MUTATIONS = ("drop", "abc", "nan", "inf", "negate", "0", "nowhere", "shorten", "extend")
# an unknown section, a tagged section without its tag or with an empty or
# unknown one, an unknown key
HEADER_MUTATIONS = (lambda h: "[bogus]", lambda h: "[criterion]", lambda h: "[boundary.]",
                    lambda h: h[:-1] + "x]", lambda h: h + "\nbogus = 1")
JSON_VALUES = (None, "x", -1, 0, 1.5, float("nan"), [], {}, [1.0], "delete")


def _settings(n):
    return settings(max_examples=n, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _mutated(i, how):
    """The base config with key line i mutated."""
    lines = list(LINES)
    key, value = (part.strip() for part in lines[i].split("=", 1))
    tokens = value.split()
    new = {"negate": " ".join("-" + tok for tok in tokens),
           "shorten": " ".join(tokens[:-1]),
           "extend": " ".join(tokens + tokens[-1:])}.get(how, how)
    if how == "drop":
        del lines[i]
    else:
        lines[i] = f"{key} = {new}"
    return lines


def _run(argv, outdir):
    code = main(argv + ["--output", outdir])
    assert code in (0, 2, 3, 4)
    if code == 3:
        assert os.path.exists(os.path.join(outdir, "diagnostic.txt"))
    return code


def _analyze(lines):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.cfg")
        Path(path).write_text("\n".join(lines) + "\n")
        return _run(["analyze", "--config", path], os.path.join(d, "out"))


def _restart(config, data):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "checkpoint.json")
        Path(path).write_bytes(data)
        _run(["optimize", "--config", config, "--restart", path], os.path.join(d, "out"))


def test_base_config_runs():
    assert _analyze(LINES) == 0


@_settings(400)
@given(st.sampled_from(KEYS), st.sampled_from(MUTATIONS))
def test_config_key_mutation_exit_codes(i, how):
    _analyze(_mutated(i, how))


@_settings(80)
@given(st.sampled_from(HEADERS), st.sampled_from(HEADER_MUTATIONS))
def test_config_section_mutation_exit_codes(i, mutate):
    lines = list(LINES)
    lines[i] = mutate(lines[i])
    _analyze(lines)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """(config resuming at iteration 2, checkpoint bytes after iteration 1)."""
    d = tmp_path_factory.mktemp("checkpoint")
    first, resume = d / "first.cfg", d / "resume.cfg"
    first.write_text("\n".join(LINES) + "\n[gcmma]\nmax_outer = 1\n")
    resume.write_text("\n".join(LINES) + "\n[gcmma]\nmax_outer = 2\n")
    assert _run(["optimize", "--config", str(first)], str(d / "out")) == 0
    return str(resume), (d / "out" / "checkpoint.json").read_bytes()


@_settings(30)
@given(st.data())
def test_truncated_or_overwritten_checkpoint_exit_codes(checkpoint, data):
    config, good = checkpoint
    bad = bytearray(good[:data.draw(st.integers(1, len(good)))])
    if data.draw(st.booleans()):
        bad[data.draw(st.integers(0, len(bad) - 1))] = data.draw(st.integers(0, 255))
    _restart(config, bytes(bad))


def _paths(obj, path=()):
    """Every key path of a checkpoint's JSON, and the first entry of each list."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield path + (k,)
            yield from _paths(v, path + (k,))
    elif isinstance(obj, list) and obj:
        yield path + (0,)


@_settings(80)
@given(st.data())
def test_checkpoint_value_exit_codes(checkpoint, data):
    # one value of the checkpoint's JSON replaced or deleted
    config, good = checkpoint
    obj = json.loads(good)
    *parent, last = data.draw(st.sampled_from(sorted(_paths(obj), key=str)))
    value = data.draw(st.sampled_from(JSON_VALUES))
    node = obj
    for k in parent:
        node = node[k]
    if value == "delete":
        del node[last]
    else:
        node[last] = value
    _restart(config, json.dumps(obj).encode())
