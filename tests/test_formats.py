"""Fuzzing the parameter and element file parsers through the CLI.

Every input, however malformed, must give exit code 0 or 1 and never an
uncaught exception. Besides arbitrary text, the strategies mutate the
lines of valid files, so that the fuzzed values reach the checks behind
the line parser. Numeric values stay small: the parsers are under test
here, not how long a huge valid field takes to build.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twisted_dihedral.cli import main

SEEDED = [("param-gen", "--p", "3", "--m", "2", "--n", "3", "--out", "params",
           "--seed", "1"),
          ("keygen", "--params", "params", "--out-pk", "pk", "--out-sk", "sk",
           "--seed", "2"),
          ("encaps", "--params", "params", "--pk", "pk", "--out-ct", "ct",
           "--out-key", "key", "--seed", "3")]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Text of a seeded (3,2,3) parameter file and its pk, sk and ct files."""
    d = tmp_path_factory.mktemp("valid")
    for argv in SEEDED:
        assert main([str(d / a) if a in ("params", "pk", "sk", "ct", "key")
                     else a for a in argv]) == 0
    return {name: (d / name).read_text() for name in ("params", "pk", "sk", "ct")}


small_ints = st.integers(-3, 12).map(str)
values = st.one_of(
    st.text(max_size=12), small_ints,
    st.lists(small_ints, min_size=0, max_size=4).map(",".join),
    st.text("0123456789abcdefABCDEF", max_size=40))


@st.composite
def mutated(draw, text):
    """`text` with one to three lines dropped, doubled, cut or replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        line = lines[i] if lines else ""
        action = draw(st.sampled_from(["drop", "twice", "value", "text", "cut"]))
        if action == "drop":
            lines[i:i + 1] = []
        elif action == "twice":
            lines[i:i] = [line]
        elif action == "value":
            key = line.split("=", 1)[0] + "=" if "=" in line else ""
            lines[i:i + 1] = [key + draw(values)]
        elif action == "text":
            lines[i:i + 1] = [draw(st.text(max_size=30))]
        else:
            lines[i:i + 1] = [line[:draw(st.integers(0, len(line)))]]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def fuzzed(text):
    return st.one_of(st.text(max_size=200), mutated(text))


def run_cli(files, argv):
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text, encoding="utf-8")
        rc = main([os.path.join(d, a) if a in files or a == "out" else a
                   for a in argv])
    assert rc in (0, 1)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data())
def test_fuzzed_param_file(valid_files, data):
    files = dict(valid_files, params=data.draw(fuzzed(valid_files["params"])))
    run_cli(files, ["decaps", "--params", "params", "--sk", "sk", "--ct", "ct",
                    "--out-key", "out"])


@FUZZ
@given(data=st.data())
def test_fuzzed_element_files(valid_files, data):
    files = dict(valid_files)
    for name in ("pk", "sk", "ct"):
        if data.draw(st.booleans()):
            files[name] = data.draw(fuzzed(valid_files[name]))
    run_cli(files, ["decaps", "--params", "params", "--sk", "sk", "--ct", "ct",
                    "--out-key", "out"])
    run_cli(files, ["encaps", "--params", "params", "--pk", "pk",
                    "--out-ct", "out", "--out-key", "out", "--seed", "4"])
