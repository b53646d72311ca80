"""Argv fuzzing: any value of up to three flags exits 0 or 2, never crashes.

Hypothesis picks a subcommand, up to three of its flags as the parser
declares them, and for each a value from an edge set: zero, negative, nan,
infinities, huge and empty numbers, separators, non-ASCII text, a directory
and a path under a missing directory.  Each run starts from small base
arguments, so a value that validation accepts still runs quickly, and runs
in-process inside a scratch directory that takes any file it writes.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qgka import cli

#: small valid arguments per subcommand; a fuzzed flag given after them wins
BASE = {
    "trace": ["trace", "join", "--group-size", "4", "--degree", "2"],
    "cost": ["cost", "--protocol", "tree-leave", "--N", "8", "--d", "2"],
    "sweep-degree": ["sweep-degree", "--N", "16", "--xi-list", "0", "--d-max", "4"],
    "simulate": ["simulate", "--initial", "4", "--degree", "2", "--steps", "2"],
    "attack": ["attack", "--strategy", "cnot", "--decoys", "4", "--trials", "3"],
}

EDGE = (
    "0", "-1", "nan", "inf", "-inf", "1e308", "", ",", "1" * 25, "ü☃",
    "{dir}", "{missing}/x",
)

cli.build_parser()  # declares every subcommand's flags
FLAGS = {
    name: [a for a in parser._actions if a.option_strings and a.dest != "help"]
    for name, parser in cli._SUBPARSERS.items()
}


@st.composite
def argvs(draw) -> list[str]:
    name = draw(st.sampled_from(sorted(FLAGS)))
    actions = draw(st.permutations(FLAGS[name]))[: draw(st.integers(1, 3))]
    argv = list(BASE[name])
    for action in actions:
        flag = action.option_strings[0]
        if action.nargs != 0:  # a store_true flag takes no value
            flag = f"{flag}={draw(st.sampled_from(EDGE))}"
        argv.append(flag)
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    cwd = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(cwd)


@settings(
    max_examples=200, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_fuzzed_flags_exit_0_or_2(workdir, capsys, argv):
    argv = [a.format(dir=workdir, missing=workdir / "missing") for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
