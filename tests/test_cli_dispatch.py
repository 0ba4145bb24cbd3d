"""Generated argv through cli.main, with and without the per-command parse: same bytes.

cli.main parses an argv that starts with a command name with that command's
parser alone.  Every argv here runs twice: once so, and once with the
command table emptied, so that the full parser parses it, as
build_parser().parse_args(argv) followed by args.fn(args).  Exit code,
stdout and stderr must match.  The argvs mix each command's flags, given
as --flag VALUE, as --flag=VALUE or abbreviated, with unknown flags, extra
positionals, --, -h after a command, unknown commands and the empty argv.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpacct.cli import build_parser, main

# Each command's flags and some values for them; "L" stands for the ledger.
FLAGS = {
    "compose": {"ledger": ["L"]},
    "curve": {"ledger": ["L"], "method": ["simple", "refined", "exact_gaussian", "bogus"], "grid": ["0:3:7", "1e-9:0.5:5", "x"]},
    "calibrate": {"sensitivity": ["1", "-1"], "rho": ["0.5", "nan"], "eps": ["1", "0"], "delta": ["1e-6", "2"]},
    "group": {"rho": ["0.1"], "ledger": ["L"], "k": ["3", "0", "x"]},
    "convert": {"eps": ["0.7", "-1e308"], "delta": ["1e-6", "1"], "rho": ["0.5", "1e300"]},
    "mi-demo": {"eps": ["0.8", "0"], "k": ["2", "9"]},
    "verify": {"seed": ["1", "x"]},
}  # fmt: skip
POSITIONALS = {"curve": ["delta_of_eps", "eps_of_delta"], "verify": ["bogus"]}
JUNK = ["--bogus", "--bogus=1", "-x", "extra", "--", "-h", "--help", "--he", "-", "a\nb", "--k", "-1"]


def given_flag(name, values):
    """--name VALUE or --name=VALUE, the name possibly cut to a prefix of two letters or more."""
    cut = st.integers(min(2, len(name)), len(name)).map(lambda n: name[:n])
    return st.one_of(
        st.tuples(cut, st.sampled_from(values)).map(lambda t: [f"--{t[0]}", t[1]]),
        st.tuples(cut, st.sampled_from(values)).map(lambda t: [f"--{t[0]}={t[1]}"]),
    )


@st.composite
def argvs(draw):
    name = draw(st.sampled_from([*FLAGS, "bogus", "frobnicate"]))
    argv = [name]
    argv += draw(st.lists(st.sampled_from(POSITIONALS.get(name, ["extra"])), max_size=1))
    for flag, values in FLAGS.get(name, {}).items():
        argv += draw(st.one_of(st.just([]), given_flag(flag, values)))
    # Stray arguments, anywhere after the command.
    for junk in draw(st.lists(st.sampled_from(JUNK), max_size=3)):
        argv.insert(draw(st.integers(1, len(argv))), junk)
    return argv


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    path = tmp_path_factory.mktemp("dispatch") / "ledger.json"
    doc = {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 2.0}}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(argv):
    """Exit code, stdout and stderr of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_same_as_full_parser(argv):
    fast = run(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(build_parser(), "commands", {})
        full = run(argv)
    assert fast == full, argv


def test_extra_arguments_are_the_top_level_parsers_error():
    assert run(["convert", "--rho", "0.5", "--delta", "1e-6", "--bogus"]) == (
        2, "", "cdpacct: error: unrecognized arguments: --bogus\n"
    )


def test_the_command_table_is_the_subparsers_choices():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert parser.commands == sub.choices
    assert all(parser.commands[name] is p for name, p in sub.choices.items())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["-h"],
        ["--", "convert", "--eps", "1"],
        ["convert", "--rho", "0.5", "--delta", "1e-6", "--bogus"],
        ["convert", "--eps", "1", "extra", "--bogus=2"],
        ["convert", "-h"],
        ["curve", "--led", "L", "--grid=0:1:3", "--", "eps_of_delta"],
        ["verify", "-h", "bogus"],
    ],
)
def test_named_argvs_match_the_full_parser(argv, ledger):
    assert_same_as_full_parser([ledger if a == "L" else a for a in argv])


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(argv=argvs())
def test_dispatch_matches_the_full_parser(argv, ledger):
    assert_same_as_full_parser([ledger if a == "L" else a for a in argv])
