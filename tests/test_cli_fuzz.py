"""Generated argv and ledgers through cli.main: only documented exit codes, one-line errors.

Exit codes are 0, 2 (usage or schema) and 3 (I/O); 1, a verification
failure, only from verify and mi-demo.  Every error is one stderr line with
no traceback, whether cdpacct or argparse refuses the argv.  Numeric flags
are passed as --flag=VALUE, so that argparse takes values such as -1e308 as
numbers, or as --flag VALUE, where it takes them for an unknown option.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdpacct.cli import VERIFY_SUITES, main

EDGE_NUMBERS = [
    "0", "-0", "5e-324", "1e-320", "1e-300", "1e-100", "1e-12", "1e-6", "0.5", "1", "-1",
    "0.999999", "0.9999999999999999", "524287.99999999994", "524288", "524288.00000000006",
    "2.7e154", "1e300", "1e308", "-1e308",
]  # fmt: skip


def powers(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# Values argparse refuses before any command runs.
REFUSED_NUMBERS = ["nan", "inf", "-inf", "1e400", "x", ""]

# Edge values, values of the size real budgets have, any finite float, and refused values.
numbers = st.one_of(
    st.sampled_from(EDGE_NUMBERS),
    st.sampled_from(REFUSED_NUMBERS),
    powers(-12, 6).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
probabilities = st.one_of(
    st.sampled_from(["5e-324", "1e-300", "1e-12", "1e-6", "0.5", "0.999999", "0.9999999999999999"]),
    powers(-300, -1e-9).map(repr),
)
ledger_numbers = st.one_of(
    st.sampled_from([0, -0.0, 5e-324, 1e-300, 1e-6, 0.5, 1, -1, 524288, 1e154, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**30), 10**30),
)
FIELDS = {
    "gaussian": ("sensitivity", "sigma"),
    "pure_dp": ("eps",),
    "approx_dp": ("eps", "delta"),
    "zcdp": ("xi", "rho", "delta"),
    "mcdp": ("mu", "tau"),
}
PLAUSIBLE = {"delta": powers(-14, -1), "xi": powers(-6, -1), "mu": powers(0, 1), "tau": powers(-3, -0.5)}


@st.composite
def entries(draw, plausible):
    """One ledger entry, with fields of the size real budgets have or with any numbers."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    pick = (lambda f: PLAUSIBLE.get(f, powers(-6, 2))) if plausible else (lambda f: ledger_numbers)
    return {"kind": kind, "params": {f: draw(pick(f)) for f in FIELDS[kind]}}


MALFORMED_LEDGERS = [
    "", "{", "[]", "null", '{"entries": 3}', '{"entries": []}', '{"entries": [7]}',
    '{"entries": [{"kind": "gaussian"}]}',
    '{"entries": [{"kind": "gaussian", "params": []}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": 1}}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": "1", "sigma": 1}}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": true, "sigma": 1}}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": 1, "sigma": 1e400}}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": NaN, "sigma": 1}}]}',
    '{"entries": [{"kind": "gaussian", "params": {"sensitivity": 1, "sigma": -Infinity}}]}',
    '{"entries": [{"kind": ["gaussian"], "params": {}}]}',
    '{"entries": [{"kind": "laplace", "params": {"b": 1}}]}',
    '{"entries": [{"kind": "pure_dp", "params": {"eps": 1, "extra": 2}}]}',
    '{"entries": [{"kind": "pure_dp", "params": {"eps": 1}, "label": 5}]}',
    '{"entries": [{"kind": "pure_dp", "params": {"eps": 1}, "note": "x"}]}',
    "\ufeff{}",
]  # fmt: skip

plausible_ledgers = st.lists(entries(True), min_size=1, max_size=4)
ledgers = st.one_of(
    plausible_ledgers.map(lambda e: json.dumps({"entries": e})),
    plausible_ledgers.map(lambda e: json.dumps({"entries": e})),
    st.lists(entries(False), min_size=1, max_size=4).map(lambda e: json.dumps({"entries": e})),
    st.sampled_from(MALFORMED_LEDGERS),
    st.text(max_size=40),
    st.none(),  # no such file
)


def grid(ends):
    points = st.sampled_from(["2", "3", "17", "1", "0", "-4", "1000001", "1e3", "x"])
    return st.builds(lambda e, n: ":".join(sorted(e, key=float) + [n]), st.tuples(ends, ends), points)


def given_flag(name, values):
    return st.one_of(values.map(lambda v: [f"--{name}={v}"]), values.map(lambda v: [f"--{name}", str(v)]))


def flag(name, values):
    """An optional --name=VALUE."""
    return st.one_of(st.just([]), given_flag(name, values))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


ledger = st.just(["--ledger", "LEDGER"])
method = flag("method", st.sampled_from(["simple", "refined", "exact_gaussian"]))
out = st.sampled_from([[], ["--out", "OUT"], ["--out", "MISSING_DIR/out.txt"]])
group_k = given_flag("k", st.sampled_from([-1, 0, 1, 2, 7, 1000, 10**6 + 1, 10**18]))
eps, delta, rho = given_flag("eps", numbers), given_flag("delta", probabilities), given_flag("rho", numbers)

# Each command in the flag combinations it documents, and in any combination.
argvs = st.one_of(
    command("compose", ledger, out),
    command("curve", st.just(["eps_of_delta"]), ledger, method, given_flag("grid", grid(probabilities)), out),
    command("curve", st.just(["delta_of_eps"]), ledger, method, given_flag("grid", grid(numbers)), out),
    command("curve", ledger, flag("grid", st.sampled_from(["", "1:2", "1:2:3:4", "a:b:c"])), out),
    command("calibrate", given_flag("sensitivity", numbers), eps, delta, out),
    command("calibrate", given_flag("sensitivity", numbers), rho, out),
    command(
        "calibrate",
        *(flag(n, numbers) for n in ("sensitivity", "rho", "eps", "delta")),
        out,
    ),
    command("group", rho, group_k, out),
    command("group", ledger, group_k, out),
    command("group", flag("rho", numbers), flag("ledger", st.just("LEDGER")), flag("k", st.integers()), out),
    command("convert", eps, out),
    command("convert", eps, delta, out),
    command("convert", rho, delta, out),
    command("convert", rho, eps, out),
    command("convert", *(flag(n, numbers) for n in ("eps", "delta", "rho")), out),
    command("mi-demo", flag("eps", numbers), flag("k", st.sampled_from([-1, 0, 1, 3, 8, 9])), out),
    # Unknown commands and flags, missing values, and stray arguments.
    st.tuples(
        st.sampled_from(["compose", "curve", "calibrate", "group", "convert", "mi-demo", "verify", "bogus"]),
        st.lists(st.sampled_from(["--delta", "1", "--bogus", "--ledger", "--k", "-1e308", "x", "a\nb"]), max_size=4),
    ).map(lambda t: [t[0], *t[1]]),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv, ledger, workdir):
    """Exit code and stderr of cli.main(argv), with LEDGER, OUT and MISSING_DIR made real."""
    path = workdir / "ledger.json"
    path.unlink(missing_ok=True)
    if ledger is not None:
        path.write_text(ledger, encoding="utf-8")
    names = {"LEDGER": str(path), "OUT": str(workdir / "out.txt"), "MISSING_DIR": str(workdir / "no")}
    for name, value in names.items():
        argv = [a.replace(name, value) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    return code, err.getvalue()


def assert_contract(argv, code, err):
    allowed = {0, 1, 2, 3} if argv[0] in ("verify", "mi-demo") else {0, 2, 3}
    assert code in allowed, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, code, err)


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(argv=argvs, ledger=ledgers)
def test_every_command_exits_with_a_documented_code(argv, ledger, workdir):
    code, err = run(argv, ledger, workdir)
    assert_contract(argv, code, err)


@settings(max_examples=12, deadline=10000, derandomize=True, database=None)
@given(
    argv=st.tuples(st.sampled_from(VERIFY_SUITES), st.integers(0, 2**32), out).map(
        lambda t: ["verify", t[0], f"--seed={t[1]}"] + t[2]
    )
)
def test_verify_exits_with_a_documented_code(argv, workdir):
    code, err = run(argv, None, workdir)
    assert_contract(argv, code, err)
