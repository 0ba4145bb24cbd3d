import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cdpacct
from cdpacct import ZcdpParams, zcdp_to_dp_refined
from cdpacct.accountant import MAX_GROUP_SIZE
from cdpacct.cli import MAX_GRID_POINTS, REPORT_DELTAS, build_parser, fmt, grid_points, main

TWO_GAUSSIANS = {
    "entries": [
        {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}, "label": "q1"},
        {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}, "label": "q2"},
    ]
}


@pytest.fixture
def ledger_path(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(TWO_GAUSSIANS))
    return str(path)


# Every kind of entry, so the composed budget has xi, rho and delta_approx > 0;
# PLAIN keeps the entries with delta 0, which group privacy accepts.
MIXED = {
    "entries": [
        {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 3.0}},
        {"kind": "pure_dp", "params": {"eps": 0.1}},
        {"kind": "approx_dp", "params": {"eps": 0.2, "delta": 1e-7}},
        {"kind": "zcdp", "params": {"xi": 0.01, "rho": 0.05, "delta": 1e-8}},
        {"kind": "mcdp", "params": {"mu": 0.1, "tau": 0.2}},
    ]
}
PLAIN = {"entries": [e for e in MIXED["entries"] if e["kind"] in ("gaussian", "pure_dp", "mcdp")]}

# stdout of each command, byte for byte, keyed by its argv with LEDGER,
# PLAIN and GAUSS standing for the ledgers above.  The exact-Gaussian eps
# search is pinned on GAUSS: it stops at 1e-12, below its twelfth printed
# digit, so libm's last digits seldom reach the output.  The exact-Gaussian
# delta curve and the verify suite conversions are left out, as their last
# digits follow the platform's libm erfc and exp; so is the appendix
# suite, whose digits follow libm alone.  The pinned verify suites draw
# from random.Random(seed), whose draws are the same on every supported
# Python, and verify divergence normalizes its masses with math.fsum.
OUTPUT_PINS = json.loads((Path(__file__).parent / "cli_output_pins.json").read_text())


def write_ledger(tmp_path, doc, name="custom.json"):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def pin_ledgers(tmp_path):
    """The ledger paths the pinned commands name."""
    return {
        "LEDGER": write_ledger(tmp_path, MIXED),
        "PLAIN": write_ledger(tmp_path, PLAIN, "plain.json"),
        "GAUSS": write_ledger(tmp_path, TWO_GAUSSIANS, "gauss.json"),
    }


@pytest.mark.parametrize("command", sorted(OUTPUT_PINS))
def test_output_bytes_are_pinned(command, tmp_path, capsys):
    paths = pin_ledgers(tmp_path)
    assert main([paths.get(a, a) for a in command.split()]) == 0
    assert capsys.readouterr().out == OUTPUT_PINS[command]


class TestFmt:
    def test_twelve_significant_digits(self):
        assert fmt(0.5) == "5.00000000000e-01"
        assert fmt(1e-6) == "1.00000000000e-06"

    def test_specials(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(math.nan) == "nan"
        assert fmt(-math.nan) == "nan"
        assert fmt(-0.0) == "-0.00000000000e+00"


class TestSharedParser:
    """main parses with one parser per process, which keeps nothing from one call to the next."""

    def test_one_parser_build_per_process(self, monkeypatch):
        build_parser.cache_clear()
        built = [0]
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(50):
            assert main(["convert", "--eps", "0.7"]) == 0
        # The top-level parser and its seven subcommands, each built once.
        assert built[0] == 8

    # A usage error from argparse, an I/O error and an overflow.
    ERRORS = (
        (["compose", "--delta", "1"], 2),
        (["compose", "--ledger", "MISSING"], 3),
        (["convert", "--rho", "1e300", "--delta", "1e-6"], 2),
    )

    def test_pins_hold_between_errors(self, tmp_path, capsys):
        paths = {**pin_ledgers(tmp_path), "MISSING": str(tmp_path / "missing.json")}
        errors = {}
        for i, command in enumerate(sorted(OUTPUT_PINS)):
            argv, code = self.ERRORS[i % len(self.ERRORS)]
            try:
                got = main([paths.get(a, a) for a in argv])
            except SystemExit as exc:
                got = exc.code
            assert got == code
            out, err = capsys.readouterr()
            assert out == "" and err == errors.setdefault(i % len(self.ERRORS), err)
            assert main([paths.get(a, a) for a in command.split()]) == 0
            assert capsys.readouterr() == (OUTPUT_PINS[command], "")


def assert_usage_error(argv, capsys):
    """argv exits 2, from argparse or from the command, with one stderr line and no traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
    return err


class TestFlags:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {
            name: sorted(a.dest for a in p._actions if a.dest != "help")
            for name, p in sub.choices.items()
        }
        assert dests == {
            "compose": ["ledger", "out"],
            "curve": ["grid", "ledger", "method", "out", "target"],
            "calibrate": ["delta", "eps", "out", "rho", "sensitivity"],
            "group": ["k", "ledger", "out", "rho"],
            "convert": ["delta", "eps", "out", "rho"],
            "mi-demo": ["eps", "k", "out"],
            "verify": ["out", "seed", "suite"],
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--ledger", "LEDGER", "--delta", "1e-9"],
            ["compose", "--ledger", "LEDGER", "--method", "exact_gaussian"],
            ["curve", "--ledger", "LEDGER", "--seed", "42"],
            ["group", "--rho", "0.1", "--k", "3", "--eps", "1"],
            ["convert", "--rho", "inf", "--delta", "1e-6"],
            ["calibrate", "--sensitivity", "nan", "--rho", "0.5"],
        ],
    )
    def test_unread_flags_and_non_finite_numbers_exit_2(self, argv, ledger_path, capsys):
        argv = [ledger_path if a == "LEDGER" else a for a in argv]
        assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["compose", "--delta", "1"], "cdpacct compose: error: the following arguments are required: --ledger\n"),
            (["compose", "--ledger", "x", "a\nb"], "cdpacct: error: unrecognized arguments: a\\nb\n"),
        ],
    )
    def test_argparse_errors_are_the_error_line_alone(self, argv, line, capsys):
        assert assert_usage_error(argv, capsys) == line


class TestCompose:
    def test_two_gaussians_give_unit_rho(self, ledger_path, capsys):
        assert main(["compose", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "rho=1.00000000000e+00" in out
        assert "delta=1.00000000000e-06" in out

    def test_deltas_below_1e_16_are_not_lost(self, tmp_path, capsys):
        # 1 - prod(1 - delta) in floats printed delta_approx 0 here, and an
        # eps of 7.77530743964e-01 at delta = 1e-8, below the sound one.
        doc = {"entries": [{"kind": "approx_dp", "params": {"eps": 0.01, "delta": 1e-17}}] * 200}
        assert main(["compose", "--ledger", write_ledger(tmp_path, doc)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(" delta_approx=2.00000000000e-15")
        assert out[3] == "dp point at delta=1.00000000000e-08: eps=7.77530748970e-01"

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["compose", "--ledger", str(tmp_path / "nope.json")]) == 3

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = write_ledger(tmp_path, '{\n  "entries": [\n    {"kind": }\n  ]\n}')
        assert main(["compose", "--ledger", path]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err

    def test_non_utf8_ledger_names_its_path(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff")
        assert main(["compose", "--ledger", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0], err

    def test_empty_ledger_rejected(self, tmp_path, capsys):
        path = write_ledger(tmp_path, {"entries": []})
        assert main(["compose", "--ledger", path]) == 2
        assert "empty ledger" in capsys.readouterr().err

    def test_unknown_kind_names_entry_index(self, tmp_path, capsys):
        doc = {
            "entries": [
                {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}},
                {"kind": "laplace", "params": {"eps": 1.0}},
            ]
        }
        path = write_ledger(tmp_path, doc)
        assert main(["compose", "--ledger", path]) == 2
        assert "entry 1" in capsys.readouterr().err

    def test_missing_field_rejected(self, tmp_path, capsys):
        path = write_ledger(tmp_path, {"entries": [{"kind": "gaussian", "params": {"sigma": 1.0}}]})
        assert main(["compose", "--ledger", path]) == 2

    @pytest.mark.parametrize(
        "doc, line",
        [
            ({"entries": {}}, "PATH: 'entries' must be a list"),
            ({"entries": [1.0]}, "PATH: entry 0: must be an object"),
            (
                {"entries": [{"kind": "pure_dp", "params": {"eps": 1.0}, "weight": 2}]},
                "PATH: entry 0: unknown keys ['weight']",
            ),
            ({"entries": [{"kind": "pure_dp"}]}, "PATH: entry 0: needs 'kind' and 'params'"),
            ({"entries": [{"kind": "pure_dp", "params": [1.0]}]}, "PATH: entry 0: 'params' must be an object"),
            (
                {"entries": [{"kind": "pure_dp", "params": {"eps": 1.0}, "label": 3}]},
                "PATH: entry 0: 'label' must be a string",
            ),
            (
                {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 0.0}}]},
                "gaussian entry needs sigma > 0",
            ),
            (
                {"entries": [{"kind": "gaussian", "params": {"sensitivity": -1.0, "sigma": 1.0}}]},
                "gaussian entry needs sensitivity >= 0",
            ),
            (
                {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1e300, "sigma": 1e-10}}]},
                "arguments outside floating-point range (OverflowError)",
            ),
            (
                {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1e150, "sigma": 1e-150}}]},
                "arguments outside floating-point range (OverflowError)",
            ),
            pytest.param("[" * 100_000, "PATH: ledger is nested too deeply to parse", id="nesting"),
            pytest.param(
                '{"entries": [' + "1" * 5000 + "]}",
                "PATH: ledger holds an integer literal with too many digits",
                id="digits",
            ),
        ],
    )
    def test_each_refusal_is_its_own_line(self, doc, line, tmp_path, capsys):
        path = write_ledger(tmp_path, doc)
        assert main(["compose", "--ledger", path]) == 2
        assert capsys.readouterr() == ("", "error: " + line.replace("PATH", path) + "\n")

    def test_requires_ledger_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compose"])
        assert exc.value.code == 2

    def test_mixed_kinds_compose(self, tmp_path, capsys):
        doc = {
            "entries": [
                {"kind": "pure_dp", "params": {"eps": 1.0}},
                {"kind": "approx_dp", "params": {"eps": 0.5, "delta": 1e-6}},
                {"kind": "zcdp", "params": {"xi": 0.1, "rho": 0.2, "delta": 0.0}},
                {"kind": "mcdp", "params": {"mu": 1.0, "tau": 1.0}},
            ]
        }
        path = write_ledger(tmp_path, doc)
        assert main(["compose", "--ledger", path]) == 0
        out = capsys.readouterr().out
        # rho: 0.5 + 0.125 + 0.2 + 0.5; xi: 0.1 + 0.5
        assert "rho=1.32500000000e+00" in out
        assert "xi=6.00000000000e-01" in out


    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_constant_rejected(self, tmp_path, capsys, constant):
        path = write_ledger(
            tmp_path,
            '{"entries": [{"kind": "gaussian", "params": {"sensitivity": %s, "sigma": 1.0}}]}'
            % constant,
        )
        assert main(["compose", "--ledger", path]) == 2
        err = capsys.readouterr().err
        assert f"must be finite, got {constant}" in err and len(err.splitlines()) == 1

    def test_number_beyond_float_range_rejected(self, tmp_path, capsys):
        path = write_ledger(
            tmp_path,
            '{"entries": [{"kind": "gaussian", "params": {"sensitivity": 1e400, "sigma": 1}}]}',
        )
        err = assert_usage_error(["compose", "--ledger", path], capsys)
        assert "'sensitivity' must be finite" in err and len(err.splitlines()) == 1


class TestCurve:
    def test_csv_header_and_rows(self, ledger_path, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            ["curve", "delta_of_eps", "--ledger", ledger_path, "--grid", "1:6:6", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,value,method"
        assert len(lines) == 7
        assert lines[1].endswith(",refined")

    def test_refined_curve_handles_approximate_ledger(self, tmp_path):
        doc = {
            "entries": [
                {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 1.0}},
                {"kind": "zcdp", "params": {"xi": 0.1, "rho": 0.25, "delta": 1e-8}},
            ]
        }
        path = write_ledger(tmp_path, doc)
        out = tmp_path / "approx.csv"
        rc = main(
            ["curve", "delta_of_eps", "--ledger", path, "--grid", "1:9:5", "--out", str(out)]
        )
        assert rc == 0
        import cdpacct.accountant as acct

        composed = acct.compose(
            [acct.entry_to_zcdp(acct.LedgerEntry(e["kind"], e["params"])) for e in doc["entries"]]
        )
        da = composed.delta_approx
        assert da > 0.0
        plain = acct.ZcdpParams(composed.xi, composed.rho)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for x_txt, value_txt, _ in rows:
            eps = float(x_txt)
            assert float(value_txt) >= da
            if eps >= plain.xi + plain.rho:
                expect = da + (1.0 - da) * acct.zcdp_to_dp_refined(plain, eps)
                assert value_txt == fmt(min(1.0, expect))
        rc = main(
            [
                "curve",
                "eps_of_delta",
                "--ledger",
                path,
                "--grid",
                "1e-6:1e-3:4",
                "--out",
                str(tmp_path / "inv.csv"),
            ]
        )
        assert rc == 0

    def test_exact_gaussian_where_twice_rho_overflows(self, tmp_path, capsys):
        # rho = 1.7e308: delta at eps up to 1e308 is 1, and no eps the search
        # can reach meets a delta below 1.
        path = write_ledger(tmp_path, {"entries": [{"kind": "zcdp", "params": {"xi": 0, "rho": 1.7e308, "delta": 0}}]})
        args = ["curve", "delta_of_eps", "--ledger", path, "--grid", "0:1e308:3", "--method", "exact_gaussian"]
        assert main(args) == 0
        values = [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]]
        assert values == [fmt(1.0)] * 3
        err = assert_usage_error(["curve", "eps_of_delta", "--ledger", path, "--grid", "1e-9:1e-2:3",
                                  "--method", "exact_gaussian"], capsys)
        assert err == "error: no value in floating-point range meets the target\n"

    def test_byte_identical_across_runs(self, ledger_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curve", "delta_of_eps", "--ledger", ledger_path, "--grid", "0.5:8:40"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_delta_curve_is_nonincreasing(self, ledger_path, tmp_path):
        out = tmp_path / "c.csv"
        for method in ("simple", "refined", "exact_gaussian"):
            rc = main(
                [
                    "curve",
                    "delta_of_eps",
                    "--ledger",
                    ledger_path,
                    "--grid",
                    "0.5:9:30",
                    "--method",
                    method,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            values = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
            for hi, lo in zip(values, values[1:]):
                assert lo <= hi + 1e-15

    def test_eps_curve_is_nonincreasing_in_delta(self, ledger_path, tmp_path):
        out = tmp_path / "c.csv"
        for method in ("simple", "refined", "exact_gaussian"):
            rc = main(
                [
                    "curve",
                    "eps_of_delta",
                    "--ledger",
                    ledger_path,
                    "--grid",
                    "1e-9:0.5:30",
                    "--method",
                    method,
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            values = [float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]]
            for hi, lo in zip(values, values[1:]):
                assert lo <= hi + 1e-12

    def test_method_ordering_on_shared_grid(self, ledger_path, tmp_path):
        curves = {}
        for method in ("simple", "refined", "exact_gaussian"):
            out = tmp_path / f"{method}.csv"
            main(
                [
                    "curve",
                    "delta_of_eps",
                    "--ledger",
                    ledger_path,
                    "--grid",
                    "2:8:25",
                    "--method",
                    method,
                    "--out",
                    str(out),
                ]
            )
            curves[method] = [
                float(r.split(",")[1]) for r in out.read_text().splitlines()[1:]
            ]
        for exact, refined, simple in zip(
            curves["exact_gaussian"], curves["refined"], curves["simple"]
        ):
            assert exact <= refined + 1e-12
            assert refined <= simple + 1e-12

    def test_bad_grids_are_usage_errors(self, ledger_path):
        assert main(["curve", "--ledger", ledger_path, "--grid", "5:1:10"]) == 2
        assert main(["curve", "--ledger", ledger_path, "--grid", "1:5:1"]) == 2
        assert main(["curve", "--ledger", ledger_path, "--grid", "oops"]) == 2
        assert (
            main(["curve", "eps_of_delta", "--ledger", ledger_path, "--grid", "0.1:2:5"]) == 2
        )

    def test_oversized_grid_rejected(self, ledger_path, capsys):
        for n in (MAX_GRID_POINTS + 1, 10**13):
            argv = ["curve", "--ledger", ledger_path, "--grid", f"0:1:{n}"]
            err = assert_usage_error(argv, capsys)
            assert len(err.splitlines()) == 1

    def test_grid_points_match_linspace(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            lo, hi = sorted(rng.uniform(0.0, 10.0 ** rng.uniform(-8, 8), size=2))
            n = int(rng.integers(2, 300))
            assert grid_points(lo, hi, n) == [float(x) for x in np.linspace(lo, hi, n)]

    @pytest.mark.parametrize("method", ["simple", "refined", "exact_gaussian"])
    def test_vacuous_budget_has_no_finite_eps(self, tmp_path, method, capsys):
        path = write_ledger(
            tmp_path, {"entries": [{"kind": "approx_dp", "params": {"eps": 0.5, "delta": 1.0}}]}
        )
        argv = ["curve", "eps_of_delta", "--ledger", path, "--grid", "1e-9:0.5:5"]
        argv += ["--method", method]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 5 and all(r.split(",")[1] == "inf" for r in rows)

    def test_exact_gaussian_needs_zero_xi(self, tmp_path):
        path = write_ledger(
            tmp_path, {"entries": [{"kind": "mcdp", "params": {"mu": 1.0, "tau": 1.0}}]}
        )
        rc = main(
            ["curve", "--ledger", path, "--grid", "1:3:5", "--method", "exact_gaussian"]
        )
        assert rc == 2

    @pytest.mark.parametrize("target", ["delta_of_eps", "eps_of_delta"])
    def test_exact_gaussian_rule_comes_from_the_library(self, tmp_path, target, capsys):
        path = write_ledger(
            tmp_path, {"entries": [{"kind": "zcdp", "params": {"xi": 0.5, "rho": 0.5, "delta": 0}}]}
        )
        argv = ["curve", target, "--ledger", path, "--grid", "0.1:0.5:3"]
        argv += ["--method", "exact_gaussian"]
        err = assert_usage_error(argv, capsys)
        assert err == "error: exact_gaussian requires a ledger with xi=0 and rho>0\n"

    @pytest.mark.parametrize("target", ["delta_of_eps", "eps_of_delta"])
    def test_exact_gaussian_refuses_rho_below_its_floor(self, tmp_path, target, capsys):
        # rho = 5e-101, where the exact curve once printed delta 0 at every eps.
        entry = {"kind": "gaussian", "params": {"sensitivity": 1e-50, "sigma": 1.0}}
        path = write_ledger(tmp_path, {"entries": [entry]})
        argv = ["curve", target, "--ledger", path, "--grid", "0.1:0.5:3"]
        argv += ["--method", "exact_gaussian"]
        err = assert_usage_error(argv, capsys)
        assert err == (
            "error: exact_gaussian requires rho >= 1e-08, below which its delta is inaccurate\n"
        )

    def test_unwritable_out_is_io_error(self, ledger_path, tmp_path):
        rc = main(
            [
                "curve",
                "--ledger",
                ledger_path,
                "--grid",
                "1:3:5",
                "--out",
                str(tmp_path / "no" / "dir" / "c.csv"),
            ]
        )
        assert rc == 3


class TestCalibrate:
    def test_rho_mode(self, capsys):
        assert main(["calibrate", "--sensitivity", "1.0", "--rho", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sigma=1.00000000000e+00")

    def test_dp_mode_meets_target(self, capsys):
        assert (
            main(["calibrate", "--sensitivity", "1.0", "--eps", "1.0", "--delta", "1e-6"]) == 0
        )
        out = capsys.readouterr().out
        assert "sigma=" in out and "delta at eps=" in out

    def test_conflicting_flags(self, capsys):
        rc = main(
            [
                "calibrate",
                "--sensitivity",
                "1.0",
                "--rho",
                "0.5",
                "--eps",
                "1.0",
                "--delta",
                "1e-6",
            ]
        )
        assert rc == 2

    def test_missing_target(self):
        assert main(["calibrate", "--sensitivity", "1.0"]) == 2

    def test_missing_sensitivity(self):
        assert main(["calibrate", "--rho", "0.5"]) == 2

    def test_eps_without_delta(self):
        assert main(["calibrate", "--sensitivity", "1.0", "--eps", "1.0"]) == 2


class TestGroup:
    def test_from_rho(self, capsys):
        assert main(["group", "--rho", "0.1", "--k", "3"]) == 0
        assert "rho=9.00000000000e-01" in capsys.readouterr().out

    def test_from_ledger(self, ledger_path, capsys):
        assert main(["group", "--ledger", ledger_path, "--k", "2"]) == 0
        assert "rho=4.00000000000e+00" in capsys.readouterr().out

    def test_missing_k(self, ledger_path):
        assert main(["group", "--ledger", ledger_path]) == 2

    def test_missing_source(self):
        assert main(["group", "--k", "2"]) == 2

    def test_approximate_budget_rejected(self, tmp_path):
        path = write_ledger(
            tmp_path,
            {"entries": [{"kind": "approx_dp", "params": {"eps": 1.0, "delta": 1e-6}}]},
        )
        assert main(["group", "--ledger", path, "--k", "2"]) == 2

    @pytest.mark.parametrize("k", [MAX_GROUP_SIZE + 1, 10**18])
    def test_oversized_group_rejected(self, k, capsys):
        # Refused before the harmonic sum: an allowed k this large is not run.
        start = time.perf_counter()
        err = assert_usage_error(["group", "--rho", "0.1", "--k", str(k)], capsys)
        assert time.perf_counter() - start < 1.0
        assert f"at most {MAX_GROUP_SIZE}" in err


class TestConvert:
    def test_pure_dp(self, capsys):
        assert main(["convert", "--eps", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "rho=5.00000000000e-01" in out
        assert "xi=1.00000000000e+00" in out

    def test_approx_dp(self, capsys):
        assert main(["convert", "--eps", "1.0", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "delta_approx=1.00000000000e-01" in out

    def test_rho_to_eps(self, capsys):
        assert main(["convert", "--rho", "0.5", "--delta", str(math.exp(-1.0))]) == 0
        out = capsys.readouterr().out
        assert "eps (simple): 1.91421356237e+00" in out

    def test_rho_to_delta(self, capsys):
        assert main(["convert", "--rho", "0.5", "--eps", "2.5"]) == 0
        out = capsys.readouterr().out
        assert "delta (refined): 4.23054234196e-02" in out

    def test_zero_rho_to_delta(self, capsys):
        assert main(["convert", "--rho", "0", "--eps", "1"]) == 0
        out = capsys.readouterr().out
        assert "delta (refined): 0.00000000000e+00" in out
        assert "delta (simple): 0.00000000000e+00" in out

    def test_no_recognized_combination(self):
        assert main(["convert"]) == 2
        assert main(["convert", "--delta", "0.1"]) == 2


class TestMiDemo:
    def test_default_run_passes(self, capsys):
        assert main(["mi-demo", "--eps", "0.7", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "independent prior" in out and "ok" in out

    def test_rejects_large_k(self):
        assert main(["mi-demo", "--eps", "0.7", "--k", "12"]) == 2

    def test_eps_past_exp_overflow_answers(self, capsys):
        # The keep probability is 1.0 from eps ~ 37 on, so the mi values at
        # 800, where e^eps overflows, are those at 709.
        def mi_values(eps):
            assert main(["mi-demo", "--eps", eps, "--k", "3"]) == 0
            out = capsys.readouterr().out
            return [word for word in out.split() if word.startswith("mi=")]

        assert mi_values("800") == mi_values("709") != []

    def test_bound_past_the_floats_is_refused(self, capsys):
        # rho = eps^2 / 2 = 5e307 is finite; the correlated bound 9 rho is not.
        assert main(["mi-demo", "--eps", "1e154", "--k", "3"]) == 2
        assert capsys.readouterr() == ("", "error: arguments outside floating-point range (OverflowError)\n")
        assert main(["mi-demo", "--eps", "1e153", "--k", "8"]) == 0
        assert "correlated prior: mi=6.93147180560e-01 bound=3.20000000000e+307 ok\n" in capsys.readouterr().out


class TestVerify:
    # The pins and the acceptance gate run each suite at the default seed,
    # and divergence at four more; here the other suites run at ten more, so
    # their verdicts do not hang on one draw of random.Random.
    @pytest.mark.parametrize("suite", ("appendix", "conversions", "group", "mi", "packing"))
    def test_every_suite_passes(self, suite, capsys):
        for seed in range(10):
            assert main(["verify", suite, "--seed", str(seed)]) == 0, seed
            out = capsys.readouterr().out
            assert "PASS" in out and "FAIL" not in out

    # random.Random(-n) draws what random.Random(n) draws, so every suite
    # refuses a negative seed, including those that draw nothing.
    @pytest.mark.parametrize("suite", ("appendix", "conversions", "divergence", "group", "mi", "packing"))
    def test_negative_seed_is_usage_error(self, suite, capsys):
        err = assert_usage_error(["verify", suite, "--seed", "-1"], capsys)
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_failing_case_gives_exit_one(self, monkeypatch, capsys):
        from cdpacct.verify import SUITES, Case

        monkeypatch.setitem(
            SUITES, "group", lambda seed: [Case("forced_failure", False, 1.0, 0.0)]
        )
        assert main(["verify", "group"]) == 1
        assert "FAIL forced_failure" in capsys.readouterr().out

    def test_json_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "group", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "group"
        assert doc["cases"]
        for case in doc["cases"]:
            assert set(case) == {"name", "pass", "lhs", "rhs"}
            assert case["pass"] is True

    def test_json_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "packing", "--seed", "5", "--out", str(a)])
        main(["verify", "packing", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


def run_cli(args):
    """Run the CLI in a fresh interpreter: a hang fails the test instead of stalling the suite."""
    src = str(Path(cdpacct.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cdpacct.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


def assert_sound_eps(printed, rho, delta):
    # The printed eps is rounded to 12 digits, so the computed eps lies within
    # a factor 1 +- 1e-11 of it; the refined bound falls as eps rises.
    params = ZcdpParams(0.0, rho)
    assert zcdp_to_dp_refined(params, float(printed) * (1.0 + 1e-11)) <= delta
    assert zcdp_to_dp_refined(params, float(printed) * (1.0 - 1e-11)) > delta


def assert_sound_report(stdout, rho):
    points = [line for line in stdout.splitlines() if line.startswith("dp point")]
    assert len(points) == len(REPORT_DELTAS)
    for delta, line in zip(REPORT_DELTAS, points):
        assert_sound_eps(line.rsplit("eps=", 1)[1], rho, delta)


class TestLargeBudgets:
    """Budgets whose eps lies above 2^19, where adjacent floats are more than 1e-10 apart."""

    def test_convert(self):
        proc = run_cli(["convert", "--rho", "1e6", "--delta", "1e-6"])
        assert proc.returncode == 0, proc.stderr
        assert_sound_eps(proc.stdout.rsplit("eps (refined): ", 1)[1], 1e6, 1e-6)

    def test_group(self):
        proc = run_cli(["group", "--rho", "0.1", "--k", "3000"])
        assert proc.returncode == 0, proc.stderr
        assert_sound_report(proc.stdout, 0.1 * 3000 * 3000)

    def test_compose(self, tmp_path):
        path = write_ledger(
            tmp_path, {"entries": [{"kind": "zcdp", "params": {"xi": 0, "rho": 1e6, "delta": 0}}]}
        )
        proc = run_cli(["compose", "--ledger", path])
        assert proc.returncode == 0, proc.stderr
        assert_sound_report(proc.stdout, 1e6)


class TestScalesBeyondTheSquares:
    """sensitivity^2 or sigma^2 overflows or underflows, but rho = s^2 / (2 sigma^2) does not."""

    @pytest.mark.parametrize("sensitivity", ["1e200", "1e-200"])
    def test_calibrate(self, sensitivity, capsys):
        tail = ["--eps", "1e-3", "--delta", "1e-6"]
        assert main(["calibrate", "--sensitivity", "1", *tail]) == 0
        unit = capsys.readouterr().out.splitlines()
        assert main(["calibrate", "--sensitivity", sensitivity, *tail]) == 0
        out = capsys.readouterr().out.splitlines()
        # The same sigma digits, scaled; the same rho and delta lines.
        assert out[0].partition("e")[0] == unit[0].partition("e")[0]
        assert out[1:] == unit[1:]

    def test_ledger_entry(self, tmp_path, capsys):
        path = write_ledger(
            tmp_path,
            {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1e200, "sigma": 1e200}}]},
        )
        assert main(["compose", "--ledger", path]) == 0
        assert " rho=5.00000000000e-01 " in capsys.readouterr().out


class TestOutOfRangeArithmetic:
    """Overflow and underflow end in a one-line usage error, not a traceback."""

    def check(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_convert_overflow(self, capsys):
        self.check(["convert", "--rho", "1e300", "--delta", "1e-6"], capsys)

    def test_convert_delta_where_the_squares_overflow(self, capsys):
        # (eps - rho)^2 is past the floats, but both deltas are 0.
        assert main(["convert", "--rho", "0.5", "--eps", "1e160"]) == 0
        assert capsys.readouterr() == (
            "zcdp rho=5.00000000000e-01 at eps=1.00000000000e+160\n"
            "delta (refined): 0.00000000000e+00\n"
            "delta (simple): 0.00000000000e+00\n",
            "",
        )

    def test_convert_where_one_over_delta_or_four_over_pi_rho_overflows(self, capsys):
        # Both answers are floats: mpmath gives eps = 55.2891238055 and
        # delta = 1.7724459969e-155.
        assert main(["convert", "--rho", "1", "--delta", "1e-320"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "eps (simple): 5.52891238055e+01"
        assert main(["convert", "--rho", "1e-310", "--eps", "1e-160"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "delta (refined): 1.77244599690e-155"

    def test_convert_simple_delta_where_the_square_is_subnormal(self, capsys):
        # (eps - rho)^2 is subnormal: mpmath gives 0.564287375502, where the
        # square's lost digits gave 0.535261428519.
        assert main(["convert", "--rho", "1e-323", "--eps", "4.755630139974853e-162"]) == 0
        assert capsys.readouterr().out.splitlines()[2] == "delta (simple): 5.64287375502e-01"

    def test_ledger_overflow(self, tmp_path, capsys):
        path = write_ledger(
            tmp_path,
            {"entries": [{"kind": "gaussian", "params": {"sensitivity": 1e200, "sigma": 1e-200}}]},
        )
        self.check(["compose", "--ledger", path], capsys)

    def test_budget_beyond_float_range(self, capsys):
        # eps^2 / 2 overflows: the budget would be rho = inf.
        self.check(["convert", "--eps", "1e308", "--delta", "0.5"], capsys)

    def test_calibrate_underflow(self, capsys):
        argv = ["calibrate", "--sensitivity", "1e-320", "--eps", "1", "--delta", "1e-6"]
        self.check(argv, capsys)
