"""Start-up: the package runs on the standard library alone, and lazily.

No command, verify suite or oracle loads numpy or scipy, and with both
blocked every verify suite and every public oracle still runs.  The tests
themselves keep numpy as a reference.  `import cdpacct` runs none of the
library modules, and each command runs only the modules it uses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdpacct
from cdpacct import cli, verify

# The package's public names.
PUBLIC_NAMES = [
    "ALPHA_GRID", "DpPoint", "ExpMechSpec", "FiniteChannel", "GaussianMech", "LedgerEntry",
    "McEstimate", "McdpParams", "MetricPointSet", "MultiGaussianMech", "OutcomeDist",
    "PackingRecord", "PinskerRecord", "PrivacyLossDist", "PurifiedMechanism", "ViolationRecord",
    "ZcdpParams", "advanced_composition_baseline", "aligned_probs",
    "approx_randomized_response", "approx_zcdp_to_dp", "calibrate_sigma_for_dp",
    "calibrate_sigma_for_rho", "certify_zcdp", "channel_pushforward", "compose",
    "delta_exact_gaussian", "delta_from_pld", "delta_gaussian_mc", "delta_of_eps",
    "delta_of_eps_grid", "divergence_from_loss", "dp_composition_bound", "dp_composition_refined",
    "dp_family_to_zcdp", "dp_to_approx_zcdp", "dp_to_approx_zcdp_maxdiv", "entry_to_zcdp",
    "eps_for_delta", "eps_of_delta", "exponential_mechanism", "gaussian_pld_discretized",
    "gaussian_renyi", "gaussian_renyi_quadrature", "gaussian_rho", "greedy_packing_net",
    "group_privacy", "hyperbolic_inequality_check", "loss_tail_bound", "mc_divergence_estimate",
    "mcdp_gaussian_check", "mcdp_postprocess_violation", "mcdp_to_zcdp", "mi_bound", "mixture",
    "mutual_information", "normal_upper_tail", "packing_lower_bound", "pinsker_check",
    "privacy_loss_dist", "product", "product_channel", "pure_dp_to_zcdp", "purify",
    "pushforward", "randomized_response", "renyi_divergence", "thresholded_gaussian",
    "zcdp_to_dp_refined", "zcdp_to_dp_simple", "zcdp_to_mcdp",
]

# Imports the CLI and the oracles, runs six commands in-process, calls the
# exact-Gaussian delta directly and reports the heavy modules loaded.
PROBE = """
import contextlib, io, json, sys
import cdpacct.bounds, cdpacct.oracle
from cdpacct import cli
exact = ["--ledger", sys.argv[1], "--method", "exact_gaussian", "--grid"]
for argv in (["compose", "--ledger", sys.argv[1]], ["convert", "--rho", "0.5", "--delta", "1e-6"],
             ["group", "--rho", "0.1", "--k", "4"], ["mi-demo"],
             ["curve", "delta_of_eps", *exact, "0:3:50"], ["curve", "eps_of_delta", *exact, "1e-9:1e-2:30"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
assert 0.0 < cdpacct.oracle.delta_exact_gaussian(0.5, 1.0) < 1.0
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


# Blocks numpy and scipy, then runs all six verify suites and every public
# oracle.
NO_NUMPY_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from cdpacct import OutcomeDist, cli, oracle
for suite in cli.VERIFY_SUITES:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", suite]) == 0, suite
assert abs(oracle.gaussian_renyi_quadrature(1.0, 1.0, 2.0) - 1.0) < 1e-8
assert not oracle.mcdp_gaussian_check(1.0, 0.5).violated
assert oracle.mcdp_postprocess_violation(1.0, 3.0, 2.0).violated
assert oracle.hyperbolic_inequality_check(1.0, 0.5)
pld = oracle.gaussian_pld_discretized(0.5)
assert len(pld.losses) == 4000
assert 0.0 < oracle.delta_from_pld(pld, 1.0) < 1.0
assert 0.0 < oracle.delta_exact_gaussian(0.5, 1.0) < 1.0
assert 0.0 < oracle.delta_gaussian_mc(0.5, 1.0, 10**4, seed=1)[0] < 1.0
p, q = OutcomeDist((0, 1), (0.75, 0.25)), OutcomeDist((0, 1), (0.25, 0.75))
assert oracle.pinsker_check(p, q, {0: 1.0, 1: -1.0}).plain_ok
assert not oracle.mc_divergence_estimate(p, q, 2.0, 10**4, seed=1).support_violation
"""


# Defines ran(): the cdpacct modules whose body has run.  A lazily registered
# module that has not run is still a LazyLoader module; type() reads none of
# its attributes, so it does not make the module run.
RAN = """
import contextlib, io, json, sys, types
def ran():
    return sorted(n.removeprefix("cdpacct.") for n, m in sys.modules.items()
                  if n.startswith("cdpacct.") and type(m) is types.ModuleType)
"""

# Prints ran() after a bare import, then checks what a tracer that wraps
# functions through sys.modules relies on: every library module is there,
# and an attribute of each is the function the package exports.
IMPORT_PROBE = RAN + """
import cdpacct
print(json.dumps(ran()))
modules = ("accountant", "bounds", "divergence", "mechanisms", "oracle")
assert all(f"cdpacct.{m}" in sys.modules for m in modules)
for module, name in (("accountant", "compose"), ("accountant", "eps_for_delta"),
                     ("bounds", "certify_zcdp"), ("divergence", "renyi_divergence"),
                     ("mechanisms", "calibrate_sigma_for_dp"), ("oracle", "delta_exact_gaussian")):
    fn = getattr(sys.modules[f"cdpacct.{module}"], name)
    assert type(fn) is types.FunctionType and fn is getattr(cdpacct, name), (module, name)
"""

# Runs convert, compose, group and two exact-Gaussian curves through
# cli.main, then calibrate, then mi-demo, and prints ran() after each step.
CLI_PROBE = RAN + """
from cdpacct import cli
exact = ["--ledger", sys.argv[1], "--method", "exact_gaussian"]
steps = ([["convert", "--rho", "0.5", "--delta", "1e-6"], ["compose", "--ledger", sys.argv[1]],
          ["group", "--rho", "0.1", "--k", "4"], ["curve", "delta_of_eps", *exact, "--grid", "0:3:50"],
          ["curve", "eps_of_delta", *exact, "--grid", "1e-9:1e-2:30"]],
         [["calibrate", "--sensitivity", "1", "--eps", "1", "--delta", "1e-6"]],
         [["mi-demo"]])
for step in steps:
    for argv in step:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    print(json.dumps(ran()))
"""

# One Renyi divergence through the divergence module alone.
DIVERGENCE_PROBE = RAN + """
from cdpacct import divergence
p, q = divergence.OutcomeDist((0, 1), (0.75, 0.25)), divergence.OutcomeDist((0, 1), (0.25, 0.75))
assert divergence.renyi_divergence(p, q, 2.0) > 0.0
print(json.dumps(ran()))
"""


def run_probe(probe, *args):
    src = str(Path(cdpacct.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def ledger(tmp_path):
    path = tmp_path / "ledger.json"
    entry = {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 2.0}}
    path.write_text(json.dumps({"entries": [entry]}))
    return str(path)


def test_cli_commands_load_neither_numpy_nor_scipy(ledger):
    assert json.loads(run_probe(PROBE, ledger)) == []


def ran_after_each_step(probe, *args):
    return [json.loads(line) for line in run_probe(probe, *args).splitlines()]


def test_import_runs_no_library_module_but_registers_each():
    assert ran_after_each_step(IMPORT_PROBE) == [[]]


def test_each_command_runs_only_the_modules_it_uses(ledger):
    assert ran_after_each_step(CLI_PROBE, ledger) == [
        ["accountant", "cli"],
        ["accountant", "cli", "divergence", "mechanisms"],
        ["accountant", "bounds", "cli", "divergence", "mechanisms"],
    ]


def test_a_divergence_runs_only_the_divergence_module():
    assert ran_after_each_step(DIVERGENCE_PROBE) == [["divergence"]]


def test_oracles_and_verify_suites_run_without_numpy_or_scipy():
    run_probe(NO_NUMPY_PROBE)


def test_public_names_unchanged_and_all_resolve():
    assert cdpacct.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cdpacct, name) is not None
    assert set(PUBLIC_NAMES) <= set(dir(cdpacct))


def test_cli_suite_names_match_verify():
    assert list(cli.VERIFY_SUITES) == sorted(verify.SUITES)
