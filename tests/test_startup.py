"""Start-up: the package runs on the standard library alone.

No command, verify suite or oracle loads numpy or scipy, and with both
blocked every verify suite and every public oracle still runs.  The tests
themselves keep numpy as a reference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cdpacct
from cdpacct import cli, verify

# The package's public names.
PUBLIC_NAMES = [
    "ALPHA_GRID", "DpPoint", "ExpMechSpec", "FiniteChannel", "GaussianMech", "LedgerEntry",
    "McEstimate", "McdpParams", "MetricPointSet", "MultiGaussianMech", "OutcomeDist",
    "PackingRecord", "PinskerRecord", "PrivacyLossDist", "PurifiedMechanism", "QuadratureSpec",
    "ViolationRecord", "ZcdpParams", "advanced_composition_baseline", "aligned_probs",
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


def test_cli_commands_load_neither_numpy_nor_scipy(tmp_path):
    ledger = tmp_path / "ledger.json"
    entry = {"kind": "gaussian", "params": {"sensitivity": 1.0, "sigma": 2.0}}
    ledger.write_text(json.dumps({"entries": [entry]}))
    assert json.loads(run_probe(PROBE, str(ledger))) == []


def test_oracles_and_verify_suites_run_without_numpy_or_scipy():
    run_probe(NO_NUMPY_PROBE)


def test_public_names_unchanged_and_all_resolve():
    assert cdpacct.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(cdpacct, name) is not None
    assert set(PUBLIC_NAMES) <= set(dir(cdpacct))


def test_cli_suite_names_match_verify():
    assert list(cli.VERIFY_SUITES) == sorted(verify.SUITES)
