"""Tests of the benchmark itself: its checkers and a short run of each workload.

    python3 -m pytest bench/tests

Each checker must accept cdpacct's real output and reject a slightly
perturbed copy of it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _perturb(text: bytes, field: str, factor: float) -> bytes:
    """Scale the first printed `field=` number by `factor`, in cdpacct's number format."""

    def scale(m: re.Match) -> str:
        return f"{m.group(1)}{float(m.group(2)) * factor:.11e}"

    out, n = re.subn(rf"({field}[=:] ?)([-+0-9.e]+)", scale, text.decode(), count=1)
    assert n == 1, field
    return out.encode()


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Every cli_desk command, run once in-process: (op, (code, stdout, stderr))."""
    workload = workloads.build("cli_desk", 7, tmp_path_factory.mktemp("cli"))
    return [(op, op.run()) for op in workload.ops]


def _output(cli_outputs, pattern: str):
    """The first command whose stdout matches `pattern`."""
    for op, out in cli_outputs:
        if re.search(pattern, out[1].decode()):
            return op, out
    raise KeyError(pattern)


def test_every_cli_output_passes_and_only_the_overflow_command_fails(cli_outputs):
    verdicts = [op.judge(out) for op, out in cli_outputs]
    assert all(not problems for _, problems in verdicts)
    assert [failed for failed, _ in verdicts] == [False] * (len(verdicts) - 1) + [True]


def test_compose_rejects_rho_off_by_1e_9(cli_outputs):
    op, (code, stdout, stderr) = _output(cli_outputs, "^composed")
    assert op.judge((code, stdout, stderr)) == (False, [])
    failed, problems = op.judge((code, _perturb(stdout, "rho", 1 + 1e-9), stderr))
    assert problems and "rho=" in problems[0]


def test_convert_rejects_eps_above_the_simple_bound(cli_outputs):
    op, (code, stdout, stderr) = _output(cli_outputs, "^zcdp rho=.* at delta=")
    rho, delta = (float(x) for x in re.findall(r"=(\S+)", stdout.decode().splitlines()[0]))
    above = checks.simple_eps(0.0, rho, delta) * (1 + 1e-9)
    lines = stdout.decode().splitlines()
    lines[2] = f"eps (refined): {above:.11e}"
    failed, problems = op.judge((code, ("\n".join(lines) + "\n").encode(), stderr))
    assert any("above the simple bound" in p for p in problems)


def test_convert_rejects_eps_below_the_exact_gaussian_eps():
    rho, delta = 0.5, 1e-6
    low = checks.simple_eps(0.0, rho, delta) * 0.5
    assert checks.check_eps(0.0, rho, 0.0, delta, low)


def test_exact_gaussian_curve_rejects_a_value_off_by_1e_7(cli_outputs):
    op, (code, stdout, stderr) = _output(cli_outputs, "exact_gaussian\n$")
    lines = stdout.decode().splitlines()
    x, v, m = lines[50].split(",")
    lines[50] = f"{x},{float(v) * (1 + 1e-7):.11e},{m}"
    failed, problems = op.judge((code, ("\n".join(lines) + "\n").encode(), stderr))
    assert any("mpmath" in p for p in problems)


def test_refined_curve_rejects_a_rise(cli_outputs):
    op, (code, stdout, stderr) = _output(cli_outputs, "refined\n$")
    lines = stdout.decode().splitlines()
    x, v, m = lines[120].split(",")
    lines[120] = f"{x},{float(lines[119].split(',')[1]) * 1.01:.11e},{m}"
    failed, problems = op.judge((code, ("\n".join(lines) + "\n").encode(), stderr))
    assert any("rises" in p for p in problems)


def test_calibrate_rejects_a_sigma_that_misses_its_target(cli_outputs):
    op, (code, stdout, stderr) = _output(cli_outputs, "delta at eps=")
    failed, problems = op.judge((code, _perturb(stdout, "sigma", 0.9), stderr))
    assert any("exact delta above the target" in p for p in problems)


def test_overflow_command_counts_as_failed_unless_refused_cleanly(cli_outputs):
    op, out = cli_outputs[-1]
    assert op.judge(out) == (True, [])
    assert op.judge((2, b"", b"error: rho is too large\n")) == (False, [])
    assert op.judge((2, b"", b"Traceback (most recent call last):\nOverflowError: x\n")) == (True, [])


def _first_op(name: str, tmp_path):
    workload = workloads.build(name, 7, tmp_path)
    op = workload.ops[0]
    return workload, op, op.run()


def test_budget_queries_checker(tmp_path):
    _, op, report = _first_op("budget_queries", tmp_path)
    assert op.judge(report) == (False, [])
    budget, eps, sigma, approx, exact = report
    xi, rho, da = budget
    above = checks.simple_eps(xi, rho, (1e-6 - da) / (1 - da)) * (1 + 1e-9)
    for bad in (
        ((xi, rho * (1 + 1e-9), da), eps, sigma, approx, exact),
        (budget, eps[:1] + (above,) + eps[2:], sigma, approx, exact),
        (budget, eps, sigma, approx, exact[:10] + (exact[10] * (1 + 1e-7),) + exact[11:]),
        (budget, eps, sigma * 0.9, approx, exact),
    ):
        assert op.judge(bad)[1]


def test_certify_channels_checker(tmp_path):
    workload = workloads.build("certify_channels", 7, tmp_path)
    ops = {op.label: op for op in reversed(workload.ops)}  # the first op of each kind
    channel = ops["channel"].run()
    assert ops["channel"].judge(channel) == (False, [])
    x = channel.inputs[3]
    probs = channel.conditionals[x].probs
    channel.conditionals[x] = type(channel.conditionals[x])(
        channel.conditionals[x].outcomes, (probs[0] * (1 + 1e-9), probs[1] - probs[0] * 1e-9) + probs[2:]
    )
    assert ops["channel"].judge(channel)[1]
    assert ops["certify"].run() is True
    assert ops["certify"].judge(True) == (False, [])
    assert ops["certify"].judge(False)[1]
    mi_ops = [op for op in workload.ops if op.label == "mi"][:2]
    for op in mi_ops:
        mi = op.run()
        assert op.judge(mi) == (False, [])
        assert op.judge(mi * (1 + 1e-9))[1]
        assert op.judge(mi * (1 - 1e-9))[1]
    assert workload.final_checks() == []


def test_renyi_calculus_checker(tmp_path):
    workload = workloads.build("renyi_calculus", 7, tmp_path)
    instance = workload.ops[:6]  # the six quantities of the first instance
    values = [op.run() for op in instance]
    assert [op.judge(v) for op, v in zip(instance, values)] == [(False, [])] * 6
    for i, delta in ((5, 1e-9), (0, 1e-6)):  # moment, base
        op, good = instance[i], values[i]
        assert op.judge(good[:1] + (good[1] + delta,) + good[2:])[1], op.label
        assert op.judge(good) == (False, [])


def _run(cwd: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    proc = _run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "renyi_calculus", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # Six operations per instance: five quantities of 10 orders each by
    # renyi_divergence (8 of them finite above 1), and the loss moments.
    per_instance = {name: 6 * result["metrics"][name]["value"] for name in (
        "divergence.renyi_divergence.calls", "divergence.renyi_finite_order.calls")}
    assert per_instance == pytest.approx({
        "divergence.renyi_divergence.calls": 50.0, "divergence.renyi_finite_order.calls": 40.0})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "budget_queries")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
