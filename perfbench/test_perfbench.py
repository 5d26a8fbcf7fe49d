"""The benchmark's own tests.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check
import gen
import run  # puts ./src on sys.path
import tracing
import workloads
from tropt import cli, linalg, schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_generated_schedules_solve_and_witness_is_feasible(n, tmp_path):
    wl = workloads.LargeExact(n)
    wl.setup(0, tmp_path)
    for i in range(1 if n == 12 else 4):
        prepared = wl.prepare(i)
        draw = prepared[0]
        assert check.schedule_violation(draw.to_json(), draw.witness) is None
        assert wl.check(i, prepared, wl.call(prepared)) is None


@pytest.mark.parametrize("kind", gen.KINDS)
def test_generated_problems_are_feasible(kind, tmp_path):
    for i in range(5):
        doc = gen.feasible_problem(gen.instance_rng("test", 0, i), kind, 3)
        path = tmp_path / f"{kind}{i}.json"
        path.write_text(json.dumps(doc))
        result = workloads.run_cli(cli.main, ["solve", str(path)])
        assert result.code == 0, result.err
        x = check.vector(json.loads(result.out)["canonical"])
        assert check.problem_violation(doc, x) is None


class _WrongTheta(workloads.LargeExact):
    def call(self, prepared):
        sched, general = super().call(prepared)
        return dataclasses.replace(sched, theta=sched.theta + 1), general


def test_wrong_theta_is_counted_as_failure(tmp_path):
    wl = _WrongTheta(5)
    wl.setup(0, tmp_path)
    runner = run.Runner(wl)
    runner.run_ops(range(2))
    assert runner.attempted == 2
    assert runner.failed == 2
    assert "differs from the General minimum" in runner.reasons[0]


@pytest.fixture(scope="module")
def cli_mix(tmp_path_factory):
    wl = workloads.CliMixed(pool_blocks=1)
    wl.setup(0, tmp_path_factory.mktemp("cli"))
    return wl


def _first(wl, cmd, code=0, float_mode=False):
    return next(
        i for i, (argv, _, _) in enumerate(wl.requests)
        if argv[0] == cmd and ("--float" in argv) == float_mode
        and (wl.expected[i][0] is None) == (code == 0)
    )


def test_cli_checks_catch_wrong_exit_code_and_traceback(cli_mix):
    wl = cli_mix
    solved = _first(wl, "solve")
    good = wl.call(solved)
    assert wl.check(solved, solved, good) is None
    assert "exit code" in wl.check(solved, solved, workloads.CliRun(1, "", ""))
    broken = workloads.CliRun(0, good.out, "Traceback (most recent call last):\n")
    assert wl.check(solved, solved, broken) == "traceback on stderr"


@pytest.mark.parametrize("cmd", ["solve", "schedule", "solve-ineq", "eig", "star"])
def test_cli_checks_do_not_trust_the_exact_reference(cli_mix, cmd):
    """A request that exits 1 or calls a feasible input infeasible fails,
    whatever the program's own exact run says."""
    wl = cli_mix
    i = _first(wl, cmd, float_mode=True)
    saved = wl.refs[i]
    try:
        for code, err in ((1, "error: boom\n"), (2, "infeasible: Tr(B) <= 1\n")):
            wl.refs[i] = (workloads.CliRun(code, "", err), None)
            assert wl.check(i, i, workloads.CliRun(code, "", err)) is not None
    finally:
        wl.refs[i] = saved


def test_cli_checks_name_the_expected_condition(cli_mix):
    wl = cli_mix
    i = _first(wl, "solve", code=2)
    assert wl.check(i, i, wl.call(i)) is None
    wrong = workloads.CliRun(2, "", "infeasible: some other condition\n")
    assert "condition" in wl.check(i, i, wrong)
    assert "exit code" in wl.check(i, i, workloads.CliRun(1, "", "error: x\n"))


def _perturbed(out: str, key: str) -> str:
    doc = json.loads(out)
    value = check.scalar(doc[key])
    doc[key] = str(value + Fraction(1, 7)) if value is not None else 0
    return json.dumps(doc)


@pytest.mark.parametrize("cmd, key", [("solve", "minimum"), ("eig", "spectralRadius"),
                                      ("star", "traceSum")])
def test_cli_checks_catch_a_wrong_exact_value(cli_mix, cmd, key):
    wl = cli_mix
    i = _first(wl, cmd)
    good = wl.call(i)
    assert wl.check(i, i, good) is None
    bad = workloads.CliRun(0, _perturbed(good.out, key), good.err)
    assert wl.check(i, i, bad) is not None


def test_expected_verdicts_match_the_mix(cli_mix):
    codes = [ref.code for ref, _ in cli_mix.refs.values()]
    expected = [0 if cli_mix.expected[i][0] is None else 2 for i in cli_mix.refs]
    assert codes == expected
    assert codes.count(2) > 0 and codes.count(0) > codes.count(2)


@pytest.mark.parametrize("kind", gen.KINDS)
def test_span_certificate_accepts_tropt_and_rejects_neighbours(kind, tmp_path):
    path = tmp_path / "p.json"
    solved = 0
    for i in range(12):
        doc = gen.random_problem(gen.instance_rng("cert", 0, i), kind, 4)
        path.write_text(json.dumps(doc))
        result = workloads.run_cli(cli.main, ["solve", str(path)])
        assert result.code == (0 if check.solve_verdict(doc) is None else 2)
        if result.code:
            assert result.condition() == check.solve_verdict(doc)
            continue
        solved += 1
        graph = check.span_graph(doc)
        minimum = check.scalar(json.loads(result.out)["minimum"])
        assert graph.minimum_violation(minimum) is None
        for delta in (Fraction(1, 50), Fraction(-1, 50)):
            assert graph.minimum_violation(minimum + delta) is not None
        assert graph.minimum_violation(float(minimum) + 1e-12, 1e-9) is None
    assert solved


def test_tracer_patches_names_where_they_are_looked_up():
    original = linalg.chain_sums
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert schedule.chain_sums is not original
        assert schedule.chain_sums is linalg.chain_sums
    finally:
        tracer.uninstall()
    assert schedule.chain_sums is original and linalg.chain_sums is original


def test_tail_is_highest_percentile_with_ten_above():
    assert run.tail([float(v) for v in range(1, 101)]) == ("p90", pytest.approx(90.1))
    assert run.tail([1.0] * 5)[0] == "max"


def test_digest_matches_for_default_seed(tmp_path):
    digest = json.loads(run.DIGEST.read_text())
    assert digest["seed"] == run.DEFAULT_SEED
    for name, factory in workloads.WORKLOADS.items():
        wl = factory()
        wl.setup(run.DEFAULT_SEED, tmp_path)
        runner = run.Runner(wl)
        assert runner.digest_sha() == digest["workloads"][name]["sha256"], name
        assert runner.failed == 0


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_measure_reports_every_metric(trace):
    result = run.measure(workloads.LargeExact(4), seed=5, seconds=0.3, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    if trace:
        assert result["metrics"]["linalg.chain_sums_s"]["value"] > 0
        assert result["metrics"]["oracle.grid_minimize_s"]["value"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_result_line(trace):
    cmd = SPEC["command"] + ["--workload", "cli-small-mixed", "--seed", "3",
                             "--seconds", "1", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = _result_line(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == (PER_LAYER if trace == "1" else END_TO_END)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli-small-mixed",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
