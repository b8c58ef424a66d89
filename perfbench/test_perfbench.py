"""Self-tests of the benchmark: exact counts repeat, tracing leaves outputs alone.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload test runs three full passes (about 10-20 s each workload).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(one_pass):
    spans.TRACER.reset()
    spans.install()
    try:
        result = one_pass()
    finally:
        spans.uninstall()
    return result, run.layer_metrics(spans.TRACER.totals, result, result.wall_s)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_and_tracing_keeps_digest(workload, tmp_path):
    one_pass = workloads.make_pass(workload, 7, tmp_path / "out")
    plain = one_pass()
    first, counts_a = _traced(one_pass)
    second, counts_b = _traced(one_pass)
    assert plain.digest == first.digest == second.digest
    _, failed, _ = run.judge([plain, first, second])
    assert failed[0] == failed[1] == failed[2]
    for name in run.EXACT_COUNTS:
        assert counts_a[name] == counts_b[name], name
    # the layers the workload exists to exercise did run
    busy = {
        "spectral_verify": ("spectral.n_evals", "flux.filon_nodes", "fdr.points", "cli.invocations"),
        "ensemble_long": ("langevin.traj_steps", "langevin.rng_draws", "cli.invocations"),
        "ensemble_wide": ("langevin.traj_steps", "langevin.rng_draws", "langevin.chunks"),
    }[workload]
    for name in busy:
        assert counts_a[name] > 0, name


def test_tracer_restores_originals():
    from atomflux import flux, greens, langevin

    before = (flux.power_budget, flux.thermal_factor, greens.thermal_factor, langevin._lfilter)
    spans.install()
    assert flux.power_budget is not before[0]
    spans.uninstall()
    assert (flux.power_budget, flux.thermal_factor, greens.thermal_factor, langevin._lfilter) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ensemble_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    last = (done.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(ValueError):
        json.loads(last)


def test_output_mismatch_counts_as_failed_op():
    def one(digest_b, passed_b=True):
        ops = [
            workloads.OpResult("a", True, 10, "d1"),
            workloads.OpResult("b", passed_b, 5, digest_b, "" if passed_b else "1"),
        ]
        return workloads.PassResult(1.0, ops, True)

    work, failed, notes = run.judge([one("d2"), one("d2"), one("dX"), one("d2", passed_b=False)])
    assert work == [15, 15, 10, 10]
    assert failed == [0, 0, 1, 1]
    assert notes == ["b -> 1", "b -> output differs from the first pass"]


@pytest.mark.parametrize(
    "statistical, var_q, counted_as_passed",
    [(True, 1.0, True), (True, float("nan"), False), (False, 1.0, False)],
)
def test_statistical_fail_verdict_is_recorded_not_counted(
    monkeypatch, tmp_path, statistical, var_q, counted_as_passed
):
    def fake_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True)
        (out / "relax_stats.json").write_text(json.dumps({"stats": {"var_q": var_q}, "passed": False}))
        (out / "relax_series.csv").write_text("t,var_q\n")
        print("FAIL relax: n_sigma=3.2")
        return workloads.cli.EXIT_PHYSICS_FAIL

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    op = workloads.Op("relax", ["relax"], 10, statistical)
    result = workloads.run_cli_pass([op], tmp_path / "out")
    assert result.consistent
    assert result.ops[0].passed is counted_as_passed
    assert result.ops[0].verdict == ("FAIL relax: n_sigma=3.2" if statistical else "")
