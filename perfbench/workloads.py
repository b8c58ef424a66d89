"""The benchmark's three workloads, each a fixed list of operations on atomflux.

An operation ("op") is one in-process ``atomflux.cli.main`` invocation or one
public-API verdict.  It fails on exit code 1 or 2, on an exception, or on a
FAIL verdict; failures are counted, never retried or re-parameterised.

The ensembles are the exception: their verdicts are statistical tests on an
ensemble drawn from the benchmark seed, and a correct program fails them at
some seeds (the C7 decay rate scatters with a standard deviation of 3% over
seeds 1-40; seed 15 lands at +12.8%).  An ensemble op therefore fails only when
the program errs: an exception, a missing output, a non-finite statistic or a
verdict file that disagrees with the exit code.  Its verdict at the seed is
kept as text.  The strict C7 verdict is checked where the acceptance suite
states it, at master seed 991, by ``c7_acceptance``.

A pass runs every op of a workload once and returns its wall time and, per op,
the verdict, the work units the op's inputs request and a SHA-256 over the
op's output bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from atomflux import cli, langevin
from atomflux.greens import AtomParams, BathSpec

SWEEP = "10,100,1000"
GAMMAS = ("0.001", "0.1", "1.0", "10.0")  # acceptance matrix, omega = 1
BATHS = (("--vacuum",), ("--beta", "0.1"), ("--beta", "1.0"), ("--beta", "100.0"))

# files each command writes; JSON files carry a "passed" verdict to cross-check
OUTPUTS = {
    "fdr-check": ("fdr_report.json",),
    "budget": ("budget.csv",),
    "oracle": ("oracle.json",),
    "relax": ("relax_stats.json", "relax_series.csv"),
}

LONG_N_TRAJ = 64  # two 32-trajectory chunks of 400k steps each
LONG_N_STEPS = 400_000  # t_total = 200/gamma = 20000 at dt = 0.05

WIDE = dict(gamma=0.1, beta=1.0, cutoff=20.0, dt=0.05, t_total=80.0, n_traj=20000, t_burn=1.0)
WIDE_N_STEPS = 1600


@dataclass
class Op:
    label: str
    argv: list
    work: int  # requested frequency samples or trajectory-steps
    statistical: bool = False  # a FAIL verdict with complete, finite outputs is kept as text


@dataclass
class OpResult:
    label: str
    passed: bool  # exit code 0 or a PASS verdict
    work: int
    digest: str  # SHA-256 over the op's output bytes
    detail: str = ""  # exit code or exception of a failed op
    verdict: str = ""  # a statistical op's verdict line


@dataclass
class PassResult:
    wall_s: float
    ops: list[OpResult]
    consistent: bool  # every output file's "passed" field agrees with its op's exit code
    bytes_written: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(op.digest for op in self.ops).encode()).hexdigest()


def _points(argv, default=65536):
    return int(argv[argv.index("--grid-points") + 1]) if "--grid-points" in argv else default


def spectral_ops() -> list[Op]:
    """About forty CLI invocations over the frequency-domain layers; seed-independent."""
    ops = []
    for gamma in GAMMAS:
        for bath in BATHS:
            argv = ["fdr-check", "--gamma", gamma, *bath]
            ops.append(Op(f"fdr-check g={gamma} {' '.join(bath)}", argv, _points(argv)))
    for gamma in GAMMAS:
        for bath in BATHS:
            argv = ["budget", "--gamma", gamma, *bath, "--sweep", SWEEP, "--grid-points", "32768"]
            ops.append(Op(f"budget 2^15 g={gamma} {' '.join(bath)}", argv, 3 * _points(argv)))
    for bath in (("--vacuum",), ("--beta", "1.0")):
        # 16 MB per array: memory-bound grids
        argv = ["budget", *bath, "--sweep", SWEEP, "--grid-points", "1048576"]
        ops.append(Op(f"budget 2^20 {' '.join(bath)}", argv, 3 * _points(argv)))
    for bath in (("--vacuum",), ("--beta", "1.0")):
        # acceptance criterion C8: gamma 0.05, r 30, t 40/gamma, cutoff 20, 2^14 late grid
        argv = ["oracle", *bath, "--gamma", "0.05", "--cutoff", "20", "--grid-points", "16384"]
        ops.append(Op(f"oracle C8 {' '.join(bath)}", argv, _points(argv)))
    # the README's command lines that pass, verbatim; the two that fail today run
    # untimed, outside the workloads (run.py README_UNTIMED)
    for line in (
        "fdr-check --vacuum --gamma 0.05",
        "budget --beta 1.0 --sweep 10,100,1000",
    ):
        argv = line.split()
        n_cutoffs = len(SWEEP.split(",")) if "--sweep" in argv else 1
        ops.append(Op(f"README: {line}", argv, n_cutoffs * _points(argv)))
    return ops


def long_ops(seed: int) -> list[Op]:
    """One C5 relax cell (gamma 0.01, beta 1, cutoff 50, dt 0.05) in a single process."""
    argv = [
        "relax", "--gamma", "0.01", "--beta", "1.0", "--cutoff", "50", "--dt", "0.05",
        "--n-traj", str(LONG_N_TRAJ), "--seed", str(seed), "--workers", "1",
    ]
    return [Op(f"relax C5 n_traj={LONG_N_TRAJ} seed={seed}", argv, LONG_N_TRAJ * LONG_N_STEPS, True)]


def _json_payload(blob: bytes):
    try:
        return json.loads(blob)
    except ValueError:
        return None


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def run_cli_pass(ops: list[Op], work_dir: Path) -> PassResult:
    """Run each op through ``cli.main`` with its own output directory."""
    results = []
    bytes_written = 0
    consistent = True
    shutil.rmtree(work_dir, ignore_errors=True)
    start = time.perf_counter()
    for index, op in enumerate(ops):
        out = work_dir / f"op{index:02d}"
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*op.argv, "--out", str(out)])
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"{type(exc).__name__}: {exc}"
        digest = hashlib.sha256()
        complete = True  # every output present, agreeing with the exit code, finite
        for name in OUTPUTS[op.argv[0]]:
            path = out / name
            if not path.is_file():
                consistent = consistent and code != cli.EXIT_PASS
                complete = False
                continue
            blob = path.read_bytes()
            bytes_written += len(blob)
            digest.update(f"{name}\n".encode())
            digest.update(blob)
            if name.endswith(".json"):
                payload = _json_payload(blob)
                claimed = payload.get("passed") if isinstance(payload, dict) else None
                if claimed is not None and claimed != (code == cli.EXIT_PASS):
                    consistent = complete = False
                complete = complete and claimed is not None and _all_finite(payload)
        passed = code == cli.EXIT_PASS
        verdict = ""
        if op.statistical:
            lines = [ln for ln in sink.getvalue().splitlines() if ln.startswith(("PASS", "FAIL", "WARN"))]
            verdict = lines[0] if lines else ""
            passed = complete and code in (cli.EXIT_PASS, cli.EXIT_PHYSICS_FAIL)
        detail = "" if passed else str(code) if complete else f"{code} (outputs missing, inconsistent or not finite)"
        results.append(OpResult(op.label, passed, op.work, digest.hexdigest(), detail, verdict))
    wall = time.perf_counter() - start
    shutil.rmtree(work_dir, ignore_errors=True)
    return PassResult(wall, results, consistent, bytes_written)


C7_ACCEPTANCE_SEED = 991  # the master seed tests/test_acceptance.py states C7 at


def _c7(seed: int, workers: int):
    """C7 ensemble, prediction and fitted decay rate; the verdict is "rate within 5% of 2 gamma"."""
    gamma = WIDE["gamma"]
    p = AtomParams.from_damping(gamma, 1.0, 1.0)
    bath = BathSpec(WIDE["beta"])
    res = langevin.run_ensemble(
        p, bath, cutoff=WIDE["cutoff"], dt=WIDE["dt"], t_total=WIDE["t_total"],
        n_traj=WIDE["n_traj"], master_seed=seed, t_burn=WIDE["t_burn"], workers=workers,
    )
    pred = langevin.predicted_variance(p, bath, WIDE["cutoff"], 32768)
    omega_osc = math.sqrt(p.omega**2 - p.gamma**2)
    rate = langevin.fit_decay_rate(
        res.times(), res.var_q_series, pred,
        fit_window=(0.2 / gamma, 1.2 / gamma), smooth_time=math.pi / omega_osc,
    )
    deviation = rate / (2.0 * gamma) - 1.0
    status = "PASS" if abs(deviation) <= 0.05 else "FAIL"
    return res, pred, rate, f"{status} decay rate {rate!r} is 2 gamma {deviation:+.2%} (limit 5%)"


def run_wide_pass(seed: int, workers: int) -> PassResult:
    """C7 shape through the public langevin API: 20000 x 1600 steps over a worker pool."""
    detail = verdict = ""
    start = time.perf_counter()
    try:
        res, pred, rate, verdict = _c7(seed, workers)
        summary = {"stats": res.stats.to_dict(), "predicted": pred, "rate": rate}
        passed = _all_finite(summary) and bool(np.isfinite(res.var_q_series).all())
        blob = res.var_q_series.tobytes() + json.dumps(summary, sort_keys=True).encode()
        if not passed:
            detail = "non-finite statistics"
    except Exception as exc:
        passed, blob = False, b""
        detail = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    label = f"C7 ensemble seed={seed}"
    op = OpResult(label, passed, WIDE["n_traj"] * WIDE_N_STEPS, hashlib.sha256(blob).hexdigest(), detail, verdict)
    return PassResult(wall, [op], True)


def c7_acceptance(workers: int) -> tuple[bool, str]:
    """The strict C7 verdict at the acceptance suite's seed; run once per run, untimed."""
    _, _, _, verdict = _c7(C7_ACCEPTANCE_SEED, workers)
    return verdict.startswith("PASS"), verdict


def nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = ("spectral_verify", "ensemble_long", "ensemble_wide")


def acceptance_check(workload: str):
    """``(passed, verdict)`` of the workload's untimed acceptance verdict, or None."""
    return c7_acceptance(nproc()) if workload == "ensemble_wide" else None


def make_pass(workload: str, seed: int, work_dir: Path):
    """Return a zero-argument callable running one pass of ``workload``."""
    if workload == "spectral_verify":
        ops = spectral_ops()
        return lambda: run_cli_pass(ops, work_dir)
    if workload == "ensemble_long":
        ops = long_ops(seed)
        return lambda: run_cli_pass(ops, work_dir)
    if workload == "ensemble_wide":
        workers = nproc()
        return lambda: run_wide_pass(seed, workers)
    raise ValueError(f"unknown workload {workload!r}")
