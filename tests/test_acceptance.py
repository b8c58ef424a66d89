"""Acceptance suite: one test per quantitative criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
The parameter matrices and tolerances are fixed here; they are the package's
exit criteria, not tuning knobs.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from atomflux.greens import AtomParams, BathSpec, FrequencyGrid
from atomflux.spectral import fit_log_slope, integrate_spectrum
from atomflux.fdr import check_atom_fdr_reduction, check_field_fdr, check_parity
from atomflux.flux import (
    ObservationFrame,
    interacting_hadamard_direct,
    interacting_hadamard_late,
    power_budget,
)
from atomflux.langevin import fit_decay_rate, predicted_variance, run_ensemble
from atomflux import cli

VACUUM = BathSpec.vacuum()

GAMMA_RATIOS = (1e-3, 0.1, 1.0, 10.0)
BETA_OMEGAS = ("vacuum", 0.1, 1.0, 100.0)
CUTOFFS = (10.0, 100.0, 1000.0)
FDR_TOL = dict(rtol=1e-12, atol=1e-15)


def _bath(beta_omega):
    return VACUUM if beta_omega == "vacuum" else BathSpec(float(beta_omega))


def _cells():
    return [(g, b) for g in GAMMA_RATIOS for b in BETA_OMEGAS]


@contextmanager
def _verdict(label):
    start = time.perf_counter()
    info = {}
    yield info
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={v}" for k, v in info.items())
    print(f"ACCEPTANCE {label} PASS {detail}({elapsed:.2f} s)")


@pytest.fixture(scope="module")
def budget_matrix():
    out = {}
    for gamma, beta in _cells():
        p = AtomParams.from_damping(gamma, 1.0, 1.0)
        for lam in CUTOFFS:
            out[(gamma, beta, lam)] = power_budget(p, _bath(beta), FrequencyGrid(lam, 2**15))
    return out


def test_criterion_1_fdr_identity_suite():
    """Both FDR identities at <= 1e-12 relative on >= 1e4 frequencies, full matrix."""
    with _verdict("C1[fdr-identities]") as info:
        worst = 0.0
        grid = FrequencyGrid(100.0, 16384)
        for gamma, beta in _cells():
            p = AtomParams.from_damping(gamma, 1.0, 1.0)
            bath = _bath(beta)
            reports = [
                check_field_fdr(grid, 0.0, bath, **FDR_TOL),
                check_field_fdr(grid, 1.0, bath, **FDR_TOL),
                check_atom_fdr_reduction(grid, p, bath, **FDR_TOL),
                check_parity(grid, p, bath, **FDR_TOL),
            ]
            for rep in reports:
                assert rep.passed, rep.format_line()
                assert rep.max_rel_residual <= 1e-12, rep.format_line()
                worst = max(worst, rep.max_rel_residual)
        info["cells"] = len(_cells())
        info["worst_rel"] = f"{worst:.2e} "


def test_criterion_2_zero_net_flux(budget_matrix):
    """|P_r + P_x| <= 1e-10 |P_r| from the pointwise-cancelled integrand, every cell and cutoff."""
    with _verdict("C2[zero-net-flux]") as info:
        worst = 0.0
        for (gamma, beta, lam), budget in budget_matrix.items():
            ratio = abs(budget.net_far_field) / abs(budget.p_r)
            assert ratio <= 1e-10, (gamma, beta, lam, ratio)
            assert abs(budget.p_r + budget.p_cross) <= 1e-10 * abs(budget.p_r)
            worst = max(worst, ratio)
        info["budgets"] = len(budget_matrix)
        info["worst_net_over_Pr"] = f"{worst:.2e} "


def test_criterion_3_budget_closure(budget_matrix):
    """|P_gamma + P_xi| <= 1e-10 |P_gamma| and ||P_gamma| - |P_r|| <= est_error."""
    with _verdict("C3[budget-closure]") as info:
        worst_pair = 0.0
        for (gamma, beta, lam), budget in budget_matrix.items():
            assert abs(budget.p_gamma + budget.p_xi) <= 1e-10 * abs(budget.p_gamma)
            gap = abs(abs(budget.p_gamma) - abs(budget.p_r))
            assert gap <= budget.est_error, (gamma, beta, lam, gap, budget.est_error)
            worst_pair = max(worst_pair, gap / abs(budget.p_r))
        info["worst_gap_over_Pr"] = f"{worst_pair:.2e} "


def test_criterion_4_cutoff_independence_and_log_tail(budget_matrix):
    """Balances hold at every cutoff while |P_r| grows log-linearly (R^2 >= 0.99)."""
    with _verdict("C4[log-tail]") as info:
        for (gamma, beta, lam), budget in budget_matrix.items():
            assert budget.closure_violations(1e-10) == [], (gamma, beta, lam)
        p = AtomParams.from_damping(0.1, 1.0, 1.0)
        lams = [10.0 ** (1.0 + 0.5 * i) for i in range(7)]  # three decades
        vals = []
        for lam in lams:
            n = int(min(2**20, max(2**13, 2 ** math.ceil(math.log2(80.0 * lam)))))
            b = power_budget(p, VACUUM, FrequencyGrid(lam, n))
            assert b.closure_violations(1e-10) == []
            vals.append(b.p_r)
        slope, _, r2 = fit_log_slope(lams, vals)
        assert slope > 0.0
        assert r2 >= 0.99
        info["slope"] = f"{slope:.4e}"
        info["r2"] = f"{r2:.6f} "


LANGEVIN_CELLS = [
    (gamma, beta) for gamma in (0.01, 0.1) for beta in ("vacuum", 1.0, 10.0)
]


@pytest.mark.parametrize("gamma,beta", LANGEVIN_CELLS)
def test_criterion_5_langevin_fdr_closure(gamma, beta):
    """Simulated equilibrium var_Q within 5% and 3 SE of the spectral prediction."""
    label = f"C5[gamma={gamma},beta={beta}]"
    with _verdict(label) as info:
        p = AtomParams.from_damping(gamma, 1.0, 1.0)
        bath = _bath(beta)
        cutoff = 50.0
        res = run_ensemble(
            p, bath, cutoff=cutoff, dt=0.05, t_total=200.0 / gamma, n_traj=400, master_seed=20240,
            t_burn=20.0 / p.gamma, workers=2,
        )
        pred = predicted_variance(p, bath, cutoff, n_points=2**16)
        stats = res.stats
        rel = abs(stats.var_q - pred) / pred
        n_sigma = abs(stats.var_q - pred) / stats.se_var_q
        assert rel <= 0.05, (rel, stats.var_q, pred)
        assert n_sigma <= 3.0, (n_sigma, stats.var_q, pred)
        info["rel_dev"] = f"{rel:.2%}"
        info["n_sigma"] = f"{n_sigma:.2f} "


def test_criterion_6_classical_equipartition():
    """m omega^2 <Q^2> = 1/beta within 2% in the classical regime."""
    with _verdict("C6[equipartition]") as info:
        p = AtomParams.from_damping(0.01, 1.0, 1.0)
        beta = 0.01
        var = predicted_variance(p, BathSpec(beta), cutoff=50.0, n_points=32768)
        product = p.m * p.omega**2 * var * beta
        assert product == pytest.approx(1.0, rel=0.02)
        # the residue-calculus Lorentzian integral backing the limit
        res = integrate_spectrum(
            lambda k: 1.0 / ((p.omega**2 - k**2) ** 2 + 4.0 * p.gamma**2 * k**2),
            FrequencyGrid(2000.0, 2**20),
        )
        assert 2.0 * math.pi * res.value == pytest.approx(
            math.pi / (2.0 * p.gamma * p.omega**2), rel=1e-3
        )
        info["m_w2_varQ_beta"] = f"{product:.6f} "


def test_criterion_7_relaxation_rate():
    """Ensemble-variance deficit decays at 2 gamma within 5%."""
    with _verdict("C7[relaxation-rate]") as info:
        gamma = 0.1
        p = AtomParams.from_damping(gamma, 1.0, 1.0)
        bath = BathSpec(1.0)
        res = run_ensemble(
            p, bath, cutoff=20.0, dt=0.05, t_total=80.0, n_traj=20000, master_seed=991, t_burn=1.0, workers=2
        )
        pred = predicted_variance(p, bath, 20.0, 32768)
        omega_osc = math.sqrt(p.omega**2 - p.gamma**2)
        rate = fit_decay_rate(
            res.times(),
            res.var_q_series,
            pred,
            fit_window=(0.2 / gamma, 1.2 / gamma),
            smooth_time=math.pi / omega_osc,
        )
        assert rate == pytest.approx(2.0 * gamma, rel=0.05)
        info["rate"] = f"{rate:.4f}"
        info["target"] = f"{2 * gamma:.4f} "


@pytest.mark.parametrize("beta", ["vacuum", 1.0])
def test_criterion_8_oracle_equivalence(beta):
    """Late-time frequency form within 1% of the brute-force history at t = 40/gamma."""
    with _verdict(f"C8[oracle,beta={beta}]") as info:
        p = AtomParams.from_damping(0.05, 1.0, 1.0)
        bath = _bath(beta)
        t = 40.0 / p.gamma
        frame = ObservationFrame(r=30.0, t=t, t_prime=t)  # r <= t/20
        cutoff = 20.0
        late = interacting_hadamard_late(frame, p, bath, FrequencyGrid(cutoff, 2**14))
        direct = interacting_hadamard_direct(frame, p, bath, time_step=0.02, cutoff=cutoff)
        rel = abs(late - direct.total) / abs(direct.total)
        assert rel <= 0.01, (late, direct.total)
        info["rel_dev"] = f"{rel:.2e} "


def test_criterion_9_exchange_symmetry():
    """Hadamard correction invariant under swapping the two observation points."""
    with _verdict("C9[exchange-symmetry]") as info:
        p = AtomParams.from_damping(0.05, 1.0, 1.0)
        grid = FrequencyGrid(20.0, 2**13)
        rng = np.random.default_rng(123)
        worst = 0.0
        t_base = 1000.0
        for _ in range(100):
            r = float(rng.uniform(1.0, 45.0))
            dt_obs = float(rng.uniform(-2.0, 2.0))
            f1 = ObservationFrame(r=r, t=t_base, t_prime=t_base - dt_obs)
            f2 = ObservationFrame(r=r, t=t_base - dt_obs, t_prime=t_base)
            v1 = interacting_hadamard_late(f1, p, VACUUM, grid)
            v2 = interacting_hadamard_late(f2, p, VACUUM, grid)
            worst = max(worst, abs(v1 - v2) / max(abs(v1), 1e-300))
        assert worst <= 1e-10
        info["pairs"] = 100
        info["worst_rel"] = f"{worst:.2e} "


def test_criterion_10_worker_count_determinism(tmp_path):
    """Byte-identical outputs for identical (config, seed) at worker counts 1, 4, 16."""
    with _verdict("C10[determinism]") as info:
        config = tmp_path / "run.ini"
        config.write_text(
            "[atom]\ngamma = 0.1\n\n[bath]\nbeta = 1.0\n\n"
            "[grid]\ncutoff = 20.0\nn_points = 4096\n\n"
            "[langevin]\ndt = 0.1\nt_total = 300.0\nn_traj = 64\nseed = 99\nt_burn = 60.0\n"
        )
        blobs = []
        for workers in (1, 4, 16):
            out = tmp_path / f"w{workers}"
            code = cli.main(
                ["relax", "--config", str(config), "--workers", str(workers), "--out", str(out)]
            )
            assert code == cli.EXIT_PASS
            blobs.append(
                (out / "relax_series.csv").read_bytes() + (out / "relax_stats.json").read_bytes()
            )
        assert blobs[0] == blobs[1] == blobs[2]
        payload = json.loads((tmp_path / "w1" / "relax_stats.json").read_text())
        info["n_traj"] = payload["stats"]["n_traj"]
        info["bytes"] = f"{len(blobs[0])} "
