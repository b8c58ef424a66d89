"""Scaling covariance, bit for bit.

With hbar = c = k_B = 1 every rate (omega, gamma, the cutoff) may be scaled
by s if every time (beta, dt, t_total, t_burn, r, t, time_step) is scaled by
1/s, with m held.  Then var_q -> var_q/s, var_qdot -> s var_qdot, every
budget flow -> s^2 flow and GH - G0H -> s^2 (GH - G0H).  At s = 4 and 1/4
every factor, sqrt(s) for the coupling e included, is a power of two, so
every floating-point operation scales exactly and the routes must agree
with ``==``.  The check cannot see a dimensionless factor (2, pi), but it
catches a wrong power of dt, the cutoff or beta.
"""

import json
import math
from dataclasses import astuple

import numpy as np
import pytest

from atomflux.cli import main
from atomflux.flux import (
    ObservationFrame,
    interacting_hadamard_direct,
    interacting_hadamard_late,
    power_budget,
)
from atomflux.greens import AtomParams, BathSpec, FrequencyGrid
from atomflux.langevin import predicted_variance, run_ensemble

SCALES = (4.0, 0.25)
VACUUM = BathSpec.vacuum()


def _atom(p: AtomParams, s: float) -> AtomParams:
    # gamma = e^2 / (8 pi m), so e scales by sqrt(s)
    return AtomParams(e=p.e * math.sqrt(s), m=p.m, omega=p.omega * s)


def _bath(bath: BathSpec, s: float) -> BathSpec:
    return bath if bath.is_vacuum else BathSpec(bath.beta / s)


UNDERDAMPED = AtomParams.from_damping(0.05, 1.0, 1.0)
BATHS = (VACUUM, BathSpec(1.0))


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("bath", BATHS, ids=["vacuum", "beta1"])
def test_power_budget_scales_exactly(s, bath):
    for cutoff in (10.0, 100.0):
        base = power_budget(UNDERDAMPED, bath, FrequencyGrid(cutoff, 4096))
        scaled = power_budget(_atom(UNDERDAMPED, s), _bath(bath, s), FrequencyGrid(cutoff * s, 4096))
        assert (scaled.omega, scaled.gamma, scaled.beta, scaled.cutoff) == (
            base.omega * s, base.gamma * s, base.beta / s, base.cutoff * s)
        flows = ("p_r", "p_cross", "p_gamma", "p_xi", "net_far_field", "est_error")
        assert [getattr(scaled, f) for f in flows] == [s * s * getattr(base, f) for f in flows]


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("bath", BATHS, ids=["vacuum", "beta1"])
def test_predicted_variance_scales_exactly(s, bath):
    base = predicted_variance(UNDERDAMPED, bath, 50.0, 4096)
    assert predicted_variance(_atom(UNDERDAMPED, s), _bath(bath, s), 50.0 * s, 4096) == base / s


def _frame(s: float) -> ObservationFrame:
    return ObservationFrame(r=10.0 / s, t=120.0 / s, t_prime=118.3 / s)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("bath", BATHS, ids=["vacuum", "beta1"])
def test_late_hadamard_scales_exactly(s, bath):
    base = interacting_hadamard_late(_frame(1.0), UNDERDAMPED, bath, FrequencyGrid(20.0, 4096))
    grid = FrequencyGrid(20.0 * s, 4096)
    scaled = interacting_hadamard_late(_frame(s), _atom(UNDERDAMPED, s), _bath(bath, s), grid)
    assert scaled == s * s * base


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("bath", BATHS, ids=["vacuum", "beta1"])
def test_direct_hadamard_scales_exactly_term_by_term(s, bath):
    base = interacting_hadamard_direct(_frame(1.0), UNDERDAMPED, bath, time_step=0.05, cutoff=20.0)
    scaled = interacting_hadamard_direct(
        _frame(s), _atom(UNDERDAMPED, s), _bath(bath, s), time_step=0.05 / s, cutoff=20.0 * s
    )
    assert base.interference_a != 0.0 and base.radiation != 0.0
    for term in ("interference_a", "interference_b", "radiation", "transient"):
        assert getattr(scaled, term) == s * s * getattr(base, term), term
    for time in ("t_eff", "t_prime_eff", "time_step"):
        assert getattr(scaled, time) == getattr(base, time) / s, time


# underdamped, overdamped (two real mode filters) and the exact critical
# point, whose explicit step loop is its own path: e = 1 and omega = gamma
_CRITICAL_GAMMA = AtomParams(e=1.0, m=1.0, omega=1.0).gamma
REGIMES = {
    "underdamped": (AtomParams.from_damping(0.1, 1.0, 1.0), BathSpec(1.0)),
    "overdamped": (AtomParams.from_damping(2.0, 1.0, 1.0), VACUUM),
    "critical": (AtomParams(e=1.0, m=1.0, omega=_CRITICAL_GAMMA), BathSpec(1.0)),
}


def _ensemble(p, bath, s):
    # dt * cutoff and the step count are scale-free, so the record and its band are the same
    return run_ensemble(
        p, bath, cutoff=20.0 * s, dt=0.05 / s, t_total=60.0 / s, n_traj=6, master_seed=7, t_burn=5.0 / s
    )


@pytest.mark.parametrize("regime", REGIMES)
def test_run_ensemble_scales_exactly(regime):
    p, bath = REGIMES[regime]
    assert regime != "critical" or p.gamma == p.omega
    base = _ensemble(p, bath, 1.0)
    for s in SCALES:
        scaled = _ensemble(_atom(p, s), _bath(bath, s), s)
        assert (scaled.dt, scaled.n_steps) == (base.dt / s, base.n_steps)
        assert np.array_equal(scaled.var_q_series, base.var_q_series / s)
        root = math.sqrt(s)  # q scales as 1/sqrt(s), its velocity as sqrt(s)
        b, c = base.stats, scaled.stats
        expected = (b.mean_q / root, b.se_mean_q / root, b.var_q / s, b.se_var_q / s,
                    b.var_qdot * s, b.se_var_qdot * s, b.n_traj, b.t_burn / s)
        assert astuple(c) == expected


# a 50-trajectory relax run: its rates, scaled by s, and its times, by 1/s
RELAX_RATES = {"--omega": 1.0, "--gamma": 0.25, "--cutoff": 10.0}
RELAX_TIMES = {"--beta": 1.0, "--dt": 0.2, "--t-total": 120.0}


def _relax(tmp_path, s):
    argv = ["relax", "--n-traj", "50", "--grid-points", "4096"]
    argv += [x for flag, v in RELAX_RATES.items() for x in (flag, repr(v * s))]
    argv += [x for flag, v in RELAX_TIMES.items() for x in (flag, repr(v / s))]
    out = tmp_path / repr(s)
    assert main(argv + ["--out", str(out)]) == 0
    stats = json.loads((out / "relax_stats.json").read_text())
    lines = (out / "relax_series.csv").read_text().splitlines()[2:]
    return stats, [tuple(float(x) for x in line.split(",")) for line in lines]


def test_relax_outputs_scale_exactly(tmp_path):
    # config_sha256 differs, so the values are compared, not the bytes
    s = 4.0
    base, base_series = _relax(tmp_path, 1.0)
    scaled, scaled_series = _relax(tmp_path, s)
    assert scaled_series == [(t / s, v / s) for t, v in base_series]
    assert scaled["rel_deviation"] == base["rel_deviation"]
    [b], [c] = base["checks"], scaled["checks"]
    assert c == dict(b, value=b["value"] / s, reference=b["reference"] / s)
    assert scaled["stats"]["var_q"] == base["stats"]["var_q"] / s
    assert scaled["stats"]["var_qdot"] == base["stats"]["var_qdot"] * s
    assert scaled["stats"]["t_burn"] == base["stats"]["t_burn"] / s
    assert scaled["passed"] is base["passed"] is True
