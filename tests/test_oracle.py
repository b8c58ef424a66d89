"""Brute-force Hadamard oracle: transform helpers, causality, and cross-validation."""

import math

import numpy as np
import pytest

from atomflux.greens import AtomParams, BathSpec, FrequencyGrid
from atomflux.flux import (
    HadamardOracleResult,
    ObservationFrame,
    _filon_cos_uniform,
    atom_response_kernel,
    free_hadamard_kernel_lags,
    interacting_hadamard_direct,
    interacting_hadamard_late,
    transient_correlator,
)

VACUUM = BathSpec.vacuum()
N_KAPPA = 8192  # the oracle.n_kappa default


def test_filon_transform_against_direct_sum():
    # small case where the Filon sums can be evaluated directly
    rng = np.random.default_rng(1)
    svals = rng.standard_normal(17)
    h, tau0, dtau, m = 0.37, -2.1, 0.83, 9
    got = _filon_cos_uniform(svals, h, tau0, dtau, m)
    nodes = h * np.arange(17)
    lam = nodes[-1]
    for k in range(m):
        tau = tau0 + k * dtau
        theta = h * tau
        s, c = math.sin(theta), math.cos(theta)
        alpha = (theta**2 + theta * s * c - 2.0 * s * s) / theta**3
        beta = 2.0 * (theta * (1.0 + c * c) - 2.0 * s * c) / theta**3
        gamma = 4.0 * (s - theta * c) / theta**3
        c_even = float(np.sum(svals[0::2] * np.cos(nodes[0::2] * tau)))
        c_even -= 0.5 * (svals[0] + svals[-1] * math.cos(lam * tau))
        c_odd = float(np.sum(svals[1::2] * np.cos(nodes[1::2] * tau)))
        ref = h * (alpha * svals[-1] * math.sin(lam * tau) + beta * c_even + gamma * c_odd)
        assert got[k] == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_filon_quadrature_against_scipy():
    from scipy.integrate import quad

    f = lambda k: np.exp(-0.4 * k) * np.cos(3.0 * k) + 0.2 * k
    nodes = np.linspace(0.0, 6.0, 1601)
    got = _filon_cos_uniform(f(nodes), 6.0 / 1600, 0.35, 1.3, 6)
    for i in range(6):
        tau = 0.35 + 1.3 * i
        ref, _ = quad(lambda k: f(k) * math.cos(k * tau), 0.0, 6.0, limit=400)
        assert got[i] == pytest.approx(ref, abs=1e-9)


def test_free_hadamard_kernel_vacuum_closed_form():
    # regulated vacuum kernels in closed form:
    #   r = 0:  (1/4 pi^2) [L sin(L tau)/tau + (cos(L tau) - 1)/tau^2]
    #   r > 0:  (1/8 pi^2 r) [(1 - cos L(r+tau))/(r+tau) + (1 - cos L(r-tau))/(r-tau)]
    lam = 20.0
    taus = np.array([0.5, 1.7, 4.0, 13.0])

    got0 = free_hadamard_kernel_lags(0.0, VACUUM, lam, taus[0], taus[1] - taus[0], 2, n_kappa=4096)
    for tau, val in zip(taus[:2], got0):
        ref = (lam * math.sin(lam * tau) / tau + (math.cos(lam * tau) - 1.0) / tau**2) / (
            4.0 * math.pi**2
        )
        assert val == pytest.approx(ref, rel=1e-8, abs=1e-12)

    r = 3.0
    got_r = free_hadamard_kernel_lags(r, VACUUM, lam, 0.5, 0.6, 4, n_kappa=8192)
    for i in range(4):
        tau = 0.5 + 0.6 * i
        def piece(x):
            return (1.0 - math.cos(lam * x)) / x if x != 0 else 0.0
        ref = (piece(r + tau) + piece(r - tau)) / (8.0 * math.pi**2 * r)
        assert got_r[i] == pytest.approx(ref, rel=1e-7, abs=1e-12)


def test_free_hadamard_kernel_even_in_lag():
    lam = 10.0
    pos = free_hadamard_kernel_lags(1.5, BathSpec(2.0), lam, 0.8, 0.3, 3, n_kappa=2048)
    neg = free_hadamard_kernel_lags(1.5, BathSpec(2.0), lam, -0.8, -0.3, 3, n_kappa=2048)
    assert pos == pytest.approx(neg, rel=1e-12)


def test_atom_response_kernel_causal():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    tau = np.array([-2.0, -0.1, 0.0, 0.5, 3.0])
    vals = atom_response_kernel(tau, p)
    assert np.all(vals[:2] == 0.0)
    om = math.sqrt(1.0 - p.gamma**2)
    assert vals[3] == pytest.approx(math.exp(-p.gamma * 0.5) * math.sin(om * 0.5) / om, rel=1e-14)


def test_transient_correlator_free_oscillator_limit():
    # with negligible damping and ground-state moments the correlator is
    # cos(omega (s - s')) / (2 m omega)
    p = AtomParams.from_damping(1e-8, 2.0, 1.3)
    s, sp = 4.2, 1.1
    got = transient_correlator(s, sp, p)
    expected = math.cos(p.omega * (s - sp)) / (2.0 * p.m * p.omega)
    assert got == pytest.approx(expected, rel=1e-6)


def test_transient_correlator_custom_moments():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    base = transient_correlator(0.0, 0.0, p)
    assert base == pytest.approx(1.0 / (2.0 * p.m * p.omega), rel=1e-14)


def test_direct_oracle_outside_light_cone_vanishes():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=30.0, t=20.0, t_prime=25.0)  # both t < r
    res = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.05, cutoff=10.0, n_kappa=N_KAPPA)
    assert res.total == 0.0
    assert (res.interference_a, res.interference_b, res.radiation, res.transient) == (0, 0, 0, 0)


def test_direct_oracle_step_halving_converges():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=15.0, t=400.0, t_prime=400.0)
    kw = dict(cutoff=20.0, n_kappa=N_KAPPA)
    coarse = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.04, **kw)
    fine = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.02, **kw)
    assert abs(coarse.total - fine.total) <= 1e-3 * abs(fine.total)


@pytest.mark.parametrize("bath", [VACUUM, BathSpec(1.0)])
def test_direct_vs_late_time(bath):
    # smoke version of the acceptance comparison at gamma = 0.1
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=15.0, t=400.0, t_prime=400.0)
    grid = FrequencyGrid(20.0, 2**14)
    late = interacting_hadamard_late(frame, p, bath, grid)
    direct = interacting_hadamard_direct(frame, p, bath, time_step=0.02, cutoff=20.0, n_kappa=N_KAPPA)
    assert late == pytest.approx(direct.total, rel=0.01)


def test_direct_oracle_transient_regime_reported():
    # early frame: the transient term is a visible fraction of the total
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=2.0, t=8.0, t_prime=8.0)
    res = interacting_hadamard_direct(frame, p, BathSpec(1.0), time_step=0.01, cutoff=20.0, n_kappa=N_KAPPA)
    assert res.transient != 0.0
    assert math.isfinite(res.total)


def test_direct_oracle_result_breakdown():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=10.0, t=300.0, t_prime=299.5)
    res = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.025, cutoff=10.0, n_kappa=N_KAPPA)
    d = res.to_dict()
    assert d["total"] == pytest.approx(
        d["interference_a"] + d["interference_b"] + d["radiation"] + d["transient"], rel=1e-15
    )
    assert d["t_eff"] == pytest.approx(300.0, abs=res.time_step)
    assert d["t_prime_eff"] == pytest.approx(299.5, abs=res.time_step)
    assert isinstance(res, HadamardOracleResult)


def test_direct_oracle_rejects_bad_step():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=10.0, t=300.0, t_prime=300.0)
    with pytest.raises(ValueError):
        interacting_hadamard_direct(frame, p, VACUUM, time_step=0.0, cutoff=10.0, n_kappa=N_KAPPA)


def test_weak_coupling_correction_vanishes():
    # e -> 0: both routes reduce to the free field; the correction GH - G0H
    # (transient included) becomes negligible against the free-field kernel
    p = AtomParams(e=1e-3, m=1.0, omega=1.0)
    frame = ObservationFrame(r=5.0, t=120.0, t_prime=120.0)
    grid = FrequencyGrid(10.0, 4096)
    free_scale = abs(
        float(free_hadamard_kernel_lags(5.0, VACUUM, 10.0, 0.0, 1.0, 1, n_kappa=4096)[0])
    )
    late = interacting_hadamard_late(frame, p, VACUUM, grid)
    direct = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.02, cutoff=10.0, n_kappa=N_KAPPA)
    assert abs(late) <= 1e-4 * free_scale
    assert abs(direct.total) <= 1e-4 * free_scale
    assert abs(direct.transient) <= 1e-4 * free_scale
