"""Fluctuation-dissipation identity suites at machine precision."""

import math

import numpy as np
import pytest

from atomflux.greens import (
    FOUR_PI,
    AtomParams,
    BathSpec,
    FrequencyGrid,
    field_hadamard_ft,
    thermal_factor,
)
from atomflux.fdr import check_atom_fdr_reduction, check_field_fdr, check_parity

VACUUM = BathSpec.vacuum()
TOL = dict(rtol=1e-12, atol=1e-15)  # the tolerances.fdr_rtol and fdr_atol defaults


def test_field_fdr_generic():
    rep = check_field_fdr(FrequencyGrid(40.0, 4096), 1.0, BathSpec(3.0), **TOL)
    assert rep.passed
    assert rep.max_rel_residual <= 1e-13


def test_field_fdr_origin_vacuum_exact_zero():
    rep = check_field_fdr(FrequencyGrid(100.0, 2048), 0.0, VACUUM, **TOL)
    assert rep.max_abs_residual == 0.0
    assert rep.max_rel_residual == 0.0
    assert rep.passed


def test_field_fdr_mollified_kernel_cross_check():
    # rebuild Im G0R(r; kappa) by quadrature of the mollified time-domain
    # retarded kernel and compare the Hadamard kernel against it
    r, sigma, beta = 0.7, 5e-4, 5.0
    grid = FrequencyGrid(20.0, 256)
    t = np.linspace(r - 8 * sigma, r + 8 * sigma, 8001)
    moll = np.exp(-((t - r) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    bath = BathSpec(beta)
    worst = 0.0
    for kappa in grid.values:
        ft = np.trapezoid(moll * np.exp(1j * kappa * t), t) / (FOUR_PI * r)
        im_numeric = ft.imag / math.exp(-(kappa * sigma) ** 2 / 2.0)
        lhs = field_hadamard_ft(r, kappa, bath)
        rhs = thermal_factor(kappa, bath) * im_numeric
        scale = max(abs(lhs), abs(rhs))
        if scale > 1e-12:
            worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-10


@pytest.mark.parametrize(
    "gamma,omega,bath,cutoff",
    [
        (0.1, 1.0, VACUUM, 50.0),
        (0.01, 2.0, BathSpec(0.5), 50.0),
        (1.0, 1.0, BathSpec(100.0), 200.0),
    ],
)
def test_atom_fdr_reduction(gamma, omega, bath, cutoff):
    p = AtomParams.from_damping(gamma, 1.0, omega)
    rep = check_atom_fdr_reduction(FrequencyGrid(cutoff, 8192), p, bath, **TOL)
    assert rep.passed
    assert rep.max_rel_residual <= 1e-12


def test_atom_fdr_reduction_spot_value_at_resonance():
    # hand reduction at kappa = omega: both sides equal
    # coth(beta omega/2) / (16 pi gamma^2 omega^3), because m/e^2 = 1/(8 pi gamma)
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    beta = 2.0
    bath = BathSpec(beta)
    coth = 1.0 / math.tanh(beta * p.omega / 2.0)
    lhs = (p.omega * coth / FOUR_PI) * (1.0 / (2.0 * p.gamma * p.omega)) ** 2
    rhs = (p.m / p.e**2) * coth / (2.0 * p.gamma * p.omega)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert p.m / p.e**2 == pytest.approx(1.0 / (8.0 * math.pi * p.gamma), rel=1e-15)
    got_lhs = field_hadamard_ft(0.0, p.omega, bath) * abs(1j / (2.0 * p.gamma * p.omega)) ** 2
    assert got_lhs == pytest.approx(lhs, rel=1e-13)


def test_parity_residuals_exact():
    p = AtomParams.from_damping(0.2, 1.0, 1.0)
    rep = check_parity(FrequencyGrid(30.0, 4096), p, VACUUM, **TOL)
    assert rep.passed
    assert rep.max_abs_residual == 0.0


def test_parity_with_thermal_factor():
    p = AtomParams.from_damping(0.2, 1.0, 1.0)
    rep = check_parity(FrequencyGrid(30.0, 4096), p, BathSpec(4.0), **TOL)
    assert rep.passed
    assert rep.max_abs_residual == 0.0
    assert "beta=4.0" in rep.name


def test_forced_failure_with_impossible_tolerance():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    rep = check_atom_fdr_reduction(FrequencyGrid(50.0, 1024), p, VACUUM, rtol=1e-30, atol=1e-300)
    assert not rep.passed


def test_report_serialization():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    rep = check_parity(FrequencyGrid(10.0, 64), p, VACUUM, **TOL)
    d = rep.to_dict()
    assert d["passed"] and d["n_points"] == 64 and d["cutoff"] == 10.0
    assert set(d) == {
        "name", "cutoff", "n_points", "max_abs_residual", "max_rel_residual", "worst_kappa",
        "passed", "rtol", "atol", "n_rel_skipped",
    }
    line = rep.format_line()
    assert line.startswith("PASS parity[vacuum]") and "(n=64, cutoff=10)" in line


def test_identity_matrix_spot_cells():
    # a slice of the acceptance matrix at reduced grid size
    for gamma_ratio in (1e-3, 10.0):
        p = AtomParams.from_damping(gamma_ratio, 1.0, 1.0)
        for bath in (VACUUM, BathSpec(0.1), BathSpec(100.0)):
            grid = FrequencyGrid(80.0, 4096)
            assert check_field_fdr(grid, 0.5, bath, **TOL).max_rel_residual <= 1e-12
            assert check_atom_fdr_reduction(grid, p, bath, **TOL).max_rel_residual <= 1e-12
            assert check_parity(grid, p, bath, **TOL).max_rel_residual <= 1e-12


def test_identity_envelope_extremes():
    # the largest grid / hottest and coldest baths the contract covers
    p = AtomParams.from_damping(1e-3, 1.0, 1.0)
    grid = FrequencyGrid(1e4, 2**20)
    for bath in (BathSpec(1e-2), BathSpec(1e3), VACUUM):
        assert check_field_fdr(grid, 2.0, bath, **TOL).max_rel_residual <= 1e-12
        assert check_atom_fdr_reduction(grid, p, bath, **TOL).max_rel_residual <= 1e-12
