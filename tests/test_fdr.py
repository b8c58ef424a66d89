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
from atomflux.fdr import IdentityReport, _report, check_atom_fdr_reduction, check_field_fdr, check_parity

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


def test_field_fdr_catches_a_wrong_thermal_factor(monkeypatch):
    # coth(beta kappa) in place of coth(beta kappa / 2), wherever it is read:
    # the mode sum shares no thermal arithmetic with the kernel, so it disagrees
    from atomflux import fdr, greens

    def wrong(kappa, bath):
        return 1.0 / np.tanh(bath.beta * np.asarray(kappa, dtype=float))

    monkeypatch.setattr(greens, "thermal_factor", wrong)
    monkeypatch.setattr(fdr, "thermal_factor", wrong)
    rep = check_field_fdr(FrequencyGrid(40.0, 4096), 1.0, BathSpec(3.0), **TOL)
    assert not rep.passed and rep.max_rel_residual > TOL["rtol"]
    assert rep.name == "field_fdr[r=1,beta=3.0]"


def test_field_fdr_mollified_kernel_cross_check():
    # rebuild Im G0R(r; kappa) by quadrature of the mollified time-domain
    # retarded kernel and compare the Hadamard kernel against it
    r, sigma, beta = 0.7, 5e-4, 5.0
    grid = FrequencyGrid(20.0, 256)
    t = np.linspace(r - 8 * sigma, r + 8 * sigma, 8001)
    moll = np.exp(-((t - r) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    bath = BathSpec(beta)
    worst = 0.0
    for kappa in np.concatenate([kap for _, kap in grid.pieces()]):
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


def test_parity_checks_the_field_kernel_at_the_field_fdr_separation(monkeypatch):
    # fdr-check gives the field FDR the separation 1/omega, so parity checks
    # the field kernel's mirror there: one ulp off at kappa < 0 for r = 1/2
    # fails at omega = 2, where the exact kernels leave exact zeros
    from atomflux import fdr, greens

    p = AtomParams.from_damping(0.1, 1.0, 2.0)
    grid = FrequencyGrid(40.0, 4096)
    exact = dict(rtol=0.0, atol=TOL["atol"])
    assert check_parity(grid, p, VACUUM, **exact).passed

    def skewed(r, kappa):
        out = greens.field_retarded_im(r, kappa)
        return np.where((r == 0.5) & (kappa < 0), np.nextafter(out, np.inf), out)

    monkeypatch.setattr(fdr, "field_retarded_im", skewed)
    rep = check_parity(grid, p, VACUUM, **exact)
    assert not rep.passed
    assert 0.0 < rep.max_rel_residual < 1e-15


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
    assert d["name"] == "parity[vacuum]"


def test_identity_matrix_spot_cells():
    # a slice of the acceptance matrix at reduced grid size
    for gamma_ratio in (1e-3, 10.0):
        p = AtomParams.from_damping(gamma_ratio, 1.0, 1.0)
        for bath in (VACUUM, BathSpec(0.1), BathSpec(100.0)):
            grid = FrequencyGrid(80.0, 4096)
            reports = [
                check_field_fdr(grid, 0.5, bath, **TOL),
                check_atom_fdr_reduction(grid, p, bath, **TOL),
                check_parity(grid, p, bath, **TOL),
            ]
            assert all(rep.max_rel_residual <= 1e-12 and rep.worst_kappa > 0 for rep in reports)


def test_identity_envelope_extremes():
    # the largest grid / hottest and coldest baths the contract covers
    p = AtomParams.from_damping(1e-3, 1.0, 1.0)
    grid = FrequencyGrid(1e4, 2**20)
    for bath in (BathSpec(1e-2), BathSpec(1e3), VACUUM):
        assert check_field_fdr(grid, 2.0, bath, **TOL).max_rel_residual <= 1e-12
        assert check_atom_fdr_reduction(grid, p, bath, **TOL).max_rel_residual <= 1e-12


# ---------------------------------------------------------------------------
# streamed reports: the semantics of one report over the residuals laid end
# to end in the order they are visited
# ---------------------------------------------------------------------------


def _concatenated_report(name, grid, kap, abs_res, scale, rtol, atol):
    """The report of residuals at the points ``kap``, one each, reduced as whole arrays."""
    meaningful = scale > atol
    if np.any(meaningful):
        rel = abs_res[meaningful] / scale[meaningful]
        imax = int(np.argmax(rel))
        max_rel = float(rel[imax])
        worst_index = int(np.flatnonzero(meaningful)[imax])
    else:
        max_rel = 0.0
        worst_index = int(np.argmax(abs_res))
    skipped_ok = not np.any(abs_res[~meaningful] > atol)
    return IdentityReport(
        name=name,
        cutoff=grid.cutoff,
        n_points=grid.n_points,
        max_abs_residual=float(np.max(abs_res)),
        max_rel_residual=max_rel,
        worst_kappa=float(kap[worst_index]),
        passed=bool(max_rel <= rtol and skipped_ok),
        rtol=rtol,
        atol=atol,
        n_rel_skipped=int(np.size(scale) - np.count_nonzero(meaningful)),
    )


def _crafted(case, half):
    """Two (residual, scale) rows over a grid's n/2 kappa > 0 points that stress one rule of the report.

    Also returns the index of the point whose kappa the report must name:
    rows 0 and 1 of a piece are visited in turn before the next piece, so the
    first maximum visited may sit at a larger kappa than another.
    """
    abs_res = np.full((2, half), 1e-17)
    scale = np.ones((2, half))
    worst = 0
    if case == "tie_across_parts":
        abs_res[1, 5] = abs_res[0, 40] = abs_res[0, 20000] = 3e-13  # the same relative maximum in three parts
        worst = 40
    elif case == "nan_residual":
        abs_res[0, [7, 20001]] = 2e-13
        abs_res[1, 21] = abs_res[0, 30] = abs_res[0, 20050] = np.nan  # the first NaN wins, and max_abs is NaN
        worst = 30
    elif case == "all_skipped":
        scale[:] = 1e-16
        abs_res[1, 9] = abs_res[0, 30] = abs_res[0, 20000] = 5e-16  # the largest residual names the kappa, tied across parts
        worst = 30
    elif case == "max_rel_zero":
        abs_res[:] = 0.0
        scale[0, :4] = 0.0  # the first meaningful entry names the kappa
        worst = 4
    elif case == "skipped_over_atol":
        scale[1, 12] = 0.0
        abs_res[1, 12] = 1e-14  # a skipped entry above atol fails the check
    return abs_res, scale, worst


@pytest.mark.parametrize("case", ["tie_across_parts", "nan_residual", "all_skipped", "max_rel_zero", "skipped_over_atol"])
def test_streamed_report_equals_the_concatenated_report(case):
    # the report is that of the residuals laid end to end in the order they
    # are visited, piece by piece and row by row within a piece: the first
    # maximum visited names the kappa
    grid = FrequencyGrid(3.0, 2**16 + 12)  # two pieces of 16387 points
    abs_res, scale, worst = _crafted(case, grid.n_points // 2)

    def residuals(kap):
        i = np.rint(kap / grid.spacing - 0.5).astype(int)
        for row in range(2):
            yield abs_res[row, i], scale[row, i]

    order = [(kap, *pair) for _, kap in grid.pieces() for pair in residuals(kap)]
    assert len(order) == 4
    want = _concatenated_report("crafted", grid, *(np.concatenate(column) for column in zip(*order)), **TOL)
    got = _report("crafted", grid, residuals, **TOL)
    assert repr(got) == repr(want)
    assert got.worst_kappa == (worst + 0.5) * grid.spacing


@pytest.mark.parametrize("check", ["field_r0", "field_r1", "atom", "parity"])
def test_suites_memory_is_bounded_by_a_piece(check):
    # a suite at 2^20 points holds what it holds at 2^16: the arrays of one
    # piece, never a grid-length array (a grid builds none when it is made)
    import tracemalloc

    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    bath = BathSpec(1.0)
    run = {
        "field_r0": lambda g: check_field_fdr(g, 0.0, bath, **TOL),
        "field_r1": lambda g: check_field_fdr(g, 1.0, bath, **TOL),
        "atom": lambda g: check_atom_fdr_reduction(g, p, bath, **TOL),
        "parity": lambda g: check_parity(g, p, bath, **TOL),
    }[check]
    peaks = []
    for n in (2**16, 2**20):
        grid = FrequencyGrid(100.0, n)
        run(grid)  # warm: first-call allocations stay out
        tracemalloc.start()
        try:
            run(grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


def _whole_grid_reports(grid, kap, p, bath, r):
    """The three suites' residuals at all of the kappa > 0 points of the mirror grid ``kap`` at once, reduced as whole arrays.

    The parity residuals compare the kernels there with their mirror images,
    read off ``kap`` reversed.
    """
    from atomflux import fdr

    pos = slice(grid.n_points // 2, None)
    k = kap[pos]
    x = bath.beta * k
    n_bose = np.exp(-x) / -np.expm1(-x)
    mode = k / FOUR_PI if r == 0 else np.sin(k * r) / (FOUR_PI * r)
    field = fdr._compare(fdr.field_hadamard_ft(r, k, bath), (1.0 + 2.0 * n_bose) * mode)
    gr = fdr.atom_retarded_ft(kap, p)
    tf = fdr.thermal_factor(kap, bath)
    atom = fdr._compare(fdr.field_hadamard_ft(0.0, k, bath) * np.abs(gr[pos]) ** 2, (p.m / p.e**2) * tf[pos] * np.imag(gr[pos]))
    im_u = fdr.field_retarded_im(1.0 / p.omega, kap)
    residuals = [
        np.abs(np.imag(gr) + np.imag(gr[::-1])),
        np.abs(np.real(gr) - np.real(gr[::-1])),
        np.abs(gr[::-1] - np.conj(gr)),
        np.abs(im_u + im_u[::-1]),
        np.abs(tf + tf[::-1]),
    ]
    scales = [np.abs(np.imag(gr)), np.abs(np.real(gr)), np.abs(gr), np.abs(im_u), np.abs(tf)]
    parity = np.concatenate([a[pos] for a in residuals]), np.concatenate([a[pos] for a in scales])
    names = (f"field_fdr[r={r:g},{bath.describe()}]", f"atom_fdr_reduction[{bath.describe()}]", f"parity[{bath.describe()}]")
    kaps = (k, k, np.tile(k, len(residuals)))
    return [_concatenated_report(name, grid, kk, *pair, **TOL) for name, kk, pair in zip(names, kaps, (field, atom, parity))]


@pytest.mark.parametrize("n", [4096, 2**17 + 12])  # one piece; four pieces of 16385 and 16386 points
@pytest.mark.parametrize("broken", [False, True], ids=["kernels", "uneven_thermal_factor"])
def test_streamed_suites_equal_whole_grid_reports(n, broken, monkeypatch, mirror_values):
    # each suite, walked piece by piece over the kappa > 0 points, reports
    # what the whole-grid arrays give; a thermal factor that is not odd makes
    # the atom and parity residuals nonzero and uneven, so the worst kappa
    # depends on every piece's place in the laid-out order
    from atomflux import fdr

    if broken:
        monkeypatch.setattr(fdr, "thermal_factor", lambda kappa, bath: np.exp(np.asarray(kappa) / 40.0))
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    grid = FrequencyGrid(100.0, n)
    for bath in (VACUUM, BathSpec(1.0)):
        for r in (0.0, 1.0):
            got = [
                check_field_fdr(grid, r, bath, **TOL),
                check_atom_fdr_reduction(grid, p, bath, **TOL),
                check_parity(grid, p, bath, **TOL),
            ]
            want = _whole_grid_reports(grid, mirror_values(grid), p, bath, r)
            assert [repr(rep) for rep in got] == [repr(rep) for rep in want]
            assert all(rep.worst_kappa > 0 for rep in got)
            assert all(rep.passed for rep in got) is not broken
