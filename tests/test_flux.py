"""Far-field flux integrands, power budget closure, and the late-time Hadamard form."""

import math
import tracemalloc

import numpy as np
import pytest

from atomflux.greens import (
    AtomParams,
    BathSpec,
    FrequencyGrid,
    atom_hadamard_ft,
    atom_retarded_ft,
    field_hadamard_ft,
    field_retarded_ft,
    thermal_factor,
)
from atomflux.spectral import integrate_spectrum
from atomflux.flux import (
    ObservationFrame,
    PowerBudget,
    _budget_rows,
    corrected_hadamard_spectrum,
    dissipated_power_density,
    far_field_flux_integrand,
    far_field_flux_terms,
    interacting_hadamard_late,
    near_field_flux_integrand,
    power_budget,
    radiated_power_density,
)

VACUUM = BathSpec.vacuum()
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def test_pointwise_cancellation_random_samples():
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = AtomParams.from_damping(float(rng.uniform(0.01, 0.5)), 1.0, float(rng.uniform(0.5, 2.0)))
        bath = VACUUM if rng.random() < 0.5 else BathSpec(float(rng.uniform(0.2, 5.0)))
        r = float(rng.uniform(0.5, 100.0))
        kap = rng.uniform(0.01, 60.0, 400) * rng.choice([-1.0, 1.0], 400)
        a, b, c = far_field_flux_terms(r, kap, p, bath)
        net = far_field_flux_integrand(r, kap, p, bath)
        scale = np.max(np.abs(np.stack([a, b, c])), axis=0)
        assert np.all(np.abs(net) <= 1e-12 * scale)


def test_radiation_constituent_matches_purely_radiated_density():
    # the radiation term of the shell-integrated flux reduces to the P_r
    # density: |exp(i k r)/(4 pi r)|^2 against the 4 pi r^2 shell area
    p = AtomParams.from_damping(0.07, 1.0, 1.0)
    bath = BathSpec(1.5)
    r = 37.0
    for kappa in (p.omega, 0.3, -2.2):
        _, _, radiation = far_field_flux_terms(r, kappa, p, bath)
        shell_flow = -FOUR_PI * r**2 * radiation
        expected = radiated_power_density(kappa, p, bath) / TWO_PI
        assert shell_flow == pytest.approx(expected, rel=1e-12)


def test_flux_integrand_even_in_kappa():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    kap = np.linspace(0.05, 30.0, 300)
    for bath in (VACUUM, BathSpec(0.8)):
        f_pos = far_field_flux_integrand(3.0, kap, p, bath)
        f_neg = far_field_flux_integrand(3.0, -kap, p, bath)
        assert f_pos == pytest.approx(f_neg, abs=1e-25)


def test_near_field_reduces_to_far_field():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    bath = BathSpec(1.0)
    kappa = 2.0
    # near-field extra terms scale like 1/(kappa r) relative to constituents
    for r, bound in ((5.0, 0.2), (500.0, 2e-3)):
        near = near_field_flux_integrand(r, kappa, p, bath)
        scale = np.max(np.abs(far_field_flux_terms(r, kappa, p, bath)))
        assert abs(near) <= bound * scale


@pytest.mark.parametrize("bath", [VACUUM, BathSpec(1.0), BathSpec(0.1)])
def test_power_budget_closures(bath):
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    grid = FrequencyGrid(100.0, 2**16)
    b = power_budget(p, bath, grid)
    assert b.closure_violations(rtol=1e-10) == []
    assert abs(b.net_far_field) <= 1e-10 * abs(b.p_r)
    assert b.p_r + b.p_cross == 0.0
    assert b.p_gamma + b.p_xi == 0.0
    assert abs(abs(b.p_gamma) - abs(b.p_r)) <= b.est_error
    assert b.p_r > 0.0  # outward flow
    assert b.p_gamma < 0.0  # recorded dissipation flow points out of the oscillator


def test_power_budget_positivity_pointwise():
    p = AtomParams.from_damping(0.2, 1.0, 1.0)
    kap = np.linspace(-80, 80, 4001)
    kap = kap[kap != 0.0]
    for bath in (BathSpec(0.5), BathSpec(50.0), VACUUM):
        assert np.all(radiated_power_density(kap, p, bath) >= 0.0)
        assert np.all(dissipated_power_density(kap, p, bath) <= 0.0)


def test_power_budget_against_adaptive_oracle():
    from scipy.integrate import quad

    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    grid = FrequencyGrid(100.0, 2**18)
    b = power_budget(p, VACUUM, grid)
    adaptive, _ = quad(
        lambda k: radiated_power_density(k, p, VACUUM), -100.0, 100.0, points=[-1.0, 1.0], limit=800
    )
    assert b.p_r == pytest.approx(adaptive / TWO_PI, rel=1e-3)
    assert b.p_r > 0.0


def test_power_budget_cutoff_independence_of_closure():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    vals = []
    for lam, n in ((10.0, 2**13), (100.0, 2**15), (1000.0, 2**17)):
        b = power_budget(p, VACUUM, FrequencyGrid(lam, n))
        assert b.closure_violations(1e-10) == []
        vals.append(b.p_r)
    assert vals[0] < vals[1] < vals[2]  # individual flows grow with the cutoff


def test_power_budget_r_independence():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    grid = FrequencyGrid(50.0, 2**14)
    b1 = power_budget(p, VACUUM, grid, r=10.0)
    b2 = power_budget(p, VACUUM, grid, r=300.0)
    assert b1.p_r == b2.p_r
    assert abs(b1.net_far_field) <= 1e-10 * b1.p_r
    assert abs(b2.net_far_field) <= 1e-10 * b2.p_r


def _reference_power_budget(p, bath, grid, r=None):
    """Four separate quadratures, each density written out from the greens kernels.

    The fused single-pass ``power_budget`` must reproduce this bit for bit.
    """
    if r is None:
        r = 100.0 / p.omega
    c = p.e**2 / p.m

    def radiated(k):
        return c * (k**2 / FOUR_PI) * atom_hadamard_ft(k, p, bath)

    def dissipated(k):
        return -c * k * np.imag(atom_retarded_ft(k, p)) * field_hadamard_ft(0.0, k, bath)

    def net(k):
        u = field_retarded_ft(r, k)
        g = atom_retarded_ft(k, p)
        pref = c * k**2 * thermal_factor(k, bath) / TWO_PI
        t_interf_a = pref * np.real(1j * np.real(u) * np.conj(u) * np.conj(g))
        t_interf_b = pref * np.real(-np.imag(u) * u * g)
        t_radiation = pref * np.real(1j * g * (u * np.conj(u)))
        return t_interf_a + t_interf_b + t_radiation

    res_r = integrate_spectrum(radiated, grid)
    res_cross = integrate_spectrum(lambda k: -radiated(k), grid)
    res_gamma = integrate_spectrum(dissipated, grid)
    res_net = integrate_spectrum(net, grid)
    return PowerBudget(
        omega=p.omega,
        gamma=p.gamma,
        beta=bath.beta,
        cutoff=grid.cutoff,
        p_r=res_r.value,
        p_cross=res_cross.value,
        p_gamma=res_gamma.value,
        p_xi=-res_gamma.value,
        net_far_field=-FOUR_PI * r**2 * (TWO_PI * res_net.value),
        est_error=res_r.est_error + res_gamma.est_error,
    )


@pytest.mark.parametrize("gamma", [0.001, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("beta", [math.inf, 0.1, 1.0, 100.0])
def test_budget_densities_bitwise_even_on_mirror_grid(gamma, beta):
    # power_budget evaluates its rows on kappa > 0 only and mirrors them, which
    # is exact only because every density, and every row _budget_rows writes,
    # is bitwise even on the mirror grid
    p = AtomParams.from_damping(gamma, 1.0, 1.0)
    bath = BathSpec(beta)
    r = 100.0 / p.omega
    for lam, n in ((10.0, 2**12), (1000.0, 2**15)):
        kap = FrequencyGrid(lam, n).values
        rows = np.empty((3, n))
        _budget_rows(p, bath, r, kap, rows)
        for vals in (
            radiated_power_density(kap, p, bath),
            dissipated_power_density(kap, p, bath),
            far_field_flux_integrand(r, kap, p, bath),
            *rows,
        ):
            assert np.array_equal(vals, vals[::-1])


@pytest.mark.parametrize("gamma", [0.001, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("beta", [math.inf, 0.1, 1.0, 100.0])
def test_power_budget_matches_four_quadrature_reference(gamma, beta):
    p = AtomParams.from_damping(gamma, 1.0, 1.0)
    bath = BathSpec(beta)
    # 2^16 spans whole evaluation blocks; 65540 ends in a block with a
    # remainder on the full grid and is one block on its half grid
    for lam, n in ((10.0, 2**12), (100.0, 2**12), (1000.0, 2**12), (100.0, 2**16), (1000.0, 65540)):
        grid = FrequencyGrid(lam, n)
        assert power_budget(p, bath, grid).to_dict() == _reference_power_budget(p, bath, grid).to_dict()
    # at 16384 <= n <= 32766 the whole grid is long enough for numpy to elide
    # the net row's complex temporaries but its positive half is not, so only
    # the net row's rounding residue may move
    grid = FrequencyGrid(100.0, 2**14)
    fused = power_budget(p, bath, grid)
    ref = _reference_power_budget(p, bath, grid)
    assert (fused.p_r, fused.p_gamma, fused.est_error) == (ref.p_r, ref.p_gamma, ref.est_error)
    assert abs(fused.net_far_field) <= 1e-10 * abs(fused.p_r)
    # n = 30 has no half grid: est_error is the rounding floor alone
    grid = FrequencyGrid(20.0, 30)
    assert grid.halved() is None
    assert power_budget(p, bath, grid, r=7.0).to_dict() == _reference_power_budget(p, bath, grid, r=7.0).to_dict()


def test_power_budget_memory_bounded():
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    grid = FrequencyGrid(100.0, 2**18)
    power_budget(p, BathSpec(1.0), grid)  # warm: first-call allocations stay out
    tracemalloc.start()
    try:
        power_budget(p, BathSpec(1.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the three-row buffer plus one row's reduction; kernels live per block
    assert peak <= 6 * grid.n_points * 8


def test_power_budget_serialization():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    b = power_budget(p, BathSpec(2.0), FrequencyGrid(20.0, 1024))
    row = b.csv_row()
    assert len(row.split(",")) == len(PowerBudget.CSV_COLUMNS)
    d = b.to_dict()
    assert d["Lambda"] == 20.0 and d["beta"] == 2.0
    assert d["P_xi"] == -d["P_gamma"]


# ---------------------------------------------------------------------------
# late-time interacting Hadamard function
# ---------------------------------------------------------------------------


def test_late_hadamard_is_real_and_finite():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    frame = ObservationFrame(r=10.0, t=900.0, t_prime=899.3)
    val = interacting_hadamard_late(frame, p, BathSpec(1.0), FrequencyGrid(20.0, 4096))
    assert isinstance(val, float)
    assert math.isfinite(val)


def test_late_hadamard_equal_time_symmetric():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    g = FrequencyGrid(20.0, 4096)
    f = ObservationFrame(r=12.0, t=900.0, t_prime=900.0)
    v = interacting_hadamard_late(f, p, VACUUM, g)
    assert math.isfinite(v)


def test_late_hadamard_exchange_invariance():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    g = FrequencyGrid(20.0, 4096)
    dt = 0.7 / p.omega
    f1 = ObservationFrame(r=15.0, t=900.0, t_prime=900.0 - dt)
    f2 = ObservationFrame(r=15.0, t=900.0 - dt, t_prime=900.0)
    v1 = interacting_hadamard_late(f1, p, VACUUM, g)
    v2 = interacting_hadamard_late(f2, p, VACUUM, g)
    assert abs(v1 - v2) <= 1e-10 * abs(v1)


def test_late_hadamard_margin_enforced():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    g = FrequencyGrid(20.0, 1024)
    early = ObservationFrame(r=10.0, t=50.0, t_prime=50.0)  # t < 20/gamma
    late = ObservationFrame(r=10.0, t=400.0, t_prime=400.0)  # t = 20/gamma = 20 r
    assert not early.late_time_ok(p.gamma)
    assert late.late_time_ok(p.gamma)
    # the late-time form is still evaluated; the oracle reports the margin beside it
    assert math.isfinite(interacting_hadamard_late(early, p, VACUUM, g))


def test_corrected_spectrum_real_even():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    kap = np.linspace(0.05, 15.0, 200)
    for bath in (VACUUM, BathSpec(2.0)):
        b_pos = corrected_hadamard_spectrum(8.0, kap, p, bath)
        b_neg = corrected_hadamard_spectrum(8.0, -kap, p, bath)
        assert np.array_equal(b_pos, b_neg)
        assert np.isrealobj(b_pos)


def test_observation_frame_validation():
    with pytest.raises(ValueError):
        ObservationFrame(r=0.0, t=10.0, t_prime=10.0)
    f = ObservationFrame(r=2.0, t=500.0, t_prime=499.0)
    assert f.dt_obs == 1.0
    assert f.late_time_ok(gamma=0.1)
    assert not f.late_time_ok(gamma=0.001)
