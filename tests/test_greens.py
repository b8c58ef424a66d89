"""Kernel-level tests: closed forms, symmetries, limits, and independent oracles."""

import math

import numpy as np
import pytest

from atomflux.greens import (
    FOUR_PI,
    AtomParams,
    BathSpec,
    FrequencyGrid,
    OriginRealPartError,
    atom_hadamard_ft,
    atom_retarded_ft,
    damped_cos,
    damped_sinc,
    fast_fft_length,
    field_hadamard_ft,
    field_retarded_ft,
    field_retarded_im,
    field_retarded_origin,
    thermal_factor,
)

VACUUM = BathSpec.vacuum()


def coth_reference(x):
    """exp-based coth, the independent route for spot values."""
    return (math.exp(x) + math.exp(-x)) / (math.exp(x) - math.exp(-x))


# ---------------------------------------------------------------------------
# atom retarded transform
# ---------------------------------------------------------------------------


def test_atom_retarded_static_response():
    p = AtomParams.from_damping(0.05, 1.0, 2.0)
    assert atom_retarded_ft(0.0, p) == 0.25 + 0.0j


def test_atom_retarded_resonance_is_imaginary():
    p = AtomParams.from_damping(0.3, 2.0, 1.7)
    val = atom_retarded_ft(p.omega, p)
    expected = 1j / (2.0 * p.gamma * p.omega)
    assert val == pytest.approx(expected, rel=1e-15)


def test_atom_retarded_complex_division_oracle():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    val = atom_retarded_ft(1.0, p)
    assert val == pytest.approx(5j, rel=1e-15)
    # independent check: the value times its defining denominator is unity
    rng = np.random.default_rng(11)
    for _ in range(50):
        kappa = float(rng.uniform(-30, 30))
        den = complex(p.omega**2 - kappa**2, -2.0 * p.gamma * kappa)
        assert atom_retarded_ft(kappa, p) * den == pytest.approx(1.0, rel=1e-14)


def test_atom_retarded_conjugate_reflection_exact():
    p = AtomParams.from_damping(0.2, 1.0, 1.0)
    kap = np.linspace(0.05, 40.0, 601)
    assert np.array_equal(atom_retarded_ft(-kap, p), np.conj(atom_retarded_ft(kap, p)))


def test_atom_retarded_imag_carries_sign_of_kappa():
    p = AtomParams.from_damping(0.03, 1.0, 1.5)
    kap = np.linspace(-20, 20, 1001)
    kap = kap[kap != 0]
    assert np.all(np.sign(np.imag(atom_retarded_ft(kap, p))) == np.sign(kap))


# ---------------------------------------------------------------------------
# field kernels
# ---------------------------------------------------------------------------


def test_field_retarded_static_coulomb():
    assert field_retarded_ft(1.0, 0.0) == pytest.approx(1.0 / FOUR_PI, rel=1e-15)


def test_field_retarded_value_r2_k3():
    val = field_retarded_ft(2.0, 3.0)
    assert val == pytest.approx((math.cos(6.0) + 1j * math.sin(6.0)) / (8.0 * math.pi), rel=1e-14)


def test_field_retarded_numeric_fourier_oracle():
    # Fourier-transform the time-domain kernel delta(t - r)/(4 pi r), mollified
    # by a narrow Gaussian, and divide out the mollifier's transform.
    r, sigma = 2.0, 1e-3
    t = np.linspace(r - 8 * sigma, r + 8 * sigma, 4001)
    moll = np.exp(-((t - r) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    for kappa in (0.5, 3.0, -7.25):
        numeric = np.trapezoid(moll * np.exp(1j * kappa * t), t) / (FOUR_PI * r)
        numeric /= math.exp(-(kappa * sigma) ** 2 / 2.0)
        assert numeric == pytest.approx(field_retarded_ft(r, kappa), rel=1e-10)


def test_field_retarded_origin_raises_and_accessors():
    with pytest.raises(OriginRealPartError):
        field_retarded_ft(0.0, 1.0)
    val = field_retarded_origin(3.0)
    assert val.real == 0.0
    assert val.imag == pytest.approx(3.0 / FOUR_PI, rel=1e-15)
    assert field_retarded_im(0.0, 3.0) == pytest.approx(3.0 / FOUR_PI, rel=1e-15)
    with pytest.raises(ValueError):
        field_retarded_ft(-1.0, 1.0)


def test_field_retarded_solves_radial_helmholtz():
    # (r G)'' + kappa^2 (r G) = 0 away from the source; finite differences.
    kappa = 2.3
    r = np.linspace(0.5, 4.0, 20001)
    h = r[1] - r[0]
    rg = r * np.array([field_retarded_ft(x, kappa) for x in r])
    second = (rg[2:] - 2 * rg[1:-1] + rg[:-2]) / h**2
    resid = second + kappa**2 * rg[1:-1]
    assert np.max(np.abs(resid)) < 1e-5 * np.max(np.abs(kappa**2 * rg))


def test_field_hadamard_vacuum_origin():
    assert field_hadamard_ft(0.0, 2.0, VACUUM) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_field_hadamard_node():
    assert abs(field_hadamard_ft(1.0, math.pi, BathSpec(3.0))) < 1e-15


def test_field_hadamard_thermal_spot_exp_oracle():
    val = field_hadamard_ft(0.5, 1.0, BathSpec(1.0))
    expected = coth_reference(0.5) * math.sin(0.5) / (2.0 * math.pi)
    assert val == pytest.approx(expected, rel=1e-14)


def test_field_hadamard_even_in_kappa():
    kap = np.linspace(0.01, 25.0, 500)
    for bath in (VACUUM, BathSpec(0.7)):
        a = field_hadamard_ft(1.3, kap, bath)
        b = field_hadamard_ft(1.3, -kap, bath)
        assert np.array_equal(a, b)


def test_field_hadamard_kappa_zero_limits():
    beta = 2.5
    # Rayleigh-Jeans plateau, independent of separation
    assert field_hadamard_ft(0.0, 0.0, BathSpec(beta)) == pytest.approx(
        1.0 / (2.0 * math.pi * beta), rel=1e-15
    )
    assert field_hadamard_ft(1.7, 0.0, BathSpec(beta)) == pytest.approx(
        field_hadamard_ft(1.7, 1e-9, BathSpec(beta)), rel=1e-6
    )
    assert field_hadamard_ft(0.0, 0.0, VACUUM) == 0.0


# ---------------------------------------------------------------------------
# atom Hadamard transform
# ---------------------------------------------------------------------------


def test_atom_hadamard_resonance_vacuum():
    p = AtomParams.from_damping(0.08, 1.0, 1.0)
    assert atom_hadamard_ft(p.omega, p, VACUUM) == pytest.approx(
        1.0 / (2.0 * p.gamma * p.omega), rel=1e-14
    )


def test_atom_hadamard_evenness():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    bath = BathSpec(2.0)
    assert atom_hadamard_ft(-1.3, p, bath) == atom_hadamard_ft(1.3, p, bath)


def test_atom_hadamard_small_kappa_series_oracle():
    # coth -> 2/(beta kappa) and Im GR -> 2 gamma kappa / omega^4 give the
    # finite limit (2/beta)(2 gamma / omega^4)
    p = AtomParams.from_damping(0.1, 1.0, 1.5)
    beta = 2.0
    limit = (2.0 / beta) * (2.0 * p.gamma / p.omega**4)
    assert atom_hadamard_ft(0.0, p, BathSpec(beta)) == pytest.approx(limit, rel=1e-15)
    assert atom_hadamard_ft(1e-8, p, BathSpec(beta)) == pytest.approx(limit, rel=1e-6)
    assert atom_hadamard_ft(0.0, p, VACUUM) == 0.0


def test_atom_hadamard_nonnegative_at_finite_temperature():
    p = AtomParams.from_damping(0.3, 2.0, 0.8)
    rng = np.random.default_rng(3)
    kap = rng.uniform(-50, 50, 2000)
    assert np.all(atom_hadamard_ft(kap, p, BathSpec(0.4)) >= 0.0)


# ---------------------------------------------------------------------------
# thermal factor
# ---------------------------------------------------------------------------


def test_thermal_factor_vacuum_is_sign():
    assert thermal_factor(-5.0, VACUUM) == -1.0
    assert thermal_factor(2.0, VACUUM) == 1.0


def test_thermal_factor_exp_oracle():
    assert thermal_factor(1.0, BathSpec(2.0)) == pytest.approx(coth_reference(1.0), rel=1e-14)


def test_thermal_factor_series_branch_high_precision():
    # longdouble tanh as the high-precision reference for the Laurent branch
    beta, kappa = 1.0, 1e-6
    ref = float(1.0 / np.tanh(np.longdouble(beta) * np.longdouble(kappa) / 2.0))
    val = thermal_factor(kappa, BathSpec(beta))
    assert val == pytest.approx(ref, rel=1e-12)
    assert val == pytest.approx(2e6, rel=1e-6)


def test_thermal_factor_odd_bitwise():
    kap = np.linspace(1e-7, 30.0, 400)
    for bath in (VACUUM, BathSpec(4.0)):
        assert np.array_equal(thermal_factor(-kap, bath), -thermal_factor(kap, bath))


def _masked_thermal_factor(kap, beta):
    """The split-then-scatter evaluation: series below the cutoff, 1/tanh above."""
    from atomflux.greens import COTH_SERIES_CUTOFF

    x = beta * kap
    out = np.empty_like(kap)
    small = np.abs(x) < COTH_SERIES_CUTOFF
    xs = x[small]
    out[small] = 2.0 / xs + xs / 6.0 - xs**3 / 360.0
    xl = x[~small]
    out[~small] = 1.0 / np.tanh(0.5 * xl)
    return out


@pytest.mark.parametrize(
    "cutoff, beta, straddles",
    [(1.0, 1.0, True), (10.0, 0.01, True), (10.0, 0.5, True), (1000.0, 1.0, False), (1000.0, 30.0, False)],
)
def test_thermal_factor_bitwise_equal_to_masked_evaluation(cutoff, beta, straddles, mirror_values):
    # the 2^16 grid's innermost points sit at beta * kappa = beta * cutoff / 2^16
    kap = mirror_values(FrequencyGrid(cutoff, 2**16))
    assert (beta * np.abs(kap).min() < 1e-4) == straddles
    got = thermal_factor(kap, BathSpec(beta))
    assert np.array_equal(got, _masked_thermal_factor(kap, beta))
    assert thermal_factor(kap[0], BathSpec(beta)) == got[0]


def test_thermal_factor_errors_at_zero():
    with pytest.raises(ValueError):
        thermal_factor(0.0, VACUUM)
    with pytest.raises(ValueError):
        thermal_factor(0.0, BathSpec(1.0))
    with pytest.raises(ValueError):
        thermal_factor(np.array([1.0, 0.0, 2.0]), VACUUM)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def test_atom_params_damping_invariant_exact():
    p = AtomParams(e=0.7, m=1.3, omega=2.0)
    assert p.gamma == p.e**2 / (8.0 * math.pi * p.m)


def test_atom_params_validation():
    with pytest.raises(ValueError):
        AtomParams(e=-1.0, m=1.0, omega=1.0)
    with pytest.raises(ValueError):
        AtomParams(e=1.0, m=0.0, omega=1.0)
    with pytest.raises(ValueError):
        AtomParams(e=1.0, m=1.0, omega=-2.0)
    with pytest.raises(ValueError):
        AtomParams.from_damping(0.0, 1.0, 1.0)


def test_atom_params_from_damping_roundtrip():
    p = AtomParams.from_damping(0.05, 2.0, 1.0)
    assert p.gamma == pytest.approx(0.05, rel=1e-15)
    assert p.gamma == p.e**2 / (8.0 * math.pi * p.m)


def test_bath_spec():
    assert BathSpec.vacuum().is_vacuum
    assert not BathSpec(3.0).is_vacuum
    with pytest.raises(ValueError):
        BathSpec(0.0)
    with pytest.raises(ValueError):
        BathSpec(-1.0)


def test_frequency_grid_mirror_symmetry_exact(mirror_values):
    g = FrequencyGrid(10.0, 48)
    vals = mirror_values(g)
    assert np.array_equal(vals, -vals[::-1])
    assert np.max(np.abs(vals)) <= g.cutoff
    assert 0.0 not in vals
    assert g.spacing == pytest.approx(20.0 / 48)


def test_frequency_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(10.0, 15)
    with pytest.raises(ValueError):
        FrequencyGrid(10.0, 14)
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 32)
    for cutoff in (math.inf, math.nan):
        with pytest.raises(ValueError):
            FrequencyGrid(cutoff, 32)


def test_frequency_grid_halved():
    g = FrequencyGrid(5.0, 64)
    h = g.halved()
    assert h.n_points == 32 and h.cutoff == 5.0
    assert FrequencyGrid(5.0, 16).halved() is None
    assert FrequencyGrid(5.0, 34).halved() is None


# ---------------------------------------------------------------------------
# time-domain oscillator propagator entries
# ---------------------------------------------------------------------------


def test_damped_kernels_underdamped():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    om = math.sqrt(p.omega**2 - p.gamma**2)
    t = np.linspace(0.0, 30.0, 100)
    assert damped_cos(t, p) == pytest.approx(np.exp(-p.gamma * t) * np.cos(om * t), rel=1e-14)
    assert damped_sinc(t, p) == pytest.approx(np.exp(-p.gamma * t) * np.sin(om * t) / om, rel=1e-13, abs=1e-15)


def test_damped_kernels_overdamped_no_overflow():
    p = AtomParams.from_damping(3.0, 1.0, 1.0)
    nu = math.sqrt(p.gamma**2 - p.omega**2)
    t = np.array([0.5, 2.0, 500.0])  # naive cosh would overflow at large t
    expected = np.exp(-p.gamma * t) * np.cosh(np.minimum(nu * t, 700.0))
    assert np.all(np.isfinite(damped_cos(t, p)))
    assert damped_cos(t[:2], p) == pytest.approx(expected[:2], rel=1e-13)
    assert damped_sinc(t[1], p) == pytest.approx(
        math.exp(-p.gamma * t[1]) * math.sinh(nu * t[1]) / nu, rel=1e-13
    )


def test_damped_kernels_critical_limit():
    p = AtomParams(e=1.0, m=1.0, omega=1.0 / (8.0 * math.pi))
    assert p.gamma == p.omega  # exactly critical by construction
    t = np.linspace(0.0, 5.0, 50)
    assert damped_cos(t, p) == pytest.approx(np.exp(-p.gamma * t), rel=1e-14)
    assert damped_sinc(t, p) == pytest.approx(t * np.exp(-p.gamma * t), rel=1e-14, abs=1e-300)


def test_damped_sinc_keeps_every_digit_next_to_critical():
    # gamma / omega - 1 = 1e-12: the difference of two exponentials lost about
    # 9 digits here; against the series t e^{-gamma t} (1 + (nu t)^2/6), whose
    # next term is below 1e-17 relative, the expm1 form reads 1e-14
    p = AtomParams.from_damping(0.3 * (1.0 + 1e-12), 1.0, 0.3)
    assert p.gamma > p.omega
    nu2 = (p.gamma - p.omega) * (p.gamma + p.omega)
    t = np.array([0.05, 1.0, 30.0, 400.0])
    series = t * np.exp(-p.gamma * t) * (1.0 + nu2 * t**2 / 6.0)
    assert damped_sinc(t, p) == pytest.approx(series, rel=1e-13, abs=0.0)


def test_fast_fft_length_is_scipy_next_fast_len():
    # scipy's rule, complex and real: every target up to 8192, the C7 (1601)
    # and C5 (400001) record lengths and the C8 oracle's chirp-z lengths with
    # their neighbours, random targets up to 1e9, and 2^40 + 1
    from scipy.fft import next_fast_len

    lengths = (1601, 42596, 42597, 81096, 81097, 400001)
    targets = [
        *range(1, 8193),
        *(n + d for n in lengths for d in range(-64, 65)),
        *np.random.default_rng(29).integers(1, 10**9, 2000).tolist(),
        2**40 + 1,
    ]
    for target in targets:
        for real in (False, True):
            assert fast_fft_length(target, real=real) == next_fast_len(target, real=real), (target, real)
