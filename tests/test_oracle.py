"""Brute-force Hadamard oracle: transform helpers, causality, and cross-validation."""

import math

import numpy as np
import pytest

from atomflux.greens import AtomParams, BathSpec, FrequencyGrid, NyquistError, field_hadamard_ft
from atomflux.flux import (
    HadamardOracleResult,
    ObservationFrame,
    _filon_coefficients,
    _filon_cos_uniform,
    _filon_panels,
    free_hadamard_kernel_lags,
    interacting_hadamard_direct,
    interacting_hadamard_late,
    transient_correlator,
)

VACUUM = BathSpec.vacuum()


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


def _two_czt_filon(svals, h, tau0, dtau, m):
    """The Filon transform with one ``scipy.signal.czt`` call per node sum.

    ``_filon_cos_uniform`` builds the chirp once for both sums and must give
    these bits exactly.
    """
    from scipy.signal import czt

    taus = tau0 + dtau * np.arange(m)
    alpha, beta, gamma = _filon_coefficients(h * taus)

    def node_sum(vals, step):
        return czt(vals, m=m, w=np.exp(1j * step * dtau), a=np.exp(-1j * step * tau0))

    even_sum = node_sum(svals[0::2], 2.0 * h)
    odd_sum = np.exp(1j * h * taus) * node_sum(svals[1::2], 2.0 * h)
    lam = (svals.size - 1) * h
    c_even = even_sum.real - 0.5 * (svals[0] + svals[-1] * np.cos(lam * taus))
    endpoint = svals[-1] * np.sin(lam * taus)
    return h * (alpha * endpoint + beta * c_even + gamma * odd_sum.real)


# (nodes, m, tau0): m above and below the node count; node-sum lengths and m on
# each side of 46340/46341, where k^2 outgrows int32 and czt's index type
# turns int64 (at 2 * 46341 - 1 nodes only the even sum's does)
@pytest.mark.parametrize(
    "n_nodes, m, tau0",
    [
        (17, 9, -2.1),
        (17, 40, 0.3),
        (8193, 2501, -10.0),
        (2 * 46340 - 1, 100, 0.5),
        (2 * 46341 - 1, 100, -3.0),
        (2 * 46341 + 1, 5, 1.0),
        (101, 46340, 0.1),
        (101, 46341, -0.1),
        (2 * 46340 - 1, 46341, 0.2),
    ],
)
def test_filon_transform_bitwise_equals_two_czt_calls(n_nodes, m, tau0):
    svals = np.random.default_rng(n_nodes + m).standard_normal(n_nodes)
    got = _filon_cos_uniform(svals, 0.01, tau0, 0.02, m)
    assert np.array_equal(got, _two_czt_filon(svals, 0.01, tau0, 0.02, m))


@pytest.mark.parametrize("bath", [VACUUM, BathSpec(1.0)], ids=["vacuum", "beta1"])
def test_filon_transform_bitwise_on_c8_kernels(bath, monkeypatch):
    # both lag kernels of acceptance criterion C8: r = 30 and r = 0
    import atomflux.flux as flux_module

    calls = []

    def recording(*args):
        calls.append(args)
        return _filon_cos_uniform(*args)

    monkeypatch.setattr(flux_module, "_filon_cos_uniform", recording)
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    t = 40.0 / p.gamma
    res = interacting_hadamard_direct(ObservationFrame(r=30.0, t=t, t_prime=t), p, bath, 0.02, 20.0)
    # the r = 0 kernel is even in its lag, so it starts at lag 0 and spans the
    # max(m_u, m_up) + 1 history steps (38501 at C8)
    m_u = round((res.t_eff - 30.0) / res.time_step)
    assert len(calls) == 2 and calls[1][2] == 0.0 and calls[1][4] == m_u + 1 == 38501
    for args in calls:
        assert np.array_equal(_filon_cos_uniform(*args), _two_czt_filon(*args))


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


@pytest.mark.parametrize("cutoff, r", [(20.0, 30.0), (100.0, 30.0), (20.0, 0.0), (1e3, 7.5), (0.5, 1.0)])
def test_filon_panel_rule(cutoff, r):
    # the smallest even count with panel width times r <= 0.075, never below 8192
    n = _filon_panels(cutoff, r)
    assert n % 2 == 0 and n >= 8192
    assert cutoff / n * r <= 0.075
    if n > 8192:
        assert cutoff / (n - 2) * r > 0.075
    if (cutoff, r) == (20.0, 30.0):
        assert n == 8192  # acceptance criterion C8 keeps its panels


def _gauss_legendre_kernel(r, bath, cutoff, taus, panels, order=20):
    """(1/pi) int_0^cutoff G0H(r; kappa) cos(kappa tau) dkappa by composite Gauss-Legendre.

    At panels = cutoff (r + max|tau|) / 2, each spans at most 2 rad of the
    integrand's phase; twice as many panels change the result by <= 1.1e-13 of
    its largest magnitude in every case below.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, cutoff, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    kap = (mid[:, None] + half[:, None] * x).ravel()
    weighted = field_hadamard_ft(r, kap, bath) * (half[:, None] * w).ravel()
    return np.array([np.dot(weighted, np.cos(kap * tau)) for tau in taus]) / math.pi


@pytest.mark.parametrize("bath", [VACUUM, BathSpec(1.0), BathSpec(0.1)], ids=["vacuum", "beta1", "beta0.1"])
@pytest.mark.parametrize("cutoff, r", [(100.0, 30.0), (20.0, 30.0), (20.0, 0.0)])
def test_free_hadamard_kernel_at_the_derived_panels(cutoff, r, bath):
    # at 8192 panels the (100, 30) kernels are off by about 3e-4 of max|K|
    tau0, dtau, m = -45.0, 0.9, 101
    taus = tau0 + dtau * np.arange(m)
    ref = _gauss_legendre_kernel(r, bath, cutoff, taus, int(cutoff * (r + 45.0) / 2.0) + 16)
    got = free_hadamard_kernel_lags(r, bath, cutoff, tau0, dtau, m, _filon_panels(cutoff, r))
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_free_hadamard_kernel_even_in_lag():
    lam = 10.0
    pos = free_hadamard_kernel_lags(1.5, BathSpec(2.0), lam, 0.8, 0.3, 3, n_kappa=2048)
    neg = free_hadamard_kernel_lags(1.5, BathSpec(2.0), lam, -0.8, -0.3, 3, n_kappa=2048)
    assert pos == pytest.approx(neg, rel=1e-12)


def _longdouble_filon_kernel(r, bath, cutoff, n_kappa, taus):
    """(1/pi) times the Filon sum over ``n_kappa`` panels, taken directly in ``np.longdouble``.

    The node values are the float64 ones the oracle uses; the weights, the
    cosines and the sums carry the extended precision.  Below theta = 0.1 the
    weights come from their Taylor series, whose closed forms cancel there.
    """
    one = np.longdouble(1)
    h = np.longdouble(cutoff) / n_kappa
    kap = h * np.arange(n_kappa + 1, dtype=np.longdouble)
    svals = field_hadamard_ft(r, np.linspace(0.0, cutoff, n_kappa + 1), bath).astype(np.longdouble)
    out = []
    for tau in np.asarray(taus, dtype=np.longdouble):
        th = h * tau
        t2 = th * th
        if abs(th) < 0.1:
            alpha = th * t2 * (2 * one / 45 - t2 * (2 * one / 315 - t2 * (2 * one / 4725)))
            beta = 2 * one / 3 + t2 * (2 * one / 15 - t2 * (4 * one / 105 - t2 * (2 * one / 567)))
            gamma = 4 * one / 3 - t2 * (2 * one / 15 - t2 * (one / 210 - t2 * (one / 11340)))
        else:
            sn, cs = np.sin(th), np.cos(th)
            alpha = (t2 + th * sn * cs - 2 * sn * sn) / (t2 * th)
            beta = 2 * (th * (1 + cs * cs) - 2 * sn * cs) / (t2 * th)
            gamma = 4 * (sn - th * cs) / (t2 * th)
        cos_k = np.cos(kap * tau)
        c_even = np.sum(svals[0::2] * cos_k[0::2]) - (svals[0] + svals[-1] * cos_k[-1]) / 2
        c_odd = np.sum(svals[1::2] * cos_k[1::2])
        endpoint = svals[-1] * np.sin(kap[-1] * tau)
        out.append(h * (alpha * endpoint + beta * c_even + gamma * c_odd) / np.longdouble(math.pi))
    return np.array(out)


def test_radiation_kernel_window_is_even_and_accurate_near_zero_lag(monkeypatch):
    # the radiation term convolves the history with G0H(0; tau) over the lags
    # m_u .. -m_up steps; that kernel is even in tau, so the window must be
    # bitwise even about lag 0, and near lag 0, where it peaks, it must match
    # the Filon sum taken directly in extended precision (a chirp-z over the
    # whole window was 8e-10 of max|K| off at one step)
    import atomflux.flux as flux_module

    convolve = flux_module._fft_convolve
    windows = []

    def recording(a, b):
        windows.append(b)
        return convolve(a, b)

    monkeypatch.setattr(flux_module, "_fft_convolve", recording)
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    bath = BathSpec(1.0)
    t = 40.0 / p.gamma
    for dt_obs in (1.7, 0.0):
        frame = ObservationFrame(r=30.0, t=t, t_prime=t - dt_obs)
        res = interacting_hadamard_direct(frame, p, bath, 0.02, 20.0)
        m_u = round((res.t_eff - 30.0) / res.time_step)
        m_up = round((res.t_prime_eff - 30.0) / res.time_step)
        window = windows[-1]  # the kernel at lag (m_u - i) steps for i = 0 .. m_u + m_up
        assert window.size == m_u + m_up + 1
        n = min(m_u, m_up)
        assert np.array_equal(window[m_u - n : m_u + 1][::-1], window[m_u : m_u + n + 1])

    # at dt_obs = 0, the C8 frame
    lags = np.array([1, 100, 5000])
    ref = _longdouble_filon_kernel(0.0, bath, 20.0, _filon_panels(20.0, 0.0), res.time_step * lags)
    assert np.all(np.abs(window[m_u - lags] - ref) <= 1e-12 * np.max(np.abs(window)))


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
    res = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.05, cutoff=10.0)
    assert res.total == 0.0
    assert (res.interference_a, res.interference_b, res.radiation, res.transient) == (0, 0, 0, 0)


def test_direct_oracle_step_halving_converges():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=15.0, t=400.0, t_prime=400.0)
    coarse = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.04, cutoff=20.0)
    fine = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.02, cutoff=20.0)
    assert abs(coarse.total - fine.total) <= 1e-3 * abs(fine.total)


@pytest.mark.parametrize("bath", [VACUUM, BathSpec(1.0)])
def test_direct_vs_late_time(bath):
    # smoke version of the acceptance comparison at gamma = 0.1
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=15.0, t=400.0, t_prime=400.0)
    grid = FrequencyGrid(20.0, 2**14)
    late = interacting_hadamard_late(frame, p, bath, grid)
    direct = interacting_hadamard_direct(frame, p, bath, time_step=0.02, cutoff=20.0)
    assert late == pytest.approx(direct.total, rel=0.01)


def test_direct_oracle_transient_regime_reported():
    # early frame: the transient term is a visible fraction of the total
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=2.0, t=8.0, t_prime=8.0)
    res = interacting_hadamard_direct(frame, p, BathSpec(1.0), time_step=0.01, cutoff=20.0)
    assert res.transient != 0.0
    assert math.isfinite(res.total)


@pytest.mark.parametrize("dt_obs", [1.7, -7.25])
def test_late_time_value_matches_the_history_at_nonzero_dt_obs(dt_obs):
    # C8's atom, distance, cutoff and grid with t' = t - dt_obs: the late-time
    # integrand's cos(kappa dt_obs) factor is not 1, and the value still
    # matches the brute-force history within C8's 1%
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    t = 40.0 / p.gamma
    frame = ObservationFrame(r=30.0, t=t, t_prime=t - dt_obs)
    late = interacting_hadamard_late(frame, p, VACUUM, FrequencyGrid(20.0, 2**14))
    direct = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.02, cutoff=20.0)
    assert abs(late - direct.total) <= 0.01 * abs(direct.total)


def test_direct_oracle_result_breakdown():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=10.0, t=300.0, t_prime=299.5)
    res = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.025, cutoff=10.0)
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
        interacting_hadamard_direct(frame, p, VACUUM, time_step=0.0, cutoff=10.0)
    # above pi/cutoff = 0.314 the history cannot resolve the kernels' band
    with pytest.raises(NyquistError, match="time_step=0.4"):
        interacting_hadamard_direct(frame, p, VACUUM, time_step=0.4, cutoff=10.0)


@pytest.mark.parametrize("steps", [2.8, 2.2, 6.9, 4.0, 1.01, 0.3])
def test_direct_oracle_step_no_larger_than_requested(steps):
    # the history t - r spans ``steps`` requested steps; rounding its even step
    # count to the nearest made t - r = 2.8 steps run at 1.4 times the step
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    frame = ObservationFrame(r=10.0, t=10.0 + steps * 0.05, t_prime=10.0)
    res = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.05, cutoff=10.0)
    assert res.time_step <= 0.05


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
    direct = interacting_hadamard_direct(frame, p, VACUUM, time_step=0.02, cutoff=10.0)
    assert abs(late) <= 1e-4 * free_scale
    assert abs(direct.total) <= 1e-4 * free_scale
    assert abs(direct.transient) <= 1e-4 * free_scale
