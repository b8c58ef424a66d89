"""Stochastic oracle tests: synthesis, integration, statistics, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from atomflux import langevin
from atomflux.greens import AtomParams, BathSpec, FrequencyGrid
from atomflux.spectral import integrate_spectrum
from atomflux.langevin import (
    NyquistError,
    fit_decay_rate,
    noise_spectrum,
    predicted_variance,
    run_ensemble,
)

VACUUM = BathSpec.vacuum()
P_STD = AtomParams.from_damping(0.05, 1.0, 1.0)


def _noise_rows(bath, p, cutoff, dt, t_total, seed, spawn_keys):
    """Forcing records of n + 1 samples, n = t_total / dt, one per spawn key."""
    n_samples = int(round(t_total / dt)) + 1
    amplitudes = langevin._synthesis_amplitudes(bath, p, cutoff, dt, n_samples)
    return langevin._synthesize_rows(amplitudes, n_samples, seed, spawn_keys)


def _propagate_one(p, dt, xi, q0=0.0, qdot0=0.0):
    """Coordinate and velocity of one trajectory driven by the record ``xi``."""
    q, qdot = np.empty(xi.size), np.empty(xi.size)
    for t0, q_blk, v_blk in langevin._propagate(p, dt, xi[None, :], q0, qdot0, langevin._BLOCK_STEPS):
        q[t0 : t0 + len(q_blk)] = q_blk[:, 0]
        qdot[t0 : t0 + len(v_blk)] = v_blk[:, 0]
    return q, qdot


# ---------------------------------------------------------------------------
# noise synthesis
# ---------------------------------------------------------------------------


def test_noise_same_seed_bit_identical():
    a = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=42, spawn_keys=[()])
    b = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=42, spawn_keys=[()])
    assert np.array_equal(a, b)
    c = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=43, spawn_keys=[()])
    assert not np.array_equal(a, c)


def test_noise_nyquist_guard():
    kw = dict(dt=0.1, t_total=10.0, n_traj=1, master_seed=0, t_burn=0.0)
    with pytest.raises(NyquistError):
        run_ensemble(P_STD, VACUUM, cutoff=50.0, **kw)
    # dt == pi/cutoff is allowed
    run_ensemble(P_STD, VACUUM, cutoff=math.pi / 0.1, **kw)


def test_noise_spectrum_vacuum_vs_cold_thermal():
    # coth -> sgn for |beta kappa| >> 1: beta = 1e3 matches the vacuum within
    # 0.5% at and above the oscillator frequency
    kap = np.linspace(1.0, 40.0, 300)
    s_vac = noise_spectrum(kap, P_STD, VACUUM)
    s_cold = noise_spectrum(kap, P_STD, BathSpec(1000.0))
    assert np.max(np.abs(s_cold / s_vac - 1.0)) < 5e-3


def test_noise_spectrum_nonnegative():
    kap = np.linspace(-60.0, 60.0, 1201)
    for bath in (VACUUM, BathSpec(0.3)):
        assert np.all(noise_spectrum(kap, P_STD, bath) >= 0.0)


def test_noise_lag_zero_autocovariance_matches_spectral_integral():
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    bath = BathSpec(1.0)
    pred = integrate_spectrum(lambda k: noise_spectrum(k, p, bath), FrequencyGrid(20.0, 2**14)).value
    rows = _noise_rows(bath, p, cutoff=20.0, dt=0.1, t_total=500.0, seed=777,
                       spawn_keys=[(i,) for i in range(200)])
    vals = np.asarray([float(np.mean(row**2)) for row in rows])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - pred) <= 3.0 * se


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def test_integrate_homogeneous_closed_form():
    dt, n = 1e-3, 20000
    q, _ = _propagate_one(P_STD, dt, np.zeros(n + 1), q0=1.0, qdot0=0.0)
    t = dt * np.arange(n + 1)
    om = math.sqrt(P_STD.omega**2 - P_STD.gamma**2)
    exact = np.exp(-P_STD.gamma * t) * (np.cos(om * t) + (P_STD.gamma / om) * np.sin(om * t))
    assert np.max(np.abs(q - exact)) <= 1e-10


def test_integrate_overdamped_closed_form():
    p = AtomParams.from_damping(2.0, 1.0, 1.0)
    nu = math.sqrt(p.gamma**2 - p.omega**2)
    q, _ = _propagate_one(p, 1e-3, np.zeros(5001), q0=1.0, qdot0=0.0)
    t = 1e-3 * np.arange(5001)
    exact = np.exp(-p.gamma * t) * (np.cosh(nu * t) + (p.gamma / nu) * np.sinh(nu * t))
    assert np.max(np.abs(q - exact)) <= 1e-11


def test_integrate_critical_exact_branch():
    p = AtomParams(e=1.0, m=1.0, omega=1.0 / (8.0 * math.pi))
    assert p.gamma == p.omega
    q, _ = _propagate_one(p, 0.05, np.zeros(201), q0=1.0, qdot0=0.0)
    t = 0.05 * np.arange(201)
    exact = np.exp(-p.gamma * t) * (1.0 + p.gamma * t)
    assert np.max(np.abs(q - exact)) <= 1e-12


def test_integrate_driven_steady_state_amplitude():
    from atomflux.greens import atom_retarded_ft

    k0, dt, t_total = 0.7, 0.01, 400.0
    n = int(t_total / dt)
    tt = dt * np.arange(n + 1)
    q, _ = _propagate_one(P_STD, dt, np.cos(k0 * tt))
    period = 2.0 * math.pi / k0
    tail = q[-int(10 * period / dt):]
    amp = math.sqrt(2.0 * float(np.mean(tail**2)))
    assert amp == pytest.approx(abs(atom_retarded_ft(k0, P_STD)), rel=1e-3)


def test_integrate_energy_decay_rate():
    dt, n = 1e-3, 20000
    q, qdot = _propagate_one(P_STD, dt, np.zeros(n + 1), q0=1.0, qdot0=0.0)
    t = dt * np.arange(n + 1)
    energy = 0.5 * (qdot**2 + P_STD.omega**2 * q**2)
    om = math.sqrt(P_STD.omega**2 - P_STD.gamma**2)
    stride = int(round(2.0 * math.pi / om / dt))
    idx = np.arange(0, n, stride)[:15]
    slope = np.polyfit(t[idx], np.log(energy[idx]), 1)[0]
    assert -slope == pytest.approx(2.0 * P_STD.gamma, rel=0.01)


def test_integrate_linearity_exact():
    xi = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=100.0, seed=42, spawn_keys=[()])[0]
    base_q, base_qdot = _propagate_one(P_STD, 0.1, xi)
    doubled_q, doubled_qdot = _propagate_one(P_STD, 0.1, 2.0 * xi)
    assert np.array_equal(doubled_q, 2.0 * base_q)
    assert np.array_equal(doubled_qdot, 2.0 * base_qdot)
    # per-realization variance quadruples exactly
    assert np.mean(doubled_q**2) == pytest.approx(4.0 * np.mean(base_q**2), rel=1e-14)


# ---------------------------------------------------------------------------
# frequency-domain prediction
# ---------------------------------------------------------------------------


def test_predicted_variance_classical_equipartition():
    # beta omega << 1, gamma << omega: m omega^2 <Q^2> -> 1/beta, via the
    # Lorentzian integral identity (integral of 1/D equals pi/(2 gamma omega^2))
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    beta = 0.01
    var = predicted_variance(p, BathSpec(beta), cutoff=50.0, n_points=32768)
    assert p.m * p.omega**2 * var * beta == pytest.approx(1.0, rel=0.02)


def test_lorentzian_integral_identity():
    # the closed form behind equipartition
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    grid = FrequencyGrid(2000.0, 2**20)
    res = integrate_spectrum(
        lambda k: 1.0 / ((p.omega**2 - k**2) ** 2 + 4.0 * p.gamma**2 * k**2), grid
    )
    expected = math.pi / (2.0 * p.gamma * p.omega**2)
    assert 2.0 * math.pi * res.value == pytest.approx(expected, rel=1e-3)


def test_predicted_variance_vacuum_ground_state():
    p = AtomParams.from_damping(1e-3, 1.0, 1.0)
    var = predicted_variance(p, VACUUM, cutoff=50.0, n_points=2**19)
    assert var == pytest.approx(1.0 / (2.0 * p.m * p.omega), rel=0.01)


def test_predicted_variance_monotone_in_temperature():
    p = AtomParams.from_damping(0.05, 1.0, 1.0)
    v_hot = predicted_variance(p, BathSpec(0.5), 50.0, 32768)
    v_cold = predicted_variance(p, BathSpec(5.0), 50.0, 32768)
    assert v_hot > v_cold


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------


def _small_ensemble_params():
    p = AtomParams.from_damping(0.25, 1.0, 1.0)
    return p, BathSpec(1.0), dict(cutoff=10.0, dt=0.2, t_total=240.0)


def test_equilibrium_stats_from_trajectories():
    # the too-short and empty ensembles are test_run_ensemble_insufficient_burn_raises
    p, bath, kw = _small_ensemble_params()
    stats = run_ensemble(p, bath, n_traj=40, master_seed=9, t_burn=80.0, **kw).stats
    assert stats.n_traj == 40
    assert abs(stats.mean_q) <= 3.0 * stats.se_mean_q
    assert stats.var_q > 0 and stats.var_qdot > 0


def test_standard_error_clt_scaling():
    p, bath, kw = _small_ensemble_params()
    ses = []
    for n in (50, 200, 800):
        res = run_ensemble(p, bath, n_traj=n, master_seed=77, t_burn=80.0, **kw)
        ses.append(res.stats.se_var_q)
    assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.5)
    assert ses[1] / ses[2] == pytest.approx(2.0, rel=0.5)


def test_ensemble_fdr_closure_small():
    # reduced-scale version of the acceptance closure
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    bath = BathSpec(1.0)
    res = run_ensemble(
        p, bath, cutoff=20.0, dt=0.1, t_total=800.0, n_traj=100, master_seed=4, t_burn=20.0 / p.gamma
    )
    pred = predicted_variance(p, bath, cutoff=20.0, n_points=2**14)
    assert abs(res.stats.var_q - pred) <= 3.0 * res.stats.se_var_q


def test_run_ensemble_worker_count_invariance():
    p, bath, kw = _small_ensemble_params()
    r1 = run_ensemble(p, bath, n_traj=70, master_seed=5, t_burn=80.0, workers=1, **kw)
    r4 = run_ensemble(p, bath, n_traj=70, master_seed=5, t_burn=80.0, workers=4, **kw)
    assert np.array_equal(r1.var_q_series, r4.var_q_series)
    assert r1.stats == r4.stats


def test_run_ensemble_matches_single_trajectory_path(monkeypatch):
    # a chunk's batched synthesis and propagation are rowwise identical to each
    # row synthesized and propagated alone, so ensemble members are reproducible
    # one by one; small blocks make the propagation span several of them
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    p, bath, kw = _small_ensemble_params()
    n = int(round(kw["t_total"] / kw["dt"]))
    amplitudes = langevin._synthesis_amplitudes(bath, p, kw["cutoff"], kw["dt"], n + 1)
    xi = langevin._synthesize_rows(amplitudes, n + 1, 5, [(i,) for i in range(6)])
    q_batch, v_batch = np.empty((n + 1, 6)), np.empty((n + 1, 6))
    for t0, q, v in langevin._propagate(p, kw["dt"], xi, 0.0, 0.0, langevin._BLOCK_STEPS):
        q_batch[t0 : t0 + len(q)] = q
        v_batch[t0 : t0 + len(v)] = v
    for i in range(6):
        xi_alone = langevin._synthesize_rows(amplitudes, n + 1, 5, [(i,)])[0]
        assert np.array_equal(xi[i], xi_alone)
        q, qdot = _propagate_one(p, kw["dt"], xi_alone)
        assert np.array_equal(q_batch[:, i], q)
        assert np.array_equal(v_batch[:, i], qdot)


def _reference_advance(p, dt, xi, q0, qdot0):
    """The time-major propagator the block engine replaced: xi is (n + 1, k)."""
    e00, e01, e10, e11, f0q, f0v, f1q, f1v = langevin._step_coefficients(p, dt)
    n, k = xi.shape[0] - 1, xi.shape[1]
    dxi = xi[1:] - xi[:-1]
    u = f0q * xi[:-1] + f1q * dxi
    w = f0v * xi[:-1] + f1v * dxi
    q0 = np.broadcast_to(np.asarray(q0, dtype=float), (k,)).astype(float)
    v0 = np.broadcast_to(np.asarray(qdot0, dtype=float), (k,)).astype(float)

    def ar1(lam, drive, z0):
        out = np.empty((n + 1, k), dtype=complex)
        out[0] = z0
        zi = lam * np.atleast_2d(z0)
        out[1:], _ = langevin._lfilter(
            np.array([1.0 + 0j]), np.array([1.0 + 0j, -lam]), drive, axis=0, zi=zi
        )
        return out

    disc = p.gamma**2 - p.omega**2
    if disc == 0:
        q_mat, v_mat = np.empty((n + 1, k)), np.empty((n + 1, k))
        q_mat[0], v_mat[0] = q0, v0
        q, v = q0.copy(), v0.copy()
        for i in range(n):
            q, v = e00 * q + e01 * v + u[i], e10 * q + e11 * v + w[i]
            q_mat[i + 1], v_mat[i + 1] = q, v
        return q_mat, v_mat
    if disc < 0:
        mu_p = complex(-p.gamma, math.sqrt(-disc))
        denom = 2j * math.sqrt(-disc)
        alpha = ar1(np.exp(mu_p * dt), (w - np.conj(mu_p) * u) / denom, (v0 - np.conj(mu_p) * q0) / denom)
        return 2.0 * alpha.real, 2.0 * (mu_p * alpha).real
    nu = math.sqrt(disc)
    mu_p, mu_m = -p.gamma + nu, -p.gamma - nu
    denom = mu_p - mu_m
    alpha = ar1(math.exp(mu_p * dt), (w - mu_m * u) / denom, (v0 - mu_m * q0) / denom).real
    beta = ar1(math.exp(mu_m * dt), (mu_p * u - w) / denom, (mu_p * q0 - v0) / denom).real
    return alpha + beta, mu_p * alpha + mu_m * beta


def _reference_chunk(args):
    """The whole-record, time-major chunk the block engine replaced."""
    (p, bath, cutoff, dt, n_steps, master_seed, start, stop, burn_index) = args
    n_fft, amp, amp_real = langevin._synthesis_amplitudes(bath, p, cutoff, dt, n_steps + 1)
    xi = np.empty((n_steps + 1, stop - start))
    for j, idx in enumerate(range(start, stop)):
        rng = langevin._noise_generator(master_seed, (idx,))
        a = rng.standard_normal(n_fft // 2 + 1)
        b = rng.standard_normal(n_fft // 2 + 1)
        y = amp * (a + 1j * b)
        y[0] = amp_real[0] * a[0]
        if n_fft % 2 == 0:
            y[-1] = amp_real[-1] * a[-1]
        xi[:, j] = np.fft.irfft(y, n=n_fft)[: n_steps + 1]
    q_mat, v_mat = _reference_advance(p, dt, xi, 0.0, 0.0)
    n_post = n_steps + 1 - burn_index
    return (
        np.einsum("ti,ti->t", q_mat, q_mat),
        q_mat[burn_index:].mean(axis=0),
        np.einsum("ti,ti->i", q_mat[burn_index:], q_mat[burn_index:]) / n_post,
        np.einsum("ti,ti->i", v_mat[burn_index:], v_mat[burn_index:]) / n_post,
    )


_REGIMES = {
    "underdamped": AtomParams.from_damping(0.25, 1.0, 1.0),
    "overdamped": AtomParams.from_damping(2.0, 1.0, 1.0),
    "critical": AtomParams(e=1.0, m=1.0, omega=1.0 / (8.0 * math.pi)),
}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("start, stop", [(0, 32), (64, 70), (96, 97)])
def test_block_engine_matches_time_major_reference(monkeypatch, regime, start, stop):
    # 1237 steps in blocks of 100: the record spans 13 blocks, the last one
    # partial, and the burn-in ends inside the fifth; (96, 97) is a
    # one-trajectory chunk, which is reduced whole.  The per-trajectory means
    # keep the reference's time-ordered sums bit for bit; the series adds the
    # trajectories one by one, where the reference lets einsum group them, so
    # it may differ in its last digits
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    p = _REGIMES[regime]
    if regime == "critical":
        assert p.gamma == p.omega
    job = (p, BathSpec(1.0), 10.0, 0.2, 1237, 11, start, stop, 437)
    got = langevin._ensemble_chunk(job)
    want = _reference_chunk(job)
    assert len(got) == 4
    for g, w in zip(got, want):
        assert g.shape == w.shape
    assert np.allclose(got[0], want[0], rtol=1e-14, atol=0.0)
    for g, w in zip(got[1:], want[1:]):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_initial_state_superposes_on_the_forced_motion(regime):
    # the ensemble starts at rest; another initial state adds only its free
    # decay, which the burn-in removes.  From that state too, the block engine
    # (blocks of 100 steps) keeps the time-major reference's bits
    p, dt = _REGIMES[regime], 0.2
    xi = _noise_rows(BathSpec(1.0), p, 10.0, dt, 240.0, 31, [(i,) for i in range(4)])

    def propagate(forcing, q0, qdot0):
        q, v = np.empty(forcing.shape[::-1]), np.empty(forcing.shape[::-1])
        for t0, q_blk, v_blk in langevin._propagate(p, dt, forcing, q0, qdot0, 100):
            q[t0 : t0 + len(q_blk)], v[t0 : t0 + len(v_blk)] = q_blk, v_blk
        return q, v

    kicked, rest = propagate(xi, 2.0, -1.0), propagate(xi, 0.0, 0.0)
    free = propagate(np.zeros_like(xi), 2.0, -1.0)
    reference = _reference_advance(p, dt, xi.T, 2.0, -1.0)
    for from_kick, from_rest, decay, want in zip(kicked, rest, free, reference):  # q, then qdot
        assert np.array_equal(from_kick, want)
        assert np.max(np.abs(from_kick - from_rest - decay)) <= 1e-14 * np.max(np.abs(from_kick))


def _row_samples_for(r, n_steps):
    """A ``_ROW_SAMPLES`` value that makes the batch size r at n_steps steps."""
    return r * (n_steps + 1)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("start, stop", [(0, 32), (64, 71)])
def test_ensemble_chunk_independent_of_batch_size(monkeypatch, regime, start, stop):
    # r = 2 gives 16 batches of 2 rows (3 batches of 2, 2, 3 for the 7-row
    # chunk), r = 5 gives 5, 5, 5, 5, 6, 6 (one batch of 7), r = k one batch;
    # every output must be the same bits whatever the split
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    n_steps = 1237
    job = (_REGIMES[regime], BathSpec(1.0), 10.0, 0.2, n_steps, 11, start, stop, 437)
    outputs = {}
    for r in (2, 5, stop - start):
        monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(r, n_steps))
        edges = langevin._batch_edges(start, stop, n_steps + 1)
        sizes = np.diff(edges)
        assert edges[0] == start and edges[-1] == stop
        assert sizes.min() >= min(r, stop - start) and sizes.max() - sizes.min() <= 1
        outputs[r] = langevin._ensemble_chunk(job)
    base = outputs.pop(stop - start)
    for got in outputs.values():
        for g, w in zip(got, base):
            assert np.array_equal(g, w)


def test_batch_edges_never_leave_a_lone_row(monkeypatch):
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", 1)  # r = 2, the floor
    for k in range(1, 40):
        sizes = np.diff(langevin._batch_edges(100, 100 + k, 1000))
        assert sizes.sum() == k
        assert sizes.min() >= min(k, 2)


def test_ensemble_chunk_memory_bounded(monkeypatch):
    # a chunk holds one batch of r records at a time: the (r, n) batch, its
    # O(r * block) propagation working set and the O(n) series set the traced
    # peak, a small multiple of r records however many trajectories the chunk has
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    k, n, r = 32, 100_000, 4
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(r, n))
    job = (p, BathSpec(1.0), 50.0, 0.05, n, 1, 0, k, 40_000)
    tracemalloc.start()
    try:
        langevin._ensemble_chunk(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * r * (n + 1) * 8


def test_run_ensemble_insufficient_burn_raises():
    p, bath, kw = _small_ensemble_params()
    with pytest.raises(langevin.BurnInError):
        run_ensemble(p, bath, n_traj=8, master_seed=1, t_burn=239.9, **kw)
    with pytest.raises(ValueError, match="n_traj"):
        run_ensemble(p, bath, n_traj=0, master_seed=1, t_burn=80.0, **kw)


def test_fit_decay_rate_on_synthetic_series():
    t = np.linspace(0.0, 60.0, 1201)
    rate = 0.2
    var_eq = 1.0
    series = var_eq - var_eq * np.exp(-rate * t) * (1.0 + 0.2 * np.cos(2.0 * t))
    got = fit_decay_rate(t, series, var_eq, fit_window=(5.0, 25.0), smooth_time=math.pi)
    assert got == pytest.approx(rate, rel=0.03)
    with pytest.raises(ValueError):
        fit_decay_rate(t, series, var_eq, fit_window=(59.0, 60.0), smooth_time=math.pi)

