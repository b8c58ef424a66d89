"""Stochastic oracle tests: synthesis, integration, statistics, determinism."""

import itertools
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.signal

from atomflux import langevin
from atomflux.greens import AtomParams, BathSpec, FrequencyGrid, atom_hadamard_ft, fast_fft_length
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


def _noise_rows(bath, p, cutoff, dt, t_total, seed, indices):
    """Forcing records of n + 1 samples, n = t_total / dt, one per trajectory index."""
    n_samples = int(round(t_total / dt)) + 1
    amplitudes = langevin._synthesis_amplitudes(bath, p, cutoff, dt, n_samples)
    return langevin._synthesize_rows(amplitudes, n_samples, seed, indices)


def _propagate_one(p, dt, xi):
    """Coordinate and velocity of one trajectory driven from rest by the record ``xi``."""
    q, qdot = np.empty(xi.size), np.empty(xi.size)
    step_map = langevin._step_coefficients(p, dt)
    for t0, q_blk, v_blk in langevin._propagate(p, dt, step_map, xi[None, :]):
        q[t0 : t0 + q_blk.shape[1]] = q_blk[0]
        qdot[t0 : t0 + v_blk.shape[1]] = v_blk[0]
    return q, qdot


# ---------------------------------------------------------------------------
# noise synthesis
# ---------------------------------------------------------------------------


def test_noise_same_seed_bit_identical():
    a = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=42, indices=[0])
    b = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=42, indices=[0])
    assert np.array_equal(a, b)
    c = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=50.0, seed=43, indices=[0])
    assert not np.array_equal(a, c)


def _trajectory_stream(seed, index):
    """Trajectory ``index``'s generator, from public numpy: counter word 1 of ``Philox(seed)`` set to index."""
    return np.random.Generator(np.random.Philox(seed).advance(index << 64))


def _band_limited_row(amplitudes, seed, index):
    """One forcing record drawn in the band-limited layout, independently of _synthesize_rows.

    The trajectory's own freshly seeded generator gives the a's as its first
    n_band normals and the b's as the next n_band; the modes above the band
    are zero and the zero mode (and a Nyquist mode in the band) is real.
    """
    n_fft, amp, amp_real = amplitudes
    n_band = amp.size
    rng = _trajectory_stream(seed, index)
    a = rng.standard_normal(n_band)
    b = rng.standard_normal(n_band)
    y = np.zeros(n_fft // 2 + 1, dtype=complex)
    y[:n_band] = amp * (a + 1j * b)
    y[0] = amp_real[0] * a[0]
    if n_fft % 2 == 0 and n_band == y.size:
        y[-1] = amp_real[-1] * a[-1]
    return np.fft.irfft(y, n=n_fft)


@pytest.mark.parametrize("n_samples", [1000, 1125])  # even and odd FFT lengths
def test_synthesized_rows_match_complex_spectrum_reference(n_samples):
    # the spectrum is written into y.real and y.imag; the rows must keep the
    # bits of amp * (a + 1j * b), the zero mode and (even lengths) the Nyquist
    # mode included: a cutoff above pi/dt leaves the Nyquist amplitude nonzero,
    # and a cutoff of 10 keeps a third of the modes
    dt = 0.1
    for cutoff in (10.0, 1.01 * math.pi / dt):
        amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), P_STD, cutoff, dt, n_samples)
        n_fft, amp, amp_real = amplitudes
        full = cutoff > math.pi / dt
        assert n_fft == n_samples and amp_real[0] > 0 and (amp.size == n_fft // 2 + 1) == full
        if full:
            assert amp_real[-1] > 0
        # each row is its trajectory's public Philox stream: a five-word seed
        # too, and indices on both sides of a chunk edge and past 2^32, batched
        for seed in (0, 7, 20240, 2**128 + 1):
            indices = [0, 31, 32, 2**32 + 1]
            rows = langevin._synthesize_rows(amplitudes, n_samples, seed, indices)
            for index, row in zip(indices, rows):
                assert np.array_equal(row, _band_limited_row(amplitudes, seed, index))


def _full_length_rows(bath, p, cutoff, dt, n_samples, seed, indices):
    """The synthesis that drew normals for every rfft mode, the band's and the rest."""
    n_fft = fast_fft_length(n_samples, real=True)
    kap = 2.0 * math.pi / (n_fft * dt) * np.arange(n_fft // 2 + 1)
    spec = noise_spectrum(kap, p, bath)
    spec[kap > cutoff] = 0.0
    amp, amp_real = np.sqrt(n_fft * spec / (2.0 * dt)), np.sqrt(n_fft * spec / dt)
    a, b = np.empty((2, len(indices), n_fft // 2 + 1))
    for j, index in enumerate(indices):
        rng = _trajectory_stream(seed, index)
        rng.standard_normal(out=a[j])
        rng.standard_normal(out=b[j])
    y = np.empty(a.shape, dtype=complex)
    np.multiply(amp, a, out=y.real)
    np.multiply(amp, b, out=y.imag)
    y[:, 0] = amp_real[0] * a[:, 0]
    if n_fft % 2 == 0:
        y[:, -1] = amp_real[-1] * a[:, -1]
    return np.fft.irfft(y, n=n_fft, axis=-1)[:, :n_samples]


@pytest.mark.parametrize("n_samples", [1024, 1125])  # even and odd FFT lengths
def test_full_band_rows_equal_full_length_draws(n_samples):
    # at dt * cutoff = pi every mode is in the band (the Nyquist mode too at
    # these lengths), so band-limited draws are the full-length draws, bit for bit
    dt = 0.1
    cutoff = math.pi / dt
    amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), P_STD, cutoff, dt, n_samples)
    n_fft, amp, _ = amplitudes
    assert n_fft == n_samples and amp.size == n_fft // 2 + 1
    for seed in (0, 20240):
        rows = langevin._synthesize_rows(amplitudes, n_samples, seed, range(4))
        want = _full_length_rows(BathSpec(1.0), P_STD, cutoff, dt, n_samples, seed, range(4))
        assert np.array_equal(rows, want)


def _one_call_rows(amplitudes, n_samples, seed, indices):
    """The whole (rows, n_band) band spectrum of ``indices``, shaped by one inverse FFT call."""
    n_fft, amp, amp_real = amplitudes
    y = np.empty((len(indices), amp.size), dtype=complex)
    for j, index in enumerate(indices):
        a, b = _trajectory_stream(seed, index).standard_normal((2, amp.size))
        y[j] = amp * (a + 1j * b)
        y[j, 0] = amp_real[0] * a[0]
        if n_fft % 2 == 0 and amp.size == n_fft // 2 + 1:
            y[j, -1] = amp_real[-1] * a[-1]
    return np.fft.irfft(y, n=n_fft, axis=-1)[:, :n_samples]


@pytest.mark.parametrize("cutoff, n_band", [(math.pi / 0.1, 513), (0.1, 2)])  # Nyquist mode in the band; two modes
def test_grouped_synthesis_matches_the_one_call_transform(monkeypatch, cutoff, n_band):
    # a block of 2 n_band + 1 steps makes row groups of two rows: the batch of
    # 7 rows is transformed as 2, 2, 2 and 1 rows, each group straight into the
    # record, and every row keeps the bits of one transform of the whole spectrum
    dt, n_samples, indices = 0.1, 1024, [0, 1, 5, 31, 32, 2**32 + 1, 3]
    amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), P_STD, cutoff, dt, n_samples)
    n_fft, amp, amp_real = amplitudes
    assert n_fft == n_samples and amp.size == n_band and amp_real[-1] > 0
    want = _one_call_rows(amplitudes, n_samples, 20240, indices)
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 2 * n_band + 1)
    irfft, groups = np.fft.irfft, []

    def counted(y, *args, **kwargs):
        groups.append(len(y))
        return irfft(y, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    rows = langevin._synthesize_rows(amplitudes, n_samples, 20240, indices)
    assert groups == [2, 2, 2, 1]
    assert np.array_equal(rows, want)


def test_band_keeps_the_mode_at_the_cutoff_and_drops_the_next():
    dt, n_samples, m = 0.1, 1000, 37
    kap = 2.0 * math.pi / (n_samples * dt) * np.arange(n_samples // 2 + 1)
    # exactly at mode m keeps it; just below it or just below mode m + 1 drops the mode above
    below = np.nextafter(kap, 0.0)
    for cutoff, n_band in ((kap[m], m + 1), (below[m], m), (below[m + 1], m + 1)):
        amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), P_STD, float(cutoff), dt, n_samples)
        assert amplitudes[0] == n_samples and amplitudes[1].size == n_band
        row = langevin._synthesize_rows(amplitudes, n_samples, 3, [0])[0]
        spectrum = np.abs(np.fft.rfft(row))
        assert spectrum[n_band - 1] > 1e-3 * spectrum.max()
        assert np.all(spectrum[n_band:] <= 1e-14 * spectrum.max())


def test_cutoff_below_one_mode_spacing_leaves_the_zero_mode():
    dt, n_samples = 0.1, 1000
    half_spacing = math.pi / (n_samples * dt)
    amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), P_STD, half_spacing, dt, n_samples)
    n_fft, amp, amp_real = amplitudes
    assert amp.size == 1 and amp_real[0] > 0
    row = langevin._synthesize_rows(amplitudes, n_samples, 5, [2])[0]
    level = amp_real[0] * _trajectory_stream(5, 2).standard_normal() / n_fft
    assert np.max(np.abs(row - level)) <= 1e-14 * abs(level)


def test_each_trajectory_draws_two_normals_per_band_mode(monkeypatch):
    # a batch builds one generator and makes one draw of 2 n_band normals per
    # trajectory on it
    generators = []
    original = langevin._noise_generator

    class Counting:
        def __init__(self, rng):
            self._rng = rng
            self.draws = []
            generators.append(self)

        def standard_normal(self, *args, **kwargs):
            out = self._rng.standard_normal(*args, **kwargs)
            self.draws.append(np.size(out))
            return out

        def __getattr__(self, attr):
            return getattr(self._rng, attr)

    monkeypatch.setattr(langevin, "_noise_generator", lambda seed, key: Counting(original(seed, key)))
    p, bath, cutoff, dt, n_steps = P_STD, BathSpec(1.0), 10.0, 0.2, 1237
    n_fft, amp, _ = langevin._synthesis_amplitudes(bath, p, cutoff, dt, n_steps + 1)
    n_band = amp.size
    assert abs(n_band / (n_fft // 2) - cutoff * dt / math.pi) < 1e-2  # a cutoff*dt/pi share of the modes
    assert langevin._batch_edges(3, 10, n_steps + 1) == [3, 10]
    langevin._ensemble_chunk((p, bath, cutoff, dt, n_steps, 11, 3, 10, 437))
    assert [g.draws for g in generators] == [[2 * n_band] * 7]


@pytest.mark.parametrize("seed", [0, 20240, 2**128 + 1])
def test_rekeyed_generator_draws_each_trajectory_stream(seed):
    # one generator, re-keyed row after row, gives each trajectory's first
    # 2 n_band normals bit for bit; draws between rows leave the buffer part
    # used and a 32-bit half cached, which the re-keying must clear
    n_band = 317
    indices = [0, 5, 2**32 + 1, 3]
    rng = langevin._noise_generator(seed, indices[0])
    fresh = rng.bit_generator.state  # read before any draw, as the engine reads it
    for index in indices:
        rng.bit_generator.random_raw(3)
        rng.integers(2**32, dtype=np.uint32)
        fresh["state"]["counter"][1] = index
        rng.bit_generator.state = fresh
        got = rng.standard_normal((2, n_band))
        want = _trajectory_stream(seed, index).standard_normal((2, n_band))
        assert np.array_equal(got, want)
        # the draws stay inside the trajectory's own 2^64 counter blocks
        assert rng.bit_generator.state["state"]["counter"][1] == index


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
    rows = _noise_rows(bath, p, cutoff=20.0, dt=0.1, t_total=500.0, seed=777, indices=range(200))
    vals = np.asarray([float(np.mean(row**2)) for row in rows])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - pred) <= 3.0 * se


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------


def _step_response(p, dt, n):
    """q and qdot from rest under the constant forcing omega^2, whose equilibrium is q = 1.

    q - 1 is then the free decay from (q, qdot) = (-1, 0), so 1 - q is the
    free decay from (1, 0), and qdot is minus its velocity.
    """
    return _propagate_one(p, dt, np.full(n + 1, p.omega**2))


def test_integrate_homogeneous_closed_form():
    dt, n = 1e-3, 20000
    q, _ = _step_response(P_STD, dt, n)
    t = dt * np.arange(n + 1)
    om = math.sqrt(P_STD.omega**2 - P_STD.gamma**2)
    exact = np.exp(-P_STD.gamma * t) * (np.cos(om * t) + (P_STD.gamma / om) * np.sin(om * t))
    assert np.max(np.abs((1.0 - q) - exact)) <= 1e-10


def test_integrate_overdamped_closed_form():
    p = AtomParams.from_damping(2.0, 1.0, 1.0)
    nu = math.sqrt(p.gamma**2 - p.omega**2)
    q, _ = _step_response(p, 1e-3, 5000)
    t = 1e-3 * np.arange(5001)
    exact = np.exp(-p.gamma * t) * (np.cosh(nu * t) + (p.gamma / nu) * np.sinh(nu * t))
    assert np.max(np.abs((1.0 - q) - exact)) <= 1e-11


def test_integrate_critical_exact_branch():
    p = AtomParams(e=1.0, m=1.0, omega=1.0 / (8.0 * math.pi))
    assert p.gamma == p.omega
    q, _ = _step_response(p, 0.05, 200)
    t = 0.05 * np.arange(201)
    exact = np.exp(-p.gamma * t) * (1.0 + p.gamma * t)
    assert np.max(np.abs((1.0 - q) - exact)) <= 1e-12


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
    # the energy about the step response's equilibrium q = 1
    dt, n = 1e-3, 20000
    q, qdot = _step_response(P_STD, dt, n)
    t = dt * np.arange(n + 1)
    energy = 0.5 * (qdot**2 + P_STD.omega**2 * (1.0 - q) ** 2)
    om = math.sqrt(P_STD.omega**2 - P_STD.gamma**2)
    stride = int(round(2.0 * math.pi / om / dt))
    idx = np.arange(0, n, stride)[:15]
    slope = np.polyfit(t[idx], np.log(energy[idx]), 1)[0]
    assert -slope == pytest.approx(2.0 * P_STD.gamma, rel=0.01)


def test_integrate_linearity_exact():
    xi = _noise_rows(VACUUM, P_STD, cutoff=20.0, dt=0.1, t_total=100.0, seed=42, indices=[0])[0]
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


@pytest.mark.parametrize("gamma", [0.001, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("beta", [math.inf, 0.1, 1.0, 100.0])
def test_predicted_variance_on_even_grid_keeps_mirror_grid_bits(gamma, beta, mirror_values, mirror_pair_sums):
    # atom_hadamard_ft is bitwise even, so sampling kappa > 0 alone keeps
    # every bit of math.fsum over the mirror grid's end-corrected pairs
    p = AtomParams.from_damping(gamma, 1.0, 1.0)
    bath = BathSpec(beta)
    for cutoff, n in itertools.product((20.0, 50.0), (32768, 65536)):
        grid = FrequencyGrid(cutoff, n)
        [(value, _)] = mirror_pair_sums(atom_hadamard_ft(mirror_values(grid), p, bath), grid)
        assert predicted_variance(p, bath, cutoff, n).hex() == (value / p.m).hex()


def test_predicted_variance_memory_bounded():
    # the quadrature reduces each piece as it is evaluated, so 2^20 points
    # hold what 2^16 hold: the arrays of one piece
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    peaks = []
    for n in (2**16, 2**20):
        predicted_variance(p, BathSpec(1.0), 50.0, n)  # warm: first-call allocations stay out
        tracemalloc.start()
        try:
            predicted_variance(p, BathSpec(1.0), 50.0, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


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


def test_run_ensemble_worker_count_invariance_several_chunks_per_task():
    # w workers split the chunks into min(chunks, 4 w) tasks: 77 trajectories
    # make 3 chunks, the last partial (3 tasks at every count), 333 make 11 (4,
    # 8 and 11 tasks at 1, 2 and 3 workers) and 600 make 19 (4, 8 and 12
    # tasks), so the task edges fall on other chunks at each count; the series
    # and the statistics keep their bytes
    p, bath = AtomParams.from_damping(0.25, 1.0, 1.0), BathSpec(1.0)
    for n_traj in (77, 333, 600):
        kw = dict(cutoff=10.0, dt=0.2, t_total=40.0, n_traj=n_traj, master_seed=8, t_burn=10.0)
        base = run_ensemble(p, bath, workers=1, **kw)
        for workers in (2, 3):
            res = run_ensemble(p, bath, workers=workers, **kw)
            assert res.var_q_series.tobytes() == base.var_q_series.tobytes()
            assert repr(res.stats) == repr(base.stats)


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    # 64 trajectories make two chunks and so two tasks: 16 workers start a
    # pool of two processes, not sixteen
    sizes = []

    class Recording(langevin.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(langevin, "ProcessPoolExecutor", Recording)
    p, bath, kw = _small_ensemble_params()
    run_ensemble(p, bath, n_traj=64, master_seed=5, t_burn=80.0, workers=16, **kw)
    assert sizes == [2]


def test_run_ensemble_matches_single_trajectory_path(monkeypatch):
    # a chunk's batched synthesis and propagation are rowwise identical to each
    # row synthesized and propagated alone, so ensemble members are reproducible
    # one by one; small blocks make the propagation span several of them
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    p, bath, kw = _small_ensemble_params()
    n = int(round(kw["t_total"] / kw["dt"]))
    amplitudes = langevin._synthesis_amplitudes(bath, p, kw["cutoff"], kw["dt"], n + 1)
    xi = langevin._synthesize_rows(amplitudes, n + 1, 5, range(6))
    q_batch, v_batch = np.empty((6, n + 1)), np.empty((6, n + 1))
    step_map = langevin._step_coefficients(p, kw["dt"])
    for t0, q, v in langevin._propagate(p, kw["dt"], step_map, xi):
        q_batch[:, t0 : t0 + q.shape[1]] = q
        v_batch[:, t0 : t0 + v.shape[1]] = v
    for i in range(6):
        xi_alone = langevin._synthesize_rows(amplitudes, n + 1, 5, [i])[0]
        assert np.array_equal(xi[i], xi_alone)
        q, qdot = _propagate_one(p, kw["dt"], xi_alone)
        assert np.array_equal(q_batch[i], q)
        assert np.array_equal(v_batch[i], qdot)


def _reference_advance(p, dt, xi):
    """The time-major propagator from rest that the block engine replaced: xi is (n + 1, k)."""
    e00, e01, e10, e11, f0q, f0v, f1q, f1v = langevin._step_coefficients(p, dt)
    n, k = xi.shape[0] - 1, xi.shape[1]
    dxi = xi[1:] - xi[:-1]
    u = f0q * xi[:-1] + f1q * dxi
    w = f0v * xi[:-1] + f1v * dxi

    def ar1(lam, drive):
        out = np.zeros((n + 1, k), dtype=complex)
        out[1:] = scipy.signal.lfilter(np.array([1.0 + 0j]), np.array([1.0 + 0j, -lam]), drive, axis=0)
        return out

    disc = p.gamma**2 - p.omega**2
    if disc == 0:
        q_mat, v_mat = np.zeros((n + 1, k)), np.zeros((n + 1, k))
        q = v = np.zeros(k)
        for i in range(n):
            q, v = e00 * q + e01 * v + u[i], e10 * q + e11 * v + w[i]
            q_mat[i + 1], v_mat[i + 1] = q, v
        return q_mat, v_mat
    if disc < 0:
        mu_p = complex(-p.gamma, math.sqrt(-disc))
        denom = 2j * math.sqrt(-disc)
        alpha = ar1(np.exp(mu_p * dt), (w - np.conj(mu_p) * u) / denom)
        return 2.0 * alpha.real, 2.0 * (mu_p * alpha).real
    nu = math.sqrt(disc)
    mu_p, mu_m = -p.gamma + nu, -p.gamma - nu
    denom = mu_p - mu_m
    alpha = ar1(math.exp(mu_p * dt), (w - mu_m * u) / denom).real
    beta = ar1(math.exp(mu_m * dt), (mu_p * u - w) / denom).real
    return alpha + beta, mu_p * alpha + mu_m * beta


def _reference_chunk(args):
    """The whole-record, time-major chunk the block engine replaced."""
    (p, bath, cutoff, dt, n_steps, master_seed, start, stop, burn_index) = args
    amplitudes = langevin._synthesis_amplitudes(bath, p, cutoff, dt, n_steps + 1)
    xi = np.empty((n_steps + 1, stop - start))
    for j, idx in enumerate(range(start, stop)):
        xi[:, j] = _band_limited_row(amplitudes, master_seed, idx)[: n_steps + 1]
    q_mat, v_mat = _reference_advance(p, dt, xi)
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


def _taylor_step_coefficients(p, dt):
    """The step map from the Taylor series of its generator, summed in float64.

    The state (q/dt^2, qdot/dt, xi, xi_{n+1} - xi_n) has, in units of dt, the
    generator below; the series sums its exponential term by term until a term
    no longer changes the sum.  Measured within 4e-16 of a 50-digit reference
    for omega*dt <= 1 and gamma <= 2 omega.
    """
    generator = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-((p.omega * dt) ** 2), -2.0 * p.gamma * dt, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    total = term = np.eye(4)
    for k in itertools.count(1):
        term = term @ generator / k
        if np.array_equal(total + term, total):
            break
        total = total + term
    (e00, e01, f0q, f1q), (e10, e11, f0v, f1v) = total[:2]
    return e00, e01 * dt, e10 / dt, e11, f0q * dt**2, f0v * dt, f1q * dt**2, f1v * dt


@pytest.mark.parametrize(
    "p, dt",
    [
        pytest.param(
            AtomParams.from_damping(ratio * omega_dt / 0.05, 1.0, omega_dt / 0.05),
            0.05,
            id=f"omega_dt={omega_dt:g}-gamma/omega={ratio!r}",
        )
        for omega_dt in (1e-4, 1e-3, 1e-2, 0.1, 1.0)
        for ratio in (1.0 - 1e-12, 1.0 + 1e-12, 2.0)
    ]
    + [pytest.param(_REGIMES["critical"], dt, id=f"critical-dt={dt}") for dt in (0.05, 0.2)],
)
def test_step_coefficients_match_taylor_reference(p, dt):
    # each coefficient within 1e-14 of its dt^k scale; next to gamma = omega
    # the hand-derived regime branches were off by 31 dt^k at omega*dt = 1e-4
    got = langevin._step_coefficients(p, dt)
    want = _taylor_step_coefficients(p, dt)
    for g, w, k in zip(got, want, (0, 1, -1, 0, 2, 1, 2, 1)):
        assert abs(g - w) <= 1e-14 * dt**k, (g, w, k)


@pytest.mark.parametrize("taps", ["complex", "real"])
@pytest.mark.parametrize("shape", [(1, 16384), (5, 16384), (32, 1600)])
def test_filter_equals_scipy_lfilter_bitwise(taps, shape):
    # the engine's mode filters (underdamped: one complex section, overdamped:
    # two real ones) over four consecutive blocks of one strided record, the
    # state carried from block to block as the engine carries it
    p = _REGIMES["underdamped" if taps == "complex" else "overdamped"]
    dt = 0.05
    coefficients = langevin._step_coefficients(p, dt)[4:]
    root = math.sqrt(abs(p.gamma**2 - p.omega**2))
    if taps == "complex":
        modes = [(complex(-p.gamma, root), complex(-p.gamma, -root))]
    else:
        modes = [(-p.gamma + root, -p.gamma - root), (-p.gamma - root, -p.gamma + root)]
    k, length = shape
    rng = np.random.default_rng(20240)
    xi = rng.standard_normal((k, 4 * length + 1))
    for mu, mu_other in modes:
        b, a, zi = langevin._mode_filter(mu, mu_other, dt, coefficients, xi[:, 0])
        assert np.iscomplexobj(b) == (taps == "complex")
        got_state = want_state = zi
        for s in range(1, xi.shape[1], length):
            block = xi[:, s : s + length]
            got, got_state = langevin._lfilter(b, a, block, got_state)
            want, want_state = scipy.signal.lfilter(b, a, block, axis=-1, zi=want_state)
            assert got.dtype == want.dtype and got_state.shape == want_state.shape
            assert np.array_equal(got, want) and np.array_equal(got_state, want_state)


# the block engine folds the drive into its filter taps and sums each
# trajectory block by block, so it rounds differently from the reference;
# measured within 2e-15 of the largest reference value
_REFERENCE_RTOL = 1e-14


def _assert_near_reference(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= _REFERENCE_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("start, stop", [(0, 32), (64, 70), (96, 97)])
def test_block_engine_matches_time_major_reference(monkeypatch, regime, start, stop):
    # 1237 steps in blocks of 100: the record spans 13 blocks, the last one
    # partial, and the burn-in ends inside the fifth; (96, 97) is a
    # one-trajectory chunk
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    p = _REGIMES[regime]
    if regime == "critical":
        assert p.gamma == p.omega
    job = (p, BathSpec(1.0), 10.0, 0.2, 1237, 11, start, stop, 437)
    got = langevin._ensemble_chunk(job)
    want = _reference_chunk(job)
    assert len(got) == 4 and got[0].shape == (1, 1238)  # one chunk, one series row
    for g, w in zip((got[0][0], *got[1:]), want):
        _assert_near_reference(g, w)


def _row_samples_for(r, n_steps):
    """A ``_ROW_SAMPLES`` value that makes the batch size r at n_steps steps."""
    return r * (n_steps + 1)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
@pytest.mark.parametrize("start, stop", [(0, 32), (64, 71), (64, 73)])
def test_ensemble_chunk_independent_of_batch_size(monkeypatch, regime, start, stop):
    # r = 1 gives one batch per row, r = 2 and 5 batches of r rows and a
    # shorter last one (5, 2 for the 7-row chunk, 5, 4 for the 9 = 2 r - 1
    # rows), r = k one batch: no batch holds more than r rows, and every
    # output must be the same bits whatever the split
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    n_steps = 1237
    job = (_REGIMES[regime], BathSpec(1.0), 10.0, 0.2, n_steps, 11, start, stop, 437)
    outputs = {}
    for r in (1, 2, 5, stop - start):
        monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(r, n_steps))
        edges = langevin._batch_edges(start, stop, n_steps + 1)
        sizes = np.diff(edges)
        assert edges[0] == start and edges[-1] == stop
        assert np.all(sizes[:-1] == r) and 1 <= sizes[-1] <= r
        outputs[r] = langevin._ensemble_chunk(job)
    base = outputs.pop(stop - start)
    for got in outputs.values():
        for g, w in zip(got, base):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_batches_across_chunk_edges_keep_each_chunk_byte(monkeypatch, regime):
    # a task of chunks 1, 2 and 3, the last one partial (13 rows), in batches
    # of 10 rows and a last one of 7, of which 62..72 and 92..102 straddle the
    # chunk edges at 64 and 96: each chunk's series row and each trajectory's
    # means are the bytes of that chunk run alone
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    n_steps = 1237
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(10, n_steps))
    edges = langevin._batch_edges(32, 109, n_steps + 1)
    assert edges == [32, 42, 52, 62, 72, 82, 92, 102, 109]
    job = (_REGIMES[regime], BathSpec(1.0), 10.0, 0.2, n_steps, 11, 32, 109, 437)
    series, *means = langevin._ensemble_chunk(job)
    assert series.shape == (3, n_steps + 1)
    for c, (lo, hi) in enumerate([(32, 64), (64, 96), (96, 109)]):
        alone_series, *alone_means = langevin._ensemble_chunk(job[:6] + (lo, hi) + job[8:])
        assert np.array_equal(series[c : c + 1], alone_series)
        for got, want in zip(means, alone_means):
            assert np.array_equal(got[lo - 32 : hi - 32], want)


def test_ensemble_chunk_builds_the_step_map_once(monkeypatch):
    # a task of 32 rows in 16 batches of 2 takes one matrix exponential for
    # its step map, not one per batch
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    n_steps = 1237
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(2, n_steps))
    assert len(langevin._batch_edges(0, 32, n_steps + 1)) == 17
    expm, calls = langevin._expm, []

    def counted(generator):
        calls.append(generator)
        return expm(generator)

    monkeypatch.setattr(langevin, "_expm", counted)
    langevin._ensemble_chunk((_REGIMES["underdamped"], BathSpec(1.0), 10.0, 0.2, n_steps, 11, 0, 32, 437))
    assert len(calls) == 1


def test_one_row_batches_match_one_trajectory_chunks(monkeypatch):
    # a record longer than _ROW_SAMPLES makes one-row batches; they give the
    # bits of a single 32-row batch, and each trajectory's means are those of
    # its own one-trajectory chunk
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    n_steps = 1237
    job = (_REGIMES["underdamped"], BathSpec(1.0), 10.0, 0.2, n_steps, 11, 0, 32, 437)
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", n_steps)
    assert langevin._batch_edges(0, 32, n_steps + 1) == list(range(33))
    one_row = langevin._ensemble_chunk(job)
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(32, n_steps))
    assert langevin._batch_edges(0, 32, n_steps + 1) == [0, 32]
    for got, want in zip(one_row, langevin._ensemble_chunk(job)):
        assert np.array_equal(got, want)
    for i in range(32):
        alone = langevin._ensemble_chunk(job[:6] + (i, i + 1) + job[8:])
        for got, want in zip(one_row[1:], alone[1:]):
            assert np.array_equal(got[i : i + 1], want)


def _traced_peak(run):
    """Traced peak bytes of ``run()``, from an empty workspace, whose buffers count in it."""
    langevin._WORKSPACE.clear()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        langevin._WORKSPACE.clear()


def test_ensemble_chunk_memory_bounded(monkeypatch):
    # a chunk holds one batch of r records at a time: the (r, n) batch, its
    # O(r * block) propagation working set and the O(n) series set the traced
    # peak, a small multiple of r records however many trajectories the chunk has
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    k, n, r = 32, 100_000, 4
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(r, n))
    job = (p, BathSpec(1.0), 50.0, 0.05, n, 1, 0, k, 40_000)
    assert _traced_peak(lambda: langevin._ensemble_chunk(job)) <= 5 * r * (n + 1) * 8


def test_multi_row_long_record_task_memory_bounded(monkeypatch):
    # one batch of 6 rows of C5's 400k-step record: each row group's spectrum
    # (one row of 161145 band modes here) is transformed straight into the
    # batch's record, so the peak is the record, one row's spectrum and draws,
    # the series and the block working set: 9.45 records, where the whole
    # batch's spectrum held alongside the record made 12.31.  A task of 9 =
    # 2 r - 1 rows at r = 5 runs as batches of 5 and 4 rows, never one of 9:
    # 8.11 records, where one 9-row batch made 13.47
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    n = 400_000
    for r, k, edges in ((6, 6, [0, 6]), (5, 9, [0, 5, 9])):
        monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(r, n))
        job = (p, BathSpec(1.0), 50.0, 0.05, n, 1, 0, k, 40_000)
        assert _traced_peak(lambda: langevin._ensemble_chunk(job)) <= (r + 4) * (n + 1) * 8, (r, k)
        assert langevin._batch_edges(0, k, n + 1) == edges


def test_one_trajectory_chunk_memory_bounded():
    # a lone trajectory is propagated and reduced in blocks like any batch, so
    # its traced peak is a few records (forcing, spectrum, series), never the
    # whole-record q and qdot
    p = AtomParams.from_damping(0.01, 1.0, 1.0)
    n = 400_000
    job = (p, BathSpec(1.0), 50.0, 0.05, n, 1, 0, 1, 40_000)
    assert _traced_peak(lambda: langevin._ensemble_chunk(job)) <= 5 * (n + 1) * 8


def test_short_record_task_memory_bounded():
    # a record shorter than one block counts as one block, so a batch holds at
    # most _ROW_SAMPLES // _BLOCK_STEPS rows: 128 rows of 1601 samples at C7's
    # shape, a tenth of _ROW_SAMPLES, and a shorter last batch.  The batch's
    # record, its q and qdot workspace blocks (squared in place) and mode
    # output set the traced peak, and the task's (chunks, n + 1) series adds
    # little: measured 0.51-0.57 _ROW_SAMPLES samples at 8 to 78 chunks, where
    # separate q^2 and qdot^2 blocks made 0.70-0.76
    p = AtomParams.from_damping(0.1, 1.0, 1.0)
    for chunks in (1, 8, 78):
        job = (p, BathSpec(1.0), 20.0, 0.05, 1600, 1, 0, 32 * chunks, 20)
        assert _traced_peak(lambda: langevin._ensemble_chunk(job)) <= 0.65 * langevin._ROW_SAMPLES * 8, chunks


def test_serial_run_holds_one_task_of_series(monkeypatch):
    # C5's shape scaled down: records of 20001 samples in batches of 5 rows,
    # the last of each task shorter, and 21 blocks.  One worker runs 13 chunks
    # as 4 tasks of 3 or 4 chunks and adds each task's series into the running
    # sum before the next task starts, so the run peaks a task's four series,
    # the running sum and the task's small arrays above a one-chunk task:
    # measured 4.9 records.  Holding every chunk's series until the run ends
    # added 13.2
    p, bath, n = AtomParams.from_damping(0.01, 1.0, 1.0), BathSpec(1.0), 20_000
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 1000)
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", _row_samples_for(5, n))
    one_chunk = _traced_peak(lambda: langevin._ensemble_chunk((p, bath, 50.0, 0.05, n, 1, 0, 32, 2000)))
    run = _traced_peak(
        lambda: run_ensemble(
            p, bath, cutoff=50.0, dt=0.05, t_total=n * 0.05, n_traj=13 * 32, master_seed=1, t_burn=100.0
        )
    )
    assert run <= one_chunk + 7 * (n + 1) * 8


def _chunk_bytes(job):
    return b"".join(out.tobytes() for out in langevin._ensemble_chunk(job))


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_reused_workspace_keeps_every_chunk_byte(monkeypatch, regime):
    # chunks of other shapes run back to back in one workspace, each one
    # after each of the others: a 32 x 1600 chunk in one batch and one block, a
    # 32-row chunk of 9999 steps in six batches of 5 rows and one of 2, each in
    # 7 blocks, and a one-trajectory chunk; each gives the bytes it gives from
    # an empty workspace, the state a fresh process starts in
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 1600)
    monkeypatch.setattr(langevin, "_ROW_SAMPLES", 32 * 1601)
    p, bath = _REGIMES[regime], BathSpec(1.0)
    jobs = {
        "wide": (p, bath, 20.0, 0.05, 1600, 991, 0, 32, 20),
        "long": (p, bath, 10.0, 0.2, 9999, 11, 32, 64, 437),
        "single": (p, bath, 10.0, 0.2, 9999, 11, 96, 97, 437),
    }
    assert langevin._batch_edges(0, 32, 1601) == [0, 32]
    assert langevin._batch_edges(32, 64, 10000) == [32, 37, 42, 47, 52, 57, 62, 64]
    fresh = {}
    for name, job in jobs.items():
        langevin._WORKSPACE.clear()
        fresh[name] = _chunk_bytes(job)
    sequence = ["wide", "long", "single", "wide", "single", "long", "wide"]
    assert {pair for pair in zip(sequence, sequence[1:])} == set(itertools.permutations(jobs, 2))
    for step, name in enumerate(sequence):
        assert _chunk_bytes(jobs[name]) == fresh[name], (step, name)
    langevin._WORKSPACE.clear()


def test_threads_keep_their_own_workspace(monkeypatch):
    # the engine squares each block in place in its thread's workspace, so a
    # second thread must never share it: here another thread runs a whole
    # chunk between each block the main thread's propagation yields and that
    # block's reduction, and both threads keep the bytes of their serial runs
    monkeypatch.setattr(langevin, "_BLOCK_STEPS", 100)
    p = _REGIMES["underdamped"]
    main_job = (p, BathSpec(1.0), 10.0, 0.2, 1237, 11, 0, 32, 437)
    other_job = (p, BathSpec(1.0), 10.0, 0.2, 1237, 12, 32, 64, 437)  # the same shapes: it fits the same buffers
    serial_main, serial_other = _chunk_bytes(main_job), _chunk_bytes(other_job)
    assert serial_main != serial_other
    propagate, other_bytes = langevin._propagate, []
    with ThreadPoolExecutor(max_workers=1) as other_thread:

        def interleaved(*args):
            for block in propagate(*args):
                if threading.current_thread() is threading.main_thread():
                    other_bytes.append(other_thread.submit(_chunk_bytes, other_job).result())
                yield block

        monkeypatch.setattr(langevin, "_propagate", interleaved)
        assert _chunk_bytes(main_job) == serial_main
    assert len(other_bytes) == 13 and set(other_bytes) == {serial_other}  # one chunk per block
    langevin._WORKSPACE.clear()


def test_results_do_not_alias_the_workspace():
    # overwriting every workspace buffer after the calls leaves their results as they were
    p = _REGIMES["underdamped"]
    langevin._WORKSPACE.clear()
    chunk = langevin._ensemble_chunk((p, BathSpec(1.0), 10.0, 0.2, 1237, 11, 0, 32, 437))
    amplitudes = langevin._synthesis_amplitudes(BathSpec(1.0), p, 10.0, 0.2, 1238)
    rows = langevin._synthesize_rows(amplitudes, 1238, 11, range(3))
    kept = [out.copy() for out in (*chunk, rows)]
    assert langevin._WORKSPACE.buffers
    for buf in langevin._WORKSPACE.buffers.values():
        buf.fill(np.nan)
    for out, want in zip((*chunk, rows), kept):
        assert np.array_equal(out, want)
    langevin._WORKSPACE.clear()


def test_run_ensemble_empties_the_workspace(monkeypatch):
    # the buffers live through the run's chunks and go when it returns or raises
    p, bath, kw = _small_ensemble_params()
    reduce_batch, in_use = langevin._reduce_batch, []

    def watched(*args):
        means = reduce_batch(*args)
        in_use.append(bool(langevin._WORKSPACE.buffers))
        return means

    monkeypatch.setattr(langevin, "_reduce_batch", watched)
    run_ensemble(p, bath, n_traj=40, master_seed=5, t_burn=80.0, **kw)
    assert in_use == [True, True] and not langevin._WORKSPACE.buffers

    def fails(*args):
        reduce_batch(*args)
        in_use.append(bool(langevin._WORKSPACE.buffers))
        raise RuntimeError("batch failed")

    monkeypatch.setattr(langevin, "_reduce_batch", fails)
    with pytest.raises(RuntimeError, match="batch failed"):
        run_ensemble(p, bath, n_traj=40, master_seed=5, t_burn=80.0, **kw)
    assert in_use == [True, True, True] and not langevin._WORKSPACE.buffers


def test_run_ensemble_insufficient_burn_raises():
    p, bath, kw = _small_ensemble_params()
    with pytest.raises(langevin.BurnInError):
        run_ensemble(p, bath, n_traj=8, master_seed=1, t_burn=239.9, **kw)
    with pytest.raises(ValueError, match="n_traj"):
        run_ensemble(p, bath, n_traj=0, master_seed=1, t_burn=80.0, **kw)


def test_run_ensemble_refuses_a_band_of_the_zero_mode_alone():
    # the band holds mode 1 once the cutoff reaches the spacing 2 pi/(n_fft dt)
    p, bath, kw = _small_ensemble_params()
    n_fft = fast_fft_length(int(round(kw["t_total"] / kw["dt"])) + 1, real=True)
    spacing = 2.0 * math.pi / (n_fft * kw["dt"])
    with pytest.raises(langevin.BandError, match="only the zero mode"):
        run_ensemble(p, bath, n_traj=2, master_seed=1, t_burn=80.0, **dict(kw, cutoff=math.nextafter(spacing, 0.0)))
    assert run_ensemble(p, bath, n_traj=2, master_seed=1, t_burn=80.0, **dict(kw, cutoff=spacing)).stats.var_q > 0


def test_fit_decay_rate_on_synthetic_series():
    t = np.linspace(0.0, 60.0, 1201)
    rate = 0.2
    var_eq = 1.0
    series = var_eq - var_eq * np.exp(-rate * t) * (1.0 + 0.2 * np.cos(2.0 * t))
    got = fit_decay_rate(t, series, var_eq, fit_window=(5.0, 25.0), smooth_time=math.pi)
    assert got == pytest.approx(rate, rel=0.03)
    with pytest.raises(ValueError):
        fit_decay_rate(t, series, var_eq, fit_window=(59.0, 60.0), smooth_time=math.pi)

