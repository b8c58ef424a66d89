"""Time-domain stochastic oracle: the oscillator driven by synthesized field noise.

The quantum field enters through its symmetric (Hadamard) correlator only, so
it is simulated as a classical stationary Gaussian process whose spectral
density is the free-field Hadamard kernel at the atom, truncated at the same
ultraviolet cutoff used by the frequency-domain predictions (cutoff
consistency is mandatory: the velocity variance is log-divergent without it).

The equation of motion ``Qdd + 2 gamma Qd + omega^2 Q = xi(t)`` is advanced
with the exact homogeneous propagator over each step and piecewise-linear
forcing, which is unconditionally stable for any gamma, omega > 0.

Determinism contract: every trajectory is a pure function of
(master_seed, trajectory_index) through a splittable counter-based generator,
and all reductions run in a fixed order, so ensembles are bit-identical for
any worker count.

Engine layout: a chunk of k trajectories is split into row batches of about
r = ``_ROW_SAMPLES`` // n trajectories (at least two, at most k).  Each batch is
synthesized trajectory-major as one (r, n) record, then propagated in blocks of
``_BLOCK_STEPS`` steps with the filter state carried from block to block, and
each block is reduced as soon as it is made.  A worker therefore holds O(r n)
memory, a batch of fewer than 2 * ``_ROW_SAMPLES`` samples while n is below
``_ROW_SAMPLES`` / 2, however many trajectories a chunk has.  Every reduction
runs in an order that does not depend on r: the per-trajectory sums in time
order, the cross-trajectory series in trajectory order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.fft import next_fast_len as _next_fast_len
from scipy.signal import lfilter as _lfilter

from .greens import (
    AtomParams,
    BathSpec,
    FrequencyGrid,
    atom_hadamard_ft,
    damped_cos,
    damped_sinc,
    field_hadamard_ft,
)
from .spectral import integrate_spectrum

_CHUNK_SIZE = 32  # trajectories per worker chunk; fixed so reductions never move
_BLOCK_STEPS = 1 << 14  # steps per propagation block; bounds the working set at O(r * block)
_ROW_SAMPLES = 1 << 21  # record samples per synthesis batch: r ~ _ROW_SAMPLES // n rows


class NyquistError(ValueError):
    """Raised when the time step cannot represent the synthesis cutoff."""


class BurnInError(ValueError):
    """Raised when the record leaves too few samples after the burn-in."""


@dataclass
class EquilibriumStats:
    """Post-burn-in time-and-ensemble averages with inter-trajectory standard errors."""

    mean_q: float
    se_mean_q: float
    var_q: float
    se_var_q: float
    var_qdot: float
    se_var_qdot: float
    n_traj: int
    t_burn: float

    def to_dict(self) -> dict:
        return asdict(self)


def noise_spectrum(kappa, p: AtomParams, bath: BathSpec):
    """Target spectral density of the forcing: (e/m)^2 * G0H(0; kappa).  Nonnegative."""
    return (p.e / p.m) ** 2 * field_hadamard_ft(0.0, kappa, bath)


def _noise_generator(seed, spawn_key):
    seq = np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(seq))


def _synthesis_amplitudes(bath, p, cutoff, dt, n_samples):
    """Per-mode Gaussian amplitudes for the shaped spectrum, on a fast FFT length.

    The record is synthesized on n_fft >= n_samples points (n_fft chosen
    FFT-friendly) and truncated, which only refines the discrete frequency
    spacing 2 pi/(n_fft dt).
    """
    n_fft = _next_fast_len(n_samples, real=True)
    dk = 2.0 * math.pi / (n_fft * dt)
    kap = dk * np.arange(n_fft // 2 + 1)
    spec = noise_spectrum(kap, p, bath)
    spec[kap > cutoff] = 0.0
    amp = np.sqrt(n_fft * spec / (2.0 * dt))
    amp_real = np.sqrt(n_fft * spec / dt)  # for the self-conjugate modes
    return n_fft, amp, amp_real


def _synthesize_rows(amplitudes, n_samples, seed, spawn_keys) -> np.ndarray:
    """Forcing records of shape (len(spawn_keys), n_samples); row j is seeded by (seed, spawn_keys[j]).

    ``amplitudes`` is the ``_synthesis_amplitudes`` triple for ``n_samples``.
    Each row draws all its ``a`` normals, then all its ``b`` normals, so a row
    does not depend on which other rows share the batch; one batched inverse
    FFT then shapes every row.
    """
    n_fft, amp, amp_real = amplitudes
    a = np.empty((len(spawn_keys), n_fft // 2 + 1))
    b = np.empty_like(a)
    for j, key in enumerate(spawn_keys):
        rng = _noise_generator(seed, key)
        rng.standard_normal(out=a[j])
        rng.standard_normal(out=b[j])
    # amp * (a + 1j * b), evaluated in place with the same operand order
    y = np.multiply(1j, b)
    np.add(a, y, out=y)
    np.multiply(amp, y, out=y)
    y[:, 0] = amp_real[0] * a[:, 0]  # zero mode is real
    if n_fft % 2 == 0:
        y[:, -1] = amp_real[-1] * a[:, -1]  # Nyquist mode is real
    del a, b
    return np.fft.irfft(y, n=n_fft, axis=-1)[:, :n_samples]


def _step_coefficients(p: AtomParams, dt: float):
    """Exact homogeneous propagator over one step plus piecewise-linear forcing maps.

    Returns (e00, e01, e10, e11, f0q, f0v, f1q, f1v) such that
    y_{n+1} = E y_n + Phi0 xi_n + Phi1 (xi_{n+1} - xi_n).
    """
    w2 = p.omega**2
    dc = damped_cos(dt, p)
    ds = damped_sinc(dt, p)
    e00 = dc + p.gamma * ds
    e01 = ds
    e10 = -w2 * ds
    e11 = dc - p.gamma * ds
    # Phi0 = A^{-1} (E - 1) B, Phi1 = -A^{-1} B + A^{-2} (E - 1) B / dt
    f0q = (-2.0 * p.gamma * e01 - (e11 - 1.0)) / w2
    f0v = e01
    f1q = 1.0 / w2 + (-2.0 * p.gamma * f0q - f0v) / (w2 * dt)
    f1v = f0q / dt
    return e00, e01, e10, e11, f0q, f0v, f1q, f1v


def _ar1(lam: complex, drive: np.ndarray, zi: np.ndarray, z0):
    """Run z_{n+1} = lam * z_n + drive_n along the rows of ``drive`` from filter state ``zi``.

    Returns the outputs time-major, shape (L, k) (preceded by the row ``z0``
    unless it is None), and the final filter state for the next block.
    """
    y, zf = _lfilter(np.array([1.0 + 0j]), np.array([1.0 + 0j, -lam]), drive, axis=-1, zi=zi)
    first = z0 is not None
    out = np.empty((y.shape[1] + first, y.shape[0]), dtype=complex)
    if first:
        out[0] = z0
    out[first:] = y.T
    return out, zf


def _propagate(p: AtomParams, dt: float, xi: np.ndarray, q0, qdot0, block: int):
    """Propagate rows of forcing samples; yield ``(t0, q, v)`` blocks of ``block`` steps.

    ``xi`` has shape (k, n + 1), one trajectory per row.  Each yielded ``q``
    and ``v`` is time-major, shape (L, k), and holds samples t0 .. t0 + L - 1;
    the first block starts at the initial condition, sample 0.

    The exact one-step map ``y_{n+1} = E y_n + Phi0 xi_n + Phi1 dxi_n`` is
    diagonalized: in the eigenbasis of the damped oscillator it splits into two
    first-order recursions with multipliers exp(mu_pm dt), mu_pm = -gamma pm
    sqrt(gamma^2 - omega^2), which are run as constant-coefficient filters at C
    speed along the contiguous time axis, carrying the filter state across
    blocks.  First-order sections stay well conditioned even when omega*dt is
    tiny (a direct second-order recursion would lose several digits there).
    The critically damped point has a defective map and falls back to an
    explicit step loop.
    """
    e00, e01, e10, e11, f0q, f0v, f1q, f1v = _step_coefficients(p, dt)
    k, n = xi.shape[0], xi.shape[1] - 1
    q = np.broadcast_to(np.asarray(q0, dtype=float), (k,)).astype(float)
    v = np.broadcast_to(np.asarray(qdot0, dtype=float), (k,)).astype(float)

    disc = p.gamma**2 - p.omega**2
    if disc < 0:
        # underdamped: the second mode is the conjugate of the first, so one
        # complex filter carries the whole state
        mu_p = complex(-p.gamma, math.sqrt(-disc))
        denom = 2j * math.sqrt(-disc)
        lam = np.exp(mu_p * dt)
        za = (v - np.conj(mu_p) * q) / denom
        zi_a = lam * za[:, None]
    elif disc > 0:
        # overdamped: two real decaying modes
        nu = math.sqrt(disc)
        mu_p = -p.gamma + nu
        mu_m = -p.gamma - nu
        denom = mu_p - mu_m
        lam_p, lam_m = math.exp(mu_p * dt), math.exp(mu_m * dt)
        za = (v - mu_m * q) / denom
        zb = (mu_p * q - v) / denom
        zi_a, zi_b = lam_p * za[:, None], lam_m * zb[:, None]

    for s in range(0, n, block):
        e = min(s + block, n)
        first = s == 0
        t0 = 0 if first else s + 1  # first sample this block yields
        x0 = xi[:, s:e]
        dxi = xi[:, s + 1 : e + 1] - x0
        u = f0q * x0 + f1q * dxi  # coordinate drive per step
        w = f0v * x0 + f1v * dxi  # velocity drive per step
        if disc < 0:
            alpha, zi_a = _ar1(lam, (w - np.conj(mu_p) * u) / denom, zi_a, za if first else None)
            yield t0, 2.0 * alpha.real, 2.0 * (mu_p * alpha).real
        elif disc > 0:
            alpha, zi_a = _ar1(lam_p, (w - mu_m * u) / denom, zi_a, za if first else None)
            beta, zi_b = _ar1(lam_m, (mu_p * u - w) / denom, zi_b, zb if first else None)
            alpha, beta = alpha.real, beta.real
            yield t0, alpha + beta, mu_p * alpha + mu_m * beta
        else:  # critically damped: defective propagator, explicit loop
            q_blk = np.empty((e - s + first, k))
            v_blk = np.empty((e - s + first, k))
            if first:
                q_blk[0] = q
                v_blk[0] = v
            for i in range(e - s):
                q, v = (
                    e00 * q + e01 * v + u[:, i],
                    e10 * q + e11 * v + w[:, i],
                )
                q_blk[i + first] = q
                v_blk[i + first] = v
            yield t0, q_blk, v_blk


def predicted_variance(p: AtomParams, bath: BathSpec, cutoff: float, n_points: int) -> float:
    """Frequency-domain equilibrium coordinate variance at the same cutoff.

    (1/m) \\int dkappa/2pi coth(beta kappa/2) Im GR(kappa) over (-cutoff, cutoff);
    use the synthesis cutoff here, never a different one.
    """
    grid = FrequencyGrid(cutoff, n_points)
    res = integrate_spectrum(lambda k: atom_hadamard_ft(k, p, bath), grid)
    return res.value / p.m


@dataclass
class EnsembleResult:
    """Ensemble summary: variance-vs-time series plus equilibrium statistics."""

    dt: float
    n_steps: int
    var_q_series: np.ndarray
    stats: EquilibriumStats

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def _batch_edges(start: int, stop: int, n_samples: int) -> list[int]:
    """Split trajectories start .. stop - 1 into near-equal row batches; returns the edges.

    There are k // r batches, r = max(2, _ROW_SAMPLES // n_samples) capped at
    the chunk size k, so each holds at least r rows and a chunk of two or more
    trajectories never gets a lone-row batch.
    """
    k = stop - start
    n_batches = k // min(k, max(2, _ROW_SAMPLES // n_samples))
    return [start + (b * k) // n_batches for b in range(n_batches + 1)]


def _reduce_batch(p, dt, xi, burn_index, sum_q2_t):
    """Propagate one batch of forcing records from rest and reduce it block by block.

    Adds each trajectory's q^2 into ``sum_q2_t`` in trajectory order, so the
    series does not depend on how a chunk is batched, and returns the batch's
    post-burn means of q, q^2 and qdot^2.
    """
    n_steps = xi.shape[1] - 1
    # numpy sums several columns row by row, in time order, so running sums
    # carried from block to block reproduce a whole-record reduction; a lone
    # column is summed pairwise instead, so it is reduced in one block
    block = _BLOCK_STEPS if len(xi) > 1 else n_steps
    sums = None  # post-burn column sums of q, q^2 and qdot^2
    for t0, q, v in _propagate(p, dt, xi, 0.0, 0.0, block):
        series = sum_q2_t[t0 : t0 + len(q)]
        for j in range(q.shape[1]):
            series += q[:, j] * q[:, j]
        q, v = q[max(burn_index - t0, 0) :], v[max(burn_index - t0, 0) :]
        if not len(q):
            continue
        if sums is None:
            sums = (q.sum(axis=0), np.einsum("ti,ti->i", q, q), np.einsum("ti,ti->i", v, v))
        else:
            sums = tuple(
                np.concatenate([acc[None], rows]).sum(axis=0)
                for acc, rows in zip(sums, (q, q * q, v * v))
            )
    n_post = n_steps + 1 - burn_index
    return tuple(s / n_post for s in sums)


def _ensemble_chunk(args):
    (p, bath, cutoff, dt, n_steps, master_seed, start, stop, burn_index) = args
    amplitudes = _synthesis_amplitudes(bath, p, cutoff, dt, n_steps + 1)
    edges = _batch_edges(start, stop, n_steps + 1)
    sum_q2_t = np.zeros(n_steps + 1)
    means = []
    for lo, hi in zip(edges, edges[1:]):
        xi = _synthesize_rows(amplitudes, n_steps + 1, master_seed, [(idx,) for idx in range(lo, hi)])
        means.append(_reduce_batch(p, dt, xi, burn_index, sum_q2_t))
        del xi  # free this batch's record before the next one is synthesized
    return (sum_q2_t, *(np.concatenate(m) for m in zip(*means)))


def run_ensemble(
    p: AtomParams,
    bath: BathSpec,
    cutoff: float,
    dt: float,
    t_total: float,
    n_traj: int,
    master_seed: int,
    t_burn: float,
    workers: int = 1,
) -> EnsembleResult:
    """Simulate an ensemble of independent trajectories and reduce it deterministically.

    Every trajectory starts at rest, q = qdot = 0, and the statistics are taken
    after ``t_burn``.  The trajectory with index ``i`` is seeded by
    (master_seed, spawn_key=(i,)); chunking and the reduction order are fixed,
    so the result is bit-identical for any ``workers`` count.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if dt > math.pi / cutoff * (1.0 + 1e-12):
        raise NyquistError(f"dt={dt:g} violates the Nyquist bound pi/cutoff={math.pi / cutoff:g}")
    n_steps = int(round(t_total / dt))
    burn_index = int(math.ceil(t_burn / dt))
    if n_steps + 1 - burn_index < 16:
        raise BurnInError(
            f"insufficient post-burn-in samples: t_total={t_total:g} must exceed "
            f"t_burn={t_burn:g} by at least 16 steps of dt={dt:g}; increase t_total or reduce t_burn"
        )
    bounds = [
        (s, min(s + _CHUNK_SIZE, n_traj)) for s in range(0, n_traj, _CHUNK_SIZE)
    ]
    jobs = [
        (p, bath, cutoff, dt, n_steps, master_seed, s, e, burn_index)
        for s, e in bounds
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_chunk, jobs))
    else:
        results = [_ensemble_chunk(job) for job in jobs]

    sum_q2 = np.zeros(n_steps + 1)
    for chunk in results:  # fixed chunk order
        sum_q2 += chunk[0]
    # per-trajectory post-burn means; the forcing has zero mean, so the second
    # moments are the variances, and the standard errors come from the scatter
    q_means, q2_means, v2_means = (np.concatenate(col) for col in list(zip(*results))[1:])
    root_n = math.sqrt(n_traj)

    def se(arr):
        return float(arr.std(ddof=1) / root_n) if n_traj > 1 else float("inf")

    stats = EquilibriumStats(
        mean_q=float(q_means.mean()),
        se_mean_q=se(q_means),
        var_q=float(q2_means.mean()),
        se_var_q=se(q2_means),
        var_qdot=float(v2_means.mean()),
        se_var_qdot=se(v2_means),
        n_traj=n_traj,
        t_burn=float(t_burn),
    )
    return EnsembleResult(dt=dt, n_steps=n_steps, var_q_series=sum_q2 / n_traj, stats=stats)


def fit_decay_rate(
    times: np.ndarray,
    var_series: np.ndarray,
    var_equilibrium: float,
    fit_window: tuple[float, float],
    smooth_time: float,
) -> float:
    """Fit the relaxation rate of the ensemble-variance deficit.

    The deficit ``var_equilibrium - var(t)`` decays with envelope exp(-rate*t)
    modulated at twice the oscillation frequency; it is boxcar-smoothed over
    ``smooth_time`` and log-linearly fitted inside ``fit_window``.  Returns the
    fitted rate (expected: 2 gamma).
    """
    times = np.asarray(times, dtype=float)
    deficit = var_equilibrium - np.asarray(var_series, dtype=float)
    dt = times[1] - times[0]
    width = max(1, int(round(smooth_time / dt)))
    if width % 2 == 0:
        width += 1
    kernel = np.full(width, 1.0 / width)
    smooth = np.convolve(deficit, kernel, mode="same")
    lo, hi = fit_window
    half = (width // 2) * dt
    mask = (times >= max(lo, half)) & (times <= min(hi, times[-1] - half)) & (smooth > 0)
    if np.count_nonzero(mask) < 8:
        raise ValueError("fit window leaves too few usable points")
    slope, _ = np.polyfit(times[mask], np.log(smooth[mask]), 1)
    return -float(slope)
