"""Time-domain stochastic oracle: the oscillator driven by synthesized field noise.

The quantum field enters through its symmetric (Hadamard) correlator only, so
it is simulated as a classical stationary Gaussian process whose spectral
density is the free-field Hadamard kernel at the atom, truncated at the same
ultraviolet cutoff used by the frequency-domain predictions (cutoff
consistency is mandatory: the velocity variance is log-divergent without it).
Each record is synthesized in the frequency domain: the n_band rfft modes at
or below the cutoff get Gaussian amplitudes from 2 n_band standard normals,
and the modes above it are zero, so a trajectory draws normals for a
cutoff*dt/pi share of the modes only.

The equation of motion ``Qdd + 2 gamma Qd + omega^2 Q = xi(t)`` is advanced
with the exact homogeneous propagator over each step and piecewise-linear
forcing, which is unconditionally stable for any gamma, omega > 0.  The whole
step map, propagator and forcing maps, is one matrix exponential with no
damping-regime branch (``_step_coefficients``).

Determinism contract: every trajectory is a pure function of
(master_seed, trajectory_index) and all reductions run in a fixed order, so
ensembles are bit-identical for any worker count.  Trajectory i draws from the
counter-based stream of ``Philox(master_seed).advance(i << 64)``: one 128-bit
key for the whole ensemble, with counter word 1 set to i, so each trajectory
owns 2^64 counter blocks and no two streams meet (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11).  One generator per batch is
re-keyed row by row to the start of the row's stream, with nothing cached
between batches: the streams are those of one generator built per trajectory.

Engine layout: the trajectories are reduced in chunks of ``_CHUNK_SIZE``,
and a pool task (one ``_ensemble_chunk`` call) covers a contiguous run of
whole chunks.  A task is cut into batches of r = max(1, ``_ROW_SAMPLES`` //
max(n, ``_BLOCK_STEPS``)) rows, the last one shorter, which may cross chunk
edges; a record shorter than one block counts as one block, so r blocks never
exceed ``_ROW_SAMPLES`` samples, however short the record.
Each batch is synthesized trajectory-major as one (r, n) record and stays
trajectory-major.  Every trajectory starts at rest, q = qdot = 0: each
eigenmode is one first-order filter section over the forcing rows, started
from a zero mode, its two taps folding in the piecewise-linear drive (run
through ``sosfilt``, with ``lfilter``'s bits), run in blocks of
``_BLOCK_STEPS`` steps with the filter state carried from block to block, and
each (r, block) block is reduced along its rows as soon as it is made.  A
worker therefore holds one batch, O(r n) memory, plus the task's (chunks, n)
series, however many trajectories the task has.  Every reduction runs in an
order that depends on neither r nor the task: the per-trajectory sums block
by block in time order, each chunk's series over its own rows in trajectory
order, and the ensemble series over the chunk series in chunk order.

The q and qdot blocks live in one workspace per process (per thread), and
the reduction squares them in place, so the workspace holds two buffers.
It is sized by its first request, a task's first and largest batch,
grown only when a later task's first batch is larger, and reused by every
later batch and task of the run, so the steady state makes no large
allocation that the allocator would hand back to the operating system and
fault in again.
``run_ensemble`` empties the workspace when the run ends, and a pool worker's
goes with the worker when the pool shuts down; no result is a view of it.  A
batch's forcing is synthesized in row groups of max(1, ``_BLOCK_STEPS`` //
n_band) rows, about one block of modes (one row of C5's 161145-mode band, 63
rows of C7's 258 modes).  The band spectrum stays a fresh array per row
group, and each group's inverse FFT writes straight into the batch's fresh
record, so a batch never holds its whole spectrum beside its record, and
the last group's spectrum is freed before the batch is propagated.
``run_ensemble`` makes min(chunks, 4 workers) tasks, adds each task's chunk
series into the running sum as the task's result arrives, in task order,
and frees them before the next task runs.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import expm as _expm
from scipy.signal import sosfilt as _sosfilt

from .greens import (
    AtomParams,
    BathSpec,
    FrequencyGrid,
    NyquistError,  # re-exported: run_ensemble raises it
    atom_hadamard_ft,
    check_nyquist,
    fast_fft_length,
    field_hadamard_ft,
)
from .spectral import integrate_spectrum

_CHUNK_SIZE = 32  # trajectories per reduction chunk; fixed so reductions never move
_BLOCK_STEPS = 1 << 14  # steps per propagation block; bounds the working set at O(r * block)
# record samples per batch, the unit of both synthesis and propagation: a
# batch holds r = max(1, _ROW_SAMPLES // max(n, block)) rows
_ROW_SAMPLES = 1 << 21


class _Workspace(threading.local):
    """Scratch buffers that the engine reuses across batches and tasks; one per thread.

    ``take(name, shape)`` views a C-contiguous prefix of the flat float64
    buffer ``name`` as ``shape``, so every shape with no more elements reuses
    it.  A buffer is reallocated, at the size asked for, only when it is too
    small; a task's first batch is its largest, so the later batches of the
    task reuse what the first one took.  Reuse keeps the steady state free of
    large allocations, which the allocator would otherwise return to the
    operating system after each task and fault in again for the next.
    Nothing the engine returns is a view of a buffer.  The buffers are
    per-thread so that concurrent ensembles in one process never share them.
    """

    def __init__(self):
        self.buffers = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = None  # free the old buffer before allocating its successor
            buf = self.buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def clear(self):
        self.buffers.clear()


# the buffers live from the first batch a process runs until run_ensemble
# returns there, or until a pool worker exits
_WORKSPACE = _Workspace()


def _lfilter(b, a, x, zi):
    """``scipy.signal.lfilter(b, a, x, zi=zi)`` for one first-order section, run through ``sosfilt``.

    ``b`` and ``a`` hold two taps each, real or complex, with ``a[0] == 1``;
    time runs along the last axis of ``x``, and ``zi`` and ``zf`` have
    lfilter's layout.  The taps run as the section ``[b0, b1, 0, 1, a1, 0]``:
    that is lfilter's transposed direct form with its second state entry held
    at zero, so ``y`` and ``zf`` carry lfilter's bits.
    """
    sos = np.concatenate((b, [0.0], a, [0.0]))[None, :]
    y, zf = _sosfilt(sos, x, zi=np.concatenate((zi, np.zeros_like(zi)), axis=-1)[None])
    return y, zf[0, ..., :1]


class BurnInError(ValueError):
    """Raised when the record leaves too few samples after the burn-in."""


class BandError(ValueError):
    """Raised when the cutoff is below one mode spacing, so the band holds only the zero mode."""


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


def _noise_generator(seed, index):
    """The generator of trajectory ``index``'s stream: ``Philox(seed).advance(index << 64)``.

    ``Philox(seed)`` derives one 128-bit key from the seed, of any size, and
    trajectory i starts with counter word 1 equal to i, so it owns the counter
    blocks i 2^64 .. (i + 1) 2^64 - 1 of that key: two trajectories never
    share a block while each draws fewer than 2^64.  The engine builds one
    generator per batch here and re-keys it to each row's stream.
    """
    return np.random.Generator(np.random.Philox(seed).advance(index << 64))


def _synthesis_amplitudes(bath, p, cutoff, dt, n_samples):
    """Per-mode Gaussian amplitudes of the band kappa <= cutoff, on a fast FFT length.

    The record is synthesized on n_fft >= n_samples points (n_fft chosen
    FFT-friendly) and truncated, which only refines the discrete frequency
    spacing 2 pi/(n_fft dt).  The spectrum vanishes above the cutoff, so only
    the n_band rfft modes at or below it get an amplitude (a cutoff*dt/pi
    share of the n_fft // 2 + 1 modes); ``amp`` has n_band entries.  The
    self-conjugate modes are real: ``amp_real[0]`` is the zero mode's
    amplitude and ``amp_real[-1]`` the last band mode's, which is used only
    when that mode is the Nyquist mode.
    """
    n_fft = fast_fft_length(n_samples, real=True)
    dk = 2.0 * math.pi / (n_fft * dt)
    kap = dk * np.arange(n_fft // 2 + 1)
    spec = noise_spectrum(kap[kap <= cutoff], p, bath)
    amp = np.sqrt(n_fft * spec / (2.0 * dt))
    amp_real = np.sqrt(n_fft * spec[[0, -1]] / dt)
    return n_fft, amp, amp_real


def _synthesize_rows(amplitudes, n_samples, seed, indices) -> np.ndarray:
    """Forcing records of shape (len(indices), n_samples); row j is trajectory indices[j]'s.

    ``amplitudes`` is the ``_synthesis_amplitudes`` triple for ``n_samples``.
    Row j draws from the stream of ``_noise_generator(seed, indices[j])``:
    the batch builds one generator and reads its state once, before any draw:
    counter ``[0, indices[0], 0, 0]``, an empty buffer and no cached 32-bit
    half.  For each row it sets that state's counter word 1 to the row's index
    and assigns it back, which restarts the generator at the first block of the
    row's stream, whatever it drew before.
    Each row draws 2 n_band normals, its n_band ``a`` normals and then its
    n_band ``b`` normals, so a row does not depend on which other rows share
    the batch.  Mode k gets amp_k (a_k + i b_k); the zero mode is real, and
    so is the Nyquist mode, set only when it lies in the band.  The spectrum
    holds the band only, for one row group of max(1, ``_BLOCK_STEPS`` //
    n_band) rows at a time: each group's inverse FFT of length n_fft
    zero-pads the modes above the band, the same zeros a full-length
    spectrum would hold, and writes the group's rows straight into the
    record.  The record is made once the first group's draws are freed, so a
    one-row batch peaks at its spectrum and record alone.  Each row is
    transformed on its own, so the grouping moves no bit.
    """
    n_fft, amp, amp_real = amplitudes
    n_band = amp.size
    nyquist_in_band = n_band == n_fft // 2 + 1 and n_fft % 2 == 0
    group = max(1, _BLOCK_STEPS // n_band)  # rows per spectrum: about one block of modes
    record = None  # made once the first group's draws are freed
    rng = _noise_generator(seed, indices[0])  # re-keyed below before every draw
    bit_generator = rng.bit_generator
    fresh = bit_generator.state  # the start of indices[0]'s stream
    for g0 in range(0, len(indices), group):
        rows = indices[g0 : g0 + group]
        ab = np.empty((2, n_band))
        y = np.empty((len(rows), n_band), dtype=complex)
        for j, index in enumerate(rows):
            fresh["state"]["counter"][1] = index
            bit_generator.state = fresh
            rng.standard_normal(out=ab)
            # amp * (a + 1j * b), written one real part at a time
            np.multiply(amp, ab[0], out=y.real[j])
            np.multiply(amp, ab[1], out=y.imag[j])
            y[j, 0] = amp_real[0] * ab[0, 0]  # zero mode is real
            if nyquist_in_band:
                y[j, -1] = amp_real[-1] * ab[0, -1]  # Nyquist mode is real
        del ab
        if record is None:
            record = np.empty((len(indices), n_fft))
        np.fft.irfft(y, n=n_fft, axis=-1, out=record[g0 : g0 + len(rows)])
        del y  # free this group's spectrum before the next one is made
    return record[:, :n_samples]


def _step_coefficients(p: AtomParams, dt: float):
    """Exact homogeneous propagator over one step plus piecewise-linear forcing maps.

    Returns (e00, e01, e10, e11, f0q, f0v, f1q, f1v) such that
    y_{n+1} = E y_n + Phi0 xi_n + Phi1 (xi_{n+1} - xi_n), y = (q, qdot).

    All eight come from one matrix exponential (Van Loan 1978): over a step,
    in units of dt, the state (q/dt^2, qdot/dt, xi, xi_{n+1} - xi_n) obeys a
    linear ODE with the generator below, so its exponential holds E, Phi0 and
    Phi1, read off with their powers of dt.  No coefficient is a difference of
    nearly equal numbers, and no damping regime needs a branch of its own:
    the critically damped point and its neighbours keep every digit.
    """
    generator = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-((p.omega * dt) ** 2), -2.0 * p.gamma * dt, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    (e00, e01, f0q, f1q), (e10, e11, f0v, f1v) = _expm(generator)[:2].tolist()
    return e00, e01 * dt, e10 / dt, e11, f0q * dt**2, f0v * dt, f1q * dt**2, f1v * dt


def _mode_filter(mu: complex, mu_other: complex, dt: float, coefficients, x0):
    """Taps, poles and initial state of the filter that runs one eigenmode of the step map from rest.

    The mode ``z = (v - mu_other q) / (mu - mu_other)`` obeys
    ``z_{n+1} = lam z_n + c0 xi_n + c1 xi_{n+1}`` with ``lam = exp(mu dt)``, so
    ``_lfilter(b, a, xi[1:], zi=zi)`` yields z_1, z_2, ... from the forcing samples
    alone, and the state it returns after z_m is ``lam z_m + c0 xi_m``, which
    is the ``zi`` that continues the recursion from sample m: one first-order
    section ``[c1, c0, 0, 1, -lam, 0]``.  At rest z_0 = 0, so the first
    ``zi`` is ``c0 x0``, with ``x0`` the forcing rows' first samples.  A real
    pair of eigenvalues gives real taps, a complex pair complex ones.
    """
    f0q, f0v, f1q, f1v = coefficients
    denom = mu - mu_other
    c0 = ((f0v - f1v) - mu_other * (f0q - f1q)) / denom
    c1 = (f1v - mu_other * f1q) / denom
    return [np.array([c1, c0]), np.array([1.0, -np.exp(mu * dt)]), (c0 * x0)[:, None]]


def _propagate(p: AtomParams, dt: float, step_map, xi: np.ndarray):
    """Propagate rows of forcing samples from rest; yield ``(t0, q, v)`` blocks of ``_BLOCK_STEPS`` steps.

    ``step_map`` is ``_step_coefficients(p, dt)``, which the caller builds
    once for all its batches.  ``xi`` has shape (k, n + 1), one trajectory
    per row, and every trajectory starts at rest, q = qdot = 0.  Each yielded
    ``q`` and ``v`` is trajectory-major, shape (k, L), and holds samples
    t0 .. t0 + L - 1; the first block starts at sample 0, the rest state.
    The blocks are views of the workspace's buffers, overwritten by the next
    block; the propagation never reads a block once it has yielded it, so the
    caller may overwrite it.

    The exact one-step map ``y_{n+1} = E y_n + Phi0 xi_n + Phi1 dxi_n`` is
    diagonalized: in the eigenbasis of the damped oscillator it splits into two
    first-order recursions with multipliers exp(mu_pm dt), mu_pm = -gamma pm
    sqrt(gamma^2 - omega^2), whose per-step drive is a two-tap combination of
    consecutive forcing samples.  Each runs as one constant-coefficient filter
    over the forcing rows (``_mode_filter``: one first-order section, through
    ``_lfilter``), carrying the filter state across blocks.  First-order
    sections stay well conditioned even when omega*dt is tiny (a direct
    second-order recursion, or one second-order section, would lose several
    digits there).
    The critically damped point has a defective map and falls back to an
    explicit step loop.
    """
    e00, e01, e10, e11, f0q, f0v, f1q, f1v = step_map
    k, n = xi.shape[0], xi.shape[1] - 1
    forcing_maps = (f0q, f0v, f1q, f1v)

    disc = p.gamma**2 - p.omega**2
    filters = []  # [b, a, zi] per eigenmode; zi advances block by block
    if disc < 0:
        # underdamped: the second mode is the conjugate of the first, so one
        # complex filter carries the whole state
        mu_p = complex(-p.gamma, math.sqrt(-disc))
        filters = [_mode_filter(mu_p, mu_p.conjugate(), dt, forcing_maps, xi[:, 0])]
    elif disc > 0:
        # overdamped: two real decaying modes
        mu_p, mu_m = -p.gamma + math.sqrt(disc), -p.gamma - math.sqrt(disc)
        filters = [
            _mode_filter(mu_p, mu_m, dt, forcing_maps, xi[:, 0]),
            _mode_filter(mu_m, mu_p, dt, forcing_maps, xi[:, 0]),
        ]
    else:  # critically damped: the explicit loop's state
        q = v = np.zeros(k)

    for s in range(0, n, _BLOCK_STEPS):
        e = min(s + _BLOCK_STEPS, n)
        first = s == 0
        q_blk = _WORKSPACE.take("q", (k, e - s + first))
        v_blk = _WORKSPACE.take("v", (k, e - s + first))
        if first:
            q_blk[:, 0] = v_blk[:, 0] = 0.0
        q_out, v_out = q_blk[:, first:], v_blk[:, first:]
        modes = []
        for f in filters:
            mode, f[2] = _lfilter(f[0], f[1], xi[:, s + 1 : e + 1], f[2])
            modes.append(mode)
        if disc < 0:
            (alpha,) = modes
            np.multiply(alpha.real, 2.0, out=q_out)
            np.multiply(alpha, mu_p, out=alpha)
            np.multiply(alpha.real, 2.0, out=v_out)
        elif disc > 0:
            alpha, beta = modes
            np.add(alpha, beta, out=q_out)
            np.multiply(alpha, mu_p, out=alpha)
            np.multiply(beta, mu_m, out=beta)
            np.add(alpha, beta, out=v_out)
        else:  # critically damped: defective propagator, explicit loop
            x0 = xi[:, s:e]
            dxi = xi[:, s + 1 : e + 1] - x0
            u = f0q * x0 + f1q * dxi  # coordinate drive per step
            w = f0v * x0 + f1v * dxi  # velocity drive per step
            for i in range(e - s):
                q, v = (
                    e00 * q + e01 * v + u[:, i],
                    e10 * q + e11 * v + w[:, i],
                )
                q_out[:, i] = q
                v_out[:, i] = v
        yield (0 if first else s + 1), q_blk, v_blk


def predicted_variance(p: AtomParams, bath: BathSpec, cutoff: float, n_points: int) -> float:
    """Frequency-domain equilibrium coordinate variance at the same cutoff.

    (1/m) \\int dkappa/2pi coth(beta kappa/2) Im GR(kappa) over (-cutoff, cutoff);
    use the synthesis cutoff here, never a different one.  The integrand is
    bitwise even, as the quadrature, which samples kappa > 0 alone, needs.
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
    """Cut trajectories start .. stop - 1 into batches of r rows, the last one shorter; returns the edges.

    r = max(1, _ROW_SAMPLES // max(n_samples, _BLOCK_STEPS)), so no batch
    holds more than r rows, and the first batch is the largest.  A record
    shorter than one block counts as one block, so that r blocks never exceed
    _ROW_SAMPLES samples.  The edges ignore chunk edges: a batch may hold rows
    of several chunks.
    """
    r = max(1, _ROW_SAMPLES // max(n_samples, _BLOCK_STEPS))
    return [*range(start, stop, r), stop]


def _reduce_batch(p, dt, step_map, xi, burn_index, series):
    """Propagate one batch of forcing records from rest and reduce it block by block.

    ``step_map`` is ``_step_coefficients(p, dt)``.

    ``series`` holds one 1-D array per row of ``xi``, the q^2 series of the
    row's chunk, shared by the rows of one chunk.  Each row adds its q^2 into
    its array, the rows in trajectory order, and sums its post-burn q, q^2 and
    qdot^2 over each ``_BLOCK_STEPS`` block, adding the block sums in time
    order.  Every sum reads one row of fixed blocks, so no output depends on
    how many rows share the batch or on which chunks they come from.  Each
    block's post-burn sums of q are taken first; then q and qdot are squared
    in place in the workspace blocks, which nothing reads again.  Returns the
    batch's post-burn means of q, q^2 and qdot^2.
    """
    n_steps = xi.shape[1] - 1
    sums = np.zeros((3, len(xi)))  # post-burn row sums of q, q^2 and qdot^2
    for t0, q, v in _propagate(p, dt, step_map, xi):
        cut = max(burn_index - t0, 0)
        q_sums = q[:, cut:].sum(axis=1)
        q2 = np.multiply(q, q, out=q)
        for row, chunk_series in zip(q2, series):
            chunk_series[t0 : t0 + q2.shape[1]] += row
        post_v = v[:, cut:]
        v2 = np.multiply(post_v, post_v, out=post_v)
        sums += (q_sums, q2[:, cut:].sum(axis=1), v2.sum(axis=1))
    return tuple(sums / (n_steps + 1 - burn_index))


def _ensemble_chunk(job):
    """One pool task: trajectories start .. stop - 1, a run of whole ``_CHUNK_SIZE`` chunks.

    Returns the q^2 series sum of each chunk the task covers, one row per
    chunk in a (chunks, n_steps + 1) array, and the per-trajectory post-burn
    means of q, q^2 and qdot^2.  Trajectory i belongs to chunk i //
    ``_CHUNK_SIZE``, whichever row batch carries it, so each chunk's row has
    the bits of that chunk run alone.  The batches run in this thread's
    workspace, which the first batch, the largest, sizes; the results are
    fresh arrays.  The amplitudes and the step map (one matrix exponential)
    are built once and shared by every batch.
    """
    (p, bath, cutoff, dt, n_steps, master_seed, start, stop, burn_index) = job
    amplitudes = _synthesis_amplitudes(bath, p, cutoff, dt, n_steps + 1)
    step_map = _step_coefficients(p, dt)
    first_chunk = start // _CHUNK_SIZE
    series = np.zeros((-(-stop // _CHUNK_SIZE) - first_chunk, n_steps + 1))
    edges = _batch_edges(start, stop, n_steps + 1)
    means = []
    for lo, hi in zip(edges, edges[1:]):
        xi = _synthesize_rows(amplitudes, n_steps + 1, master_seed, range(lo, hi))
        rows = [series[i // _CHUNK_SIZE - first_chunk] for i in range(lo, hi)]
        means.append(_reduce_batch(p, dt, step_map, xi, burn_index, rows))
        del xi  # free this batch's record before the next one is synthesized
    return (series, *(np.concatenate(m) for m in zip(*means)))


def _task_results(jobs, workers):
    """Each job's ``_ensemble_chunk`` result, in job order, from at most ``workers`` processes.

    A pool starts one process per worker, so it gets no more workers than
    there are jobs.
    """
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            yield from pool.map(_ensemble_chunk, jobs)
    else:
        yield from map(_ensemble_chunk, jobs)


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
    after ``t_burn``.  The trajectory with index ``i`` draws from the stream
    ``Philox(master_seed).advance(i << 64)``; chunking and the reduction order are fixed,
    so the result is bit-identical for any ``workers`` count.  The chunks are
    split into min(chunks, 4 workers) tasks of contiguous whole chunks, run in
    a pool of at most ``workers`` processes, one per task at most, or in this
    process for one worker or one task.  Each task's chunk series are added
    into the running sum in chunk order as its result arrives, and dropped
    before the next task is computed.  The calling thread's workspace is
    emptied when the run ends.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    check_nyquist("dt", dt, cutoff)
    n_steps = int(round(t_total / dt))
    burn_index = int(math.ceil(t_burn / dt))
    if n_steps + 1 - burn_index < 16:
        raise BurnInError(
            f"insufficient post-burn-in samples: t_total={t_total:g} must exceed "
            f"t_burn={t_burn:g} by at least 16 steps of dt={dt:g}; increase t_total or reduce t_burn"
        )
    spacing = 2.0 * math.pi / (fast_fft_length(n_steps + 1, real=True) * dt)  # as in _synthesis_amplitudes
    if spacing > cutoff:
        raise BandError(
            f"cutoff={cutoff:g} is below the mode spacing 2 pi/(n_fft dt)={spacing:g} of the record, "
            "so the band holds only the zero mode; raise cutoff or t_total"
        )
    # min(chunks, 4 workers) tasks of contiguous whole chunks: four per worker
    # even out the load, and each task pays its fixed costs once
    n_chunks = -(-n_traj // _CHUNK_SIZE)
    n_tasks = min(n_chunks, 4 * workers)
    edges = [min(_CHUNK_SIZE * (t * n_chunks // n_tasks), n_traj) for t in range(n_tasks + 1)]
    jobs = [
        (p, bath, cutoff, dt, n_steps, master_seed, s, e, burn_index)
        for s, e in zip(edges, edges[1:])
    ]
    sum_q2 = np.zeros(n_steps + 1)
    means = []
    try:
        for series, *task_means in _task_results(jobs, workers):  # task order
            for chunk in range(len(series)):  # fixed chunk order; a loop view would keep series alive
                sum_q2 += series[chunk]
            means.append(task_means)
            del series  # free this task's series before the next task is computed
    finally:
        _WORKSPACE.clear()  # the buffers outlive tasks, never the run

    # per-trajectory post-burn means; the forcing has zero mean, so the second
    # moments are the variances, and the standard errors come from the scatter
    q_means, q2_means, v2_means = (np.concatenate(col) for col in zip(*means))
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
