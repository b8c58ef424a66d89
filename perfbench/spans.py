"""Span and count recording around calls into atomflux's modules.

The wrappers live here, outside the package: ``install`` replaces module
attributes (``flux.power_budget``, ``langevin._lfilter``, the kernel names each
module imported from ``greens``, ...) with timed wrappers, so the program runs
unchanged and an untraced run has no wrapper at all.

Each span records its inclusive time under its name and its self time (the
inclusive time minus the part covered by child spans).  Counts are exact work
sizes read from the arguments or results of the wrapped calls.

Pool workers are forked after ``install``, so they run the wrappers too.  A
worker collects the spans of one ``_ensemble_chunk`` call into a fresh
``Totals`` and ships it back pickled alongside the chunk's result; the parent
unpacks it before ``run_ensemble`` sees the result and merges it when
``run_ensemble`` returns.  Worker span times therefore add up busy time over
all workers.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from collections import Counter, defaultdict

_clock = time.perf_counter

GREENS_KERNELS = (
    "thermal_factor",
    "atom_retarded_ft",
    "field_retarded_ft",
    "field_retarded_im",
    "field_retarded_origin",
    "field_hadamard_ft",
    "atom_hadamard_ft",
    "damped_cos",
    "damped_sinc",
)

FLUX_DENSITIES = (
    "radiated_power_density",
    "dissipated_power_density",
    "far_field_flux_terms",
    "far_field_flux_integrand",
    "near_field_flux_integrand",
    "corrected_hadamard_spectrum",
)

FDR_CHECKS = ("check_field_fdr", "check_atom_fdr_reduction", "check_parity")


class Totals:
    """Accumulated span times, call counts, exact counts and maxima."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(float)

    def merge(self, other: "Totals"):
        for key, val in other.incl.items():
            self.incl[key] += val
        for key, val in other.self_.items():
            self.self_[key] += val
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        for key, val in other.maxima.items():
            self.maxima[key] = max(self.maxima[key], val)


class Tracer:
    """Process-wide span stack plus the totals it feeds."""

    def __init__(self):
        self.pid = os.getpid()
        self.totals = Totals()
        self.stack: list[list] = []  # [name, child_time]
        self.pending: list[Totals] = []  # worker totals unpacked, not yet merged

    def reset(self):
        self.totals = Totals()
        self.stack = []
        self.pending = []

    def layer(self) -> str:
        return self.stack[-1][0].split(".", 1)[0] if self.stack else "bench"

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` wrapped in a span; ``before(args)``/``after(args, result)`` add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                tracer.stack.pop()
                totals = tracer.totals
                totals.incl[name] += elapsed
                totals.self_[name] += elapsed - frame[1]
                totals.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper


TRACER = Tracer()


def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _count(name, amount):
    TRACER.totals.counts[name] += int(amount)


def _peak(name, value):
    maxima = TRACER.totals.maxima
    maxima[name] = max(maxima[name], float(value))


class _Harvest:
    """A chunk result plus the worker's totals; unpickles to the bare result."""

    def __init__(self, result, totals):
        self.result = result
        self.totals = totals

    def __reduce__(self):
        return _unharvest, (self.result, self.totals)


def _unharvest(result, totals):
    TRACER.pending.append(totals)  # list.append is atomic; merged on the main thread
    return result


def _standard_normal(rng, *args, **kwargs):
    return rng.standard_normal(*args, **kwargs)


_draw = TRACER.wrap(
    _standard_normal,
    "langevin.rng",
    after=lambda args, kwargs, out: _count("langevin.rng_draws", out.size),
)


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting its normal draws."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, *args, **kwargs):
        return _draw(self._rng, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


_INSTALLED: list[tuple] = []  # (namespace, attribute, original) for uninstall


def _replace(modules, name, wrapper, original):
    for mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)
            _INSTALLED.append((mod, name, original))


def uninstall():
    """Put every original back, so the next pass runs untraced."""
    while _INSTALLED:
        mod, name, original = _INSTALLED.pop()
        setattr(mod, name, original)


def install():
    """Wrap every traced entry point of atomflux's modules until ``uninstall``.

    Pools forked while the wrappers are installed run them in their workers too.
    """
    import numpy as np

    from atomflux import cli, fdr, flux, greens, langevin, spectral

    modules = (greens, spectral, fdr, flux, langevin, cli)
    t = TRACER
    t.pid = os.getpid()

    # greens: every kernel, under one span name; points only for outermost calls
    for name in GREENS_KERNELS:
        original = getattr(greens, name)
        arg_index = 1 if name.startswith("field_") and name != "field_retarded_origin" else 0

        def before(args, kwargs, _i=arg_index):
            if t.layer() != "greens" and len(args) > _i:
                _count("greens.kernel_points", np.size(args[_i]))

        _replace(modules, name, t.wrap(original, "greens.kernel", before=before), original)

    # spectral: the reduction, with the integrand as a child span
    original_integrate = spectral.integrate_spectrum

    def integrate_spectrum(f, grid):
        layer = getattr(f, "__module__", "") or ""
        span = layer.rsplit(".", 1)[-1] + ".integrand"
        return traced_integrate(t.wrap(f, span), grid)

    traced_integrate = t.wrap(
        original_integrate,
        "spectral.integrate",
        after=lambda a, k, res: _count("spectral.n_evals", res.n_evals),
    )
    functools.update_wrapper(integrate_spectrum, original_integrate)
    _replace(modules, "integrate_spectrum", integrate_spectrum, original_integrate)

    # fdr: each identity check
    for name in FDR_CHECKS:
        original = getattr(fdr, name)
        bind = _binder(original)

        def before(args, kwargs, _bind=bind):
            _count("fdr.points", _bind(args, kwargs)["grid"].n_points)

        _replace(modules, name, t.wrap(original, "fdr.check", before=before), original)

    # flux: budget, densities, late-time value, oracle and its lag kernels
    for name in FLUX_DENSITIES:
        original = getattr(flux, name)
        _replace(modules, name, t.wrap(original, "flux.density"), original)

    def requested_grid(fn, key):
        bind = _binder(fn)

        def before(args, kwargs):
            grid = bind(args, kwargs)[key]
            _count("spectral.requested_points", grid if isinstance(grid, int) else grid.n_points)

        return before

    for name, span in (("power_budget", "flux.budget"), ("interacting_hadamard_late", "flux.late")):
        original = getattr(flux, name)
        _replace(modules, name, t.wrap(original, span, before=requested_grid(original, "grid")), original)

    original = flux.interacting_hadamard_direct
    _replace(modules, "interacting_hadamard_direct", t.wrap(original, "flux.oracle"), original)

    original = flux.free_hadamard_kernel_lags
    bind_lags = _binder(original)

    def before_lags(args, kwargs):
        arguments = bind_lags(args, kwargs)
        _count("flux.filon_nodes", arguments["n_kappa"] + 1)
        _count("flux.lags", arguments["m"])

    _replace(modules, "free_hadamard_kernel_lags", t.wrap(original, "flux.lag_kernel", before=before_lags), original)

    # langevin: ensemble driver, prediction, and the engine's leaves
    original = langevin.run_ensemble
    bind_ens = _binder(original)

    def before_ensemble(args, kwargs):
        arguments = bind_ens(args, kwargs)
        n_steps = int(round(arguments["t_total"] / arguments["dt"]))
        _count("langevin.traj_steps", arguments["n_traj"] * n_steps)
        _peak("langevin.workers", arguments["workers"])

    traced_ensemble = t.wrap(original, "langevin.ensemble", before=before_ensemble)

    @functools.wraps(original)
    def run_ensemble(*args, **kwargs):
        try:
            return traced_ensemble(*args, **kwargs)
        finally:
            pending, t.pending = t.pending, []
            for totals in pending:
                t.totals.merge(totals)

    _replace(modules, "run_ensemble", run_ensemble, original)

    original = langevin.predicted_variance
    _replace(
        modules,
        "predicted_variance",
        t.wrap(original, "langevin.predict", before=requested_grid(original, "n_points")),
        original,
    )

    original_seed = langevin._noise_generator
    traced_seed = t.wrap(original_seed, "langevin.seed")

    @functools.wraps(original_seed)
    def noise_generator(*args, **kwargs):
        return _TimedGenerator(traced_seed(*args, **kwargs))

    _replace(modules, "_noise_generator", noise_generator, original_seed)

    def after_filter(args, kwargs, result):
        drive = args[2] if len(args) > 2 else kwargs["x"]
        _peak("langevin.chunk_bytes", drive.nbytes + result[0].nbytes)

    original = langevin._lfilter
    _replace(modules, "_lfilter", t.wrap(original, "langevin.filter", after=after_filter), original)

    original_irfft = np.fft.irfft
    traced_irfft = {}

    @functools.wraps(original_irfft)
    def irfft(*args, **kwargs):
        span = t.layer() + ".irfft"
        if span not in traced_irfft:
            traced_irfft[span] = t.wrap(original_irfft, span)
        return traced_irfft[span](*args, **kwargs)

    _replace((np.fft,), "irfft", irfft, original_irfft)

    original_chunk = langevin._ensemble_chunk
    traced_chunk = t.wrap(original_chunk, "langevin.engine")

    @functools.wraps(original_chunk)
    def ensemble_chunk(job):
        in_worker = os.getpid() != t.pid
        if in_worker:  # forked pool worker: collect this chunk's spans afresh
            t.totals, t.stack = Totals(), []
        if job[6] != 0:  # job[6] is the chunk's first trajectory index
            result = traced_chunk(job)
        else:
            # tracemalloc slows Python-level allocation (generator seeding), so
            # only the first chunk of an ensemble pays it; all chunks but the
            # last have the same shape
            tracemalloc.start()
            try:
                result = traced_chunk(job)
                _peak("langevin.peak_alloc_bytes", tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return _Harvest(result, t.totals) if in_worker else result

    # pickled by reference: the pool looks the wrapper up as atomflux.langevin._ensemble_chunk
    _replace(modules, "_ensemble_chunk", ensemble_chunk, original_chunk)

    original = cli.main
    _replace(modules, "main", t.wrap(original, "cli.main"), original)
