"""Closed-form frequency-domain kernels of a damped harmonic atom in a scalar field.

Everything is expressed in natural units (hbar = c = k_B = 1).  The atom's
internal coordinate behaves as a damped driven oscillator with physical
frequency ``omega`` and damping ``gamma = e**2 / (8 pi m)``; the field kernels
are those of a massless scalar in unbounded 3+1 dimensional flat space.

Fourier convention: ``fbar(kappa) = \\int dt f(t) exp(+i kappa t)``, so the
retarded oscillator transform reads ``1 / (omega**2 - kappa**2 - 2i gamma kappa)``
and the retarded field kernel at distance r is ``exp(i kappa r) / (4 pi r)``.

All kernel functions accept a scalar or ndarray ``kappa`` and vectorize over it.
``FrequencyGrid`` is the half-step-offset grid on (-cutoff, cutoff) that the
quadrature and the identity suites walk, a run of its kappa > 0 points at a
time (``FrequencyGrid.pieces``): every spectrum the quadrature integrates is
even in kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * math.pi

# |beta*kappa| below which coth(beta*kappa/2) switches to its Laurent series.
COTH_SERIES_CUTOFF = 1e-4

# the fewest kappa > 0 points in a piece of a grid, unless the grid has
# fewer, and a piece is shorter than 2 * _PIECE: numpy reuses a temporary of
# 256 KiB or more in place, which may swap the operands of a complex product
# inside an integrand and move its rounding, and 2^14 complex points are the
# shortest piece on which an integrand rounds as on the whole kappa > 0 half
_PIECE = 1 << 14


class OriginRealPartError(ValueError):
    """Raised when the divergent real part of the r=0 retarded kernel is requested.

    The real part of ``field_retarded_ft`` at coincidence is ultraviolet
    divergent; it is absorbed into the physical frequency ``omega`` by
    renormalization and must never enter a flux integral.  Use
    ``field_retarded_im`` or ``field_retarded_origin`` instead.
    """


class NyquistError(ValueError):
    """Raised when a time step cannot represent the frequency cutoff."""


def check_nyquist(name: str, step: float, cutoff: float):
    """Raise ``NyquistError`` unless the time step ``name`` = ``step`` is at most pi/cutoff.

    A signal sampled at that step cannot carry frequencies above pi/step, so
    a time-domain oracle at a coarser step would not see the whole band.
    """
    if step > math.pi / cutoff * (1.0 + 1e-12):
        raise NyquistError(
            f"{name}={step:g} violates the Nyquist bound pi/cutoff={math.pi / cutoff:g}"
        )


def fast_fft_length(target: int, real: bool = False) -> int:
    """The smallest n >= ``target`` (a positive int) with no prime factor above 11, or above 5 for ``real``.

    This is ``scipy.fft.next_fast_len(target, real)``: pocketfft, which runs
    numpy's FFTs as well as scipy's, has a radix pass of its own for each of
    these primes.  Each odd smooth factor up to the first power of two >=
    target is doubled until it reaches target, and the least result wins.
    """
    power_of_two = 1 << (target - 1).bit_length()
    odd = [1]
    for prime in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for f in odd:
            while f <= power_of_two:
                grown.append(f)
                f *= prime
        odd = grown
    return min(f << (-(-target // f) - 1).bit_length() for f in odd)


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class AtomParams:
    """Parameters of the harmonic atom (internal degree of freedom).

    ``gamma`` is always derived as ``e**2 / (8 pi m)``; it is not an
    independent knob.  ``omega`` is the physical frequency, which already
    includes the renormalization shift.
    """

    e: float
    m: float
    omega: float
    gamma: float = field(init=False)

    def __post_init__(self):
        if not self.e > 0:
            raise ValueError(f"coupling e must be positive, got {self.e}")
        if not self.m > 0:
            raise ValueError(f"mass m must be positive, got {self.m}")
        if not self.omega > 0:
            raise ValueError(f"physical frequency omega must be positive, got {self.omega}")
        object.__setattr__(self, "gamma", self.e**2 / (8.0 * math.pi * self.m))

    @classmethod
    def from_damping(cls, gamma: float, m: float, omega: float):
        """Build from a target damping constant instead of the coupling.

        The stored ``gamma`` is re-derived from ``e = sqrt(8 pi m gamma)`` and
        may differ from the request by one rounding ulp.
        """
        if not gamma > 0:
            raise ValueError(f"damping gamma must be positive, got {gamma}")
        return cls(e=math.sqrt(8.0 * math.pi * m * gamma), m=m, omega=omega)


@dataclass(frozen=True)
class BathSpec:
    """Initial state of the field: inverse temperature beta, with beta=inf the vacuum."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"inverse temperature beta must be positive, got {self.beta}")

    @classmethod
    def vacuum(cls):
        return cls(beta=math.inf)

    @property
    def is_vacuum(self) -> bool:
        return math.isinf(self.beta)

    def describe(self) -> str:
        return "vacuum" if self.is_vacuum else f"beta={self.beta!r}"


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform symmetric frequency grid on (-cutoff, cutoff), offset half a step.

    The points are midpoints of ``n_points`` equal cells, so kappa = 0 is never
    hit, and they mirror by negation: the kappa < 0 half is the kappa > 0 half
    negated.  No grid-length array is ever built: ``pieces`` walks the
    kappa > 0 points a run at a time, and the quadrature and the identity
    suites, which all sample kappa > 0 (the parity suite at each point's
    negation too), take their points from it alone.
    """

    cutoff: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.cutoff < math.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if self.n_points < 16 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be an even integer >= 16, got {self.n_points}")

    def pieces(self):
        """Yield ``(lo, kappa)`` for each run of the kappa > 0 points, in ascending order.

        ``kappa`` holds the points lo, lo + 1, ..., counted from the innermost.
        The n/2 points come in max(1, n/2 // ``_PIECE``) runs as equal as can
        be: 2^14 to 2^15 - 1 points each, or one run if there are fewer than
        2^15.  A point has the same bits whichever run holds it.
        """
        half = self.n_points // 2
        k = max(1, half // _PIECE)
        for i in range(k):
            lo, hi = i * half // k, (i + 1) * half // k
            yield lo, (np.arange(lo, hi) + 0.5) * self.spacing

    @property
    def spacing(self) -> float:
        return 2.0 * self.cutoff / self.n_points

    def halved(self):
        """Grid with half the resolution at the same cutoff, or None if too coarse."""
        if self.n_points % 4 == 0 and self.n_points // 2 >= 16:
            return FrequencyGrid(self.cutoff, self.n_points // 2)
        return None


def thermal_factor(kappa, bath: BathSpec):
    """coth(beta*kappa/2), or sgn(kappa) for the vacuum.  Odd in kappa.

    For finite beta and |beta*kappa| < 1e-4 the Laurent series
    ``2/(beta*kappa) + beta*kappa/6 - (beta*kappa)**3/360`` is used.
    Raises at kappa = 0, where the factor is undefined (vacuum) or divergent
    (finite beta); grids are half-step offset precisely to avoid this point.
    """
    kap, scalar = _as_float_array(kappa)
    if np.any(kap == 0.0):
        if bath.is_vacuum:
            raise ValueError("thermal_factor is undefined at kappa=0 for the vacuum (sgn(0))")
        raise ValueError("thermal_factor diverges at kappa=0 for finite beta")
    if bath.is_vacuum:
        out = np.sign(kap)
    else:
        x = bath.beta * kap
        out = np.empty_like(kap)
        np.divide(1.0, np.tanh(0.5 * x, out=out), out=out)
        # the few points near kappa = 0 are overwritten, not split off first:
        # elementwise results are the same, without compacting the whole grid
        small = np.abs(x) < COTH_SERIES_CUTOFF
        if small.any():
            xs = x[small]
            out[small] = 2.0 / xs + xs / 6.0 - xs**3 / 360.0
    return out[()] if scalar else out


def atom_retarded_ft(kappa, p: AtomParams):
    """Retarded transform of the oscillator response: 1/(omega^2 - kappa^2 - 2i gamma kappa).

    Satisfies G(-kappa) = conj(G(kappa)); the imaginary part
    ``2 gamma kappa / ((omega^2-kappa^2)^2 + 4 gamma^2 kappa^2)`` carries the
    sign of kappa.  The denominator never vanishes for real kappa, gamma > 0.
    """
    kap, scalar = _as_float_array(kappa)
    den = (p.omega**2 - kap**2) - 2j * p.gamma * kap
    out = 1.0 / den
    return out[()] if scalar else out


def field_retarded_ft(r: float, kappa):
    """Retarded kernel of the free massless field at distance r: exp(i kappa r)/(4 pi r).

    Only defined for r > 0; at r = 0 the real part is UV divergent and is
    absorbed into the frequency renormalization, so this function raises
    ``OriginRealPartError`` there (see ``field_retarded_origin``).
    """
    if r < 0:
        raise ValueError(f"distance r must be nonnegative, got {r}")
    if r == 0:
        raise OriginRealPartError(
            "field_retarded_ft(0, kappa): the raw real part at coincidence is divergent "
            "and renormalized away; use field_retarded_origin(kappa) or field_retarded_im(0, kappa)"
        )
    kap, scalar = _as_float_array(kappa)
    out = np.exp(1j * kap * r) / (FOUR_PI * r)
    return out[()] if scalar else out


def field_retarded_im(r: float, kappa):
    """Imaginary part of the retarded field kernel; finite for every r >= 0.

    sin(kappa r)/(4 pi r) for r > 0, with the coincidence limit kappa/(4 pi).
    """
    if r < 0:
        raise ValueError(f"distance r must be nonnegative, got {r}")
    kap, scalar = _as_float_array(kappa)
    if r == 0:
        out = kap / FOUR_PI
    else:
        out = np.sin(kap * r) / (FOUR_PI * r)
    return out[()] if scalar else out


def field_retarded_origin(kappa):
    """Regularized coincidence limit of the retarded field kernel.

    The imaginary part is the physical kappa/(4 pi); the real part is returned
    as exactly 0.0, which is a *renormalized* marker (the divergence is already
    absorbed into the physical frequency), not a physical zero.
    """
    kap, scalar = _as_float_array(kappa)
    out = 1j * kap / FOUR_PI + 0.0
    return out[()] if scalar else out


def _fdr_product(kappa, bath: BathSpec, im_retarded, zero_limit: float):
    """FDR product thermal_factor(kappa) * im_retarded(kappa), and ``zero_limit`` at kappa = 0.

    ``im_retarded`` is the imaginary part of a retarded kernel, odd in kappa, so
    the product is even.  At kappa = 0 the thermal factor is undefined, and the
    product's limit is (2/beta) times the slope of ``im_retarded`` at 0 (zero in
    the vacuum).  Each caller writes that limit in its kernel's own arithmetic,
    so the kappa = 0 value keeps its bits.
    """
    kap, scalar = _as_float_array(kappa)
    out = np.empty_like(kap)
    zero = kap == 0.0
    nonzero = ~zero
    knz = kap[nonzero]
    out[nonzero] = thermal_factor(knz, bath) * im_retarded(knz)
    out[zero] = zero_limit
    return out[()] if scalar else out


def field_hadamard_ft(r: float, kappa, bath: BathSpec):
    """Hadamard (symmetric) kernel of the free field at separation r.

    ``thermal_factor(kappa) * field_retarded_im(r, kappa)``.  Real and even in
    kappa.  The kappa = 0 value is the finite limit: 1/(2 pi beta) at finite
    temperature (Rayleigh-Jeans plateau, independent of r), 0 in the vacuum.
    """
    limit = 1.0 / (2.0 * math.pi * bath.beta)
    return _fdr_product(kappa, bath, lambda k: field_retarded_im(r, k), limit)


def atom_hadamard_ft(kappa, p: AtomParams, bath: BathSpec):
    """Hadamard transform of the equilibrated oscillator: thermal_factor * Im G_R.

    Even in kappa and nonnegative.  The kappa = 0 value is the finite limit
    ``(2/beta) * (2 gamma / omega**4)`` (zero in the vacuum).
    """
    limit = (2.0 / bath.beta) * (2.0 * p.gamma / p.omega**4)
    return _fdr_product(kappa, bath, lambda k: np.imag(atom_retarded_ft(k, p)), limit)


def damped_cos(tau, p: AtomParams):
    """exp(-gamma tau) * cos(Omega tau) continued across the damping regimes.

    Omega = sqrt(omega^2 - gamma^2) when underdamped; the overdamped branch is
    evaluated as a sum of decaying exponentials so it never overflows, and the
    critically damped point uses the analytic limit.
    """
    t, scalar = _as_float_array(tau)
    d = p.omega**2 - p.gamma**2
    if d > 0:
        om = math.sqrt(d)
        out = np.exp(-p.gamma * t) * np.cos(om * t)
    elif d < 0:
        nu = math.sqrt(-d)
        out = 0.5 * (np.exp((nu - p.gamma) * t) + np.exp(-(nu + p.gamma) * t))
    else:
        out = np.exp(-p.gamma * t)
    return out[()] if scalar else out


def damped_sinc(tau, p: AtomParams):
    """exp(-gamma tau) * sin(Omega tau)/Omega, valid in all damping regimes.

    This is the retarded response kernel of the oscillator for tau > 0.  The
    overdamped branch is exp((nu - gamma) t) (1 - exp(-2 nu t))/(2 nu), with
    nu^2 = (gamma - omega)(gamma + omega): expm1 keeps every digit next to
    gamma = omega, where the difference of the two exponentials cancels, and
    the branch still cannot overflow at large t.
    """
    t, scalar = _as_float_array(tau)
    d = p.omega**2 - p.gamma**2
    if d > 0:
        om = math.sqrt(d)
        out = np.exp(-p.gamma * t) * np.sin(om * t) / om
    elif d < 0:
        nu = math.sqrt((p.gamma - p.omega) * (p.gamma + p.omega))
        out = np.exp((nu - p.gamma) * t) * -np.expm1(-2.0 * nu * t) / (2.0 * nu)
    else:
        out = t * np.exp(-p.gamma * t)
    return out[()] if scalar else out
