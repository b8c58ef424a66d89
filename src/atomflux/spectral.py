"""Deterministic quadrature for frequency integrals over a symmetric cutoff window.

``integrate_spectrum`` evaluates ``(1/2 pi) \\int_{-L}^{L} f(kappa) dkappa`` on a
half-step-offset mirror grid with a fourth-order end-corrected midpoint rule.
Mirrored samples are paired before summation, so odd integrands vanish exactly.
On a grid built ``even=True`` the integrand is sampled on kappa > 0 alone and
each sample is paired with itself, which gives the mirror grid's bits for an
integrand that is bitwise even there at half the samples and memory.  Each
row's sum is exactly rounded: a few vectorized error-free extraction
passes leave partial sums that hold the exact total, and ``math.fsum`` rounds
them once, so the bits equal ``math.fsum`` of the terms by construction, in
whatever order numpy adds.  Results are run-to-run and worker-count
deterministic.  An integrand may return several rows at once; each row is
reduced exactly as if it had been integrated on its own, so one pass over
shared kernel samples feeds several integrals.  Integrands must vectorize:
each is called once per grid with the whole array of kappa values.
``fit_log_slope`` is the log-divergence diagnostic for integrals taken over a
sequence of cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greens import FrequencyGrid

TWO_PI = 2.0 * math.pi

# Fourth-order end correction (h^2/24)*f' with f' from a cubic fit through the
# outermost four midpoints; applied symmetrically at both ends of the grid.
_EDGE_CORRECTIONS = (71.0 / 576.0, -141.0 / 576.0, 93.0 / 576.0, -23.0 / 576.0)

_ERROR_FLOOR_ULPS = 16.0

# error-free extraction passes before the leftovers go to fsum; below the
# floor eps*sigma could leave the normal range
_EXTRACTION_PASSES = 6
_EXTRACTION_FLOOR = 2.0**-969


class IntegrandError(ValueError):
    """Raised when an integrand returns a non-finite value or an array of the wrong shape."""


@dataclass(frozen=True)
class QuadratureResult:
    """One integral, or per-row tuples of them for a vector-valued integrand.

    ``n_evals`` counts the grid points handed to the integrand (fine plus half
    grid), whatever the number of rows it returned for them; on an even grid
    that is twice the number of samples the integrand computed.
    """

    value: float | complex | tuple
    est_error: float | tuple
    n_evals: int


def _evaluate(f, grid: FrequencyGrid) -> np.ndarray:
    """Samples of ``f`` on the grid, or on its kappa > 0 half if the grid is even.

    The shape is ``(m,)``, or ``(k, m)`` for k rows, with m the number of
    kappa values handed to ``f``.
    """
    kappa = grid.positive if grid.even else grid.values
    vals = np.asarray(f(kappa))
    if vals.ndim not in (1, 2) or vals.shape[-1] != kappa.size:
        raise IntegrandError(
            f"integrand returned shape {vals.shape} for {kappa.size} kappa values; "
            f"expected ({kappa.size},) or (rows, {kappa.size})"
        )
    if not np.all(np.isfinite(vals)):
        row, bad = divmod(int(np.flatnonzero(~np.isfinite(vals))[0]), kappa.size)
        where = f" in row {row}" if vals.ndim == 2 else ""
        half = " of the kappa > 0 half" if grid.even else ""
        raise IntegrandError(
            f"integrand is non-finite{where} at kappa={float(kappa[bad])!r} (index {bad}{half})"
        )
    return vals


def _exact_sum(p: np.ndarray, top: float, scratch: np.ndarray) -> float:
    """``math.fsum(p)``, bit for bit, from a few vectorized passes; overwrites p and scratch.

    ``top`` is max|p| and ``scratch`` a float array of p's length.  Each pass
    is Rump, Ogita and Oishi's error-free extraction ("Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): with M = ceil(log2(n + 2)) and
    sigma = 2^(M + e), where 2^e > top, q = (sigma + p) - sigma holds multiples
    of eps*sigma no larger than 2^e, so ``q.sum()`` is exact in any order, and
    p - q is exact and below eps*sigma.  The partial sums and the nonzero
    leftovers then hold the exact sum, which ``fsum`` rounds correctly once:
    the bits are those of ``fsum(p)`` by construction.  Rows the premises do
    not cover go to ``fsum`` whole: non-finite or zero tops (so signed zeros
    and all-zero rows follow ``fsum``), tops within 53 bits of the subnormal
    range, and sigma past 2^1023, where ``fsum`` raises its own OverflowError.
    """
    m = (p.size + 1).bit_length()
    if not _EXTRACTION_FLOOR <= top < math.inf or math.frexp(top)[1] + m > 1023:
        return math.fsum(memoryview(np.ascontiguousarray(p)))
    partials = []
    for _ in range(_EXTRACTION_PASSES):
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        np.add(p, sigma, out=scratch)
        scratch -= sigma
        partials.append(float(scratch.sum()))
        p -= scratch
        top = max(float(p.max()), -float(p.min()))
        if top < _EXTRACTION_FLOOR:
            break
    leftovers = p[p != 0.0] if top else ()
    return math.fsum(memoryview(np.concatenate((partials, leftovers))))


def _reduce(vals: np.ndarray, grid: FrequencyGrid):
    """Edge-corrected paired sum with the 1/(2 pi) measure; returns (value, abs_scale).

    On an even grid ``vals`` holds the kappa > 0 samples alone, and each pairs
    with itself: ``pos + pos`` has the bits ``pos + neg`` has on the mirror
    grid for an integrand that is bitwise even there.  The sum over the
    weighted pairs is exactly rounded: ``_exact_sum`` gives ``math.fsum``'s
    bits, and falls back to ``fsum`` itself on zero, non-finite,
    near-subnormal and near-overflowing rows.
    """
    half = grid.n_points // 2
    if grid.even:
        pos = neg = vals  # the kappa > 0 samples; f(-kappa) == f(kappa)
    else:
        neg = vals[:half][::-1]  # neg[j] = f(-pos[j])
        pos = vals[half:]
    terms = pos + neg
    # 1.0 * x == x, so weighting only the four edge pairs keeps every bit
    terms[-4:] *= np.array([1.0 + c for c in _EDGE_CORRECTIONS[::-1]])
    h = grid.spacing
    if np.iscomplexobj(terms):
        abs_scale = float(np.sum(np.abs(terms)))
        scratch = np.empty(half)
        parts = []
        for part in (terms.real, terms.imag):
            top = float(np.abs(part, out=scratch).max())
            parts.append(_exact_sum(part, top, scratch))
        value = complex(*parts) * h / TWO_PI
    else:
        scratch = np.abs(terms)
        abs_scale = float(np.sum(scratch))
        value = _exact_sum(terms, float(scratch.max()), scratch) * h / TWO_PI
    return value, abs_scale * h / TWO_PI


def integrate_spectrum(f, grid: FrequencyGrid) -> QuadratureResult:
    """Integrate ``f`` over (-cutoff, cutoff) with the 1/(2 pi) measure applied.

    ``f`` must vectorize: it is called once with the ndarray of the m kappa
    values it is sampled at (the n grid values, or on an even grid the n/2
    values kappa > 0 alone) and returns an ``(m,)`` array, or a ``(k, m)``
    array for k rows, which gets per-row tuples of ``value`` and ``est_error``, each bitwise equal to
    integrating that row alone.  Any other shape raises ``IntegrandError``, and
    an exception raised by ``f`` propagates.
    ``est_error`` comes from a Richardson comparison against the
    half-resolution grid, floored at a few ulps of the absolute term sum.
    On the half grid ``f`` may return only the leading rows of its full-grid
    result, for rows whose ``est_error`` nobody reads: each row it leaves out
    gets the ulp floor alone.  More rows there than on the full grid raise
    ``IntegrandError``.
    """
    vals = _evaluate(f, grid)
    vector = vals.ndim == 2
    fine = [_reduce(row, grid) for row in np.atleast_2d(vals)]
    del vals  # the half-grid pass need not hold the full-grid samples
    ulps = _ERROR_FLOOR_ULPS * float(np.finfo(float).eps)
    values = [value for value, _ in fine]
    est_errors = [ulps * abs_scale for _, abs_scale in fine]
    n_evals = grid.n_points
    coarse = grid.halved()
    if coarse is not None:
        coarse_rows = np.atleast_2d(_evaluate(f, coarse))
        if len(coarse_rows) > len(values):
            raise IntegrandError(
                f"integrand returned {len(coarse_rows)} rows on the half grid "
                f"but {len(values)} on the full grid"
            )
        n_evals += coarse.n_points
        for i, row in enumerate(coarse_rows):
            coarse_value, _ = _reduce(row, coarse)
            est_errors[i] += float(abs(values[i] - coarse_value)) / 15.0
    if vector:
        return QuadratureResult(tuple(values), tuple(est_errors), n_evals)
    return QuadratureResult(values[0], est_errors[0], n_evals)


def fit_log_slope(cutoffs, values):
    """Least-squares fit of ``value = a + b*ln(cutoff)``; returns (b, a, r_squared).

    Diagnostic for log-divergent tails: the individual power flows grow linearly
    in ln(cutoff) while every balance identity stays at zero.
    """
    x = np.log(np.asarray(cutoffs, dtype=float))
    y = np.asarray(values, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least three (cutoff, value) pairs")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared
