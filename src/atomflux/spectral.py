"""Deterministic quadrature for frequency integrals of even spectra over a cutoff window.

``integrate_spectrum`` evaluates ``(1/2 pi) \\int_{-L}^{L} f(kappa) dkappa`` for an
integrand even in kappa as ``(1/pi) \\int_0^L f(kappa) dkappa``, with a
fourth-order end-corrected midpoint rule on [0, L]: the integrand is sampled
at the kappa > 0 midpoints of the grid alone, the samples are end-corrected
at L, and their sum is weighted by h/pi.  Integrands are real; a complex one
raises.

The grid is walked in the runs of its kappa > 0 points that
``FrequencyGrid.pieces`` yields, so memory is bounded by a piece whatever the
grid size, and the integrand is called once per piece.  Each piece is
reduced as soon as it is evaluated: its weighted terms go through a few
vectorized error-free extraction passes that leave exact partial sums, and
the ``np.sum`` of the terms' magnitudes is kept.  Per row, ``math.fsum``
rounds the partials of all pieces once, so the value is the exactly rounded
sum of the terms, the bits of ``math.fsum`` over them; the pieces' magnitude
sums are added in order.  Results are run-to-run
and worker-count deterministic.  An integrand may return several rows at
once; each row is reduced exactly as if it had been integrated on its own, so
one pass over shared kernel samples feeds several integrals.
``fit_log_slope`` is the log-divergence diagnostic for integrals taken over a
sequence of cutoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .greens import FrequencyGrid

# Fourth-order end correction (h^2/24)*f' with f' from a cubic fit through the
# outermost four midpoints, at kappa = cutoff.
_EDGE_CORRECTIONS = (71.0 / 576.0, -141.0 / 576.0, 93.0 / 576.0, -23.0 / 576.0)

_ERROR_FLOOR_ULPS = 16.0

# error-free extraction passes before the leftovers go to fsum; below the
# floor eps*sigma could leave the normal range
_EXTRACTION_PASSES = 6
_EXTRACTION_FLOOR = 2.0**-969


class IntegrandError(ValueError):
    """Raised when an integrand returns a complex or non-finite value or an array of the wrong shape."""


@dataclass(frozen=True)
class QuadratureResult:
    """One integral, or per-row tuples of them for a vector-valued integrand.

    ``n_evals`` counts the kappa > 0 points handed to the integrand on the
    grid and on its half grid, whatever the number of rows it returned.
    """

    value: float | tuple
    est_error: float | tuple
    n_evals: int


def _evaluate(f, lo: int, kappa: np.ndarray) -> np.ndarray:
    """Samples of ``f`` at ``kappa``, the kappa > 0 points of a grid from index ``lo`` on.

    The shape is ``(m,)``, or ``(k, m)`` for k rows, with m = kappa.size.  A
    complex sample raises, and a non-finite one is named by its kappa and its
    index among the kappa > 0 points.
    """
    vals = np.asarray(f(kappa))
    if vals.ndim not in (1, 2) or vals.shape[-1] != kappa.size:
        raise IntegrandError(
            f"integrand returned shape {vals.shape} for {kappa.size} kappa values; "
            f"expected ({kappa.size},) or (rows, {kappa.size})"
        )
    if np.iscomplexobj(vals):
        raise IntegrandError(
            f"integrand returned {vals.dtype} samples; integrate a real function that is "
            f"even in kappa, such as S(kappa) * cos(kappa * t) for S(kappa) * exp(-1j * kappa * t)"
        )
    if not np.all(np.isfinite(vals)):
        row, bad = divmod(int(np.flatnonzero(~np.isfinite(vals))[0]), kappa.size)
        where = f" in row {row}" if vals.ndim == 2 else ""
        raise IntegrandError(
            f"integrand is non-finite{where} at kappa={float(kappa[bad])!r} "
            f"(index {lo + bad} of the kappa > 0 half)"
        )
    return vals


def _partials(p: np.ndarray, top: float, scratch: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is the sum of ``p``, few of them; overwrites p and scratch.

    ``top`` is max|p| and ``scratch`` a float array of p's length.  Each pass
    is Rump, Ogita and Oishi's error-free extraction ("Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008): with M = ceil(log2(n + 2)) and
    sigma = 2^(M + e), where 2^e > top, q = (sigma + p) - sigma holds multiples
    of eps*sigma no larger than 2^e, so ``q.sum()`` is exact in any order, and
    p - q is exact and below eps*sigma.  The partial sums and the nonzero
    leftovers then hold the exact sum, which ``math.fsum`` rounds correctly
    once.  Where the premises fail, the terms themselves are returned, so
    ``fsum`` sees them whole: non-finite tops, tops within 53 bits of the
    subnormal range, and sigma past 2^1023, where ``fsum`` raises its own
    OverflowError.  A zero top returns one zero of each sign p holds, which is
    all ``fsum`` reads of them.
    """
    if top == 0.0:
        return p[np.unique(np.signbit(p), return_index=True)[1]]
    m = (p.size + 1).bit_length()
    if not _EXTRACTION_FLOOR <= top < math.inf or math.frexp(top)[1] + m > 1023:
        return np.array(p)
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
    return np.concatenate((partials, leftovers))


def _fsum(parts: list) -> float:
    return math.fsum(memoryview(np.concatenate(parts)))


def _reduce(f, grid: FrequencyGrid):
    """Each row's end-corrected sum with the h/pi measure of [0, cutoff], piece by piece.

    Returns ``(vector, rows)``: whether ``f`` returned a ``(k, m)`` array, and
    per row ``(value, abs_scale)``.  The terms are a float64 copy of the
    samples with the four next to the cutoff end-corrected.  Each row's terms
    are summed exactly rounded, the bits of ``math.fsum`` over them (rows
    whose terms come within 2^M of overflow may raise OverflowError, as
    ``fsum`` does); ``abs_scale`` is the in-order sum of each piece's
    ``np.sum`` of their magnitudes.  A piece of a row contributes its
    extraction partials, a few floats, unless its terms are non-finite,
    near-subnormal or near-overflowing.
    """
    shape = None  # the leading shape of the first piece's samples
    for lo, kappa in grid.pieces():
        vals = _evaluate(f, lo, kappa)
        terms = np.atleast_2d(vals).astype(float)
        if shape is None:
            shape = vals.shape[:-1]
            parts = [[] for _ in terms]  # per row: the partials of each piece
            abs_sums = np.zeros(len(terms))
        elif vals.shape[:-1] != shape:
            raise IntegrandError(
                f"integrand returned shape {vals.shape} for {vals.shape[-1]} kappa values "
                f"after leading shape {shape} on another piece of the grid"
            )
        if lo + kappa.size == grid.n_points // 2:
            # 1.0 * x == x, so weighting only the four edge terms keeps every bit
            terms[:, -4:] *= np.array([1.0 + c for c in _EDGE_CORRECTIONS[::-1]])
        scratch = np.empty(kappa.size)
        for i, (row, row_parts) in enumerate(zip(terms, parts)):
            abs_sums[i] += np.sum(np.abs(row, out=scratch))
            row_parts.append(_partials(row, float(scratch.max()), scratch))
    h = grid.spacing
    rows = [(_fsum(p) * h / math.pi, float(a) * h / math.pi) for p, a in zip(parts, abs_sums)]
    return len(shape) == 1, rows


def integrate_spectrum(f, grid: FrequencyGrid) -> QuadratureResult:
    """Integrate an even ``f`` over (-cutoff, cutoff) with the 1/(2 pi) measure applied.

    The result is ``(1/pi) \\int_0^cutoff f(kappa) dkappa``, from samples of
    ``f`` at kappa > 0 alone and the h/pi rule of [0, cutoff].  ``f`` must
    vectorize and return real samples.  It is called once per piece of the
    grid, with the ndarray of the m kappa values of that piece, and returns
    an ``(m,)`` array, or a ``(k, m)`` array for k rows, which gets per-row
    tuples of ``value`` and ``est_error``, each bitwise equal to integrating
    that row alone.  Integer and boolean samples integrate as their float
    values.  ``f`` gets the pieces of the grid (``FrequencyGrid.pieces``) in
    ascending order, then those of its half grid.  Any other shape, or a
    shape other than the first piece's, or complex samples raise
    ``IntegrandError``, and an exception raised by ``f`` propagates.
    ``est_error`` comes from a Richardson comparison against the
    half-resolution grid, floored at a few ulps of the absolute term sum.
    On the half grid ``f`` may return only the leading rows of its full-grid
    result, for rows whose ``est_error`` nobody reads: each row it leaves out
    gets the ulp floor alone.  More rows there than on the full grid raise
    ``IntegrandError``.
    """
    vector, fine = _reduce(f, grid)
    ulps = _ERROR_FLOOR_ULPS * float(np.finfo(float).eps)
    values = [value for value, _ in fine]
    est_errors = [ulps * abs_scale for _, abs_scale in fine]
    n_evals = grid.n_points // 2
    coarse = grid.halved()
    if coarse is not None:
        _, coarse_rows = _reduce(f, coarse)
        if len(coarse_rows) > len(values):
            raise IntegrandError(
                f"integrand returned {len(coarse_rows)} rows on the half grid "
                f"but {len(values)} on the full grid"
            )
        n_evals += coarse.n_points // 2
        for i, (coarse_value, _) in enumerate(coarse_rows):
            est_errors[i] += abs(values[i] - coarse_value) / 15.0
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
