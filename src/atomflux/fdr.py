"""Machine-precision checks of the fluctuation-dissipation identities.

Three identity suites, each reducing a residual over a frequency grid to a
compact report:

* field FDR: Hadamard kernel == its mode sum (1 + 2 n_B) sin(|kappa| r)/(4 pi r),
  at any separation r;
* the algebraic reduction that collapses the radiation term of the interacting
  Hadamard function, ``G0H(0;kappa) |GR(kappa)|^2 == (m/e^2) coth(beta kappa/2)
  Im GR(kappa)`` (it holds because Im GR = (e^2/m) Im G0R(0) |GR|^2);
* parity and conjugate-reflection symmetries of the kernels those identities
  read: each is sampled at kappa > 0 and at -kappa.

Residuals are reported absolutely and relative to the larger of the two
compared magnitudes; points where both magnitudes sit below the absolute
tolerance (kernel nodes) are excluded from the relative maximum to avoid 0/0.

The suites walk the kappa > 0 half in the quadrature's pieces
(``FrequencyGrid.pieces``), in ascending order, so they hold a few arrays of
one piece, whatever the grid size, and never build a grid-length array.  The
field and atom identities are checked at kappa > 0 alone: both sides of each
are even in kappa as long as the kernels keep their parity, and the parity
suite, the only one that samples kappa < 0, checks that they do.  Each
piece's residuals are reduced as they come, with their kappa, and the worst
kappa is that of the first maximum met in the order they are visited.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .greens import (
    FOUR_PI,
    AtomParams,
    BathSpec,
    FrequencyGrid,
    atom_retarded_ft,
    field_hadamard_ft,
    field_retarded_im,
    thermal_factor,
)


@dataclass
class IdentityReport:
    """Outcome of one identity check on one grid.

    ``n_points`` is the grid's, although the residuals are taken at its
    kappa > 0 points; ``worst_kappa`` and ``n_rel_skipped`` are of those points.
    """

    name: str
    cutoff: float
    n_points: int
    max_abs_residual: float
    max_rel_residual: float
    worst_kappa: float
    passed: bool
    rtol: float
    atol: float
    n_rel_skipped: int

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: max_rel={self.max_rel_residual:.3e} "
            f"max_abs={self.max_abs_residual:.3e} worst_kappa={self.worst_kappa:+.6g} "
            f"(n={self.n_points}, cutoff={self.cutoff:g})"
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _compare(lhs, rhs):
    """Absolute residual and comparison scale max(|lhs|, |rhs|) of two samplings."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return np.abs(lhs - rhs), np.maximum(np.abs(lhs), np.abs(rhs))


def _report(name, grid: FrequencyGrid, residuals, rtol, atol) -> IdentityReport:
    """Reduce the residuals at the kappa > 0 points of ``grid`` to a report.

    ``residuals(kappa)`` yields ``(abs_res, scale)`` pairs at the points
    ``kappa`` of one piece of the grid, and the pieces come in ascending
    order.  The report is that of the pairs laid end to end in the order they
    are visited: the first maximum wins a tie, a NaN wins over every number,
    and if every point is skipped the worst kappa is that of the largest
    residual.  Each pair leaves only its maxima and their kappa.
    """
    n_skipped = 0
    skipped_ok = True
    rel_max, abs_max = [], []  # per pair: (kappa, value) of its first maximum
    for _, kap in grid.pieces():
        for abs_res, scale in residuals(kap):
            meaningful = scale > atol
            n_skipped += abs_res.size - int(np.count_nonzero(meaningful))
            skipped_ok = skipped_ok and not np.any(abs_res[~meaningful] > atol)
            i = int(np.argmax(abs_res))
            abs_max.append((kap[i], abs_res[i]))
            if np.any(meaningful):
                rel = abs_res[meaningful] / scale[meaningful]
                j = int(np.argmax(rel))
                rel_max.append((kap[np.flatnonzero(meaningful)[j]], rel[j]))
    # np.argmax picks the first tied maximum, or the first NaN
    if rel_max:
        worst_kappa, max_rel = rel_max[int(np.argmax([value for _, value in rel_max]))]
    else:
        worst_kappa, max_rel = abs_max[int(np.argmax([value for _, value in abs_max]))][0], 0.0
    return IdentityReport(
        name=name,
        cutoff=grid.cutoff,
        n_points=grid.n_points,
        max_abs_residual=float(np.max([value for _, value in abs_max])),
        max_rel_residual=float(max_rel),
        worst_kappa=float(worst_kappa),
        passed=bool(max_rel <= rtol and skipped_ok),
        rtol=rtol,
        atol=atol,
        n_rel_skipped=n_skipped,
    )


def check_field_fdr(
    grid: FrequencyGrid,
    r: float,
    bath: BathSpec,
    rtol: float,
    atol: float,
) -> IdentityReport:
    """Field FDR residual of G0H(r;kappa) against the thermal mode sum.

    Each mode |kappa| contributes (1 + 2 n_B(|kappa|)) sin(|kappa| r)/(4 pi r),
    and |kappa|/(4 pi) at r = 0, with the Bose occupation n_B = 1/(e^{beta
    |kappa|} - 1).  ``field_hadamard_ft`` computes the FDR product
    coth(beta kappa/2) Im G0R(r;kappa) instead, so the two routes share no
    thermal arithmetic.  n_B is written through e^{-beta |kappa|}, which
    underflows to the vacuum's 0 where e^{beta |kappa|} would overflow.
    Both sides are even in kappa, so the residual is taken at kappa > 0.
    """

    def residuals(kap):
        x = bath.beta * kap
        n_bose = np.exp(-x) / -np.expm1(-x)
        mode = kap / FOUR_PI if r == 0 else np.sin(kap * r) / (FOUR_PI * r)
        yield _compare(field_hadamard_ft(r, kap, bath), (1.0 + 2.0 * n_bose) * mode)

    return _report(f"field_fdr[r={r:g},{bath.describe()}]", grid, residuals, rtol, atol)


def check_atom_fdr_reduction(
    grid: FrequencyGrid,
    p: AtomParams,
    bath: BathSpec,
    rtol: float,
    atol: float,
) -> IdentityReport:
    """Residual of the radiation-collapsing identity.

    ``G0H(0;kappa) |GR(kappa)|^2  vs  (m/e^2) coth(beta kappa/2) Im GR(kappa)``.
    Exact algebraically, so the residual is pure rounding; this identity is
    what makes the far-field flux cancel at the integrand level, and any change
    to the kernels must keep it passing before flux results are trusted.
    Both sides are even in kappa, so the residual is taken at kappa > 0.
    """

    def residuals(kap):
        gr = atom_retarded_ft(kap, p)
        lhs = field_hadamard_ft(0.0, kap, bath) * np.abs(gr) ** 2
        rhs = (p.m / p.e**2) * thermal_factor(kap, bath) * np.imag(gr)
        yield _compare(lhs, rhs)

    return _report(f"atom_fdr_reduction[{bath.describe()}]", grid, residuals, rtol, atol)


def check_parity(
    grid: FrequencyGrid,
    p: AtomParams,
    bath: BathSpec,
    rtol: float,
    atol: float,
) -> IdentityReport:
    """Parity and conjugate-reflection residuals of the kernels at kappa > 0 against their mirror images.

    Checks Im GR odd / Re GR even / GR(-kappa) = conj GR(kappa) for the atom,
    oddness of the field kernel's imaginary part at the separation 1/omega
    that ``fdr-check`` also gives the field FDR, and oddness of the thermal
    factor.  (At r = 0 that kernel is kappa/(4 pi), odd by negation.)  These
    are the symmetries that make the field and atom identities even in
    kappa, so those suites check kappa > 0 alone.  All residuals are exact
    zeros in floating point because mirrored points run through
    sign-symmetric operations.  Each piece of the kappa > 0 half is sampled
    once at kappa and once at -kappa, and its five residuals are visited in
    turn, at kappa, before the next piece.
    """
    r = 1.0 / p.omega

    def residuals(kap):
        gr, gr_m = atom_retarded_ft(kap, p), atom_retarded_ft(-kap, p)
        im_u, im_u_m = field_retarded_im(r, kap), field_retarded_im(r, -kap)
        tf, tf_m = thermal_factor(kap, bath), thermal_factor(-kap, bath)
        yield np.abs(np.imag(gr) + np.imag(gr_m)), np.abs(np.imag(gr))  # Im odd
        yield np.abs(np.real(gr) - np.real(gr_m)), np.abs(np.real(gr))  # Re even
        yield np.abs(gr_m - np.conj(gr)), np.abs(gr)  # conjugate reflection
        yield np.abs(im_u + im_u_m), np.abs(im_u)
        yield np.abs(tf + tf_m), np.abs(tf)

    return _report(f"parity[{bath.describe()}]", grid, residuals, rtol, atol)
