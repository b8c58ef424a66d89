"""Machine-precision checks of the fluctuation-dissipation identities.

Three identity suites, each reducing a residual over a frequency grid to a
compact report:

* field FDR: Hadamard kernel == its mode sum (1 + 2 n_B) sin(|kappa| r)/(4 pi r),
  at any separation r;
* the algebraic reduction that collapses the radiation term of the interacting
  Hadamard function, ``G0H(0;kappa) |GR(kappa)|^2 == (m/e^2) coth(beta kappa/2)
  Im GR(kappa)`` (it holds because Im GR = (e^2/m) Im G0R(0) |GR|^2);
* parity and conjugate-reflection symmetries of all kernels on a mirror grid.

Residuals are reported absolutely and relative to the larger of the two
compared magnitudes; points where both magnitudes sit below the absolute
tolerance (kernel nodes) are excluded from the relative maximum to avoid 0/0.

The suites walk the quadrature's pieces of the kappa > 0 half
(``spectral.pieces``), each also negated, so they hold a few arrays of one
piece, whatever the grid size, and never build a grid-length array.  Each
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
from .spectral import pieces

@dataclass
class IdentityReport:
    """Outcome of one identity check on one grid."""

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


def _mirror_parts(grid: FrequencyGrid, residual):
    """``(kappa, *residual(kappa))`` for each piece of the mirror grid, all n points in ascending order.

    ``kappa`` is built from the kappa > 0 points alone: a piece of them
    negated and reversed, or itself.
    """
    runs = pieces(grid.n_points // 2)
    for lo, hi in reversed(runs):
        kap = -grid.positive_slice(lo, hi)[::-1]
        yield kap, *residual(kap)
    for lo, hi in runs:
        kap = grid.positive_slice(lo, hi)
        yield kap, *residual(kap)


def _report(name, grid, parts, rtol, atol) -> IdentityReport:
    """Reduce residual parts to a report.

    ``parts`` yields ``(kappa, abs_res, scale)``, one part at a time: the
    residuals at the points ``kappa``.  The report is that of the parts laid
    end to end in the order they arrive: the first maximum wins a tie, a NaN
    wins over every number, and if every point is skipped the worst kappa is
    that of the largest residual.  Each part leaves only its maxima and their
    kappa.
    """
    n_skipped = 0
    skipped_ok = True
    rel_max, abs_max = [], []  # per part: (kappa, value) of its first maximum
    for kap, abs_res, scale in parts:
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
    passed = bool(max_rel <= rtol and skipped_ok)
    return IdentityReport(
        name=name,
        cutoff=grid.cutoff,
        n_points=grid.n_points,
        max_abs_residual=float(np.max([value for _, value in abs_max])),
        max_rel_residual=float(max_rel),
        worst_kappa=float(worst_kappa),
        passed=passed,
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
    """

    def residual(kap):
        k = np.abs(kap)
        x = bath.beta * k
        n_bose = np.exp(-x) / -np.expm1(-x)
        mode = k / FOUR_PI if r == 0 else np.sin(k * r) / (FOUR_PI * r)
        return _compare(field_hadamard_ft(r, kap, bath), (1.0 + 2.0 * n_bose) * mode)

    return _report(f"field_fdr[r={r:g},{bath.describe()}]", grid, _mirror_parts(grid, residual), rtol, atol)


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
    """

    def residual(kap):
        gr = atom_retarded_ft(kap, p)
        lhs = field_hadamard_ft(0.0, kap, bath) * np.abs(gr) ** 2
        rhs = (p.m / p.e**2) * thermal_factor(kap, bath) * np.imag(gr)
        return _compare(lhs, rhs)

    return _report(f"atom_fdr_reduction[{bath.describe()}]", grid, _mirror_parts(grid, residual), rtol, atol)


def _parity_residuals(gr, gr_mirror, im_u, im_u_mirror, tf, tf_mirror):
    """Yield the five parity residuals and their scales, from kernel samples and their mirror images'."""
    yield np.abs(np.imag(gr) + np.imag(gr_mirror)), np.abs(np.imag(gr))  # Im odd
    yield np.abs(np.real(gr) - np.real(gr_mirror)), np.abs(np.real(gr))  # Re even
    yield np.abs(gr_mirror - np.conj(gr)), np.abs(gr)  # conjugate reflection
    yield np.abs(im_u + im_u_mirror), np.abs(im_u)
    yield np.abs(tf + tf_mirror), np.abs(tf)


def check_parity(
    grid: FrequencyGrid,
    p: AtomParams,
    bath: BathSpec,
    rtol: float,
    atol: float,
) -> IdentityReport:
    """Parity and conjugate-reflection residuals on the mirror grid.

    Checks Im GR odd / Re GR even / GR(-kappa) = conj GR(kappa) for the atom,
    oddness of the field kernel's imaginary part at unit separation, and
    oddness of the thermal factor.  All residuals are exact zeros in floating
    point because mirrored points run through sign-symmetric operations.
    The kernels are sampled once per piece of the kappa > 0 half and once at
    its mirror image, and each of the two samplings is the other's mirror.
    The pieces are visited from the outermost in, and each residual at a
    piece's negated points, in ascending order, before the piece itself: the
    first point visited is the lowest of the grid, as in the other suites.
    """

    def parts():
        for lo, hi in reversed(pieces(grid.n_points // 2)):
            pos = grid.positive_slice(lo, hi)
            neg = -pos
            gr, gr_neg = atom_retarded_ft(pos, p), atom_retarded_ft(neg, p)
            im_u, im_u_neg = field_retarded_im(1.0, pos), field_retarded_im(1.0, neg)
            tf, tf_neg = thermal_factor(pos, bath), thermal_factor(neg, bath)
            at_neg = _parity_residuals(gr_neg, gr, im_u_neg, im_u, tf_neg, tf)
            at_pos = _parity_residuals(gr, gr_neg, im_u, im_u_neg, tf, tf_neg)
            for (res_n, scale_n), (res_p, scale_p) in zip(at_neg, at_pos):
                yield neg[::-1], res_n[::-1], scale_n[::-1]
                yield pos, res_p, scale_p

    return _report(f"parity[{bath.describe()}]", grid, parts(), rtol, atol)
