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


def _report(name, grid, abs_res, scale, rtol, atol) -> IdentityReport:
    """Reduce residuals to a report.

    ``abs_res`` and ``scale`` hold one or more grid-length blocks laid end to
    end; entry i belongs to kappa = grid.values[i % n_points].
    """
    meaningful = scale > atol
    n_skipped = int(np.size(scale) - np.count_nonzero(meaningful))
    if np.any(meaningful):
        rel = abs_res[meaningful] / scale[meaningful]
        imax = int(np.argmax(rel))
        max_rel = float(rel[imax])
        worst_index = int(np.flatnonzero(meaningful)[imax])
    else:
        max_rel = 0.0
        worst_index = int(np.argmax(abs_res))
    skipped_ok = not np.any(abs_res[~meaningful] > atol)
    passed = bool(max_rel <= rtol and skipped_ok)
    return IdentityReport(
        name=name,
        cutoff=grid.cutoff,
        n_points=grid.n_points,
        max_abs_residual=float(np.max(abs_res)),
        max_rel_residual=max_rel,
        worst_kappa=float(grid.values[worst_index % grid.n_points]),
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
    k = np.abs(grid.values)
    x = bath.beta * k
    n_bose = np.exp(-x) / -np.expm1(-x)
    mode = k / FOUR_PI if r == 0 else np.sin(k * r) / (FOUR_PI * r)
    lhs = field_hadamard_ft(r, grid.values, bath)
    rhs = (1.0 + 2.0 * n_bose) * mode
    return _report(f"field_fdr[r={r:g},{bath.describe()}]", grid, *_compare(lhs, rhs), rtol, atol)


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
    kap = grid.values
    gr = atom_retarded_ft(kap, p)
    lhs = field_hadamard_ft(0.0, kap, bath) * np.abs(gr) ** 2
    rhs = (p.m / p.e**2) * thermal_factor(kap, bath) * np.imag(gr)
    return _report(f"atom_fdr_reduction[{bath.describe()}]", grid, *_compare(lhs, rhs), rtol, atol)


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
    """
    kap = grid.values
    gr = atom_retarded_ft(kap, p)
    gr_mirror = gr[::-1]
    im_u = field_retarded_im(1.0, kap)
    tf = thermal_factor(kap, bath)

    residuals = [
        np.abs(np.imag(gr) + np.imag(gr_mirror)),      # Im odd
        np.abs(np.real(gr) - np.real(gr_mirror)),      # Re even
        np.abs(gr_mirror - np.conj(gr)),               # conjugate reflection
        np.abs(im_u + field_retarded_im(1.0, kap[::-1])),
        np.abs(tf + tf[::-1]),
    ]
    scales = [np.abs(np.imag(gr)), np.abs(np.real(gr)), np.abs(gr), np.abs(im_u), np.abs(tf)]
    name = f"parity[{bath.describe()}]"
    return _report(name, grid, np.concatenate(residuals), np.concatenate(scales), rtol, atol)
