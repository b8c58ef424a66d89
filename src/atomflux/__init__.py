"""atomflux: energy budget of a static harmonic atom in a massless scalar field.

Closed-form frequency-domain kernels, machine-precision fluctuation-dissipation
checks, and the four-way power balance of the emitted radiation, in natural
units (hbar = c = k_B = 1).  The modules imported here run on numpy alone:
``import atomflux`` loads no scipy module, and neither do the identity
suites, the budget or the brute-force oracle, whose chirp-z transforms run
in ``numpy.fft``.

The time-domain stochastic (Langevin) cross-check is imported as
``atomflux.langevin``; it alone loads scipy (``scipy.signal`` and
``scipy.linalg``).
"""

from .greens import (
    AtomParams,
    BathSpec,
    FrequencyGrid,
    atom_hadamard_ft,
    atom_retarded_ft,
    field_hadamard_ft,
    field_retarded_ft,
    field_retarded_im,
    field_retarded_origin,
    thermal_factor,
)
from .spectral import QuadratureResult, fit_log_slope, integrate_spectrum
from .fdr import IdentityReport, check_atom_fdr_reduction, check_field_fdr, check_parity
from .flux import (
    HadamardOracleResult,
    ObservationFrame,
    PowerBudget,
    far_field_flux_integrand,
    interacting_hadamard_direct,
    interacting_hadamard_late,
    power_budget,
)

__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "BathSpec",
    "FrequencyGrid",
    "HadamardOracleResult",
    "IdentityReport",
    "ObservationFrame",
    "PowerBudget",
    "QuadratureResult",
    "atom_hadamard_ft",
    "atom_retarded_ft",
    "check_atom_fdr_reduction",
    "check_field_fdr",
    "check_parity",
    "far_field_flux_integrand",
    "field_hadamard_ft",
    "field_retarded_ft",
    "field_retarded_im",
    "field_retarded_origin",
    "fit_log_slope",
    "integrate_spectrum",
    "interacting_hadamard_direct",
    "interacting_hadamard_late",
    "power_budget",
    "thermal_factor",
]
