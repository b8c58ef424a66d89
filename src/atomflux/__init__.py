"""atomflux: energy budget of a static harmonic atom in a massless scalar field.

Closed-form frequency-domain kernels, machine-precision fluctuation-dissipation
checks, the four-way power balance of the emitted radiation, and a time-domain
stochastic (Langevin) cross-check, all in natural units (hbar = c = k_B = 1).

The Langevin names are resolved on first use, so ``import atomflux`` loads no
scipy subpackage; the time-domain engine imports scipy.signal and scipy.fft.
"""

import importlib

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
from .spectral import QuadratureResult, cutoff_sweep, fit_log_slope, integrate_adaptive, integrate_spectrum
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

_LANGEVIN_NAMES = (
    "EquilibriumStats",
    "NoiseRealization",
    "Trajectory",
    "equilibrium_stats",
    "integrate",
    "predicted_variance",
    "run_ensemble",
    "synthesize_noise",
)


def __getattr__(name):
    if name in _LANGEVIN_NAMES:
        return getattr(importlib.import_module(".langevin", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "AtomParams",
    "BathSpec",
    "EquilibriumStats",
    "FrequencyGrid",
    "HadamardOracleResult",
    "IdentityReport",
    "NoiseRealization",
    "ObservationFrame",
    "PowerBudget",
    "QuadratureResult",
    "Trajectory",
    "atom_hadamard_ft",
    "atom_retarded_ft",
    "check_atom_fdr_reduction",
    "check_field_fdr",
    "check_parity",
    "cutoff_sweep",
    "equilibrium_stats",
    "far_field_flux_integrand",
    "field_hadamard_ft",
    "field_retarded_ft",
    "field_retarded_im",
    "field_retarded_origin",
    "fit_log_slope",
    "integrate",
    "integrate_adaptive",
    "integrate_spectrum",
    "interacting_hadamard_direct",
    "interacting_hadamard_late",
    "power_budget",
    "predicted_variance",
    "run_ensemble",
    "synthesize_noise",
    "thermal_factor",
]
