"""Numerical laboratory for the focusing NLS on hyperbolic space H^n.

Radial geometry and quadrature (hypgeom), conserved functionals and virial
identities (functionals), ground-state solver and constrained minimization
(groundstate), time integration with blow-up detection (evolve), H^3 radial
Fourier analysis (spectral), and the experiment CLI (expcli).

The functionals of a field (mass, energies, norms, delta_lambda, G, second
moment) are read from the functionals.DiagnosticsRecord that
compute_diagnostics returns; no standalone function forms any one of them.
Radial transforms go through the grid's memoized spectral.SpectralTransform
(get_transform), whose forward and inverse are the only transform pair. Every
spectral quantity of a field is read from one spectral.FieldSpectrum, which
transforms the field once.
"""

from .hypgeom import (
    RadialGrid,
    build_grid,
    quadrature,
    apply_laplacian,
    dirichlet_energy,
    spectrum_bottom,
)
from .functionals import (
    RadialField,
    ParameterMismatch,
    localized_virial_rhs,
    compute_diagnostics,
    trapping_sign_check,
    variational_bound_check,
    quartic_inequality_scan,
    pm_coefficient_positivity,
)
from .groundstate import (
    GroundState,
    NoGroundState,
    ShootingFailure,
    solve_ground_state,
    verify_identities,
    mass_constrained_minimize,
    MassCurvePoint,
)
from .evolve import (
    IntegratorConfig,
    RunOutcome,
    evolve_run,
    virial_consistency,
    scattering_proxy,
)
from .spectral import (
    UnsupportedDimension,
    get_transform,
    FieldSpectrum,
)

__version__ = "0.1.0"

__all__ = [
    "RadialGrid",
    "build_grid",
    "quadrature",
    "apply_laplacian",
    "dirichlet_energy",
    "spectrum_bottom",
    "RadialField",
    "ParameterMismatch",
    "localized_virial_rhs",
    "compute_diagnostics",
    "trapping_sign_check",
    "variational_bound_check",
    "quartic_inequality_scan",
    "pm_coefficient_positivity",
    "GroundState",
    "NoGroundState",
    "ShootingFailure",
    "solve_ground_state",
    "verify_identities",
    "mass_constrained_minimize",
    "MassCurvePoint",
    "IntegratorConfig",
    "RunOutcome",
    "evolve_run",
    "virial_consistency",
    "scattering_proxy",
    "UnsupportedDimension",
    "get_transform",
    "FieldSpectrum",
]
