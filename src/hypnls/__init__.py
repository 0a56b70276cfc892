"""Numerical laboratory for the focusing NLS on hyperbolic space H^n.

Radial geometry, quadrature and the per-grid tables of hypgeom.per_grid
(hypgeom), conserved functionals and virial identities (functionals),
ground-state solver and constrained minimization (groundstate), time
integration with blow-up detection (evolve), H^3 radial Fourier analysis
(spectral), and the experiment CLI (expcli). The package re-exports nothing:
callers import the submodule that owns a name.

The functionals of a field are read from the functionals.DiagnosticsRecord
that compute_diagnostics returns. Radial transforms go through the grid's
memoized spectral.SpectralTransform (get_transform); every spectral quantity
of a field is read from one spectral.FieldSpectrum, which transforms the
field once.
"""

__version__ = "0.1.0"
