"""Radial Fourier analysis on H^3.

For radial u on H^3 the transform pair used here is

    uhat(lambda) = (4 pi / lambda) int_0^inf u(r) sinh(r) sin(lambda r) dr
    u(r) = 1/(2 pi^2 sinh r) int_0^inf uhat(lambda) lambda sin(lambda r) dlambda

so that Parseval holds with the Plancherel density lambda^2 / (2 pi^2):

    int |u|^2 dmu = int_0^inf |uhat(lambda)|^2 lambda^2/(2 pi^2) dlambda.

Both integrals are discretized by the midpoint rule: in r on the
cell-centered grid, in lambda on the N = num_points nodes
lambda_k = (k + 1/2) pi / r_max up to lambda_max = pi / dr. On these nodes
the sine kernel is exactly the DST-IV matrix (scipy.fft.dst, type 4), so
the discrete pair is an exact inverse pair and discrete Parseval holds to
roundoff.

Real fields are transformed as real arrays. Every transform goes through
the grid's memoized SpectralTransform (get_transform), which also holds one
read-only table: the symbols of the frequency projectors P_m,
((lambda^2+rho^2)/m^2) e^{-(lambda^2+rho^2)/m^2}, at every scale of
M_SAMPLES.

FieldSpectrum(u) transforms u once and forms its mass and the P_m u fields
over M_SAMPLES once, keeping sups = sup_r |P_m u| and their log-scale sum;
its methods give the Parseval residual, the spectral Sobolev norm, the
Besov-type norm sup_m m^{s-3/2} |P_m u|_inf, the reconstruction residual of
u - e^Delta u from the P_m u fields, and the refined Sobolev ratio.

Only n = 3 is supported: the analogous H^2 kernel is not elementary and is
deliberately left unimplemented.
"""

from __future__ import annotations

import math
import numpy as np
from scipy.fft import dst

from .hypgeom import RadialGrid, per_grid, quadrature
from .functionals import RadialField

RHO = 1.0                       # (n-1)/2 at n = 3
DENSITY_CONSTANT = 1.0 / (2.0 * math.pi**2)
M_SAMPLES = 2.0 ** (np.arange(21) / 4.0)  # quarter octaves from m = 1 to 32
LOG_STEP = math.log(2.0) / 4.0  # h, the step of M_SAMPLES in s = ln m
# trapezoid weights of 2 int_1^32 (.) dm/m = 2 int_0^{ln 32} (.) ds over M_SAMPLES
RECON_WEIGHTS = np.full(len(M_SAMPLES), 2.0 * LOG_STEP)
RECON_WEIGHTS[[0, -1]] = LOG_STEP


class UnsupportedDimension(ValueError):
    """Raised for n != 3: the H^2 spectral kernel is a documented gap."""


def pm_symbol(x: np.ndarray, m: float) -> np.ndarray:
    return (x / m**2) * np.exp(-x / m**2)


def _heat_and_remainder(x: np.ndarray) -> np.ndarray:
    """e^{-X} plus the symbol of 2 int_1^inf (1/m) P_m dm minus its trapezoid
    sum over M_SAMPLES: the tail beyond m = 32, 1 - e^{-X/32^2}, and the
    Euler-Maclaurin end correction -h^2/12 (f'(ln 32) - f'(0)) of
    f(s) = 2 z e^{-z}, z = X e^{-2s}, f'(s) = -4 z (1 - z) e^{-z}, which
    leaves the rule an O(h^4) error."""
    z_end = x / M_SAMPLES[-1] ** 2
    heat, heat_end = np.exp(-x), np.exp(-z_end)
    fprime_jump = 4.0 * (x * (1.0 - x) * heat - z_end * (1.0 - z_end) * heat_end)
    return heat + 1.0 - heat_end - LOG_STEP**2 / 12.0 * fprime_jump


class SpectralTransform:
    """Exact DST-IV transform pair bound to one radial grid.

    The N = grid.num_points frequency nodes lambda_k = (k + 1/2) dlam, with
    dlam = pi / r_max, are cell-centered on [0, lambda_max], lambda_max =
    pi / dr. On the cell-centered radial nodes r_j = (j + 1/2) dr the sine
    kernel sin(lambda_k r_j) = sin(pi (2k+1)(2j+1) / (4N)) is exactly the
    DST-IV matrix, so both directions are O(N log N) fast transforms. DST-IV
    is its own inverse up to the factor 2N and dlam * dr * N = pi, so the
    discrete round trip and discrete Parseval hold to roundoff.
    """

    def __init__(self, grid: RadialGrid):
        if grid.n != 3:
            raise UnsupportedDimension(
                "radial Fourier analysis is implemented for n = 3 only "
                "(the H^2 kernel is non-elementary; documented gap)"
            )
        self.grid = grid
        self.dlam = math.pi / grid.r_max
        self.lambda_nodes = (np.arange(grid.num_points) + 0.5) * self.dlam
        self.density = DENSITY_CONSTANT * self.lambda_nodes**2
        self.sinh_r = np.sinh(grid.nodes)
        self._fwd_scale = 2.0 * math.pi * grid.dr / self.lambda_nodes
        self._inv_scale = 0.5 * DENSITY_CONSTANT * self.dlam
        # numpy divides a complex array by a real one as a product with the
        # reciprocal; multiplying by it here rounds real spectra the same way
        self._inv_sinh = 1.0 / self.sinh_r
        # the P_m symbols over M_SAMPLES, one row per scale
        x = self.x_symbol()
        self.pm_symbols = np.stack([pm_symbol(x, m) for m in M_SAMPLES])

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self._fwd_scale * dst(self.sinh_r * values, type=4)

    def inverse(self, vhat: np.ndarray) -> np.ndarray:
        """Inverse transform of one spectrum, or row-wise of a (k, N) stack."""
        out = dst(self.lambda_nodes * vhat, type=4, axis=-1)
        return self._inv_scale * out * self._inv_sinh

    def x_symbol(self) -> np.ndarray:
        """lambda^2 + rho^2 on the frequency nodes."""
        return self.lambda_nodes**2 + RHO**2


@per_grid
def get_transform(grid: RadialGrid) -> SpectralTransform:
    """The grid's transform, memoized per grid."""
    return SpectralTransform(grid)


class FieldSpectrum:
    """Every spectral quantity of one field, from one forward transform.

    Formed once: the spectrum uhat and |uhat|^2, the mass int |u|^2 dmu, and,
    from one batched inverse of the P_m u at each scale m of M_SAMPLES, sups,
    sup_r |P_m u|, and pm_integral, their trapezoid sum 2 int_1^32 P_m u dm/m.
    """

    def __init__(self, u: RadialField):
        self.field = u
        self.transform = tr = get_transform(u.grid)
        self.vhat = tr.forward(u.values)
        self.power = np.abs(self.vhat) ** 2
        self.mass = float(quadrature(np.abs(u.values) ** 2, u.grid))
        pm_fields = tr.inverse(tr.pm_symbols * self.vhat)
        self.sups = np.max(np.abs(pm_fields), axis=1)
        self.pm_integral = RECON_WEIGHTS @ pm_fields

    def parseval_residual(self) -> float:
        tr = self.transform
        spec_mass = float(np.sum(self.power * tr.density) * tr.dlam)
        return abs(self.mass - spec_mass) / self.mass

    def hs_norm(self, s: float) -> float:
        """Spectral Sobolev norm: (int (lambda^2+rho^2)^s |uhat|^2 density)^(1/2)."""
        tr = self.transform
        val = np.sum(tr.x_symbol() ** s * self.power * tr.density) * tr.dlam
        return math.sqrt(float(val))

    def besov_norm(self, s: float) -> float:
        """max over the scales M_SAMPLES of m^{s-3/2} sup_r |P_m u| (a lower
        bound for the sup over all m >= 1)."""
        if not 0 < s <= 1.5:
            raise ValueError("regularity s must lie in (0, 3/2]")
        return float(np.max(M_SAMPLES ** (s - 1.5) * self.sups))

    def reconstruction_residual(self) -> float:
        """Relative L^2 gap in 2 int_1^inf (1/m) P_m u dm = u - e^Delta u. The
        integral is pm_integral, built from the pm_symbols rows, plus the
        closed-form remainder of the log-scale rule, so the residual measures
        the rows and the rule, whose error is O(h^4), h = ln 2 / 4."""
        tr, u = self.transform, self.field
        target = u.values - tr.inverse(_heat_and_remainder(tr.x_symbol()) * self.vhat)
        num = float(quadrature(np.abs(self.pm_integral - target) ** 2, u.grid))
        return math.sqrt(num / self.mass)

    def refined_sobolev_ratio(self, s: float) -> float:
        """|u|_{L^alpha} / (|u|_{H^s}^{2/alpha} |u|_{B^s}^{1-2/alpha}),
        1/alpha = 1/2 - s/3."""
        if not 0 < s < 1.5:
            raise ValueError("regularity s must lie in (0, 3/2)")
        alpha = 6.0 / (3.0 - 2.0 * s)
        u = self.field
        lal = float(quadrature(np.abs(u.values) ** alpha, u.grid)) ** (1.0 / alpha)
        hs = self.hs_norm(s)
        bs = self.besov_norm(s)
        return lal / (hs ** (2.0 / alpha) * bs ** (1.0 - 2.0 / alpha))


def bump_family(grid: RadialGrid):
    """The 30-field test family: 27 off-center bumps (radius x width x
    amplitude) plus 3 centered Gaussians."""
    fields = []
    for r0 in (0.5, 2.0, 8.0):
        for w in (0.2, 1.0, 3.0):
            for amp in (0.1, 1.0, 10.0):
                fields.append(
                    RadialField(
                        grid=grid,
                        values=amp * np.exp(-((grid.nodes - r0) / w) ** 2),
                    )
                )
    for w in (0.5, 1.0, 2.0):
        fields.append(
            RadialField(grid=grid, values=np.exp(-((grid.nodes / w) ** 2)))
        )
    return fields
