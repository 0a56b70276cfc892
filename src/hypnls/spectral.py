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

The density constant is analytic; calibrate_density_constant recovers it
numerically from a reference Gaussian as an independent check. Spectral
multipliers implemented on top: the heat semigroup e^{-t(lambda^2 + rho^2)},
the frequency projectors P_m with symbol ((lambda^2+rho^2)/m^2)
e^{-(lambda^2+rho^2)/m^2}, the Besov-type norm sup_m m^{s-3/2} |P_m u|_inf,
and the refined Sobolev ratio built from all three.

Only n = 3 is supported: the analogous H^2 kernel is not elementary and is
deliberately left unimplemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np
from scipy.fft import dst

from .hypgeom import RadialGrid, quadrature
from .functionals import RadialField

RHO = 1.0                       # (n-1)/2 at n = 3
DENSITY_CONSTANT = 1.0 / (2.0 * math.pi**2)


class UnsupportedDimension(ValueError):
    """Raised for n != 3: the H^2 spectral kernel is a documented gap."""


@dataclass(eq=False)
class SpectralProfile:
    lambda_nodes: np.ndarray
    values: np.ndarray
    plancherel_density: np.ndarray
    rho: float = RHO


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

    def forward(self, values: np.ndarray) -> np.ndarray:
        return self._fwd_scale * dst(self.sinh_r * values, type=4)

    def inverse(self, vhat: np.ndarray) -> np.ndarray:
        """Inverse transform of one spectrum, or row-wise of a (k, N) stack."""
        out = dst(self.lambda_nodes * vhat, type=4, axis=-1)
        return self._inv_scale * out / self.sinh_r

    def x_symbol(self) -> np.ndarray:
        """lambda^2 + rho^2 on the frequency nodes."""
        return self.lambda_nodes**2 + RHO**2


def get_transform(grid: RadialGrid) -> SpectralTransform:
    """The grid's transform, memoized on the grid object."""
    tr = getattr(grid, "_spectral_transform", None)
    if tr is None:
        tr = SpectralTransform(grid)
        grid._spectral_transform = tr
    return tr


def radial_fourier(u: RadialField) -> SpectralProfile:
    tr = get_transform(u.grid)
    return SpectralProfile(
        lambda_nodes=tr.lambda_nodes,
        values=tr.forward(np.asarray(u.values, dtype=complex)),
        plancherel_density=tr.density.copy(),
    )


def inverse_fourier(profile: SpectralProfile, grid: RadialGrid) -> RadialField:
    tr = get_transform(grid)
    if not np.array_equal(profile.lambda_nodes, tr.lambda_nodes):
        raise ValueError("profile frequency nodes do not match the target grid's")
    return RadialField(grid=grid, values=tr.inverse(profile.values))


def parseval_residual(u: RadialField) -> float:
    tr = get_transform(u.grid)
    vhat = tr.forward(np.asarray(u.values, dtype=complex))
    spec_mass = float(np.sum(np.abs(vhat) ** 2 * tr.density) * tr.dlam)
    m = float(quadrature(np.abs(u.values) ** 2, u.grid))
    return abs(m - spec_mass) / m


def calibrate_density_constant(grid: RadialGrid) -> float:
    """Recover the Plancherel constant from Parseval on a reference Gaussian.

    Returns c such that density = c * lambda^2 makes Parseval exact for
    u = e^{-r^2}; agrees with the analytic 1/(2 pi^2) to quadrature error.
    """
    tr = get_transform(grid)
    values = np.exp(-grid.nodes**2)
    vhat = tr.forward(values.astype(complex))
    m = float(quadrature(values**2, grid))
    raw = float(np.sum(np.abs(vhat) ** 2 * tr.lambda_nodes**2) * tr.dlam)
    return m / raw


def _apply_multiplier(u: RadialField, mult: np.ndarray) -> RadialField:
    tr = get_transform(u.grid)
    vhat = tr.forward(np.asarray(u.values, dtype=complex))
    out = tr.inverse(mult * vhat)
    if np.all(np.isreal(u.values)):
        out = out.real.astype(complex)
    return RadialField(grid=u.grid, values=out)


def pm_symbol(x: np.ndarray, m: float) -> np.ndarray:
    return (x / m**2) * np.exp(-x / m**2)


def apply_Pm(u: RadialField, m: float) -> RadialField:
    """Frequency projector at scale m >= 1 (heat-regularized Laplacian)."""
    if m <= 0:
        raise ValueError("projector scale m must be positive")
    tr = get_transform(u.grid)
    return _apply_multiplier(u, pm_symbol(tr.x_symbol(), m))


def heat_semigroup(u: RadialField, t: float) -> RadialField:
    if t < 0:
        raise ValueError("diffusion time must be nonnegative")
    tr = get_transform(u.grid)
    return _apply_multiplier(u, np.exp(-t * tr.x_symbol()))


def hs_norm(u: RadialField, s: float) -> float:
    """Spectral Sobolev norm: (int (lambda^2+rho^2)^s |uhat|^2 density)^(1/2)."""
    tr = get_transform(u.grid)
    vhat = tr.forward(np.asarray(u.values, dtype=complex))
    val = np.sum(tr.x_symbol() ** s * np.abs(vhat) ** 2 * tr.density) * tr.dlam
    return math.sqrt(float(val))


def default_m_samples(m_max: float = 32.0):
    count = int(round(4 * math.log2(m_max))) + 1
    return 2.0 ** (np.arange(count) / 4.0)


def pm_sup_profile(u: RadialField, m_samples=None) -> np.ndarray:
    """sup_r |P_m u| for each sampled scale m, batched over the scales."""
    if m_samples is None:
        m_samples = default_m_samples()
    m_arr = np.asarray(m_samples, dtype=float)
    tr = get_transform(u.grid)
    vhat = tr.forward(np.asarray(u.values, dtype=complex))
    x = tr.x_symbol()
    symbols = np.stack([pm_symbol(x, m) for m in m_arr])
    pm_u = tr.inverse(symbols * vhat)
    return np.max(np.abs(pm_u), axis=1)


def besov_norm(u: RadialField, s: float, m_samples=None) -> float:
    """max over sampled m >= 1 of m^{s-3/2} sup_r |P_m u| (a lower bound
    for the sup over all m)."""
    if not 0 < s <= 1.5:
        raise ValueError("regularity s must lie in (0, 3/2]")
    if m_samples is None:
        m_samples = default_m_samples()
    m_arr = np.asarray(m_samples, dtype=float)
    sups = pm_sup_profile(u, m_arr)
    return float(np.max(m_arr ** (s - 1.5) * sups))


def reconstruction_residual(u: RadialField, m_max: float = None) -> float:
    """Relative L^2 gap in 2 int_1^inf (1/m) P_m u dm = u - e^Delta u.

    The m-integral is evaluated in the substituted variable sigma = 1/m^2
    (where the integrand is X e^{-X sigma}) by composite Gauss-Legendre on
    dyadic panels, so the full infinite range is covered; a finite m_max
    truncates the range for sensitivity studies.
    """
    tr = get_transform(u.grid)
    x = tr.x_symbol()
    sigma_hi = 1.0
    sigma_lo = 0.0 if m_max is None else 1.0 / m_max**2
    nodes, weights = np.polynomial.legendre.leggauss(8)
    mult = np.zeros_like(x)
    hi = sigma_hi
    floor = max(sigma_lo, 2.0**-30)
    while hi > floor:
        lo = max(hi / 2.0, sigma_lo)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for z, w in zip(nodes, weights):
            sig = mid + half * z
            mult += (w * half) * x * np.exp(-x * sig)
        hi = lo
    if sigma_lo == 0.0:
        # closing panel [0, floor]: integrand ~ X there, exactly integrable
        mid, half = 0.5 * floor, 0.5 * floor
        for z, w in zip(nodes, weights):
            sig = mid + half * z
            mult += (w * half) * x * np.exp(-x * sig)

    vhat = tr.forward(np.asarray(u.values, dtype=complex))
    recon = tr.inverse(mult * vhat)
    target = np.asarray(u.values, dtype=complex) - tr.inverse(np.exp(-x) * vhat)
    num = float(quadrature(np.abs(recon - target) ** 2, u.grid))
    den = float(quadrature(np.abs(u.values) ** 2, u.grid))
    return math.sqrt(num / den)


def refined_sobolev_ratio(u: RadialField, s: float) -> float:
    """|u|_{L^alpha} / (|u|_{H^s}^{2/alpha} |u|_{B^s}^{1-2/alpha}),
    1/alpha = 1/2 - s/3."""
    if not 0 < s < 1.5:
        raise ValueError("regularity s must lie in (0, 3/2)")
    alpha = 6.0 / (3.0 - 2.0 * s)
    lal = float(quadrature(np.abs(u.values) ** alpha, u.grid)) ** (1.0 / alpha)
    hs = hs_norm(u, s)
    bs = besov_norm(u, s)
    return lal / (hs ** (2.0 / alpha) * bs ** (1.0 - 2.0 / alpha))


def pm_sup_ratio(u: RadialField, s: float, m: float) -> float:
    """sup_r |P_m u| divided by (1/m^2 + m^{3/2-s}) e^{-rho^2/m^2} |u|_{H^s}.

    The maximum of this ratio over a family of fields and scales is the
    fitted constant of the projector sup-bound.
    """
    pm_u = apply_Pm(u, m)
    bound = (1.0 / m**2 + m ** (1.5 - s)) * math.exp(-(RHO**2) / m**2) * hs_norm(u, s)
    return float(np.max(np.abs(pm_u.values))) / bound


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
                        values=amp * np.exp(-((grid.nodes - r0) / w) ** 2) + 0j,
                    )
                )
    for w in (0.5, 1.0, 2.0):
        fields.append(
            RadialField(grid=grid, values=np.exp(-((grid.nodes / w) ** 2)) + 0j)
        )
    return fields
