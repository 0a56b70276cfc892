"""Radial discretization of hyperbolic space H^n for n = 2, 3.

Everything here lives in geodesic polar coordinates: a radial function f(r)
represents the rotation-invariant function f(d(x, o)) on H^n, and integrals
carry the volume density sinh^{n-1}(r) times the area of the unit sphere.
The grid is cell-centered (nodes at (j + 1/2) dr) so that no node sits on the
coordinate singularity at r = 0, and the Laplace-Beltrami operator is built
in divergence form so that discrete integration by parts is exact: the
quadratic form <-L u, u> equals the discrete Dirichlet energy to roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

SUPPORTED_DIMENSIONS = (2, 3)

# Direct evaluation of W1 = (r cosh r - sinh r) / sinh^3 r and friends lose
# all significant digits as r -> 0; below this radius the Taylor expansions
# are used instead.
SERIES_CUTOFF = 1.0e-3


def spectrum_bottom(n: int) -> float:
    """Bottom (n-1)^2/4 of the L^2 spectrum of -Laplacian on H^n."""
    return (n - 1) ** 2 / 4.0


@dataclass(eq=False)
class RadialGrid:
    """Cell-centered radial grid on H^n with hyperbolic volume weights.

    nodes[j] = (j + 1/2) dr are the cell centers, edges[k] = k dr the cell
    boundaries. vol_weights[j] is the midpoint-rule measure of cell j, so
    sum(f * vol_weights) approximates the integral of f over H^n.
    """

    n: int
    r_max: float
    num_points: int
    dr: float
    nodes: np.ndarray
    edges: np.ndarray
    sphere_area: float        # of S^{n-1}: 2 pi for n = 2, 4 pi for n = 3
    node_density: np.ndarray  # sinh^{n-1} at nodes
    edge_density: np.ndarray  # sinh^{n-1} at edges (edge_density[0] = 0)
    vol_weights: np.ndarray   # sphere_area * node_density * dr


def per_grid(build):
    """Memoize build(grid, *args) on the grid: the one owner of every table
    that depends only on the grid. Tables live in one dict on the grid,
    keyed by (build, args), so a new grid gets its own. Every caller shares
    a table, so each ndarray it holds (a tuple's items, or an object's
    attributes) is made read-only in place."""

    @functools.wraps(build)
    def lookup(grid: RadialGrid, *args):
        key = (build, args)
        try:
            return vars(grid)["_tables"][key]
        except KeyError:
            table = build(grid, *args)
        parts = table if isinstance(table, tuple) else vars(table).values()
        for part in parts:
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        vars(grid).setdefault("_tables", {})[key] = table
        return table

    return lookup


def build_grid(n: int, r_max: float, num_points: int) -> RadialGrid:
    if n not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension n={n}; supported: {SUPPORTED_DIMENSIONS}")
    if not r_max > 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if num_points < 16:
        raise ValueError(f"num_points must be at least 16, got {num_points}")
    r_max = float(r_max)
    dr = r_max / num_points
    nodes = (np.arange(num_points) + 0.5) * dr
    edges = np.arange(num_points + 1) * dr
    area = 2.0 * np.pi if n == 2 else 4.0 * np.pi
    with np.errstate(over="ignore"):  # an overflow is refused below
        node_density = np.sinh(nodes) ** (n - 1)
        edge_density = np.sinh(edges) ** (n - 1)
        vol_weights = area * node_density * dr
    if not all(np.isfinite(a).all() for a in (node_density, edge_density, vol_weights)):
        raise ValueError(f"r_max={r_max} overflows the volume density sinh^{n - 1}(r)")
    return RadialGrid(
        n=n,
        r_max=r_max,
        num_points=num_points,
        dr=dr,
        nodes=nodes,
        edges=edges,
        sphere_area=area,
        node_density=node_density,
        edge_density=edge_density,
        vol_weights=vol_weights,
    )


# ---------------------------------------------------------------------------
# closed-form radial weights
# ---------------------------------------------------------------------------

# Taylor coefficients about r = 0 (even powers) of
#   W1(r) = (r cosh r - sinh r) / sinh^3 r
#   r coth r
# generated symbolically once; relative truncation error below the cutoff
# is ~1e-30.
_W1_SERIES = (1.0 / 3.0, -2.0 / 15.0, 2.0 / 63.0, -4.0 / 675.0, 2.0 / 2079.0)
_RCOTH_SERIES = (1.0, 1.0 / 3.0, -1.0 / 45.0, 2.0 / 945.0, -1.0 / 4725.0)


def w1_weight(r):
    """(r cosh r - sinh r) / sinh^3 r, positive, sup 1/3 at r -> 0+."""
    r = np.asarray(r, dtype=float)
    small = r < SERIES_CUTOFF
    rs = np.where(small, 1.0, r)
    direct = (rs * np.cosh(rs) - np.sinh(rs)) / np.sinh(rs) ** 3
    return np.where(small, polyval(r * r, _W1_SERIES), direct)


def r_coth_r(r):
    """r cosh r / sinh r, equal to 1 at r = 0, asymptotically r."""
    r = np.asarray(r, dtype=float)
    small = r < SERIES_CUTOFF
    rs = np.where(small, 1.0, r)
    direct = rs * np.cosh(rs) / np.sinh(rs)
    return np.where(small, polyval(r * r, _RCOTH_SERIES), direct)


def coth(r):
    """cosh r / sinh r with series handling below the cutoff."""
    r = np.asarray(r, dtype=float)
    small = r < SERIES_CUTOFF
    rs = np.where(small, 1.0, r)
    direct = np.cosh(rs) / np.sinh(rs)
    return np.where(small, polyval(r * r, _RCOTH_SERIES) / np.where(small, r, 1.0), direct)


@per_grid
def cached_weights(grid: RadialGrid):
    """(w1, w2) at the nodes, the closed-form weights of the virial
    identities (hot path of diagnostics): w1 = W1 = (r cosh r - sinh r) /
    sinh^3 r, and w2 = 1 + (n-1) r coth r, the weight multiplying
    |u|^{p+1} in the virial functional. The Laplacian of r^2 is 2 w2 and
    its bi-Laplacian 2(n-1)^2 - 2(n-1)(n-3) W1. Memoized per grid; the
    returned arrays are read-only.
    """
    return w1_weight(grid.nodes), 1.0 + (grid.n - 1) * r_coth_r(grid.nodes)


# ---------------------------------------------------------------------------
# quadrature and the divergence-form Laplacian
# ---------------------------------------------------------------------------

def quadrature(field_values, grid: RadialGrid):
    """Midpoint-rule integral of a per-node sampled function over H^n."""
    values = np.asarray(field_values)
    if values.shape != grid.nodes.shape:
        raise ValueError("field length does not match grid")
    return np.dot(values, grid.vol_weights)


@per_grid
def laplacian_bands(grid: RadialGrid):
    """Sub-, main, and super-diagonal of the divergence-form Laplacian.

    Row j of L is (A_{j+1} D_{j+1} - A_j D_j) / (w_j dr) with edge areas
    A_k = sinh^{n-1}(k dr) and one-sided differences at the boundaries:
    A_0 = 0 encodes the zero-flux symmetry at the origin, and the Dirichlet
    condition at r_max enters through the half-cell flux -2 u_{N-1} / dr.
    L is self-adjoint with respect to the vol_weights inner product.
    Memoized per grid; the returned arrays are read-only.
    """
    h = grid.dr
    w = grid.node_density
    a = grid.edge_density
    n_pts = grid.num_points
    lower = np.zeros(n_pts)
    upper = np.zeros(n_pts)
    diag = np.zeros(n_pts)
    inv = 1.0 / (w * h * h)
    lower[1:] = a[1:n_pts] * inv[1:]
    upper[:-1] = a[1:n_pts] * inv[:-1]
    diag[:-1] = -(a[:n_pts - 1] + a[1:n_pts]) * inv[:-1]
    diag[-1] = -(a[n_pts - 1] + 2.0 * a[n_pts]) * inv[-1]
    return lower, diag, upper


def apply_laplacian(values, grid: RadialGrid, shift: float = 0.0):
    """Apply L + shift, L the radial Laplace-Beltrami operator
    d_r^2 + (n-1) coth(r) d_r."""
    values = np.asarray(values)
    if values.shape != grid.nodes.shape:
        raise ValueError("field length does not match grid")
    lower, diag, upper = laplacian_bands(grid)
    out = (diag + shift) * values
    out[:-1] += upper[:-1] * values[1:]
    out[1:] += lower[1:] * values[:-1]
    return out


def shifted_bands(grid: RadialGrid, extra_diag=0.0, shift: float = 0.0):
    """Sub-, main and super-diagonal (lengths N-1, N, N-1) of
    L + shift + diag(extra_diag), for solve_banded.

    shift is a real scalar; extra_diag is a scalar or a per-node array and
    may be complex. The off-diagonals are read-only views of
    laplacian_bands(grid), and the diagonal is rounded as
    (diag(L) + shift) + extra_diag, so a solve with L + shift uses the same
    floating-point operator as apply_laplacian(values, grid, shift).
    """
    lower, diag, upper = laplacian_bands(grid)
    return lower[1:], diag + shift + extra_diag, upper[:-1]


_GTSV = None  # (dgtsv, zgtsv), loaded by the first solve


def _load_gtsv():
    # scipy.linalg costs about a third of the package's import time, and
    # subcommands that solve no banded system never need it
    global _GTSV
    from scipy.linalg.lapack import dgtsv, zgtsv

    _GTSV = (dgtsv, zgtsv)
    return _GTSV


def solve_banded(dl, d, du, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonal
    (dl, d, du) for rhs by LAPACK gtsv (Gaussian elimination with partial
    pivoting); the solve is complex when any operand is complex.

    The inputs are left unchanged. Raises LinAlgError on an exactly zero
    pivot or a solution that is not finite.
    """
    dgtsv, zgtsv = _GTSV or _load_gtsv()
    gtsv = zgtsv if np.result_type(dl, d, du, rhs).kind == "c" else dgtsv
    _, _, _, x, info = gtsv(dl, d, du, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular tridiagonal matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("tridiagonal solve gave a non-finite solution")
    return x


def dirichlet_energy(values, grid: RadialGrid, edge_weight=None):
    """Discrete integral of |grad u|^2 over H^n, optionally weighted.

    Edge-based differences matched to the divergence-form Laplacian, so that
    <-L u, u>_mu reproduces this value exactly; the last term is the
    half-cell Dirichlet flux at r_max. edge_weight, when given, is sampled
    on grid.edges and multiplies the integrand at each edge.
    """
    values = np.asarray(values)
    if values.shape != grid.nodes.shape:
        raise ValueError("field length does not match grid")
    h = grid.dr
    area = grid.edge_density
    if edge_weight is not None:
        area = area * edge_weight
    diffs = np.abs(values[1:] - values[:-1]) ** 2
    interior = np.dot(area[1:-1], diffs) / h
    boundary = 2.0 * area[-1] * abs(values[-1]) ** 2 / h
    return grid.sphere_area * (interior + boundary)
