"""Scalar functionals of radial waves on H^n.

compute_diagnostics forms every functional of one field in one record:
mass, energy, the spectrally shifted energy E_lambda and norm H_lambda, the
H and H^1 norms, the distance-to-ground-state gap delta_lambda, the virial
functional G, the second moment and the localized virial at
LOC_VIRIAL_RADIUS. The module also holds the localized virial with weight
h_R = R^2 phi(r/R) at any R, sign/trapping detectors read off a series of
records, and the two closed-form radial inequalities the virial analysis
rests on (quartic_values and pm_coefficient_values).

Conventions. For u radial on H^n:

    M(u)      = int |u|^2 dmu
    E(u)      = 1/2 int |grad u|^2 - 1/(p+1) int |u|^{p+1}
    |u|^2_Hl  = int |grad u|^2 - lambda int |u|^2        (lambda < (n-1)^2/4)
    |u|^2_H   = the lambda = (n-1)^2/4 case
    E_l(u)    = 1/2 |u|^2_Hl - 1/(p+1) int |u|^{p+1}
    G(u)      = 8 |u|^2_H + 2(n-1)(n-3) int |u|^2 W1 dmu
                - 4(p-1)/(p+1) int |u|^{p+1} W2 dmu

with W1 = (r cosh r - sinh r)/sinh^3 r and W2 = 1 + (n-1) r coth r.  G is
the right-hand side of d^2/dt^2 int |u|^2 r^2 dmu along the flow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .hypgeom import (
    RadialGrid,
    cached_weights,
    coth,
    dirichlet_energy,
    per_grid,
    quadrature,
    spectrum_bottom,
)


class ParameterMismatch(ValueError):
    """Field and ground state (or grid) belong to different parameter sets."""


@dataclass(eq=False)
class RadialField:
    """A radial wavefunction sampled at the grid nodes (complex allowed)."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("values length does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


# ---------------------------------------------------------------------------
# localized virial
# ---------------------------------------------------------------------------

# Bridge polynomial on [1, 2] joining s^2 to the constant 41/18 with four
# continuous derivatives at both ends and second derivative capped at 2
# (attained on [0, 1]). Exact rational coefficients, ascending powers.
_BRIDGE_COEFFS = (
    169.0 / 18.0,
    0.0,
    -208.0,
    2240.0 / 3.0,
    -1260.0,
    1232.0,
    -735.0,
    264.0,
    -105.0 / 2.0,
    40.0 / 9.0,
)
_PLATEAU = 41.0 / 18.0


def cutoff_derivative(s, order: int):
    """order-th derivative (0 to 4) of the fixed virial cutoff phi at s >= 0.

    phi = s^2 below 1, the bridge polynomial _BRIDGE_COEFFS on [1, 2] and
    the plateau 41/18 above 2: C^4 at both seams, phi'' <= 2 everywhere.
    """
    s = np.asarray(s, dtype=float)
    out = np.where(s < 1.0, _derivative((0.0, 0.0, 1.0), order)(s),
                   _PLATEAU if order == 0 else 0.0)
    mid = (s >= 1.0) & (s < 2.0)
    if np.any(mid):
        out = np.where(mid, _derivative(_BRIDGE_COEFFS, order)(np.where(mid, s, 1.5)), out)
    return out


@functools.cache
def _derivative(coeffs, order: int):
    # order-th derivative of the polynomial of ascending coeffs, built on first use
    return np.polynomial.Polynomial(coeffs).deriv(order)


@per_grid
def localized_weights(grid: RadialGrid, R: float):
    """(Lap h_R, Lap^2 h_R) at the nodes and phi''(edges / R), h_R = R^2 phi(r/R).

    Inside r <= R the weight is exactly r^2 and the closed-form Laplacian
    weights are used (series-protected near 0); on the bridge R < r < 2R the
    chain-rule expressions in phi derivatives and coth are evaluated
    directly (safe: r >= R >= 1 there); beyond 2R every weight vanishes.
    Memoized per grid and R; the returned arrays are read-only.
    """
    if R < 1.0:
        raise ValueError("cutoff radius R must be >= 1")
    n = grid.n
    r = grid.nodes
    s = r / R

    w1, w2 = cached_weights(grid)
    inside = s <= 1.0
    bridge = (s > 1.0) & (s < 2.0)

    # Lap r^2 = 2 w2 and Lap^2 r^2 = 2(n-1)^2 - 2(n-1)(n-3) W1
    lap_h = np.where(inside, 2.0 * w2, 0.0)
    bilap_h = np.where(inside, 2.0 * (n - 1) ** 2 - 2.0 * (n - 1) * (n - 3) * w1, 0.0)
    if np.any(bridge):
        rb = np.where(bridge, r, 2.0 * R)
        sb = rb / R
        cth = coth(rb)
        csch2 = cth * cth - 1.0
        p1, p2, p3, p4 = (cutoff_derivative(sb, k) for k in (1, 2, 3, 4))
        lap_b = p2 + (n - 1) * cth * R * p1
        bilap_b = (
            p4 / R**2
            + 2.0 * (n - 1) * cth * p3 / R
            + ((n - 1) ** 2 * cth**2 - 2.0 * (n - 1) * csch2) * p2
            + (n - 1) * (3.0 - n) * cth * csch2 * R * p1
        )
        lap_h = np.where(bridge, lap_b, lap_h)
        bilap_h = np.where(bridge, bilap_b, bilap_h)
    return lap_h, bilap_h, cutoff_derivative(grid.edges / R, 2)


def localized_virial_rhs(u: RadialField, R: float, *, p: float) -> float:
    """Right-hand side of the virial identity with weight h_R = R^2 phi(r/R).

    Evaluates int [ 4 |d_r u|^2 h_R'' - |u|^2 Lap^2 h_R
                    - 2 (p-1)/(p+1) |u|^{p+1} Lap h_R ] dmu
    with the fixed cutoff phi of cutoff_derivative and the weights of
    localized_weights(u.grid, R); R must be at least 1.
    """
    usq = np.abs(u.values) ** 2
    up1 = np.abs(u.values) ** (p + 1.0)
    return _localized_virial_from(u, R, p, usq, up1)


def _localized_virial_from(u: RadialField, R: float, p: float, usq, up1) -> float:
    # localized virial from the per-field intermediates |u|^2 and |u|^{p+1}
    grid = u.grid
    lap_h, bilap_h, edge_d2 = localized_weights(grid, R)
    zero_term = float(quadrature(usq * bilap_h, grid))
    nl_term = float(quadrature(up1 * lap_h, grid))
    # gradient term on cell edges, matched to the discrete Dirichlet energy
    grad_term = dirichlet_energy(u.values, grid, edge_weight=edge_d2)
    return 4.0 * grad_term - zero_term - 2.0 * ((p - 1.0) / (p + 1.0)) * nl_term


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

# the radius R of the record's localized virial loc_virial
LOC_VIRIAL_RADIUS = 8.0


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    energy: float
    energy_lambda: float
    hlam_sq: float
    h_sq: float
    lp1: float
    delta_lambda: float
    G_value: float
    second_moment: float
    loc_virial: float
    h1_sq: float

    def row(self):
        return [getattr(self, c) for c in DIAGNOSTICS_COLUMNS]


# the CSV columns of a diagnostics series, in field order
DIAGNOSTICS_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def compute_diagnostics(
    t: float,
    u: RadialField,
    p: float,
    lam: float,
    gs=None,
) -> DiagnosticsRecord:
    """The diagnostics record of u at time t: the one place in the package
    where the functionals of the module docstring are formed.

    |u|^2, |u|^{p+1} and the Dirichlet form are computed once and shared by
    every column. The shift of h_sq and of G is the spectral bottom whatever
    lam is. delta_lambda is hlam_sq - gs.hlam_sq, NaN without gs; a gs on a
    grid of another (n, num_points, r_max) or of another p or lam raises
    ParameterMismatch.
    loc_virial is localized_virial_rhs at R = LOC_VIRIAL_RADIUS, with the
    weights of localized_weights built once per grid and radius.
    """
    grid = u.grid
    params = (grid.n, grid.num_points, grid.r_max)
    if gs is not None and params != (gs.grid.n, gs.grid.num_points, gs.grid.r_max):
        raise ParameterMismatch("field grid does not match")
    if gs is not None and (gs.p, gs.lam) != (p, lam):
        raise ParameterMismatch("ground state is for another p or lambda")
    n = grid.n
    usq = np.abs(u.values) ** 2
    up1 = np.abs(u.values) ** (p + 1.0)
    m = float(quadrature(usq, grid))
    grad = float(dirichlet_energy(u.values, grid))
    lp1 = float(quadrature(up1, grid))
    h_sq = grad - spectrum_bottom(n) * m
    hl = grad - lam * m
    w1, w2 = cached_weights(grid)
    g = 8.0 * h_sq
    if n != 3:
        g += 2.0 * (n - 1) * (n - 3) * float(quadrature(usq * w1, grid))
    g -= (4.0 * (p - 1.0) / (p + 1.0)) * float(quadrature(up1 * w2, grid))
    return DiagnosticsRecord(
        t=t,
        mass=m,
        energy=0.5 * grad - lp1 / (p + 1.0),
        energy_lambda=0.5 * hl - lp1 / (p + 1.0),
        hlam_sq=hl,
        h_sq=h_sq,
        lp1=lp1,
        delta_lambda=hl - gs.hlam_sq if gs is not None else float("nan"),
        G_value=g,
        second_moment=float(quadrature(usq * grid.nodes**2, grid)),
        loc_virial=_localized_virial_from(u, LOC_VIRIAL_RADIUS, p, usq, up1),
        h1_sq=grad + m,
    )


# ---------------------------------------------------------------------------
# trapping detectors
# ---------------------------------------------------------------------------

@dataclass
class TrappingVerdict:
    kind: str  # constant_negative | constant_positive | neutral | violation
    t: Optional[float] = None


def trapping_sign_check(series: Sequence[DiagnosticsRecord]) -> TrappingVerdict:
    """Did delta_lambda keep one strict sign along the run?

    Records with |delta_lambda| below a noise band (1e-8 of the initial
    hlam_sq scale) are treated as sign-neutral so that runs started exactly
    on the ground-state shell do not trip the detector on roundoff; a run
    with every record in the band is neutral.
    """
    if not series:
        raise ValueError("empty diagnostics series")
    scale = max(abs(series[0].hlam_sq), 1.0)
    band = 1e-8 * scale
    sign = 0
    for rec in series:
        d = rec.delta_lambda
        if abs(d) <= band:
            continue
        s = 1 if d > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return TrappingVerdict(kind="violation", t=rec.t)
    kinds = {1: "constant_positive", -1: "constant_negative", 0: "neutral"}
    return TrappingVerdict(kind=kinds[sign])


def variational_bound_check(u: RadialField, gs) -> Optional[float]:
    """Residual of the trapped-regime norm comparison; None if not applicable.

    When E_l(u) <= E_l(Q) and |u|^2_{H_lambda} <= |Q|^2_{H_lambda}, the
    quantity (E_l(u)/E_l(Q)) |Q|^2_{H_lambda} - |u|^2_{H_lambda} must be
    nonnegative; its value is returned. Outside those hypotheses returns
    None. Both functionals of u come from its diagnostics record.
    """
    if gs.elam <= 0:
        raise ValueError("ground state with nonpositive E_lambda is corrupted")
    rec = compute_diagnostics(0.0, u, gs.p, gs.lam, gs=gs)
    if rec.energy_lambda > gs.elam or rec.hlam_sq > gs.hlam_sq:
        return None
    return (rec.energy_lambda / gs.elam) * gs.hlam_sq - rec.hlam_sq


# ---------------------------------------------------------------------------
# closed-form inequality scans
# ---------------------------------------------------------------------------

def _quartic_series(n: int, r: np.ndarray) -> np.ndarray:
    # F(r) = 2(6n-5)/45 r^6 + 2(8n-7)/315 r^8 + 2(10n-9)/4725 r^10
    #        + 8(12n-11)/467775 r^12 + O(r^14); truncation negligible
    # against the 1e-12 acceptance floor for r < 1/4.
    r2 = r * r
    c6 = 2.0 * (6 * n - 5) / 45.0
    c8 = 2.0 * (8 * n - 7) / 315.0
    c10 = 2.0 * (10 * n - 9) / 4725.0
    c12 = 8.0 * (12 * n - 11) / 467775.0
    return r2**3 * polyval(r2, (c6, c8, c10, c12))


def quartic_values(n: int, r_grid) -> np.ndarray:
    """F(r) = (2n-2) r^2 cosh^2 r + n r^2 - (3n-4) r cosh r sinh r - 2 sinh^2 r.

    A difference of exponentially large terms; evaluated in extended
    precision with a series fallback below r = 1/4 where cancellation is
    deepest.
    """
    r = np.asarray(r_grid, dtype=np.longdouble)
    ch = np.cosh(r)
    sh = np.sinh(r)
    direct = (
        (2 * n - 2) * r * r * ch * ch
        + n * r * r
        - (3 * n - 4) * r * ch * sh
        - 2 * sh * sh
    )
    return np.where(
        r < 0.25, _quartic_series(n, np.asarray(r_grid, dtype=float)), direct
    ).astype(float)


def pm_coefficient_values(n: int, p: float, r) -> np.ndarray:
    """The nonlinear-term coefficient of the weighted virial bound at r.

    coefficient(r) = (n-1) (r/sinh r)^2 ((p-1)(n-1) cosh^2 r + 2)
                     + 2 (n-1)(p-4) r coth r + p - 5

    Nonnegative exactly when p >= 1 + 4/n. Its value at the origin is
    n (n (p-1) - 4), so at the border the minimum is an O(r^4) zero there.
    At n = 3 the float 1 + 4/3 rounds to 7/3 - 2.96e-16, where that value
    is -2.66e-15: the -2.6e-15 at r = 1e-4, the minimum on the lattice of
    expcli.inequality_scan, is the true coefficient of the rounded exponent
    (to about 1e-18), not cancellation error, and no series branch can make
    it nonnegative. Callers absorb the rounded
    exponent with a -1e-12 floor.
    """
    r = np.asarray(r, dtype=np.longdouble)
    sh = np.sinh(r)
    ch = np.cosh(r)
    ratio = np.where(r > 0, r / np.where(sh == 0, 1.0, sh), 1.0)
    vals = (
        (n - 1) * ratio * ratio * ((p - 1) * (n - 1) * ch * ch + 2.0)
        + 2.0 * (n - 1) * (p - 4.0) * r * ch / np.where(sh == 0, 1.0, sh)
        + p
        - 5.0
    )
    return vals.astype(float)
