"""Ground states Q of -(Laplacian)Q - lambda Q = Q^p on H^n, and the
mass-constrained minimization curve e(alpha), read off the branch
lambda -> Q_lambda.

The profile is found by shooting on the radial ODE

    Q'' + (n-1) coth(r) Q' + lambda Q + Q^p = 0,   Q'(0) = 0,

bisecting the initial amplitude between trajectories that cross zero
(amplitude too large) and trajectories that fail to decay to zero (too
small). Each shot ends at one of five events: 'crossed' (Q hit zero),
'turned' (Q rose), 'falling' or 'rising' (certificates that Q will or
cannot cross before r_max) or 'none' (r_max reached); 'crossed' and
'falling' mean too large. The certificates are two bounds on
w = sinh^k(r) Q, k = (n-1)/2, at the last node, from the state at the
current one: with c = sqrt(k^2 - lambda) and z = w' + c w, z' <= c z while
w > 0, and z' >= c z - M w(r) while w and Q fall, M fixed by the state at
r; integrating twice bounds w at the last node from above and from below
by the state at r alone (see _integrate). The bisection's shots stop at a
certificate; the one recorded shot at the bisected amplitude runs on to
its crossing, turn or r_max. The sampled trajectory is then polished by
Newton iteration on the *discrete* stationary system L Q + lambda Q + Q^p = 0
built from the divergence-form Laplacian, so the integral identities used as
certificates hold at solver tolerance rather than discretization tolerance.
The mass curve continues Q_0 along that branch in its mass by the same
Newton solve with a mass row (see mass_constrained_minimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hypgeom import (
    RadialGrid,
    apply_laplacian,
    coth,
    laplacian_bands,
    per_grid,
    shifted_bands,
    solve_banded,
    spectrum_bottom,
)
from . import functionals as fn


class NoGroundState(ValueError):
    """lambda at or above the spectral bottom: no positive H^1 solution."""


class ShootingFailure(RuntimeError):
    """No undershoot/overshoot bracket inside the amplitude search range, a
    Newton polish of the shot profile that does not converge, or a mass-curve
    continuation that starts off the minimizing branch or stalls on it."""


AMPLITUDE_RANGE = (1e-6, 1e6)
MATCH_LEVEL = 1e-9       # extend by the linear far field below this fraction of q0
TAIL_SPLICE_LEVEL = 1e-13  # below this fraction of q0 keep the analytic tail

# mass-curve continuation in log mass: the first step, and the step below
# which a stalled continuation is a solver failure
BRANCH_STEP, BRANCH_STEP_FLOOR = 0.2, 1e-3


def _admissible(n: int, p: float):
    if n == 3 and not (1.0 < p < 5.0):
        raise ValueError(f"n=3 requires 1 < p < 5, got p={p}")
    if n == 2 and not p > 1.0:
        raise ValueError(f"n=2 requires p > 1, got p={p}")


def far_field_rate(n: int, lam: float) -> float:
    """Decay exponent of the ground state: rho + sqrt(rho^2 - lambda)."""
    rho = (n - 1) / 2.0
    return rho + math.sqrt(rho * rho - lam)


# ---------------------------------------------------------------------------
# shooting integrator
# ---------------------------------------------------------------------------

def _series_start(n: int, p: float, lam: float, a: float, r0: float):
    # regular expansion at the origin: Q = a + b r^2 + c r^4 + O(r^6)
    b = -(lam * a + a**p) / (2.0 * n)
    c = -b * (2.0 * (n - 1) / 3.0 + lam + p * a ** (p - 1.0)) / (4.0 * (n + 2.0))
    q = a + b * r0 * r0 + c * r0**4
    dq = 2.0 * b * r0 + 4.0 * c * r0**3
    return q, dq


def _integrate(p, lam, a, grid: RadialGrid, record=False):
    """March the (Q, Q') system across the cell centers with fixed-step RK4.

    Returns (event, stop_index, profile). The event is one of
    'crossed' (Q hit zero), 'turned' (Q' > 0 with Q > 0, or Q above twice
    max(a, 1)), 'falling' (a shot certain to cross before the last node),
    'rising' (a shot that cannot cross before it turns or reaches r_max) or
    'none' (reached r_max still positive and decreasing). Only a shot with
    record=False stops at 'falling' or 'rising'; the recorded shot runs on
    to its crossing, turn or r_max, and only it fills the profile.

    The two verdicts bound w = sinh^k(r) Q, k = (n-1)/2, at the last node
    r_last from the state at the node r a step ends on. w solves
    w'' = (V - lambda - Q^{p-1}) w with V = k^2 + k(k-1)/sinh^2 r, which is
    constant for n = 3 and rises to 1/4 for n = 2, so V - lambda <= c^2 with
    c = sqrt(k^2 - lambda). z = w' + c w then solves
    z' = c z - (k^2 - V + Q^{p-1}) w. Write y = Q' + (k coth r + c) Q, which
    is z / sinh^k(r), and E(t) = expm1(2c (t - r)).

    - While w > 0, z' <= c z. Integrating z and then w from r to t gives
      2c e^{c(t-r)} w(t) <= sinh^k(r) (2c Q + y E(t)). So once
      2c Q + y E(r_last) < 0, w reaches zero before r_last: 'falling'.
    - While w and Q fall, z' >= c z - M w(r), with M = Q^{p-1} + k^2 - V(r)
      at r, and in the same way
      2c e^{c(t-r)} w(t) >= sinh^k(r) (2c Q + (y - M Q / c) E(t)). The bound
      is linear in E(t), which rises from 0, so when it is positive at
      r_last it is positive on all of [r, r_last]. If also
      Q^{p-1} < V - lambda, that stays so while Q falls, so w is convex
      and rises once it stops falling. Q then cannot cross before it turns
      or reaches r_max: 'rising'. Where w' >= 0 (y >= c Q) the bound holds
      by itself, because c^2 - M = V - lambda - Q^{p-1} > 0.

    The verdicts read the exact trajectory through the node's state, which
    the RK4 trajectory follows to its local error. On the grids tested
    with c dr below 0.09 they classify every bisection shot as the full
    RK4 shot does, so q0 and the profile do not change. For n = 3 with
    c dr near 0.1 or more (lambda <= -100 at dr = 0.01), the local error
    in z can exceed z next to the separatrix, and q0 can move by a few
    1e-11 of itself, far inside its discretization error there.
    Only a shot with y < 0 can be 'falling', and only one with
    Q^{p-1} < c^2 'rising', so the bounds are formed only past those two
    cheap tests.
    """
    n = grid.n
    h = grid.dr
    n_pts = grid.num_points
    damping = _damping_lattice(grid)
    potential = _potential_lattice(grid)
    q, dq = _series_start(n, p, lam, a, 0.5 * h)
    prof = np.empty(n_pts) if record else None
    if record:
        prof[0] = q

    kk = spectrum_bottom(n)  # k^2
    c = math.sqrt(kk - lam)
    two_c = 2.0 * c
    two_c_h = two_c * h
    pm1 = p - 1.0
    # Q^{p-1} < c^2 below q_tail = c^{2/(p-1)}, capped short of overflow
    q_tail = math.exp(min(2.0 * math.log(c) / pm1, 709.0))
    expm1 = math.expm1

    # the right-hand side (Q', -((n-1) coth(r) Q' + lambda Q + |Q|^{p-1} Q))
    # is written out per stage, with the coefficients (n-1) coth(r) read off
    # the half-cell lattice; the expressions keep the operand order of the
    # plain four-call form, so the trajectory is the same to the last bit
    half = 0.5 * h
    sixth = h / 6.0
    cap = 2.0 * max(a, 1.0)
    # step j runs from the node (j + 1/2) h, lattice entry 2j, to the next
    c_end = damping[0]
    for j in range(n_pts - 1):
        base = 2 * j
        c_start = c_end
        c_mid = damping[base + 1]
        c_end = damping[base + 2]
        try:
            nl = q**p if q >= 0.0 else -((-q) ** p)
            k1p = -(c_start * dq + lam * q + nl)
            q2 = q + half * dq
            p2 = dq + half * k1p
            nl = q2**p if q2 >= 0.0 else -((-q2) ** p)
            k2p = -(c_mid * p2 + lam * q2 + nl)
            q3 = q + half * p2
            p3 = dq + half * k2p
            nl = q3**p if q3 >= 0.0 else -((-q3) ** p)
            k3p = -(c_mid * p3 + lam * q3 + nl)
            q4 = q + h * p3
            p4 = dq + h * k3p
            nl = q4**p if q4 >= 0.0 else -((-q4) ** p)
            k4p = -(c_end * p4 + lam * q4 + nl)
            q = q + sixth * (dq + 2.0 * (p2 + p3) + p4)
            dq = dq + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        except OverflowError:
            return ("turned" if q > 0 else "crossed"), j, prof
        if record:
            prof[j + 1] = q
        if q <= 0.0:
            return "crossed", j + 1, prof
        if dq > 0.0 or q > cap:
            return "turned", j + 1, prof
        if record:
            continue
        # c_end = 2k coth(r) at the node the step ends on
        y = dq + (0.5 * c_end + c) * q
        if y >= 0.0 and q >= q_tail:
            continue
        x = two_c_h * (n_pts - 2 - j)  # 2c (r_last - r)
        # expm1 overflows past 709.78; an infinite E keeps both signs
        e = expm1(x) if x < 709.0 else math.inf
        if y < 0.0 and two_c * q + y * e < 0.0:
            return "falling", j + 1, prof
        if q < q_tail:
            qp = q ** pm1
            v = potential[j + 1]
            if qp < v - lam and two_c * q + (y - (qp + kk - v) * q / c) * e > 0.0:
                return "rising", j + 1, prof
    return "none", n_pts - 1, prof


@per_grid
def _potential_lattice(grid: RadialGrid):
    # V = k^2 + k(k-1)/sinh^2 r, k = (n-1)/2, at the nodes, written through
    # e^{-2r} so that no r overflows; a shared tuple of floats
    k = 0.5 * (grid.n - 1)
    x = np.exp(-2.0 * grid.nodes)
    return tuple((k * k + 4.0 * k * (k - 1.0) * x / (1.0 - x) ** 2).tolist())


@per_grid
def _damping_lattice(grid: RadialGrid):
    # (n-1) coth at the half-cell radii k dr / 2 from the first node to the
    # last, k = 1 .. 2N - 1, a shared tuple of floats
    radii = 0.5 * grid.dr * np.arange(1, 2 * grid.num_points)
    return tuple(((grid.n - 1) * coth(radii)).tolist())


def shooting_classifier(p, lam, a, grid) -> int:
    """-1 when the trajectory crosses zero or is certified 'falling'
    (amplitude too large), +1 when it turns, is certified 'rising' or
    reaches r_max (amplitude too small). lambda lies below the spectral
    bottom."""
    event = _integrate(p, lam, a, grid)[0]
    return -1 if event in ("crossed", "falling") else +1


# ---------------------------------------------------------------------------
# discrete polish and certification
# ---------------------------------------------------------------------------

def _odd_pow(values: np.ndarray, p: float) -> np.ndarray:
    return np.sign(values) * np.abs(values) ** p


def _newton_polish(q, lam, grid, p, alpha=None):
    """Newton on F(q) = -L q - lam q - |q|^{p-1} q = 0 at fixed lam or,
    given a mass alpha, on (F(q), mass - alpha^2) in (q, lam) via a
    bordered tridiagonal solve. The bordered row divides by
    <L+^{-1} q, q>, L+ = -L - lam - p |q|^{p-1}, and refuses the step unless
    that is negative, so the mass form converges only on the branch where
    the mass falls as lam rises (the minimizing branch).

    Returns (q, lam) once max|F| meets 1e-13 of its scale plus the rounding
    error of L q, eps |L|_inf |q|_inf (1/dr^2 makes that the larger term:
    6e-13 of the scale at alpha = 12.86 on the 2000-point n = 3 grid, 1.8e-11
    for the lambda = 0.5 ground state on the 8000-point one), and the mass
    1e-13 of alpha^2.
    Returns None when a step is rejected or 30 steps do not get there.
    """
    w = grid.vol_weights
    lap_norm = float(np.max(sum(np.abs(band) for band in laplacian_bands(grid))))
    for it in range(31):
        f1 = -apply_laplacian(q, grid) - lam * q - _odd_pow(q, p)
        f2 = 0.0 if alpha is None else 0.5 * (float(np.dot(q * q, w)) - alpha**2)
        qmax = np.max(np.abs(q))
        scale = qmax**p + abs(lam) * qmax + 1e-300
        floor = 1e-13 * scale + np.finfo(float).eps * lap_norm * qmax
        if np.max(np.abs(f1)) < floor and (alpha is None or abs(f2) < 1e-13 * alpha**2):
            return q, lam
        if it == 30:
            return None
        # L + lam + p |q|^{p-1} = -L+, with both right-hand sides negated
        bands = shifted_bands(grid, p * np.abs(q) ** (p - 1.0), shift=lam)
        try:
            dq = solve_banded(*bands, f1)
            dlam = 0.0
            if alpha is not None:
                b = solve_banded(*bands, -q)
                wq = w * q
                denom = float(np.dot(wq, b))
                if not denom < 0.0:
                    return None
                dlam = (-f2 - float(np.dot(wq, dq))) / denom
                dq = dq + dlam * b
        except ValueError:  # LinAlgError: a zero pivot or a non-finite solve
            return None
        if it == 0 and np.max(np.abs(dq)) > 0.5 * qmax:
            return None  # the start is too far out for a safe polish
        # a non-finite iterate fails the next step's solve
        q = q + dq
        lam = lam + dlam


def _far_field_extension(profile, j_start, lam, grid: RadialGrid):
    """Continue the profile beyond node j_start by the linearized decay."""
    r = grid.nodes
    rs = r[j_start]
    anchor = profile[j_start]
    out = profile.copy()
    if grid.n == 3:
        nu = math.sqrt(spectrum_bottom(3) - lam)
        tail = np.exp(-nu * (r - rs)) * (math.sinh(rs) / np.sinh(r))
    else:
        kappa = far_field_rate(grid.n, lam)
        tail = np.exp(-kappa * (r - rs))
    out[j_start:] = anchor * tail[j_start:]
    return out


@dataclass
class GroundState:
    p: float
    lam: float
    grid: RadialGrid
    profile: np.ndarray
    q0: float
    hlam_sq: float
    lp1: float
    elam: float
    dlam: float
    residuals: dict

    def field_on_grid(self) -> fn.RadialField:
        return fn.RadialField(grid=self.grid, values=self.profile.astype(complex))


def solve_ground_state(p: float, lam: float, grid: RadialGrid) -> GroundState:
    """Shooting + discrete Newton certification of the ground state on H^n,
    n = grid.n; the amplitude is bisected to 1e-13 of itself."""
    _admissible(grid.n, p)
    bottom = spectrum_bottom(grid.n)
    if lam >= bottom:
        raise NoGroundState(
            f"lambda={lam} at or above the spectral bottom {bottom}: "
            "no ground state (no positive decaying solution exists)"
        )

    # geometric ladder for the initial bracket: the origin series (and the
    # ODE itself) is only meaningful while the crossing radius is resolved,
    # so walk up from small amplitudes instead of classifying the raw
    # endpoints of the search range
    a_min, a_max = AMPLITUDE_RANGE
    if shooting_classifier(p, lam, a_min, grid) != +1:
        raise ShootingFailure(f"amplitude {a_min} already crosses zero")
    lo = a_min
    hi = None
    a = max(10.0 * a_min, 0.25)
    while a <= a_max:
        if shooting_classifier(p, lam, a, grid) == -1:
            hi = a
            break
        lo = a
        a *= 4.0
    if hi is None:
        raise ShootingFailure(
            f"no zero-crossing amplitude found below {a_max}"
        )
    while hi - lo > 1e-13 * lo:
        mid = 0.5 * (lo + hi)
        if shooting_classifier(p, lam, mid, grid) == -1:
            hi = mid
        else:
            lo = mid
    q0 = 0.5 * (lo + hi)

    _, stop, prof = _integrate(p, lam, q0, grid, record=True)
    # matching index: where the trajectory is deep into the linear regime,
    # else the node before the shot stopped (it turned, or reached r_max)
    below = np.nonzero(prof[: stop + 1] < MATCH_LEVEL * q0)[0]
    j_match = int(below[0]) if below.size else max(stop - 1, 1)
    profile = _far_field_extension(prof, j_match, lam, grid)

    polished = _newton_polish(profile, lam, grid, p)
    if polished is None:
        raise ShootingFailure(
            f"Newton polish of the shot profile did not converge (lambda={lam})"
        )
    profile = polished[0]
    # keep the strictly-decreasing analytic tail where the polished values
    # drop below roundoff significance
    deep = np.nonzero(profile < TAIL_SPLICE_LEVEL * q0)[0]
    if deep.size:
        profile = _far_field_extension(profile, int(deep[0]), lam, grid)

    rec = fn.compute_diagnostics(0.0, fn.RadialField(grid=grid, values=profile), p, lam)
    ratio = (p - 1.0) / (2.0 * (p + 1.0))
    return GroundState(
        p=p,
        lam=lam,
        grid=grid,
        profile=profile,
        q0=q0,
        hlam_sq=rec.hlam_sq,
        lp1=rec.lp1,
        elam=rec.energy_lambda,
        dlam=(rec.lp1 ** (1.0 / (p + 1.0))) ** (1.0 - p),
        # the certificates: the Pohozaev gap, the energy-ratio gap and the
        # virial value, each relative
        residuals={
            "pohozaev": abs(rec.hlam_sq - rec.lp1) / rec.hlam_sq,
            "energy_ratio": abs(rec.energy_lambda - ratio * rec.hlam_sq)
            / abs(rec.energy_lambda),
            "g_value": abs(rec.G_value) / rec.hlam_sq,
        },
    )


# ---------------------------------------------------------------------------
# mass-constrained minimization
# ---------------------------------------------------------------------------

@dataclass
class MassCurvePoint:
    alpha: float
    e_alpha: float
    minimizer: Optional[fn.RadialField]
    lagrange_lambda: Optional[float]
    el_residual: Optional[float] = None
    iterations: int = 0


@per_grid
def _branch_start(grid: RadialGrid, p: float) -> GroundState:
    """Q_0, where every mass-curve continuation on the grid at power p
    starts. Raises ShootingFailure unless <L+^{-1} Q_0, Q_0> < 0, that is
    unless Q_0 is on the minimizing branch."""
    gs = solve_ground_state(p, 0.0, grid)
    q = gs.profile
    minus_l_plus = shifted_bands(grid, p * q ** (p - 1.0))
    vk = float(np.dot(grid.vol_weights * q, solve_banded(*minus_l_plus, -q)))
    if not vk < 0.0:
        raise ShootingFailure(
            f"Q_0 is off the minimizing branch: <L+^-1 Q_0, Q_0> = {vk:.3g} "
            f"(n={grid.n}, p={p})"
        )
    return gs


def mass_constrained_minimize(alpha: float, p: float, grid: RadialGrid) -> MassCurvePoint:
    """e(alpha) = inf{ J(u) : |u|_{L^2} = alpha } and its minimizer, read off
    the ground-state branch lambda -> Q_lambda.

    J(u) = 1/2 |u|_H^2 - 1/(p+1) |u|_{p+1}^{p+1}, with |u|_H^2 the Dirichlet
    form less rho^2 |u|^2. A minimizer is positive and solves
    -L q - lambda q = q^p, so by the uniqueness of the positive solution on
    H^n (Mancini and Sandeep, Ann. Sc. Norm. Super. Pisa 2008) it is the
    ground state Q_lambda whose mass is alpha^2, on the branch where
    <L+^{-1} Q, Q> < 0 (Vakhitov-Kolokolov; Grillakis, Shatah and Strauss,
    J. Funct. Anal. 74, 1987). Along that branch dJ/dM = (lambda - rho^2)/2
    < 0, so e(alpha) = min(0, J) there.

    The continuation starts at Q_0 (`_branch_start`) and moves in log mass
    toward alpha^2 by bordered Newton solves (`_newton_polish` with the mass
    row), which refuse every state off that branch. The first step is
    BRANCH_STEP; a refused step is halved and an accepted one doubled. Once
    J >= 0 at a mass at or above alpha^2, e(alpha) = 0 and there is no
    minimizer.
    `iterations` counts the bordered Newton solves, refused ones included.
    Raises ShootingFailure when Q_0 is off the branch or a step falls below
    BRANCH_STEP_FLOOR.
    """
    n = grid.n
    _admissible(n, p)
    if alpha <= 0:
        raise ValueError(f"the mass alpha must be positive, got {alpha}")
    if p >= 1.0 + 4.0 / n:
        raise ValueError(
            f"mass-supercritical p={p}: mass-constrained minimization "
            f"requires p < 1 + 4/n = {1 + 4 / n}"
        )
    rho2 = spectrum_bottom(n)

    q, lam = _branch_start(grid, p).profile, 0.0
    rec = fn.compute_diagnostics(0.0, fn.RadialField(grid=grid, values=q), p, rho2)
    a = math.sqrt(rec.mass)
    step, solves = BRANCH_STEP, 0
    while a != alpha and not (a > alpha and rec.energy_lambda >= 0.0):
        gap = 2.0 * math.log(alpha / a)  # in log mass
        a_next = alpha if abs(gap) <= step else a * math.exp(math.copysign(0.5 * step, gap))
        polished = _newton_polish(q, lam, grid, p, a_next)
        solves += 1
        if polished is None:
            step *= 0.5
            if step < BRANCH_STEP_FLOOR:
                raise ShootingFailure(
                    f"the ground-state branch stalled at mass {a * a:.6g} on the way "
                    f"to {alpha * alpha:.6g} (lambda={lam:.6g}, n={n}, p={p})"
                )
            continue
        (q, lam), a = polished, a_next
        step *= 2.0
        rec = fn.compute_diagnostics(0.0, fn.RadialField(grid=grid, values=q), p, rho2)
    if rec.energy_lambda >= 0.0:
        return MassCurvePoint(
            alpha=alpha, e_alpha=0.0, minimizer=None, lagrange_lambda=None,
            iterations=solves,
        )
    el = -apply_laplacian(q, grid) - lam * q - _odd_pow(q, p)
    # discrete H^{-1}-type norm: <el, (1 - L)^{-1} el> against the H^1 scale
    inv = solve_banded(*shifted_bands(grid, shift=-1.0), -el)
    residual = math.sqrt(abs(float(np.dot(el * grid.vol_weights, inv))) / rec.h1_sq)
    return MassCurvePoint(
        alpha=alpha,
        e_alpha=rec.energy_lambda,
        minimizer=fn.RadialField(grid=grid, values=q.astype(complex)),
        lagrange_lambda=lam,
        el_residual=residual,
        iterations=solves,
    )
