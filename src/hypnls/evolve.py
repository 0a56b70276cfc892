"""Time integration of i u_t + (Laplacian) u + |u|^{p-1} u = 0 on H^n.

Default scheme: Crank-Nicolson with a relaxation-style treatment of the
nonlinearity. Each step solves the Cayley system

    A(phi) u_new = (1 + i dt/2 (L + phi)) u,   A(phi) = 1 - i dt/2 (L + phi)

for a real auxiliary field phi representing |u|^{p-1} at the half step,
seeded by the relaxation predictor 2|u^n|^{p-1} - phi_prev and refined by
fixed-point iteration phi' = |(u + u_new)/2|^{p-1}. Because L + phi is
self-adjoint in the volume-weighted inner product, every solve is unitary
there and the discrete mass is conserved to solver roundoff.

Each solve is accepted as soon as a certified bound says the next iterate
would move it by less than FIXEDPOINT_TOL relative to |u|. Subtracting the
Cayley systems for phi and phi' gives

    A(phi') (u' - u_new) = (i dt/2) (phi' - phi) (u + u_new),

and A(phi') = 1 - i H with H self-adjoint has |A(phi')^{-1}| <= 1, so

    |u' - u_new| <= (dt/2) |(phi' - phi) |u + u_new||

in the volume-weighted L^2 norm. phi' already needs |u + u_new|, so the
bound costs real products only, and the solve with phi' is made only when
the bound fails.

Each solve is the Cayley system times 2i/dt,

    (L + shift + phi + 2i/dt) u_new = (2i/dt) u - (L + shift + phi) u,

so dt enters the diagonal only and the off-diagonals are the grid's own
Laplacian bands (hypgeom.shifted_bands).

evolve_run forms |u| and the volume-weighted mass once per accepted state;
its H^1 monitor, the next step's acceptance scale and its predictor
|u|^{p-1} all share them.

A Strang splitting path (n = 3 only) cross-validates the default: the
substitution g = u sinh r turns the radial H^3 Laplacian into (g'' - g)/
sinh r, diagonal in a discrete sine basis, so the kinetic half steps are
exact in that basis and the nonlinear step is an exact phase rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.fft import dst, idst

from .hypgeom import apply_laplacian, dirichlet_energy, shifted_bands, solve_banded
from . import functionals as fn

STRAIN_ITERS = 12  # Cayley solves in one step counted as "straining" -> halve dt
FIXEDPOINT_TOL = 1e-10  # certified move of the next solve, relative to |u|
FIXEDPOINT_MAXITER = 50  # Cayley solves per step at most
# the dt floor is the base dt over this: 9+ halvings only ever happen inside
# a focusing cascade; waiting longer just burns steps on an under-resolved field
DT_FLOOR_DIVISOR = 512.0


class InnerSolveFailure(RuntimeError):
    def __init__(self, message, fatal=False):
        super().__init__(message)
        self.fatal = fatal  # non-finite state: halving dt cannot recover


@dataclass
class IntegratorConfig:
    dt: float = 5e-4
    scheme: str = "crank_nicolson_relaxation"
    blowup_h1_factor: float = 50.0
    diag_stride: float = 10.0  # records per unit time

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in STEPPERS:
            raise ValueError(f"unknown scheme {self.scheme!r}; options: {list(STEPPERS)}")
        if not 1 < self.blowup_h1_factor < math.inf:
            raise ValueError("blowup_h1_factor must be finite and exceed 1")
        if not 0 < self.diag_stride < math.inf:
            raise ValueError("diag_stride must be positive and finite")


@dataclass
class RunOutcome:
    status: str                 # completed | blowup | inner_solve_failure
    t_stop: float               # horizon, t_star, or failure time
    series: List[fn.DiagnosticsRecord]
    final_state: Optional[fn.RadialField] = None
    blowup_reason: Optional[str] = None

    @property
    def t_star(self) -> Optional[float]:
        return self.t_stop if self.status == "blowup" else None


# ---------------------------------------------------------------------------
# steppers
# ---------------------------------------------------------------------------

class _CNStepper:
    def __init__(self, grid, p, shift=0.0):
        self.grid = grid
        self.p = p
        # gauge shift: integrate i v_t = -(L + shift) v - |v|^{p-1} v
        self.shift = shift
        self.vol = grid.vol_weights

    def step(self, u, dt, phi_half_prev, modulus_mass):
        """One CN step; returns (u_new, phi_half, cayley_solves).

        modulus_mass is (|u|, vol-weighted mass of u), as evolve_run forms
        them once per accepted state. phi_half is the field u_new was
        solved with. A solve is accepted when
        (dt/2) |(phi' - phi) |u + u_new|| < FIXEDPOINT_TOL |u|, the
        certified bound on the move the solve with phi' would make. A
        non-finite solve, or a non-finite bound, is a fatal failure.
        """
        pm1 = self.p - 1.0
        modulus, mass = modulus_mass
        mod = modulus**pm1
        if mass == 0.0:
            return u.copy(), mod, 0
        phi = 2.0 * mod - phi_half_prev if phi_half_prev is not None else mod
        lin = (2j / dt) * u - apply_laplacian(u, self.grid, shift=self.shift)
        bound = FIXEDPOINT_TOL * math.sqrt(mass)
        for solves in range(1, FIXEDPOINT_MAXITER + 1):
            try:
                u_new = solve_banded(
                    *shifted_bands(self.grid, phi + 2j / dt, self.shift), lin - phi * u)
            except ValueError as exc:  # LinAlgError: a zero pivot or non-finite solution
                raise InnerSolveFailure(f"inner solve: {exc}", fatal=True) from exc
            half_mod = np.abs(0.5 * (u + u_new))
            phi_next = half_mod**pm1
            # (dt/2) |(phi' - phi) |u + u_new|| = dt |(phi' - phi) |u + u_new|/2|
            move = dt * math.sqrt(float(np.dot(((phi_next - phi) * half_mod) ** 2, self.vol)))
            if move < bound:
                return u_new, phi, solves
            if not math.isfinite(move):
                raise InnerSolveFailure("non-finite state in inner solve", fatal=True)
            phi = phi_next
        raise InnerSolveFailure(
            f"fixed point not certified after {FIXEDPOINT_MAXITER} solves"
        )


class _StrangStepper:
    def __init__(self, grid, p, shift=0.0):
        if grid.n != 3:
            raise ValueError(
                "strang_splitting uses the sine-diagonal form of the H^3 "
                "Laplacian and is implemented for n = 3 only"
            )
        self.grid = grid
        self.p = p
        self.sinh_r = np.sinh(grid.nodes)
        k = np.arange(1, grid.num_points + 1)
        eta = -4.0 / grid.dr**2 * np.sin(k * np.pi / (2.0 * grid.num_points)) ** 2
        self.symbol = eta - 1.0 + shift

    def _kinetic_half_step(self, u, dt):
        g = dst(u * self.sinh_r, type=2) * np.exp(0.5j * dt * self.symbol)
        return idst(g, type=2) / self.sinh_r

    def step(self, u, dt, phi_half_prev, modulus_mass):
        u = self._kinetic_half_step(u, dt)
        u = u * np.exp(1j * dt * np.abs(u) ** (self.p - 1.0))
        return self._kinetic_half_step(u, dt), None, 0


# IntegratorConfig.scheme -> stepper class
STEPPERS = {"crank_nicolson_relaxation": _CNStepper, "strang_splitting": _StrangStepper}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _h1_sq_and_norms(values, grid):
    """Squared H^1 norm of one state, with its (|u|, vol-weighted mass
    int |u|^2) for the next step."""
    modulus = np.abs(values)
    mass = float(np.dot(modulus**2, grid.vol_weights))
    return dirichlet_energy(values, grid) + mass, (modulus, mass)


def evolve_run(
    u0: fn.RadialField,
    T: float,
    cfg: IntegratorConfig,
    p: float,
    lam: float,
    gs,
    monitor: Optional[Callable] = None,
) -> RunOutcome:
    """Integrate to horizon T with diagnostics, adaptivity, and detection.

    Records are emitted at t = 0, at every multiple of 1/diag_stride (steps
    are shortened to land on record times exactly, which keeps the record
    grid uniform for finite differencing), and at the stop time t_stop. dt
    halves (never re-raises) when a step is not certified within
    FIXEDPOINT_MAXITER solves (the step is then retried), takes more than
    STRAIN_ITERS solves, or grows the H^1 norm more than 10%. monitor(t,
    field), when given, is called at every record emission.

    The four stop kinds, as (status, blowup_reason):
    - ("completed", None): t_stop = T.
    - ("blowup", "h1_threshold"): a step took the H^1 norm above
      blowup_h1_factor times its initial value; t_stop is the crossing,
      interpolated inside that step on the log of the H^1 norm.
    - ("blowup", "dt_floor"): halving took dt below cfg.dt / DT_FLOOR_DIVISOR.
    - ("inner_solve_failure", None): a solve hit a zero pivot or a
      non-finite state.
    In each, final_state is the last accepted state at the loop's time t,
    and the final record holds it at t_stop (a record already there is not
    repeated). t_stop = t except after a threshold crossing, where t_stop
    falls inside the last step.

    The run steps in the rotating frame v = e^{i lam t} u (the operator
    picks up the shift lam), where stationary profiles are fixed points.
    One frame map restores e^{-i lam t} at each record's time and at t for
    final_state: every field a caller sees is in the original frame.
    """
    if not T > 0:
        raise ValueError("horizon must be positive")
    if not math.isfinite(T):
        raise ValueError("horizon must be finite")
    grid = u0.grid
    modulus = np.abs(u0.values)
    if modulus[-1] > 1e-6 * np.max(modulus):
        raise ValueError(
            "initial datum is not Dirichlet-admissible on this grid "
            "(boundary amplitude above 1e-6 of the field maximum)"
        )

    stepper = STEPPERS[cfg.scheme](grid, p, shift=lam)
    u = np.asarray(u0.values, dtype=complex).copy()
    t = 0.0
    dt = cfg.dt
    interval = 1.0 / cfg.diag_stride
    next_rec = interval
    phi_half = None

    # squared H^1 norm of the current state, with its (|u|, mass) for the next step
    h1_prev, norms = _h1_sq_and_norms(u, grid)
    threshold = cfg.blowup_h1_factor**2 * h1_prev

    series: List[fn.DiagnosticsRecord] = []

    def frame(t_now):
        # the current state in the original frame at time t_now
        return u * np.exp(-1j * lam * t_now) if lam != 0.0 else u

    def emit(t_now):
        values = frame(t_now)
        field = fn.RadialField(grid=grid, values=values)
        series.append(fn.compute_diagnostics(t_now, field, p, lam, gs=gs))
        if monitor is not None:
            monitor(t_now, fn.RadialField(grid=grid, values=values.copy()))

    emit(0.0)
    eps = 1e-12 * max(T, 1.0)

    while t < T - eps:
        # shorten the step to land exactly on record times and the horizon
        step_dt = min(dt, T - t, next_rec - t)
        try:
            u_new, phi_half, solves = stepper.step(u, step_dt, phi_half, norms)
        except InnerSolveFailure as exc:
            if exc.fatal:
                status, t_stop, reason = "inner_solve_failure", t, None
                break
            phi_half, halve = None, True
        else:
            h1_new, norms = _h1_sq_and_norms(u_new, grid)
            t += step_dt
            u = u_new
            # strict, so that the zero solution (threshold 0) runs to T
            if h1_new > threshold:
                # threshold crossing interpolated inside the step, on log H^1
                frac = math.log(threshold / h1_prev) / math.log(h1_new / h1_prev)
                status, t_stop, reason = (
                    "blowup", t - step_dt + frac * step_dt, "h1_threshold")
                break
            if t >= next_rec - 1e-9 * interval and t < T - eps:
                emit(t)
                while next_rec <= t + 1e-9 * interval:
                    next_rec += interval
            halve = solves > STRAIN_ITERS or h1_new > 1.21 * h1_prev
            h1_prev = h1_new
        if halve:
            dt *= 0.5
            if dt < cfg.dt / DT_FLOOR_DIVISOR:
                status, t_stop, reason = "blowup", t, "dt_floor"
                break
    else:  # no break: the run reached T
        status, t_stop, reason = "completed", T, None

    # records inside the loop stop short of T - eps: T always gets one
    if status == "completed" or series[-1].t < t_stop - eps:
        emit(t_stop)
    return RunOutcome(
        status=status,
        t_stop=t_stop,
        series=series,
        final_state=fn.RadialField(grid=grid, values=frame(t)),
        blowup_reason=reason,
    )


# ---------------------------------------------------------------------------
# run analysis
# ---------------------------------------------------------------------------

def virial_consistency(outcome: RunOutcome) -> float:
    """Max relative gap between (d^2/dt^2) second_moment and recorded G.

    Uses the three-point second derivative on the record times, which
    evolve_run emits strictly increasing; records where |G| is below 1e-6
    of the initial H^1 scale are excluded from the relative comparison.
    """
    recs = outcome.series
    if len(recs) < 5:
        raise ValueError("need at least 5 records for the virial comparison")
    t = np.array([r.t for r in recs])
    sm = np.array([r.second_moment for r in recs])
    g = np.array([r.G_value for r in recs])
    floor = 1e-6 * recs[0].h1_sq
    worst = 0.0
    for i in range(1, len(recs) - 1):
        dt0 = t[i] - t[i - 1]
        dt1 = t[i + 1] - t[i]
        dd = 2.0 * (
            sm[i - 1] / (dt0 * (dt0 + dt1))
            - sm[i] / (dt0 * dt1)
            + sm[i + 1] / (dt1 * (dt0 + dt1))
        )
        if abs(g[i]) > floor:
            worst = max(worst, abs(dd - g[i]) / abs(g[i]))
    return worst


def scattering_proxy(outcome: RunOutcome) -> str:
    """One-sided dispersion indicator: 'consistent' or 'inconclusive'.

    Consistent requires a completed run of length >= 1 whose last 30% in
    time keeps delta_lambda < 0 and G > 0 at every record while the
    potential term stays at least 30% below its maximum over the run.
    Never claims more than consistency with the dispersive scenario.
    """
    if outcome.status != "completed":
        return "inconclusive"
    recs = outcome.series
    t_end = recs[-1].t
    if t_end < 1.0:
        return "inconclusive"
    lp1_max = max(r.lp1 for r in recs)
    tail = [r for r in recs if r.t >= 0.7 * t_end]
    for r in tail:
        if r.lp1 > 0.7 * lp1_max or r.delta_lambda >= 0 or r.G_value <= 0:
            return "inconclusive"
    return "consistent"
