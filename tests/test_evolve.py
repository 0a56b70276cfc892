"""Time integration: conservation, stationarity, blow-up detection, proxies.

Self-convergence is measured in the volume-weighted L^2 norm: the sup norm
is dominated by transition-band modes (dt * eigenvalue ~ 1) whose Cayley
phase error saturates instead of scaling, while the L^2 norm sees the
clean second-order signal.
"""

import math

import numpy as np
import pytest

import hypnls.evolve as ev
import hypnls.functionals as fn
import hypnls.hypgeom as hg


def small_gaussian(grid, amp=0.01):
    return fn.RadialField(grid=grid, values=(amp * np.exp(-grid.nodes**2)).astype(complex))


def datum_state(u, grid, shift=0.0):
    # the state evolve_run forms for its datum: (|u|, mass, (L + shift) u)
    return ev._h1_sq_and_norms(u, grid, hg.apply_laplacian(u, grid, shift=shift), shift)[1]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_integrator_config_validation():
    for kwargs in (
        {"dt": 0.0}, {"dt": math.nan}, {"dt": math.inf},
        {"blowup_h1_factor": 1.0}, {"blowup_h1_factor": math.nan},
        {"blowup_h1_factor": math.inf},
        # an infinite stride makes the record interval 0, a NaN one drops
        # every interior record
        {"diag_stride": 0.0}, {"diag_stride": math.nan}, {"diag_stride": math.inf},
    ):
        with pytest.raises(ValueError):
            ev.IntegratorConfig(**kwargs)


def test_run_guards(grid3, grid2, gs3_zero):
    u = small_gaussian(grid3)
    cfg = ev.IntegratorConfig(dt=2e-3)
    for horizon in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ev.evolve_run(u, horizon, cfg, 3.0, 0.0, None)
    with pytest.raises(fn.ParameterMismatch):
        ev.evolve_run(small_gaussian(grid2), 1.0, cfg, 3.0, 0.0, gs3_zero)
    with pytest.raises(fn.ParameterMismatch):
        ev.evolve_run(u, 1.0, cfg, 3.0, 0.5, gs3_zero)
    flat = fn.RadialField(grid=grid3, values=np.ones(grid3.num_points, dtype=complex))
    with pytest.raises(ValueError):
        ev.evolve_run(flat, 1.0, cfg, 3.0, 0.0, None)
    # a datum is Dirichlet-admissible while its last node is at most 1e-6
    # of its maximum, and the zero datum is admissible too
    zero = fn.RadialField(grid=grid3, values=np.zeros(grid3.num_points, dtype=complex))
    assert ev.evolve_run(zero, 2e-3, cfg, 3.0, 0.0, None).status == "completed"
    for edge, admissible in ((1e-7, True), (1e-5, False)):
        values = u.values.copy()
        values[-1] = edge * np.max(np.abs(values))
        datum = fn.RadialField(grid=grid3, values=values)
        if admissible:
            assert ev.evolve_run(datum, 2e-3, cfg, 3.0, 0.0, None).status == "completed"
        else:
            with pytest.raises(ValueError):
                ev.evolve_run(datum, 2e-3, cfg, 3.0, 0.0, None)


# ---------------------------------------------------------------------------
# stationary orbit and conservation
# ---------------------------------------------------------------------------

def test_stationary_orbit_quick(gs3_half):
    q = gs3_half.field_on_grid()
    out = ev.evolve_run(q, 0.5, ev.IntegratorConfig(dt=2e-3), 3.0, 0.5, gs3_half)
    assert out.status == "completed"
    assert out.t_star is None
    qmod = np.abs(q.values)
    dev = np.max(np.abs(np.abs(out.final_state.values) - qmod)) / qmod.max()
    assert dev < 1e-6
    # the full complex state carries the e^{-i lam t} rotation
    expected = np.exp(-1j * 0.5 * 0.5) * q.values
    assert np.max(np.abs(out.final_state.values - expected)) / qmod.max() < 1e-6
    masses = [rec.mass for rec in out.series]
    assert max(abs(m - masses[0]) for m in masses) < 1e-10
    elams = [rec.energy_lambda for rec in out.series]
    assert max(abs(e - elams[0]) for e in elams) < 1e-9


def test_record_grid_is_uniform(gs3_half):
    q = gs3_half.field_on_grid()
    out = ev.evolve_run(q, 0.5, ev.IntegratorConfig(dt=2e-3), 3.0, 0.5, gs3_half)
    assert len(out.series) == 6
    for k, rec in enumerate(out.series):
        assert abs(rec.t - 0.1 * k) < 1e-9


def test_monitor_sees_every_record(grid3):
    seen = []
    out = ev.evolve_run(
        small_gaussian(grid3), 0.3, ev.IntegratorConfig(dt=2e-3), 3.0, 0.0, None,
        monitor=lambda rec, field: seen.append((rec, field.values.copy())),
    )
    assert len(seen) == len(out.series)
    for (rec_mon, _), rec in zip(seen, out.series):
        assert rec_mon is rec


def test_step_holds_ground_state(gs3_zero):
    # 100 steps at dt = 1e-3 leave the lambda = 0 soliton in place
    u = gs3_zero.field_on_grid().values
    stepper = ev._CNStepper(gs3_zero.grid, 3.0)
    for _ in range(100):
        u = stepper.step(u, 1e-3, None, datum_state(u, gs3_zero.grid))[0]
    dev = np.max(np.abs(np.abs(u) - gs3_zero.profile)) / gs3_zero.q0
    assert dev < 1e-4


# ---------------------------------------------------------------------------
# certified acceptance of a Cayley solve
# ---------------------------------------------------------------------------

def vol_norm(v, grid):
    return math.sqrt(float(np.dot(np.abs(v) ** 2, grid.vol_weights)))


@pytest.mark.parametrize("n, lam, amp", [(3, 0.0, 0.5), (3, 0.5, 1.0), (2, 0.0, 1.0)])
def test_acceptance_bound_holds(grid3, grid2, n, lam, amp):
    # |u' - u_new| <= (dt/2) |(phi' - phi)(u + u_new)|, u' the next iterate
    grid = grid3 if n == 3 else grid2
    dt = 2e-3
    u = small_gaussian(grid, amp=amp).values
    # the step's right-hand side: the Cayley system times 2i/dt
    lin = (2j / dt) * u - hg.apply_laplacian(u, grid, shift=lam)
    phi = np.abs(u) ** 2
    u_new = hg.solve_banded(*hg.shifted_bands(grid, phi + 2j / dt, lam), lin - phi * u)
    phi_next = np.abs(0.5 * (u + u_new)) ** 2
    u_next = hg.solve_banded(
        *hg.shifted_bands(grid, phi_next + 2j / dt, lam), lin - phi_next * u)
    moved = vol_norm(u_next - u_new, grid)
    bound = 0.5 * dt * vol_norm((phi_next - phi) * (u + u_new), grid)
    assert moved > 0.0
    assert moved <= bound * (1.0 + 1e-9) + 1e-14 * vol_norm(u, grid)
    # the stepper's real form of the bound, from |u + u_new| / 2
    real_bound = dt * vol_norm((phi_next - phi) * np.abs(0.5 * (u + u_new)), grid)
    assert abs(real_bound - bound) <= 1e-12 * bound


def count_solves(monkeypatch):
    calls = []
    solve = ev.solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ev, "solve_banded", counted)
    return calls


def test_stationary_orbit_one_solve_per_step(gs3_half, monkeypatch):
    calls = count_solves(monkeypatch)
    q = gs3_half.field_on_grid()
    out = ev.evolve_run(q, 0.5, ev.IntegratorConfig(dt=2e-3), 3.0, 0.5, gs3_half)
    assert out.status == "completed"
    assert len(calls) == 250


def test_gaussian_two_solves_per_step(grid3, monkeypatch):
    calls = count_solves(monkeypatch)
    out = ev.evolve_run(
        small_gaussian(grid3, amp=0.5), 0.5, ev.IntegratorConfig(dt=2e-3),
        3.0, 0.0, None,
    )
    assert out.status == "completed"
    assert len(calls) == 500


def plain_cn_step(grid, shift, u, dt, phi_half_prev, lap):
    # the step written out with the hypgeom owners: shifted_bands for the
    # Cayley matrix times 2i/dt, solve_banded, and the bound as a complex
    # product; lap = (L + shift) u comes in, and (L + shift) u_new goes out
    # from the accepted solve's operands
    mod = np.abs(u) ** 2
    phi = 2.0 * mod - phi_half_prev if phi_half_prev is not None else mod
    lin = (2j / dt) * u - lap
    scale = vol_norm(u, grid)
    for solves in range(1, ev.FIXEDPOINT_MAXITER + 1):
        bands = hg.shifted_bands(grid, phi + 2j / dt, shift)
        rhs = lin - phi * u
        u_new = hg.solve_banded(*bands, rhs)
        u_sum = u + u_new
        phi_next = np.abs(0.5 * u_sum) ** 2
        if 0.5 * dt * vol_norm((phi_next - phi) * u_sum, grid) < ev.FIXEDPOINT_TOL * scale:
            return u_new, phi, solves, rhs - (phi + 2j / dt) * u_new
        phi = phi_next
    raise AssertionError("plain step not certified")


# the dt ladder of the step tests: a shortened record-landing step and a
# dt halving
DT_LADDER = [2e-3] * 15 + [7e-4] + [1e-3] * 24


@pytest.mark.parametrize("n, shift", [(3, 0.5), (2, 0.0)])
def test_step_matches_plain_step(grid3, grid2, n, shift):
    # 40 steps over DT_LADDER, with |u|, the mass and (L + shift) u carried
    # the way evolve_run carries them
    grid = grid3 if n == 3 else grid2
    stepper = ev._CNStepper(grid, 3.0, shift=shift)
    u = small_gaussian(grid, amp=1.0).values
    state = datum_state(u, grid, shift)
    phi_half = None
    previous = None
    for dt in DT_LADDER:
        expected = plain_cn_step(grid, shift, u, dt, phi_half, state[2])
        got = stepper.step(u, dt, phi_half, state)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        assert got[2] == expected[2]
        assert np.array_equal(got[3], expected[3])
        if previous is not None:
            # the arrays a step returns are not reused by the next step
            for kept, copy in previous:
                assert np.array_equal(kept, copy)
        previous = [(arr, arr.copy()) for arr in (got[0], got[1], got[3])]
        u, phi_half = got[0], got[1]
        state = ev._h1_sq_and_norms(u, grid, got[3], shift)[1]


@pytest.mark.parametrize("n, shift", [(3, 0.5), (2, 0.0)])
def test_carried_laplacian_tracks_band_product(grid3, grid2, n, shift):
    # the carried (L + shift) u_new differs from the band product by the
    # accepted solve's residual: below eps (4/dr^2 + 2/dt) |u|_vol (about
    # 0.3 of it here), with no growth over DT_LADDER
    grid = grid3 if n == 3 else grid2
    stepper = ev._CNStepper(grid, 3.0, shift=shift)
    u = small_gaussian(grid, amp=1.0).values
    state = datum_state(u, grid, shift)
    phi_half = None
    ratios = []
    for dt in DT_LADDER:
        u, phi_half, _, lap = stepper.step(u, dt, phi_half, state)
        gap = vol_norm(lap - hg.apply_laplacian(u, grid, shift=shift), grid)
        scale = np.finfo(float).eps * (4.0 / grid.dr**2 + 2.0 / dt) * vol_norm(u, grid)
        ratios.append(gap / scale)
        state = ev._h1_sq_and_norms(u, grid, lap, shift)[1]
    assert max(ratios) < 1.0
    assert max(ratios[-10:]) < 2.0 * max(ratios[:10])


@pytest.mark.parametrize("n, lam", [(3, 0.5), (2, 0.0)])
def test_run_h1_matches_dirichlet_energy(grid3, grid2, n, lam, monkeypatch):
    # the H^1 monitor's Dirichlet form, read off the carried (L + lam) u,
    # is the edge-based Dirichlet energy to 1e-12 relative on every state
    grid = grid3 if n == 3 else grid2
    h1_sq_and_norms = ev._h1_sq_and_norms
    seen = []

    def recording(values, grid, lap, shift):
        h1, state = h1_sq_and_norms(values, grid, lap, shift)
        seen.append((h1, hg.dirichlet_energy(values, grid) + state[1]))
        return h1, state

    monkeypatch.setattr(ev, "_h1_sq_and_norms", recording)
    out = ev.evolve_run(small_gaussian(grid, amp=1.0), 0.3, ev.IntegratorConfig(dt=2e-3),
                        3.0, lam, None)
    assert out.status == "completed"
    assert len(seen) == 151
    for h1, reference in seen:
        assert h1 == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("n, lam", [(3, 0.5), (2, 0.0)])
def test_shared_modulus_and_mass_change_no_record(grid3, grid2, n, lam, monkeypatch):
    # dt = 3e-3 does not divide the record interval, so every record is
    # landed on by a shortened step
    grid = grid3 if n == 3 else grid2
    cfg = ev.IntegratorConfig(dt=3e-3)
    datum = small_gaussian(grid, amp=0.5)
    shared = ev.evolve_run(datum, 0.3, cfg, 3.0, lam, None)

    step = ev._CNStepper.step

    def recomputing(self, u, dt, phi_half_prev, state):
        fresh = (np.abs(u), float(np.dot(np.abs(u) ** 2, grid.vol_weights)), state[2])
        return step(self, u, dt, phi_half_prev, fresh)

    monkeypatch.setattr(ev._CNStepper, "step", recomputing)
    fresh = ev.evolve_run(datum, 0.3, cfg, 3.0, lam, None)
    rows = [np.array([rec.row() for rec in out.series]) for out in (shared, fresh)]
    assert np.array_equal(*rows, equal_nan=True)
    assert np.array_equal(shared.final_state.values, fresh.final_state.values)


# ---------------------------------------------------------------------------
# cross-validation against Strang splitting, and convergence
# ---------------------------------------------------------------------------

def strang_run(u0, T, dt, p):
    """The values at T of u0 run by Strang splitting on H^3, the independent
    reference for the Crank-Nicolson integrator. The substitution
    g = u sinh r turns the radial H^3 Laplacian into (g'' - g) / sinh r,
    diagonal in a discrete sine basis, so the kinetic half steps are exact
    in that basis and the nonlinear step is an exact phase rotation."""
    from scipy.fft import dst, idst

    grid = u0.grid
    assert grid.n == 3, "the sine-diagonal form holds on H^3 only"
    sinh_r = np.sinh(grid.nodes)
    k = np.arange(1, grid.num_points + 1)
    symbol = -4.0 / grid.dr**2 * np.sin(k * np.pi / (2.0 * grid.num_points)) ** 2 - 1.0
    half_step = np.exp(0.5j * dt * symbol)

    def kinetic_half_step(u):
        return idst(dst(u * sinh_r, type=2) * half_step, type=2) / sinh_r

    u = np.asarray(u0.values, dtype=complex)
    for _ in range(round(T / dt)):
        u = kinetic_half_step(u)
        u = kinetic_half_step(u * np.exp(1j * dt * np.abs(u) ** (p - 1.0)))
    return u


def test_strang_matches_crank_nicolson(grid3):
    datum = small_gaussian(grid3, amp=0.5)
    cn = ev.evolve_run(datum, 0.5, ev.IntegratorConfig(dt=1e-3), 3.0, 0.0, None)
    gap = np.max(np.abs(cn.final_state.values - strang_run(datum, 0.5, 1e-3, 3.0)))
    assert gap < 1e-3


def test_half_dt_self_convergence_h2():
    # second order in (dr, dt) together on H^2: each finer solution is
    # restricted to the coarser cells by averaging its pairs of cells
    finals = []
    for num, dt in ((1000, 4e-3), (2000, 2e-3), (4000, 1e-3)):
        grid = hg.build_grid(2, 20.0, num)
        cfg = ev.IntegratorConfig(dt=dt, diag_stride=1.0)
        out = ev.evolve_run(small_gaussian(grid, amp=0.5), 1.0, cfg, 3.0, 0.0, None)
        assert out.status == "completed"
        finals.append((grid, out.final_state.values))
    gaps = []
    for (grid, coarse), (_, fine) in zip(finals, finals[1:]):
        gap = np.abs(coarse - 0.5 * (fine[0::2] + fine[1::2])) ** 2
        gaps.append(math.sqrt(
            hg.quadrature(gap, grid) / hg.quadrature(np.abs(coarse) ** 2, grid)
        ))
    order = math.log2(gaps[0] / gaps[1])
    assert order >= 1.9, (gaps, order)


def test_half_dt_self_convergence(grid3):
    datum = small_gaussian(grid3)
    finals = {}
    for dt in (4e-3, 2e-3, 1e-3):
        out = ev.evolve_run(
            datum, 0.24, ev.IntegratorConfig(dt=dt, diag_stride=12.5),
            3.0, 0.0, None,
        )
        finals[dt] = out.final_state.values
    d1 = math.sqrt(hg.quadrature(np.abs(finals[4e-3] - finals[2e-3]) ** 2, grid3))
    d2 = math.sqrt(hg.quadrature(np.abs(finals[2e-3] - finals[1e-3]) ** 2, grid3))
    assert 3.5 < d1 / d2 < 4.5


def _odd_gaussian_pair(grid, t, amp=1e-7, a=0.5, k=0.0, x0=3.0):
    # with g = u sinh r the linear radial flow on H^3 is i g_t + g'' - g = 0
    # with g odd, solved exactly by an odd pair of free Gaussian packets
    def psi(x):
        return np.sqrt(a / (a + 1j * t)) * np.exp(
            -(x - 2.0 * k * t) ** 2 / (4.0 * (a + 1j * t)) + 1j * k * x - 1j * k**2 * t
        )

    r = grid.nodes
    return amp * np.exp(-1j * t) * (psi(r - x0) - psi(-r - x0)) / np.sinh(r)


@pytest.mark.parametrize("scheme", ("crank_nicolson", "strang"))
def test_exact_reference_solution_h3(scheme):
    # at amplitude 1e-7 the cubic flow is the linear one to ~1e-14, so the
    # error against the closed form is the (dr, dt) discretization error
    errs = []
    for num, dt in ((1000, 4e-3), (2000, 2e-3), (4000, 1e-3)):
        grid = hg.build_grid(3, 20.0, num)
        u0 = fn.RadialField(grid=grid, values=_odd_gaussian_pair(grid, 0.0))
        if scheme == "strang":
            final = strang_run(u0, 1.0, dt, 3.0)
        else:
            cfg = ev.IntegratorConfig(dt=dt, diag_stride=1.0)
            out = ev.evolve_run(u0, 1.0, cfg, 3.0, 0.0, None)
            assert out.status == "completed"
            final = out.final_state.values
        exact = _odd_gaussian_pair(grid, 1.0)
        errs.append(math.sqrt(
            hg.quadrature(np.abs(final - exact) ** 2, grid)
            / hg.quadrature(np.abs(exact) ** 2, grid)
        ))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, (errs, orders)
    assert errs[-1] < 1e-5


# ---------------------------------------------------------------------------
# blow-up detection
# ---------------------------------------------------------------------------

def test_supercritical_amplitude_blows_up(gs3_zero):
    u0 = fn.RadialField(grid=gs3_zero.grid, values=1.3 * gs3_zero.profile.astype(complex))
    h1_0 = math.sqrt(fn.compute_diagnostics(0.0, u0, 3.0, 0.0).h1_sq)
    out = ev.evolve_run(
        u0, 3.0, ev.IntegratorConfig(dt=2e-3, blowup_h1_factor=10.0),
        3.0, 0.0, gs3_zero,
    )
    assert out.status == "blowup"
    assert out.blowup_reason == "h1_threshold"
    assert out.t_star == out.t_stop
    assert 0.0 < out.t_star < 0.2
    assert math.sqrt(out.series[-1].h1_sq) >= 10.0 * h1_0
    # the final record carries the declared stop time
    assert abs(out.series[-1].t - out.t_stop) < 1e-9
    # focusing along the unstable direction keeps delta_lambda positive
    verdict = fn.trapping_sign_check(out.series)
    assert verdict.kind == "constant_positive"


def test_uncertified_steps_halve_dt_to_the_floor(grid3, monkeypatch):
    # one solve that never certifies: every step fails and dt halves away
    monkeypatch.setattr(ev, "FIXEDPOINT_MAXITER", 1)
    monkeypatch.setattr(ev, "FIXEDPOINT_TOL", 1e-30)
    cfg = ev.IntegratorConfig(dt=2e-3)
    out = ev.evolve_run(small_gaussian(grid3, amp=0.5), 1.0, cfg, 3.0, 0.0, None)
    assert out.status == "blowup"
    assert out.blowup_reason == "dt_floor"
    assert out.t_stop == 0.0
    assert len(out.series) == 1


def test_strained_steps_halve_dt_to_the_floor(grid3, monkeypatch):
    # every certified step counts as strained, so dt halves after each of
    # the steps 2e-3, 1e-3, ..., 2e-3 / 2^9 and then drops below dt / 512
    monkeypatch.setattr(ev, "STRAIN_ITERS", 0)
    cfg = ev.IntegratorConfig(dt=2e-3)
    out = ev.evolve_run(small_gaussian(grid3, amp=0.5), 1.0, cfg, 3.0, 0.0, None)
    assert out.status == "blowup"
    assert out.blowup_reason == "dt_floor"
    assert abs(out.t_stop - 2e-3 * (2.0 - 2.0**-9)) < 1e-15
    assert len(out.series) == 2
    assert out.series[-1].t == out.t_stop
    final = fn.compute_diagnostics(out.t_stop, out.final_state, 3.0, 0.0)
    assert math.sqrt(out.series[-1].h1_sq) == math.sqrt(final.h1_sq)


def test_zero_datum_runs_to_the_horizon(grid3):
    # the zero solution exists for all time, though its H^1 threshold is 0
    zero = fn.RadialField(grid=grid3, values=np.zeros(grid3.num_points, dtype=complex))
    out = ev.evolve_run(zero, 0.3, ev.IntegratorConfig(dt=2e-3), 3.0, 0.0, None)
    assert out.status == "completed"
    assert out.t_star is None
    assert math.sqrt(out.series[-1].h1_sq) == 0.0
    assert len(out.series) == 4


def test_non_finite_solve_stops_the_run(grid3, monkeypatch):
    # a non-finite Cayley solve is fatal: dt does not halve, no blow-up verdict
    nan_solve = lambda *args: np.full_like(args[-1], np.nan)
    monkeypatch.setattr(ev, "solve_banded", nan_solve)
    cfg = ev.IntegratorConfig(dt=2e-3)
    out = ev.evolve_run(small_gaussian(grid3, amp=0.5), 1.0, cfg, 3.0, 0.0, None)
    assert out.status == "inner_solve_failure"
    assert out.t_stop == 0.0
    assert out.t_star is None
    assert len(out.series) == 1


@pytest.mark.parametrize("kind, lam", [
    ("completed", 0.0),
    ("h1_threshold", 0.0),
    ("h1_threshold", 0.3),
    ("dt_floor", 0.0),
    ("inner_solve_failure", 0.0),
])
def test_stop_bookkeeping(gs3_zero, monkeypatch, kind, lam):
    # every stop kind: the last record carries t_stop and the H^1 norm of
    # the stop state, and final_state is the state at the loop's t in the
    # original frame
    grid = gs3_zero.grid
    datum = small_gaussian(grid, amp=0.5)
    if kind == "h1_threshold":
        datum = fn.RadialField(grid=grid, values=1.3 * gs3_zero.profile.astype(complex))
    elif kind == "dt_floor":
        monkeypatch.setattr(ev, "STRAIN_ITERS", 0)
    elif kind == "inner_solve_failure":
        nan_solve = lambda *args: np.full_like(args[-1], np.nan)
        monkeypatch.setattr(ev, "solve_banded", nan_solve)
    taken = []  # (dt, u_new) of every step the run accepted
    step = ev._CNStepper.step

    def recording(self, u, dt, phi_half_prev, state):
        result = step(self, u, dt, phi_half_prev, state)
        taken.append((dt, result[0]))
        return result

    monkeypatch.setattr(ev._CNStepper, "step", recording)
    records = []
    cfg = ev.IntegratorConfig(dt=2e-3, blowup_h1_factor=10.0)
    out = ev.evolve_run(datum, 0.3, cfg, 3.0, lam, None,
                        monitor=lambda rec, field: records.append((rec.t, field.values)))
    assert (out.status, out.blowup_reason) == {
        "completed": ("completed", None),
        "h1_threshold": ("blowup", "h1_threshold"),
        "dt_floor": ("blowup", "dt_floor"),
        "inner_solve_failure": ("inner_solve_failure", None),
    }[kind]
    t, state = 0.0, datum.values
    for dt, u_new in taken:
        t, state = t + dt, u_new
    assert out.series[-1].t == out.t_stop == records[-1][0]
    # the records land at strictly increasing times (virial_consistency
    # divides by their differences)
    times = [rec.t for rec in out.series]
    assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))
    if kind == "completed":
        assert out.t_stop == 0.3
    elif kind == "h1_threshold":
        assert t - taken[-1][0] < out.t_stop <= t
    else:
        assert out.t_stop == t

    def original_frame(at):
        return state * np.exp(-1j * lam * at) if lam != 0.0 else state

    assert np.array_equal(records[-1][1], original_frame(out.t_stop))
    assert np.array_equal(out.final_state.values, original_frame(t))
    # at lam = 0 the record's state is the loop's, to the bit
    final = fn.compute_diagnostics(out.t_stop, out.final_state, 3.0, lam)
    h1_final = math.sqrt(final.h1_sq)
    expected = h1_final if lam == 0.0 else pytest.approx(h1_final, rel=1e-12)
    assert math.sqrt(out.series[-1].h1_sq) == expected


def test_overflowing_solve_is_fatal(grid3):
    # |u|^2 overflows, so the solve is not finite and solve_banded raises
    stepper = ev._CNStepper(grid3, 3.0)
    with np.errstate(all="ignore"), pytest.raises(ev.InnerSolveFailure) as info:
        u = small_gaussian(grid3, amp=1e200).values
        stepper.step(u, 2e-3, None, datum_state(u, grid3))
    assert info.value.fatal


# ---------------------------------------------------------------------------
# run analysis
# ---------------------------------------------------------------------------

def test_virial_consistency_gaussian(grid3):
    datum = small_gaussian(grid3, amp=0.5)
    out = ev.evolve_run(
        datum, 0.5, ev.IntegratorConfig(dt=2e-3, diag_stride=50.0), 3.0, 0.0, None
    )
    assert out.status == "completed"
    mismatch = ev.virial_consistency(out)
    assert mismatch < 2e-3
    # the record-by-record loop it replaces, as the reference: same order
    # of operations, so the same float
    t, sm, g = (np.array([getattr(r, k) for r in out.series])
                for k in ("t", "second_moment", "G_value"))
    worst = 0.0
    for i in range(1, len(t) - 1):
        dt0, dt1 = t[i] - t[i - 1], t[i + 1] - t[i]
        dd = 2.0 * (sm[i - 1] / (dt0 * (dt0 + dt1)) - sm[i] / (dt0 * dt1)
                    + sm[i + 1] / (dt1 * (dt0 + dt1)))
        if abs(g[i]) > 1e-6 * out.series[0].h1_sq:
            worst = max(worst, abs(dd - g[i]) / abs(g[i]))
    assert mismatch == worst


def test_virial_consistency_needs_records(grid3):
    out = ev.evolve_run(
        small_gaussian(grid3), 0.2, ev.IntegratorConfig(dt=2e-3), 3.0, 0.0, None
    )
    with pytest.raises(ValueError):
        ev.virial_consistency(out)


def test_scattering_proxy_verdicts(dichotomy_runs, gs3_half):
    assert ev.scattering_proxy(dichotomy_runs[(3, 0.5)][1]) == "consistent"
    # blow-up runs never earn the dispersive label
    assert ev.scattering_proxy(dichotomy_runs[(3, 1.5)][1]) == "inconclusive"
    # a stationary orbit keeps its potential term pinned at the maximum
    q = gs3_half.field_on_grid()
    out = ev.evolve_run(q, 1.0, ev.IntegratorConfig(dt=2e-3), 3.0, 0.5, gs3_half)
    assert ev.scattering_proxy(out) == "inconclusive"
