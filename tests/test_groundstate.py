"""Shooting solver, certification identities, and the mass curve.

Central amplitudes q0 = Q(0) were frozen from an independent adaptive
integrator (solve_ivp RK45, rtol 1e-12, bisection to machine bracket) and
serve as cross-solver oracles; the n = 2, p = 3, lambda = 0 case also has
the closed form Q = sqrt(2)/cosh r.
"""

import json
import math

import numpy as np
import pytest

import hypnls.expcli as cli
import hypnls.functionals as fn
import hypnls.groundstate as gsm
import hypnls.hypgeom as hg

# independent shooting oracle (RK45, rtol 1e-12)
Q0_ORACLE = {
    (3, 3.0, 0.0): 4.89897948556,
    (3, 3.0, 0.5): 3.77351213237,
    (3, 3.0, 0.9): 2.38749173508,
    (2, 3.0, 0.0): 1.41421356245,  # exactly sqrt(2): Q = sqrt(2)/cosh r
    (2, 3.0, 0.2): 0.8951549925,
}


def test_far_field_rate():
    assert gsm.far_field_rate(3, 0.0) == 2.0
    assert abs(gsm.far_field_rate(3, 0.5) - (1.0 + math.sqrt(0.5))) < 1e-15
    assert gsm.far_field_rate(2, 0.0) == 1.0
    assert abs(gsm.far_field_rate(2, 0.2) - (0.5 + math.sqrt(0.05))) < 1e-15


def test_admissibility_guards(grid3, grid2):
    with pytest.raises(gsm.NoGroundState):
        gsm.solve_ground_state(3.0, 1.0, grid3)
    with pytest.raises(gsm.NoGroundState):
        gsm.solve_ground_state(3.0, 1.7, grid3)
    with pytest.raises(ValueError):
        gsm.solve_ground_state(5.0, 0.0, grid3)
    with pytest.raises(ValueError):
        gsm.solve_ground_state(1.0, 0.0, grid3)
    with pytest.raises(ValueError, match="n=2 requires p > 1"):
        gsm.solve_ground_state(1.0, 0.0, grid2)


@pytest.mark.parametrize("p, lam, error", [
    (1.0001, 0.5, "amplitude 1e-06 already crosses zero"),
    (3.0, -1e6, "no zero-crossing amplitude found below 1000000.0"),
], ids=("smallest_shot_crosses", "no_shot_crosses"))
def test_shooting_without_a_bracket_is_a_solver_failure(p, lam, error):
    # p = 1.0001: Q^{p-1} stays near 1 down to Q = 1e-6, so lambda + Q^{p-1}
    # sits above the spectral bottom and even the smallest shot oscillates
    # through zero. lambda = -1e6 on 300 points: every shot of the ladder
    # turns, by the linear growth below Q = 1000 and by an overflowing step
    # above it.
    grid = hg.build_grid(3, 20.0, 300)
    with pytest.raises(gsm.ShootingFailure, match=error):
        gsm.solve_ground_state(p, lam, grid)


def test_q0_against_independent_solver(grid3, grid2, gs3_zero, gs3_half, gs2_zero):
    solved = {
        (3, 3.0, 0.0): gs3_zero,
        (3, 3.0, 0.5): gs3_half,
        (3, 3.0, 0.9): gsm.solve_ground_state(3.0, 0.9, grid3),
        (2, 3.0, 0.0): gs2_zero,
        (2, 3.0, 0.2): gsm.solve_ground_state(3.0, 0.2, grid2),
    }
    for key, oracle in Q0_ORACLE.items():
        gs = solved[key]
        assert abs(gs.q0 - oracle) / oracle < 2e-3, key
        assert gs.profile[0] > 0.0
        assert np.all(np.isfinite(gs.profile))


def test_q0_refinement_toward_oracle():
    oracle = Q0_ORACLE[(3, 3.0, 0.5)]
    errs = []
    for num in (1000, 2000):
        grid = hg.build_grid(3, 20.0, num)
        errs.append(abs(gsm.solve_ground_state(3.0, 0.5, grid).q0 - oracle))
    assert errs[1] < 0.5 * errs[0]


def test_q0_converges_at_fourth_order():
    # self-convergence over three grids: RK4 reads (n-1) coth(r) at each
    # step's start, midpoint and end
    q0 = [gsm.solve_ground_state(3.0, 0.5, hg.build_grid(3, 20.0, num)).q0
          for num in (1000, 2000, 4000)]
    assert math.log2(abs(q0[0] - q0[1]) / abs(q0[1] - q0[2])) >= 3.5


def test_closed_form_profile_h2(gs2_zero):
    exact = math.sqrt(2.0) / np.cosh(gs2_zero.grid.nodes)
    assert np.max(np.abs(gs2_zero.profile - exact)) < 5e-5


def test_certification_residuals(gs3_zero, gs3_half):
    for gs in (gs3_zero, gs3_half):
        assert gs.residuals["pohozaev"] < 1e-8
        assert gs.residuals["energy_ratio"] < 1e-8
        assert gs.residuals["g_value"] < 1e-4
        # Pohozaev: |Q|^2_{H_lambda} = |Q|^{p+1}_{p+1} for the polished state
        assert abs(gs.hlam_sq - gs.lp1) < 1e-7 * gs.hlam_sq
        # E_lambda(Q) = (p-1)/(2(p+1)) |Q|^2_{H_lambda}
        ratio = (gs.p - 1.0) / (2.0 * (gs.p + 1.0))
        assert abs(gs.elam - ratio * gs.hlam_sq) < 1e-7 * gs.elam


def test_ground_state_sits_on_its_own_shell(gs3_half):
    q = gs3_half.field_on_grid()
    rec = fn.compute_diagnostics(0.0, q, gs3_half.p, gs3_half.lam, gs=gs3_half)
    assert abs(rec.delta_lambda) < 1e-9 * gs3_half.hlam_sq


def test_shooting_classifier_bracket(grid3):
    # q0 for lambda = 0.5 is ~3.77: smaller amplitudes decay, larger cross
    assert gsm.shooting_classifier(3.0, 0.5, 2.0, grid3) == 1
    assert gsm.shooting_classifier(3.0, 0.5, 5.0, grid3) == -1
    scan = [
        gsm.shooting_classifier(3.0, 0.5, a, grid3) for a in (2.0, 3.0, 4.0, 5.0)
    ]
    assert scan == [1, 1, -1, -1]


# (n, lambda, r_max, points, event): shots at the bisected amplitude that
# stop with no node below MATCH_LEVEL, on grids too short for the far field
# (event "none") or at a lambda so negative that the shot turns first
UNMATCHED_SHOTS = (
    (2, -30.0, 3.0, 300, "none"),
    (2, -100.0, 20.0, 2000, "turned"),
)


@pytest.mark.parametrize("n, lam, r_max, points, event", UNMATCHED_SHOTS)
def test_unmatched_shot_is_extended_from_the_node_before_its_stop(
    n, lam, r_max, points, event, monkeypatch
):
    grid = hg.build_grid(n, r_max, points)
    shots = []
    integrate = gsm._integrate

    def recording(*args, **kwargs):
        out = integrate(*args, **kwargs)
        if kwargs.get("record"):
            shots.append(out)
        return out

    monkeypatch.setattr(gsm, "_integrate", recording)
    gs = gsm.solve_ground_state(3.0, lam, grid)
    ((got, stop, prof),) = shots
    assert got == event
    assert np.min(prof[: stop + 1]) >= gsm.MATCH_LEVEL * gs.q0
    # the polish starts from the shot up to the node before the stop and the
    # linear far field beyond it, and certifies a positive ground state
    start = gsm._far_field_extension(prof, stop - 1, lam, grid)
    polished = gsm._newton_polish(start, lam, grid, 3.0)[0]
    assert np.max(np.abs(gs.profile - polished)) <= gsm.TAIL_SPLICE_LEVEL * gs.q0
    assert np.all(gs.profile > 0.0)
    assert gs.residuals["pohozaev"] < 1e-8
    assert gs.residuals["energy_ratio"] < 1e-8


def test_mass_curve_guards(grid3, grid2):
    with pytest.raises(ValueError):
        gsm.mass_constrained_minimize(1.0, 3.0, grid3)  # p >= 1 + 4/n
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            gsm.mass_constrained_minimize(alpha, 2.0, grid3)


def test_mass_curve_small_mass_vanishes(grid3):
    pt = gsm.mass_constrained_minimize(0.5, 2.0, grid3)
    assert pt.e_alpha == 0.0
    assert pt.minimizer is None
    assert pt.lagrange_lambda is None
    assert pt.iterations > 0


def test_mass_curve_negative_branch(grid3):
    points = [gsm.mass_constrained_minimize(alpha, 2.0, grid3) for alpha in (13.0, 16.0)]
    for alpha, pt in zip((13.0, 16.0), points):
        assert pt.e_alpha < 0.0
        assert pt.minimizer is not None
        assert pt.el_residual < 1e-4
        assert pt.lagrange_lambda < 1.0
        mass = fn.compute_diagnostics(0.0, pt.minimizer, 2.0, 0.0).mass
        assert abs(mass - alpha**2) < 1e-8 * alpha**2
    assert points[1].e_alpha < points[0].e_alpha
    # the minimizer is the shooting ground state at its own lambda: the
    # positive solution is unique
    q = points[0].minimizer.values.real
    shot = gsm.solve_ground_state(2.0, points[0].lagrange_lambda, grid3).profile
    assert np.max(np.abs(shot - q)) < 1e-10 * np.max(q)


@pytest.mark.parametrize("argv, error", [
    (["--n", "2", "--p", "2.9"], "Q_0 is off the minimizing branch"),
    (["--p", "2.2", "--alpha", "20"], "the ground-state branch stalled"),
], ids=("off_branch_start", "stalled_branch"))
def test_unresolved_mass_curve_is_a_solver_failure(argv, error, tmp_path, capsys):
    # (n, p) = (2, 2.9): <L+^-1 Q_0, Q_0> > 0 and J(Q_0) > 0, so reading e = 0
    # at the masses below Q_0's would read the wrong branch. (3, 2.2) at
    # alpha = 20: the branch narrows toward the grid scale (lambda = -3627,
    # width 1/sqrt|lambda| = 0.017 against dr = 0.01, at mass 319 of 400)
    # and the step falls below BRANCH_STEP_FLOOR.
    assert cli.main(["mass-curve", *argv, "--out", str(tmp_path)]) == 3
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["code"] == 3
    assert payload["error"].startswith(error)
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# shooting integrator against the four-call RK4 it replaces
# ---------------------------------------------------------------------------

# the radii, in cells dr, at which step j from the node (j + 1/2) dr reads
# (n-1) coth(r): its start, midpoint and end
STEP_RADII = (0.5, 1.0, 1.5)


def _reference_integrate(p, lam, a, grid):
    """RK4 through a right-hand-side function, one call per stage, with
    (n-1) coth formed at each step's radii and run until the shot crosses,
    turns or reaches r_max.

    Returns (event, stop, profile, slope, overflowed)."""
    n = grid.n
    h = grid.dr
    n_pts = grid.num_points
    steps = np.arange(n_pts - 1)
    damping = [((n - 1) * hg.coth((steps + off) * h)).tolist() for off in STEP_RADII]
    q, dq = gsm._series_start(n, p, lam, a, 0.5 * h)
    prof = np.empty(n_pts)
    slope = np.empty(n_pts)
    prof[0] = q
    slope[0] = dq

    def rhs(qv, pv, c):
        if qv >= 0.0:
            nl = qv**p
        else:
            nl = -((-qv) ** p)
        return pv, -(c * pv + lam * qv + nl)

    half = 0.5 * h
    sixth = h / 6.0
    for j, (c_start, c_mid, c_end) in enumerate(zip(*damping)):
        try:
            k1q, k1p = rhs(q, dq, c_start)
            k2q, k2p = rhs(q + half * k1q, dq + half * k1p, c_mid)
            k3q, k3p = rhs(q + half * k2q, dq + half * k2p, c_mid)
            k4q, k4p = rhs(q + h * k3q, dq + h * k3p, c_end)
            q = q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q)
            dq = dq + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        except OverflowError:
            return ("turned" if q > 0 else "crossed"), j, prof, slope, True
        prof[j + 1] = q
        slope[j + 1] = dq
        if q <= 0.0:
            return "crossed", j + 1, prof, slope, False
        if dq > 0.0 or q > 2.0 * max(a, 1.0):
            return "turned", j + 1, prof, slope, False
    return "none", n_pts - 1, prof, slope, False


# (n, lambda, amplitude, expected event, overflow in the first step)
SHOOTING_CASES = (
    (3, 0.5, 5.0, "crossed", False),
    (3, 0.5, 1000.0, "turned", False),
    (3, 0.5, 1e10, "turned", True),
    (3, 0.5, 2.0, "none", False),
    (2, 0.2, 2.0, "crossed", False),
    (2, 0.2, 1000.0, "turned", False),
    (2, 0.2, 1e10, "turned", True),
    (2, 0.2, 0.5, "none", False),
)


@pytest.mark.parametrize("n, lam, amp, event, overflow", SHOOTING_CASES)
def test_integrate_bit_identical_to_reference_rk4(
    n, lam, amp, event, overflow, grid3, grid2
):
    grid = grid3 if n == 3 else grid2
    ref = _reference_integrate(3.0, lam, amp, grid)
    assert ref[0] == event and ref[4] == overflow
    got = gsm._integrate(3.0, lam, amp, grid, record=True)
    assert got[:2] == ref[:2]
    stop = ref[1]
    assert got[2][: stop + 1].tobytes() == ref[2][: stop + 1].tobytes()
    # the unrecorded shot classifies the same and stops no later: at a
    # 'falling' or 'rising' verdict, or where the full shot stops
    got, stop = gsm._integrate(3.0, lam, amp, grid)[:2]
    assert (got in ("crossed", "falling")) == (event == "crossed")
    assert stop <= ref[1]


def _full_length(p, lam, a, grid, record=False):
    return _reference_integrate(p, lam, a, grid)[:3]


# (n, p, lambda, r_max, points): criterion 1's ground states, the shots of
# UNMATCHED_SHOTS and the p = 2 mass-curve branch start Q_0
FULL_LENGTH_CASES = (
    (3, 3.0, 0.0, 20.0, 4000),
    (3, 3.0, 0.5, 20.0, 4000),
    (3, 3.0, 0.9, 40.0, 8000),
    (2, 3.0, 0.0, 20.0, 4000),
    (2, 3.0, 0.2, 40.0, 8000),
    *((n, 3.0, lam, r_max, points) for n, lam, r_max, points, _ in UNMATCHED_SHOTS),
    (3, 2.0, 0.0, 20.0, 2000),
)


def _case_id(case):
    # p = 3 unless the id names it
    n, p, *rest = case
    return "-".join(map(str, (n, *rest))) + ("" if p == 3.0 else f"-p{p}")


@pytest.mark.parametrize("n, p, lam, r_max, points", FULL_LENGTH_CASES,
                         ids=map(_case_id, FULL_LENGTH_CASES))
def test_rising_verdict_keeps_every_ground_state(n, p, lam, r_max, points, monkeypatch):
    # every shot run to its crossing, turn or r_max gives the same bisection,
    # so the same q0 and the same profile to the last bit; and no shot of
    # the bisection runs to r_max undecided
    grid = hg.build_grid(n, r_max, points)
    events = []
    integrate = gsm._integrate

    def recording(*args, **kwargs):
        out = integrate(*args, **kwargs)
        if not kwargs.get("record"):
            events.append(out[0])
        return out

    monkeypatch.setattr(gsm, "_integrate", recording)
    gs = gsm.solve_ground_state(p, lam, grid)
    assert events and "none" not in events
    monkeypatch.setattr(gsm, "_integrate", _full_length)
    full = gsm.solve_ground_state(p, lam, grid)
    assert full.q0 == gs.q0
    assert full.profile.tobytes() == gs.profile.tobytes()


# beside the cases above: the n = 2, p = 2.5 mass-curve branch start, and
# a lambda so negative that 2c (r_last - r) passes expm1's range near the
# origin, at c dr = 0.2, where every shot runs in full, and at c dr = 0.05
VERDICT_CASES = (
    *FULL_LENGTH_CASES,
    (2, 2.5, 0.0, 20.0, 2000),
    (2, 3.0, -400.0, 20.0, 2000),
    (2, 3.0, -400.0, 20.0, 8000),
)


@pytest.mark.parametrize("n, p, lam, r_max, points", VERDICT_CASES,
                         ids=map(_case_id, VERDICT_CASES))
def test_early_verdicts_classify_like_full_shots(n, p, lam, r_max, points):
    # shots at q0 (1 +- 10^-k) follow the separatrix ever longer as k
    # grows; each 'falling' or 'rising' verdict must agree with whether the
    # shot run in full crosses
    grid = hg.build_grid(n, r_max, points)
    q0 = gsm.solve_ground_state(p, lam, grid).q0
    for k in (1, 4, 7, 10, 13):
        for amp in (q0 * (1.0 - 10.0**-k), q0 * (1.0 + 10.0**-k)):
            crosses = _reference_integrate(p, lam, amp, grid)[0] == "crossed"
            assert gsm.shooting_classifier(p, lam, amp, grid) == (-1 if crosses else 1)


# (n, lambda, points) at r_max 20 and p = 3: c dr from 0.20 down to 0.005
FULL_SHOT_CASES = (
    (3, -400.0, 2000), (3, -200.0, 2000), (3, -100.0, 2000), (3, -400.0, 4000),
    (3, -70.0, 2000), (2, -400.0, 2000), (3, 0.5, 2000),
)


@pytest.mark.parametrize("n, lam, points", FULL_SHOT_CASES)
def test_bisection_matches_full_shots(n, lam, points, monkeypatch):
    # a verdict is taken only where it classifies every bisection shot as
    # the shot run to its crossing, turn or r_max does: at c dr >= 0.1 RK4's
    # local error can flip one next to the separatrix and move q0
    grid = hg.build_grid(n, 20.0, points)
    gs = gsm.solve_ground_state(3.0, lam, grid)
    integrate = gsm._integrate

    def full_shot(p, lam, a, grid):
        return -1 if integrate(p, lam, a, grid, record=True)[0] == "crossed" else +1

    monkeypatch.setattr(gsm, "shooting_classifier", full_shot)
    full = gsm.solve_ground_state(3.0, lam, grid)
    assert full.q0 == gs.q0
    assert full.profile.tobytes() == gs.profile.tobytes()


# ---------------------------------------------------------------------------
# bordered Newton polish and the branch continuation
# ---------------------------------------------------------------------------

ALPHA_12 = float(np.geomspace(0.1, 20.0, 13)[11])  # criterion 7's alpha = 12.86
# e(alpha) of the projected gradient flow that the continuation replaced,
# each flow run to tol = 1e-8 and polished
E_ALPHA_12 = -23.358326087417367
E_ALPHA_20 = -564.348026871694
E_ALPHA_12_H2 = -17469.403119081442  # n = 2, p = 2.5


def _polish_converged(q, lam, alpha, grid, p):
    """The convergence test the polish promises for what it returns."""
    f1 = -hg.apply_laplacian(q, grid) - lam * q - gsm._odd_pow(q, p)
    f2 = 0.5 * (float(np.dot(q * q, grid.vol_weights)) - alpha**2)
    qmax = np.max(np.abs(q))
    lap_norm = np.max(sum(np.abs(band) for band in hg.laplacian_bands(grid)))
    floor = 1e-13 * (qmax**p + abs(lam) * qmax) + np.finfo(float).eps * lap_norm * qmax
    return np.max(np.abs(f1)) < floor and abs(f2) < 1e-13 * alpha**2


@pytest.mark.parametrize("alpha", [20.0, ALPHA_12])
def test_constrained_polish_returns_only_converged_states(alpha, grid3):
    # starts around Q_0 rescaled to the mass and around the minimizer, each
    # scaled and with lambda off by 1: some converge and some are refused
    pt = gsm.mass_constrained_minimize(alpha, 2.0, grid3)
    q0 = gsm._branch_start(grid3, 2.0).profile
    bases = ((q0 * alpha / math.sqrt(np.dot(q0 * q0, grid3.vol_weights)), 0.0),
             (pt.minimizer.values.real, pt.lagrange_lambda))
    returned = []
    for base, lam in bases:
        for factor in (0.5, 0.9, 1.1, 1.5):
            for shift in (-1.0, 1.0):
                out = gsm._newton_polish(factor * base, lam + shift, grid3, 2.0, alpha)
                returned.append(out is not None)
                if out is not None:
                    assert _polish_converged(*out, alpha, grid3, 2.0)
    assert any(returned) and not all(returned)


def test_bordered_polish_refuses_the_other_branch(grid3):
    # at p = 2 the mass of Q_lambda falls with lambda up to about 0.94 and
    # rises after: <L+^-1 Q, Q> = (dM/dlambda)/2 changes sign there, and the
    # mass row takes no step on the side where it is positive
    for lam, on_branch in ((0.9, True), (0.95, False)):
        q = gsm.solve_ground_state(2.0, lam, grid3).profile
        alpha = math.sqrt(np.dot(q * q, grid3.vol_weights))
        for factor in (0.999, 1.001):
            out = gsm._newton_polish(q, lam, grid3, 2.0, factor * alpha)
            assert (out is not None) == on_branch


@pytest.fixture(scope="module")
def point_12(grid3):
    return gsm.mass_constrained_minimize(ALPHA_12, 2.0, grid3)


def _flip_laplacian(monkeypatch):
    # an operator that flips between L + c and L - c from one evaluation to
    # the next: the residual never meets the stop rule while every Newton
    # step stays small
    sign = [1.0]

    def noisy_laplacian(values, grid):
        sign[0] = -sign[0]
        return hg.apply_laplacian(values, grid) + sign[0] * 1e-9 * values

    monkeypatch.setattr(gsm, "apply_laplacian", noisy_laplacian)


@pytest.mark.parametrize("alpha", [None, ALPHA_12])
def test_constrained_polish_gives_up_without_convergence(
    alpha, point_12, grid3, monkeypatch
):
    # at fixed lambda and with the mass row (where the flip moves the fitted
    # lambda by 2c each step) alike, the 30th iterate must not be returned
    # as a solution
    q = point_12.minimizer.values.real
    lam = point_12.lagrange_lambda
    assert gsm._newton_polish(q, lam, grid3, 2.0, alpha) is not None
    _flip_laplacian(monkeypatch)
    assert gsm._newton_polish(q, lam, grid3, 2.0, alpha) is None


def test_polish_refuses_a_non_finite_iterate(point_12, grid3):
    # the tridiagonal solve of the next Newton step refuses it
    q = point_12.minimizer.values.real.copy()
    q[100] = np.inf
    lam = point_12.lagrange_lambda
    with np.errstate(invalid="ignore"):  # inf - inf in its residual
        for alpha in (None, ALPHA_12):
            assert gsm._newton_polish(q, lam, grid3, 2.0, alpha) is None


def test_ground_state_polish_converges_in_few_steps(grid2, monkeypatch):
    # gs2_zero's grid: the stop rule allows for the rounding error of L q,
    # so the polish stops after 3 Newton steps of one solve each
    calls = [0]
    solve = gsm.solve_banded

    def counting(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(gsm, "solve_banded", counting)
    gsm.solve_ground_state(3.0, 0.0, grid2)
    assert calls[0] <= 4


def test_unconverged_polish_is_a_solver_failure(grid3, monkeypatch, tmp_path, capsys):
    _flip_laplacian(monkeypatch)
    with pytest.raises(gsm.ShootingFailure, match="did not converge"):
        gsm.solve_ground_state(3.0, 0.5, grid3)
    assert cli.main(["groundstate", "--lambda", "0.5", "--out", str(tmp_path)]) == 3
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line)["code"] == 3
    assert not any(tmp_path.iterdir())


def test_mass_curve_reads_the_flow_values_off_the_branch(point_12, grid2, grid3):
    # Q_0 (n = 3, p = 2) has mass 150.8, one step below 12.86^2
    assert point_12.iterations == 1
    points = [(point_12, E_ALPHA_12),
              (gsm.mass_constrained_minimize(20.0, 2.0, grid3), E_ALPHA_20),
              (gsm.mass_constrained_minimize(ALPHA_12, 2.5, grid2), E_ALPHA_12_H2)]
    for pt, e_alpha in points:
        assert abs(pt.e_alpha - e_alpha) < 1e-10 * abs(e_alpha)
        assert pt.el_residual < 1e-4
        assert pt.iterations < 40
