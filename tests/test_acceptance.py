"""Acceptance gates for the laboratory, one criterion per test.

Each test prints a single pass/fail line with the measured values (visible
with -s or -rA); the asserted tolerances are the project gates, not the
observed slack. Criteria 2 and 9 run production-resolution solves and take
the bulk of the wall time. Criteria 3 to 8 measure through the experiment
functions of the subcommands. The last test compares the printed lines
with acceptance_lines.txt.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import hypnls.evolve as ev
import hypnls.functionals as fn
import hypnls.groundstate as gsmod
import hypnls.hypgeom as hg
from hypnls.expcli import (inequality_scan, mass_curve_sweep, spectral_family,
                           virial_sweep)

P_CUBIC = 3.0

LINES = Path(__file__).resolve().parent / "acceptance_lines.txt"
SCRIPT = LINES.parent.parent / "scripts" / "output_matrix.py"
PRINTED = {}  # criterion number -> the line its test printed


def _line(num, name, ok, detail):
    line = f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    PRINTED[num] = line
    print(line)


@pytest.fixture(scope="module")
def grid3_prod():
    return hg.build_grid(3, 20.0, 8000)


@pytest.fixture(scope="module")
def gs_half_prod(grid3_prod):
    return gsmod.solve_ground_state(P_CUBIC, 0.5, grid3_prod)


# ---------------------------------------------------------------------------
# 1. ground-state identity suite
# ---------------------------------------------------------------------------

# (n, p, lambda, rmax, points): the domain radius scales with the tail
# decay length 1/sqrt(rho^2 - lambda); near-bottom profiles keep a
# truncation-dominated virial residual unless rmax grows with it
IDENTITY_CASES = (
    (3, P_CUBIC, 0.0, 20.0, 4000),
    (3, P_CUBIC, 0.5, 20.0, 4000),
    (3, P_CUBIC, 0.9, 40.0, 8000),
    (2, P_CUBIC, 0.0, 20.0, 4000),
    (2, P_CUBIC, 0.2, 40.0, 8000),
)


def test_criterion_1_ground_state_identities():
    worst = {"pohozaev": 0.0, "energy_ratio": 0.0, "g_value": 0.0}
    for n, p, lam, rmax, points in IDENTITY_CASES:
        gs = gsmod.solve_ground_state(p, lam, hg.build_grid(n, rmax, points))
        for key in worst:
            worst[key] = max(worst[key], float(gs.residuals[key]))
    ok = (
        worst["pohozaev"] < 1e-5
        and worst["energy_ratio"] < 1e-5
        and worst["g_value"] < 1e-4
    )
    _line(
        1, "ground-state identities", ok,
        f"poh {worst['pohozaev']:.2e}, ratio {worst['energy_ratio']:.2e}, "
        f"G {worst['g_value']:.2e}",
    )
    assert worst["pohozaev"] < 1e-5
    assert worst["energy_ratio"] < 1e-5
    assert worst["g_value"] < 1e-4


# ---------------------------------------------------------------------------
# 2. stationary evolution at production resolution
# ---------------------------------------------------------------------------

def test_criterion_2_stationary_evolution(gs_half_prod):
    gs = gs_half_prod
    qmax = gs.q0
    dev = 0.0

    def monitor(rec, field):
        nonlocal dev
        dev = max(dev, float(np.max(np.abs(np.abs(field.values) - gs.profile))) / qmax)

    out = ev.evolve_run(
        gs.field_on_grid(), 3.0, ev.IntegratorConfig(dt=5e-4), P_CUBIC, 0.5, gs,
        monitor=monitor,
    )
    assert out.status == "completed"
    mass0 = out.series[0].mass
    elam0 = out.series[0].energy_lambda
    mass_drift = max(abs(r.mass - mass0) for r in out.series) / 3.0
    elam_drift = max(abs(r.energy_lambda - elam0) for r in out.series) / 3.0
    ok = dev < 1e-3 and mass_drift < 1e-8 and elam_drift < 1e-6
    _line(
        2, "stationary evolution", ok,
        f"modulus dev {dev:.2e}, mass drift {mass_drift:.2e}/t, "
        f"E_lam drift {elam_drift:.2e}/t",
    )
    assert dev < 1e-3
    assert mass_drift < 1e-8
    assert elam_drift < 1e-6


# ---------------------------------------------------------------------------
# 3. virial identity along a dispersive run
# ---------------------------------------------------------------------------

def test_criterion_3_virial_tracking(grid3):
    out, mismatch, _ = virial_sweep(grid3, P_CUBIC, 0.0, 2e-3, 1.0)
    assert out.status == "completed"
    assert len(out.series) >= 100
    ok = mismatch < 0.02
    _line(3, "virial tracking", ok, f"mismatch {mismatch:.2e} over {len(out.series)} records")
    assert mismatch < 0.02


# ---------------------------------------------------------------------------
# 4. scattering / blow-up dichotomy for alpha * Q
# ---------------------------------------------------------------------------

def test_criterion_4_dichotomy(dichotomy_runs, gs3_zero, gs2_zero):
    summary = []
    ok = True
    for n, gs in ((3, gs3_zero), (2, gs2_zero)):
        for alpha in (0.5, 0.9):
            row, _ = dichotomy_runs[(n, alpha)]
            good = row["status"] == "completed" and row["proxy"] == "consistent"
            ok = ok and good
            summary.append(f"n{n} a{alpha}:{'scat' if good else 'BAD'}")
            assert row["status"] == "completed"
            assert row["proxy"] == "consistent"
        for alpha in (1.1, 1.5):
            row, out = dichotomy_runs[(n, alpha)]
            assert row["status"] == "blowup"
            assert row["t_star"] is not None and math.isfinite(row["t_star"])
            assert 0.0 < row["t_star"] < 3.0
            assert all(rec.delta_lambda > 0.0 for rec in out.series)
            e0 = out.series[0].energy_lambda
            bound = -16.0 * (gs.elam - e0) + 1e-3 * gs.hlam_sq
            gmax = max(rec.G_value for rec in out.series)
            good = gmax <= bound
            ok = ok and good
            summary.append(f"n{n} a{alpha}:t*{row['t_star']:.3f}")
            assert gmax <= bound
    _line(4, "dichotomy", ok, ", ".join(summary))


# ---------------------------------------------------------------------------
# 5. trapping and the variational bound below the ground state
# ---------------------------------------------------------------------------

def test_criterion_5_trapping(dichotomy_runs, gs3_zero, gs2_zero):
    checked = 0
    applied = 0
    worst_res = math.inf
    for (n, alpha), (_, out) in sorted(dichotomy_runs.items()):
        gs = gs3_zero if n == 3 else gs2_zero
        u0 = fn.RadialField(grid=gs.grid, values=alpha * gs.profile.astype(complex))
        if out.series[0].energy_lambda > gs.elam:
            continue
        verdict = fn.trapping_sign_check(out.series)
        assert verdict.kind != "violation"
        checked += 1
        fields = [u0]
        if out.status == "completed":
            fields.append(out.final_state)
        for f in fields:
            res = fn.variational_bound_check(f, gs)
            if res is not None:
                assert res >= -1e-6
                applied += 1
                worst_res = min(worst_res, res)
    ok = checked == 8 and applied >= 8
    _line(
        5, "trapping", ok,
        f"{checked} runs sign-constant, bound applied {applied}x, "
        f"min residual {worst_res:.3e}",
    )
    assert checked == 8
    assert applied >= 8


# ---------------------------------------------------------------------------
# 6. pointwise weight inequalities
# ---------------------------------------------------------------------------

def test_criterion_6_weight_inequalities():
    # p = 2 is the sub-critical power of pm(3, 2); W1 is scanned to r = 30
    scans = {n: inequality_scan(n, 2.0, 30.0) for n in (2, 3)}
    floor = -1e-12
    q_mins = {n: scan["quartic_min"] for n, scan in scans.items()}
    w1_gap = abs(scans[3]["w1_max"] - 1.0 / 3.0)
    w1_tail = scans[3]["w1_tail"]
    pm_crit = {n: scan["pm_min_at_critical_p"] for n, scan in scans.items()}
    pm_sub = scans[3]["pm_min_at_p"]
    ok = (
        min(q_mins.values()) >= floor
        and w1_gap < 1e-6
        and w1_tail < 1e-12
        and min(pm_crit.values()) >= floor
        and pm_sub < 0.0
    )
    _line(
        6, "weight inequalities", ok,
        f"quartic min {min(q_mins.values()):.1e}, W1 gap {w1_gap:.1e}, "
        f"pm crit min {min(pm_crit.values()):.1e}, pm(3,2) {pm_sub:.3f}",
    )
    for n in (2, 3):
        assert q_mins[n] >= floor
        assert pm_crit[n] >= floor
    assert w1_gap < 1e-6
    assert w1_tail < 1e-12
    assert pm_sub < 0.0


# ---------------------------------------------------------------------------
# 7. mass-constrained energy curve in the subcritical regime
# ---------------------------------------------------------------------------

def test_criterion_7_mass_curve(grid3):
    points = mass_curve_sweep(grid3, 2.0, np.geomspace(0.1, 20.0, 13))
    negative = [pt for pt in points if pt.minimizer is not None]
    ok = (
        points[0].e_alpha == 0.0
        and points[0].minimizer is None
        and points[-1].e_alpha < 0.0
        and all(pt.el_residual < 1e-4 for pt in negative)
        and all(pt.lagrange_lambda < 1.0 for pt in negative)
    )
    _line(
        7, "mass curve", ok,
        f"e(0.1) = {points[0].e_alpha}, e(20) = {points[-1].e_alpha:.2f}, "
        f"{len(negative)} minimizers, "
        f"max EL {max((pt.el_residual for pt in negative), default=0.0):.1e}",
    )
    assert points[0].e_alpha == 0.0 and points[0].minimizer is None
    assert points[-1].e_alpha < 0.0
    assert len(negative) >= 1
    for pt in negative:
        assert pt.el_residual < 1e-4
        assert pt.lagrange_lambda < 1.0


# ---------------------------------------------------------------------------
# 8. spectral toolkit on the bump family
# ---------------------------------------------------------------------------

def test_criterion_8_spectral(grid3):
    family = spectral_family(grid3)
    parseval_max = family["parseval_max"]
    recon_max = family["reconstruction_max"]
    fitted_c = max(c for per in family["lemma_constants"].values() for c in per.values())
    spreads = {s: ratio["spread"] for s, ratio in family["refined_ratio"].items()}

    ok = (
        parseval_max < 1e-4
        and recon_max < 1e-3
        and math.isfinite(fitted_c)
        and 0.0 < fitted_c < 10.0
        and spreads["0.5"] < 10.0
        and spreads["1"] < 10.0
    )
    _line(
        8, "spectral toolkit", ok,
        f"parseval {parseval_max:.1e}, recon {recon_max:.1e}, "
        f"lemma C {fitted_c:.3f}, spreads {spreads['0.5']:.2f}/{spreads['1']:.2f}",
    )
    assert parseval_max < 1e-4
    assert recon_max < 1e-3
    assert math.isfinite(fitted_c) and 0.0 < fitted_c < 10.0
    assert spreads["0.5"] < 10.0
    assert spreads["1"] < 10.0


# ---------------------------------------------------------------------------
# 9. refinement orders between the tiers
# ---------------------------------------------------------------------------

# the amplitude's limit at n=3, p=3, lam=0.5 on r_max 20: q0 converges at
# fourth order, so the limit is q16 + (q16 - q8) / 15 from the 8000-point
# (q8) and 16000-point (q16) solves
Q0_REF = 3.773512132382405


def test_criterion_9_convergence_orders(gs3_half, gs_half_prod, gs3_zero):
    gs_half_mid = gsmod.solve_ground_state(P_CUBIC, 0.5, hg.build_grid(3, 20.0, 4000))
    errs = [abs(g.q0 - Q0_REF) for g in (gs3_half, gs_half_mid, gs_half_prod)]
    q0_orders = (math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2]))

    tstars = []
    for points, dt, gs in (
        (2000, 2e-3, gs3_zero),
        (4000, 1e-3, None),
        (8000, 5e-4, None),
    ):
        if gs is None:
            grid = hg.build_grid(3, 20.0, points)
            gs = gsmod.solve_ground_state(P_CUBIC, 0.0, grid)
        u0 = fn.RadialField(grid=gs.grid, values=1.2 * gs.profile.astype(complex))
        # the threshold sits before the collapse cascade so that the stop
        # time is a smooth functional of the discretization
        cfg = ev.IntegratorConfig(dt=dt, blowup_h1_factor=1.5)
        out = ev.evolve_run(u0, 3.0, cfg, P_CUBIC, 0.0, gs)
        assert out.status == "blowup"
        tstars.append(out.t_star)
    d1, d2 = abs(tstars[0] - tstars[1]), abs(tstars[1] - tstars[2])
    t_order = math.log2(d1 / d2)

    ok = q0_orders[0] >= 1.9 and q0_orders[1] >= 1.9 and t_order >= 1.9
    _line(
        9, "convergence orders", ok,
        f"q0 {q0_orders[0]:.2f}/{q0_orders[1]:.2f}, t* {t_order:.2f}",
    )
    assert q0_orders[0] >= 1.9
    assert q0_orders[1] >= 1.9
    assert t_order >= 1.9


# ---------------------------------------------------------------------------
# the printed lines against the committed ones
# ---------------------------------------------------------------------------

def test_acceptance_lines_unchanged():
    """Every line printed above equals its line in acceptance_lines.txt,
    whose first line stamps the platform that printed them."""
    spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    stamp, *lines = LINES.read_text().splitlines()
    if stamp != f"# {matrix.stamp()}":
        pytest.skip(f"not comparable: the lines were printed on {stamp[2:]}, "
                    f"this run is on {matrix.stamp()}")
    if not PRINTED:
        pytest.skip("no acceptance gate ran in this session")
    committed = {int(line.split()[1]): line for line in lines}
    assert {num: committed[num] for num in PRINTED} == PRINTED
