"""Conserved quantities, virial functionals, cutoff, and inequality scans.

Frozen reference values come from 40-digit mpmath quadrature of the
closed-form integrands for u = e^{-r^2}; tolerances follow the measured
discretization error of the 2000-point grid (midpoint rule superconverges
for integrands with vanishing odd derivatives at the ends, which covers
the n = 3 cases; the n = 2 density sinh r has f'(0) != 0, giving honest
O(dr^2) there).
"""

import dataclasses
import math

import numpy as np
import pytest

import hypnls.functionals as fn
import hypnls.hypgeom as hg
from hypnls.expcli import inequality_scan

# mpmath, u = e^{-r^2} on H^3
GAUSS3 = {
    "mass": 2.55427674425510610721925509326,
    "gradient_sq": 9.04595597494081715051117168515,
    "l4": 0.790773339777071331548049961156,
    "second_moment": 2.26148899373520428762779292129,
    "G": 46.7769498277386204290487738605,
}
# mpmath, u = e^{-r^2} on H^2
GAUSS2 = {
    "mass": 1.7084813983381834391585032636,
    "gradient_sq": 3.70639807471762591817945077114,
    "l4": 0.81895602453568710265112602479,
    "G": 21.8796072215426378421107537702,
}

# F(r) = (2n-2) r^2 cosh^2 r + n r^2 - (3n-4) r cosh r sinh r - 2 sinh^2 r
QUARTIC_TABLE = {
    2: {0.25: 7.683124558117344480750458e-5, 1.0: 0.373139592152981232331786,
        3.0: 1036.585616868809471492295, 8.0: 244368232.3139704925096857},
    3: {0.25: 1.427145108247119130369673e-4, 1.0: 0.6950446714660845403916785,
        3.0: 1962.317133804655995280521, 8.0: 475407233.8471794574021636},
}

# nonlinear-coefficient values at sample radii (mpmath)
PM_TABLE = {
    (3, 3.0): {0.25: 6.170106102024694726290663, 1.0: 9.43659878959840038235122,
               3.0: 59.01651146351967405161768},
    (2, 3.0): {0.25: 0.001204006495965480719853341, 1.0: 0.2701760728665792583596327,
               3.0: 10.32889750787917967501959},
    (3, 2.0): {0.25: -3.0805801520816656068225, 1.0: -3.71178899626416669782538,
               3.0: 9.598157135994089296921367},
}
# the lattice on which inequality_scan takes the coefficient's minimum
PM_LATTICE = np.linspace(1e-4, 20.0, 100001)
# interior minimum of the p = 2, n = 3 coefficient (strictly negative case)
PM_32_MIN_RADIUS = 1.0886594924826533763
PM_32_MIN_VALUE = -3.727265010949519204609654


def gaussian(grid):
    return fn.RadialField(grid=grid, values=np.exp(-grid.nodes**2).astype(complex))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_radial_field_basics(grid3):
    u = fn.RadialField(grid=grid3, values=list(np.exp(-grid3.nodes)))
    assert isinstance(u.values, np.ndarray)
    with pytest.raises(ValueError):
        fn.RadialField(grid=grid3, values=np.ones(grid3.num_points - 1))


def test_radial_field_rejects_nonfinite(grid3):
    bad = np.ones(grid3.num_points)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        fn.RadialField(grid=grid3, values=bad)


# ---------------------------------------------------------------------------
# frozen integral values
# ---------------------------------------------------------------------------

def test_gaussian_functionals_h3(grid3):
    # at lambda = 0 the record's hlam_sq is the Dirichlet form itself
    rec = fn.compute_diagnostics(0.0, gaussian(grid3), 3.0, 0.0)
    assert abs(rec.mass - GAUSS3["mass"]) < 1e-12
    assert abs(rec.hlam_sq - GAUSS3["gradient_sq"]) < 1e-4
    assert abs(rec.lp1 - GAUSS3["l4"]) < 1e-12
    assert abs(rec.second_moment - GAUSS3["second_moment"]) < 1e-12
    assert abs(rec.G_value - GAUSS3["G"]) < 1e-3


def test_gaussian_functionals_h2(grid2):
    rec = fn.compute_diagnostics(0.0, gaussian(grid2), 3.0, 0.0)
    assert abs(rec.mass - GAUSS2["mass"]) < 1e-4
    assert abs(rec.hlam_sq - GAUSS2["gradient_sq"]) < 2e-4
    assert abs(rec.lp1 - GAUSS2["l4"]) < 1e-4
    assert abs(rec.G_value - GAUSS2["G"]) < 5e-3


# ---------------------------------------------------------------------------
# norm and energy identities
# ---------------------------------------------------------------------------

def test_energy_identities(grid3):
    u = gaussian(grid3)
    lam, p = 0.37, 3.0
    # at lambda = 0 the record's hlam_sq is the Dirichlet form itself
    grad = fn.compute_diagnostics(0.0, u, p, 0.0).hlam_sq
    rec = fn.compute_diagnostics(0.0, u, p, lam)
    m = rec.mass
    assert abs(rec.hlam_sq - (grad - lam * m)) < 1e-12
    assert abs(rec.h_sq - (grad - 1.0 * m)) < 1e-12
    assert abs(rec.h1_sq - (grad + m)) < 1e-12
    assert abs(rec.energy - (0.5 * grad - rec.lp1 / (p + 1.0))) < 1e-12
    assert abs(rec.energy_lambda - (rec.energy - 0.5 * lam * m)) < 1e-12
    assert abs(
        rec.energy_lambda - (0.5 * rec.hlam_sq - rec.lp1 / (p + 1.0))
    ) < 1e-12


def test_delta_lambda_scaling_and_mismatch(gs3_zero, grid2):
    q = gs3_zero.field_on_grid()
    for alpha in (0.9, 1.1):
        scaled = fn.RadialField(grid=q.grid, values=alpha * q.values)
        expected = (alpha**2 - 1.0) * gs3_zero.hlam_sq
        delta = fn.compute_diagnostics(0.0, scaled, 3.0, 0.0, gs=gs3_zero).delta_lambda
        assert abs(delta - expected) < 1e-9 * abs(expected)
    assert delta > 0.0
    with pytest.raises(fn.ParameterMismatch):
        fn.compute_diagnostics(0.0, gaussian(grid2), 3.0, 0.0, gs=gs3_zero)
    # a ground state of another p or lambda on the same grid
    for p, lam in ((3.0, 0.5), (2.0, 0.0)):
        with pytest.raises(fn.ParameterMismatch):
            fn.compute_diagnostics(0.0, q, p, lam, gs=gs3_zero)
    with pytest.raises(fn.ParameterMismatch):
        fn.variational_bound_check(gaussian(grid2), gs3_zero)


# ---------------------------------------------------------------------------
# cutoff profile
# ---------------------------------------------------------------------------

def test_default_cutoff_shape():
    d = fn.cutoff_derivative
    assert d(np.array([0.5]), 0)[0] == 0.25
    assert abs(d(np.array([3.0]), 0)[0] - 41.0 / 18.0) < 1e-14
    assert d(np.array([2.5]), 1)[0] == 0.0
    s_lo = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(d(s_lo, 0) - s_lo**2)) <= 1e-9
    s = np.linspace(0.0, 2.5, 5001)
    assert np.max(d(s, 2)) <= 2.0 + 1e-9
    # the bridge (from s = 1 up to, not including, s = 2) meets s^2 at s = 1
    # and the plateau at s = 2 through the fourth derivative; 1e-12 from the
    # seam the fourth derivative moves by about 3.4e-9
    for order, at_1, at_2 in zip(
        range(5), (1.0, 2.0, 2.0, 0.0, 0.0), (41.0 / 18.0, 0.0, 0.0, 0.0, 0.0)
    ):
        assert abs(d(np.array([1.0 - 1e-12]), order)[0] - at_1) < 1e-9
        assert abs(d(np.array([1.0]), order)[0] - at_1) < 1e-9
        assert abs(d(np.array([2.0 - 1e-12]), order)[0] - at_2) < 1e-7
        assert d(np.array([2.0]), order)[0] == at_2


def test_localized_virial_matches_global(grid3):
    u = gaussian(grid3)
    rec = fn.compute_diagnostics(0.0, u, 3.0, 0.0)
    g = rec.G_value
    # the record's loc_virial is the localized virial at its own radius
    loc = fn.localized_virial_rhs(u, fn.LOC_VIRIAL_RADIUS, p=3.0)
    assert abs(rec.loc_virial - loc) < 1e-12
    gaps = [abs(fn.localized_virial_rhs(u, R, p=3.0) - g) for R in (2.0, 4.0, 8.0)]
    # for data this concentrated the R = 8 window already sees everything
    assert gaps[0] > gaps[1] >= gaps[2]
    assert gaps[2] < 1e-10
    with pytest.raises(ValueError):
        fn.localized_virial_rhs(u, 0.5, p=3.0)


# ---------------------------------------------------------------------------
# diagnostics records
# ---------------------------------------------------------------------------

def test_compute_diagnostics_without_ground_state(grid3):
    rec = fn.compute_diagnostics(0.7, gaussian(grid3), 3.0, 0.0)
    assert rec.t == 0.7
    assert math.isnan(rec.delta_lambda)
    assert math.isfinite(rec.G_value)
    assert rec.row() == [getattr(rec, c) for c in fn.DIAGNOSTICS_COLUMNS]
    assert fn.DIAGNOSTICS_COLUMNS[0] == "t"


# ---------------------------------------------------------------------------
# trapping detectors
# ---------------------------------------------------------------------------

def _rec(t, delta, hlam=1.0):
    return fn.DiagnosticsRecord(
        t=t, mass=1.0, energy=0.0, energy_lambda=0.0, hlam_sq=hlam, h_sq=0.0,
        lp1=0.0, delta_lambda=delta, G_value=0.0, second_moment=0.0,
        loc_virial=0.0, h1_sq=0.0,
    )


def test_trapping_sign_check_verdicts():
    neg = [_rec(t, -0.5 - t) for t in (0.0, 0.1, 0.2)]
    assert fn.trapping_sign_check(neg).kind == "constant_negative"
    pos = [_rec(t, 0.5 + t) for t in (0.0, 0.1, 0.2)]
    assert fn.trapping_sign_check(pos).kind == "constant_positive"
    flip = [_rec(0.0, -0.5), _rec(0.1, -0.2), _rec(0.2, 0.4)]
    verdict = fn.trapping_sign_check(flip)
    assert verdict.kind == "violation"
    assert verdict.t == 0.2
    # noise band: sub-threshold wiggles around zero are sign-neutral
    noisy = [_rec(0.0, -0.5), _rec(0.1, 1e-12), _rec(0.2, -1e-12), _rec(0.3, -0.4)]
    assert fn.trapping_sign_check(noisy).kind == "constant_negative"
    with pytest.raises(ValueError):
        fn.trapping_sign_check([])


def test_variational_bound_check(gs3_zero):
    q = gs3_zero.field_on_grid()
    inside = fn.RadialField(grid=q.grid, values=0.9 * q.values)
    res = fn.variational_bound_check(inside, gs3_zero)
    assert res is not None
    assert res >= -1e-6
    # energy above E(Q): hypotheses fail
    outside = fn.RadialField(grid=q.grid, values=2.0 * q.values)
    assert fn.variational_bound_check(outside, gs3_zero) is None
    # low energy but norm above the shell: hypotheses fail the other way
    straddle = fn.RadialField(grid=q.grid, values=1.05 * q.values)
    assert fn.variational_bound_check(straddle, gs3_zero) is None


def test_variational_bound_check_refuses_a_corrupted_ground_state(gs3_zero, grid2):
    # the E_lambda guard checks gs before any record of u is formed, so a
    # field on another grid does not get as far as the grid mismatch
    corrupted = dataclasses.replace(gs3_zero, elam=0.0)
    for u in (gs3_zero.field_on_grid(), gaussian(grid2)):
        with pytest.raises(ValueError, match="nonpositive E_lambda"):
            fn.variational_bound_check(u, corrupted)


# ---------------------------------------------------------------------------
# closed-form inequality scans
# ---------------------------------------------------------------------------

def test_quartic_values_pointwise():
    for n, table in QUARTIC_TABLE.items():
        r = np.array(sorted(table))
        expected = np.array([table[x] for x in sorted(table)])
        got = fn.quartic_values(n, r)
        assert np.max(np.abs(got - expected) / expected) < 1e-13


def test_quartic_series_regime():
    # below the series cutoff F ~ 2(6n-5) r^6 / 45
    r = np.array([0.01])
    for n in (2, 3):
        lead = 2.0 * (6 * n - 5) / 45.0 * r**6
        assert abs(fn.quartic_values(n, r)[0] - lead[0]) < 1e-3 * lead[0]


def test_quartic_scan_nonnegative():
    r = np.linspace(20.0 / 1e5, 20.0, 100000)
    for n in (2, 3):
        assert np.min(fn.quartic_values(n, r)) >= -1e-12


def test_pm_coefficient_pointwise():
    for (n, p), table in PM_TABLE.items():
        for r0, expected in table.items():
            got = fn.pm_coefficient_values(n, p, np.array([r0]))[0]
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_pm_coefficient_critical_exponent():
    # p = 1 + 4/n is the positivity border: nonnegative there, up to the
    # floor that absorbs the rounded exponent 1 + 4/3 ...
    assert np.min(fn.pm_coefficient_values(3, 1.0 + 4.0 / 3.0, PM_LATTICE)) >= -1e-12
    assert np.min(fn.pm_coefficient_values(2, 3.0, PM_LATTICE)) >= -1e-12
    # ... and genuinely negative below it
    assert np.min(fn.pm_coefficient_values(3, 2.0, PM_LATTICE)) < -3.7
    got = fn.pm_coefficient_values(3, 2.0, np.array([PM_32_MIN_RADIUS]))[0]
    assert abs(got - PM_32_MIN_VALUE) < 1e-12
    # supercritical p on the scan lattice stays positive
    assert np.min(fn.pm_coefficient_values(3, 3.0, PM_LATTICE)) > 0.0


def test_pm_coefficient_border_is_the_rounded_exponent():
    # 1 + 4/3 rounds to 7/3 - 2.96e-16; the coefficient there is its Taylor
    # constant n (n (p-1) - 4) = -2.66e-15 (exact in floats) plus
    # (104/135) r^4, so the scan's negative minimum is the true value
    n, p, r0 = 3, 1.0 + 4.0 / 3.0, 1e-4
    taylor = n * (n * (p - 1.0) - 4.0)
    assert taylor < 0.0
    got = fn.pm_coefficient_values(n, p, np.array([r0]))[0]
    assert abs(got - (taylor + 104.0 / 135.0 * r0**4)) < 1e-17
    # the scan reports the minimum on its lattice, which is that value
    assert np.min(fn.pm_coefficient_values(n, p, PM_LATTICE)) == got
    scan = inequality_scan(n, p, 20.0)
    assert scan["pm_min_at_p"] == scan["pm_min_at_critical_p"] == got
