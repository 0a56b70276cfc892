"""Radial Fourier analysis on H^3 against the explicit heat kernel.

The heat kernel on H^3 is elementary,

    p_t(r) = (4 pi t)^{-3/2} (r / sinh r) e^{-t - r^2/(4t)},

and its transform is e^{-t (lambda^2 + 1)}, which pins down the transform
convention, the Plancherel density, and the semigroup multiplier at once.
The cell-centered grid makes the sine-kernel quadrature a midpoint rule on
an even integrand with vanishing odd derivatives at both ends, so forward
values are accurate to roundoff, not O(dr^2).
"""

import math

import numpy as np
import pytest

import hypnls.functionals as fn
import hypnls.hypgeom as hg
import hypnls.spectral as sp

# int |p_{1/4}|^2 dmu, high-precision quadrature of the closed form
KERNEL_MASS = 0.0385108368907489432218294792173


def heat_kernel(grid, t):
    r = grid.nodes
    return (4 * math.pi * t) ** -1.5 * (r / np.sinh(r)) * np.exp(-t - r**2 / (4 * t))


def offcenter_bump(grid):
    return fn.RadialField(grid=grid, values=np.exp(-((grid.nodes - 2.0) ** 2)) + 0j)


def test_dimension_guard(grid2):
    with pytest.raises(sp.UnsupportedDimension):
        sp.get_transform(grid2)
    assert issubclass(sp.UnsupportedDimension, ValueError)


def test_transform_is_memoized_per_grid(grid3):
    assert sp.get_transform(grid3) is sp.get_transform(grid3)
    other = hg.build_grid(3, grid3.r_max, grid3.num_points)
    assert sp.get_transform(other) is not sp.get_transform(grid3)
    assert sp.get_transform(other) is sp.get_transform(other)


def test_frequency_nodes_and_symbols(grid3):
    tr = sp.get_transform(grid3)
    n_pts = grid3.num_points
    assert tr.dlam == math.pi / grid3.r_max
    assert np.array_equal(tr.lambda_nodes, (np.arange(n_pts) + 0.5) * tr.dlam)
    assert np.array_equal(tr.x_symbol(), tr.lambda_nodes**2 + 1.0)
    assert np.allclose(tr.density, tr.lambda_nodes**2 / (2 * math.pi**2), rtol=1e-15)


def test_heat_kernel_forward_oracle(grid3):
    p = heat_kernel(grid3, 0.25).astype(complex)
    tr = sp.get_transform(grid3)
    exact = np.exp(-(tr.lambda_nodes**2 + 1.0) / 4.0)
    got = tr.forward(p)
    assert np.max(np.abs(got - exact)) < 1e-10 * np.max(exact)


def test_heat_kernel_mass_three_ways(grid3):
    p = heat_kernel(grid3, 0.25)
    phys = hg.quadrature(p**2, grid3)
    assert abs(phys - KERNEL_MASS) / KERNEL_MASS < 1e-12
    tr = sp.get_transform(grid3)
    vhat = tr.forward(p.astype(complex))
    spec = float(np.sum(np.abs(vhat) ** 2 * tr.density) * tr.dlam)
    assert abs(spec - KERNEL_MASS) / KERNEL_MASS < 1e-12


def test_semigroup_reproduces_explicit_kernel(grid3):
    u = fn.RadialField(grid=grid3, values=heat_kernel(grid3, 0.25).astype(complex))
    prop = sp.heat_semigroup(u, 0.25)
    target = heat_kernel(grid3, 0.5)
    assert np.max(np.abs(prop.values.real - target)) / target.max() < 1e-12
    ident = sp.heat_semigroup(u, 0.0)
    assert np.max(np.abs(ident.values - u.values)) / np.abs(u.values).max() < 1e-12
    with pytest.raises(ValueError):
        sp.heat_semigroup(u, -0.1)


def test_parseval_and_round_trip(grid3):
    u = offcenter_bump(grid3)
    assert sp.parseval_residual(u) < 1e-10
    prof = sp.radial_fourier(u)
    assert prof.rho == 1.0
    back = sp.inverse_fourier(prof, grid3)
    gap = hg.quadrature(np.abs(back.values - u.values) ** 2, grid3)
    ref = hg.quadrature(np.abs(u.values) ** 2, grid3)
    assert math.sqrt(gap / ref) < 1e-5


def test_density_constant_calibration(grid3):
    c = sp.calibrate_density_constant(grid3)
    assert abs(c - 1.0 / (2 * math.pi**2)) * 2 * math.pi**2 < 1e-12


def test_hs_norm_endpoints(grid3):
    u = offcenter_bump(grid3)
    mass = hg.quadrature(np.abs(u.values) ** 2, grid3)
    grad = hg.dirichlet_energy(u.values.real, grid3)
    assert abs(sp.hs_norm(u, 0.0) ** 2 - mass) / mass < 1e-10
    # spectral symbol vs finite-volume stencil differ at O(dr^2)
    assert abs(sp.hs_norm(u, 1.0) ** 2 - grad) / grad < 1e-4


def test_projector_scales(grid3):
    u = offcenter_bump(grid3)
    with pytest.raises(ValueError):
        sp.apply_Pm(u, 0.0)
    sup1 = np.max(np.abs(sp.apply_Pm(u, 1.0).values))
    sup32 = np.max(np.abs(sp.apply_Pm(u, 32.0).values))
    # smooth data has no content at frequency ~32
    assert sup32 < sup1 / 10.0
    sups = sp.pm_sup_profile(u, [1.0, 2.0, 4.0])
    direct = np.array([np.max(np.abs(sp.apply_Pm(u, m).values)) for m in (1.0, 2.0, 4.0)])
    assert np.max(np.abs(sups - direct) / direct) < 1e-12


def test_default_m_samples_quarter_octave():
    ms = sp.default_m_samples()
    assert len(ms) == 21
    assert ms[0] == 1.0 and ms[-1] == 32.0
    assert np.max(np.abs(np.diff(np.log2(ms)) - 0.25)) < 1e-12


def test_besov_norm_guards_and_monotonicity(grid3):
    u = offcenter_bump(grid3)
    with pytest.raises(ValueError):
        sp.besov_norm(u, 0.0)
    with pytest.raises(ValueError):
        sp.besov_norm(u, 1.6)
    # m^{s-3/2} is increasing in s for every sampled m >= 1
    assert sp.besov_norm(u, 1.0) >= sp.besov_norm(u, 0.5) - 1e-15


def test_reconstruction_residual(grid3):
    u = offcenter_bump(grid3)
    full = sp.reconstruction_residual(u)
    assert full < 1e-5
    truncated = sp.reconstruction_residual(u, m_max=2.0)
    assert truncated > 0.1
    assert full < truncated


def test_refined_sobolev_ratio(grid3):
    u = offcenter_bump(grid3)
    with pytest.raises(ValueError):
        sp.refined_sobolev_ratio(u, 1.5)
    for s in (0.5, 1.0):
        ratio = sp.refined_sobolev_ratio(u, s)
        assert math.isfinite(ratio) and 0.1 < ratio < 10.0
    r = sp.pm_sup_ratio(u, 1.0, 4.0)
    assert math.isfinite(r) and r > 0.0


def test_bump_family(grid3):
    fam = sp.bump_family(grid3)
    assert len(fam) == 30
    for f in fam:
        assert f.grid is grid3
        assert np.iscomplexobj(f.values)
        assert np.all(np.isfinite(f.values))
    assert max(np.max(np.abs(f.values)) for f in fam) <= 10.0


def test_inverse_of_stack_matches_single(grid3):
    tr = sp.get_transform(grid3)
    vhat = tr.forward(offcenter_bump(grid3).values)
    stack = np.stack([vhat, 2.0 * vhat, tr.lambda_nodes * vhat])
    many = tr.inverse(stack)
    one = np.stack([tr.inverse(row) for row in stack])
    assert np.max(np.abs(many - one)) / np.max(np.abs(one)) < 1e-12


def test_parseval_and_round_trip_to_roundoff_on_bump_family(grid3):
    tr = sp.get_transform(grid3)
    for u in sp.bump_family(grid3):
        assert sp.parseval_residual(u) < 1e-12
        back = tr.inverse(tr.forward(u.values))
        gap = hg.quadrature(np.abs(back - u.values) ** 2, grid3)
        ref = hg.quadrature(np.abs(u.values) ** 2, grid3)
        assert math.sqrt(gap / ref) < 1e-12


def test_transform_holds_no_dense_kernel(grid3):
    tr = sp.get_transform(grid3)
    held = sum(v.nbytes for v in vars(tr).values() if isinstance(v, np.ndarray))
    assert held < 8 * 8 * grid3.num_points


def test_inverse_fourier_rejects_foreign_nodes(grid3):
    prof = sp.radial_fourier(offcenter_bump(grid3))
    coarse = hg.build_grid(3, grid3.r_max, 1000)
    with pytest.raises(ValueError):
        sp.inverse_fourier(prof, coarse)
