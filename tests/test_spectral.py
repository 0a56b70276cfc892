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
    assert np.array_equal(tr.x_symbol, tr.lambda_nodes**2 + 1.0)
    assert np.allclose(tr.density, tr.lambda_nodes**2 / (2 * math.pi**2), rtol=1e-15)
    for row, m in zip(tr.pm_symbols, sp.M_SAMPLES):
        assert np.array_equal(row, sp.pm_symbol(tr.x_symbol, m))
    assert not tr.pm_symbols.flags.writeable


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
    tr = sp.get_transform(grid3)
    vhat = tr.forward(heat_kernel(grid3, 0.25).astype(complex))
    prop = tr.inverse(np.exp(-0.25 * tr.x_symbol) * vhat)
    target = heat_kernel(grid3, 0.5)
    assert np.max(np.abs(prop.real - target)) / target.max() < 1e-12


def test_parseval_and_round_trip(grid3):
    u = offcenter_bump(grid3)
    assert sp.FieldSpectrum(u).parseval_residual() < 1e-10
    tr = sp.get_transform(grid3)
    back = tr.inverse(tr.forward(u.values))
    gap = hg.quadrature(np.abs(back - u.values) ** 2, grid3)
    ref = hg.quadrature(np.abs(u.values) ** 2, grid3)
    assert math.sqrt(gap / ref) < 1e-5


def test_hs_norm_endpoints(grid3):
    u = offcenter_bump(grid3)
    spec = sp.FieldSpectrum(u)
    mass = hg.quadrature(np.abs(u.values) ** 2, grid3)
    grad = hg.dirichlet_energy(u.values.real, grid3)
    assert spec.mass == mass
    assert abs(spec.hs_norm(0.0) ** 2 - mass) / mass < 1e-10
    # spectral symbol vs finite-volume stencil differ at O(dr^2)
    assert abs(spec.hs_norm(1.0) ** 2 - grad) / grad < 1e-4


def test_projector_scales(grid3):
    u = offcenter_bump(grid3)
    tr = sp.get_transform(grid3)
    vhat = tr.forward(u.values)
    x = tr.x_symbol

    def sup_pm(m):  # unbatched oracle: one inverse transform per scale
        return np.max(np.abs(tr.inverse(sp.pm_symbol(x, m) * vhat)))

    # smooth data has no content at frequency ~32
    assert sup_pm(32.0) < sup_pm(1.0) / 10.0
    sups = sp.FieldSpectrum(u).sups
    assert sups.shape == sp.M_SAMPLES.shape
    direct = np.array([sup_pm(m) for m in sp.M_SAMPLES])
    assert np.max(np.abs(sups - direct) / direct) < 1e-12


def test_default_m_samples_quarter_octave():
    ms = sp.M_SAMPLES
    assert len(ms) == 21
    assert ms[0] == 1.0 and ms[-1] == 32.0
    assert np.max(np.abs(np.diff(np.log2(ms)) - 0.25)) < 1e-12


def test_besov_norm_guards_and_monotonicity(grid3):
    spec = sp.FieldSpectrum(offcenter_bump(grid3))
    with pytest.raises(ValueError):
        spec.besov_norm(0.0)
    with pytest.raises(ValueError):
        spec.besov_norm(1.6)
    # m^{s-3/2} is increasing in s for every sampled m >= 1
    assert spec.besov_norm(1.0) >= spec.besov_norm(0.5) - 1e-15


def test_reconstruction_residual(grid3):
    assert sp.FieldSpectrum(offcenter_bump(grid3)).reconstruction_residual() < 1e-5


@pytest.mark.parametrize("m, wrong_m", [(4.0, 4.2), (1.0, 1.05)])
def test_reconstruction_reads_the_pm_rows(grid3, monkeypatch, m, wrong_m):
    # a P_m row tabulated at the wrong scale fails the family's 1e-3 gate
    tr = sp.get_transform(grid3)
    bad = tr.pm_symbols.copy()
    bad[list(sp.M_SAMPLES).index(m)] = sp.pm_symbol(tr.x_symbol, wrong_m)
    monkeypatch.setattr(tr, "pm_symbols", bad)
    family = sp.bump_family(grid3)
    assert max(sp.FieldSpectrum(u).reconstruction_residual() for u in family) > 1e-3


def test_refined_sobolev_ratio(grid3):
    spec = sp.FieldSpectrum(offcenter_bump(grid3))
    with pytest.raises(ValueError):
        spec.refined_sobolev_ratio(1.5)
    for s in (0.5, 1.0):
        ratio = spec.refined_sobolev_ratio(s)
        assert math.isfinite(ratio) and 0.1 < ratio < 10.0


def test_bump_family(grid3):
    fam = sp.bump_family(grid3)
    assert len(fam) == 30
    for f in fam:
        assert f.grid is grid3
        assert f.values.dtype == np.float64
        assert np.all(np.isfinite(f.values))
    assert max(np.max(np.abs(f.values)) for f in fam) <= 10.0


def test_inverse_of_stack_matches_single(grid3):
    tr = sp.get_transform(grid3)
    vhat = tr.forward(offcenter_bump(grid3).values)
    stack = np.stack([vhat, 2.0 * vhat, tr.lambda_nodes * vhat])
    many = tr.inverse(stack)
    one = np.stack([tr.inverse(row) for row in stack])
    assert np.max(np.abs(many - one)) / np.max(np.abs(one)) < 1e-12


def test_real_fields_transform_as_the_real_part_of_complex(grid3):
    # spectral-check results do not depend on whether a field is stored real
    tr = sp.get_transform(grid3)
    u = offcenter_bump(grid3).values.real
    vhat = tr.forward(u)
    assert np.array_equal(vhat, tr.forward(u + 0j).real)
    stack = np.stack([vhat, sp.pm_symbol(tr.x_symbol, 2.0) * vhat])
    assert np.array_equal(tr.inverse(stack), tr.inverse(stack + 0j).real)


def test_parseval_and_round_trip_to_roundoff_on_bump_family(grid3):
    tr = sp.get_transform(grid3)
    for u in sp.bump_family(grid3):
        assert sp.FieldSpectrum(u).parseval_residual() < 1e-12
        back = tr.inverse(tr.forward(u.values))
        gap = hg.quadrature(np.abs(back - u.values) ** 2, grid3)
        ref = hg.quadrature(np.abs(u.values) ** 2, grid3)
        assert math.sqrt(gap / ref) < 1e-12


def test_transform_holds_no_dense_kernel(grid3):
    # per-node vectors plus the P_m table's one row per scale: linear in N
    tr = sp.get_transform(grid3)
    held = sum(v.nbytes for v in vars(tr).values() if isinstance(v, np.ndarray))
    assert held < 8 * (8 + len(sp.M_SAMPLES)) * grid3.num_points

