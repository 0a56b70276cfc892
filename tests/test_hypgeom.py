"""Grid, quadrature, closed-form weights, and the divergence-form Laplacian.

Reference numbers were computed independently with mpmath at 40 digits
(quadrature of closed-form integrands, pointwise special values) and are
frozen here with tolerances matched to the discretization order.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import hypnls.functionals as fn
import hypnls.groundstate as gsm
import hypnls.hypgeom as hg
import hypnls.spectral as sp

# mpmath, 40 digits: mass of e^{-2r^2} on H^3 (u = e^{-r^2})
GAUSS_MASS_3 = 2.55427674425510610721925509326
# pi/6: mass of u = e^{-2r} on H^3
EXP_MASS_3 = math.pi / 6.0
# 196*pi/3375: second moment of u = e^{-2r} on H^2
EXP_SECONDMOM_2 = 0.182445084475140585107756474999
# hyperbolic ball volumes, radius 1
BALL_VOL_2 = 2.0 * math.pi * (math.cosh(1.0) - 1.0)
BALL_VOL_3 = math.pi * (math.sinh(2.0) - 2.0)

# W1 = (r cosh r - sinh r) / sinh^3 r at sample radii (mpmath, 40 digits);
# the first point sits below the series cutoff
W1_TABLE = {
    0.0005: 0.3333333000000019841268915,
    0.01: 0.3333200003174543916305902,
    0.1: 0.332003168686854421726423,
    0.5: 0.3018951574188055100703791,
    1.0: 0.2266568487597090253337797,
    2.0: 0.08169529653728071115850764,
    5.0: 0.0007265472949826713806642674,
    10.0: 7.420153105353793165836114e-8,
}

RCOTH_TABLE = {
    0.0005: None,  # filled against the series below
    0.01: 1.000033333111113227492064,
    0.1: 1.003331113225398961014527,
    0.5: 1.081976706869326424385002,
    1.0: 1.313035285499331303636161,
    2.0: 2.07462944145509619175562,
    5.0: 5.00045401991009687768329,
}

# Laplace-Beltrami of e^{-r^2} on H^2 at radii that are exact nodes of the
# 19980-point grid (mpmath): (4r^2 - 2 - 2r coth r) e^{-r^2}
LAP_ORACLE_2 = {0.5: -2.4640893962211074726, 1.5: 0.38846210356411430684}


def test_spectrum_bottom_and_sphere_area():
    assert hg.spectrum_bottom(2) == 0.25
    assert hg.spectrum_bottom(3) == 1.0
    assert hg.build_grid(2, 20.0, 16).sphere_area == 2.0 * math.pi
    assert hg.build_grid(3, 20.0, 16).sphere_area == 4.0 * math.pi


def test_build_grid_structure(grid3):
    g = grid3
    assert g.dr == 0.01
    assert g.nodes[0] == 0.5 * g.dr
    assert abs(g.nodes[-1] - (20.0 - 0.5 * g.dr)) < 1e-14
    assert g.edges[0] == 0.0 and g.edges[-1] == 20.0
    # no node on the coordinate singularity
    assert g.nodes.min() > 0.0
    assert np.array_equal(g.vol_weights, g.sphere_area * g.node_density * g.dr)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        hg.build_grid(4, 20.0, 100)
    with pytest.raises(ValueError):
        hg.build_grid(3, -1.0, 100)
    with pytest.raises(ValueError):
        hg.build_grid(3, 20.0, 8)
    # an r_max at which sinh^{n-1}, at the nodes, the edges or times
    # the cell measure, overflows is refused, and without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, r_max, points in ((3, 356.0, 16), (3, 400.0, 8000), (2, 711.0, 16)):
            with pytest.raises(ValueError, match="overflows the volume density"):
                hg.build_grid(n, r_max, points)
        for n, r_max in ((3, 350.0), (2, 700.0)):
            grid = hg.build_grid(n, r_max, 8000)
            assert all(np.isfinite(a).all()
                       for a in (grid.node_density, grid.edge_density, grid.vol_weights))


def test_quadrature_closed_forms(grid3, grid2):
    r3, r2 = grid3.nodes, grid2.nodes
    assert abs(hg.quadrature(np.exp(-2.0 * r3**2), grid3) - GAUSS_MASS_3) < 1e-12
    # integrands with vanishing odd derivatives at both ends see the
    # midpoint rule superconverge past its generic O(dr^2)
    assert abs(hg.quadrature(np.exp(-4.0 * r3), grid3) - EXP_MASS_3) < 1e-7
    assert abs(hg.quadrature(r2**2 * np.exp(-4.0 * r2), grid2) - EXP_SECONDMOM_2) < 1e-7
    # indicator of the unit ball: the jump sits on a cell edge
    assert abs(hg.quadrature((r2 < 1.0).astype(float), grid2) - BALL_VOL_2) < 1e-4 * BALL_VOL_2
    assert abs(hg.quadrature((r3 < 1.0).astype(float), grid3) - BALL_VOL_3) < 1e-3 * BALL_VOL_3


def test_quadrature_rejects_wrong_length(grid3):
    with pytest.raises(ValueError):
        hg.quadrature(np.ones(grid3.num_points - 1), grid3)


@pytest.mark.parametrize("take", [
    lambda values, grid: fn.RadialField(grid=grid, values=values),
    hg.apply_laplacian,
    hg.dirichlet_energy,
], ids=["RadialField", "apply_laplacian", "dirichlet_energy"])
def test_wrong_length_field_is_refused(grid3, take):
    with pytest.raises(ValueError, match="length does not match grid"):
        take(np.ones(grid3.num_points - 1), grid3)


def _noise_field(grid, seed, decay=2.0):
    rng = np.random.default_rng(seed)
    env = np.exp(-decay * grid.nodes)
    return (rng.standard_normal(grid.num_points)
            + 1j * rng.standard_normal(grid.num_points)) * env


def test_summation_by_parts_exact(grid3, grid2):
    # <-L u, u>_mu == dirichlet_energy to roundoff, complex data included
    for grid, seed in ((grid3, 7), (grid2, 8)):
        u = _noise_field(grid, seed)
        lhs = -np.real(hg.quadrature(np.conj(u) * hg.apply_laplacian(u, grid), grid))
        rhs = hg.dirichlet_energy(u, grid)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_laplacian_symmetry(grid3):
    u = _noise_field(grid3, 11)
    v = _noise_field(grid3, 12)
    s_uv = hg.quadrature(np.conj(v) * hg.apply_laplacian(u, grid3), grid3)
    s_vu = hg.quadrature(np.conj(hg.apply_laplacian(v, grid3)) * u, grid3)
    assert abs(s_uv - s_vu) < 1e-12 * abs(s_uv)


def test_apply_laplacian_matches_bands(grid3):
    u = _noise_field(grid3, 13)
    lower, diag, upper = hg.laplacian_bands(grid3)
    out = diag * u
    out[:-1] += upper[:-1] * u[1:]
    out[1:] += lower[1:] * u[:-1]
    assert np.allclose(hg.apply_laplacian(u, grid3), out, rtol=0, atol=0)
    shifted = hg.apply_laplacian(u, grid3, shift=0.5)
    assert np.allclose(shifted, out + 0.5 * u, rtol=0, atol=1e-13 * np.max(np.abs(out)))


def test_laplacian_point_oracle():
    # 19980 points puts r = 0.5 and r = 1.5 exactly on nodes
    grid = hg.build_grid(2, 20.0, 19980)
    lap = hg.apply_laplacian(np.exp(-grid.nodes**2), grid)
    for r0, expected in LAP_ORACLE_2.items():
        j = int(round(r0 / grid.dr - 0.5))
        assert grid.nodes[j] == r0
        assert abs(lap[j] - expected) < 1e-5


def test_laplacian_eigenfunction_refinement():
    # L cosh = 3 cosh on H^3; away from the origin cell the pointwise
    # residual refines at second order
    resids = []
    for num in (2000, 4000):
        grid = hg.build_grid(3, 20.0, num)
        f = np.cosh(grid.nodes)
        res = hg.apply_laplacian(f, grid) - 3.0 * f
        window = (grid.nodes > 2.0) & (grid.nodes < 10.0)
        resids.append(np.max(np.abs(res[window])))
    assert resids[0] < 2.0
    assert 3.5 < resids[0] / resids[1] < 4.5


def test_dirichlet_energy_unit_edge_weight(grid3):
    u = _noise_field(grid3, 14)
    weighted = hg.dirichlet_energy(u, grid3, edge_weight=np.ones(grid3.num_points + 1))
    assert weighted == hg.dirichlet_energy(u, grid3)


@pytest.mark.parametrize("extra_diag, shift", [
    (lambda r: 0.0, -1.0),
    (lambda r: np.exp(-r), 0.0),
    (lambda r: np.exp(-r) + 1000j, 0.5),
], ids=["scalar", "real", "complex"])
def test_shifted_bands_matches_dense_solve(extra_diag, shift):
    grid = hg.build_grid(3, 20.0, 64)
    extra = extra_diag(grid.nodes)
    lower, diag, upper = hg.laplacian_bands(grid)
    dense = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    matrix = dense + np.diag(shift + extra + np.zeros(grid.num_points))
    rhs = _noise_field(grid, 15)
    got = hg.solve_banded(*hg.shifted_bands(grid, extra, shift=shift), rhs)
    assert np.allclose(got, np.linalg.solve(matrix, rhs), rtol=1e-12, atol=0)


def test_shifted_bands_share_the_laplacian_off_diagonals(grid3):
    # dt and phi enter the diagonal only: the off-diagonals of every
    # shifted system are read-only views of the grid's Laplacian bands
    lower, _, upper = hg.laplacian_bands(grid3)
    dl, d, du = hg.shifted_bands(grid3, np.exp(-grid3.nodes) + 1000j, 0.5)
    assert np.shares_memory(dl, lower) and np.shares_memory(du, upper)
    assert not dl.flags.writeable and not du.flags.writeable
    assert dl.dtype == du.dtype == np.float64 and d.dtype == np.complex128


def _random_tridiagonal(num, kind, seed):
    rng = np.random.default_rng(seed)

    def draw(size, cplx):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if cplx else x

    cplx = kind != "real"
    dl, d, du = draw(num - 1, cplx), draw(num, cplx), draw(num - 1, cplx)
    return dl, d, du, draw(num, kind == "complex")


@pytest.mark.parametrize("num", [64, 2000])
@pytest.mark.parametrize("kind", ["real", "complex", "complex bands, real rhs"])
def test_solve_banded_is_scipy_gtsv(num, kind):
    # scipy.linalg.solve_banded((1, 1), ...) runs the same gtsv on the same
    # operands, so the solutions agree bit for bit
    dl, d, du, rhs = _random_tridiagonal(num, kind, 16)
    ab = np.zeros((3, num), dtype=np.result_type(dl, d, du))
    ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
    inputs = [x.copy() for x in (dl, d, du, rhs)]
    got = hg.solve_banded(dl, d, du, rhs)
    assert got.dtype == np.result_type(dl, d, du, rhs)
    assert np.array_equal(got, scipy.linalg.solve_banded((1, 1), ab, rhs))
    for before, after in zip(inputs, (dl, d, du, rhs)):
        assert np.array_equal(before, after)


def test_solve_banded_failures(monkeypatch):
    dl, d, du, rhs = _random_tridiagonal(64, "real", 17)
    zero_pivot = d.copy()
    zero_pivot[5] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        hg.solve_banded(np.zeros(63), zero_pivot, np.zeros(63), rhs)
    bad_rhs = rhs.copy()
    bad_rhs[10] = np.nan
    with pytest.raises(ValueError):
        hg.solve_banded(dl, d, du, bad_rhs)

    def refusing(dl, d, du, rhs):
        # gtsv refusing its third argument: info < 0
        return dl, d, du, rhs, -3

    monkeypatch.setattr(hg, "_GTSV", (refusing, refusing))
    with pytest.raises(ValueError, match="illegal value in argument 3 of gtsv") as info:
        hg.solve_banded(dl, d, du, rhs)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def _fresh_python(code: str) -> str:
    # stdout of code run by a new interpreter that imports this source tree
    src = str(Path(hg.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


def test_lapack_loads_on_first_solve():
    # importing the command line leaves scipy.linalg unloaded; the first
    # banded solve loads it
    out = _fresh_python(
        "import sys; import numpy as np; import hypnls.expcli; "
        "import hypnls.hypgeom as hg; "
        "print('scipy.linalg' in sys.modules); "
        "hg.solve_banded(np.ones(1), np.full(2, 3.0), np.ones(1), np.ones(2)); "
        "print('scipy.linalg' in sys.modules)"
    )
    assert out.split() == ["False", "True"]


def test_fft_loads_on_first_transform():
    # importing the command line loads no scipy module at all; the first
    # radial transform loads scipy.fft
    out = _fresh_python(
        "import sys; import numpy as np; import hypnls.expcli; "
        "import hypnls.hypgeom as hg; import hypnls.spectral as sp; "
        "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules)); "
        "grid = hg.build_grid(3, 20.0, 64); "
        "sp.SpectralTransform(grid).forward(np.exp(-grid.nodes ** 2)); "
        "print('scipy.fft' in sys.modules)"
    )
    assert out.split() == ["False", "True"]


def test_submodule_imports_alone():
    # the package re-exports nothing, so one submodule loads neither its
    # siblings nor scipy
    out = _fresh_python(
        "import json, sys; import hypnls.hypgeom; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('hypnls', 'scipy'))))"
    )
    assert json.loads(out) == ["hypnls", "hypnls.hypgeom"]


def test_dirichlet_energy_gaussian_refinement():
    # mpmath: dirichlet energy of e^{-r^2} on H^3
    exact = 9.04595597494081715051117168515
    errs = []
    for num in (2000, 4000):
        grid = hg.build_grid(3, 20.0, num)
        errs.append(abs(hg.dirichlet_energy(np.exp(-grid.nodes**2), grid) - exact))
    assert errs[0] < 1e-5 * exact
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_w1_weight_pointwise():
    pts = np.array(sorted(W1_TABLE))
    expected = np.array([W1_TABLE[r] for r in sorted(W1_TABLE)])
    got = hg.w1_weight(pts)
    # just above the cutoff the direct branch cancels ~5 digits; the frozen
    # table keeps that regime covered at its honest accuracy
    assert np.max(np.abs(got - expected) / expected) < 1e-10


def test_w1_weight_sup_and_seam():
    r = np.linspace(1e-6, 30.0, 300001)
    vals = hg.w1_weight(r)
    assert np.all(vals > 0.0)
    assert abs(np.max(vals) - 1.0 / 3.0) < 1e-6
    # series/direct seam at the cutoff radius
    lo = hg.w1_weight(np.array([hg.SERIES_CUTOFF - 1e-9]))[0]
    hi = hg.w1_weight(np.array([hg.SERIES_CUTOFF + 1e-9]))[0]
    assert abs(lo - hi) < 1e-8


def test_r_coth_r_pointwise():
    pts = np.array([r for r in sorted(RCOTH_TABLE) if RCOTH_TABLE[r] is not None])
    expected = np.array([RCOTH_TABLE[r] for r in pts])
    assert np.max(np.abs(hg.r_coth_r(pts) - expected)) < 1e-13
    # below the cutoff the series takes over: r coth r = 1 + r^2/3 - ...
    r0 = 5e-4
    assert abs(hg.r_coth_r(np.array([r0]))[0] - (1.0 + r0**2 / 3.0)) < 1e-14


def test_coth_series_seam():
    r0 = 5e-4
    assert abs(hg.coth(np.array([r0]))[0] - (1.0 / r0 + r0 / 3.0)) < 1e-9
    # coth itself has slope ~ -1/r^2 at the cutoff, so seam continuity is
    # checked through r * coth(r), which is flat there
    pts = np.array([hg.SERIES_CUTOFF - 1e-9, hg.SERIES_CUTOFF + 1e-9])
    assert np.allclose(hg.coth(pts) * pts, hg.r_coth_r(pts), rtol=1e-12)


def test_cached_weights_memoized(grid3):
    weights = hg.cached_weights(grid3)
    assert weights is hg.cached_weights(grid3)
    w1, w2 = weights
    r = grid3.nodes
    assert np.allclose(w1, hg.w1_weight(r), rtol=1e-14)
    assert np.allclose(w2, 1.0 + 2.0 * hg.r_coth_r(r), rtol=1e-14)
    bands = hg.laplacian_bands(grid3)
    assert bands is hg.laplacian_bands(grid3)
    loc = fn.localized_weights(grid3, 8.0)
    assert loc is fn.localized_weights(grid3, 8.0)
    # inside r <= R the weight is r^2: Lap r^2 = 2 + 2(n-1) r coth r, and
    # n = 3 kills the W1 term in the bi-Laplacian weight
    inside = r <= 8.0
    assert np.allclose(loc[0][inside], 2.0 + 4.0 * hg.r_coth_r(r[inside]), rtol=1e-14)
    assert np.allclose(loc[1][inside], 8.0, rtol=0, atol=1e-12)
    for arr in bands + loc + weights:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # every table built from a fresh grid lives in the grid's one memo dict
    grid = hg.build_grid(3, 20.0, 64)
    builders = (
        hg.laplacian_bands,
        hg.cached_weights,
        lambda g: fn.localized_weights(g, 4.0),
        lambda g: fn.localized_weights(g, 8.0),
        sp.get_transform,
        gsm._damping_lattice,
        gsm._potential_lattice,
    )
    tables = [build(grid) for build in builders]
    gsm.shooting_classifier(3.0, 0.0, 1.0, grid)
    field_names = {f.name for f in dataclasses.fields(grid)}
    assert set(vars(grid)) - field_names == {"_tables"}
    assert fn.localized_weights(grid, 8) is fn.localized_weights(grid, 8.0)
    # a second grid with equal parameters gets its own tables
    twin = hg.build_grid(3, 20.0, 64)
    for build, table in zip(builders, tables):
        assert build(grid) is table
        assert build(twin) is not table
    # every ndarray of every shared table is read-only: the bands (3), the
    # weights (2), two localized tables (3 each) and the transform (7)
    arrays = [
        part
        for table in tables
        for part in (table if isinstance(table, tuple) else vars(table).values())
        if isinstance(part, np.ndarray)
    ]
    assert len(arrays) == 18
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
