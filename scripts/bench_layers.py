"""Layer timings: one solve, one CN step, its H^1 check and one diagnostics
record of the evolution, one point of the mass curve, one shooting shot and
one Newton polish of a ground state, and one spectral transform.

Times, on the H^3 quick-tier grid (r_max = 20) with N = 2000 and 8000
points, a Gaussian datum 0.5 e^{-r^2} and dt = 2e-3:

- tridiag_solve_us: one Cayley solve as `_CNStepper.step` makes it (the
  stepper's bands of L + shift with phi + 2i/dt added to the diagonal,
  then `hypgeom.solve_banded`), at a fixed dt, on the right-hand side the
  step forms for the Cayley system times 2i/dt;
- cn_step_us: one full step (`_CNStepper.step`) as `evolve_run` drives
  it, with the state (|u|, mass, (L + shift) u) its H^1 check formed; its
  solve count is reported as solves_per_step;
- h1_monitor_us: the H^1 check `evolve_run` makes on every accepted state,
  from the (L + shift) u the step returned;
- diagnostics_record_us: one diagnostics record
  (`functionals.compute_diagnostics`), as `evolve_run` emits it;
- mass_point_us: one point of the mass curve
  (`groundstate.mass_constrained_minimize`: the continuation from Q_0
  along the ground-state branch, its bordered Newton solves and energy
  records) at p = 2 and alpha = 12.86 (criterion 7's first minimizer),
  with Q_0 already solved and memoized on the grid;
- undershoot_shot_us, overshoot_shot_us: one shot of the shooting
  bisection (`groundstate.shooting_classifier`) at (1 - 1e-6) and
  (1 + 1e-6) times the amplitude q0 of the p = 3, lambda = 0.5 ground
  state, a shot that does not cross and one that does;
- newton_polish_us: one Newton polish of the ground-state equation at
  fixed lambda (`groundstate._newton_polish`, run to its stop rule) from
  1.001 times the p = 3, lambda = 0.5 ground state;
- transform_setup_us: one `spectral.SpectralTransform(grid)` build, the
  set-up every new grid pays;
- field_spectrum_us: one `spectral.FieldSpectrum(u).reconstruction_residual()`
  on the grid's warm transform, with u the real bump e^{-(r-2)^2}.

Each figure is the median, with quartiles, of 1000 single-call timings
after 20 warm-up calls, on one BLAS thread. The results are merged into the JSON file
under --label, so that the same script run on two source trees (for
example a checkout of the parent commit and of a change) leaves both
sets side by side:

    python scripts/bench_layers.py --src PARENT/src --label before
    python scripts/bench_layers.py --label after

Needs only the standard library, numpy and the package's own dependencies.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter_ns

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2000, 8000)
DT = 2e-3
MASS_ALPHA = float(np.geomspace(0.1, 20.0, 13)[11])
POLISH_LAMBDA = 0.5
REPEATS = 1000
WARMUP = 20


def _quartiles(samples_ns):
    q1, med, q3 = np.percentile(np.asarray(samples_ns) / 1e3, [25, 50, 75])
    return {"median": round(float(med), 2), "q1": round(float(q1), 2),
            "q3": round(float(q3), 2)}


def _time_calls(call):
    for _ in range(WARMUP):
        call()
    samples = []
    for _ in range(REPEATS):
        start = perf_counter_ns()
        call()
        samples.append(perf_counter_ns() - start)
    return samples


def measure(num_points):
    from hypnls import evolve, functionals, groundstate, hypgeom, spectral

    grid = hypgeom.build_grid(3, 20.0, num_points)
    u = (0.5 * np.exp(-grid.nodes**2)).astype(complex)
    stepper = evolve._CNStepper(grid, 3.0)
    h1_and_norms = evolve._h1_sq_and_norms
    # steady state: the step after one step, with its relaxation predictor
    state = h1_and_norms(u, grid, hypgeom.apply_laplacian(u, grid), 0.0)[1]
    u, phi_half, _, lap = stepper.step(u, DT, None, state)
    phi = 2.0 * np.abs(u) ** 2 - phi_half
    # the step's right-hand side for its Cayley system times 2i/dt
    rhs = (2j / DT) * u - lap - phi * u
    step_args = (u, DT, phi_half, h1_and_norms(u, grid, lap, 0.0)[1])
    h1_monitor = functools.partial(h1_and_norms, u, grid, lap, 0.0)
    field = functionals.RadialField(grid=grid, values=u)
    mass_args = (MASS_ALPHA, 2.0, grid)
    gs = groundstate.solve_ground_state(3.0, POLISH_LAMBDA, grid)
    polish_args = (1.001 * gs.profile, POLISH_LAMBDA, grid, 3.0)
    undershoot_args = (3.0, POLISH_LAMBDA, (1.0 - 1e-6) * gs.q0, grid)
    overshoot_args = (3.0, POLISH_LAMBDA, (1.0 + 1e-6) * gs.q0, grid)
    bump = functionals.RadialField(grid=grid, values=np.exp(-(grid.nodes - 2.0) ** 2))

    solve = _time_calls(lambda: hypgeom.solve_banded(
        stepper.lower, stepper.diag_shift + (phi + 2j / DT), stepper.upper, rhs))
    solves = stepper.step(*step_args)[2]
    step = _time_calls(lambda: stepper.step(*step_args))
    h1 = _time_calls(h1_monitor)
    record = _time_calls(lambda: functionals.compute_diagnostics(0.0, field, 3.0, 0.0))
    mass_point = _time_calls(lambda: groundstate.mass_constrained_minimize(*mass_args))
    undershoot = _time_calls(lambda: groundstate.shooting_classifier(*undershoot_args))
    overshoot = _time_calls(lambda: groundstate.shooting_classifier(*overshoot_args))
    polish = _time_calls(lambda: groundstate._newton_polish(*polish_args))
    setup = _time_calls(lambda: spectral.SpectralTransform(grid))
    recon = _time_calls(lambda: spectral.FieldSpectrum(bump).reconstruction_residual())
    return {
        "tridiag_solve_us": _quartiles(solve),
        "cn_step_us": _quartiles(step),
        "solves_per_step": solves,
        "h1_monitor_us": _quartiles(h1),
        "diagnostics_record_us": _quartiles(record),
        "mass_point_us": _quartiles(mass_point),
        "undershoot_shot_us": _quartiles(undershoot),
        "overshoot_shot_us": _quartiles(overshoot),
        "newton_polish_us": _quartiles(polish),
        "transform_setup_us": _quartiles(setup),
        "field_spectrum_us": _quartiles(recon),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import hypnls from (default: ./src)")
    parser.add_argument("--label", required=True,
                        help="key of this run in the output file, e.g. before/after")
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import scipy

    run = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": 1,
        },
        "repeats": REPEATS,
        "layers": {f"N={n}": measure(n) for n in SIZES},
    }
    out = Path(args.out)
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged[args.label] = run
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: run["layers"]}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
