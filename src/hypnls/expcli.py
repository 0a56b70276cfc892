"""Experiment command line: recipes, persistence, plot-data emission.

Subcommands: plotdata, and the rows of COMMANDS, which run on a resolved
configuration: the PARAMS whose keys the row lists, its only flags, each
resolved in order: flag > config file (key=value lines) > subcommand
default (COMMAND_DEFAULTS) > resolution tier (TIERS) > built-in default.
Every output embeds these parameters but `out` and their sha256 digest
(_write_table, _write_payload). Outputs are deterministic for a fixed
config: floats are serialized with repr (shortest round trip), JSON keys
sorted, line endings LF, files written via temp + rename.

Exit codes: 0 all gates passed, 1 a scientific check failed, 2 usage or
configuration error, 3 solver failure. Subcommands return their report's
payload and raise; main maps a false `passed` of the payload to 1 and each
exception to its exit code and one JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import functionals as fn
from . import groundstate as gsmod
from . import spectral as sp
from .evolve import (InnerSolveFailure, IntegratorConfig, evolve_run,
                     scattering_proxy, virial_consistency)
from .hypgeom import SUPPORTED_DIMENSIONS, build_grid, spectrum_bottom, w1_weight

TIERS = {
    "quick": {"points": 2000, "dt": 2e-3, "horizon": 3.0},
    "production": {"points": 8000, "dt": 5e-4, "horizon": 10.0},
}
COMMAND_DEFAULTS = {
    # a unit of time resolves the comparison already
    "virial-check": {"horizon": 1.0},
    # the bump family's spectral quantities are grid-converged at 2000
    # points, well below production size, so both tiers use 2000
    "spectral-check": {"points": 2000},
    "dichotomy": {"alpha": [0.5, 0.9, 1.1, 1.5]},
    "mass-curve": {"alpha": list(np.geomspace(0.1, 20.0, 13))},
}
# threshold used by the dichotomy recipe: low enough that the crossing
# happens while the collapse profile is still resolved on every tier
DICHOTOMY_H1_FACTOR = 10.0

EXIT_PASS = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


class UsageError(ValueError):
    pass


class CheckFailure(Exception):
    """A scientific check that could not be carried out: exit 1."""


def finite_float(text: str) -> float:
    """float(text), refusing nan and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


class Param(NamedTuple):
    """One parameter: the flag --key and the config-file key `key` set the
    ExperimentConfig field `attr`, both through `cast`."""

    attr: str
    key: str
    cast: Callable[[str], Any]
    default: Any  # built-in default, below the tier's and the subcommand's
    help: str
    choices: Optional[Tuple[str, ...]] = None
    many: bool = False  # repeatable flag; comma-separated in a config file


PARAMS = (
    # tier is the first row: the defaults of the rows below depend on it
    Param("tier", "tier", str, "quick", "resolution tier", choices=tuple(TIERS)),
    Param("n", "n", int, 3, "dimension of H^n (2 or 3)"),
    Param("p", "p", finite_float, 3.0, "nonlinearity power"),
    Param("lam", "lambda", finite_float, 0.0, "frequency shift"),
    Param("alphas", "alpha", finite_float, None,
          "datum amplitude or mass (repeatable; comma-separated in a config file)",
          many=True),
    Param("rmax", "rmax", finite_float, 20.0, "domain radius"),
    Param("points", "points", int, None, "grid points"),
    Param("dt", "dt", finite_float, None, "base time step"),
    Param("horizon", "horizon", finite_float, None, "integration horizon"),
    Param("out_dir", "out", str, None, "output directory"),
    Param("fmt", "format", str.lower, "json", "report format", choices=("csv", "json")),
)


class ExperimentConfig(SimpleNamespace):
    """A resolved configuration: `command` and one attribute per row of
    PARAMS that the command reads."""

    def params_dict(self) -> dict:
        """The command and each parameter it reads but `out`: the reports'
        "params", and what the digest hashes."""
        out = {"command": self.command}
        out.update((p.key, getattr(self, p.attr)) for p in PARAMS
                   if p.key in COMMANDS[self.command][2] and p.key != "out")
        return out

    def digest(self) -> str:
        # str of a float is its repr, the shortest round trip
        items = {k: ",".join(map(str, v)) if isinstance(v, list) else str(v)
                 for k, v in self.params_dict().items()}
        text = "\n".join(f"{k}={items[k]}" for k in sorted(items))
        return hashlib.sha256(text.encode()).hexdigest()


def parse_config_file(path: str) -> Dict[str, Any]:
    """The values of a flat key=value file by key, each cast and checked like
    its flag whatever the subcommand; an empty list (`alpha=`) is None."""
    params = {param.key: param for param in PARAMS}
    vals: Dict[str, Any] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, text = (part.strip() for part in line.split("=", 1))
                if key not in params:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                param = params[key]
                try:
                    value = ([param.cast(a) for a in text.split(",") if a.strip()] or None
                             if param.many else param.cast(text))
                except ValueError as exc:
                    raise UsageError(f"config key {key!r}: {exc}") from exc
                if param.choices and value not in param.choices:
                    raise UsageError(
                        f"unknown {key} {value!r}; options: {', '.join(param.choices)}"
                    )
                vals[key] = value
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return vals


def resolve_config(args) -> ExperimentConfig:
    file_vals = parse_config_file(args.config) if args.config else {}
    defaults = COMMAND_DEFAULTS.get(args.command, {})
    values: Dict[str, Any] = {}
    for param in (p for p in PARAMS if p.key in COMMANDS[args.command][2]):
        value = getattr(args, param.attr)
        if value is None:
            value = file_vals.get(param.key)
        if value is None:
            value = defaults.get(param.key, param.default)
        if param.many:
            # one canonical list, so the same work has one digest
            value = sorted(set(value))
        values[param.attr] = value
        if param.attr == "tier":
            defaults = {**TIERS[value], **defaults}
    return ExperimentConfig(command=args.command, **values)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path through a uniquely named temporary file in the
    same directory, so concurrent writers never share a temporary file and
    readers see either the old or the new content."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates 0600; give the file the mode open() would
        # (os.umask reads the mask only by setting it)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, digest: str, header: Sequence[str], rows) -> None:
    lines = [f"# config_digest={digest}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(x) for x in row))
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_csv(path: str):
    """Returns (digest, header, rows-as-strings). Raises UsageError."""
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not lines or not lines[0].startswith("# config_digest="):
        raise UsageError(f"{path}: missing config digest line")
    digest = lines[0].split("=", 1)[1]
    if len(lines) < 2:
        raise UsageError(f"{path}: missing header row")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    ragged = [k for k, row in enumerate(rows, 1) if len(row) != len(header)]
    if ragged:
        raise UsageError(f"{path}: data row {ragged[0]} does not match the header")
    return digest, header, rows


def _err(code: int, reason: str) -> int:
    sys.stderr.write(json.dumps({"error": reason, "code": code}) + "\n")
    return code


def _outpath(out: Optional[str], name: str) -> str:
    """Path of an output file in `out` (the --out flag or config key), else
    in the working directory; the directory is created."""
    out_dir = out or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# the layouts plotdata reshapes, as the subcommands write them; pairwise
# distinct, so a file's header names its layout
PLOT_HEADERS = {
    "diagnostics": list(fn.DIAGNOSTICS_COLUMNS),
    "profile": ["r", "Q"],
    "spectrum": ["lambda", "re", "im", "density"],
}


def _write_table(cfg: ExperimentConfig, name: str, header: Sequence[str], rows) -> None:
    """The CSV file `name`: the digest line of cfg, the header, the rows."""
    write_csv(_outpath(cfg.out_dir, name), cfg.digest(), header, rows)


def _write_payload(cfg: ExperimentConfig, name: str, payload: dict) -> None:
    """The JSON file `name`: the digest and params of cfg, and the payload."""
    envelope = {"config_digest": cfg.digest(), "params": cfg.params_dict(), **payload}
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    write_text_atomic(_outpath(cfg.out_dir, name), text)


def _leaves(node, path=()) -> list:
    """(key path joined with /, value) of each leaf of a nested dict, in the
    JSON's sorted key order."""
    if not isinstance(node, dict):
        return [("/".join(path), node)]
    return [leaf for key in sorted(node) for leaf in _leaves(node[key], path + (key,))]


def _write_report(cfg: ExperimentConfig, stem: str, payload: dict) -> None:
    """The report `stem`: the payload in json format; in csv format its
    `rows` as a table, one column per key, else one row per leaf."""
    if cfg.fmt == "json":
        _write_payload(cfg, stem + ".json", payload)
    elif "rows" in payload:
        rows = payload["rows"]
        _write_table(cfg, stem + ".csv", list(rows[0]), (row.values() for row in rows))
    else:
        _write_table(cfg, stem + ".csv", ("quantity", "value"), _leaves(payload))


def _numtag(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


# ---------------------------------------------------------------------------
# groundstate
# ---------------------------------------------------------------------------

def cmd_groundstate(cfg: ExperimentConfig) -> dict:
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    gs = gsmod.solve_ground_state(cfg.p, cfg.lam, grid)
    kappa = gsmod.far_field_rate(cfg.n, cfg.lam)
    # the far-field log-slope of the profile over [r_max/2, 3 r_max/4]
    r = grid.nodes
    lo = int(np.searchsorted(r, grid.r_max / 2.0))
    hi = int(np.searchsorted(r, 0.75 * grid.r_max))
    slope = np.polyfit(r[lo:hi], np.log(gs.profile[lo:hi]), 1)[0]
    tag = f"n{cfg.n}_p{_numtag(cfg.p)}_lam{_numtag(cfg.lam)}"

    # uniqueness window of the sub-threshold theory
    uniqueness = cfg.lam <= 2.0 * (cfg.p + 1.0) / (cfg.p + 3.0) ** 2

    payload = {
        "q0": gs.q0,
        "hlam_sq": gs.hlam_sq,
        "lp1": gs.lp1,
        "elam": gs.elam,
        "dlam": gs.dlam,
        "far_field_rate": kappa,
        "residuals": {k: float(v) for k, v in gs.residuals.items()},
        "logslope_dev": float(abs(slope + kappa) / kappa),
        "uniqueness_regime": bool(uniqueness),
        "passed": bool(
            gs.residuals["pohozaev"] < 1e-5
            and gs.residuals["energy_ratio"] < 1e-5
            and gs.residuals["g_value"] < 1e-4
        ),
    }
    _write_payload(cfg, f"groundstate_{tag}.json", payload)
    _write_table(cfg, f"groundstate_{tag}.csv", PLOT_HEADERS["profile"],
                 zip(grid.nodes, gs.profile))
    return payload


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def dichotomy_row(gs, alpha: float, dt: float, horizon: float):
    """The forward run of alpha * Q and its report row: (row, RunOutcome)."""
    icfg = IntegratorConfig(
        dt=dt, blowup_h1_factor=DICHOTOMY_H1_FACTOR, diag_stride=10.0
    )
    u0 = gs.field_on_grid()
    u0.values = alpha * u0.values
    # alpha * Q is real, so the backward-time run is the conjugate of this
    # one and classifies the datum the same way
    out = evolve_run(u0, horizon, icfg, gs.p, gs.lam, gs)
    # the t = 0 record holds the functionals of the datum itself
    delta0 = out.series[0].delta_lambda
    elam_ratio = out.series[0].energy_lambda / gs.elam
    row = {
        "alpha": alpha,
        "delta_sign": "+" if delta0 > 0 else ("-" if delta0 < 0 else "0"),
        "elam_ratio": elam_ratio,
        "status": out.status,
        "t_star": out.t_star,
        "blowup_reason": out.blowup_reason,
        "proxy": scattering_proxy(out) if out.status == "completed" else "",
        "trapped": bool(elam_ratio <= 1.0 + 1e-12),
    }
    return row, out


def cmd_dichotomy(cfg: ExperimentConfig) -> dict:
    if not ((cfg.n == 2 and cfg.p >= 3) or (cfg.n == 3 and 7.0 / 3.0 <= cfg.p < 5)):
        sys.stderr.write(
            f"warning: (n, p) = ({cfg.n}, {cfg.p}) is outside the dichotomy "
            "range (n=2, p>=3 or n=3, 7/3<=p<5); running anyway\n"
        )
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    gs = gsmod.solve_ground_state(cfg.p, cfg.lam, grid)

    rows = []
    row_files = []
    for alpha in cfg.alphas:
        row, out = dichotomy_row(gs, alpha, cfg.dt, cfg.horizon)
        fname = f"dichotomy_alpha{_numtag(alpha)}_fwd.csv"
        _write_table(cfg, fname, PLOT_HEADERS["diagnostics"],
                     (rec.row() for rec in out.series))
        row_files.append(fname)
        rows.append(row)

    payload = {"blowup_h1_factor": DICHOTOMY_H1_FACTOR, "rows": rows,
               "row_files": row_files}
    _write_report(cfg, "dichotomy_report", payload)
    if any(r["status"] == "inner_solve_failure" for r in rows):
        raise InnerSolveFailure("inner solve failure in the dichotomy sweep")
    return payload


# ---------------------------------------------------------------------------
# virial check
# ---------------------------------------------------------------------------

def virial_sweep(grid, p: float, lam: float, dt: float, horizon: float):
    """The run of 0.5 e^{-r^2} with 100 records per unit time: (RunOutcome,
    mismatch, gaps). mismatch is virial_consistency of the run; gaps maps
    each radius of the R sweep to the max over the records of the localized
    virial's distance from G, relative to |G|. Both are None unless the run
    completed."""
    u0 = fn.RadialField(
        grid=grid, values=(0.5 * np.exp(-grid.nodes**2)).astype(complex)
    )
    icfg = IntegratorConfig(dt=dt, diag_stride=100.0)

    sweep_radii = (4.0, fn.LOC_VIRIAL_RADIUS, 16.0)
    # each record's loc_virial is the localized virial at LOC_VIRIAL_RADIUS
    # of the same field, so the monitor forms the other radii only
    localized = []  # per record, {radius: localized virial}

    def monitor(t, field):
        localized.append({
            radius: fn.localized_virial_rhs(field, radius, p=p)
            for radius in sweep_radii if radius != fn.LOC_VIRIAL_RADIUS
        })

    out = evolve_run(u0, horizon, icfg, p, lam, None, monitor=monitor)
    if out.status != "completed":
        return out, None, None

    gaps = {radius: 0.0 for radius in sweep_radii}
    for rec, values in zip(out.series, localized):
        values[fn.LOC_VIRIAL_RADIUS] = rec.loc_virial
        scale = max(abs(rec.G_value), 1e-12)
        for radius in sweep_radii:
            gaps[radius] = max(gaps[radius], abs(values[radius] - rec.G_value) / scale)
    return out, virial_consistency(out), gaps


def cmd_virial_check(cfg: ExperimentConfig) -> dict:
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    out, mismatch, gaps = virial_sweep(grid, cfg.p, cfg.lam, cfg.dt, cfg.horizon)
    _write_table(cfg, "virial_diag.csv", PLOT_HEADERS["diagnostics"],
                 (rec.row() for rec in out.series))
    if out.status == "inner_solve_failure":
        raise InnerSolveFailure("inner solve failure in the virial run")
    if out.status != "completed":
        raise CheckFailure("virial check requires completed run")

    sweep = list(gaps.values())
    monotone = all(a >= b - 1e-12 for a, b in zip(sweep, sweep[1:]))
    payload = {
        "mismatch": mismatch,
        "r_sweep": {str(int(radius)): gap for radius, gap in gaps.items()},
        "sweep_monotone": monotone,
        "passed": bool(mismatch < 0.02 and monotone),
    }
    _write_report(cfg, "virial_report", payload)
    return payload


# ---------------------------------------------------------------------------
# inequality scans
# ---------------------------------------------------------------------------

def inequality_scan(n: int, p: float, r_max: float) -> dict:
    """The pointwise weight scans, by name in report order: the quartic F on
    (0, 20], the P_m coefficient on [1e-4, 20] at the critical power 1 + 4/n
    and at p, and W1 on a 1e-4 lattice over [1e-6, r_max] and at r_max."""
    if n not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension n={n}; supported: {SUPPORTED_DIMENSIONS}")
    if not r_max > 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    r_grid = np.linspace(20.0 / 100000, 20.0, 100000)
    quartic = fn.quartic_values(n, r_grid)
    k = int(np.argmin(quartic))
    pm_grid = np.linspace(1e-4, 20.0, 100001)
    pm_crit, pm_p = (float(np.min(fn.pm_coefficient_values(n, q, pm_grid)))
                     for q in (1.0 + 4.0 / n, p))
    w1_vals = w1_weight(np.linspace(1e-6, r_max, round(r_max / 1e-4) + 1))
    return {
        "quartic_min": float(quartic[k]),
        "quartic_argmin": float(r_grid[k]),
        "pm_min_at_critical_p": pm_crit,
        "pm_min_at_p": pm_p,
        "w1_max": float(np.max(w1_vals)),
        "w1_tail": float(w1_weight(np.array([r_max]))[0]),
    }


def cmd_inequalities(cfg: ExperimentConfig) -> dict:
    results = inequality_scan(cfg.n, cfg.p, cfg.rmax)
    floor = -1e-12
    passed = (
        results["quartic_min"] >= floor
        and results["pm_min_at_critical_p"] >= floor
        and abs(results["w1_max"] - 1.0 / 3.0) < 1e-6
        and results["w1_tail"] < 1e-12
    )
    payload = {"critical_p": 1.0 + 4.0 / cfg.n, "results": results, "passed": passed}
    _write_report(cfg, "inequalities_report", payload)
    return payload


# ---------------------------------------------------------------------------
# mass curve
# ---------------------------------------------------------------------------

def mass_curve_sweep(grid, p: float, alphas) -> list:
    """One MassCurvePoint per mass in alphas, in order."""
    return [gsmod.mass_constrained_minimize(alpha, p, grid) for alpha in alphas]


def cmd_mass_curve(cfg: ExperimentConfig) -> dict:
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    points = mass_curve_sweep(grid, cfg.p, cfg.alphas)
    bottom = spectrum_bottom(cfg.n)
    minimizers = [pt for pt in points if pt.minimizer is not None]
    rows = [
        (pt.alpha, pt.e_alpha, pt.lagrange_lambda, pt.el_residual, pt.iterations)
        for pt in points
    ]

    _write_table(cfg, "mass_curve.csv",
                 ("alpha", "e_alpha", "lagrange_lambda", "el_residual", "iterations"),
                 rows)
    payload = {
        "alpha0_estimate": minimizers[0].alpha if minimizers else None,
        "negative_rows": sum(1 for r in rows if r[1] < 0),
        "passed": not any(
            pt.el_residual >= 1e-4 or pt.lagrange_lambda >= bottom for pt in minimizers
        ),
    }
    _write_report(cfg, "mass_curve_report", payload)
    return payload


# ---------------------------------------------------------------------------
# spectral checks
# ---------------------------------------------------------------------------

def spectral_family(grid) -> dict:
    """Every spectral-check quantity of the bump family on grid: the maxima
    of the Parseval and reconstruction residuals, the lemma constants
    {s: {m: C}} and the refined Sobolev ratios {s: {min, max, spread}}."""
    # the lemma's scales m = 1, 2, 4, 8, 16 are every fourth of M_SAMPLES
    lemma_rows = slice(0, 17, 4)
    m_arr = sp.M_SAMPLES[lemma_rows]
    lemma = {s: {m: 0.0 for m in m_arr} for s in (0.5, 1.0)}
    parseval, recon, ratios = [], [], {0.5: [], 1.0: []}
    for u in sp.bump_family(grid):
        spec = sp.FieldSpectrum(u)
        parseval.append(spec.parseval_residual())
        recon.append(spec.reconstruction_residual())
        sups = spec.sups[lemma_rows]
        for s in (0.5, 1.0):
            bounds = (1.0 / m_arr**2 + m_arr ** (1.5 - s)) * np.exp(
                -(sp.RHO**2) / m_arr**2
            ) * spec.hs_norm(s)
            for m, ratio in zip(m_arr, sups / bounds):
                lemma[s][m] = max(lemma[s][m], float(ratio))
            ratios[s].append(spec.refined_sobolev_ratio(s))
    return {
        "parseval_max": max(parseval),
        "reconstruction_max": max(recon),
        "lemma_constants": lemma,
        "refined_ratio": {
            s: {"min": min(vals), "max": max(vals), "spread": max(vals) / min(vals)}
            for s, vals in ratios.items()
        },
    }


def cmd_spectral_check(cfg: ExperimentConfig) -> dict:
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    family = spectral_family(grid)
    lemma = family["lemma_constants"]
    refined = family["refined_ratio"]

    tr = sp.get_transform(grid)
    vhat = tr.forward(np.exp(-grid.nodes**2))
    _write_table(cfg, "spectral_reference.csv", PLOT_HEADERS["spectrum"],
                 zip(tr.lambda_nodes, vhat.real, vhat.imag, tr.density))

    payload = {
        **family,
        "lemma_constants": {
            _numtag(s): {_numtag(m): c for m, c in per.items()}
            for s, per in lemma.items()
        },
        "refined_ratio": {_numtag(s): r for s, r in refined.items()},
        "passed": (
            family["parseval_max"] < 1e-4
            and family["reconstruction_max"] < 1e-3
            and all(np.isfinite(v) for per in lemma.values() for v in per.values())
            and all(r["spread"] < 10.0 for r in refined.values())
        ),
    }
    _write_report(cfg, "spectral_report", payload)
    return payload


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    digest, header, rows = read_csv(args.input)
    if header not in PLOT_HEADERS.values():
        raise UsageError(
            f"{args.input}: the header is none of the layouts {', '.join(PLOT_HEADERS)}"
        )

    # each column after the first is a series against the first; a
    # diagnostics file counts its time column too, so it yields twelve series
    first = 0 if header == PLOT_HEADERS["diagnostics"] else 1
    tidy = [
        (header[j], row[0], row[j]) for j in range(first, len(header)) for row in rows
    ]

    stem = os.path.splitext(os.path.basename(args.input))[0]
    path = _outpath(args.out, f"{stem}_plotdata.csv")
    write_csv(path, digest, ("series", "t_or_r_or_lambda", "value"), tidy)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise UsageError, so main reports
    them like every other usage error."""

    def error(self, message):
        raise UsageError(message)


# the subcommands that run on a resolved configuration: name -> (runner,
# help, the keys of the PARAMS it reads and takes as flags)
COMMANDS = {
    "groundstate": (cmd_groundstate, "solve and certify Q",
                    "tier n p lambda rmax points out".split()),
    "dichotomy": (cmd_dichotomy, "alpha-sweep of alpha*Q data",
                  [param.key for param in PARAMS]),
    "virial-check": (cmd_virial_check, "second-moment vs G",
                     "tier n p lambda rmax points dt horizon out format".split()),
    "inequalities": (cmd_inequalities, "weight scans", "n p rmax out format".split()),
    "mass-curve": (cmd_mass_curve, "constrained minimization",
                   "tier n p alpha rmax points out format".split()),
    "spectral-check": (cmd_spectral_check, "transform checks",
                       "tier n rmax points out format".split()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hypnls",
        description="Experiments for the focusing NLS on hyperbolic space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for param in (p for p in PARAMS if p.key in keys):
            command.add_argument(
                "--" + param.key,
                dest=param.attr,
                type=param.cast,
                choices=param.choices,
                action="append" if param.many else "store",
                help=param.help,
            )
        command.add_argument("--config", help="flat key=value config file")
    plot = sub.add_parser("plotdata", help="reshape an output file for plotting")
    plot.add_argument("input", help="CSV produced by another subcommand")
    plot.add_argument("--out", help="output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.command == "plotdata":
            return cmd_plotdata(args)
        payload = COMMANDS[args.command][0](resolve_config(args))
        return EXIT_PASS if payload.get("passed", True) else EXIT_SCIENCE
    except SystemExit as exc:  # --help; every other parser exit is a UsageError
        return exc.code
    except CheckFailure as exc:
        return _err(EXIT_SCIENCE, str(exc))
    # LinAlgError is a ValueError: caught before its base
    except (gsmod.ShootingFailure, InnerSolveFailure, np.linalg.LinAlgError) as exc:
        return _err(EXIT_SOLVER, str(exc))
    except ValueError as exc:  # UsageError, NoGroundState, ParameterMismatch, ...
        return _err(EXIT_USAGE, str(exc))
    except OSError as exc:  # inputs are read as UsageErrors: an output failed
        return _err(EXIT_USAGE, f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
