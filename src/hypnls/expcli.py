"""Experiment command line: recipes, persistence, plot-data emission.

Subcommands: groundstate, dichotomy, virial-check, inequalities, mass-curve,
spectral-check, plotdata. Parameters resolve in order: explicit flag >
config file (flat key=value lines) > resolution tier > built-in default.
Every output embeds a sha256 digest of the resolved configuration; report
assembly refuses rows whose digest differs. Outputs are deterministic for a
fixed config: floats are serialized with repr (shortest round trip), JSON
keys sorted, line endings LF, files written via temp + rename.

Exit codes: 0 all gates passed, 1 a scientific check failed, 2 usage or
configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import functionals as fn
from . import groundstate as gsmod
from . import spectral as sp
from .evolve import (
    InnerSolveFailure,
    IntegratorConfig,
    conjugate_datum,
    evolve_run,
    scattering_proxy,
    virial_consistency,
)
from .hypgeom import build_grid, spectrum_bottom, w1_weight

TIERS = {
    "quick": {"rmax": 20.0, "points": 2000, "dt": 2e-3, "horizon": 3.0},
    "production": {"rmax": 20.0, "points": 8000, "dt": 5e-4, "horizon": 10.0},
}
DEFAULT_ALPHAS = (0.5, 0.9, 1.1, 1.5)
# threshold used by the dichotomy recipe: low enough that the crossing
# happens while the collapse profile is still resolved on every tier
DICHOTOMY_H1_FACTOR = 10.0

EXIT_PASS = 0
EXIT_SCIENCE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    command: str
    n: int = 3
    p: float = 3.0
    lam: float = 0.0
    alphas: Optional[List[float]] = None
    rmax: float = 20.0
    points: int = 2000
    dt: float = 2e-3
    horizon: float = 3.0
    tier: str = "quick"
    out_dir: str = "."
    fmt: str = "json"
    inject_sign_flip: bool = False
    explicit: set = field(default_factory=set)  # which fields the user set

    def digest(self) -> str:
        items = {
            "command": self.command,
            "n": str(self.n),
            "p": repr(float(self.p)),
            "lambda": repr(float(self.lam)),
            "alphas": ",".join(repr(float(a)) for a in (self.alphas or [])),
            "rmax": repr(float(self.rmax)),
            "points": str(self.points),
            "dt": repr(float(self.dt)),
            "horizon": repr(float(self.horizon)),
            "tier": self.tier,
            "format": self.fmt,
        }
        if self.inject_sign_flip:
            items["inject_sign_flip"] = "1"
        text = "\n".join(f"{k}={items[k]}" for k in sorted(items))
        return hashlib.sha256(text.encode()).hexdigest()

    def params_dict(self) -> dict:
        return {
            "command": self.command,
            "n": self.n,
            "p": self.p,
            "lambda": self.lam,
            "rmax": self.rmax,
            "points": self.points,
            "dt": self.dt,
            "horizon": self.horizon,
            "tier": self.tier,
        }


def parse_config_file(path: str) -> Dict[str, str]:
    known = {
        "n", "p", "lambda", "alpha", "rmax", "points", "dt", "horizon",
        "tier", "out", "format",
    }
    vals: Dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in known:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                vals[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return vals


def resolve_config(args) -> ExperimentConfig:
    file_vals = parse_config_file(args.config) if args.config else {}

    def pick(flag_val, file_key, cast, fallback):
        if flag_val is not None:
            return cast(flag_val), True
        if file_key in file_vals:
            try:
                return cast(file_vals[file_key]), True
            except ValueError as exc:
                raise UsageError(f"config key {file_key!r}: {exc}") from exc
        return fallback, False

    tier, _ = pick(args.tier, "tier", str, "quick")
    if tier not in TIERS:
        raise UsageError(f"unknown tier {tier!r}; options: quick, production")
    td = TIERS[tier]

    cfg = ExperimentConfig(command=args.command, tier=tier)
    explicit = set()
    for name, flag, key, cast, fallback in (
        ("n", args.n, "n", int, 3),
        ("p", args.p, "p", float, 3.0),
        ("lam", args.lam, "lambda", float, 0.0),
        ("rmax", args.rmax, "rmax", float, td["rmax"]),
        ("points", args.points, "points", int, td["points"]),
        ("dt", args.dt, "dt", float, td["dt"]),
        ("horizon", args.horizon, "horizon", float, td["horizon"]),
        ("fmt", args.format, "format", str, "json"),
    ):
        value, was_set = pick(flag, key, cast, fallback)
        setattr(cfg, name, value)
        if was_set:
            explicit.add(name)

    if args.alpha:
        cfg.alphas = [float(a) for a in args.alpha]
        explicit.add("alphas")
    elif "alpha" in file_vals:
        cfg.alphas = [float(a) for a in file_vals["alpha"].split(",") if a.strip()]
        explicit.add("alphas")

    out_flag = args.out if args.out is not None else file_vals.get("out")
    cfg.out_dir = os.environ.get("HYPNLS_OUT") or out_flag or "."
    cfg.fmt = cfg.fmt.lower()
    if cfg.fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.fmt!r}; options: csv, json")
    cfg.inject_sign_flip = bool(getattr(args, "inject_sign_flip", False))
    cfg.explicit = explicit
    return cfg


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_cell(x) -> str:
    if x is None:
        return ""
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


def write_json(path: str, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
    return digest, header, rows


def _err(code: int, reason: str) -> int:
    sys.stderr.write(json.dumps({"error": reason, "code": code}) + "\n")
    return code


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _numtag(x: float) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))


# ---------------------------------------------------------------------------
# groundstate
# ---------------------------------------------------------------------------

def cmd_groundstate(cfg: ExperimentConfig) -> int:
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    try:
        gs = gsmod.solve_ground_state(cfg.n, cfg.p, cfg.lam, grid)
    except gsmod.NoGroundState:
        return _err(
            EXIT_USAGE,
            f"lambda >= (n-1)^2/4 = {spectrum_bottom(cfg.n)}: no ground state",
        )
    except gsmod.ShootingFailure as exc:
        return _err(EXIT_SOLVER, f"shooting failed: {exc}")
    ids = gsmod.verify_identities(gs)
    digest = cfg.digest()
    tag = f"n{cfg.n}_p{_numtag(cfg.p)}_lam{_numtag(cfg.lam)}"

    # uniqueness window of the sub-threshold theory
    uniqueness = cfg.lam <= 2.0 * (cfg.p + 1.0) / (cfg.p + 3.0) ** 2

    payload = {
        "config_digest": digest,
        "params": cfg.params_dict(),
        "q0": gs.q0,
        "hlam_sq": gs.hlam_sq,
        "lp1": gs.lp1,
        "elam": gs.elam,
        "dlam": gs.dlam,
        "far_field_rate": gsmod.far_field_rate(cfg.n, cfg.lam),
        "residuals": {k: float(v) for k, v in gs.residuals.items()},
        "logslope_dev": float(ids["logslope_dev"]),
        "uniqueness_regime": bool(uniqueness),
    }
    write_json(_outpath(cfg, f"groundstate_{tag}.json"), payload)
    write_csv(
        _outpath(cfg, f"groundstate_{tag}.csv"),
        digest,
        ("r", "Q"),
        zip(grid.nodes, gs.profile),
    )
    ok = (
        gs.residuals["pohozaev"] < 1e-5
        and gs.residuals["energy_ratio"] < 1e-5
        and gs.residuals["g_value"] < 1e-4
    )
    return EXIT_PASS if ok else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def _theorem_range(n: int, p: float) -> bool:
    return (n == 2 and p >= 3) or (n == 3 and 7.0 / 3.0 <= p < 5)


def cmd_dichotomy(cfg: ExperimentConfig) -> int:
    if not _theorem_range(cfg.n, cfg.p):
        sys.stderr.write(
            f"warning: (n, p) = ({cfg.n}, {cfg.p}) is outside the dichotomy "
            "range (n=2, p>=3 or n=3, 7/3<=p<5); running anyway\n"
        )
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    try:
        gs = gsmod.solve_ground_state(cfg.n, cfg.p, cfg.lam, grid)
    except gsmod.NoGroundState:
        return _err(EXIT_USAGE, "no ground state at this lambda")
    except gsmod.ShootingFailure as exc:
        return _err(EXIT_SOLVER, f"shooting failed: {exc}")

    digest = cfg.digest()
    alphas = sorted(cfg.alphas or DEFAULT_ALPHAS)
    icfg = IntegratorConfig(
        dt=cfg.dt, blowup_h1_factor=DICHOTOMY_H1_FACTOR, diag_stride=10.0
    )
    rows = []
    row_files = []
    failed = False
    for alpha in alphas:
        u0 = gs.field_on_grid()
        u0.values = alpha * u0.values
        delta0 = fn.delta_lambda(u0, gs)
        elam_ratio = fn.energy_lambda(u0, cfg.lam, cfg.p) / gs.elam
        row = {
            "alpha": alpha,
            "delta_sign": "+" if delta0 > 0 else ("-" if delta0 < 0 else "0"),
            "elam_ratio": elam_ratio,
            "trapped": bool(elam_ratio <= 1.0 + 1e-12),
            "status": "",
            "t_star": None,
            "proxy": "",
        }
        try:
            out_fwd = evolve_run(u0, cfg.horizon, icfg, cfg.p, cfg.lam, gs)
            time_symmetric = bool(np.all(u0.values.imag == 0.0))
            if time_symmetric:
                out_bwd = out_fwd  # conjugation fixes real data
            else:
                out_bwd = evolve_run(
                    conjugate_datum(u0), cfg.horizon, icfg, cfg.p, cfg.lam, gs
                )
            # a blow-up in either time direction classifies the datum
            primary = out_fwd if out_fwd.status != "completed" else out_bwd
            row["status"] = primary.status
            if primary.status == "blowup":
                row["t_star"] = primary.t_star
            elif primary.status == "completed":
                row["proxy"] = scattering_proxy(out_fwd)
            fname = f"dichotomy_alpha{_numtag(alpha)}_fwd.csv"
            write_csv(
                _outpath(cfg, fname),
                digest,
                fn.DIAGNOSTICS_COLUMNS,
                (rec.row() for rec in out_fwd.series),
            )
            row_files.append(fname)
            if not time_symmetric:
                bname = f"dichotomy_alpha{_numtag(alpha)}_bwd.csv"
                write_csv(
                    _outpath(cfg, bname),
                    digest,
                    fn.DIAGNOSTICS_COLUMNS,
                    (rec.row() for rec in out_bwd.series),
                )
                row_files.append(bname)
        except (InnerSolveFailure, fn.ParameterMismatch, ValueError) as exc:
            row["status"] = f"error: {exc}"
            failed = True
        rows.append(row)

    # assemble the report from the row files; mismatched digests are refused
    for fname in row_files:
        file_digest, _, _ = read_csv(_outpath(cfg, fname))
        if file_digest != digest:
            return _err(
                EXIT_USAGE,
                f"{fname}: config digest mismatch; refusing to aggregate",
            )

    header = ("alpha", "delta_sign", "elam_ratio", "status", "t_star", "proxy")
    if cfg.fmt == "csv":
        write_csv(
            _outpath(cfg, "dichotomy_report.csv"),
            digest,
            header,
            ([r[k] for k in header] for r in rows),
        )
    else:
        write_json(
            _outpath(cfg, "dichotomy_report.json"),
            {
                "config_digest": digest,
                "params": cfg.params_dict(),
                "blowup_h1_factor": DICHOTOMY_H1_FACTOR,
                "rows": rows,
                "row_files": row_files,
            },
        )
    return EXIT_SCIENCE if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# virial check
# ---------------------------------------------------------------------------

def cmd_virial_check(cfg: ExperimentConfig) -> int:
    if "horizon" not in cfg.explicit:
        cfg.horizon = 1.0  # a unit of time resolves the comparison already
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    u0 = fn.RadialField(
        grid=grid, values=(0.5 * np.exp(-grid.nodes**2)).astype(complex)
    )
    horizon = cfg.horizon
    icfg = IntegratorConfig(dt=cfg.dt, diag_stride=100.0)
    digest = cfg.digest()

    sweep_radii = (4.0, 8.0, 16.0)
    gaps = {radius: 0.0 for radius in sweep_radii}

    def monitor(t, field):
        g_here = fn.G_functional(field, cfg.p)
        scale = max(abs(g_here), 1e-12)
        for radius in sweep_radii:
            lv = fn.localized_virial_rhs(field, radius, p=cfg.p)
            gaps[radius] = max(gaps[radius], abs(lv - g_here) / scale)

    out = evolve_run(u0, horizon, icfg, cfg.p, cfg.lam, None, monitor=monitor)
    write_csv(
        _outpath(cfg, "virial_diag.csv"),
        digest,
        fn.DIAGNOSTICS_COLUMNS,
        (rec.row() for rec in out.series),
    )
    if out.status != "completed":
        return _err(EXIT_SCIENCE, "virial check requires completed run")

    mismatch = virial_consistency(out)
    sweep_rows = [(radius, gaps[radius]) for radius in sweep_radii]
    monotone = all(
        gaps[sweep_radii[i]] >= gaps[sweep_radii[i + 1]] - 1e-12
        for i in range(len(sweep_radii) - 1)
    )
    passed = bool(mismatch < 0.02 and monotone)

    if cfg.fmt == "csv":
        write_csv(
            _outpath(cfg, "virial_report.csv"),
            digest,
            ("quantity", "value"),
            [("mismatch", mismatch), ("sweep_monotone", int(monotone))]
            + [(f"gap_R{int(radius)}", gap) for radius, gap in sweep_rows],
        )
    else:
        write_json(
            _outpath(cfg, "virial_report.json"),
            {
                "config_digest": digest,
                "params": cfg.params_dict(),
                "mismatch": mismatch,
                "r_sweep": {str(int(radius)): gap for radius, gap in sweep_rows},
                "sweep_monotone": monotone,
                "passed": passed,
            },
        )
    return EXIT_PASS if passed else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# inequality scans
# ---------------------------------------------------------------------------

def cmd_inequalities(cfg: ExperimentConfig) -> int:
    r_grid = np.linspace(20.0 / 100000, 20.0, 100000)
    values = fn.quartic_values(cfg.n, r_grid)
    if cfg.inject_sign_flip:
        # test hook: flip the sign of F at its maximum and rescan
        values = values.copy()
        k = int(np.argmax(values))
        values[k] = -values[k]
    k = int(np.argmin(values))
    quartic_min, quartic_argmin = float(values[k]), float(r_grid[k])

    p_crit = 1.0 + 4.0 / cfg.n
    pm_min_crit = fn.pm_coefficient_positivity(cfg.n, p_crit)
    pm_min_at_p = fn.pm_coefficient_positivity(cfg.n, cfg.p)

    w1_vals = w1_weight(np.linspace(1e-6, cfg.rmax, 200001))
    w1_max = float(np.max(w1_vals))
    w1_tail = float(w1_weight(np.array([cfg.rmax]))[0])

    floor = -1e-12
    passed = (
        quartic_min >= floor
        and pm_min_crit >= floor
        and abs(w1_max - 1.0 / 3.0) < 1e-6
        and w1_tail < 1e-12
    )
    digest = cfg.digest()
    rows = [
        ("quartic_min", quartic_min),
        ("quartic_argmin", quartic_argmin),
        ("pm_min_at_critical_p", pm_min_crit),
        ("pm_min_at_p", pm_min_at_p),
        ("w1_max", w1_max),
        ("w1_tail", w1_tail),
    ]
    if cfg.fmt == "csv":
        write_csv(
            _outpath(cfg, "inequalities_report.csv"),
            digest,
            ("quantity", "value"),
            rows,
        )
    else:
        write_json(
            _outpath(cfg, "inequalities_report.json"),
            {
                "config_digest": digest,
                "params": cfg.params_dict(),
                "critical_p": p_crit,
                "results": {k: v for k, v in rows},
                "passed": passed,
            },
        )
    return EXIT_PASS if passed else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# mass curve
# ---------------------------------------------------------------------------

def cmd_mass_curve(cfg: ExperimentConfig) -> int:
    if cfg.p >= 1.0 + 4.0 / cfg.n:
        return _err(
            EXIT_USAGE,
            f"mass-supercritical gate: need p < 1 + 4/n = {1 + 4 / cfg.n}",
        )
    grid = build_grid(cfg.n, cfg.rmax, cfg.points)
    alphas = sorted(cfg.alphas) if cfg.alphas else list(np.geomspace(0.1, 20.0, 13))
    digest = cfg.digest()
    bottom = spectrum_bottom(cfg.n)

    rows = []
    alpha0 = None
    warm = None
    ok = True
    for alpha in alphas:
        pt = gsmod.mass_constrained_minimize(alpha, cfg.n, cfg.p, grid, start=warm)
        if pt.minimizer is not None:
            warm = pt.minimizer.values.real
            if alpha0 is None:
                alpha0 = alpha
            if pt.el_residual >= 1e-4 or pt.lagrange_lambda >= bottom:
                ok = False
        rows.append(
            (alpha, pt.e_alpha, pt.lagrange_lambda, pt.el_residual, pt.iterations)
        )

    write_csv(
        _outpath(cfg, "mass_curve.csv"),
        digest,
        ("alpha", "e_alpha", "lagrange_lambda", "el_residual", "iterations"),
        rows,
    )
    if cfg.fmt == "json":
        write_json(
            _outpath(cfg, "mass_curve_report.json"),
            {
                "config_digest": digest,
                "params": cfg.params_dict(),
                "alpha0_estimate": alpha0,
                "negative_rows": sum(1 for r in rows if r[1] < 0),
                "passed": ok,
            },
        )
    return EXIT_PASS if ok else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# spectral checks
# ---------------------------------------------------------------------------

def cmd_spectral_check(cfg: ExperimentConfig) -> int:
    if cfg.n != 3:
        return _err(
            EXIT_USAGE,
            "spectral analysis is implemented for n = 3 only; the H^2 "
            "kernel is a documented gap",
        )
    # the bump family's spectral quantities are grid-converged at 2000
    # points, well below production size, so both tiers use 2000 unless
    # the user explicitly asks otherwise
    if "points" not in cfg.explicit:
        cfg.points = 2000
    grid = build_grid(3, cfg.rmax, cfg.points)
    family = sp.bump_family(grid)
    digest = cfg.digest()

    parseval_max = max(sp.parseval_residual(u) for u in family)
    recon_max = max(sp.reconstruction_residual(u) for u in family)

    m_set = (1.0, 2.0, 4.0, 8.0, 16.0)
    m_arr = np.array(m_set)
    lemma = {s: {m: 0.0 for m in m_set} for s in (0.5, 1.0)}
    for u in family:
        sups = sp.pm_sup_profile(u, m_arr)
        for s in (0.5, 1.0):
            hs = sp.hs_norm(u, s)
            bounds = (1.0 / m_arr**2 + m_arr ** (1.5 - s)) * np.exp(
                -(sp.RHO**2) / m_arr**2
            ) * hs
            for m, ratio in zip(m_set, sups / bounds):
                lemma[s][m] = max(lemma[s][m], float(ratio))

    refined = {}
    for s in (0.5, 1.0):
        vals = [sp.refined_sobolev_ratio(u, s) for u in family]
        refined[s] = {
            "min": min(vals),
            "max": max(vals),
            "spread": max(vals) / min(vals),
        }

    reference = fn.RadialField(
        grid=grid, values=np.exp(-grid.nodes**2).astype(complex)
    )
    prof = sp.radial_fourier(reference)
    write_csv(
        _outpath(cfg, "spectral_reference.csv"),
        digest,
        ("lambda", "re", "im", "density"),
        zip(
            prof.lambda_nodes,
            prof.values.real,
            prof.values.imag,
            prof.plancherel_density,
        ),
    )

    passed = (
        parseval_max < 1e-4
        and recon_max < 1e-3
        and all(np.isfinite(v) for per in lemma.values() for v in per.values())
        and all(r["spread"] < 10.0 for r in refined.values())
    )
    if cfg.fmt == "csv":
        rows = [("parseval_max", parseval_max), ("reconstruction_max", recon_max)]
        for s, per in sorted(lemma.items()):
            for m, c in sorted(per.items()):
                rows.append((f"lemma_C_s{_numtag(s)}_m{_numtag(m)}", c))
        for s, r in sorted(refined.items()):
            rows.append((f"refined_spread_s{_numtag(s)}", r["spread"]))
        write_csv(
            _outpath(cfg, "spectral_report.csv"),
            digest,
            ("quantity", "value"),
            rows,
        )
    else:
        write_json(
            _outpath(cfg, "spectral_report.json"),
            {
                "config_digest": digest,
                "params": cfg.params_dict(),
                "parseval_max": parseval_max,
                "reconstruction_max": recon_max,
                "lemma_constants": {
                    _numtag(s): {_numtag(m): per[m] for m in m_set}
                    for s, per in lemma.items()
                },
                "refined_ratio": {_numtag(s): refined[s] for s in refined},
                "passed": passed,
            },
        )
    return EXIT_PASS if passed else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

PLOT_KINDS = ("diagnostics", "profile", "spectrum")


def cmd_plotdata(args) -> int:
    if args.kind not in PLOT_KINDS:
        return _err(EXIT_USAGE, f"unknown kind {args.kind!r}; options: {PLOT_KINDS}")
    try:
        digest, header, rows = read_csv(args.input)
    except UsageError as exc:
        return _err(EXIT_USAGE, str(exc))

    expected = {
        "diagnostics": list(fn.DIAGNOSTICS_COLUMNS),
        "profile": ["r", "Q"],
        "spectrum": ["lambda", "re", "im", "density"],
    }[args.kind]
    if header != expected:
        return _err(
            EXIT_USAGE,
            f"{args.input}: header does not match kind {args.kind!r}",
        )

    tidy = []
    if args.kind == "diagnostics":
        # every column is a series against t, the time column included,
        # so a diagnostics file yields exactly twelve series
        for name in fn.DIAGNOSTICS_COLUMNS:
            j = header.index(name)
            for row in rows:
                tidy.append((name, row[0], row[j]))
    elif args.kind == "profile":
        for row in rows:
            tidy.append(("Q", row[0], row[1]))
    else:
        for name in ("re", "im", "density"):
            j = header.index(name)
            for row in rows:
                tidy.append((name, row[0], row[j]))

    out_dir = os.environ.get("HYPNLS_OUT") or args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    path = os.path.join(out_dir, f"{stem}_plotdata.csv")
    write_csv(path, digest, ("series", "t_or_r_or_lambda", "value"), tidy)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="dimension of H^n (2 or 3)")
    common.add_argument("--p", type=float, help="nonlinearity power")
    common.add_argument("--lambda", dest="lam", type=float, help="frequency shift")
    common.add_argument(
        "--alpha", action="append", type=float,
        help="datum amplitude or mass (repeatable)",
    )
    common.add_argument("--rmax", type=float, help="domain radius")
    common.add_argument("--points", type=int, help="grid points")
    common.add_argument("--dt", type=float, help="base time step")
    common.add_argument("--horizon", type=float, help="integration horizon")
    common.add_argument("--tier", choices=sorted(TIERS), help="resolution tier")
    common.add_argument("--out", help="output directory (HYPNLS_OUT overrides)")
    common.add_argument("--format", choices=("csv", "json"), help="report format")
    common.add_argument("--config", help="flat key=value config file")

    parser = argparse.ArgumentParser(
        prog="hypnls",
        description="Experiments for the focusing NLS on hyperbolic space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("groundstate", parents=[common], help="solve and certify Q")
    sub.add_parser("dichotomy", parents=[common], help="alpha-sweep of alpha*Q data")
    sub.add_parser("virial-check", parents=[common], help="second-moment vs G")
    ineq = sub.add_parser("inequalities", parents=[common], help="weight scans")
    ineq.add_argument(
        "--inject-sign-flip", action="store_true", help=argparse.SUPPRESS
    )
    sub.add_parser("mass-curve", parents=[common], help="constrained minimization")
    sub.add_parser("spectral-check", parents=[common], help="transform checks")
    plot = sub.add_parser("plotdata", help="reshape an output file for plotting")
    plot.add_argument("input", help="CSV produced by another subcommand")
    plot.add_argument("--kind", required=True, help="diagnostics|profile|spectrum")
    plot.add_argument("--out", help="output directory (HYPNLS_OUT overrides)")
    return parser


COMMANDS = {
    "groundstate": cmd_groundstate,
    "dichotomy": cmd_dichotomy,
    "virial-check": cmd_virial_check,
    "inequalities": cmd_inequalities,
    "mass-curve": cmd_mass_curve,
    "spectral-check": cmd_spectral_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.command == "plotdata":
        return cmd_plotdata(args)
    try:
        cfg = resolve_config(args)
    except UsageError as exc:
        return _err(EXIT_USAGE, str(exc))
    try:
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        return _err(EXIT_USAGE, str(exc))
    except (ValueError, fn.ParameterMismatch) as exc:
        return _err(EXIT_USAGE, str(exc))
    except (gsmod.ShootingFailure, InnerSolveFailure, np.linalg.LinAlgError) as exc:
        return _err(EXIT_SOLVER, str(exc))


if __name__ == "__main__":
    sys.exit(main())
