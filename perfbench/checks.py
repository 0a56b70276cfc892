"""Output checks for the benchmark's operations.

Every check reads the files one `hypnls` subcommand wrote and compares them
with a computation made here, apart from the program, or with a property the
method must have. None compares against a stored copy of earlier output.
Each check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def read_csv(path: str):
    """Returns (digest, header, float array of rows); empty cells read NaN."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    require(
        len(lines) >= 2 and lines[0].startswith("# config_digest="),
        f"{os.path.basename(path)}: missing digest or header line",
    )
    header = lines[1].split(",")
    rows = [
        [float(cell) if cell else math.nan for cell in line.split(",")]
        for line in lines[2:]
        if line
    ]
    require(rows, f"{os.path.basename(path)}: no data rows")
    return lines[0].split("=", 1)[1], header, np.array(rows)


def read_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _columns(path: str, *names):
    digest, header, rows = read_csv(path)
    missing = [name for name in names if name not in header]
    require(not missing, f"{os.path.basename(path)}: missing columns {missing}")
    return digest, [rows[:, header.index(name)] for name in names]


def check_mass_conserved(path: str, tol: float = 1e-10) -> None:
    """The Cayley step is unitary, so the mass column is constant to roundoff."""
    _, (mass,) = _columns(path, "mass")
    drift = float(np.max(np.abs(mass - mass[0]))) / mass[0]
    require(drift < tol, f"{os.path.basename(path)}: mass drift {drift:.3e}")


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------

def gaussian_transform(lam: np.ndarray) -> np.ndarray:
    """Closed-form radial Fourier transform of e^{-r^2} on H^3."""
    return (
        2.0 * math.pi**1.5 * np.exp((1.0 - lam**2) / 4.0) * np.sin(lam / 2.0) / lam
    )


def check_spectral(out_dir: str) -> None:
    path = os.path.join(out_dir, "spectral_reference.csv")
    _, (lam, re, im, density) = _columns(path, "lambda", "re", "im", "density")
    exact = gaussian_transform(lam)
    scale = float(np.max(np.abs(exact)))
    err = float(np.max(np.abs(re - exact))) / scale
    require(err < 1e-10, f"spectral_reference.csv: re off the closed form by {err:.3e}")
    require(
        float(np.max(np.abs(im))) <= 1e-12 * scale,
        "spectral_reference.csv: nonzero imaginary part",
    )
    dens_err = float(np.max(np.abs(density - lam**2 / (2.0 * math.pi**2)) / lam**2))
    require(dens_err < 1e-12, f"spectral_reference.csv: density off by {dens_err:.3e}")

    report = read_json(os.path.join(out_dir, "spectral_report.json"))
    require(report["passed"] is True, "spectral_report.json: passed is not true")
    require(report["parseval_max"] < 1e-4, "spectral_report.json: Parseval gate")
    require(report["reconstruction_max"] < 1e-3, "spectral_report.json: reconstruction gate")
    constants = [c for per in report["lemma_constants"].values() for c in per.values()]
    require(
        constants and all(math.isfinite(c) for c in constants),
        "spectral_report.json: lemma constants not finite",
    )
    spreads = [r["spread"] for r in report["refined_ratio"].values()]
    require(
        spreads and all(s < 10.0 for s in spreads),
        "spectral_report.json: refined Sobolev spread gate",
    )


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def elam_ratio_exact(alpha: float, p: float) -> float:
    """E_0(alpha Q) / E_0(Q) from the Pohozaev identity |Q|_H0^2 = |Q|_{p+1}^{p+1}."""
    return (alpha**2 / 2.0 - alpha ** (p + 1.0) / (p + 1.0)) / (
        (p - 1.0) / (2.0 * (p + 1.0))
    )


def check_dichotomy(out_dir: str, alphas, p: float, horizon: float) -> None:
    report = read_json(os.path.join(out_dir, "dichotomy_report.json"))
    rows = report["rows"]
    require(
        [row["alpha"] for row in rows] == sorted(alphas),
        "dichotomy_report.json: rows do not match the requested alphas",
    )
    for row in rows:
        alpha = row["alpha"]
        tag = f"alpha {alpha!r}"
        exact = elam_ratio_exact(alpha, p)
        require(
            abs(row["elam_ratio"] - exact) <= 1e-8 * max(1.0, abs(exact)),
            f"{tag}: elam_ratio {row['elam_ratio']!r} against {exact!r}",
        )
        require(
            row["delta_sign"] == ("+" if alpha > 1.0 else "-"),
            f"{tag}: delta_sign {row['delta_sign']!r}",
        )
        if alpha < 1.0:
            require(
                row["status"] == "completed" and row["proxy"] == "consistent",
                f"{tag}: expected a completed, consistent run, got "
                f"{row['status']!r}/{row['proxy']!r}",
            )
        else:
            t_star = row["t_star"]
            require(
                row["status"] == "blowup"
                and t_star is not None
                and 0.0 < t_star < horizon,
                f"{tag}: expected blow-up inside the horizon, got "
                f"{row['status']!r} at {t_star!r}",
            )
    require(
        len(report["row_files"]) >= len(rows),
        "dichotomy_report.json: a row file is missing",
    )
    for name in report["row_files"]:
        path = os.path.join(out_dir, name)
        digest, _, _ = read_csv(path)
        require(
            digest == report["config_digest"], f"{name}: digest differs from report"
        )
        check_mass_conserved(path)


# ---------------------------------------------------------------------------
# stationary: ground states and the mass curve
# ---------------------------------------------------------------------------

def check_groundstate(out_dir: str, n: int, p: float, lam: float) -> None:
    """Residual of the radial ODE by an independent central-difference stencil
    and the far-field log-slope rho + sqrt(rho^2 - lambda)."""
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("groundstate_"))
    csvs = [f for f in names if f.endswith(".csv")]
    require(len(csvs) == 1, f"expected one profile CSV, found {csvs}")
    report = read_json(os.path.join(out_dir, csvs[0][:-4] + ".json"))
    for key, gate in (("pohozaev", 1e-5), ("energy_ratio", 1e-5), ("g_value", 1e-4)):
        require(report["residuals"][key] < gate, f"{csvs[0]}: {key} residual gate")

    _, (r, q) = _columns(os.path.join(out_dir, csvs[0]), "r", "Q")
    dr = r[1] - r[0]
    r_max = r[-1] + 0.5 * dr
    require(
        np.allclose(np.diff(r), dr, rtol=1e-9, atol=0.0), f"{csvs[0]}: nonuniform r"
    )
    q0 = float(q[0])
    inner = slice(1, len(r) - 1)
    d2 = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / dr**2
    d1 = (q[2:] - q[:-2]) / (2.0 * dr)
    ri = r[inner]
    residual = d2 + (n - 1) / np.tanh(ri) * d1 + lam * q[inner] + q[inner] ** p
    away = ri >= 0.5
    scale = q0**p + abs(lam) * q0
    worst = float(np.max(np.abs(residual[away]))) / (scale * dr**2)
    require(worst < 1.0, f"{csvs[0]}: ODE residual {worst:.3e} dr^2 (scaled)")

    window = (r >= r_max / 4.0) & (r <= r_max / 2.0)
    slope = np.polyfit(r[window], np.log(q[window]), 1)[0]
    rho = (n - 1) / 2.0
    rate = rho + math.sqrt(rho * rho - lam)
    dev = abs(-slope - rate) / rate
    require(dev < 1e-3, f"{csvs[0]}: far-field log-slope off by {dev:.3e}")


def check_mass_curve(out_dir: str, n: int) -> None:
    path = os.path.join(out_dir, "mass_curve.csv")
    _, (alpha, e, lag, el) = _columns(
        path, "alpha", "e_alpha", "lagrange_lambda", "el_residual"
    )
    require(np.all(np.diff(alpha) > 0), "mass_curve.csv: alphas not ascending")
    require(alpha[0] == 0.1 and e[0] == 0.0, "mass_curve.csv: e(0.1) is not 0")
    require(np.all(e <= 0.0), "mass_curve.csv: positive e(alpha)")
    require(np.all(np.diff(e) <= 0.0), "mass_curve.csv: e(alpha) not non-increasing")
    solved = ~np.isnan(lag)
    require(np.any(solved), "mass_curve.csv: no minimizer found")
    require(np.all(el[solved] < 1e-4), "mass_curve.csv: Euler-Lagrange residual gate")
    bottom = ((n - 1) / 2.0) ** 2
    require(np.all(lag[solved] < bottom), "mass_curve.csv: Lagrange lambda >= rho^2")


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

def check_virial(out_dir: str) -> None:
    """Second difference of second_moment against G_value, recomputed here."""
    path = os.path.join(out_dir, "virial_diag.csv")
    _, (t, sm, g, h1) = _columns(path, "t", "second_moment", "G_value", "h1_sq")
    require(len(t) >= 5, "virial_diag.csv: fewer than 5 records")
    dt0 = t[1:-1] - t[:-2]
    dt1 = t[2:] - t[1:-1]
    require(np.all(dt0 > 0) and np.all(dt1 > 0), "virial_diag.csv: times not increasing")
    dd = 2.0 * (
        sm[:-2] / (dt0 * (dt0 + dt1))
        - sm[1:-1] / (dt0 * dt1)
        + sm[2:] / (dt1 * (dt0 + dt1))
    )
    gi = g[1:-1]
    keep = np.abs(gi) > 1e-6 * h1[0]
    require(np.any(keep), "virial_diag.csv: G vanishes on every record")
    mismatch = float(np.max(np.abs(dd[keep] - gi[keep]) / np.abs(gi[keep])))
    require(mismatch < 0.02, f"virial_diag.csv: virial mismatch {mismatch:.3e}")
    check_mass_conserved(path)
    report = read_json(os.path.join(out_dir, "virial_report.json"))
    require(report["passed"] is True, "virial_report.json: passed is not true")
