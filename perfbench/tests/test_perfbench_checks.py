"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import pathlib
import shutil
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from hypnls import expcli  # noqa: E402


def _run(out_dir, *argv):
    assert expcli.main(list(argv) + ["--out", str(out_dir)]) == 0


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path, column, edit):
    """Apply edit(values) to one column of an output CSV, in place."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    j = header.index(column)
    rows = [line.split(",") for line in lines[2:]]
    values = edit(np.array([float(r[j]) if r[j] else math.nan for r in rows]))
    for row, value in zip(rows, values):
        row[j] = "" if math.isnan(value) else repr(float(value))
    path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# spectral: synthetic reference (the real subcommand takes ~20 s)
# ---------------------------------------------------------------------------

@pytest.fixture
def spectral_out(tmp_path):
    lam = (np.arange(4096) + 0.5) * (64.0 / 4096)
    rows = zip(lam, checks.gaussian_transform(lam), np.zeros_like(lam),
               lam**2 / (2.0 * math.pi**2))
    lines = ["# config_digest=0", "lambda,re,im,density"]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    (tmp_path / "spectral_reference.csv").write_text("\n".join(lines) + "\n")
    report = {
        "passed": True, "parseval_max": 5e-9, "reconstruction_max": 5e-5,
        "lemma_constants": {"0.5": {"1": 0.07}, "1": {"1": 0.05}},
        "refined_ratio": {"0.5": {"spread": 1.8}, "1": {"spread": 2.8}},
    }
    (tmp_path / "spectral_report.json").write_text(json.dumps(report))
    return tmp_path


def test_spectral_accepts_closed_form(spectral_out):
    checks.check_spectral(str(spectral_out))


def test_spectral_rejects_shifted_row(spectral_out):
    def shift(re):
        re[100] = re[101]
        return re

    _edit_csv(spectral_out / "spectral_reference.csv", "re", shift)
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_spectral(str(spectral_out))


def test_spectral_rejects_failed_gate(spectral_out):
    _edit_json(spectral_out / "spectral_report.json",
               lambda r: r.update(parseval_max=1e-3))
    with pytest.raises(checks.CheckFailed, match="Parseval"):
        checks.check_spectral(str(spectral_out))


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

DICHOTOMY_ALPHAS = [0.5, 1.5]


@pytest.fixture(scope="module")
def dichotomy_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("dichotomy")
    _run(out, "dichotomy", "--n", "3", "--p", "3", "--alpha", "0.5", "--alpha", "1.5")
    return out


def _check_dichotomy(out):
    checks.check_dichotomy(str(out), DICHOTOMY_ALPHAS, p=3.0, horizon=3.0)


def test_dichotomy_accepts_real_output(dichotomy_out):
    _check_dichotomy(dichotomy_out)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("status", "blowup", "completed, consistent"),
        ("proxy", "inconclusive", "completed, consistent"),
        ("delta_sign", "+", "delta_sign"),
    ],
)
def test_dichotomy_rejects_flipped_verdict(dichotomy_out, tmp_path, field, value, match):
    out = _copy(dichotomy_out, tmp_path)
    _edit_json(out / "dichotomy_report.json", lambda r: r["rows"][0].update({field: value}))
    with pytest.raises(checks.CheckFailed, match=match):
        _check_dichotomy(out)


def test_dichotomy_rejects_missing_blowup(dichotomy_out, tmp_path):
    out = _copy(dichotomy_out, tmp_path)
    _edit_json(out / "dichotomy_report.json",
               lambda r: r["rows"][1].update(status="completed", t_star=None))
    with pytest.raises(checks.CheckFailed, match="blow-up"):
        _check_dichotomy(out)


def test_dichotomy_rejects_drifting_mass(dichotomy_out, tmp_path):
    out = _copy(dichotomy_out, tmp_path)
    _edit_csv(out / "dichotomy_alpha0.5_fwd.csv", "mass",
              lambda m: m * (1.0 + 1e-8 * np.arange(len(m))))
    with pytest.raises(checks.CheckFailed, match="mass drift"):
        _check_dichotomy(out)


# ---------------------------------------------------------------------------
# stationary
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def groundstate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("groundstate")
    _run(out, "groundstate", "--n", "3", "--p", "3", "--lambda", "0.5",
         "--rmax", "20", "--points", "4000")
    return out


def test_groundstate_accepts_real_output(groundstate_out):
    checks.check_groundstate(str(groundstate_out), n=3, p=3.0, lam=0.5)


def test_groundstate_rejects_perturbed_profile(groundstate_out, tmp_path):
    out = _copy(groundstate_out, tmp_path)

    def bump(q):
        q[200] *= 1.0 + 1e-6  # r = 1
        return q

    _edit_csv(out / "groundstate_n3_p3_lam0.5.csv", "Q", bump)
    with pytest.raises(checks.CheckFailed, match="ODE residual"):
        checks.check_groundstate(str(out), n=3, p=3.0, lam=0.5)


def test_groundstate_rejects_wrong_frequency(groundstate_out):
    with pytest.raises(checks.CheckFailed):
        checks.check_groundstate(str(groundstate_out), n=3, p=3.0, lam=0.45)


@pytest.fixture(scope="module")
def mass_curve_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("mass_curve")
    _run(out, "mass-curve", "--p", "2", "--alpha", "0.1", "--alpha", "15",
         "--alpha", "20")
    return out


def test_mass_curve_accepts_real_output(mass_curve_out):
    checks.check_mass_curve(str(mass_curve_out), n=3)


def test_mass_curve_rejects_non_monotone_e(mass_curve_out, tmp_path):
    out = _copy(mass_curve_out, tmp_path)
    _edit_csv(out / "mass_curve.csv", "e_alpha", lambda e: e[[0, 2, 1]])
    with pytest.raises(checks.CheckFailed, match="non-increasing"):
        checks.check_mass_curve(str(out), n=3)


# ---------------------------------------------------------------------------
# virial
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def virial_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("virial")
    _run(out, "virial-check", "--n", "2", "--horizon", "2")
    return out


def test_virial_accepts_real_output(virial_out):
    checks.check_virial(str(virial_out))


def test_virial_rejects_inconsistent_second_moment(virial_out, tmp_path):
    out = _copy(virial_out, tmp_path)
    _edit_csv(out / "virial_diag.csv", "second_moment", lambda sm: 1.05 * sm)
    with pytest.raises(checks.CheckFailed, match="virial mismatch"):
        checks.check_virial(str(out))


def test_virial_rejects_drifting_mass(virial_out, tmp_path):
    out = _copy(virial_out, tmp_path)
    _edit_csv(out / "virial_diag.csv", "mass", lambda m: m * (1.0 + 1e-6 * np.arange(len(m))))
    with pytest.raises(checks.CheckFailed, match="mass drift"):
        checks.check_virial(str(out))
