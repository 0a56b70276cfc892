"""Command line: config resolution, persistence, digests, exit codes.

Everything runs in-process through main(argv) against tmp_path; the
inequalities subcommand (no solver work) carries the config-plumbing
tests so the suite stays fast.
"""

import json
import os
import stat
from types import SimpleNamespace

import numpy as np
import pytest

import hypnls.expcli as cli
import hypnls.functionals as fn


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def test_exit_code_table():
    assert (cli.EXIT_PASS, cli.EXIT_SCIENCE, cli.EXIT_USAGE, cli.EXIT_SOLVER) == (
        0, 1, 2, 3,
    )


def test_no_arguments_is_usage_error():
    assert cli.main([]) == 2
    assert cli.main(["--help"]) == 0


def test_groundstate_outputs(tmp_path):
    out = str(tmp_path)
    code = cli.main(["groundstate", "--lambda", "0.5", "--out", out])
    assert code == 0
    payload = read_json(tmp_path / "groundstate_n3_p3_lam0.5.json")
    assert payload["params"]["lambda"] == 0.5
    assert payload["params"]["tier"] == "quick"
    assert abs(payload["q0"] - 3.7735) < 1e-2
    assert payload["residuals"]["pohozaev"] < 1e-5
    # lambda = 0.5 sits above the uniqueness window 2(p+1)/(p+3)^2 = 2/9
    assert payload["uniqueness_regime"] is False
    digest, header, rows = cli.read_csv(
        str(tmp_path / "groundstate_n3_p3_lam0.5.csv")
    )
    assert digest == payload["config_digest"]
    assert header == ["r", "Q"]
    assert len(rows) == 2000


def test_groundstate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["groundstate", "--out", str(out)]) == 0
    for name in ("groundstate_n3_p3_lam0.json", "groundstate_n3_p3_lam0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_write_text_atomic_private_temp_file(tmp_path):
    # a directory squatting on the old fixed temporary name must not matter
    (tmp_path / "report.json.tmp").mkdir()
    path = tmp_path / "report.json"
    old_mask = os.umask(0o027)
    try:
        cli.write_text_atomic(str(path), "new\n")
    finally:
        os.umask(old_mask)
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    # a failed replace removes its temporary file
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IsADirectoryError):
        cli.write_text_atomic(str(taken), "x")
    assert [p.name for p in tmp_path.glob("*.tmp") if not p.is_dir()] == []


def test_groundstate_above_bottom_is_usage_error(tmp_path, capsys):
    code = cli.main(["groundstate", "--lambda", "1.0", "--out", str(tmp_path)])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["code"] == 2
    assert "no ground state" in payload["error"]


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\n\nlambda=0.25\n")
    out = str(tmp_path / "o1")
    assert cli.main(["inequalities", "--config", str(conf), "--out", out]) == 0
    payload = read_json(os.path.join(out, "inequalities_report.json"))
    assert payload["params"]["lambda"] == 0.25
    # explicit flag beats the file
    out2 = str(tmp_path / "o2")
    assert cli.main(
        ["inequalities", "--config", str(conf), "--lambda", "0", "--out", out2]
    ) == 0
    payload2 = read_json(os.path.join(out2, "inequalities_report.json"))
    assert payload2["params"]["lambda"] == 0.0
    # the digest tracks the resolved config
    assert payload2["config_digest"] != payload["config_digest"]


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad1.conf"
    bad_key.write_text("banana=1\n")
    assert cli.main(["inequalities", "--config", str(bad_key)]) == 2
    assert "unknown key" in stderr_payload(capsys)["error"]

    bad_val = tmp_path / "bad2.conf"
    bad_val.write_text("points=many\n")
    assert cli.main(["inequalities", "--config", str(bad_val)]) == 2

    bad_line = tmp_path / "bad3.conf"
    bad_line.write_text("points 2000\n")
    assert cli.main(["inequalities", "--config", str(bad_line)]) == 2

    assert cli.main(["inequalities", "--config", str(tmp_path / "absent.conf")]) == 2

    bad_tier = tmp_path / "bad4.conf"
    bad_tier.write_text("tier=turbo\n")
    assert cli.main(["inequalities", "--config", str(bad_tier)]) == 2
    assert "unknown tier" in stderr_payload(capsys)["error"]


def test_tier_from_config_file(tmp_path):
    conf = tmp_path / "prod.conf"
    conf.write_text("tier=production\n")
    out = str(tmp_path)
    assert cli.main(["inequalities", "--config", str(conf), "--out", out]) == 0
    payload = read_json(tmp_path / "inequalities_report.json")
    assert payload["params"]["tier"] == "production"
    assert payload["params"]["points"] == 8000


def test_env_out_dir_overrides_flag(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("HYPNLS_OUT", str(env_dir))
    assert cli.main(["inequalities", "--out", str(flag_dir)]) == 0
    assert (env_dir / "inequalities_report.json").exists()
    assert not flag_dir.exists()


def test_unknown_format_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "fmt.conf"
    conf.write_text("format=yaml\n")
    assert cli.main(["inequalities", "--config", str(conf)]) == 2
    assert "unknown format" in stderr_payload(capsys)["error"]


def test_inequalities_pass_and_injected_failure(tmp_path):
    out = str(tmp_path)
    assert cli.main(["inequalities", "--out", out]) == 0
    payload = read_json(tmp_path / "inequalities_report.json")
    assert payload["passed"] is True
    assert payload["results"]["quartic_min"] >= -1e-12
    assert abs(payload["results"]["w1_max"] - 1.0 / 3.0) < 1e-6
    assert payload["results"]["w1_tail"] < 1e-12
    # the sign-flip hook must trip the scan
    assert cli.main(["inequalities", "--inject-sign-flip", "--out", out]) == 1


def test_inequalities_csv_format(tmp_path):
    out = str(tmp_path)
    assert cli.main(["inequalities", "--format", "csv", "--out", out]) == 0
    digest, header, rows = cli.read_csv(str(tmp_path / "inequalities_report.csv"))
    assert header == ["quantity", "value"]
    assert {r[0] for r in rows} >= {"quartic_min", "w1_max", "w1_tail"}


def test_mass_curve_supercritical_gate(tmp_path, capsys):
    assert cli.main(["mass-curve", "--p", "4", "--out", str(tmp_path)]) == 2
    assert "mass-supercritical" in stderr_payload(capsys)["error"]


def test_mass_curve_alpha_subset(tmp_path):
    out = str(tmp_path)
    code = cli.main(
        ["mass-curve", "--p", "2", "--alpha", "13", "--alpha", "16", "--out", out]
    )
    assert code == 0
    digest, header, rows = cli.read_csv(str(tmp_path / "mass_curve.csv"))
    assert header == ["alpha", "e_alpha", "lagrange_lambda", "el_residual", "iterations"]
    assert len(rows) == 2
    assert float(rows[0][1]) < 0.0 and float(rows[1][1]) < 0.0
    # warm start keeps e(alpha) decreasing on the negative branch
    assert float(rows[1][1]) < float(rows[0][1])
    payload = read_json(tmp_path / "mass_curve_report.json")
    assert payload["negative_rows"] == 2
    assert payload["passed"] is True


def test_spectral_check_rejects_h2(tmp_path, capsys):
    assert cli.main(["spectral-check", "--n", "2", "--out", str(tmp_path)]) == 2
    assert "n = 3" in stderr_payload(capsys)["error"]


def test_spectral_check_passes(tmp_path):
    out = str(tmp_path)
    assert cli.main(["spectral-check", "--out", out]) == 0
    payload = read_json(tmp_path / "spectral_report.json")
    assert payload["passed"] is True
    assert payload["parseval_max"] < 1e-4
    assert payload["reconstruction_max"] < 1e-3
    assert payload["params"]["points"] == 2000
    digest, header, rows = cli.read_csv(str(tmp_path / "spectral_reference.csv"))
    assert header == ["lambda", "re", "im", "density"]
    assert len(rows) == payload["params"]["points"]


def test_dichotomy_single_alpha(tmp_path):
    out = str(tmp_path)
    code = cli.main(["dichotomy", "--alpha", "1.5", "--out", out])
    assert code == 0
    payload = read_json(tmp_path / "dichotomy_report.json")
    assert payload["blowup_h1_factor"] == 10.0
    (row,) = payload["rows"]
    assert row["alpha"] == 1.5
    assert row["delta_sign"] == "+"
    assert row["status"] == "blowup"
    assert row["t_star"] is not None and 0.0 < row["t_star"] < 0.1
    assert payload["row_files"] == ["dichotomy_alpha1.5_fwd.csv"]
    digest, header, rows = cli.read_csv(str(tmp_path / "dichotomy_alpha1.5_fwd.csv"))
    assert digest == payload["config_digest"]
    assert header == list(fn.DIAGNOSTICS_COLUMNS)
    assert len(rows) >= 2


def test_virial_check_quick(tmp_path):
    out = str(tmp_path)
    assert cli.main(["virial-check", "--out", out]) == 0
    payload = read_json(tmp_path / "virial_report.json")
    assert payload["passed"] is True
    assert payload["mismatch"] < 0.02
    assert payload["sweep_monotone"] is True
    assert set(payload["r_sweep"]) == {"4", "8", "16"}
    digest, header, rows = cli.read_csv(str(tmp_path / "virial_diag.csv"))
    assert header == list(fn.DIAGNOSTICS_COLUMNS)
    assert len(rows) >= 5


def test_virial_check_needs_completed_run(tmp_path, monkeypatch, capsys):
    stub = lambda *a, **k: SimpleNamespace(status="blowup", series=[])
    monkeypatch.setattr(cli, "evolve_run", stub)
    assert cli.main(["virial-check", "--out", str(tmp_path)]) == 1
    assert "completed run" in stderr_payload(capsys)["error"]


def test_virial_check_failure_writes_report(tmp_path, monkeypatch):
    # a failing comparison is a numpy bool; the report must still serialize
    monkeypatch.setattr(cli, "virial_consistency", lambda out: np.float64(0.5))
    assert cli.main(["virial-check", "--out", str(tmp_path)]) == 1
    payload = read_json(tmp_path / "virial_report.json")
    assert payload["passed"] is False


def test_plotdata_kinds_and_errors(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["groundstate", "--out", out]) == 0
    profile_csv = str(tmp_path / "groundstate_n3_p3_lam0.csv")

    assert cli.main(["plotdata", profile_csv, "--kind", "profile", "--out", out]) == 0
    d, header, rows = cli.read_csv(
        str(tmp_path / "groundstate_n3_p3_lam0_plotdata.csv")
    )
    assert header == ["series", "t_or_r_or_lambda", "value"]
    assert {r[0] for r in rows} == {"Q"}
    assert len(rows) == 2000

    # header must match the declared kind
    assert cli.main(
        ["plotdata", profile_csv, "--kind", "diagnostics", "--out", out]
    ) == 2
    assert cli.main(["plotdata", profile_csv, "--kind", "waterfall"]) == 2
    assert cli.main(["plotdata", str(tmp_path / "absent.csv"), "--kind", "profile"]) == 2

    naked = tmp_path / "naked.csv"
    naked.write_text("r,Q\n1.0,2.0\n")
    assert cli.main(["plotdata", str(naked), "--kind", "profile"]) == 2
    assert "missing config digest" in stderr_payload(capsys)["error"]


def test_plotdata_diagnostics_yields_twelve_series(tmp_path):
    out = str(tmp_path)
    assert cli.main(["dichotomy", "--alpha", "1.5", "--out", out]) == 0
    diag_csv = str(tmp_path / "dichotomy_alpha1.5_fwd.csv")
    assert cli.main(["plotdata", diag_csv, "--kind", "diagnostics", "--out", out]) == 0
    d, header, rows = cli.read_csv(
        str(tmp_path / "dichotomy_alpha1.5_fwd_plotdata.csv")
    )
    names = {r[0] for r in rows}
    assert names == set(fn.DIAGNOSTICS_COLUMNS)
    assert len(names) == 12
    n_records = len(cli.read_csv(diag_csv)[2])
    assert len(rows) == 12 * n_records
