"""Command line: config resolution, persistence, digests, exit codes.

Everything runs in-process through main(argv) against tmp_path; the
inequalities subcommand (no solver work) carries the config-plumbing
tests, and resolve() checks the parameters of a subcommand that would
solve, so the suite stays fast.
"""

import hashlib
import json
import os
import stat
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import hypnls.evolve as ev
import hypnls.expcli as cli
import hypnls.functionals as fn
import hypnls.groundstate as gsmod
import hypnls.spectral as sp
from hypnls.hypgeom import build_grid


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


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
    assert payload["logslope_dev"] < 1e-3
    # lambda = 0.5 sits above the uniqueness window 2(p+1)/(p+3)^2 = 2/9
    assert payload["uniqueness_regime"] is False
    digest, header, rows = cli.read_csv(
        str(tmp_path / "groundstate_n3_p3_lam0.5.csv")
    )
    assert digest == payload["config_digest"]
    assert header == ["r", "Q"]
    assert len(rows) == 2000


def test_groundstate_records_its_verdict(tmp_path):
    # at lambda = -20 the G residual misses its 1e-4 gate
    for lam, code, passed in (("-20", 1, False), ("0", 0, True)):
        out = tmp_path / lam
        assert cli.main(["groundstate", "--lambda", lam, "--out", str(out)]) == code
        payload = read_json(out / f"groundstate_n3_p3_lam{lam}.json")
        assert payload["passed"] is passed
        assert (payload["residuals"]["g_value"] < 1e-4) is passed


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
    from_file = resolve(["groundstate", "--config", str(conf)])
    assert from_file.params_dict()["lambda"] == 0.25
    # explicit flag beats the file
    from_flag = resolve(["groundstate", "--config", str(conf), "--lambda", "0"])
    assert from_flag.params_dict()["lambda"] == 0.0
    # the digest tracks the resolved config
    assert from_flag.digest() != from_file.digest()


def test_config_file_keys_a_subcommand_does_not_read(tmp_path, capsys):
    # one file serves several subcommands: a key that inequalities does not
    # read is neither hashed nor reported, and the scan runs as by default
    conf = tmp_path / "shared.conf"
    conf.write_text("lambda=0.7\ndt=9\npoints=17\nalpha=0.5, 1.5\n")
    for argv, out in ((["--config", str(conf)], "shared"), ([], "default")):
        assert cli.main(["inequalities", *argv, "--out", str(tmp_path / out)]) == 0
    shared, default = (read_json(tmp_path / out / "inequalities_report.json")
                       for out in ("shared", "default"))
    assert shared == default
    # its values are still checked, whichever subcommand reads the file
    conf.write_text("dt=abc\n")
    assert cli.main(["inequalities", "--config", str(conf)]) == 2
    assert stderr_payload(capsys)["error"] == (
        "config key 'dt': could not convert string to float: 'abc'"
    )
    # an empty list is unset: the subcommand default
    conf.write_text("alpha=\n")
    assert resolve(["dichotomy", "--config", str(conf)]).alphas == [0.5, 0.9, 1.1, 1.5]


@pytest.mark.parametrize("argv", (
    ["inequalities", "--dt", "0.1"],
    ["groundstate", "--format", "csv"],
    ["spectral-check", "--lambda", "0.2"],
    ["virial-check", "--alpha", "1"],
    ["inequalities", "--tier", "production"],
))
def test_flag_a_subcommand_does_not_read_is_usage_error(tmp_path, capsys, argv):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": f"unrecognized arguments: {' '.join(argv[1:])}", "code": 2,
    }
    assert os.listdir(tmp_path) == []


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

    # a bad list entry is a usage error naming the key as written
    bad_alpha = tmp_path / "bad5.conf"
    bad_alpha.write_text("alpha=0.5,abc\n")
    assert cli.main(["dichotomy", "--config", str(bad_alpha)]) == 2
    assert stderr_payload(capsys) == {
        "error": "config key 'alpha': could not convert string to float: 'abc'",
        "code": 2,
    }

    # so is a value that is not finite
    bad_horizon = tmp_path / "bad6.conf"
    bad_horizon.write_text("horizon=nan\n")
    assert cli.main(["dichotomy", "--config", str(bad_horizon)]) == 2
    assert stderr_payload(capsys) == {
        "error": "config key 'horizon': not a finite number: 'nan'",
        "code": 2,
    }


def test_flags_and_config_file_resolve_alike(tmp_path):
    settings = {
        "n": "2", "p": "3.5", "lambda": "0.1", "rmax": "18.0", "points": "1500",
        "dt": "0.004", "horizon": "0.5", "tier": "production", "format": "csv",
        "out": str(tmp_path / "runs"),
    }
    conf = tmp_path / "all.conf"
    conf.write_text(
        "".join(f"{k}={v}\n" for k, v in settings.items()) + "alpha=0.7, 1.2\n"
    )
    flags = [f"--{k}={v}" for k, v in settings.items()]
    flags += ["--alpha", "0.7", "--alpha", "1.2"]
    from_file, from_flags = (
        resolve(["dichotomy"] + argv) for argv in (["--config", str(conf)], flags)
    )
    assert from_file.params_dict() == from_flags.params_dict() == {
        "command": "dichotomy", "n": 2, "p": 3.5, "lambda": 0.1, "rmax": 18.0,
        "points": 1500, "dt": 0.004, "horizon": 0.5, "tier": "production",
        "alpha": [0.7, 1.2], "format": "csv",
    }
    assert from_file.digest() == from_flags.digest()
    for cfg in (from_file, from_flags):
        assert cfg.out_dir == settings["out"]


def test_tier_from_config_file(tmp_path):
    conf = tmp_path / "prod.conf"
    conf.write_text("tier=production\n")
    params = resolve(["groundstate", "--config", str(conf)]).params_dict()
    assert params["tier"] == "production"
    assert params["points"] == 8000


def test_config_digest_is_pinned(tmp_path):
    # golden digests: the digest text (items, order, number format) must not
    # drift, or every stored output stops matching its configuration; each
    # hashes the command and the parameters it reads, but not out
    text = ("command=groundstate\nlambda=0.0\nn=3\np=3.0\npoints=2000\nrmax=20.0\n"
            "tier=quick")
    golden = "b33589964b9fde9bd2b3f68a6cc14c2545348619b11bd16e4cbb33580053ff98"
    assert hashlib.sha256(text.encode()).hexdigest() == golden
    assert resolve(["groundstate", "--out", "runs"]).digest() == golden
    for argv, report, text, golden in (
        (["spectral-check", "--format", "csv", "--tier", "production"],
         "spectral_report.csv",
         "command=spectral-check\nformat=csv\nn=3\npoints=2000\nrmax=20.0\n"
         "tier=production",
         "6dab3bfa7029e3967ff4d52e1b852457a4105adb8484eeadf5e9e31e48458e7b"),
        (["virial-check", "--n", "2", "--format", "csv"],
         "virial_report.csv",
         "command=virial-check\ndt=0.002\nformat=csv\nhorizon=1.0\nlambda=0.0\n"
         "n=2\np=3.0\npoints=2000\nrmax=20.0\ntier=quick",
         "26891a985bb6343df502a46882204f886a9c92cefc2f0b4937cdada6e8a02dc7"),
    ):
        assert hashlib.sha256(text.encode()).hexdigest() == golden
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert cli.read_csv(str(out / report))[0] == golden
    # the subcommand defaults sit above the tier
    out = tmp_path / "spectral-json"
    assert cli.main(["spectral-check", "--tier", "production", "--out", str(out)]) == 0
    assert read_json(out / "spectral_report.json")["params"]["points"] == 2000


def test_default_alphas_hash_like_the_same_alphas_given():
    # the default alphas are the subcommand's, so naming them changes nothing
    text = ("alpha=0.5,0.9,1.1,1.5\ncommand=dichotomy\ndt=0.002\nformat=json\n"
            "horizon=3.0\nlambda=0.0\nn=3\np=3.0\npoints=2000\nrmax=20.0\ntier=quick")
    golden = "8a5eb063e61a9bf635dd54c43cadb108d3844fefd899360fb9063442667c83ae"
    assert hashlib.sha256(text.encode()).hexdigest() == golden
    given = ["--alpha", "1.5", "--alpha", "0.5", "--alpha", "1.1", "--alpha", "0.9"]
    for argv in ([], given):
        cfg = resolve(["dichotomy", *argv])
        assert cfg.digest() == golden
        assert cfg.params_dict()["alpha"] == [0.5, 0.9, 1.1, 1.5]


# the params block, as JSON text, and the digest of each subcommand's
# default configuration on each tier it takes
DEFAULT_CONFIGS = {
    ("groundstate", "quick"): (
        '{"command": "groundstate", "lambda": 0.0, "n": 3, "p": 3.0, "points": 2000, '
        '"rmax": 20.0, "tier": "quick"}',
        "b33589964b9fde9bd2b3f68a6cc14c2545348619b11bd16e4cbb33580053ff98"),
    ("groundstate", "production"): (
        '{"command": "groundstate", "lambda": 0.0, "n": 3, "p": 3.0, "points": 8000, '
        '"rmax": 20.0, "tier": "production"}',
        "5503f70ba7b9554e569a729ec4b40bef6b0c5c783bd7378c8664eb3ada2100cf"),
    ("dichotomy", "quick"): (
        '{"alpha": [0.5, 0.9, 1.1, 1.5], "command": "dichotomy", "dt": 0.002, '
        '"format": "json", "horizon": 3.0, "lambda": 0.0, "n": 3, "p": 3.0, '
        '"points": 2000, "rmax": 20.0, "tier": "quick"}',
        "8a5eb063e61a9bf635dd54c43cadb108d3844fefd899360fb9063442667c83ae"),
    ("dichotomy", "production"): (
        '{"alpha": [0.5, 0.9, 1.1, 1.5], "command": "dichotomy", "dt": 0.0005, '
        '"format": "json", "horizon": 10.0, "lambda": 0.0, "n": 3, "p": 3.0, '
        '"points": 8000, "rmax": 20.0, "tier": "production"}',
        "bfb77e3985576bbc1c2aa174dc11c5f1a3a73823932bee03a7719bac29013926"),
    ("virial-check", "quick"): (
        '{"command": "virial-check", "dt": 0.002, "format": "json", "horizon": 1.0, '
        '"lambda": 0.0, "n": 3, "p": 3.0, "points": 2000, "rmax": 20.0, "tier": "quick"}',
        "3d69596bc4ca5cb3eefdd21c22f8b9911c10a31c7edf22b5f5214247cdacfc99"),
    ("virial-check", "production"): (
        '{"command": "virial-check", "dt": 0.0005, "format": "json", "horizon": 1.0, '
        '"lambda": 0.0, "n": 3, "p": 3.0, "points": 8000, "rmax": 20.0, '
        '"tier": "production"}',
        "c3a2e7eb1ae89ef6d21908a592d38518efd5fd1819a5855085d982b606e7af5e"),
    ("inequalities", None): (
        '{"command": "inequalities", "format": "json", "n": 3, "p": 3.0, "rmax": 20.0}',
        "2f6a40df9a53ad10cdbe4b3589cf297d387bf33e44041611b28077f41114d225"),
    **{("mass-curve", tier): (
        '{"alpha": [0.1, 0.15550791539731854, 0.24182711751219577, 0.3760603093086394, '
        '0.5848035476425733, 0.9094158061085302, 1.4142135623730951, 2.199214030112558, '
        '3.419951893353395, 5.318295896944989, 8.270371084000278, 12.861081668351451, '
        f'20.0], "command": "mass-curve", "format": "json", "n": 3, "p": 3.0, '
        f'"points": {points}, "rmax": 20.0, "tier": "{tier}"}}',
        digest) for tier, points, digest in (
            ("quick", 2000,
             "77d8ed5708b6b0d6819b2eba8ba006f71853be06ec56d30b48555cbda269890f"),
            ("production", 8000,
             "61e8999203bf7c3343ef62b0256317e174bb953dba4dba41da80f26d9271f6fb"))},
    **{("spectral-check", tier): (
        '{"command": "spectral-check", "format": "json", "n": 3, "points": 2000, '
        f'"rmax": 20.0, "tier": "{tier}"}}', digest) for tier, digest in (
            ("quick", "fb8f1e8d95173134b2ac4c305ea8c4508a8d1760d89c7aa554bf9695da47cba3"),
            ("production",
             "2b471c425dd48d2856ccde5d38f9a043cc8fefa04fa7fbe1a77de57b72fd12d4"))},
}


def test_default_config_of_every_subcommand_is_pinned():
    # every subcommand, on every tier it takes: rmax has one default, and
    # no tier or subcommand default restates it
    takes_tier = {name: "tier" in keys for name, (_, _, keys) in cli.COMMANDS.items()}
    assert {name for name, _ in DEFAULT_CONFIGS} == set(cli.COMMANDS)
    for (name, tier), (params, digest) in DEFAULT_CONFIGS.items():
        assert (tier is not None) == takes_tier[name]
        cfg = resolve([name] + (["--tier", tier] if tier else []))
        assert json.dumps(cfg.params_dict(), sort_keys=True) == params
        assert cfg.digest() == digest


@pytest.mark.parametrize("argv, files", (
    (["groundstate"], ("groundstate_n3_p3_lam0.csv", "groundstate_n3_p3_lam0.json")),
    (["spectral-check"], ("spectral_reference.csv", "spectral_report.json")),
    (["spectral-check", "--format", "csv"],
     ("spectral_reference.csv", "spectral_report.csv")),
    (["dichotomy", "--alpha", "1.5", "--horizon", "0.05"],
     ("dichotomy_alpha1.5_fwd.csv", "dichotomy_report.json")),
    (["virial-check", "--horizon", "0.1"], ("virial_diag.csv", "virial_report.json")),
    (["inequalities"], ("inequalities_report.json",)),
    (["mass-curve", "--p", "2", "--alpha", "13"],
     ("mass_curve.csv", "mass_curve_report.json")),
))
def test_every_output_carries_the_envelope(tmp_path, argv, files):
    argv = [*argv, "--out", str(tmp_path)]
    cfg = resolve(argv)
    # the reports list each parameter the subcommand reads, but not out
    keys = set(cli.COMMANDS[argv[0]][2]) - {"out"}
    assert set(cfg.params_dict()) == keys | {"command"}
    assert cli.main(argv) == 0
    assert tuple(sorted(os.listdir(tmp_path))) == files
    for name in files:
        if name.endswith(".json"):
            payload = read_json(tmp_path / name)
            assert payload["config_digest"] == cfg.digest()
            assert payload["params"] == cfg.params_dict()
        else:
            assert cli.read_csv(str(tmp_path / name))[0] == cfg.digest()


def test_output_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    assert cli.main(["inequalities", "--out", str(blocker)]) == 2
    assert stderr_payload(capsys)["code"] == 2
    assert cli.main(["inequalities", "--out", str(blocker / "sub")]) == 2
    payload = stderr_payload(capsys)
    assert payload["code"] == 2 and payload["error"].startswith("cannot write output")
    assert blocker.read_text() == "a file, not a directory\n"


def test_unknown_format_is_usage_error(tmp_path, capsys):
    conf = tmp_path / "fmt.conf"
    conf.write_text("format=yaml\n")
    assert cli.main(["inequalities", "--config", str(conf)]) == 2
    assert "unknown format" in stderr_payload(capsys)["error"]


def test_inequalities_pass_and_injected_failure(tmp_path, monkeypatch):
    out = str(tmp_path)
    assert cli.main(["inequalities", "--out", out]) == 0
    payload = read_json(tmp_path / "inequalities_report.json")
    assert payload["passed"] is True
    assert payload["results"]["quartic_min"] >= -1e-12
    assert abs(payload["results"]["w1_max"] - 1.0 / 3.0) < 1e-6
    assert payload["results"]["w1_tail"] < 1e-12
    # F with the sign of its maximum flipped must trip the scan
    quartic_values = fn.quartic_values

    def flipped(n, r_grid):
        values = quartic_values(n, r_grid)
        k = int(np.argmax(values))
        values[k] = -values[k]
        return values

    monkeypatch.setattr(fn, "quartic_values", flipped)
    assert cli.main(["inequalities", "--out", out]) == 1
    assert read_json(tmp_path / "inequalities_report.json")["passed"] is False


def test_inequalities_csv_format(tmp_path):
    out = str(tmp_path)
    assert cli.main(["inequalities", "--format", "csv", "--out", out]) == 0
    digest, header, rows = cli.read_csv(str(tmp_path / "inequalities_report.csv"))
    assert header == ["quantity", "value"]
    assert {r[0] for r in rows} >= {"results/quartic_min", "results/w1_max",
                                    "results/w1_tail", "passed"}


@pytest.mark.parametrize("n", ["0", "4"])
def test_inequalities_unsupported_dimension_is_usage_error(tmp_path, capsys, n):
    argv = ["inequalities", "--n", n, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert stderr_payload(capsys)["error"] == (
        f"unsupported dimension n={n}; supported: (2, 3)"
    )
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("rmax", ["0", "-1"])
def test_inequalities_nonpositive_rmax_is_usage_error(tmp_path, capsys, rmax):
    argv = ["inequalities", "--rmax", rmax, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "r_max must be positive" in stderr_payload(capsys)["error"]


@pytest.mark.parametrize("argv, error", (
    (["inequalities", "--n", "4"], "unsupported dimension n=4; supported: (2, 3)"),
    # sinh^2(r) overflows near r = 355
    (["groundstate", "--n", "3", "--lambda", "0.5", "--rmax", "400", "--points", "8000"],
     "r_max=400.0 overflows the volume density sinh^2(r)"),
), ids=("inequalities_n4", "groundstate_rmax400"))
def test_module_entry_point_usage_error(tmp_path, argv, error):
    # python -m hypnls.expcli: exit 2, one JSON line on stderr and no file
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "hypnls.expcli", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [json.dumps({"error": error, "code": 2})]
    assert os.listdir(tmp_path) == []


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
    # e(alpha) decreases on the negative branch, where dJ/dM < 0
    assert float(rows[1][1]) < float(rows[0][1])
    payload = read_json(tmp_path / "mass_curve_report.json")
    assert payload["negative_rows"] == 2
    assert payload["passed"] is True


def test_mass_curve_csv_report(tmp_path):
    # in csv format the verdict lands in mass_curve_report.csv, not only in
    # the exit code
    out = str(tmp_path)
    args = ["mass-curve", "--p", "2", "--alpha", "13", "--format", "csv", "--out", out]
    assert cli.main(args) == 0
    digest, header, rows = cli.read_csv(str(tmp_path / "mass_curve_report.csv"))
    assert digest == cli.read_csv(str(tmp_path / "mass_curve.csv"))[0]
    assert header == ["quantity", "value"]
    assert rows == [["alpha0_estimate", "13.0"], ["negative_rows", "1"], ["passed", "1"]]
    assert not (tmp_path / "mass_curve_report.json").exists()


def _cell(value):
    """A JSON value as the CSV reports write it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _leaves(node, path=""):
    """[key path, cell] of each leaf, in the order the JSON file lists them."""
    if not isinstance(node, dict):
        return [[path[:-1], _cell(node)]]
    return [leaf for key, value in node.items() for leaf in _leaves(value, f"{path}{key}/")]


@pytest.mark.parametrize("argv", (
    ["dichotomy", "--alpha", "0.5", "--alpha", "1.5", "--horizon", "0.05"],
    ["virial-check", "--horizon", "0.05"],
    ["inequalities"],
    ["mass-curve", "--p", "2", "--alpha", "13"],
    ["spectral-check"],
), ids=lambda argv: argv[0])
def test_csv_report_is_the_json_payload(tmp_path, argv):
    reports = {}
    for fmt in ("json", "csv"):
        assert cli.main([*argv, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        (name,) = (f for f in os.listdir(tmp_path / fmt) if "_report." in f)
        reports[fmt] = tmp_path / fmt / name
    payload = read_json(reports["json"])
    del payload["config_digest"], payload["params"]
    _, header, rows = cli.read_csv(str(reports["csv"]))
    if "rows" in payload:
        # the dichotomy table: one column per key of a row, trapped last
        assert sorted(header) == sorted(payload["rows"][0]) and header[-1] == "trapped"
        assert rows == [[_cell(row[key]) for key in header] for row in payload["rows"]]
    else:
        assert header == ["quantity", "value"]
        assert rows == _leaves(payload)
        assert ("passed" in payload) == (["passed", "1"] in rows)


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_mass_curve_nonpositive_alpha_is_usage_error(tmp_path, capsys, alpha):
    argv = ["mass-curve", "--p", "2", "--alpha", alpha, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert "alpha must be positive" in stderr_payload(capsys)["error"]


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


def test_spectral_check_transforms_each_field_once(tmp_path, monkeypatch):
    # one forward per field of the family plus the reference spectrum; two
    # inverses per field: the P_m sweep and the reconstruction's target
    calls = {"forward": 0, "inverse": 0}
    for name in calls:
        method = getattr(sp.SpectralTransform, name)

        def counted(self, values, method=method, name=name):
            calls[name] += 1
            return method(self, values)

        monkeypatch.setattr(sp.SpectralTransform, name, counted)
    assert cli.main(["spectral-check", "--out", str(tmp_path)]) == 0
    assert calls == {"forward": 31, "inverse": 60}


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
    assert row["blowup_reason"] == "h1_threshold"
    assert payload["row_files"] == ["dichotomy_alpha1.5_fwd.csv"]
    digest, header, rows = cli.read_csv(str(tmp_path / "dichotomy_alpha1.5_fwd.csv"))
    assert digest == payload["config_digest"]
    assert header == list(fn.DIAGNOSTICS_COLUMNS)
    assert len(rows) >= 2
    csv_dir = tmp_path / "csv"
    argv = ["dichotomy", "--alpha", "1.5", "--format", "csv", "--out", str(csv_dir)]
    assert cli.main(argv) == 0
    _, header, (csv_row,) = cli.read_csv(str(csv_dir / "dichotomy_report.csv"))
    assert header[header.index("t_star") + 1] == "blowup_reason"
    assert csv_row[header.index("blowup_reason")] == "h1_threshold"


def test_repeated_alpha_runs_once(tmp_path):
    out = tmp_path / "dichotomy"
    argv = ["dichotomy", "--alpha", "1.5", "--alpha", "1.5", "--horizon", "0.05",
            "--out", str(out)]
    assert cli.main(argv) == 0
    payload = read_json(out / "dichotomy_report.json")
    assert [row["alpha"] for row in payload["rows"]] == [1.5]
    assert payload["row_files"] == ["dichotomy_alpha1.5_fwd.csv"]
    out = tmp_path / "mass"
    argv = ["mass-curve", "--p", "2", "--alpha", "1", "--alpha", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    repeated, _, rows = cli.read_csv(str(out / "mass_curve.csv"))
    assert [float(row[0]) for row in rows] == [1.0]
    # the same work has the same digest
    once = tmp_path / "once"
    assert cli.main(["mass-curve", "--p", "2", "--alpha", "1", "--out", str(once)]) == 0
    assert cli.read_csv(str(once / "mass_curve.csv"))[0] == repeated


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_dichotomy_report_rows_match_first_records(tmp_path):
    # the report's datum columns are read off the t = 0 record of the run
    out = str(tmp_path)
    argv = ["dichotomy", "--lambda", "0.3", "--alpha", "0.9", "--alpha", "1.1",
            "--horizon", "0.05", "--out", out]
    assert cli.main(argv) == 0
    gs = gsmod.solve_ground_state(3.0, 0.3, build_grid(3, 20.0, 2000))
    payload = read_json(tmp_path / "dichotomy_report.json")
    assert [row["delta_sign"] for row in payload["rows"]] == ["-", "+"]
    for row, fname in zip(payload["rows"], payload["row_files"]):
        _, header, rows = cli.read_csv(str(tmp_path / fname))
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        delta = float(first["delta_lambda"])
        assert row["delta_sign"] == ("+" if delta > 0 else "-")
        assert row["elam_ratio"] == float(first["energy_lambda"]) / gs.elam


def test_dichotomy_zero_datum_completes(tmp_path):
    # the zero solution exists for all time: no blow-up, and no NaN t_star
    assert cli.main(["dichotomy", "--alpha", "0", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "dichotomy_report.json").read_text()
    (row,) = json.loads(text, parse_constant=_reject_constant)["rows"]
    assert row["status"] == "completed"
    assert row["t_star"] is None
    assert row["blowup_reason"] is None


def test_dichotomy_outside_theorem_range_warns(tmp_path, capsys):
    # n = 3, p = 2 is below the range 7/3 <= p < 5: the run goes ahead
    argv = ["dichotomy", "--p", "2", "--alpha", "0.5", "--horizon", "0.05",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == (
        "warning: (n, p) = (3, 2.0) is outside the dichotomy range "
        "(n=2, p>=3 or n=3, 7/3<=p<5); running anyway\n"
    )
    assert (tmp_path / "dichotomy_report.json").exists()


def test_dichotomy_horizon_zero_is_usage_error(tmp_path, capsys):
    assert cli.main(["dichotomy", "--horizon", "0", "--out", str(tmp_path)]) == 2
    assert stderr_payload(capsys)["error"] == "horizon must be positive"
    assert not (tmp_path / "dichotomy_report.json").exists()
    # a non-finite flag value is refused before any run starts
    for horizon in ("nan", "inf"):
        assert cli.main(["dichotomy", "--horizon", horizon, "--out", str(tmp_path)]) == 2
        payload = stderr_payload(capsys)
        assert payload["code"] == 2
        assert f"invalid finite_float value: '{horizon}'" in payload["error"]
        assert not (tmp_path / "dichotomy_report.json").exists()


def test_virial_check_quick(tmp_path):
    out = str(tmp_path)
    assert cli.main(["virial-check", "--out", out]) == 0
    payload = read_json(tmp_path / "virial_report.json")
    assert payload["passed"] is True
    assert payload["mismatch"] < 0.02
    assert payload["sweep_monotone"] is True
    assert set(payload["r_sweep"]) == {"4", "8", "16"}
    assert payload["params"]["horizon"] == 1.0
    digest, header, rows = cli.read_csv(str(tmp_path / "virial_diag.csv"))
    assert header == list(fn.DIAGNOSTICS_COLUMNS)
    assert len(rows) >= 5


def test_virial_check_needs_completed_run(tmp_path, monkeypatch, capsys):
    stub = lambda *a, **k: SimpleNamespace(status="blowup", series=[])
    monkeypatch.setattr(cli, "evolve_run", stub)
    assert cli.main(["virial-check", "--out", str(tmp_path)]) == 1
    assert "completed run" in stderr_payload(capsys)["error"]


def test_virial_check_incomplete_run_still_writes_series(tmp_path, monkeypatch, capsys):
    # every step counts as strained, so the run halves dt to the floor and
    # stops as a blow-up before the horizon
    monkeypatch.setattr(ev, "STRAIN_ITERS", 0)
    assert cli.main(["virial-check", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "code": 1, "error": "virial check requires completed run"
    }
    _, header, rows = cli.read_csv(str(tmp_path / "virial_diag.csv"))
    assert header == list(fn.DIAGNOSTICS_COLUMNS)
    assert len(rows) == 2 and 0.0 < float(rows[-1][0]) < 1.0
    assert not (tmp_path / "virial_report.json").exists()


def test_virial_check_failure_writes_report(tmp_path, monkeypatch):
    # a failing comparison is a numpy bool; the report must still serialize
    monkeypatch.setattr(cli, "virial_consistency", lambda out: np.float64(0.5))
    assert cli.main(["virial-check", "--out", str(tmp_path)]) == 1
    payload = read_json(tmp_path / "virial_report.json")
    assert payload["passed"] is False


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    # every Cayley solve returns NaN, so every run ends in inner_solve_failure
    nan_solve = lambda *args: np.full_like(args[-1], np.nan)
    monkeypatch.setattr(ev, "solve_banded", nan_solve)
    dich = tmp_path / "dich"
    assert cli.main(["dichotomy", "--alpha", "0.5", "--out", str(dich)]) == 3
    assert stderr_payload(capsys)["code"] == 3
    (row,) = read_json(dich / "dichotomy_report.json")["rows"]
    assert row["status"] == "inner_solve_failure"
    assert row["t_star"] is None
    vir = tmp_path / "vir"
    assert cli.main(["virial-check", "--out", str(vir)]) == 3
    assert stderr_payload(capsys)["code"] == 3
    _, _, rows = cli.read_csv(str(vir / "virial_diag.csv"))
    assert float(rows[-1][0]) == 0.0
    # a failed tridiagonal solve in groundstate or mass-curve: a zero pivot,
    # or a solution that is not finite
    solve = gsmod.solve_banded

    def singular(*args):
        raise np.linalg.LinAlgError("singular tridiagonal matrix")

    def non_finite(*args):
        return solve(*args[:-1], np.full_like(args[-1], np.nan))

    for failing in (singular, non_finite):
        monkeypatch.setattr(gsmod, "solve_banded", failing)
        for argv in (["groundstate"], ["mass-curve", "--p", "2", "--alpha", "13"]):
            assert cli.main([*argv, "--out", str(tmp_path / "gs")]) == 3
            assert stderr_payload(capsys)["code"] == 3


def test_plotdata_kinds_and_errors(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["groundstate", "--out", out]) == 0
    profile_csv = str(tmp_path / "groundstate_n3_p3_lam0.csv")

    assert cli.main(["plotdata", profile_csv, "--out", out]) == 0
    d, header, rows = cli.read_csv(
        str(tmp_path / "groundstate_n3_p3_lam0_plotdata.csv")
    )
    assert header == ["series", "t_or_r_or_lambda", "value"]
    assert {r[0] for r in rows} == {"Q"}
    assert len(rows) == 2000

    # the header is the layout: no flag restates it, and a header that is
    # none of the layouts is a usage error that names them
    assert cli.main(["plotdata", profile_csv, "--kind", "profile"]) == 2
    assert stderr_payload(capsys)["code"] == 2
    unknown = tmp_path / "unknown.csv"
    unknown.write_text("# config_digest=abc\nr,P\n1.0,2.0\n")
    assert cli.main(["plotdata", str(unknown), "--out", out]) == 2
    assert stderr_payload(capsys) == {
        "code": 2,
        "error": f"{unknown}: the header is none of the layouts "
                 "diagnostics, profile, spectrum",
    }
    assert not (tmp_path / "unknown_plotdata.csv").exists()
    assert cli.main(["plotdata", str(tmp_path / "absent.csv")]) == 2

    naked = tmp_path / "naked.csv"
    naked.write_text("r,Q\n1.0,2.0\n")
    assert cli.main(["plotdata", str(naked)]) == 2
    assert "missing config digest" in stderr_payload(capsys)["error"]

    headless = tmp_path / "headless.csv"
    headless.write_text("# config_digest=abc\n")
    assert cli.main(["plotdata", str(headless)]) == 2
    assert stderr_payload(capsys)["error"] == f"{headless}: missing header row"

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("# config_digest=abc\nr,Q\n1.0,2.0\n3.0\n")
    assert cli.main(["plotdata", str(ragged)]) == 2
    assert stderr_payload(capsys) == {
        "code": 2, "error": f"{ragged}: data row 2 does not match the header",
    }


def test_plotdata_reads_each_layout_off_its_header(tmp_path):
    layouts = list(cli.PLOT_HEADERS.values())
    assert all(a != b for k, a in enumerate(layouts) for b in layouts[k + 1:])
    for kind, header in cli.PLOT_HEADERS.items():
        source = tmp_path / f"{kind}.csv"
        cli.write_csv(str(source), "abc", header, [range(len(header))])
        assert cli.main(["plotdata", str(source), "--out", str(tmp_path)]) == 0
        rows = cli.read_csv(str(tmp_path / f"{kind}_plotdata.csv"))[2]
        # a diagnostics file counts its first column, t, as a series too
        first = 0 if kind == "diagnostics" else 1
        assert [r[0] for r in rows] == header[first:]


def test_plotdata_diagnostics_yields_twelve_series(tmp_path):
    out = str(tmp_path)
    assert cli.main(["dichotomy", "--alpha", "1.5", "--out", out]) == 0
    diag_csv = str(tmp_path / "dichotomy_alpha1.5_fwd.csv")
    assert cli.main(["plotdata", diag_csv, "--out", out]) == 0
    d, header, rows = cli.read_csv(
        str(tmp_path / "dichotomy_alpha1.5_fwd_plotdata.csv")
    )
    names = {r[0] for r in rows}
    assert names == set(fn.DIAGNOSTICS_COLUMNS)
    assert len(names) == 12
    n_records = len(cli.read_csv(diag_csv)[2])
    assert len(rows) == 12 * n_records
