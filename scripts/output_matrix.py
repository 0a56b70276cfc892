"""Run a fixed matrix of `hypnls` invocations and keep everything they emit.

    python scripts/output_matrix.py OUTDIR [--src SRC] [--check MANIFEST | --write MANIFEST]

Each entry of MATRIX runs as `python -m hypnls.expcli ARGV --out
OUTDIR/NAME` in a fresh process that imports the package from SRC
(default: this tree's src); `{outdir}` in ARGV stands for OUTDIR, so an
entry can read what an earlier one wrote. The entry's directory then holds
the files the subcommand wrote, plus its stdout.txt, stderr.txt and
exit_code.txt.
The outputs are deterministic for a fixed source tree, so

    python scripts/output_matrix.py /tmp/before --src PARENT/src
    python scripts/output_matrix.py /tmp/after
    diff -r /tmp/before /tmp/after

is a byte-identity check of two trees: digests, reports, diagnostics,
stdout, stderr (error lines included) and exit codes. The committed
MANIFEST (scripts/output_manifest.txt) holds the sha256 of every file of
the matrix, under a stamp of the platform that wrote it, so

    python scripts/output_matrix.py /tmp/after --check scripts/output_manifest.txt

checks one tree without building another: it lists each file that
differs, is missing or is extra, and exits 1 on any difference. On a
platform whose stamp differs it exits 2 with "not comparable", since the
last digits of the outputs may move between platforms. A change that
moves outputs on purpose rewrites the manifest with --write. The matrix
takes about 20 s on a 2-vCPU x86_64 machine. Needs only the standard
library and the package's dependencies.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent

# (name, argv without --out); the groundstate cases are acceptance
# criterion 1's, at the resolutions the benchmark's stationary workload uses
MATRIX = (
    ("gs_n3_lam0", ("groundstate", "--n", "3", "--lambda", "0.0",
                    "--rmax", "20.0", "--points", "4000")),
    ("gs_n3_lam0.5", ("groundstate", "--n", "3", "--lambda", "0.5",
                      "--rmax", "20.0", "--points", "4000")),
    ("gs_n3_lam0.9", ("groundstate", "--n", "3", "--lambda", "0.9",
                      "--rmax", "40.0", "--points", "8000")),
    ("gs_n2_lam0", ("groundstate", "--n", "2", "--lambda", "0.0",
                    "--rmax", "20.0", "--points", "4000")),
    ("gs_n2_lam0.2", ("groundstate", "--n", "2", "--lambda", "0.2",
                      "--rmax", "40.0", "--points", "8000")),
    ("dichotomy_n3", ("dichotomy", "--n", "3")),
    ("dichotomy_n2_csv", ("dichotomy", "--n", "2", "--format", "csv")),
    ("dichotomy_lam0.3", ("dichotomy", "--n", "3", "--lambda", "0.3")),
    ("virial_n3", ("virial-check", "--n", "3", "--horizon", "2.0")),
    ("virial_n2", ("virial-check", "--n", "2", "--horizon", "2.0")),
    ("virial_lam0.4", ("virial-check", "--lambda", "0.4")),
    ("mass_curve_p2", ("mass-curve", "--p", "2")),
    ("mass_curve_n2_p2.5", ("mass-curve", "--n", "2", "--p", "2.5")),
    ("inequalities", ("inequalities",)),
    ("spectral", ("spectral-check",)),
    ("spectral_csv", ("spectral-check", "--format", "csv")),
    ("spectral_production", ("spectral-check", "--tier", "production")),
    ("virial_csv", ("virial-check", "--horizon", "0.05", "--format", "csv")),
    ("inequalities_csv", ("inequalities", "--format", "csv")),
    # the largest W1 lattice an r_max below the overflow refusal gives
    ("inequalities_rmax700", ("inequalities", "--rmax", "700")),
    ("mass_curve_csv", ("mass-curve", "--p", "2", "--alpha", "13", "--format", "csv")),
    # a failed gate: exit 1, and the report records passed false
    ("gs_fail_lam-20", ("groundstate", "--lambda", "-20")),
    # another failed gate, whose profile underflows to 0 inside the log-slope window
    ("gs_lam-400_rmax60", ("groundstate", "--lambda", "-400", "--rmax", "60",
                           "--points", "6000")),
    # plotdata, one entry per layout, on files of the entries above
    ("plot_profile", ("plotdata", "{outdir}/gs_n3_lam0/groundstate_n3_p3_lam0.csv")),
    ("plot_diagnostics", ("plotdata", "{outdir}/virial_n3/virial_diag.csv")),
    ("plot_spectrum", ("plotdata", "{outdir}/spectral/spectral_reference.csv")),
    # errors: each exits 2 (usage) or 3 (solver) with one JSON line on stderr
    ("err_gs_lam1", ("groundstate", "--lambda", "1.0")),
    ("err_gs_format", ("groundstate", "--lambda", "0.5", "--format", "csv")),
    ("err_mass_curve_p4", ("mass-curve", "--p", "4")),
    ("err_spectral_n2", ("spectral-check", "--n", "2")),
    ("err_mass_curve_n2_p2.9", ("mass-curve", "--n", "2", "--p", "2.9")),
    ("err_inequalities_rmax800", ("inequalities", "--rmax", "800")),
)


def run_entry(outdir: Path, name: str, argv, src: str) -> int:
    target = outdir / name
    target.mkdir(parents=True, exist_ok=False)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [arg.replace("{outdir}", str(outdir)) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "hypnls.expcli", *argv, "--out", str(target)],
        env=env, capture_output=True, text=True,
    )
    (target / "stdout.txt").write_text(proc.stdout)
    (target / "stderr.txt").write_text(proc.stderr)
    (target / "exit_code.txt").write_text(f"{proc.returncode}\n")
    return proc.returncode


def stamp() -> str:
    """The numeric platform: the versions of numpy and scipy, the machine
    and the longdouble epsilon of the extended-precision scans."""
    return (f"numpy={np.__version__} scipy={scipy.__version__} "
            f"machine={platform.machine()} longdouble_eps={np.finfo(np.longdouble).eps}")


def manifest(outdir: Path) -> list:
    """The stamp line, then one `sha256  path` line per file under outdir."""
    files = sorted(p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file())
    return [f"# {stamp()}"] + [
        f"{hashlib.sha256((outdir / name).read_bytes()).hexdigest()}  {name}"
        for name in files
    ]


def check(committed: list, lines: list) -> int:
    """Compare a run's manifest lines with the committed ones."""
    if committed[0] != lines[0]:
        print(f"not comparable: the manifest was written on {committed[0][2:]}, "
              f"this run is on {lines[0][2:]}")
        return 2
    want, have = ({name: digest for digest, name in (line.split("  ", 1) for line in side[1:])}
                  for side in (committed, lines))
    bad = sorted(name for name in want.keys() | have.keys() if want.get(name) != have.get(name))
    for name in bad:
        kind = "missing" if name not in have else "extra" if name not in want else "differs"
        print(f"{kind}: {name}")
    print(f"{len(bad)} files differ" if bad else f"identical: all {len(want)} files")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", help="directory for the results (must not exist)")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="source tree to import hypnls from (default: ./src)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", metavar="MANIFEST",
                      help="compare the outputs with MANIFEST; exit 1 on any difference")
    mode.add_argument("--write", metavar="MANIFEST",
                      help="write the outputs' manifest to MANIFEST")
    args = parser.parse_args(argv)
    # read before the runs, so that a bad path fails at once
    committed = Path(args.check).read_text().splitlines() if args.check else None
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=False)
    src = os.path.abspath(args.src)
    for name, entry in MATRIX:
        code = run_entry(outdir, name, entry, src)
        print(f"{name}: exit {code}", flush=True)
    if args.write:
        Path(args.write).write_text("\n".join(manifest(outdir)) + "\n")
    if args.check:
        return check(committed, manifest(outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
