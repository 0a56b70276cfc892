"""Benchmark of the `hypnls` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in one child process
(perfbench/child.py) that imports `hypnls.expcli` from ./src and calls
`expcli.main(argv)` once per operation, in whole rounds, for S seconds. A few
extra children only import the program, so that set-up time is a median.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of END_TO_END; with --trace 1 they are the per-layer ones
of tracing.METRICS, medians over the rounds. perfbench/README.md explains
them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(HERE, "out")
END_TO_END = {
    "wall_norm": "calib", "cpu_norm": "calib", "peak_rss_mb": "MB", "setup_s": "s"
}
SETUP_PROBES = 4        # import-only children besides the workload child
CHILD_DEADLINE_S = 165  # the whole run must end within 180 s


def _spawn(child_args, result_path):
    """Run child.py to completion; returns (exit code, rusage)."""
    env = dict(os.environ)
    env.pop("HYPNLS_OUT", None)  # it would override every --out
    # one thread per workload: the BLAS pool would otherwise spin on both
    # cores and make the timings depend on the machine's other load
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--spawned-at", repr(spawned_at)] + child_args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,  # keep this process's stdout for the result line
    )
    deadline = spawned_at + CHILD_DEADLINE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _read_result(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hypnls", "expcli.py")):
        sys.stderr.write(f"perfbench: no hypnls sources under {ROOT}/src\n")
        return 2

    os.makedirs(OUT_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=OUT_ROOT)
    setups = []
    for k in range(SETUP_PROBES):
        path = os.path.join(run_dir, f"probe{k}.json")
        code, _ = _spawn(["--probe"], path)
        probe = _read_result(path)
        if code != 0 or probe is None:
            sys.stderr.write("perfbench: the program failed to import\n")
            return 1
        setups.append(probe["setup_s"])

    path = os.path.join(run_dir, "result.json")
    code, usage = _spawn(
        [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--out", run_dir,
        ],
        path,
    )
    result = _read_result(path)
    if code != 0 or result is None:
        sys.stderr.write(f"perfbench: workload child ended with code {code}\n")
        return 1
    setups.append(result["setup_s"])

    rounds = result["rounds"]
    if args.trace:
        import tracing

        metrics = {}
        for name, (unit, _, _) in tracing.METRICS.items():
            values = [r["layers"][name] for r in rounds]
            value = None if None in values else statistics.median(values)
            metrics[name] = _metric(value, unit)
        if result["missing"]:
            sys.stderr.write(
                "perfbench: not found in the program, metrics reported as null: "
                + ", ".join(result["missing"]) + "\n"
            )
    else:
        values = {
            "wall_norm": statistics.median(r["wall_s"] / r["calib_s"] for r in rounds),
            "cpu_norm": statistics.median(r["cpu_s"] / r["calib_s"] for r in rounds),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            "setup_s": statistics.median(setups),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    for failure in result["failures"]:
        sys.stderr.write(f"perfbench: failed: {failure}\n")
    if result["failed"] == 0:
        shutil.rmtree(run_dir)
    sys.stderr.write(
        f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"{result['attempted']} operations, {result['failed']} failed\n"
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
