"""One workload run inside its own process; started by run.py.

The parent passes its monotonic clock reading taken just before the spawn,
so set-up time covers interpreter start, the imports and building the
argument parser. With --probe the child stops there. Otherwise it runs whole
rounds of the workload's operations until --seconds have passed (at least
one round), checks every output after the round's timed part, and writes a
JSON result file for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback


CALIBRATION_SAMPLES = 3
CALIBRATION_SHARE = 0.05  # calibration time after an operation, per its time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def calibrate(seconds=0.0):
    """Durations of a fixed reference computation, 20 to 27 ms each on the
    machine of README.md; timed CALIBRATION_SAMPLES times and for at least
    `seconds`.

    That machine's speed drifts by a third within seconds to minutes, so
    round times are reported in units of this computation, timed between
    the operations. It mixes the program's two kinds of work: an
    interpreter loop, and small-array numpy and banded LAPACK calls as in
    one time step.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    bands = np.zeros((3, 2000), dtype=complex)
    bands[0, 1:] = bands[2, :-1] = -1.0
    bands[1] = 2.0 + 0.1j
    rhs = np.linspace(0.0, 1.0, 2000) + 0j
    times = []
    begin = time.perf_counter()
    while len(times) < CALIBRATION_SAMPLES or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        x = rhs
        for _ in range(60):
            y = solve_banded((1, 1), bands, x)
            x = rhs + 0.1 * np.abs(y) * y / (1.0 + np.abs(y))
        times.append(time.perf_counter() - start)
    return times


def run_round(expcli, ops, round_dir, calib_before):
    """Run every operation once, then check the outputs.

    After each operation the calibration is timed for a share of that
    operation's time, so that together with `calib_before`, the samples
    taken just before the round, it follows the machine's speed across the
    round. Returns (wall_s, cpu_s, calibration samples per window, failures);
    wall_s and cpu_s are summed over the calls into expcli.main.
    """
    outcomes = []
    wall = cpu = 0.0
    calib = [calib_before]
    for k, op in enumerate(ops):
        out_dir = os.path.join(round_dir, f"op{k}")
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            code = expcli.main(list(op.argv) + ["--out", out_dir])
            error = None if code == 0 else f"exit code {code}"
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc(limit=-3).strip()
        op_wall = time.perf_counter() - start
        wall += op_wall
        cpu += _cpu_seconds() - cpu0
        calib.append(calibrate(CALIBRATION_SHARE * op_wall))
        outcomes.append((op, out_dir, error))

    import checks

    failures = []
    for op, out_dir, error in outcomes:
        if error is None:
            try:
                op.check(out_dir)
            except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                error = f"check failed: {exc!r}"
        if error is not None:
            failures.append(f"{' '.join(op.argv)}: {error}")
    return wall, cpu, calib, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    from hypnls import expcli

    expcli.build_parser()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.probe:
        import tracing
        import workloads

        ops = workloads.build(args.workload, args.seed)
        tracer = tracing.Tracer().install() if args.trace else None
        rounds = []
        attempted = failed = 0
        failures = []
        start = time.perf_counter()
        calib_before = calibrate(1.0)
        while not rounds or time.perf_counter() - start < args.seconds:
            gc.collect()
            round_dir = tempfile.mkdtemp(prefix=f"round{len(rounds)}-", dir=args.out)
            if tracer is not None:
                tracer.reset()
            wall, cpu, calib, round_failures = run_round(
                expcli, ops, round_dir, calib_before
            )
            calib_before = calib[-1]
            samples = [t for window in calib for t in window]
            entry = {"wall_s": wall, "cpu_s": cpu, "calib_s": statistics.median(samples)}
            if tracer is not None:
                entry["layers"] = tracer.metrics()
            rounds.append(entry)
            attempted += len(ops)
            failed += len(round_failures)
            failures.extend(round_failures)
            if not round_failures:
                shutil.rmtree(round_dir)
        result.update(
            rounds=rounds,
            attempted=attempted,
            failed=failed,
            failures=failures[:20],
            missing=sorted(tracer.missing) if tracer is not None else [],
        )
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
