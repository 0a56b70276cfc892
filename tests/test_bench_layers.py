"""Smoke test of the layer-timing script scripts/bench_layers.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def test_bench_layers_measure(monkeypatch):
    # the script pins the BLAS thread variables when it is loaded; setting
    # them here first lets monkeypatch restore them afterwards
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.REPEATS = bench.WARMUP = 2
    layers = bench.measure(2000)
    assert layers["solves_per_step"] == 2
    timed = {"tridiag_solve_us", "cn_step_us", "h1_monitor_us",
             "diagnostics_record_us", "mass_point_us", "undershoot_shot_us",
             "overshoot_shot_us", "newton_polish_us", "transform_setup_us",
             "field_spectrum_us"}
    assert set(layers) == timed | {"solves_per_step"}
    for key in timed:
        q = layers[key]
        assert set(q) == {"median", "q1", "q3"}
        assert 0.0 < q["q1"] <= q["median"] <= q["q3"]
