"""The traced run survives a wrapped name that the program no longer has.

Run with: python3 -m pytest perfbench/tests
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hypnls import expcli  # noqa: E402
from hypnls import groundstate  # noqa: E402


@pytest.fixture
def tracer(monkeypatch):
    """A fresh Tracer whose wrappers are undone when the test ends."""
    for owner_path, attr, _, _ in tracing.TARGETS:
        owner = tracing._resolve(owner_path)
        if owner is not None and hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    # a later change renamed this function: its old name is gone
    monkeypatch.delattr(groundstate, "mass_constrained_minimize")
    return tracing.Tracer().install()


def test_missing_name_reports_null_and_keeps_running(tracer, tmp_path):
    op = workloads.Operation(
        ("groundstate", "--n", "3", "--p", "3", "--lambda", "0.5",
         "--rmax", "20", "--points", "2000"),
        lambda out: None,
    )
    _, _, _, failures = child.run_round(expcli, [op], str(tmp_path), [])
    assert failures == []
    assert tracer.missing == {"hypnls.groundstate.mass_constrained_minimize"}
    metrics = tracer.metrics()
    assert metrics["groundstate.mass_curve_s"] is None
    assert metrics["groundstate.flow_steps"] is None
    assert metrics["groundstate.solve_s"] > 0
    assert metrics["groundstate.shooting_calls"] > 0
    assert metrics["groundstate.banded_solves"] > 0
    assert metrics["expcli.bytes_written"] > 0


def test_self_time_excludes_child_spans(tracer):
    def inner():
        return sum(range(20000))

    outer = tracer._span(lambda: inner() + inner(), "outer")
    inner = tracer._span(inner, "inner")
    outer()
    assert tracer.calls["inner"] == 2 and tracer.calls["outer"] == 1
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.time["outer"] - tracer.time["inner"]
    )
