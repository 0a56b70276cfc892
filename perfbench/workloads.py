"""The benchmark's workloads: the `hypnls` invocations of one round.

An operation is one subcommand invocation through `hypnls.expcli.main`,
paired with the check its outputs must pass. A workload's round is a fixed
list of operations; the seed draws the inputs whose verdict is known in
advance (dichotomy amplitudes, ground-state frequencies) from narrow ranges
around the values the acceptance suite uses, so every seed does about the
same work and no operation may legitimately fail.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import checks

P_CUBIC = 3.0
QUICK_HORIZON = 3.0  # the quick tier's horizon, which dichotomy runs to

# alpha * Q data: below 1 the run disperses, above 1 it blows up before
# t = 3 in both dimensions (t* = 2.1 to 2.4 for n = 2 at the third range)
DICHOTOMY_ALPHA_RANGES = ((0.45, 0.55), (0.86, 0.92), (1.10, 1.12), (1.45, 1.55))

# acceptance criterion 1 cases as (n, lambda range, rmax, points); the range
# ends stay below the spectral bottom far enough for the identity gates
GROUNDSTATE_CASES = (
    (3, (0.0, 0.1), 20.0, 4000),
    (3, (0.45, 0.55), 20.0, 4000),
    (3, (0.85, 0.9), 40.0, 8000),
    (2, (0.0, 0.05), 20.0, 4000),
    (2, (0.15, 0.2), 40.0, 8000),
)

VIRIAL_HORIZON = 2.0  # horizon 3 reaches the Dirichlet wall (see CHANGES.md)


@dataclass(frozen=True)
class Operation:
    argv: Tuple[str, ...]           # hypnls arguments, without --out
    check: Callable[[str], None]    # called with the output directory


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def dichotomy(rng: random.Random) -> List[Operation]:
    alphas = [_draw(rng, lo, hi) for lo, hi in DICHOTOMY_ALPHA_RANGES]
    flags = tuple(x for a in alphas for x in ("--alpha", repr(a)))
    return [
        Operation(
            ("dichotomy", "--tier", "quick", "--n", str(n), "--p", "3") + flags,
            functools.partial(
                checks.check_dichotomy, alphas=alphas, p=P_CUBIC, horizon=QUICK_HORIZON
            ),
        )
        for n in (3, 2)
    ]


def stationary(rng: random.Random) -> List[Operation]:
    ops = []
    for n, (lo, hi), rmax, points in GROUNDSTATE_CASES:
        lam = _draw(rng, lo, hi)
        ops.append(
            Operation(
                (
                    "groundstate", "--n", str(n), "--p", "3", "--lambda", repr(lam),
                    "--rmax", repr(rmax), "--points", str(points),
                ),
                functools.partial(checks.check_groundstate, n=n, p=P_CUBIC, lam=lam),
            )
        )
    ops.append(
        Operation(
            ("mass-curve", "--p", "2"),
            functools.partial(checks.check_mass_curve, n=3),
        )
    )
    return ops


def spectral(rng: random.Random) -> List[Operation]:
    return [Operation(("spectral-check", "--tier", "quick"), checks.check_spectral)]


def virial(rng: random.Random) -> List[Operation]:
    return [
        Operation(
            ("virial-check", "--n", str(n), "--horizon", repr(VIRIAL_HORIZON)),
            checks.check_virial,
        )
        for n in (3, 2)
    ]


WORKLOADS: Dict[str, Callable[[random.Random], List[Operation]]] = {
    "dichotomy": dichotomy,
    "stationary": stationary,
    "spectral": spectral,
    "virial": virial,
}


def build(name: str, seed: int) -> List[Operation]:
    """The operations of one round of workload `name` for `seed`."""
    return WORKLOADS[name](random.Random(seed))
