"""The benchmark's workloads: CLI invocations built from a seed.

Each workload keeps the dominant layer of one configs/ fixture busy for
about 6-20 s per sample on a 2-core Xeon VM (the configs/ s=3/2 fixtures
take 43-94 s), so that 22 runs of every workload fit the benchmark's time
budget.  A smoke variant runs the same commands on
tiny systems for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# Thermal thresholds are drawn from these; all lie strictly between E0 and 0
# (E0 = -6.2635 for the N=14 ring, -2.8028 for the N=6 smoke ring), so every
# threshold has a crossing and the reference holds its T* for each.
THERMAL_CANDIDATES = tuple(-0.5 * k for k in range(1, 13))
SMOKE_THERMAL_CANDIDATES = (-0.5, -1.0, -1.5, -2.0, -2.5)
THERMAL_DRAWS = 3


@dataclass(frozen=True)
class Invocation:
    tag: str        # names the reference output
    command: str    # spinwitness CLI command
    config: dict    # YAML config


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[int, bool], list]  # (seed, smoke) -> Invocations


def _ring(n: int, spin: str) -> dict:
    return {"model": {"topology": "ring", "N": n, "spin": spin}}


def _scan(seed, smoke):
    return [Invocation("ring", "scan", _ring(4 if smoke else 8, "1"))]


def _defect(seed, smoke):
    config = _ring(4 if smoke else 8, "1")
    config["defect_series"] = {"site": 3 if smoke else 5,
                               "spins": ["0", "1/2", "1", "3/2", "2", "5/2"]}
    return [Invocation("ring", "defect", config)]


def _ground(seed, smoke):
    return [Invocation("odd", "ground", _ring(5 if smoke else 15, "1/2")),
            Invocation("even", "ground", _ring(6 if smoke else 16, "1/2"))]


def thermal_config(smoke: bool, thresholds) -> dict:
    config = _ring(6 if smoke else 14, "1/2")
    config["thermal"] = {"t_min": 0.0, "t_max": 2.0, "points": 21,
                         "thresholds": list(thresholds)}
    return config


def _thermal(seed, smoke):
    pool = SMOKE_THERMAL_CANDIDATES if smoke else THERMAL_CANDIDATES
    thresholds = random.Random(seed).sample(pool, THERMAL_DRAWS)
    return [Invocation("ring", "thermal", thermal_config(smoke, thresholds))]


WORKLOADS = {
    "scan-ring8-s1": Workload(
        "scan of an N=8 s=1 ring: the only workload with SCF iterations "
        "(40 branches, many small LAPACK eigh calls)", _scan),
    "defect-ring8-s1": Workload(
        "defect series on an N=8 s=1 ring: dense eigh in ground_energy and "
        "chain-solver assembly, no SCF iterations", _defect),
    "ground-ring15-16-s12": Workload(
        "ground of N=15 and N=16 s=1/2 rings: large Lanczos sectors, S^2 "
        "assembly, a degenerate doublet and a singlet", _ground),
    "thermal-ring14-s12": Workload(
        "thermal curve and seeded crossings of an N=14 s=1/2 ring: the one "
        "workload needing every eigenvalue (eigvalsh)", _thermal),
}


def expected_output(reference: str, invocation: Invocation) -> str:
    """The reference output an invocation must reproduce.

    A thermal reference holds a crossing row for every candidate threshold;
    the expected output keeps the curve and the drawn thresholds in order.
    """
    thresholds = invocation.config.get("thermal", {}).get("thresholds")
    if thresholds is None:
        return reference
    lines = reference.splitlines(keepends=True)
    crossings = {line.rstrip("\n").split(",")[2]: line
                 for line in lines if line.startswith("crossing,")}
    kept = [line for line in lines if not line.startswith("crossing,")]
    return "".join(kept + [crossings["%.12e" % t] for t in thresholds])
