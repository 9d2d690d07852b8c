"""Regenerate the reference outputs under bench/reference/.

Usage (from the root of a checkout): python3 bench/make_references.py

Runs every workload invocation once through the CLI (seed 1, one worker) and
stores its CSV output; the thermal reference holds a crossing row for every
candidate threshold.  test_bench.py cross-checks the stored values against
the acceptance goldens, so regenerate only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from run import BENCH, BLAS_ENV, ROOT
from workloads import (SMOKE_THERMAL_CANDIDATES, THERMAL_CANDIDATES, WORKLOADS,
                       Invocation, thermal_config)

SEED = 1


def reference_invocations(name: str, smoke: bool) -> list:
    if name == "thermal-ring14-s12":
        pool = SMOKE_THERMAL_CANDIDATES if smoke else THERMAL_CANDIDATES
        return [Invocation("ring", "thermal", thermal_config(smoke, pool))]
    return WORKLOADS[name].build(SEED, smoke)


def main() -> int:
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for smoke in (False, True):
            ref_dir = os.path.join(BENCH, "reference", "smoke" if smoke else "")
            for name in WORKLOADS:
                for inv in reference_invocations(name, smoke):
                    config = os.path.join(tmp, "config.yaml")
                    with open(config, "w") as fh:
                        json.dump(inv.config, fh)  # JSON is valid YAML
                    out = os.path.join(ref_dir, f"{name}.{inv.tag}.csv")
                    subprocess.run(
                        [sys.executable, "-m", "spinwitness.cli", inv.command,
                         "--config", config, "--out", out, "--seed", str(SEED),
                         "--workers", "1"], cwd=ROOT, env=env, check=True)
                    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
