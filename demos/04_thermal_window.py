"""Temperature window in which thermal states certify entanglement.

The canonical expectation <H>_T increases monotonically with temperature,
so a thermal state violates a witness threshold exactly below a crossing
temperature T*.  This script computes <H>_T for the 8-site qubit ring and
locates T* for the global biseparable threshold E_bs and for the weakest
single-site threshold max_k E_bs^k.

Writes results/thermal_window.csv.
"""

import csv
import pathlib

import numpy as np

from spinwitness import (
    SpinSystem,
    biseparable_scan,
    full_spectrum,
    thermal_energy,
    threshold_table,
    threshold_temperature,
)

OUT = pathlib.Path(__file__).resolve().parent / "results"
OUT.mkdir(exist_ok=True)


def main():
    system = SpinSystem.ring(8, "1/2")
    spectrum = full_spectrum(system)
    ebs = biseparable_scan(system).ebs
    weakest = max(threshold_table(system))

    t_multi = threshold_temperature(spectrum, ebs)
    t_single = threshold_temperature(spectrum, weakest)
    print(f"E0 = {spectrum[0]:.9f}")
    print(f"global E_bs = {ebs:.9f}: multipartite entanglement "
          f"certified for T < {t_multi:.6f}")
    print(f"weakest single-site threshold = {weakest:.9f}: some spin "
          f"certified entangled for T < {t_single:.6f}")

    with open(OUT / "thermal_window.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["temperature", "energy", "ebs_global", "ebs_single"])
        for t in np.linspace(0.0, 1.5, 61):
            w.writerow([f"{t:.6f}", f"{thermal_energy(spectrum, t):.12e}",
                        f"{ebs:.12e}", f"{weakest:.12e}"])
    print(f"wrote {OUT / 'thermal_window.csv'}")


if __name__ == "__main__":
    main()
