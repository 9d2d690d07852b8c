"""How boundary-spin orientations and moduli transform under one dressing step.

A segment of a ring only feels its neighbours through the two boundary
fields (z_B, z_B').  Dressing an open chain with those fields and reading
back the boundary-spin expectations defines a map whose fixed points are
the candidate self-consistent biseparable states.  This script tabulates:

* the relative angle theta_bar_A as a function of the field angle theta_B,
  for odd (contracting) and even (expanding) qubit chains;
* the modulus difference Z_bar_A as a function of Z_B (systematic
  contraction), which together force fixed points to have equal moduli and
  collinear orientation.

Writes results/boundary_map_angles.csv and results/boundary_map_moduli.csv.
"""

import csv
import pathlib

import numpy as np

from spinwitness import SpinSystem, boundary_geometry, boundary_map

OUT = pathlib.Path(__file__).resolve().parent / "results"
OUT.mkdir(exist_ok=True)


def field(modulus, theta):
    return modulus * np.array([np.sin(theta), 0.0, np.cos(theta)])


def main():
    thetas = np.linspace(0.0, np.pi, 25)

    with open(OUT / "boundary_map_angles.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_a", "theta_b", "thetabar_a"])
        for n_a in (3, 4, 5, 6):
            for th in thetas:
                pair = boundary_map(SpinSystem.chain(n_a, "1/2"), range(n_a),
                                    field(0.5, 0.0), field(0.5, th))
                geo = boundary_geometry(pair)
                w.writerow([n_a, f"{th:.6f}", f"{geo.theta:.6f}"])
            kind = "odd (contracts)" if n_a % 2 else "even (expands)"
            print(f"N_A={n_a}: {kind}")

    with open(OUT / "boundary_map_moduli.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_a", "z_diff_b", "z_diff_a"])
        for n_a in (3, 4):
            # aligned for the odd chain, antiparallel for the even one:
            # the orientations that can survive as fixed points
            theta = 0.0 if n_a == 3 else np.pi
            for z_diff in np.linspace(0.0, 0.45, 10):
                pair = boundary_map(SpinSystem.chain(n_a, "1/2"), range(n_a),
                                    field(0.5, 0.0), field(0.5 - z_diff, theta))
                geo = boundary_geometry(pair)
                w.writerow([n_a, f"{z_diff:.6f}", f"{geo.modulus_diff:.6f}"])

    print(f"wrote {OUT / 'boundary_map_angles.csv'}")
    print(f"wrote {OUT / 'boundary_map_moduli.csv'}")


if __name__ == "__main__":
    main()
