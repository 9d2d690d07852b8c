"""Per-site disentangling cost in a spin-3/2 ring with one substituted ion.

An N=8 ring of s=3/2 spins (a Cr8-like molecular wheel) has one site
replaced by a spin s_M from 0 to 5/2 (the Cr7M heterometallic family:
Zn, Cu, Ni, Cr, Fe, Mn).  For every site k the threshold E_bs^k is the
lowest energy reachable when only that spin is factored out; the cost
E_bs^k - E0 is the energy needed to disentangle it.

Shape of the result:
* homogeneous ring: flat profile (all sites equivalent);
* s_M < 3/2: the substituted site is the cheapest to disentangle
  (zero cost for the spinless substitution, which opens the ring);
* s_M > 3/2: the substituted site becomes the most expensive;
* the cost at the substituted site increases monotonically with s_M.

Writes results/substitution_series.csv.  Runtime 4.4-4.9 s on a shared
2-vCPU VM with one BLAS thread (each E0 is one eigsh call on the lowest
Sz sector, dimension up to 11200 for Cr7Mn; each threshold is solved once per
symmetry class of sites).
"""

import csv
import pathlib

from spinwitness import SpinSystem, defect_series

OUT = pathlib.Path(__file__).resolve().parent / "results"
OUT.mkdir(exist_ok=True)

LABELS = ["Cr7Zn", "Cr7Cu", "Cr7Ni", "Cr8", "Cr7Fe", "Cr7Mn"]
SPINS = ["0", "1/2", "1", "3/2", "2", "5/2"]


def main():
    tables = defect_series(SpinSystem.ring(8, "3/2"), 4, SPINS, labels=LABELS)
    with open(OUT / "substitution_series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "s_m", "site", "cost"])
        for table, s_m in zip(tables, SPINS):
            print(f"{table.label} (s_M = {s_m}): E0 = {table.e0:.9f}")
            for site, _, cost in table.entries:
                print(f"  site {site + 1}: cost = {cost:.9f}")
                w.writerow([table.label, s_m, site + 1, f"{cost:.12e}"])
    print(f"wrote {OUT / 'substitution_series.csv'}")


if __name__ == "__main__":
    main()
