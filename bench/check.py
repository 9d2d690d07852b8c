"""Comparison of CLI output with a stored reference output.

Float cells (the CLI writes them as %.12e or nan) must agree to GOLDEN_TOL,
the tolerance of the acceptance tests.  Every other cell (n_a, offsets,
labels, flags such as degenerate and is_global_min, row kinds) must match
exactly, as must the header and the number of rows, except the columns in
UNCHECKED.
"""

from __future__ import annotations

import csv
import io
import math
import re

GOLDEN_TOL = 1e-6
# scan's eta names the sign branch that won; where both branches reach the
# same fixed point their e_bs tie to ~1e-12 and the seed (the Lanczos start
# vectors) decides the label, so it is not part of the result
UNCHECKED = {"eta"}
_FLOAT = re.compile(r"^-?(\d\.\d+e[+-]\d+|nan|inf)$")


def rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def mismatches(output: str, reference: str, tol: float = GOLDEN_TOL) -> list:
    """Descriptions of every difference; empty when the output matches."""
    got, want = rows(output), rows(reference)
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    if got and got[0] != want[0]:
        return [f"header {got[0]} != {want[0]}"]
    header = want[0] if want else []
    found = []
    for r, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g_row) != len(w_row):
            found.append(f"row {r}: {len(g_row)} cells, reference has {len(w_row)}")
            continue
        for column, g, w in zip(header, g_row, w_row):
            if column in UNCHECKED:
                ok = True
            elif _FLOAT.match(w):
                ok = bool(_FLOAT.match(g)) and _close(float(g), float(w), tol)
            else:
                ok = g == w
            if not ok:
                found.append(f"row {r} {column}: {g!r} != {w!r}")
    return found


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= tol
