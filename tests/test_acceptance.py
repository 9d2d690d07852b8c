"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS line on success (run with ``pytest -v`` or ``-s`` to see them).
Golden constants were frozen from the first verified run of this code
against the dense oracle.
"""

import subprocess
import sys

import numpy as np
import pytest

from spinwitness.eigensolvers import dense_spectrum, lanczos_ground, sectored_ground_state
from spinwitness.hamiltonians import Arc, SpinSystem, build_hamiltonian
from spinwitness.scf import (bipartition_report, biseparable_scan, boundary_geometry,
                             boundary_map)
from spinwitness.witness import defect_series, eta_s, f_factor, verify_not_eigenstate

# ---------------------------------------------------------------------------
# golden constants (frozen from the first verified run; dense-oracle checked)

E0_RING8 = {
    "1/2": -3.6510934089371805,
    "1": -11.33695607789737,
    "3/2": -22.93004235071412,
}

# (argmin N_A, global E_bs) for the N=8 homogeneous ring
EBS_RING8 = {
    "1/2": (2, -3.243577133887924),
    "1": (1, -10.15855702881762),
    "3/2": (1, -21.145854312252823),
}

# disentangling cost at the substituted site (ring position 5, 1-based)
# for the N=8, base s=3/2 substitution series
SERIES_COST_AT_DEFECT = {
    "0": 0.0,
    "1/2": 0.693524738628728,
    "1": 1.2739163159233122,
    "3/2": 1.784188038461334,
    "2": 1.9586108859202689,
    "5/2": 2.091191625897345,
}

GOLDEN_TOL = 1e-6


def ok(msg):
    print(f"PASS {msg}")


@pytest.fixture(scope="module")
def ring8_scans():
    """Full bipartition scans of the N=8 ring for s = 1/2, 1, 3/2."""
    return {spin: biseparable_scan(SpinSystem.ring(8, spin))
            for spin in ("1/2", "1", "3/2")}


@pytest.fixture(scope="module")
def substitution_series():
    """N=8 base-s=3/2 ring with the site-5 spin replaced by s_M = 0..5/2."""
    return defect_series(SpinSystem.ring(8, "3/2"), 4,
                         ["0", "1/2", "1", "3/2", "2", "5/2"])


def test_criterion_01_nondegenerate_singlet_ground_states():
    """Even-N AFM rings and chains: unique ground state with <S^2> ~ 0."""
    systems = [SpinSystem.ring(n, s) for n in (4, 6, 8) for s in ("1/2", "1")]
    systems += [SpinSystem.chain(n, s) for n in (2, 4, 6, 8)
                for s in ("1/2", "1")]
    for system in systems:
        r = sectored_ground_state(system)
        assert r.gap > 1e-6, system.describe()
        assert not r.degenerate, system.describe()
        assert abs(r.s_squared) < 1e-8, system.describe()
        assert r.s_squared >= 0, system.describe()
    ok("criterion 1: nondegenerate singlet ground states "
       f"({len(systems)} systems)")


def test_criterion_02_lanczos_matches_dense_oracle():
    """Lanczos and dense spectra agree to 1e-9 on >= 20 instances."""
    systems = (
        [SpinSystem.chain(n, "1/2") for n in range(2, 11)]
        + [SpinSystem.ring(n, "1/2") for n in range(3, 11)]
        + [SpinSystem.chain(n, "1") for n in (2, 3, 4)]
        + [SpinSystem.ring(n, "1") for n in (4, 5, 6)]
        + [SpinSystem.chain(3, "3/2"), SpinSystem.ring(4, "3/2")]
        + [SpinSystem.from_spins("chain", ["1/2", "1", "3/2", "1"]),
           SpinSystem.from_spins("ring", ["1", "1", "1", "1/2"])]
    )
    assert len(systems) >= 20
    for system in systems:
        op = build_hamiltonian(system)
        assert op.dim <= 4096
        e_dense = dense_spectrum(op.matrix)[0]
        vals, _, _ = lanczos_ground(op)
        assert abs(vals[0] - e_dense) < 1e-9, system.describe()
    ok(f"criterion 2: Lanczos vs dense oracle on {len(systems)} instances")


def test_criterion_03_octagon_scan_argmin(ring8_scans):
    """N=8 ring: the minimizing bipartition is (2,6) for s=1/2, (1,7) above."""
    for spin, (n_a_expected, ebs_golden) in EBS_RING8.items():
        scan = ring8_scans[spin]
        assert scan.argmin.n_a == n_a_expected, f"s={spin}"
        assert abs(scan.ebs - ebs_golden) < GOLDEN_TOL, f"s={spin}"
    ok("criterion 3: N=8 scan argmin (2,6) for s=1/2, (1,7) for s=1, 3/2 "
       "+ golden E_bs values")


def test_criterion_04_even_even_qubit_decoupling():
    """Qubit even-even bipartitions decouple: E_bs = sum of open-chain E0s."""
    system = SpinSystem.ring(8, "1/2")
    for n_a in (2, 4):
        res = bipartition_report(system, Arc(0, n_a)).result
        ea = dense_spectrum(
            build_hamiltonian(SpinSystem.chain(n_a, "1/2")).matrix)[0]
        eb = dense_spectrum(
            build_hamiltonian(SpinSystem.chain(8 - n_a, "1/2")).matrix)[0]
        assert abs(res.ebs - (ea + eb)) < 1e-8, f"n_a={n_a}"
        assert abs(res.z_a) < 1e-8 and abs(res.z_b) < 1e-8, f"n_a={n_a}"
    ok("criterion 4: even-even decoupling for N_A in {2, 4} (z = 0 branch)")


def _angle_after_map(n_a, spin, modulus, theta_b):
    s, c = np.sin(theta_b), np.cos(theta_b)
    z_b = modulus * np.array([0.0, 0.0, 1.0])
    z_bp = modulus * np.array([s, 0.0, c])
    return boundary_geometry(boundary_map(SpinSystem.chain(n_a, spin),
                                          range(n_a), z_b, z_bp)).theta


def test_criterion_05_boundary_map_properties():
    """The four qualitative properties of the one-step boundary map."""
    margin = 1e-6
    grid = np.linspace(np.pi / 12, np.pi, 12)
    # (a) odd qubit chains contract the boundary angle
    for n_a in (3, 5, 7):
        for theta_b in grid:
            theta_a = _angle_after_map(n_a, "1/2", 0.5, theta_b)
            assert theta_b - theta_a > margin, (n_a, theta_b)
    # (b) even qubit chains expand it, with fixed points at 0 and pi
    interior = grid[:-1]
    for n_a in (4, 6):
        for theta_b in interior:
            theta_a = _angle_after_map(n_a, "1/2", 0.5, theta_b)
            assert theta_a - theta_b > margin, (n_a, theta_b)
        assert abs(_angle_after_map(n_a, "1/2", 0.5, 0.0) - 0.0) < 1e-8
        assert abs(_angle_after_map(n_a, "1/2", 0.5, np.pi) - np.pi) < 1e-8
    # (c) the modulus difference contracts for aligned boundary fields
    for z_diff in (0.05, 0.25, 0.45):
        pair = boundary_map(SpinSystem.chain(3, "1/2"), range(3),
                            np.array([0.0, 0.0, 0.5]),
                            np.array([0.0, 0.0, 0.5 - z_diff]))
        geo = boundary_geometry(pair)
        assert z_diff - geo.modulus_diff > margin, z_diff
    # (d) parity by spin type at theta_B = pi with |z_B| = s.  An odd chain
    #     of integer spins has a nondegenerate dressed ground state whose
    #     boundary expectations are exactly antiparallel with equal moduli,
    #     so the antiparallel orientation is a fixed point.  For half-integer
    #     spins the antiparallel dressing leaves a doubly-degenerate ground
    #     manifold (antiunitary flip-and-mirror symmetry squaring to -1) and
    #     the resolved state pulls the angle strictly below pi, matching the
    #     3-qubit behaviour in (a): only parallel orientations survive.
    theta_int = _angle_after_map(3, "1", 1.0, np.pi)
    assert abs(theta_int - np.pi) < 1e-8
    theta_half = _angle_after_map(3, "3/2", 1.5, np.pi)
    assert np.pi - theta_half > margin
    ok("criterion 5: boundary-map contraction/expansion/modulus/parity suite")


def test_criterion_06_substitution_series_shape(substitution_series):
    """N=8 base-s=3/2 substitution series: flatness, mirror symmetry,
    monotone defect cost and the location of the minimum."""
    tables = {t.label.split("=", 1)[1]: t for t in substitution_series}
    defect = 4  # 0-based ring position of the substituted site
    costs = {s: {k: c for k, _, c in t.entries} for s, t in tables.items()}
    # (a) homogeneous ring: flat profile
    base = costs["3/2"].values()
    assert max(base) - min(base) < 1e-8
    # (b) mirror symmetry about the substituted site; the thresholds of a
    # mirror pair are solved once, so they are also exactly equal
    for s, cost in costs.items():
        for d in (1, 2, 3):
            left = cost[(defect - d) % 8]
            right = cost[(defect + d) % 8]
            assert abs(left - right) < 1e-8, (s, d)
            assert left == right, (s, d)
    # (c) cost at the substituted site strictly increases with s_M
    order = ["0", "1/2", "1", "3/2", "2", "5/2"]
    at_defect = [costs[s][defect] for s in order]
    assert all(b > a for a, b in zip(at_defect, at_defect[1:]))
    # (d) the substituted site is the cheapest to disentangle for small s_M
    # (the lowest threshold; ties go to the lower site)
    for s in ("0", "1/2", "1"):
        site = min(tables[s].entries, key=lambda t: (t[1], t[0]))[0]
        assert site == defect, s
    # goldens
    for s in order:
        assert abs(costs[s][defect] - SERIES_COST_AT_DEFECT[s]) < GOLDEN_TOL, s
    ok("criterion 6: substitution-series flatness, mirror symmetry, "
       "monotone defect cost, min location + goldens")


def test_criterion_07_random_product_states_respect_thresholds(ring8_scans):
    """10^3 random biseparable product states per bipartition never undercut
    the computed E_bs(N_A, N_B)."""
    system = SpinSystem.ring(8, "1/2")
    scan = ring8_scans["1/2"]
    ebs_by_na = {r.n_a: r.result.ebs for r in scan.reports}
    rng = np.random.default_rng(2024)
    for n_a in (1, 2, 3, 4):
        arc = Arc(0, n_a)
        sites_a = arc.sites(system)
        sites_b = [i for i in range(8) if i not in set(sites_a)]
        h = build_hamiltonian(system, sites=sites_a + sites_b).matrix
        dim_a, dim_b = 2 ** n_a, 2 ** (8 - n_a)
        floor = ebs_by_na[n_a] - 1e-8
        for _ in range(1000):
            a = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
            b = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
            psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            e = np.real(np.vdot(psi, h @ psi))
            assert e >= floor, (n_a, e, ebs_by_na[n_a])
    ok("criterion 7: 4 x 10^3 random product states all at or above E_bs")


def test_criterion_08_no_product_eigenstates():
    """Singlet x singlet product states are never eigenstates of H."""
    for n in (4, 6, 8):
        system = SpinSystem.ring(n, "1/2")
        for n_a in range(1, n // 2 + 1):
            check = verify_not_eigenstate(system, Arc(0, n_a), samples=1000)
            if check.no_singlet_sector:
                # odd blocks of qubits carry half-integer total spin and
                # admit no singlet: the premise is empty for this split
                assert n_a % 2 == 1
                continue
            assert check.min_variance > 1e-6, (n, n_a)
    ok("criterion 8: positive energy variance on all singlet-sector "
       "bipartitions of N in {4, 6, 8} rings")


def test_criterion_09_proof_support_quantities():
    """Closed-form checks of the f factor and the eta_s moment."""
    assert f_factor(0, 0, "1/2") == 2.0
    for two_s in range(1, 6):
        spin = two_s / 2.0
        assert f_factor(0, 0, spin) == 2.0
        for xa in range(two_s + 1):
            for xb in range(two_s + 1):
                assert abs(f_factor(xa, xb, spin)) > 1e-12
        expected = np.sqrt(spin * (spin + 1) / 3.0)
        assert abs(eta_s(spin) - expected) < 1e-12
    ok("criterion 9: f(0,0) = 2, f never vanishes, eta_s closed form")


def test_criterion_10_cli_scan_is_deterministic(tmp_path):
    """Two `scan --seed 7` runs produce byte-identical output."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text('model: {topology: ring, N: 6, spin: "1/2"}\n')
    for fmt in ("csv", "json"):
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "spinwitness.cli", "scan",
                 "--config", str(cfg), "--seed", "7", "--format", fmt],
                capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], fmt
    ok("criterion 10: byte-identical scan output across repeated runs")
