"""Boundary map geometry and the self-consistent biseparable minimizer."""

import numpy as np
import pytest

from spinwitness import scf
from spinwitness.eigensolvers import dense_spectrum
from spinwitness.hamiltonians import Arc, SpinSystem, build_hamiltonian
from spinwitness.scf import (
    BoundaryPair,
    CollinearChainSolver,
    ScfConfig,
    ScfError,
    biseparable_minimum,
    biseparable_minimum_detailed,
    biseparable_scan,
    boundary_geometry,
    boundary_map,
    scan_arcs,
)
from spinwitness.witness import single_site_threshold


def z_vec(modulus, theta=0.0):
    return modulus * np.array([np.sin(theta), 0.0, np.cos(theta)])


class TestBoundaryGeometry:
    def test_angle(self):
        g = boundary_geometry(BoundaryPair(z_vec(0.5), z_vec(0.3, np.pi / 3)))
        assert abs(g.theta - np.pi / 3) < 1e-12
        assert abs(g.modulus_diff - 0.2) < 1e-12
        assert g.defined

    def test_undefined_at_zero_modulus(self):
        g = boundary_geometry(BoundaryPair(z_vec(0.0), z_vec(0.3)))
        assert not g.defined
        assert np.isnan(g.theta)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            boundary_geometry(BoundaryPair(np.array([np.nan, 0, 0]),
                                           z_vec(0.3)))


class TestBoundaryMap:
    def test_rejects_y_component(self):
        with pytest.raises(ValueError):
            boundary_map(["1/2"] * 3, [0, 0.1, 0.5], [0, 0, 0.5])

    def test_parallel_maps_to_parallel(self):
        pair = boundary_map(["1/2"] * 3, z_vec(0.5), z_vec(0.5))
        g = boundary_geometry(pair)
        assert g.defined and g.theta < 1e-8

    def test_even_chain_antiparallel_fixed(self):
        pair = boundary_map(["1/2"] * 4, z_vec(0.5), z_vec(0.5, np.pi))
        g = boundary_geometry(pair)
        assert g.defined and abs(g.theta - np.pi) < 1e-8

    def test_odd_chain_contracts_right_angle(self):
        pair = boundary_map(["1/2"] * 3, z_vec(0.5), z_vec(0.5, np.pi / 2))
        g = boundary_geometry(pair)
        assert g.defined
        assert abs(g.theta - 0.5588276630471) < 1e-9  # frozen from this solver
        assert g.theta < np.pi / 2

    def test_single_site_aligns_with_field(self):
        # one free spin in two boundary fields: <s> antialigns with their sum
        pair = boundary_map(["1/2"], z_vec(0.5), z_vec(0.5))
        assert np.allclose(pair.z, [0, 0, -0.5], atol=1e-10)
        assert np.allclose(pair.zprime, [0, 0, -0.5], atol=1e-10)

    def test_zero_field_degenerate_resolution_deterministic(self):
        a = boundary_map(["1/2"] * 3, np.zeros(3), np.zeros(3))
        b = boundary_map(["1/2"] * 3, np.zeros(3), np.zeros(3))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.zprime, b.zprime)

    def test_moduli_bounded_by_spin(self):
        pair = boundary_map(["3/2"] * 3, z_vec(1.5), z_vec(1.5, np.pi))
        g = boundary_geometry(pair)
        assert all(m <= 1.5 + 1e-12 for m in g.moduli)


class TestCollinearChainSolver:
    def test_matches_dense_dressed(self):
        # 3-qubit open chain with +z fields b on both edges
        solver = CollinearChainSolver([1, 1, 1], [(0, 1), (1, 2)],
                                      field_sites=(0, 2))
        for b0, b1 in [(0.5, 0.5), (0.5, -0.5), (0.0, 0.3)]:
            g = solver.ground([b0, b1])
            system = SpinSystem.chain(3, "1/2")
            h = build_hamiltonian(system).matrix.toarray()
            basis = build_hamiltonian(system).basis
            from spinwitness.operators import sz_diagonal
            h = h + np.diag(b0 * sz_diagonal(basis, 0)
                            + b1 * sz_diagonal(basis, 2))
            e_dense = np.linalg.eigvalsh(h)[0]
            assert abs(g["energy"] - e_dense) < 1e-10

    def test_bare_energy_decomposition(self):
        solver = CollinearChainSolver([1, 1], [(0, 1)], field_sites=(0, 1))
        g = solver.ground([0.4, -0.4])
        recon = g["e_bare"] + 0.4 * g["z_fields"][0] - 0.4 * g["z_fields"][1]
        assert abs(recon - g["energy"]) < 1e-12

    def test_degenerate_choice_independent_of_manifold_basis(self, monkeypatch):
        # a triangle at zero field: each 2M = +/-1 sector holds a twofold
        # level, resolved by minimizing <sz_0> - <sz_2> over it
        def solve():
            solver = CollinearChainSolver([1, 1, 1], [(0, 1), (1, 2), (0, 2)],
                                          field_sites=(0, 2))
            return solver.ground([0.0, 0.0], select_coeffs=[1.0, -1.0])

        reference = solve()
        rotation, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2)))
        original = scf.lowest_level

        def rotated(mat):
            e0, e1, manifold = original(mat)
            if manifold.shape[1] == 2:
                manifold = manifold[:, ::-1] @ rotation
            return e0, e1, manifold

        monkeypatch.setattr(scf, "lowest_level", rotated)
        other = solve()
        assert np.allclose(other["z_fields"], reference["z_fields"], atol=1e-12)
        assert reference["z_fields"][0] - reference["z_fields"][1] < -0.5

    def test_field_count_mismatch(self):
        solver = CollinearChainSolver([1, 1], [(0, 1)], field_sites=(0, 1))
        with pytest.raises(ValueError):
            solver.ground([0.5])


class TestScfConfig:
    def test_damping_bounds(self):
        with pytest.raises(ValueError):
            ScfConfig(damping=0.0)
        with pytest.raises(ValueError):
            ScfConfig(damping=1.5)

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            ScfConfig(tol=0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-10])
    def test_tol_finite_and_positive(self, tol):
        with pytest.raises(ValueError):
            ScfConfig(tol=tol)

    def test_max_iter_at_least_one(self):
        with pytest.raises(ValueError):
            ScfConfig(max_iter=0)
        assert ScfConfig(max_iter=1).max_iter == 1

    def test_init_grid_none_or_nonempty(self):
        with pytest.raises(ValueError):
            ScfConfig(init_grid=())
        assert ScfConfig(init_grid=None).init_grid is None
        assert ScfConfig(init_grid=(0.5,)).init_grid == (0.5,)

    @pytest.mark.parametrize("etas", [(), (0,), (1, 2)])
    def test_etas_nonempty_signs(self, etas):
        with pytest.raises(ValueError):
            ScfConfig(etas=etas)


class TestBiseparableMinimum:
    def test_even_even_decouples(self):
        # qubit ring: even-even splits exactly into two open chains
        system = SpinSystem.ring(6, "1/2")
        res = biseparable_minimum(system, Arc(0, 2))
        e2 = dense_spectrum(build_hamiltonian(SpinSystem.chain(2, "1/2")).matrix)[0]
        e4 = dense_spectrum(build_hamiltonian(SpinSystem.chain(4, "1/2")).matrix)[0]
        assert res.decoupled
        assert abs(res.ebs - (e2 + e4)) < 1e-8
        assert abs(res.z_a) < 1e-8 and abs(res.z_b) < 1e-8

    def test_converged_result_is_fixed_point(self):
        system = SpinSystem.ring(6, "1")
        res = biseparable_minimum(system, Arc(0, 1))
        assert res.converged
        assert res.residual < 1e-9

    def test_single_site_arc_matches_threshold(self):
        system = SpinSystem.ring(6, "1")
        res = biseparable_minimum(system, Arc(0, 1))
        assert abs(res.ebs - single_site_threshold(system, 0)) < 1e-8

    def test_ebs_above_ground(self):
        system = SpinSystem.ring(6, "1/2")
        e0 = dense_spectrum(build_hamiltonian(system).matrix)[0]
        for n_a in (1, 2, 3):
            res = biseparable_minimum(system, Arc(0, n_a))
            assert res.ebs > e0 + 1e-6

    def test_chain_edge_arc_single_coupling(self):
        system = SpinSystem.chain(4, "1/2")
        best, branches = biseparable_minimum_detailed(system, Arc(0, 1))
        # one coupling bond: only the eta=+1 branch family plus decoupled
        assert all(b.eta == 1 for b in branches)

    def test_detailed_reports_decoupled_candidate(self):
        system = SpinSystem.ring(4, "1/2")
        _, branches = biseparable_minimum_detailed(system, Arc(0, 2))
        assert any(b.decoupled for b in branches)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tied_branches_report_geometric_eta(self, seed):
        # which branch reaches the fixed point first depends on the seed; the
        # report is the point's canonical form: z_b >= 0 and eta the sign of
        # z_b * z_bprime, here antiparallel
        res = biseparable_minimum(SpinSystem.ring(8, "1"), Arc(0, 2),
                                  ScfConfig(seed=seed))
        assert res.eta == -1
        assert res.z_b > 0 > res.z_bprime
        assert not res.decoupled
        assert abs(res.ebs + 10.134660606868023) < 1e-11

    def test_no_converged_branch_raises(self):
        # one iteration converges none of the 10 branches; the decoupled
        # energy is only an upper bound and must not be reported as E_bs
        system = SpinSystem.ring(6, "1")
        with pytest.raises(ScfError) as info:
            biseparable_minimum(system, Arc(0, 1), ScfConfig(max_iter=1))
        diag = info.value.diagnostics
        assert diag["branches"] == 10
        assert len(diag["last_residuals"]) == 10
        assert info.value.diagnostics["branches"] == 10


class TestScan:
    def test_homogeneous_ring_single_offset(self):
        arcs = scan_arcs(SpinSystem.ring(8, "1/2"))
        assert [(a.offset, a.length) for a in arcs] == [(0, 1), (0, 2),
                                                        (0, 3), (0, 4)]

    def test_chain_all_offsets(self):
        arcs = scan_arcs(SpinSystem.chain(4, "1/2"))
        lengths = {(a.offset, a.length) for a in arcs}
        assert (0, 1) in lengths and (3, 1) in lengths and (1, 2) in lengths

    def test_defected_ring_all_offsets(self):
        arcs = scan_arcs(SpinSystem.from_spins("ring", ["1"] * 3 + ["1/2"]))
        assert len(arcs) == 8  # 4 offsets x 2 lengths

    def test_scan_minimum_is_min_of_reports(self):
        system = SpinSystem.ring(6, "1/2")
        scan = biseparable_scan(system)
        ok = [r.result.ebs for r in scan.reports if not r.failed]
        assert abs(scan.ebs - min(ok)) < 1e-15
        assert scan.argmin.result.ebs == scan.ebs

    def test_unconverged_arc_is_failed_report(self):
        # with one iteration only the even-even arc converges (from z = 0)
        scan = biseparable_scan(SpinSystem.ring(6, "1"), ScfConfig(max_iter=1))
        failed = [r.n_a for r in scan.reports if r.failed]
        assert failed == [1, 3]
        assert scan.argmin.n_a == 2

    def test_qubit_hexagon_argmin_even(self):
        # 6-ring of qubits: the (2,4) decoupled split wins over (1,5) and (3,3)
        scan = biseparable_scan(SpinSystem.ring(6, "1/2"))
        assert scan.argmin.n_a == 2
        assert scan.argmin.result.decoupled


class TestMapPropertiesSmall:
    def test_chain_length_damping_at_right_angle(self):
        # |theta_bar - theta_B| at theta_B = pi/2 shrinks with chain length
        # within each parity class
        def deflection(n_a):
            pair = boundary_map(["1/2"] * n_a, z_vec(0.5),
                                z_vec(0.5, np.pi / 2))
            return abs(boundary_geometry(pair).theta - np.pi / 2)

        assert deflection(5) < deflection(3)
        assert deflection(6) < deflection(4)
