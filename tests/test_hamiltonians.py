"""System topology, sub-Hamiltonians and field dressing."""

import numpy as np
import pytest
import scipy.sparse as sp

from spinwitness.hamiltonians import (
    Arc,
    SpinSystem,
    build_hamiltonian,
    cut,
    defected_ring,
    site_classes,
)
from spinwitness.operators import ProductBasis, heisenberg_matrix
from spinwitness.scf import scan_arcs


class TestSpinSystem:
    def test_ring_bond_count(self):
        assert len(SpinSystem.ring(5, "1/2").bonds()) == 5

    def test_chain_bond_count(self):
        assert len(SpinSystem.chain(5, "1/2").bonds()) == 4

    def test_ring_closure_bond(self):
        assert (4, 0) in SpinSystem.ring(5, "1/2").bonds()

    @pytest.mark.parametrize("topology,n", [("ring", 2), ("chain", 1)])
    def test_too_small(self, topology, n):
        with pytest.raises(ValueError):
            SpinSystem(topology, (1,) * n)

    def test_rejects_spinless_site(self):
        with pytest.raises(ValueError):
            SpinSystem("ring", (1, 0, 1))

    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            SpinSystem("star", (1, 1, 1))

    def test_from_spins(self):
        s = SpinSystem.from_spins("chain", ["1/2", "3/2"])
        assert s.site_two_s == (1, 3)


class TestGroundEnergies:
    def test_two_site_singlet(self):
        op = build_hamiltonian(SpinSystem.chain(2, "1/2"))
        assert abs(np.linalg.eigvalsh(op.matrix.toarray())[0] + 0.75) < 1e-12

    def test_frustrated_triangle(self):
        # E = (S(S+1) - 3 s(s+1))/2: fourfold-degenerate -3/4 at S=1/2
        op = build_hamiltonian(SpinSystem.ring(3, "1/2"))
        vals = np.linalg.eigvalsh(op.matrix.toarray())
        assert np.allclose(vals[:4], -0.75)
        assert vals[4] > -0.75 + 1e-9


class TestSymmetries:
    def test_commutes_with_total_sz(self):
        system = SpinSystem.ring(5, "1")
        h = build_hamiltonian(system)
        sz = h.basis.two_m.sum(axis=1) / 2.0
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(h.dim)
            resid = h.matrix @ (sz * v) - sz * (h.matrix @ v)
            assert np.abs(resid).max() < 1e-12

    def test_cyclic_relabeling_invariance(self):
        system = SpinSystem.ring(6, "1/2")
        base = np.linalg.eigvalsh(build_hamiltonian(system).matrix.toarray())
        for shift in (1, 3):
            rotated = build_hamiltonian(
                system, sites=[(i + shift) % 6 for i in range(6)])
            vals = np.linalg.eigvalsh(rotated.matrix.toarray())
            assert np.abs(vals - base).max() < 1e-10

    def test_sector_blocks_reassemble_spectrum(self):
        system = SpinSystem.ring(4, "1")
        full = np.linalg.eigvalsh(build_hamiltonian(system).matrix.toarray())
        pieces = []
        for two_m in range(-8, 9, 2):
            op = build_hamiltonian(system, two_m)
            if op.dim:
                pieces.append(np.linalg.eigvalsh(op.matrix.toarray()))
        assert np.abs(np.sort(np.concatenate(pieces)) - full).max() < 1e-10


class TestArcs:
    def test_ring_arc_wraps(self):
        system = SpinSystem.ring(6, "1/2")
        assert Arc(4, 3).sites(system) == [4, 5, 0]

    def test_chain_arc_must_not_wrap(self):
        system = SpinSystem.chain(6, "1/2")
        with pytest.raises(ValueError):
            Arc(4, 3).sites(system)

    def test_arc_length_bounds(self):
        system = SpinSystem.ring(4, "1/2")
        with pytest.raises(ValueError):
            Arc(0, 0).sites(system)
        with pytest.raises(ValueError):
            Arc(0, 4).sites(system)

    def test_complement_starts_after_arc(self):
        system = SpinSystem.ring(6, "1/2")
        assert cut(system, Arc(4, 3))[1] == [1, 2, 3]

    def test_complement_of_mid_chain_arc(self):
        system = SpinSystem.chain(6, "1/2")
        assert cut(system, Arc(2, 2))[1] == [4, 5, 0, 1]

    def test_coupling_bonds_ring(self):
        system = SpinSystem.ring(8, "1/2")
        pairs = cut(system, Arc(0, 3))[2]
        assert sorted(pairs) == [(0, 7), (2, 3)]

    def test_coupling_bonds_chain_edge(self):
        system = SpinSystem.chain(8, "1/2")
        assert cut(system, Arc(0, 3))[2] == [(2, 3)]

    def test_cut_of_chain_end_arc(self):
        # the complement of an arc ending at the last site is the piece
        # before it, each site once
        system = SpinSystem.chain(6, "1/2")
        assert cut(system, Arc(3, 3)) == ([3, 4, 5], [0, 1, 2], [(3, 2)])

    def test_cut_pairs_start_at_last_site_of_a(self):
        system = SpinSystem.ring(6, "1/2")
        assert cut(system, Arc(5, 1)) == ([5], [0, 1, 2, 3, 4], [(5, 0), (5, 4)])
        assert cut(system, Arc(4, 3))[2] == [(0, 1), (4, 3)]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_chain_scan_cuts_partition_the_sites(self, n):
        system = SpinSystem.chain(n, "1/2")
        for arc in scan_arcs(system):
            sites_a, sites_b, pairs = cut(system, arc)
            assert sorted(sites_a + sites_b) == list(range(n))
            assert all(a in sites_a and b in sites_b for a, b in pairs)


class TestSubsystems:
    def test_subsystem_bonds_local_indices(self):
        system = SpinSystem.ring(6, "1/2")
        op = build_hamiltonian(system, sites=[4, 5, 0])
        # sites 4-5, 5-0 internal; 0-1 and 3-4 cross the cut
        want = heisenberg_matrix(ProductBasis([1, 1, 1]), [(0, 1), (1, 2)])
        assert np.array_equal(op.matrix.toarray(), want.toarray())

    def test_single_site_subsystem_is_zero(self):
        system = SpinSystem.ring(6, "1/2")
        op = build_hamiltonian(system, sites=Arc(2, 1).sites(system))
        assert op.dim == 2
        assert op.matrix.nnz == 0

    def test_open_chain_energy(self):
        system = SpinSystem.ring(6, "1/2")
        op = build_hamiltonian(system, sites=Arc(0, 2).sites(system))
        assert abs(np.linalg.eigvalsh(op.matrix.toarray())[0] + 0.75) < 1e-12


class TestDressing:
    def test_boundary_fields_accepted(self):
        system = SpinSystem.chain(3, "1/2")
        h = build_hamiltonian(system, 1)
        sz = h.basis.two_m / 2.0
        op = h.matrix + sp.diags(0.5 * sz[:, 0] - 0.5 * sz[:, 2])
        assert op.shape == (h.dim, h.dim) == (3, 3)

    def test_dressed_energy_shift(self):
        # single qubit pair with +z/-z fields of strength 1/2 on the edges
        system = SpinSystem.chain(2, "1/2")
        h = build_hamiltonian(system)
        sz = h.basis.two_m / 2.0
        op = h.matrix + sp.diags(0.5 * sz[:, 0] - 0.5 * sz[:, 1])
        e0 = np.linalg.eigvalsh(op.toarray())[0]
        # the 2M=0 block [[-1/4 + 1/2, 1/2], [1/2, -1/4 - 1/2]]
        assert abs(e0 - (-0.25 - np.sqrt(0.5))) < 1e-12


class TestDefectedRing:
    def test_spinless_defect_becomes_chain(self):
        system, labels = defected_ring(SpinSystem.ring(8, "3/2"), 4, "0")
        assert system.topology == "chain"
        assert system.n_sites == 7
        assert labels == [5, 6, 7, 0, 1, 2, 3]

    def test_substituted_ring(self):
        system, labels = defected_ring(SpinSystem.ring(8, "3/2"), 4, "1")
        assert system.topology == "ring"
        assert system.site_two_s[4] == 2
        assert labels == list(range(8))

    def test_defect_site_range(self):
        with pytest.raises(ValueError):
            defected_ring(SpinSystem.ring(8, "3/2"), 8, "1")


class TestSiteClasses:
    @pytest.mark.parametrize("system, classes", [
        (SpinSystem.ring(7, "3/2"), [0] * 7),
        (defected_ring(SpinSystem.ring(8, "1"), 4, "2")[0],
         [0, 1, 2, 3, 4, 3, 2, 1]),
        (defected_ring(SpinSystem.ring(8, "3/2"), 4, "0")[0],
         [0, 1, 2, 3, 2, 1, 0]),
        (SpinSystem.from_spins("ring", ["1/2", "1"] * 3), [0, 1, 0, 1, 0, 1]),
        (SpinSystem.from_spins("chain", ["1/2", "1", "1", "3/2"]),
         [0, 1, 2, 3]),
        (SpinSystem.from_spins("ring", ["1/2", "1", "3/2", "1", "1"]),
         [0, 1, 2, 3, 4]),
    ], ids=["homogeneous-ring", "defected-ring", "spinless-defect-chain",
            "alternating-ring", "asymmetric-chain", "asymmetric-ring"])
    def test_classes(self, system, classes):
        assert site_classes(system) == classes
