"""Boundary map geometry and the self-consistent biseparable minimizer."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinwitness import scf
from spinwitness.eigensolvers import (SolverError, degenerate_with, dense_spectrum,
                                      lanczos_ground)
from spinwitness.hamiltonians import (CHAIN, RING, Arc, SpinSystem,
                                     build_hamiltonian, cut)
from spinwitness.scf import (
    BoundaryPair,
    CollinearChainSolver,
    biseparable_minimum_detailed,
    biseparable_scan,
    bipartition_report,
    boundary_geometry,
    boundary_map,
    map_jobs,
    scan_arcs,
)
from spinwitness.witness import defect_series, single_site_threshold


QUBITS3 = SpinSystem.chain(3, "1/2")


def z_vec(modulus, theta=0.0):
    return modulus * np.array([np.sin(theta), 0.0, np.cos(theta)])


def one_cycle(start):
    """In place of scf's ``count``: every SCF branch runs one cycle."""
    return [start]


def collinear_bounded(system, arc):
    """False on the cuts the collinear search refuses: those of an odd ring
    with two sites or more on each side."""
    n = system.n_sites
    return not (system.topology == RING and n % 2 and 2 <= arc.length <= n - 2)


class TestBoundaryGeometry:
    def test_angle(self):
        g = boundary_geometry(BoundaryPair(z_vec(0.5), z_vec(0.3, np.pi / 3)))
        assert abs(g.theta - np.pi / 3) < 1e-12
        assert abs(g.modulus_diff - 0.2) < 1e-12

    def test_undefined_at_zero_modulus(self):
        g = boundary_geometry(BoundaryPair(z_vec(0.0), z_vec(0.3)))
        assert np.isnan(g.theta)
        assert g.moduli == (0.0, pytest.approx(0.3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            boundary_geometry(BoundaryPair(np.array([np.nan, 0, 0]),
                                           z_vec(0.3)))


class TestBoundaryMap:
    def test_rejects_y_component(self):
        with pytest.raises(ValueError):
            boundary_map(QUBITS3, range(3), [0, 0.1, 0.5], [0, 0, 0.5])

    @pytest.mark.parametrize("field", [[0.5, 0.0], [np.inf, 0.0, 0.0],
                                       [0.0, 0.0, np.nan], [[0.5, 0.0, 0.5]]],
                             ids=["two-vector", "inf", "nan", "nested"])
    def test_rejects_malformed_field(self, field):
        # a field that is not a finite 3-vector, on either edge
        with pytest.raises(ValueError):
            boundary_map(QUBITS3, range(3), field, z_vec(0.5))
        with pytest.raises(ValueError):
            boundary_map(QUBITS3, range(3), z_vec(0.5), field)

    def test_parallel_maps_to_parallel(self):
        pair = boundary_map(QUBITS3, range(3), z_vec(0.5), z_vec(0.5))
        g = boundary_geometry(pair)
        assert g.theta < 1e-8

    def test_even_chain_antiparallel_fixed(self):
        pair = boundary_map(SpinSystem.chain(4, "1/2"), range(4), z_vec(0.5),
                            z_vec(0.5, np.pi))
        g = boundary_geometry(pair)
        assert abs(g.theta - np.pi) < 1e-8

    def test_odd_chain_contracts_right_angle(self):
        pair = boundary_map(QUBITS3, range(3), z_vec(0.5), z_vec(0.5, np.pi / 2))
        g = boundary_geometry(pair)
        assert abs(g.theta - 0.5588276630471) < 1e-9  # frozen from this solver
        assert g.theta < np.pi / 2

    def test_single_site_aligns_with_field(self):
        # one free spin in two boundary fields: <s> antialigns with their sum;
        # its neighbours lie outside the segment, so no bond reaches it
        pair = boundary_map(QUBITS3, [1], z_vec(0.5), z_vec(0.5))
        assert np.allclose(pair.z, [0, 0, -0.5], atol=1e-10)
        assert np.allclose(pair.zprime, [0, 0, -0.5], atol=1e-10)

    def test_zero_field_degenerate_resolution_deterministic(self):
        a = boundary_map(QUBITS3, range(3), np.zeros(3), np.zeros(3))
        b = boundary_map(QUBITS3, range(3), np.zeros(3), np.zeros(3))
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.zprime, b.zprime)

    def test_moduli_bounded_by_spin(self):
        pair = boundary_map(SpinSystem.chain(3, "3/2"), range(3), z_vec(1.5),
                            z_vec(1.5, np.pi))
        g = boundary_geometry(pair)
        assert all(m <= 1.5 + 1e-12 for m in g.moduli)


@st.composite
def ring_segments(draw):
    """(system, arc, fields): an arc of two sites or more of a ring of
    N = 3..6 spins 1/2 and 1 (every sector of a segment below 128 states),
    and the two boundary fields z_b, z_bprime."""
    n = draw(st.integers(3, 6))
    two_s = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    system = SpinSystem(RING, tuple(two_s))
    arc = Arc(draw(st.integers(0, n - 1)), draw(st.integers(2, n - 1)))
    fields = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    return system, arc, fields


class TestBoundaryMapOnRingCuts:
    @settings(max_examples=40, deadline=None)
    @given(ring_segments())
    def test_matches_collinear_chain_solver(self, case):
        # the map on a wrapping ring segment, dressed along z, and the
        # production solver with the same fields give one ground state
        system, arc, (z_b, z_bp) = case
        sites, _, pairs = cut(system, arc)
        op = build_hamiltonian(system, sites=sites)
        two_m = op.basis.two_m
        vals = dense_spectrum(op.matrix + sp.diags(
            (z_b * two_m[:, -1] + z_bp * two_m[:, 0]) / 2.0))
        assume(vals[1] - vals[0] > 1e-3)  # one ground state
        pair = boundary_map(system, sites, [0, 0, z_b], [0, 0, z_bp])
        got = CollinearChainSolver(system, sites, [a for a, _ in pairs]).ground(
            [z_b, z_bp])
        assert abs(pair.z[2] - got["z_fields"][0]) < 1e-12
        assert abs(pair.zprime[2] - got["z_fields"][1]) < 1e-12


class TestCollinearChainSolver:
    def test_matches_dense_dressed(self):
        # 3-qubit open chain with +z fields b on both edges
        solver = CollinearChainSolver(SpinSystem.chain(3, "1/2"), [0, 1, 2],
                                      field_sites=(0, 2))
        for b0, b1 in [(0.5, 0.5), (0.5, -0.5), (0.0, 0.3)]:
            g = solver.ground([b0, b1])
            system = SpinSystem.chain(3, "1/2")
            h = build_hamiltonian(system).matrix.toarray()
            basis = build_hamiltonian(system).basis
            h = h + np.diag(b0 * basis.two_m[:, 0] / 2.0
                            + b1 * basis.two_m[:, 2] / 2.0)
            e_dense = np.linalg.eigvalsh(h)[0]
            assert abs(g["energy"] - e_dense) < 1e-10

    def test_bare_energy_decomposition(self):
        solver = CollinearChainSolver(SpinSystem.chain(2, "1/2"), [0, 1],
                                      field_sites=(0, 1))
        g = solver.ground([0.4, -0.4])
        recon = g["e_bare"] + 0.4 * g["z_fields"][0] - 0.4 * g["z_fields"][1]
        assert abs(recon - g["energy"]) < 1e-12

    def test_degenerate_choice_independent_of_manifold_basis(self, monkeypatch):
        # a triangle at zero field: each 2M = +/-1 sector holds a twofold
        # level, resolved by minimizing <sz_0> - <sz_2> over it
        def solve():
            solver = CollinearChainSolver(SpinSystem.ring(3, "1/2"), [0, 1, 2],
                                          field_sites=(0, 2))
            return solver.ground([0.0, 0.0], select_coeffs=[1.0, -1.0])

        reference = solve()
        rotation, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((2, 2)))
        original = scf.lowest_level

        def rotated(mat, *args):
            e0, e1, manifold = original(mat, *args)
            if manifold.shape[1] == 2:
                manifold = manifold[:, ::-1] @ rotation
            return e0, e1, manifold

        monkeypatch.setattr(scf, "lowest_level", rotated)
        other = solve()
        assert np.allclose(other["z_fields"], reference["z_fields"], atol=1e-12)
        assert reference["z_fields"][0] - reference["z_fields"][1] < -0.5

    @pytest.mark.parametrize("spin", ["1/2", "3/2"])
    def test_sector_blocks_match_sector_bases(self, spin):
        # the two pieces left by an interior arc; at s = 3/2 the middle
        # sectors exceed DENSE_DIM and go to Lanczos
        system = SpinSystem.chain(7, spin)
        _, sites, _ = cut(system, Arc(2, 2))
        solver = CollinearChainSolver(system, sites, [sites[0], sites[-1]])
        assert any("op" in sec for sec in solver.sectors) == (spin == "3/2")
        for sec in solver.sectors:
            want = build_hamiltonian(system, sec["two_m"], sites=sites)
            basis = want.basis
            got = sec["dense"] if "dense" in sec else sec["op"].matrix.toarray()
            assert np.array_equal(got, want.matrix.toarray())
            for d, k in zip(sec["diags"], solver.field_sites):
                assert np.array_equal(d, basis.two_m[:, k] / 2.0)

    def test_field_count_mismatch(self):
        solver = CollinearChainSolver(SpinSystem.chain(2, "1/2"), [0, 1],
                                      field_sites=(0, 1))
        with pytest.raises(ValueError):
            solver.ground([0.5])


@st.composite
def dressed_segments(draw):
    """(system, sites, field_sites, field history): a whole chain or the two
    pieces left by an interior arc, N <= 6, fields on 1-3 of its sites (a
    site may carry two), and 3-5 field sets in the order an SCF run meets
    them: zero, drawn values, then each set the last one drifted, with some
    signs flipped, or back at zero."""
    n = draw(st.integers(2, 6))
    system = SpinSystem.chain(n, draw(st.sampled_from(["1/2", "1", "3/2", "2"])))
    sites = list(range(n))
    if n >= 3 and draw(st.booleans()):
        length = draw(st.integers(1, n - 2))
        _, sites, _ = cut(system, Arc(draw(st.integers(1, n - 1 - length)), length))
    field_sites = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=3))
    size = len(field_sites)
    zs = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                       min_size=size, max_size=size))
    history = [[0.0] * size, zs]
    for _ in range(draw(st.integers(1, 3))):
        move = draw(st.sampled_from(["drift", "flip", "zero"]))
        if move == "drift":
            steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6),
                                            st.floats(-0.5, 0.5)),
                                  min_size=size, max_size=size))
            history.append([z + d for z, d in zip(history[-1], steps)])
        elif move == "flip":
            flips = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            history.append([-z if f else z for z, f in zip(history[-1], flips)])
        else:
            history.append([0.0] * size)
    return system, sites, field_sites, history


class TestSectorFloors:
    @settings(max_examples=40, deadline=None)
    @given(dressed_segments(), st.booleans())
    # fields strong enough to polarize: the minimum moves to the sector of
    # highest floor, which only the full reach keeps in the search
    @example((SpinSystem.chain(3, "1/2"), [0, 1, 2], [0, 1, 2],
              [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [2.0, -2.0, 2.0],
               [0.0, 0.0, 0.0]]), False)
    def test_skipping_matches_solving_every_sector(self, case, select):
        # one solver meets the whole history, so its bounds come from the
        # floors and from each sector's last solve
        system, sites, field_sites, history = case
        pruned = CollinearChainSolver(system, sites, field_sites)
        for zs in history:
            coeffs = [1.0 - 2.0 * (k % 2) for k in range(len(zs))] if select else None
            # a fresh solver given the same Lanczos start vectors solves
            # every sector just as the pruned one solves those it keeps
            fresh = CollinearChainSolver(system, sites, field_sites)
            for mine, theirs in zip(fresh.sectors, pruned.sectors):
                mine["v0"] = theirs.get("v0")
            got = pruned.ground(zs, select_coeffs=coeffs)
            want = fresh.ground(zs, select_coeffs=coeffs)
            assert got["energy"] == pytest.approx(want["energy"], abs=1e-12)
            assert got["e_bare"] == pytest.approx(want["e_bare"], abs=1e-12)
            assert got["z_fields"] == pytest.approx(want["z_fields"], abs=1e-12)
            # no sector of the minimum's level was skipped: each was solved
            # at these fields
            level = degenerate_with(want["energy"], fresh.e_last)
            assert np.all(pruned.b_last[level] == np.array(zs))
            assert pruned.e_last[level] == pytest.approx(fresh.e_last[level],
                                                         abs=1e-12)
        assert np.all(np.isfinite(pruned.floor))

    def test_multiplet_keeps_its_level(self):
        # an odd spin-1/2 chain at zero field: the ground doublet lies in
        # 2M = -1 and +1, so a floored call must solve both again and pick the
        # same member, here the 2M = +1 one, by the selector
        solver = CollinearChainSolver(SpinSystem.chain(5, "1/2"), range(5), (0, 4))
        first = solver.ground([0.0, 0.0], select_coeffs=[-1.0, -1.0])
        second = solver.ground([0.0, 0.0], select_coeffs=[-1.0, -1.0])
        assert second == first
        assert sum(first["z_fields"]) > 0

    def test_no_floors_from_a_field_call(self):
        # a dressed call on a fresh solver solves every sector and records
        # no floor; single_site_threshold bounds the sectors first
        # (bound_by_halves) and so solves only those its bounds keep
        solver = CollinearChainSolver(SpinSystem.chain(4, "1"), range(4), (0,))
        solver.ground([1.0])
        assert np.all(np.isfinite(solver.e_last))
        assert np.all(solver.floor == -np.inf)

    def test_ring8_scan_skips_most_sector_solves(self, monkeypatch):
        # the N=8 s=1 scan solved 4734 sector blocks (lowest_level plus
        # lanczos_ground calls) when every call solved every sector, 1408
        # when bounded by the floors alone, and 667 with each sector's last
        # solve bounding it too
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scf, "lowest_level", counted(scf.lowest_level))
        monkeypatch.setattr(scf, "lanczos_ground", counted(scf.lanczos_ground))
        scan = biseparable_scan(SpinSystem.ring(8, "1"), workers=1)
        assert scan.argmin.n_a == 1
        assert len(calls) <= 700


@st.composite
def threshold_cuts(draw):
    """(system, k): a ring (N = 3..7) or chain (N = 2..7) of mixed spins
    s <= 2, and the site k a threshold factors out."""
    topology = draw(st.sampled_from([RING, CHAIN]))
    n = draw(st.integers(3 if topology == RING else 2, 7))
    two_s = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return SpinSystem(topology, tuple(two_s)), draw(st.integers(0, n - 1))


def scf_search(system, arc):
    """(branches, decoupled energy) of the SCF search on the cut A = arc,
    the oracle of a single-site arc's one dressed solve: ``_run_branch``
    from each INIT_GRID fraction of B's first boundary spin, on both eta
    signs when the cut has two coupling pairs, on one pair of chain
    solvers, after the two field-free solves of the decoupled value."""
    sites_a, sites_b, pairs = cut(system, arc)
    solver_a = CollinearChainSolver(system, sites_a, [a for a, _ in pairs])
    solver_b = CollinearChainSolver(system, sites_b, [b for _, b in pairs])
    zero = [0.0] * len(pairs)
    decoupled = solver_a.ground(zero)["e_bare"] + solver_b.ground(zero)["e_bare"]
    s_bd = system.site_two_s[pairs[0][1]] / 2.0
    branches = [scf._run_branch(solver_a, solver_b, eta, s_bd * f)
                for eta in ((1, -1) if len(pairs) == 2 else (1,))
                for f in scf.INIT_GRID]
    return branches, decoupled


class TestCutBounds:
    @settings(max_examples=40, deadline=None)
    @given(threshold_cuts())
    def test_bounds_never_exceed_a_level(self, case):
        # every sector's cut bound lies at or below its lowest level, with
        # no tolerance, and the pruned threshold is the unpruned one exactly
        system, k = case
        _, rest, pairs = cut(system, Arc(k, 1))
        field_sites = [b for _, b in pairs]
        z = [system.site_two_s[k] / 2.0] * len(pairs)
        unpruned = CollinearChainSolver(system, rest, field_sites)
        energy = unpruned.ground(z)["energy"]
        assert np.all(np.isfinite(unpruned.e_last))
        bounded = CollinearChainSolver(system, rest, field_sites)
        bounded.bound_by_halves(z)
        if len(rest) > 1:
            assert np.all(bounded.e_last <= unpruned.e_last)
            assert np.all(bounded.b_last == np.array(z))
        else:  # one site: nothing to cut, nothing bounded
            assert np.all(bounded.e_last == -np.inf)
        assert single_site_threshold(system, k) == energy

    @settings(max_examples=25, deadline=None)
    @given(threshold_cuts())
    def test_single_site_arc_is_the_scf_minimum(self, case):
        # lemma 2: the lone spin's dressed energy is concave and flip
        # symmetric in its <s>, so the one solve at |<s>| = s_k is the
        # minimum the SCF search finds, decoupled candidate included
        system, k = case
        best, branches = biseparable_minimum_detailed(system, Arc(k, 1))
        assert branches == []
        assert best.converged and not best.decoupled and best.residual == 0.0
        found, decoupled = scf_search(system, Arc(k, 1))
        assume(any(b.converged for b in found))
        want = min([b.ebs for b in found if b.converged] + [decoupled])
        assert abs(best.ebs - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=20, deadline=None)
    @given(threshold_cuts())
    def test_sector_blocks_are_the_index_cut(self, case):
        # the solvers' and the halves' sector blocks are mat[idx][:, idx]
        # array for array, so every Lanczos solve keeps its bits
        system, _ = case
        op = build_hamiltonian(system)
        mat = (op.matrix + sp.diags(np.arange(op.dim) / 7.0)).tocsr()
        for _, idx, block in scf._sector_blocks(op.basis, mat):
            ref = mat[idx][:, idx]
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, name), getattr(ref, name))

    @settings(max_examples=60, deadline=None)
    @given(threshold_cuts())
    def test_threshold_matches_dense_remainder(self, case):
        # an oracle independent of the chain solver: the whole dressed
        # remainder, H on the other sites plus s_k sz on each of k's
        # neighbours, diagonalized at once
        system, k = case
        _, rest, pairs = cut(system, Arc(k, 1))
        assume(np.prod([system.site_two_s[i] + 1 for i in rest]) <= 2000)
        op = build_hamiltonian(system, sites=rest)
        s_k = system.site_two_s[k] / 2.0
        field = sum(op.basis.two_m[:, rest.index(b)] / 2.0 for _, b in pairs)
        want = dense_spectrum(op.matrix + sp.diags(s_k * field))[0]
        got = single_site_threshold(system, k)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_defect_series_skips_most_lanczos_solves(self, monkeypatch):
        # the defect series of an N=8 s=1 ring (site 5, s_M = 0..5/2) made
        # 171 lanczos_ground calls when each threshold solved every sector,
        # 69 with the cut bounds
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return lanczos_ground(*args, **kwargs)

        monkeypatch.setattr(scf, "lanczos_ground", counted)
        defect_series(SpinSystem.ring(8, "1"), 5,
                      ["0", "1/2", "1", "3/2", "2", "5/2"])
        assert len(calls) <= 80


class TestBiseparableMinimum:
    def test_even_even_decouples(self):
        # qubit ring: even-even splits exactly into two open chains
        system = SpinSystem.ring(6, "1/2")
        res = bipartition_report(system, Arc(0, 2)).result
        e2 = dense_spectrum(build_hamiltonian(SpinSystem.chain(2, "1/2")).matrix)[0]
        e4 = dense_spectrum(build_hamiltonian(SpinSystem.chain(4, "1/2")).matrix)[0]
        assert res.decoupled
        assert abs(res.ebs - (e2 + e4)) < 1e-8
        assert abs(res.z_a) < 1e-8 and abs(res.z_b) < 1e-8

    def test_converged_result_is_fixed_point(self):
        system = SpinSystem.ring(6, "1")
        res = bipartition_report(system, Arc(0, 1)).result
        assert res.converged
        assert res.residual < 1e-9

    def test_single_site_arc_matches_threshold(self):
        # one function solves both, so they agree to the bit
        system = SpinSystem.ring(6, "1")
        res = bipartition_report(system, Arc(0, 1)).result
        assert res.ebs == single_site_threshold(system, 0)

    def test_ebs_above_ground(self):
        system = SpinSystem.ring(6, "1/2")
        e0 = dense_spectrum(build_hamiltonian(system).matrix)[0]
        for n_a in (1, 2, 3):
            res = bipartition_report(system, Arc(0, n_a)).result
            assert res.ebs > e0 + 1e-6

    def test_chain_edge_arc_single_coupling(self):
        system = SpinSystem.chain(4, "1/2")
        best, branches = biseparable_minimum_detailed(system, Arc(0, 2))
        # one coupling bond: only the eta=+1 branch family, and eta = 1
        assert len(branches) == len(scf.INIT_GRID)
        assert all(b.eta == 1 for b in branches)
        assert best.eta == 1

    def test_detailed_reports_decoupled_candidate(self):
        # the decoupled candidate wins as best; the branches are those run
        system = SpinSystem.ring(4, "1/2")
        best, branches = biseparable_minimum_detailed(system, Arc(0, 2))
        assert best.decoupled
        assert len(branches) == 10
        assert not any(b.decoupled for b in branches)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tied_branches_report_geometric_eta(self, seed):
        # which branch reaches the fixed point first depends on the seed; the
        # report is the point's canonical form: z_b >= 0 and eta the sign of
        # z_b * z_bprime, here antiparallel
        res = bipartition_report(SpinSystem.ring(8, "1"), Arc(0, 2), seed).result
        assert res.eta == -1
        assert res.z_b > 0 > res.z_bprime
        assert not res.decoupled
        assert abs(res.ebs + 10.134660606868023) < 1e-11

    @pytest.mark.parametrize("n_a", [1, 2, 3, 4])
    def test_branches_converge_in_few_cycles(self, n_a):
        # each half-cycle is an exact minimization, so the undamped
        # alternation settles in a few cycles and reports the converging
        # one; a single-site arc runs no branch, so its SCF search is run
        # on its own solvers
        system, arc = SpinSystem.ring(8, "1"), Arc(0, n_a)
        branches = (scf_search(system, arc)[0] if n_a == 1
                    else biseparable_minimum_detailed(system, arc)[1])
        found = [b for b in branches if b.converged]
        assert found
        assert all(b.residual < scf.TOL for b in found)
        assert np.mean([b.iterations for b in found]) < 15

    def test_reported_ebs_is_the_lowest_converged_candidate(self, monkeypatch):
        # a converged branch 1e-10 below the decoupled energy, with z_a and
        # z_b at zero but z_aprime and z_bprime not: it lies outside the
        # 1e-12 |J| tie window, so it is the minimum and is reported as found
        system, arc = SpinSystem.ring(6, "1"), Arc(0, 3)
        sites_a, sites_b, _ = cut(system, arc)
        e_dec = sum(dense_spectrum(build_hamiltonian(system, sites=sites).matrix)[0]
                    for sites in (sites_a, sites_b))

        def fake_branch(solver_a, solver_b, eta, z0, known=()):
            return scf.ScfResult(e_dec - 1e-10, 0.0, 0.3, 0.0, 0.3, eta, True,
                                 0.0, iterations=1)

        monkeypatch.setattr(scf, "_run_branch", fake_branch)
        res = bipartition_report(system, arc).result
        assert not res.decoupled
        assert res.ebs == e_dec - 1e-10
        assert (res.z_a, res.z_aprime, res.z_b, res.z_bprime) == (0.0, 0.3, 0.0, 0.3)

    def test_no_converged_branch_raises(self, monkeypatch):
        # one iteration converges none of the odd-odd arc's 10 branches; the
        # decoupled energy is only an upper bound and must not be reported
        # as E_bs
        monkeypatch.setattr(scf, "count", one_cycle)
        system = SpinSystem.ring(6, "1")
        with pytest.raises(SolverError) as info:
            biseparable_minimum_detailed(system, Arc(0, 3))
        # one failure type: the CLI and the scan catch SolverError alone
        assert type(info.value) is SolverError
        diag = info.value.diagnostics
        assert diag["branches"] == 10
        assert len(diag["last_residuals"]) == 10
        assert info.value.diagnostics["branches"] == 10

    def test_failing_branch_raises(self, monkeypatch):
        # a solver error in one branch is not a branch result: the minimum
        # over the rest would not be the arc's minimum
        run_branch, calls = scf._run_branch, []

        def fail_third(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise SolverError("Lanczos failed to converge", {"dim": 70})
            return run_branch(*args, **kwargs)

        monkeypatch.setattr(scf, "_run_branch", fail_third)
        with pytest.raises(SolverError, match="Lanczos failed to converge"):
            bipartition_report(SpinSystem.ring(6, "1"), Arc(0, 3))

    def test_drifting_branches_are_counted(self):
        # the four eta = -1 branches from s/4 to s drift towards z = 0
        # without converging; the decoupled candidate is not a branch
        system = SpinSystem.ring(4, "1/2")
        report = bipartition_report(system, Arc(0, 2))
        assert report.result.decoupled
        assert report.warning == "4 of 10 branches unconverged"
        reports = {r.n_a: r for r in biseparable_scan(system).reports}
        assert reports[2].warning == "4 of 10 branches unconverged"
        assert reports[1].warning == ""


@st.composite
def scf_arcs(draw):
    """(system, arc, seed): a ring or chain of N = 3..6 sites, of one spin
    or of mixed spins s <= 3/2, one of the arcs its scan runs, and a seed."""
    topology = draw(st.sampled_from([RING, CHAIN]))
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        two_s = [draw(st.integers(1, 3))] * n
    else:
        two_s = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    system = SpinSystem(topology, tuple(two_s))
    arcs = [arc for arc in scan_arcs(system) if collinear_bounded(system, arc)]
    return system, draw(st.sampled_from(arcs)), draw(st.sampled_from([5, 7, 42]))


class TestKnownFixedPoints:
    @settings(max_examples=30, deadline=None)
    @given(scf_arcs())
    # the eta = +1 branches from s/4 and s/2 contract to |z| ~ 3.5e-8, then
    # escape along the antisymmetric mode to a fixed point 0.8 lower: z = 0,
    # where the branch from 0 converged, is a saddle
    @example((SpinSystem.ring(8, "1"), Arc(0, 4), 5))
    @example((SpinSystem.ring(8, "1"), Arc(0, 4), 42))
    def test_stopped_branch_reports_its_own_fixed_point(self, case):
        # each branch reports the fixed point it reaches when no branch
        # stops at a known one
        system, arc, seed = case
        _, stopped = biseparable_minimum_detailed(system, arc, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scf, "_known_fixed_point", lambda za, zb, known: None)
            _, full = biseparable_minimum_detailed(system, arc, seed)
        assert len(stopped) == len(full)
        for got, want in zip(stopped, full):
            assert (got.eta, got.converged) == (want.eta, want.converged)
            if want.converged:
                assert got.ebs == pytest.approx(want.ebs, abs=1e-9)
                for name in ("z_a", "z_aprime", "z_b", "z_bprime"):
                    assert getattr(got, name) == pytest.approx(
                        getattr(want, name), abs=1e-6)

    def test_ring8_scan_stops_branches_at_known_fixed_points(self, monkeypatch):
        # the N=8 s=1 scan runs 30 branches (its single-site arc runs
        # none); iterating every branch to its own convergence takes 239
        # cycles and 485 ground calls, stopping at known fixed points 182
        # and 371
        calls = []

        def counted(solver, *args, **kwargs):
            calls.append(1)
            return ground(solver, *args, **kwargs)

        ground = CollinearChainSolver.ground
        monkeypatch.setattr(CollinearChainSolver, "ground", counted)
        system = SpinSystem.ring(8, "1")
        branches = [b for arc in scan_arcs(system)
                    for b in biseparable_minimum_detailed(system, arc)[1]]
        assert len(branches) == 30
        assert all(b.converged for b in branches)
        assert sum(b.iterations for b in branches) <= 190
        assert len(calls) <= 390


@st.composite
def mixed_chains(draw):
    """A chain of N = 2..8 mixed spins s <= 3/2, at most 6561 product
    states."""
    two_s = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8).filter(
        lambda t: np.prod([x + 1 for x in t]) <= 6561))
    return SpinSystem(CHAIN, tuple(two_s))


class TestScan:
    @settings(max_examples=15, deadline=None)
    @given(mixed_chains())
    def test_chain_end_cuts_hold_the_minimum(self, system):
        # lemma 1: the marginals of a product state across a mid-chain arc
        # are those of a product state across an end cut, so the scan, which
        # runs the end cuts only, reaches the minimum over every arc of the
        # chain, every offset of every length (the oracle)
        n = system.n_sites
        every = [Arc(off, length) for length in range(1, n // 2 + 1)
                 for off in range(n - length + 1)]
        emin = min(bipartition_report(system, arc).result.ebs for arc in every)
        scan = biseparable_scan(system)
        assert all(r.offset in (0, n - r.n_a) for r in scan.reports)
        assert scan.ebs - emin <= 1e-12 * max(1.0, abs(emin))

    def test_homogeneous_ring_single_offset(self):
        arcs = scan_arcs(SpinSystem.ring(8, "1/2"))
        assert [(a.offset, a.length) for a in arcs] == [(0, 1), (0, 2),
                                                        (0, 3), (0, 4)]

    def test_chain_end_cuts(self):
        # each bipartition once: the two halves of an even chain are one cut
        for n, want in ((4, [(0, 1), (3, 1), (0, 2)]),
                        (5, [(0, 1), (4, 1), (0, 2), (3, 2)])):
            arcs = scan_arcs(SpinSystem.chain(n, "1/2"))
            assert [(a.offset, a.length) for a in arcs] == want

    def test_defected_ring_all_offsets(self):
        arcs = scan_arcs(SpinSystem.from_spins("ring", ["1"] * 3 + ["1/2"]))
        assert len(arcs) == 8  # 4 offsets x 2 lengths

    def test_periodic_ring_offsets_within_one_period(self):
        # a rotation by two sites carries (1/2, 1) x 3 onto itself
        arcs = scan_arcs(SpinSystem.from_spins("ring", ["1/2", "1"] * 3))
        assert [(a.offset, a.length) for a in arcs] == [
            (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3)]

    @pytest.mark.parametrize("spins", [["1/2", "1"] * 3, ["1/2", "1"] * 4,
                                       ["1", "3/2"] * 3],
                             ids=["(1/2,1)x3", "(1/2,1)x4", "(1,3/2)x3"])
    def test_periodic_ring_scan_holds_the_minimum(self, spins):
        # the minimum over every offset of every length (the oracle)
        system = SpinSystem.from_spins("ring", spins)
        n = system.n_sites
        emin = min(bipartition_report(system, Arc(off, length)).result.ebs
                   for length in range(1, n // 2 + 1) for off in range(n))
        assert abs(biseparable_scan(system).ebs - emin) <= 1e-12

    def test_scan_minimum_is_min_of_reports(self):
        system = SpinSystem.ring(6, "1/2")
        scan = biseparable_scan(system)
        assert abs(scan.ebs - min(r.result.ebs for r in scan.reports)) < 1e-15
        assert scan.argmin.result.ebs == scan.ebs

    def test_unconverged_arc_raises(self, monkeypatch):
        # with one iteration the single-site arc (no branch) and the
        # even-even arc (from z = 0) succeed; the minimum over them is not
        # E_bs, so the scan raises, naming the failing arc (offset 1-based)
        monkeypatch.setattr(scf, "count", one_cycle)
        with pytest.raises(SolverError, match="no SCF branch converged") as info:
            biseparable_scan(SpinSystem.ring(6, "1"))
        diag = info.value.diagnostics
        assert (diag["n_a"], diag["offset"], diag["branches"]) == (3, 1, 10)

    def test_bisep_arc_is_tagged_as_in_a_scan(self, monkeypatch):
        # one arc's failure names it as the scan's does, offset 1-based
        monkeypatch.setattr(scf, "count", one_cycle)
        with pytest.raises(SolverError, match="no SCF branch converged") as info:
            bipartition_report(SpinSystem.chain(6, "1"), Arc(1, 2))
        diag = info.value.diagnostics
        assert (diag["n_a"], diag["offset"], diag["branches"]) == (2, 2, 10)

    def test_arc_tagged_error_survives_pickling(self):
        # a worker process hands its exception back pickled
        err = SolverError("no SCF branch converged",
                          {"branches": 1, "last_residuals": [0.5]})
        err.diagnostics.update(n_a=3, offset=2)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SolverError and str(back) == "no SCF branch converged"
        assert back.diagnostics == {"branches": 1, "last_residuals": [0.5],
                                    "n_a": 3, "offset": 2}

    def test_qubit_hexagon_argmin_even(self):
        # 6-ring of qubits: the (2,4) decoupled split wins over (1,5) and (3,3)
        scan = biseparable_scan(SpinSystem.ring(6, "1/2"))
        assert scan.argmin.n_a == 2
        assert scan.argmin.result.decoupled

@pytest.mark.parametrize("workers", [1, 2])
def test_map_jobs_applies_each_job_in_order(workers):
    assert map_jobs(pow, [(2, 3), (3, 2), (5, 0)], workers) == [8, 9, 1]
    assert map_jobs(pow, [], workers) == []


def test_map_jobs_forks_no_idle_worker(monkeypatch):
    # a process pool forks all its processes at its first job, so it is
    # sized by the jobs; one job runs in this process
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(scf, "ProcessPoolExecutor", Recording)
    assert map_jobs(pow, [(2, 3), (3, 2), (5, 0)], 64) == [8, 9, 1]
    assert map_jobs(pow, [(2, 3)], 64) == [8]
    assert sizes == [3]


class TestMapPropertiesSmall:
    def test_chain_length_damping_at_right_angle(self):
        # |theta_bar - theta_B| at theta_B = pi/2 shrinks with chain length
        # within each parity class
        def deflection(n_a):
            pair = boundary_map(SpinSystem.chain(n_a, "1/2"), range(n_a),
                                z_vec(0.5), z_vec(0.5, np.pi / 2))
            return abs(boundary_geometry(pair).theta - np.pi / 2)

        assert deflection(5) < deflection(3)
        assert deflection(6) < deflection(4)
