"""Spin algebra, product bases and sparse operator construction, and the
Kronecker-product references the solvers are held to."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness.operators import (
    MAX_PRODUCT_DIM,
    ProductBasis,
    heisenberg_matrix,
    parse_spin,
    product_dim,
    raising,
    spin_str,
    symmetry_orbits,
)
from spinwitness.eigensolvers import SolverError
from spinwitness.hamiltonians import CHAIN, RING, Arc, SpinSystem, site_maps
from spinwitness.scf import bipartition_report, boundary_map, scan_arcs


def bond_operator(basis, i, j):
    return heisenberg_matrix(basis, [(i, j)])


def local_spin_matrices(two_s):
    """Dense single-site spin matrices sx, sy, sz, splus, sminus in the basis
    m = s, s-1, ..., -s (hbar = 1), the reference the sparse builders are
    held to."""
    if two_s < 0:
        raise ValueError("spin length must be non-negative")
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    # s+|m> = sqrt(s(s+1) - m(m+1)) |m+1>; with m descending, s+ is superdiagonal
    splus = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), k=1)
    sminus = splus.T.copy()
    return SimpleNamespace(sx=(splus + sminus) / 2.0, sy=(splus - sminus) / 2.0j,
                           sz=np.diag(m), splus=splus, sminus=sminus)


def kron_embed(spins, site, local):
    """The single-site matrix `local` on `site` of the full product space."""
    out = np.eye(1)
    for k, t in enumerate(spins):
        out = np.kron(out, local if k == site else np.eye(t + 1))
    return out


def dense_exchange(spins, bonds):
    """Reference sum of s_i . s_j built from Kronecker products."""
    ms = [local_spin_matrices(t) for t in spins]

    def embed(site, comp):
        return kron_embed(spins, site, getattr(ms[site], comp))

    return sum(embed(i, c) @ embed(j, c)
               for i, j in bonds for c in ("sx", "sy", "sz"))


class TestParseSpin:
    @pytest.mark.parametrize("value,two_s", [
        ("1/2", 1), ("1", 2), ("3/2", 3), ("5/2", 5), (0, 0),
        (0.5, 1), (2, 4), ("0", 0),
    ])
    def test_valid(self, value, two_s):
        assert parse_spin(value) == two_s

    @pytest.mark.parametrize("value", ["1/3", -0.5, 0.3, "-1"])
    def test_invalid(self, value):
        with pytest.raises(ValueError):
            parse_spin(value)

    def test_round_trip(self):
        for two_s in range(0, 8):
            assert parse_spin(spin_str(two_s)) == two_s

    def test_spin_str(self):
        assert spin_str(1) == "1/2"
        assert spin_str(2) == "1"
        assert spin_str(3) == "3/2"


class TestLocalSpinMatrices:
    @pytest.mark.parametrize("two_s", range(1, 6))
    def test_commutator(self, two_s):
        m = local_spin_matrices(two_s)
        comm = m.sx @ m.sy - m.sy @ m.sx - 1j * m.sz
        assert np.abs(comm).max() < 1e-12

    @pytest.mark.parametrize("two_s", range(1, 6))
    def test_casimir(self, two_s):
        m = local_spin_matrices(two_s)
        s = two_s / 2.0
        cas = m.sx @ m.sx + m.sy @ m.sy + m.sz @ m.sz
        assert np.abs(cas - s * (s + 1) * np.eye(two_s + 1)).max() < 1e-12

    @pytest.mark.parametrize("two_s", range(1, 6))
    def test_ladder_adjoint(self, two_s):
        m = local_spin_matrices(two_s)
        assert np.abs(m.splus.conj().T - m.sminus).max() == 0.0

    def test_sz_half(self):
        m = local_spin_matrices(1)
        assert np.allclose(m.sz, np.diag([0.5, -0.5]))

    def test_spin_one_ladder(self):
        m = local_spin_matrices(2)
        assert np.allclose(np.diag(m.sz), [1.0, 0.0, -1.0])
        assert np.allclose(np.diag(m.splus, k=1), [np.sqrt(2)] * 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            local_spin_matrices(-1)


class TestProductBasis:
    def test_total_dim(self):
        b = ProductBasis([1, 2, 3])
        assert b.total_dim == 2 * 3 * 4
        assert b.dim == b.total_dim

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3),
                    min_size=1, max_size=4))
    def test_sector_dims_partition_space(self, spins):
        # sectors() cuts the full basis into every 2M in -sum 2s..sum 2s, each
        # in the state order of that sector's own basis
        sectors = ProductBasis(spins).sectors()
        assert [t for t, _ in sectors] == list(range(-sum(spins), sum(spins) + 1, 2))
        for two_m, idx in sectors:
            assert np.array_equal(idx, ProductBasis(spins, two_m).full_index)
        assert sum(idx.size for _, idx in sectors) == int(np.prod([t + 1 for t in spins]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=5),
           st.integers(min_value=-16, max_value=16))
    def test_states_in_lexicographic_order(self, spins, two_m):
        # reference: the local-index tuples in lexicographic order, site 0
        # slowest, numbered by their position in the whole product space
        full = list(itertools.product(*(range(t + 1) for t in spins)))
        two_m = (two_m - sum(spins)) // 2 * 2 + sum(spins)  # right parity
        for sector in (None, two_m):
            keep = [f for f, idx in enumerate(full) if sector is None
                    or sum(spins) - 2 * sum(idx) == sector]
            b = ProductBasis(spins, sector)
            assert b.states.dtype == b.two_m.dtype == b.full_index.dtype == np.int64
            assert b.states.tolist() == [list(full[f]) for f in keep]
            assert b.full_index.tolist() == keep
            assert np.array_equal(b.two_m, np.array(spins, dtype=int) - 2 * b.states)
            assert np.array_equal(b.permuted(range(len(spins))), b.full_index)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3),
                    min_size=1, max_size=4))
    def test_index_maps_are_inverse(self, spins):
        for two_m, _ in ProductBasis(spins).sectors():
            b = ProductBasis(spins, two_m)
            if b.dim == 0:
                continue
            assert np.array_equal(
                b.position_of_full(b.full_index), np.arange(b.dim))

    def test_product_space_cap(self):
        assert product_dim([1] * 20) == MAX_PRODUCT_DIM
        # 2^64 states: an int64 product would wrap to 0
        with pytest.raises(ValueError):
            ProductBasis([1] * 64)

    def test_wrong_parity_sector_rejected(self):
        with pytest.raises(ValueError):
            ProductBasis([1, 1], 1)  # two qubits: total 2M must be even

    def test_missing_state_raises(self):
        b = ProductBasis([1, 1], 0)
        with pytest.raises(KeyError):
            b.position_of_full(np.array([0]))  # |up,up> is in the 2M=2 sector

    def test_sector_magnetization(self):
        b = ProductBasis([1, 1, 2], 2)
        assert np.all(b.two_m.sum(axis=1) == 2)

    @pytest.mark.parametrize("spins, two_m, step", [
        ([1] * 6, 0, 1),       # L = 6: orbits of length 6, 3 and 2
        ([1] * 8, 0, 2),       # L = 4 on a basis closed under every shift
        ([1, 2] * 3, 1, 2),    # alternating spins, L = 3
        ([2] * 4, None, 1),    # whole product space, orbits of length 1, 2, 4
        ([2] * 4, 0, 4),       # L = 1: every state its own orbit
    ])
    def test_translation_orbits_cover_each_state_once(self, spins, two_m, step):
        # orbits under the shifts T^r by r * step sites alone (a ring's
        # rotations without its reflections), checked on the states of
        # sector two_m (every state for None) as full_spectrum slices them
        n = len(spins)
        rotations = [[(r * step + i) % n for i in range(n)] for r in range(n // step)]
        b = ProductBasis(spins)
        reps, images = symmetry_orbits(b, rotations)
        assert images.shape == (1, n // step, reps.size)
        total = b.two_m.sum(axis=1)
        assert np.array_equal(total[images[0]], np.broadcast_to(total[reps], images[0].shape))
        for r in range(n // step):  # T^r |rep> is the rep's content rolled
            assert np.array_equal(b.states[images[0, r]],
                                  np.roll(b.states[reps], r * step, axis=1))
        orbits = [set(images[0, :, i].tolist()) for i in range(reps.size)]
        assert all(min(orbit) == a for orbit, a in zip(orbits, reps))
        assert all((n // step) % len(orbit) == 0 for orbit in orbits)
        idx = np.arange(b.dim) if two_m is None else dict(b.sectors())[two_m]
        in_sector = [orbit for orbit, a in zip(orbits, reps) if a in set(idx.tolist())]
        assert sum(map(len, in_sector)) == idx.size  # disjoint orbits
        assert set().union(*in_sector) == set(idx.tolist())

    def test_translation_orbits_reject_sector_basis(self):
        with pytest.raises(ValueError):
            symmetry_orbits(ProductBasis([1] * 4, 0), [[0, 1, 2, 3]])

    @pytest.mark.parametrize("topology, spins", [
        ("ring", [1] * 6),        # dihedral: orbits of length 12, 6, ... 1
        ("ring", [1, 2] * 3),     # alternating spins: T shifts two sites
        ("ring", [2] * 4),        # whole product space of spin-1 sites
        ("ring", [1, 1, 3, 1, 1]),  # a defect: the one reflection through it
        ("ring", [1, 2, 3] * 2),  # rotations only, no reflection
        ("chain", [1] * 5),       # reversal only
        ("chain", [1, 2, 1, 1]),  # no symmetry: every state its own orbit
    ])
    def test_symmetry_orbits_match_brute_force(self, topology, spins):
        # every map applied to every state by moving the site contents
        rotations, reflections = site_maps(SpinSystem(topology, tuple(spins)))
        b = ProductBasis(spins)
        reps, images = symmetry_orbits(b, rotations, reflections)
        lookup = {tuple(state): i for i, state in enumerate(b.states)}

        def image(site_map, i):
            moved = np.empty_like(b.states[i])
            moved[site_map] = b.states[i]
            return lookup[tuple(moved)]

        maps = [rotations, reflections][:len(images)]
        for f, group in enumerate(maps):
            for r, site_map in enumerate(group):
                assert [image(site_map, a) for a in reps] == images[f, r].tolist()
        orbit_min = [min(image(m, i) for m in rotations + reflections)
                     for i in range(b.dim)]
        assert reps.tolist() == sorted(set(orbit_min))
        total = b.two_m.sum(axis=1)
        assert np.all(total[images] == total[reps])  # the maps conserve Sz


class TestOperators:
    def test_two_qubit_heisenberg_spectrum(self):
        b = ProductBasis([1, 1])
        op = bond_operator(b, 0, 1)
        vals = np.linalg.eigvalsh(op.toarray())
        assert np.allclose(sorted(vals), [-0.75, 0.25, 0.25, 0.25])

    def test_heisenberg_real_symmetric(self):
        b = ProductBasis([1, 2, 3])
        op = bond_operator(b, 0, 2)
        assert op.dtype == np.float64
        dev = np.abs(op.toarray() - op.toarray().T).max()
        assert dev == 0.0

    def test_bond_matches_dense_kron(self):
        # s_i . s_j assembled from local matrices must equal the sparse build
        spins = [1, 2, 1]
        built = heisenberg_matrix(ProductBasis(spins), [(0, 1)]).toarray()
        assert np.abs(dense_exchange(spins, [(0, 1)]) - built).max() < 1e-12

    def test_bond_rejects_same_site(self):
        b = ProductBasis([1, 1])
        with pytest.raises(ValueError):
            heisenberg_matrix(b, [(0, 1), (1, 1)])

    def test_mixed_ring_matches_dense_kron(self):
        # several bonds, in the full space and in every Sz sector
        # (rows/columns of the kron sum picked by full index)
        spins = [1, 2, 3, 2]
        bonds = [(0, 1), (1, 2), (2, 3), (3, 0)]
        dense = dense_exchange(spins, bonds)
        for two_m in [None] + [t for t, _ in ProductBasis(spins).sectors()]:
            b = ProductBasis(spins, two_m)
            mat = heisenberg_matrix(b, bonds)
            assert mat.nnz == np.count_nonzero(mat.data)
            block = dense[np.ix_(b.full_index, b.full_index)]
            assert np.abs(mat.toarray() - block).max() < 1e-12

    def test_total_sz(self):
        b = ProductBasis([1, 1])
        assert np.allclose(b.two_m.sum(axis=1) / 2.0, [1, 0, 0, -1])

    def test_total_spin_squared_two_qubits(self):
        # S^2 = S- S+ + Sz(Sz + 1), with S- the transpose of S+
        b = ProductBasis([1, 1])
        splus = raising(b, [0, 1]).toarray()
        sz = b.two_m.sum(axis=1) / 2.0
        vals = np.linalg.eigvalsh(splus.T @ splus + np.diag(sz * (sz + 1)))
        assert np.allclose(sorted(vals), [0.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("spins, two_m", [
        ([1, 2, 3], None), ([1, 2, 3], 0), ([2, 1, 2, 1], 2), ([3, 3], -2)])
    @pytest.mark.parametrize("sites", [[1], None], ids=["one-site", "all-sites"])
    def test_raising_matches_kron(self, spins, two_m, sites):
        # columns are the basis states, rows the full product space
        sites = range(len(spins)) if sites is None else sites
        b = ProductBasis(spins, two_m)
        dense = sum(kron_embed(spins, i, local_spin_matrices(spins[i]).splus)
                    for i in sites)
        mat = raising(b, sites)
        assert mat.shape == (b.total_dim, b.dim)
        assert np.abs(mat.toarray() - dense[:, b.full_index]).max() < 1e-12

    @pytest.mark.parametrize("chain, sites, b, bprime", [
        (["1/2", "1", "1/2"], [0, 1, 2], [0.3, 0.0, -0.7], [-0.9, 0.0, 0.2]),
        (["3/2", "1/2"], [0, 1], [0.5, 0.0, 0.5], [0.4, 0.0, -1.1]),
        # both fields on one spin; the site outside the segment adds no bond
        (["1", "1/2"], [0], [0.6, 0.0, 0.25], [-0.2, 0.0, 0.4]),
    ], ids=["three-sites", "two-sites", "one-site"])
    def test_boundary_map_matches_kron(self, chain, sites, b, bprime):
        # boundary_map builds b . s from s+ and two_m and reads <s> from
        # <s+>; the oracle dresses the segment with Kronecker-embedded sx,
        # sy, sz and reads each component as a plain expectation value
        system = SpinSystem.from_spins(CHAIN, chain)
        spins = [system.site_two_s[i] for i in sites]
        last = len(spins) - 1

        def embed(site, comp):
            return kron_embed(spins, site,
                              getattr(local_spin_matrices(spins[site]), comp))

        def field(site, vec):
            return sum(c * embed(site, comp) for c, comp in zip(vec, ("sx", "sy", "sz")))

        h = (dense_exchange(spins, [(k, k + 1) for k in range(last)])
             + field(last, b) + field(0, bprime))
        vals, vecs = np.linalg.eigh(h)
        assert vals[1] - vals[0] > 1e-3  # one ground state, no selection
        v = vecs[:, 0]
        want = [[np.vdot(v, embed(site, comp) @ v).real
                 for comp in ("sx", "sy", "sz")] for site in (last, 0)]
        pair = boundary_map(system, sites, b, bprime)
        assert np.abs(np.array([pair.z, pair.zprime]) - want).max() < 1e-12

    def test_operator_add_and_scale(self):
        b = ProductBasis([1, 1])
        op = bond_operator(b, 0, 1)
        two = op + op
        assert np.abs(two.toarray() - 2.0 * dense_exchange([1, 1], [(0, 1)])).max() < 1e-14


def product_state_minimum(system, arc, starts=6, cycles=30, seed=0):
    """Lowest energy of the product states |A>|B> that alternating exact
    dressed solves reach on the cut A = arc, from `starts` random x-z
    boundary spins.  Each half-cycle solves one side's exchange in the x-z
    fields <s> of its neighbours across the cut, so each energy
    <H_A> + <H_B> + sum <s_a>.<s_b> is that of a real product state: an
    upper bound on the biseparable minimum of the cut, built from the
    Kronecker references alone."""
    n, two_s = system.n_sites, system.site_two_s
    bonds = [(i, i + 1) for i in range(n - 1)]
    bonds += [(n - 1, 0)] if system.topology == RING else []
    in_a = {(arc.offset + k) % n for k in range(arc.length)}
    crossing = [(a, b) if a in in_a else (b, a) for a, b in bonds
                if (a in in_a) != (b in in_a)]
    sides = []
    for side, edge in ((sorted(in_a), {a for a, _ in crossing}),
                       (sorted(set(range(n)) - in_a), {b for _, b in crossing})):
        local = {site: k for k, site in enumerate(side)}
        spins = [two_s[site] for site in side]
        dim = int(np.prod([t + 1 for t in spins]))
        h = np.zeros((dim, dim)) + np.real(dense_exchange(
            spins, [(local[a], local[b]) for a, b in bonds
                    if a in local and b in local]))
        ops = {site: [kron_embed(spins, local[site],
                                 getattr(local_spin_matrices(two_s[site]), c))
                      for c in ("sx", "sz")] for site in edge}
        sides.append((h, ops))

    def solve(own, neighbour_spins):
        # own = 0 for A (its sites come first in each crossing pair), 1 for B
        h, ops = sides[own]
        dressed = h.copy()
        for pair in crossing:
            bx, bz = neighbour_spins[pair[1 - own]]
            sx, sz = ops[pair[own]]
            dressed += bx * sx + bz * sz
        v = scipy.linalg.eigh(dressed, subset_by_index=[0, 0])[1][:, 0]
        return v @ h @ v, {site: np.array([v @ sx @ v, v @ sz @ v])
                           for site, (sx, sz) in ops.items()}

    def energy(e_a, e_b, spins_a, spins_b):
        return e_a + e_b + sum(spins_a[a] @ spins_b[b] for a, b in crossing)

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        spins_b = {}
        for _, b in crossing:
            modulus, phi = rng.uniform(0, two_s[b] / 2), rng.uniform(0, 2 * np.pi)
            spins_b[b] = modulus * np.array([np.sin(phi), np.cos(phi)])
        e_b = None
        for _ in range(cycles):
            e_a, spins_a = solve(0, spins_b)
            if e_b is not None:
                best = min(best, energy(e_a, e_b, spins_a, spins_b))
            e_b, spins_b = solve(1, spins_a)
            best = min(best, energy(e_a, e_b, spins_a, spins_b))
    return best


class TestProductStateOracle:
    @pytest.mark.parametrize("system", [
        SpinSystem.ring(6, "1/2"), SpinSystem.ring(6, "1"),
        SpinSystem.from_spins(RING, ["1/2", "1"] * 3), SpinSystem.ring(8, "1/2"),
        SpinSystem.chain(5, "1"),
        SpinSystem.from_spins(CHAIN, ["1", "1/2", "1", "1", "1/2", "1"]),
        # odd rings: their n_a = 1 cuts only
        SpinSystem.from_spins(RING, ["1", "1", "1", "1", "3/2"]),
        SpinSystem.ring(5, "1"), SpinSystem.ring(7, "1/2"),
    ], ids=["ring6-s12", "ring6-s1", "ring6-mixed", "ring8-s12", "chain5-s1",
            "chain6-mixed", "ring5-mixed", "ring5-s1", "ring7-s12"])
    def test_no_product_state_below_ebs(self, system):
        # every arc the scan runs and the collinear search bounds: the
        # non-collinear alternating minimizer finds no product state below
        # the arc's E_bs (it reaches it to 1e-14 on each of these)
        n = system.n_sites
        arcs = [arc for arc in scan_arcs(system)
                if not (system.topology == RING and n % 2 and 2 <= arc.length <= n - 2)]
        assert arcs
        for arc in arcs:
            ebs = bipartition_report(system, arc).result.ebs
            assert product_state_minimum(system, arc) >= ebs - 1e-8, arc

    def test_refused_odd_ring_cut_has_a_lower_state(self):
        # the collinear search put Arc(1, 2) of this ring at -6.5, the scan's
        # E_bs; a non-collinear product state reaches -6.5033206, so the cut
        # is refused rather than reported
        system = SpinSystem.from_spins(RING, ["1", "1", "1", "1", "3/2"])
        assert product_state_minimum(system, Arc(1, 2)) < -6.5033
        with pytest.raises(SolverError) as info:
            bipartition_report(system, Arc(1, 2))
        assert info.value.diagnostics == {"n_sites": 5, "n_a": 2, "offset": 2}
