"""Spin algebra, product bases and sparse operator construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinwitness.operators import (
    MAX_PRODUCT_DIM,
    ProductBasis,
    field_term,
    heisenberg_matrix,
    local_spin_matrices,
    parse_spin,
    product_dim,
    raising,
    sector_two_m_values,
    spin_str,
    sz_diagonal,
    translation_orbits,
)


def bond_operator(basis, i, j, coupling=1.0):
    return heisenberg_matrix(basis, [(i, j)], coupling)


def kron_embed(spins, site, local):
    """The single-site matrix `local` on `site` of the full product space."""
    out = np.eye(1)
    for k, t in enumerate(spins):
        out = np.kron(out, local if k == site else np.eye(t + 1))
    return out


def dense_exchange(spins, bonds, coupling):
    """Reference sum of J s_i . s_j built from Kronecker products."""
    ms = [local_spin_matrices(t) for t in spins]

    def embed(site, comp):
        return kron_embed(spins, site, getattr(ms[site], comp))

    return coupling * sum(embed(i, c) @ embed(j, c)
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
        total = int(np.prod([t + 1 for t in spins]))
        acc = 0
        for two_m in sector_two_m_values(spins):
            acc += ProductBasis(spins, two_m).dim
        assert acc == total

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=3),
                    min_size=1, max_size=4))
    def test_index_maps_are_inverse(self, spins):
        for two_m in sector_two_m_values(spins):
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
        b = ProductBasis(spins, two_m)
        n_shifts = len(spins) // step
        rep, shift, length = translation_orbits(b, step)
        assert np.all(n_shifts % length == 0)
        assert np.all(rep <= np.arange(b.dim))
        assert np.all((0 <= shift) & (shift < length))
        # T^shift |rep> is the state itself, and no two states share (rep, shift)
        for pos in range(b.dim):
            image = np.roll(b.states[rep[pos]], shift[pos] * step)
            assert np.array_equal(image, b.states[pos])
        assert len(set(zip(rep, shift))) == b.dim
        reps, counts = np.unique(rep, return_counts=True)
        assert np.array_equal(counts, length[reps])


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
        assert np.abs(dense_exchange(spins, [(0, 1)], 1.0) - built).max() < 1e-12

    def test_bond_rejects_same_site(self):
        b = ProductBasis([1, 1])
        with pytest.raises(ValueError):
            heisenberg_matrix(b, [(0, 1), (1, 1)])

    def test_mixed_ring_matches_dense_kron(self):
        # several bonds and a non-unit coupling, in the full space and in
        # every Sz sector (rows/columns of the kron sum picked by full index)
        spins = [1, 2, 3, 2]
        bonds = [(0, 1), (1, 2), (2, 3), (3, 0)]
        dense = dense_exchange(spins, bonds, 0.7)
        for two_m in [None] + sector_two_m_values(spins):
            b = ProductBasis(spins, two_m)
            mat = heisenberg_matrix(b, bonds, 0.7)
            assert mat.nnz == np.count_nonzero(mat.data)
            block = dense[np.ix_(b.full_index, b.full_index)]
            assert np.abs(mat.toarray() - block).max() < 1e-12

    def test_field_term_z(self):
        b = ProductBasis([1, 1], 0)
        op = field_term(b, 0, [0.0, 0.0, 2.0])
        assert np.allclose(np.diag(op.toarray()), [1.0, -1.0])

    def test_field_term_transverse_rejected_on_sector(self):
        b = ProductBasis([1, 1], 0)
        with pytest.raises(ValueError):
            field_term(b, 0, [1.0, 0.0, 0.0])

    def test_field_term_x_matches_local(self):
        b = ProductBasis([3])
        op = field_term(b, 0, [1.0, 0.0, 0.0])
        assert op.dtype == np.float64
        assert np.abs(op.toarray() - local_spin_matrices(3).sx).max() < 1e-12

    def test_field_term_y_complex_hermitian(self):
        b = ProductBasis([1, 1])
        op = field_term(b, 0, [0.5, 0.7, -0.2])
        assert op.dtype == np.complex128
        dense = op.toarray()
        assert np.abs(dense - dense.conj().T).max() < 1e-12

    def test_field_term_rejects_bad_vector(self):
        b = ProductBasis([1])
        with pytest.raises(ValueError):
            field_term(b, 0, [1.0, 0.0])
        with pytest.raises(ValueError):
            field_term(b, 0, [np.inf, 0.0, 0.0])

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

    def test_sz_diagonal(self):
        b = ProductBasis([2])
        assert np.allclose(sz_diagonal(b, 0), [1.0, 0.0, -1.0])

    def test_operator_add_and_scale(self):
        b = ProductBasis([1, 1])
        op = bond_operator(b, 0, 1)
        two = op + op
        assert np.abs(two.toarray() - bond_operator(b, 0, 1, 2.0).toarray()).max() < 1e-14
