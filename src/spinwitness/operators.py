"""Spin-s operator algebra, product-space bookkeeping and sparse Hermitian operators.

Spin lengths are stored as the integer 2s throughout, so half-integer spins
stay exact.  Product-basis states are ordered lexicographically in the local
magnetic quantum numbers, site 0 slowest, with m descending on each site
(local index 0 is m = +s).  A basis may be restricted to a total-Sz sector;
the restriction is only legal for operators that commute with total Sz.
The one exception, the ladder operator S+ of ``raising``, leaves the sector
and so maps a basis into the full product space.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

# largest product space a basis enumerates; the largest configs/ system, the
# Cr7Mn ring (seven spins 3/2 and one 5/2), has 98304 states
MAX_PRODUCT_DIM = 2**20


def parse_spin(value) -> int:
    """Convert a spin length (int, float, Fraction or string like "3/2") to 2s."""
    if isinstance(value, str):
        value = Fraction(value)
    two_s = Fraction(value) * 2
    if two_s.denominator != 1 or two_s < 0:
        raise ValueError(f"invalid spin length {value!r}: need a non-negative multiple of 1/2")
    return int(two_s)


def spin_str(two_s: int) -> str:
    """Human-readable spin length for 2s (e.g. 3 -> "3/2")."""
    return str(two_s // 2) if two_s % 2 == 0 else f"{two_s}/2"


def product_dim(site_two_s) -> int:
    """Dimension of the product space, exact in Python integers; ValueError
    above MAX_PRODUCT_DIM."""
    dim = math.prod(int(t) + 1 for t in site_two_s)
    if dim > MAX_PRODUCT_DIM:
        raise ValueError(f"product space above {MAX_PRODUCT_DIM} states")
    return dim


def _raising_coeff(two_s: int) -> np.ndarray:
    """c[idx] = <idx-1| s+ |idx> for local index idx = s - m (0 invalid, kept 0)."""
    s = two_s / 2.0
    m = s - np.arange(two_s + 1)
    c = np.zeros(two_s + 1)
    c[1:] = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    return c


class ProductBasis:
    """Tensor-product basis of a chain of spins, optionally restricted to a Sz sector.

    Parameters
    ----------
    site_two_s : sequence of int
        2s for each site.
    sector_two_m : int or None
        If given, keep only states with sum_i 2m_i == sector_two_m.
    """

    def __init__(self, site_two_s, sector_two_m: int | None = None):
        self.site_two_s = tuple(int(t) for t in site_two_s)
        if any(t < 0 for t in self.site_two_s):
            raise ValueError("spin lengths must be non-negative")
        self.n_sites = len(self.site_two_s)
        self.total_dim = product_dim(self.site_two_s)
        self.sector_two_m = sector_two_m
        dims = tuple(t + 1 for t in self.site_two_s)
        # strides of the full-space index, site 0 slowest
        self._strides = self.total_dim // np.cumprod(dims, dtype=np.int64)

        # in C order the row of a local-index tuple is its full-space index
        states = np.indices(dims, dtype=np.int64).reshape(
            self.n_sites, self.total_dim).T
        full = np.arange(self.total_dim, dtype=np.int64)
        if sector_two_m is not None:
            lowered = sum(self.site_two_s) - sector_two_m  # 2 * sum of indices
            if lowered % 2 != 0:
                raise ValueError("sector 2M has wrong parity for these spins")
            full = np.flatnonzero(states.sum(axis=1) == lowered // 2)
            states = states[full]
        self.states = states
        self.full_index = full
        self.dim = len(full)
        # two_m per site of each kept state, used by diagonal builders
        self.two_m = np.array(self.site_two_s, dtype=np.int64) - 2 * states

    def position_of_full(self, full_index: np.ndarray) -> np.ndarray:
        """Map full-space indices to positions in this basis (must be present)."""
        if self.sector_two_m is None:
            return full_index
        pos = np.searchsorted(self.full_index, full_index)
        if np.any(pos >= self.dim) or np.any(self.full_index[pos] != full_index):
            raise KeyError("state not in sector")
        return pos

    def permuted(self, site_map) -> np.ndarray:
        """Full-space index of each state with the content of site i moved to
        site site_map[i]."""
        return self.states @ self._strides[list(site_map)]

    def sectors(self) -> list:
        """(2M, positions) of each total-Sz sector of this basis, ascending in
        2M; the positions keep the state order of ProductBasis(site_two_s, 2M),
        so a sector block of an operator on this basis is M[idx][:, idx]."""
        total = self.two_m.sum(axis=1)
        return [(t, np.flatnonzero(total == t)) for t in np.unique(total).tolist()]


def symmetry_orbits(basis: ProductBasis, rotations, reflections=()):
    """Orbits of the states of a full (unrestricted) basis under the site maps
    T^r = rotations[r] and T^r P = reflections[r] (``hamiltonians.site_maps``).

    Returns (reps, images): the representatives, the lowest index of each
    orbit, ascending; and images[f, r, i], the index of T^r P^f |reps[i]>
    (f = 1 only with reflections).  The maps are taken one at a time with a
    running minimum, each after the first of a list as one gather by T.  The
    maps conserve Sz, so an orbit lies in one sector.
    """
    if basis.sector_two_m is not None:
        raise ValueError("symmetry orbits need the full product basis")
    step = basis.permuted(rotations[1]) if rotations[1:] else None
    firsts = [np.arange(basis.dim)] + [basis.permuted(m) for m in reflections[:1]]

    def walk(starts):
        """The images under T^r of `starts`, for r = 0, 1, ..."""
        for image in starts:
            yield image
            for _ in rotations[1:]:
                image = step[image]
                yield image

    rep = np.arange(basis.dim)
    for image in walk(firsts):
        np.minimum(rep, image, out=rep)
    reps = np.flatnonzero(rep == np.arange(basis.dim))
    images = np.array(list(walk(first[reps] for first in firsts)))
    return reps, images.reshape(len(firsts), len(rotations), reps.size)


class SparseHermitianOperator:
    """A Hermitian matrix (CSR) paired with the ProductBasis it acts on."""

    def __init__(self, basis: ProductBasis, matrix: sp.spmatrix):
        self.basis = basis
        self.matrix = sp.csr_matrix(matrix)
        if self.matrix.shape != (basis.dim, basis.dim):
            raise ValueError("matrix shape does not match basis dimension")

    @property
    def dim(self) -> int:
        return self.basis.dim


def _flipflop_entries(basis: ProductBasis, i: int, j: int):
    """COO entries of (1/2)(s+_i s-_j + s-_i s+_j); Sz-conserving for i != j."""
    idx = basis.states
    ci = _raising_coeff(basis.site_two_s[i])
    cj = _raising_coeff(basis.site_two_s[j])
    # s+_i s-_j |state>: idx_i -> idx_i - 1, idx_j -> idx_j + 1
    mask = (idx[:, i] > 0) & (idx[:, j] < basis.site_two_s[j])
    src = np.nonzero(mask)[0]
    vals = 0.5 * ci[idx[src, i]] * cj[idx[src, j] + 1]
    tgt_full = (basis.full_index[src]
                - basis._strides[i] + basis._strides[j])
    tgt = basis.position_of_full(tgt_full)
    rows = np.concatenate([tgt, src])
    cols = np.concatenate([src, tgt])
    return rows, cols, np.concatenate([vals, vals])


def heisenberg_matrix(basis: ProductBasis, bonds) -> sp.csr_matrix:
    """Sum over bonds (i, j) of s_i . s_j, assembled in one COO pass.

    Explicit zeros are dropped, so the sparsity matches the exact operator;
    an empty bond list gives the zero matrix.
    """
    diag = np.zeros(basis.dim)
    entries = []
    for i, j in bonds:
        if i == j:
            raise ValueError("bond needs two distinct sites")
        entries.append(_flipflop_entries(basis, i, j))
        diag += basis.two_m[:, i] * basis.two_m[:, j] / 4.0  # sz_i sz_j
    idx = np.arange(basis.dim)
    rows, cols, vals = (np.concatenate(parts)
                        for parts in zip((idx, idx, diag), *entries))
    mat = sp.coo_matrix((vals, (rows, cols)),
                        shape=(basis.dim, basis.dim)).tocsr()
    mat.eliminate_zeros()
    return mat


def raising(basis: ProductBasis, sites) -> sp.csr_matrix:
    """S+ = sum over `sites` of s+_i from the basis into the full product
    space: a (total_dim x dim) CSR matrix whose rows are full-space indices."""
    rows, cols, vals = [], [], []
    for i in sites:
        src = np.nonzero(basis.states[:, i] > 0)[0]
        rows.append(basis.full_index[src] - basis._strides[i])
        cols.append(src)
        vals.append(_raising_coeff(basis.site_two_s[i])[basis.states[src, i]])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.total_dim, basis.dim)).tocsr()
