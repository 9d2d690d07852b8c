"""Dense oracle, Lanczos iteration, the ARPACK route and sector-blocked ground
states."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from spinwitness import cli, eigensolvers
from spinwitness.eigensolvers import (
    DENSE_LIMIT,
    LANCZOS_CROSSOVER,
    SolverError,
    degenerate_with,
    dense_spectrum,
    ground_state,
    lanczos_ground,
    lowest_level,
    sectored_ground_state,
    select_in_manifold,
)
from spinwitness.hamiltonians import CHAIN, RING, SpinSystem, build_hamiltonian
from spinwitness.operators import (
    ProductBasis,
    SparseHermitianOperator,
    heisenberg_matrix,
)


def test_zero_operator_ground():
    basis = ProductBasis([1, 1])
    op = SparseHermitianOperator(basis, heisenberg_matrix(basis, []))
    r = ground_state(op)
    assert r.energy == 0.0
    assert abs(np.linalg.norm(r.vector) - 1.0) < 1e-12


def test_two_site_singlet_gap():
    system = SpinSystem.chain(2, "1/2")
    r = sectored_ground_state(system)
    assert abs(r.energy + 0.75) < 1e-12
    assert abs(r.gap - 1.0) < 1e-12
    assert not r.degenerate


def test_dense_limit_enforced():
    class NeverDense(sp.csr_matrix):
        def toarray(self, *args, **kwargs):
            raise AssertionError("densified a matrix above the cap")

    with pytest.raises(SolverError):
        dense_spectrum(NeverDense(sp.identity(DENSE_LIMIT + 1, format="csr")))


def test_degenerate_detection():
    op = build_hamiltonian(SpinSystem.ring(3, "1/2"))
    r = ground_state(op)
    assert r.degenerate


@pytest.mark.parametrize("system", [
    SpinSystem.ring(8, "1/2"),
    SpinSystem.ring(6, "1"),
    SpinSystem.chain(9, "1/2"),
    SpinSystem.chain(4, "3/2"),
    SpinSystem.from_spins("ring", ["3/2"] * 5 + ["1"]),
])
def test_lanczos_matches_dense(system):
    op = build_hamiltonian(system)
    e_dense = dense_spectrum(op.matrix)[0]
    vals, vecs, _ = lanczos_ground(op)
    assert abs(vals[0] - e_dense) < 1e-9
    v = vecs[:, 0]
    assert np.linalg.norm(op.matrix @ v - vals[0] * v) < 1e-8


def test_lanczos_deterministic():
    op = build_hamiltonian(SpinSystem.ring(8, "1/2"))
    a = lanczos_ground(op, seed=7)
    b = lanczos_ground(op, seed=7)
    assert a[0][0] == b[0][0]
    assert np.array_equal(a[1], b[1])


def test_variational_bound():
    op = build_hamiltonian(SpinSystem.ring(6, "1/2"))
    e0 = dense_spectrum(op.matrix)[0]
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.standard_normal(op.dim)
        v /= np.linalg.norm(v)
        assert v @ (op.matrix @ v) >= e0 - 1e-9


@st.composite
def spin_systems(draw):
    """Rings (N >= 3) and chains of N <= 8 mixed spins 1/2..2 with a product
    space of at most 1024 states."""
    topology = draw(st.sampled_from([RING, CHAIN]))
    n = draw(st.integers(3 if topology == RING else 2, 8))
    two_s, dim = [], 1
    for i in range(n):
        # leave room for spin 1/2 on every site still to draw
        room = 1024 // (dim * 2 ** (n - i - 1))
        two_s.append(draw(st.sampled_from([t for t in (1, 2, 3, 4) if t < room])))
        dim *= two_s[-1] + 1
    return SpinSystem(topology, tuple(two_s))


@settings(max_examples=60, deadline=None)
@given(spin_systems())
@example(SpinSystem.ring(6, "1/2"))
@example(SpinSystem.ring(4, "1"))
@example(SpinSystem.chain(5, "1"))
def test_sectored_matches_full_dense(system):
    """The lowest sector alone gives the dense full-space ground level: its
    energy, gap, degeneracy and an <S^2> of a state in it."""
    op = build_hamiltonian(system)
    full, vecs = np.linalg.eigh(op.matrix.toarray())
    level = vecs[:, degenerate_with(full[0], full)]
    r = sectored_ground_state(system)
    assert abs(r.energy - full[0]) < 1e-10
    assert abs(r.gap - (full[1] - full[0])) < 1e-8
    assert r.degenerate == (level.shape[1] > 1)
    # S^2 = sum_i s_i(s_i + 1) + 2 sum_{i<j} s_i . s_j
    n = system.n_sites
    pairs = 2.0 * heisenberg_matrix(op.basis, [(i, j) for i in range(n)
                                               for j in range(i + 1, n)])
    casimir = sum(t / 2 * (t / 2 + 1) for t in system.site_two_s)
    s2 = level.T @ (pairs @ level) + casimir * np.eye(level.shape[1])
    assert np.abs(np.linalg.eigvalsh(s2) - r.s_squared).min() < 1e-8


def test_flip_symmetry_consistent():
    # full_spectrum solves 2M >= 0 only and counts each 2M > 0 spectrum for
    # -2M as well; the negative sectors it skips must hold the same levels
    system = SpinSystem.ring(6, "1/2")
    for two_m in range(-6, 7, 2):
        a = ground_state(build_hamiltonian(system, two_m))
        b = ground_state(build_hamiltonian(system, -two_m))
        assert abs(a.energy - b.energy) < 1e-10
        assert a.gap == b.gap or abs(a.gap - b.gap) < 1e-8
    r = sectored_ground_state(system)
    full = dense_spectrum(build_hamiltonian(system).matrix)
    assert abs(r.energy - full[0]) < 1e-10
    assert abs(r.gap - (full[1] - full[0])) < 1e-8


def test_degenerate_ground_sector_flagged():
    # triangle ring: two degenerate doublets split across 2M = +/-1 sectors
    system = SpinSystem.ring(3, "1/2")
    r = sectored_ground_state(system)
    assert abs(r.energy + 0.75) < 1e-12
    assert r.degenerate


def test_lanczos_diagonal_invariant_subspace():
    # a diagonal operator exhausts the Krylov space early; must still converge
    basis = ProductBasis([3, 3])
    diag = np.arange(basis.dim, dtype=float)
    op = SparseHermitianOperator(basis, sp.diags(diag))
    vals, vecs, _ = lanczos_ground(op, seed=1)
    assert abs(vals[0] - 0.0) < 1e-9


def test_lanczos_zero_operator():
    # the first Lanczos vector is already an eigenvector
    op = SimpleNamespace(matrix=sp.csr_matrix((5, 5)), dim=5)
    vals, vecs, iterations = lanczos_ground(op)
    assert vals.tolist() == [0.0]
    assert iterations == 1
    assert abs(np.linalg.norm(vecs[:, 0]) - 1.0) < 1e-12


def test_lanczos_restart_converges():
    # a 1e-5 gap under a unit-wide band: one 300-vector sweep leaves the
    # lowest Ritz pair short of the tolerance, so the solve restarts from it
    mat = sp.diags(np.r_[0.0, 1e-5 + np.linspace(0, 1, 1999)]).tocsr()
    vals, vecs, iterations = lanczos_ground(
        SimpleNamespace(matrix=mat, dim=mat.shape[0]))
    assert iterations > 300
    assert abs(vals[0]) < 1e-9
    assert np.linalg.norm(mat @ vecs[:, 0] - vals[0] * vecs[:, 0]) < 1e-8


def test_lanczos_no_restarts_raises_solver_error(monkeypatch):
    monkeypatch.setattr(eigensolvers, "MAX_RESTARTS", 0)
    op = build_hamiltonian(SpinSystem.ring(8, "1/2"), 0)
    with pytest.raises(SolverError) as info:
        lanczos_ground(op)
    assert info.value.diagnostics["restarts"] == 0


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Dimensions of the operators passed to eigsh, call by call."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return eigsh(a, *args, **kwargs)

    monkeypatch.setattr(sla, "eigsh", counted)
    return calls


def _multiplicity(spectrum):
    return int(np.sum(degenerate_with(spectrum[0], spectrum)))


def test_lanczos_gap_never_negative(eigsh_calls):
    # N=11 ring, 2M=1: a twofold ground level, which the one eigsh call
    # returns as its two lowest values
    op = build_hamiltonian(SpinSystem.ring(11, "1/2"), 1)
    assert op.dim > LANCZOS_CROSSOVER
    r = ground_state(op)
    assert eigsh_calls == [op.dim]  # the ARPACK route ran, once
    assert r.gap >= 0.0
    assert r.degenerate
    assert _multiplicity(dense_spectrum(op.matrix)) == 2


@pytest.mark.parametrize("system, two_m", [
    (SpinSystem.ring(11, "1/2"), 1),
    (SpinSystem.ring(13, "1/2"), 1),
    (SpinSystem.chain(11, "1/2"), 1),
    (SpinSystem.ring(8, "1"), 0),
])
def test_lanczos_route_matches_dense_oracle(system, two_m):
    op = build_hamiltonian(system, two_m)
    assert op.dim > LANCZOS_CROSSOVER
    r = ground_state(op)
    spectrum = dense_spectrum(op.matrix)
    assert abs(r.energy - spectrum[0]) < 1e-9
    assert abs(r.gap - (spectrum[1] - spectrum[0])) < 1e-8
    assert r.degenerate == (_multiplicity(spectrum) > 1)


def test_odd_chain_kramers_doublet_across_sectors(eigsh_calls):
    # each of the 2M = +/-1 sectors (dim 462) holds one member of the
    # doublet; the 2M = 1 one is solved by eigsh, and <S^2> = 3/4 shows
    # the partner in 2M = -1
    system = SpinSystem.chain(11, "1/2")
    r = sectored_ground_state(system)
    assert eigsh_calls == [462]
    assert r.degenerate
    assert 0.0 <= r.gap < 1e-9
    assert abs(r.s_squared - 0.75) < 1e-8


def test_lanczos_sees_degenerate_n15_ring():
    # dim 6435 is above the dense oracle's cap; the level is twofold
    op = build_hamiltonian(SpinSystem.ring(15, "1/2"), 1)
    r = ground_state(op)
    assert r.degenerate
    assert r.gap < 1e-9


def test_arpack_route_deterministic():
    # seeded v0: an unrelated eigsh call in between leaves no trace
    op = build_hamiltonian(SpinSystem.ring(11, "1/2"), 1)
    a = ground_state(op, seed=7)
    other = build_hamiltonian(SpinSystem.chain(10, "1/2"), 0).matrix
    eigsh(other, k=3, which="SA")
    b = ground_state(op, seed=7)
    assert a.energy == b.energy and a.gap == b.gap
    assert np.array_equal(a.vector, b.vector)


def _no_convergence(*args, **kwargs):
    raise ArpackNoConvergence("ARPACK error -1: No convergence",
                              np.array([-1.0]), np.zeros((1, 1)))


def test_arpack_no_convergence_is_solver_error(monkeypatch):
    monkeypatch.setattr(sla, "eigsh", _no_convergence)
    op = build_hamiltonian(SpinSystem.ring(11, "1/2"), 1)
    with pytest.raises(SolverError) as info:
        ground_state(op)
    assert info.value.diagnostics == {"dim": op.dim, "converged": 1}


def test_arpack_no_convergence_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(sla, "eigsh", _no_convergence)
    config = Path(__file__).resolve().parent.parent / "configs" / "ferri_ring8_s1.yaml"
    assert cli.main(["ground", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "No convergence" in err
    assert 'diagnostics: {"converged": 1, "dim": 1639' in err


def test_lowest_level_matches_oracle_on_degenerate_level():
    # N=3 ring, 2M=1: the two chiral doublets give a twofold level in-sector
    op = build_hamiltonian(SpinSystem.ring(3, "1/2"), 1)
    spectrum = dense_spectrum(op.matrix)
    e0, e1, manifold = lowest_level(op.matrix.toarray())
    assert manifold.shape[1] == _multiplicity(spectrum) == 2
    assert abs(e0 - spectrum[0]) < 1e-12 and abs(e1 - spectrum[1]) < 1e-12
    assert np.allclose(manifold.T @ manifold, np.eye(2), atol=1e-12)
    assert np.linalg.norm(op.matrix @ manifold - e0 * manifold) < 1e-12


def test_lowest_level_nondegenerate_keeps_one_vector():
    op = build_hamiltonian(SpinSystem.ring(6, "1/2"), 0)
    e0, e1, manifold = lowest_level(op.matrix.toarray())
    spectrum = dense_spectrum(op.matrix)
    assert manifold.shape[1] == 1
    assert abs(e0 - spectrum[0]) < 1e-12 and abs(e1 - spectrum[1]) < 1e-12


@pytest.mark.parametrize("system, two_m", [
    (SpinSystem.chain(3, "1/2"), 1),   # dim 3: the Krylov space is exhausted
    (SpinSystem.ring(10, "1/2"), 0),   # dim 252: the Lanczos iteration
], ids=["small-dim", "lanczos"])
def test_lanczos_shift_matches_shifted_matrix(system, two_m):
    op = build_hamiltonian(system, two_m)
    d = np.random.default_rng(5).standard_normal(op.dim)
    vals, vecs, _ = lanczos_ground(op, shift=d)
    shifted = op.matrix.toarray() + np.diag(d)
    assert abs(vals[0] - np.linalg.eigvalsh(shifted)[0]) < 1e-9
    v = vecs[:, 0]
    assert np.linalg.norm(shifted @ v - vals[0] * v) < 1e-8


def test_selection_independent_of_manifold_basis():
    op = build_hamiltonian(SpinSystem.ring(3, "1/2"), 1)
    _, _, manifold = lowest_level(op.matrix.toarray())
    selector = (op.basis.two_m[:, 0] - op.basis.two_m[:, 1]) / 2.0
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
    s1, v1 = select_in_manifold(manifold, selector)
    s2, v2 = select_in_manifold(manifold[:, ::-1] @ q, selector)
    assert abs(s1 - s2) < 1e-12
    assert abs(abs(np.vdot(v1, v2)) - 1.0) < 1e-12
