"""Ground-state and low-spectrum solvers.

``ground_state`` picks its route from the sector dimension.  Blocks up to
``LANCZOS_CROSSOVER`` go to LAPACK, which is asked for the two lowest pairs
only; larger blocks go to one ARPACK call (``eigsh``) for the two lowest
pairs from a seeded start vector, so on either route a degenerate ground level
has gap 0.  ``lanczos_ground`` serves the chain solver's warm-started,
field-shifted solves.  ``dense_spectrum`` (capped at ``DENSE_LIMIT``) gives
whole spectra and is the oracle the tests hold both routes to.
``sectored_ground_state`` solves the lowest total-Sz sector only, 2M = 0 or 1,
which holds every level of the isotropic exchange once; a ground level with
<S^2> > 3/8 (S >= 1/2) has members in other sectors and is reported
degenerate.  <S^2> comes from the ladder identity S^2 = S- S+ + Sz(Sz + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hamiltonians import SpinSystem, build_hamiltonian
from .operators import SparseHermitianOperator, raising

DENSE_LIMIT = 8192  # largest matrix dense_spectrum makes dense
# ground_state solves larger sectors by one eigsh call.  Partial LAPACK vs
# eigsh, best of 15 (2-vCPU Xeon, one BLAS thread): dim 210 1.7 vs 1.9 ms, 252
# 3.4 vs 2.7 ms, 330 5.7 vs 3.4 ms; the goldens pin the route of each sector
LANCZOS_CROSSOVER = 340
DEGENERACY_TOL = 1e-9
DEFAULT_TOL = 1e-10
MAX_RESTARTS = 40  # Lanczos sweeps before lanczos_ground gives up
DEFAULT_SEED = 42


class SolverError(RuntimeError):
    """Raised when a solve fails: an eigensolve that does not converge, or an
    arc none of whose SCF branches converges.  Carries a diagnostics dict."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class GroundStateResult:
    """Lowest eigenpair plus spectral diagnostics."""

    energy: float
    vector: np.ndarray
    gap: float
    degenerate: bool
    s_squared: float | None = None  # <S^2>, set by sectored_ground_state


def refuse_dense(dim: int) -> None:
    """SolverError if a dim x dim matrix is above DENSE_LIMIT."""
    if dim > DENSE_LIMIT:
        raise SolverError(f"dimension {dim} exceeds dense limit "
                          f"{DENSE_LIMIT}; sector-block the operator first")


def dense_spectrum(mat) -> np.ndarray:
    """Full ascending spectrum via LAPACK of a Hermitian matrix, dense or
    sparse; refuses dimensions above DENSE_LIMIT before densifying.  LAPACK
    works in place on one C-ordered dense copy, read as the upper triangle of
    its transpose: a Fortran-ordered view, which LAPACK need not copy again."""
    refuse_dense(mat.shape[0])
    a = mat.toarray() if hasattr(mat, "toarray") else np.array(mat)
    return scipy.linalg.eigvalsh(a.T, lower=False, overwrite_a=True)


def degenerate_with(e0: float, e, unit: float = 1.0):
    """True where the level(s) e lie in the degeneracy window of e0:
    DEGENERACY_TOL times the larger of |e0| and the energy unit, |J| for a
    system, so that the outcome does not depend on the scale of J; inclusive,
    so e0 is in its own level where the window underflows (subnormal J)."""
    return np.asarray(e) - e0 <= DEGENERACY_TOL * max(unit, abs(e0))


def lowest_level(mat: np.ndarray, unit: float = 1.0):
    """Lowest level of a dense Hermitian block: (e0, e1, manifold).

    LAPACK is asked for the two lowest pairs; only when they share one
    degeneracy window is the full spectrum computed, so that the columns of
    `manifold` span the whole level.  e1 is the second-lowest eigenvalue
    (inf for a 1x1 block).  `unit` scales the window (``degenerate_with``).
    """
    if mat.shape[0] == 1:
        return float(np.real(mat[0, 0])), np.inf, np.ones((1, 1))
    vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[0, 1])
    if degenerate_with(vals[0], vals[1], unit):
        vals, vecs = scipy.linalg.eigh(mat)
    level = degenerate_with(vals[0], vals, unit)
    return float(vals[0]), float(vals[1]), vecs[:, level]


def select_in_manifold(manifold: np.ndarray, selector):
    """(s, v): the state v of the level spanned by `manifold` minimizing
    s = <v|S|v>, from the lowest eigenpair of V^dagger S V, so independent of
    the basis V holds.  The selector S is a matrix or a diagonal."""
    diagonal = np.ndim(selector) == 1
    block = manifold.conj().T @ (selector[:, None] * manifold if diagonal
                                 else selector @ manifold)
    # halved first so the sum cannot overflow; for normal floats, same bits
    vals, vecs = scipy.linalg.eigh(block / 2.0 + block.conj().T / 2.0)
    return float(vals[0]), manifold @ vecs[:, 0]


def lanczos_ground(op: SparseHermitianOperator,
                   seed: int = DEFAULT_SEED,
                   v0: np.ndarray | None = None,
                   shift: np.ndarray | None = None, unit: float = 1.0):
    """Lowest eigenpair by restarted Lanczos with full reorthogonalization.

    `shift` is a diagonal added to the operator inside the matrix-vector
    product, so a field-dressed block needs no new matrix.  Every 8 steps, at
    a sweep's end and on an exhausted Krylov space, a checkpoint returns the
    lowest Ritz pair if its residual is below DEFAULT_TOL·max(unit, |theta|),
    the unit |J| for a system; a full sweep restarts from that Ritz vector.
    Returns (values, vectors, iterations): one value and one column.  Raises
    SolverError, with the last Ritz residual estimate, on non-convergence.
    """
    n, mat = op.dim, op.matrix
    if n < 1:
        raise SolverError("empty operator")
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
    v0 = v0 / np.linalg.norm(v0)

    m = min(300, n)  # Krylov vectors per restart
    V = np.empty((m, n), dtype=mat.dtype)
    alphas, betas = np.empty(m), np.empty(m)
    scale, resid = unit, np.inf
    for sweep in range(MAX_RESTARTS):
        V[0] = v0
        for j in range(m):
            w = mat @ V[j]
            if shift is not None:
                w += shift * V[j]
            alphas[j] = a = np.real(np.vdot(V[j], w))
            w = w - a * V[j]
            if j > 0:
                w = w - betas[j - 1] * V[j - 1]
            for _ in range(2):  # full reorthogonalization, two passes
                w -= V[:j + 1].T @ (V[:j + 1].conj() @ w)
            betas[j] = b = np.linalg.norm(w)
            scale = max(scale, abs(a), b)
            exhausted = b <= 1e-14 * scale  # <=: the zero operator has scale 0
            if exhausted or j + 1 == m or (j + 1) % 8 == 0:
                theta, S = scipy.linalg.eigh_tridiagonal(alphas[:j + 1],
                                                         betas[:j])
                resid = abs(b * S[j, 0])
                if exhausted or resid < DEFAULT_TOL * max(unit, abs(theta[0])):
                    vecs = (S[:, :1].T @ V[:j + 1]).T
                    vecs[:, 0] /= np.linalg.norm(vecs[:, 0])  # near 1 already
                    return theta[:1], vecs, sweep * m + j + 1
            if j + 1 < m:
                V[j + 1] = w / b
        v0 = S[:, 0] @ V  # restart from the lowest Ritz vector
        v0 /= np.linalg.norm(v0)
    raise SolverError(
        "Lanczos failed to converge",
        {"dim": n, "iterations": MAX_RESTARTS * m, "residual": float(resid),
         "tol": DEFAULT_TOL, "restarts": MAX_RESTARTS})


def ground_state(op: SparseHermitianOperator, seed: int = DEFAULT_SEED,
                 unit: float = 1.0) -> GroundStateResult:
    """Lowest eigenpair and gap of a single operator (no sector blocking here).

    Dense up to LANCZOS_CROSSOVER; above it one eigsh call from a seeded v0,
    never ARPACK's own generator.  A failed call raises SolverError.  `unit`
    scales the degeneracy window (``degenerate_with``).
    """
    if op.dim <= LANCZOS_CROSSOVER:
        e0, e1, manifold = lowest_level(op.matrix.toarray(), unit)
        vec = manifold[:, 0]
    else:
        # imported here: at module level it costs ~27 ms a process (2-vCPU Xeon)
        import scipy.sparse.linalg as sla
        v0 = np.random.default_rng(seed).standard_normal(op.dim)
        try:
            vals, vecs = sla.eigsh(op.matrix, k=2, which="SA", tol=0, v0=v0)
        except sla.ArpackError as exc:  # ArpackNoConvergence included
            raise SolverError(f"eigsh failed: {exc}", {
                "dim": op.dim, "converged": len(getattr(exc, "eigenvalues", ()))
            }) from exc
        (e0, e1), vec = vals.tolist(), vecs[:, 0]
    return GroundStateResult(e0, vec, e1 - e0,
                             bool(degenerate_with(e0, e1, unit)))


def sectored_ground_state(system: SpinSystem,
                          seed: int = DEFAULT_SEED) -> GroundStateResult:
    """Global ground state of a system's Hamiltonian from one total-Sz sector.

    The exchange is isotropic, so a level of total spin S has one member in
    every sector with |M| <= S, and the lowest sector, 2M = sum(2s) mod 2,
    holds every level once.  Only that sector is solved.  Its ground vector
    psi gives <S^2> = M(M+1) + |S+ psi|^2; above 3/8 (S >= 1/2) the level has
    2S + 1 members across the sectors and is reported degenerate with gap 0.
    Otherwise the in-sector second level is the global first excited level.
    """
    two_m = sum(system.site_two_s) % 2
    op = build_hamiltonian(system, two_m)
    r = ground_state(op, seed=seed, unit=abs(system.coupling))
    up = raising(op.basis, range(system.n_sites)) @ r.vector
    s_sq = two_m * (two_m + 2) / 4 + float(np.vdot(up, up).real)
    multiplet = s_sq > 3 / 8
    return GroundStateResult(r.energy, r.vector, 0.0 if multiplet else r.gap,
                             multiplet or r.degenerate, s_sq)
