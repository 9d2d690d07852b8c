"""Ground-state and low-spectrum solvers.

``ground_state`` picks its route from the sector dimension.  Blocks up to
``LANCZOS_CROSSOVER`` go to LAPACK, which is asked for the two lowest pairs
only; larger blocks go to a restarted Lanczos iteration with full
reorthogonalization and a seeded start vector.  On the Lanczos route the gap
comes from a second, deflated solve kept orthogonal to the converged ground
vector, so a degenerate ground level reappears in that complement and is
reported with gap 0.  ``dense_spectrum`` (capped at ``DENSE_LIMIT``) gives
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
# ground_state solves larger sectors by Lanczos.  Measured break-even of the
# partial LAPACK solve against the two Lanczos solves: between dim 336 and
# 357 (2-vCPU Xeon, one BLAS thread)
LANCZOS_CROSSOVER = 340
DEGENERACY_TOL = 1e-9
DEFAULT_TOL = 1e-10
MAX_RESTARTS = 40  # Lanczos sweeps before lanczos_ground gives up
DEFAULT_SEED = 42


class SolverError(RuntimeError):
    """Raised when an eigensolve fails to converge; carries diagnostics."""

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
    iterations: int
    s_squared: float | None = None  # <S^2>, set by sectored_ground_state


def dense_spectrum(mat) -> np.ndarray:
    """Full ascending spectrum via LAPACK of a sparse Hermitian matrix;
    refuses dimensions above DENSE_LIMIT before densifying."""
    if mat.shape[0] > DENSE_LIMIT:
        raise SolverError(f"dimension {mat.shape[0]} exceeds dense limit "
                          f"{DENSE_LIMIT}; sector-block the operator first")
    if mat.shape[0] == 0:
        return np.array([])
    return scipy.linalg.eigvalsh(mat.toarray())


def degenerate_with(e0: float, e):
    """True where the level(s) e lie in the degeneracy window of e0."""
    return np.asarray(e) - e0 < DEGENERACY_TOL * max(1.0, abs(e0))


def lowest_level(mat: np.ndarray):
    """Lowest level of a dense Hermitian block: (e0, e1, manifold).

    LAPACK is asked for the two lowest pairs; only when they share one
    degeneracy window is the full spectrum computed, so that the columns of
    `manifold` span the whole level.  e1 is the second-lowest eigenvalue
    (inf for a 1x1 block).
    """
    if mat.shape[0] == 1:
        return float(np.real(mat[0, 0])), np.inf, np.ones((1, 1))
    vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[0, 1])
    if degenerate_with(vals[0], vals[1]):
        vals, vecs = scipy.linalg.eigh(mat)
    level = degenerate_with(vals[0], vals)
    return float(vals[0]), float(vals[1]), vecs[:, level]


def select_in_manifold(manifold: np.ndarray, selector):
    """(s, v): the state v of the level spanned by `manifold` minimizing
    s = <v|S|v>, from the lowest eigenpair of V^dagger S V, so independent of
    the basis V holds.  The selector S is a matrix or a diagonal."""
    diagonal = np.ndim(selector) == 1
    block = manifold.conj().T @ (selector[:, None] * manifold if diagonal
                                 else selector @ manifold)
    vals, vecs = scipy.linalg.eigh((block + block.conj().T) / 2.0)
    return float(vals[0]), manifold @ vecs[:, 0]


def lanczos_ground(op: SparseHermitianOperator,
                   seed: int = DEFAULT_SEED,
                   v0: np.ndarray | None = None,
                   lock: np.ndarray | None = None,
                   shift: np.ndarray | None = None):
    """Lowest eigenpair by restarted Lanczos with full reorthogonalization.

    `shift` is a diagonal added to the operator inside the matrix-vector
    product, so a field-dressed block needs no new matrix.  `lock` holds
    orthonormal columns that the Krylov basis is kept orthogonal to; the
    pair returned is then that of the operator restricted to their
    complement.  The Krylov basis takes its dtype from the matrix.  Returns
    (values, vectors, iterations): one value and one column.  Raises
    SolverError, with the last Ritz residual estimate, on non-convergence.
    """
    n = op.dim
    mat = op.matrix
    n_free = n - (0 if lock is None else lock.shape[1])
    if n_free < 1:
        raise SolverError("empty operator")
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
    if lock is not None:
        v0 = v0 - lock @ (lock.conj().T @ v0)
    v0 = v0 / np.linalg.norm(v0)

    m = min(300, n_free)  # Krylov vectors per restart
    total_iter = 0
    scale = 1.0
    resid = np.array([np.inf])
    for restart in range(MAX_RESTARTS):
        V = np.empty((m, n), dtype=mat.dtype)
        alphas = np.empty(m)
        betas = np.empty(m)
        V[0] = v0
        j_end = m
        exhausted = False
        for j in range(m):
            w = mat @ V[j]
            if shift is not None:
                w += shift * V[j]
            a = np.real(np.vdot(V[j], w))
            alphas[j] = a
            w = w - a * V[j]
            if j > 0:
                w = w - betas[j - 1] * V[j - 1]
            # full reorthogonalization, two passes
            for _ in range(2):
                coeffs = V[:j + 1].conj() @ w
                w = w - V[:j + 1].T @ coeffs
                if lock is not None:
                    w = w - lock @ (lock.conj().T @ w)
            b = np.linalg.norm(w)
            betas[j] = b
            total_iter += 1
            scale = max(scale, abs(a), b)
            if b < 1e-14 * scale:
                j_end = j + 1
                exhausted = True
                break
            # periodic Ritz-residual check to stop the sweep early
            if j + 1 >= 6 and (j + 1) % 8 == 0:
                th = scipy.linalg.eigh_tridiagonal(
                    alphas[:j + 1], betas[:j], select="i",
                    select_range=(0, 0), eigvals_only=False)
                if np.all(np.abs(b * th[1][j, :]) <
                          DEFAULT_TOL * max(1.0, abs(th[0][0]))):
                    j_end = j + 1
                    break
            if j + 1 < m:
                V[j + 1] = w / b
        else:
            j_end = m
        nv = j_end
        T_a = alphas[:nv]
        T_b = betas[:nv - 1] if nv > 1 else np.array([])
        theta, S = scipy.linalg.eigh_tridiagonal(T_a, T_b)
        if exhausted:
            resid = np.zeros(1)
        else:
            resid = np.abs(betas[nv - 1] * S[nv - 1, :1])
        ritz_scale = max(1.0, float(np.abs(theta[0])))
        if exhausted or np.all(resid < DEFAULT_TOL * ritz_scale):
            vecs = (S[:, :1].T @ V[:nv]).T
            # re-normalize (reorthogonalization keeps this near 1)
            vecs[:, 0] /= np.linalg.norm(vecs[:, 0])
            return theta[:1], vecs, total_iter
        # restart from the lowest Ritz vector
        v0 = (S[:, 0].T @ V[:nv])
        v0 = v0 / np.linalg.norm(v0)
    raise SolverError(
        "Lanczos failed to converge",
        {"dim": n, "iterations": total_iter, "residual": float(resid[0]),
         "tol": DEFAULT_TOL, "restarts": MAX_RESTARTS})


def ground_state(op: SparseHermitianOperator,
                 seed: int = DEFAULT_SEED) -> GroundStateResult:
    """Lowest eigenpair and gap of a single operator (no sector blocking here).

    Dense up to LANCZOS_CROSSOVER, Lanczos above.
    """
    if op.dim <= LANCZOS_CROSSOVER:
        e0, e1, manifold = lowest_level(op.matrix.toarray())
        vec, iters = manifold[:, 0], 0
    else:
        vals, vecs, iters = lanczos_ground(op, seed=seed)
        e0, vec = float(vals[0]), vecs[:, 0]
        # the second level is the lowest one left in the complement of the
        # ground vector; a degenerate e0 reappears there.  The start vector
        # needs a fresh seed: the first one has no component along the
        # degenerate partners once the ground vector is projected out
        vals, _, iters1 = lanczos_ground(op, seed=seed + 1, lock=vecs)
        e1 = float(vals[0])
        iters += iters1
    # the deflated e1 can undershoot e0 by rounding
    return GroundStateResult(e0, vec, max(e1 - e0, 0.0),
                             bool(degenerate_with(e0, e1)), iters)


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
    r = ground_state(op, seed=seed)
    up = raising(op.basis, range(system.n_sites)) @ r.vector
    s_sq = two_m * (two_m + 2) / 4 + float(np.vdot(up, up).real)
    multiplet = s_sq > 3 / 8
    return GroundStateResult(r.energy, r.vector, 0.0 if multiplet else r.gap,
                             multiplet or r.degenerate, r.iterations, s_sq)
