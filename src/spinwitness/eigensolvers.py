"""Ground-state and low-spectrum solvers.

``ground_state`` picks its route from the sector dimension.  Blocks up to
``LANCZOS_CROSSOVER`` go to LAPACK, which is asked for the two lowest pairs
only; larger blocks go to a restarted Lanczos iteration with full
reorthogonalization and a seeded start vector.  On the Lanczos route the gap
comes from a second, deflated solve kept orthogonal to the converged ground
vector, so a degenerate ground level reappears in that complement and is
reported with gap 0.  ``dense_spectrum`` (capped at ``DENSE_LIMIT``) is the
full-spectrum oracle the tests hold both routes to.  Sector-blocked solving
takes the global minimum over total-Sz sectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import SparseHermitianOperator

DENSE_LIMIT = 4096  # cap of the dense_spectrum oracle
# ground_state solves larger sectors by Lanczos.  Measured break-even of the
# partial LAPACK solve against the two Lanczos solves: between dim 336 and
# 357 (2-vCPU Xeon, one BLAS thread)
LANCZOS_CROSSOVER = 340
SECTOR_DENSE_LIMIT = 8192
DEGENERACY_TOL = 1e-9
DEFAULT_TOL = 1e-10
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
    residual: float
    sector_two_m: int | None = None


def dense_spectrum(op: SparseHermitianOperator,
                   limit: int = DENSE_LIMIT) -> np.ndarray:
    """Full ascending spectrum via LAPACK; refuses dimensions above `limit`."""
    if op.dim > limit:
        raise SolverError(f"dimension {op.dim} exceeds dense limit {limit}; "
                          "sector-block the operator first")
    if op.dim == 0:
        return np.array([])
    return scipy.linalg.eigvalsh(op.to_dense())


def _dense_lowest(op: SparseHermitianOperator, k: int = 2,
                  lock: np.ndarray | None = None):
    """Lowest k eigenpairs by LAPACK, in the complement of `lock` if given."""
    mat = op.to_dense()
    basis = None
    if lock is not None:
        basis = scipy.linalg.null_space(lock.conj().T)
        mat = basis.conj().T @ mat @ basis
    k = min(k, mat.shape[0])
    vals, vecs = scipy.linalg.eigh(mat, subset_by_index=[0, k - 1])
    if basis is not None:
        vecs = basis @ vecs
    return vals, vecs


def lanczos_ground(op: SparseHermitianOperator,
                   k: int = 2,
                   tol: float = DEFAULT_TOL,
                   seed: int = DEFAULT_SEED,
                   max_krylov: int = 300,
                   max_restarts: int = 40,
                   v0: np.ndarray | None = None,
                   lock: np.ndarray | None = None):
    """Lowest k eigenpairs by restarted Lanczos with full reorthogonalization.

    `lock` holds orthonormal columns that the Krylov basis is kept
    orthogonal to; the pairs returned are then those of the operator
    restricted to their complement.  Returns (values, vectors, iterations,
    residual) where residual is the Ritz residual estimate of the lowest
    pair.  Raises SolverError on non-convergence.
    """
    n = op.dim
    mat = op.matrix
    dtype = mat.dtype if not op.is_real else np.float64
    if n == 0:
        raise SolverError("empty operator")
    n_free = n - (0 if lock is None else lock.shape[1])
    if n_free <= max(8, k + 2):
        vals, vecs = _dense_lowest(op, k, lock)
        return vals, vecs, 0, 0.0
    k = min(k, n_free - 1)
    rng = np.random.default_rng(seed)
    if v0 is None:
        v0 = rng.standard_normal(n).astype(np.float64)
        if dtype == np.complex128:
            v0 = v0 + 1j * rng.standard_normal(n)
    if lock is not None:
        v0 = v0 - lock @ (lock.conj().T @ v0)
    v0 = v0 / np.linalg.norm(v0)

    m = min(max_krylov, n_free)
    total_iter = 0
    scale = 1.0
    resid = np.array([np.inf])
    for restart in range(max_restarts):
        V = np.empty((m, n), dtype=dtype)
        alphas = np.empty(m)
        betas = np.empty(m)
        V[0] = v0
        j_end = m
        exhausted = False
        for j in range(m):
            w = mat @ V[j]
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
            if j + 1 >= 2 * k + 4 and (j + 1) % 8 == 0:
                th = scipy.linalg.eigh_tridiagonal(
                    alphas[:j + 1], betas[:j], select="i",
                    select_range=(0, k - 1), eigvals_only=False)
                if np.all(np.abs(b * th[1][j, :]) <
                          tol * max(1.0, abs(th[0][0]))):
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
        kk = min(k, nv)
        if exhausted:
            resid = np.zeros(kk)
        else:
            resid = np.abs(betas[nv - 1] * S[nv - 1, :kk])
        ritz_scale = max(1.0, float(np.abs(theta[0])))
        if exhausted or np.all(resid < tol * ritz_scale):
            vecs = (S[:, :kk].T @ V[:nv]).T
            # re-normalize (reorthogonalization keeps this near 1)
            for c in range(kk):
                vecs[:, c] /= np.linalg.norm(vecs[:, c])
            res0 = float(resid[0]) if len(resid) else 0.0
            return theta[:kk], vecs, total_iter, res0
        # restart from the lowest Ritz vector
        v0 = (S[:, 0].T @ V[:nv])
        v0 = v0 / np.linalg.norm(v0)
    raise SolverError(
        "Lanczos failed to converge",
        {"dim": n, "iterations": total_iter, "residual": float(resid[0]),
         "tol": tol, "restarts": max_restarts})


def ground_state(op: SparseHermitianOperator,
                 method: str = "auto",
                 tol: float = DEFAULT_TOL,
                 seed: int = DEFAULT_SEED,
                 degeneracy_tol: float = DEGENERACY_TOL) -> GroundStateResult:
    """Lowest eigenpair and gap of a single operator (no sector blocking here).

    method: "auto" (dense up to LANCZOS_CROSSOVER, Lanczos above), "dense"
    or "lanczos".
    """
    if op.dim == 1:
        e = float(np.real(op.matrix[0, 0])) if op.matrix.nnz else 0.0
        return GroundStateResult(e, np.ones(1), np.inf, False, 0, 0.0)
    use_dense = method == "dense" or (method == "auto"
                                      and op.dim <= LANCZOS_CROSSOVER)
    if use_dense:
        vals, vecs = _dense_lowest(op, 2)
        e0, e1 = float(vals[0]), float(vals[1])
        vec = vecs[:, 0]
        iters, resid = 0, float(np.linalg.norm(op.matvec(vec) - e0 * vec))
    else:
        vals, vecs, iters, resid = lanczos_ground(op, k=1, tol=tol, seed=seed)
        e0, vec = float(vals[0]), vecs[:, 0]
        # the second level is the lowest one left in the complement of the
        # ground vector; a degenerate e0 reappears there.  The start vector
        # needs a fresh seed: the first one has no component along the
        # degenerate partners once the ground vector is projected out
        vals, _, iters1, _ = lanczos_ground(op, k=1, tol=tol, seed=seed + 1,
                                            lock=vecs)
        e1 = float(vals[0])
        iters += iters1
    # the deflated e1 can undershoot e0 by rounding
    gap = max(e1 - e0, 0.0)
    degenerate = gap < degeneracy_tol * max(1.0, abs(e0))
    return GroundStateResult(e0, vec, gap, degenerate, iters, resid)


def sectored_ground_state(op_factory,
                          two_m_values,
                          method: str = "auto",
                          tol: float = DEFAULT_TOL,
                          seed: int = DEFAULT_SEED,
                          degeneracy_tol: float = DEGENERACY_TOL,
                          use_flip_symmetry: bool = False) -> GroundStateResult:
    """Global ground state over total-Sz sectors.

    op_factory(two_m) must build the sector block.  With use_flip_symmetry
    (valid for undressed Heisenberg terms), only two_m >= 0 sectors are
    solved and negative sectors inherit their spectra.
    """
    entries = []  # (energy, sector, result-or-None)
    for two_m in two_m_values:
        if use_flip_symmetry and two_m < 0:
            continue
        op = op_factory(two_m)
        if op.dim == 0:
            continue
        r = ground_state(op, method=method, tol=tol, seed=seed,
                         degeneracy_tol=degeneracy_tol)
        mult = 2 if (use_flip_symmetry and two_m != 0) else 1
        for _ in range(mult):
            entries.append((r.energy, two_m, r))
            if np.isfinite(r.gap):
                entries.append((r.energy + r.gap, two_m, None))
    if not entries:
        raise SolverError("no non-empty sector")
    entries.sort(key=lambda e: e[0])
    e0 = entries[0][0]
    # the global minimum always carries a solved eigenpair; a tied gap entry
    # from another sector may sort first, so scan for it
    sector, best = next((s, r) for e, s, r in entries if r is not None and e == e0)
    gap = entries[1][0] - e0 if len(entries) > 1 else np.inf
    degenerate = gap < degeneracy_tol * max(1.0, abs(e0))
    return GroundStateResult(e0, best.vector, gap, degenerate,
                             best.iterations, best.residual, sector)
