"""Self-consistent minimization over biseparable states.

Two layers:

* ``boundary_map`` — the one-step map used to probe the fixed-point geometry
  with general (x-z plane) boundary fields.  This validates the reduction to
  collinear fields with equal boundary moduli.
* ``biseparable_minimum`` / ``biseparable_scan`` — the production solver:
  alternating minimization over product states, each half-cycle an exact
  dressed ground-state solve.  Fields are restricted to +/- z with the two
  boundary expectations of each subsystem tied by a sign eta = +/-1; both
  eta branches and a grid of starting moduli are scanned, and the
  exactly-decoupled candidate (all boundary expectations zero) is always
  included in the minimum.  That candidate is solved first, at zero field.
  Each segment solver keeps every Sz sector's lowest level at zero field
  and at the fields of its last solve.  The fields are diagonal, so by
  Weyl's inequality changing them from b' to b moves a sector's lowest
  level by at most sum_k |b_k - b'_k| s_k; later solves skip every sector
  whose bound from those two levels lies above the current minimum by the
  degeneracy window or more.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .eigensolvers import (
    DEFAULT_SEED,
    SolverError,
    degenerate_with,
    lanczos_ground,
    lowest_level,
    select_in_manifold,
)
from .hamiltonians import RING, Arc, SpinSystem, build_on_sites, cut
from .operators import ProductBasis, heisenberg_matrix, parse_spin, raising

ZERO_MODULUS = 1e-12
# The fixed-point search of every arc: alternating minimization from each
# INIT_GRID fraction of B's boundary spin, on both eta branches when the arc
# has two coupling pairs; a branch has converged once a cycle moves every
# boundary modulus by less than TOL
TOL = 1e-10
MAX_ITER = 10000
INIT_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
# The chain solver solves sectors up to this dimension densely.  Above it, it
# runs one Lanczos solve warm-started from the previous iterate's ground
# vector, cheaper than the cold two-pair eigsh call ground_state's
# LANCZOS_CROSSOVER is priced against, so its crossover is lower.
DENSE_DIM = 128


class ScfError(SolverError):
    """No self-consistent branch converged.

    A SolverError, so callers catch one failure type.  Carries a diagnostics
    summary: the branch count and each branch's last residual.
    """

    def __init__(self, message: str, branches=()):
        diagnostics = {"branches": len(branches),
                       "last_residuals": [float(b.residual) for b in branches]}
        super().__init__(message, diagnostics if branches else None)


@dataclass(frozen=True)
class BoundaryPair:
    """Expectation vectors of the two boundary spins of one subsystem.

    ``z`` belongs to the last site of the segment, ``zprime`` to the first,
    mirroring the (z_alpha, z_alpha') labelling of the dressed Hamiltonians.
    """

    z: np.ndarray
    zprime: np.ndarray


@dataclass(frozen=True)
class BoundaryGeometry:
    """Relative geometry of a boundary pair: angle, modulus difference, moduli."""

    theta: float
    modulus_diff: float
    moduli: tuple
    defined: bool


def boundary_geometry(pair: BoundaryPair) -> BoundaryGeometry:
    z = np.asarray(pair.z, dtype=float)
    zp = np.asarray(pair.zprime, dtype=float)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zp))):
        raise ValueError("boundary vectors must be finite")
    a, b = np.linalg.norm(z), np.linalg.norm(zp)
    # equal moduli differ only by rounding; report them as exactly equal
    diff = abs(a - b) if abs(a - b) >= ZERO_MODULUS else 0.0
    if a < ZERO_MODULUS or b < ZERO_MODULUS:
        return BoundaryGeometry(np.nan, diff, (a, b), False)
    c = float(np.clip(z @ zp / (a * b), -1.0, 1.0))
    return BoundaryGeometry(float(np.arccos(c)), diff, (a, b), True)


class CollinearChainSolver:
    """Ground states of the system's `sites`, each of `field_sites` dressed
    by the +/- z field of a neighbour outside them.

    Precomputes the Sz-sector blocks of the bare Hamiltonian (the bonds
    inside `sites`) and the diagonal sz operators of the field sites, so
    repeated solves during the fixed-point iteration only add diagonals.
    The product space is enumerated and assembled once and cut into its
    sectors by index (``ProductBasis.sectors``).  The sites need not be
    connected (the complement of a mid-chain arc is two pieces).
    """

    def __init__(self, system: SpinSystem, sites, field_sites, seed: int = DEFAULT_SEED):
        local = {site: k for k, site in enumerate(sites)}
        self.field_sites = tuple(local[s] for s in field_sites)
        self.field_spins = np.array([system.site_two_s[s] / 2.0 for s in field_sites])
        self.coupling = system.coupling
        self.seed = seed
        self.sectors = []
        op = build_on_sites(system, sites)
        basis, mat = op.basis, op.matrix
        for t, idx in basis.sectors():
            block = mat[idx][:, idx]
            sec = {"two_m": t,
                   "diags": [basis.two_m[idx, s] / 2.0 for s in self.field_sites]}
            if len(idx) <= DENSE_DIM:
                sec["dense"] = block.toarray()
            else:  # lanczos_ground reads only .matrix and .dim
                sec["op"] = SimpleNamespace(matrix=block, dim=len(idx))
                sec["v0"] = None
            self.sectors.append(sec)
        # each sector's lowest level at zero field, and at the fields b_last
        # of its last solve; -inf until solved, a bound that skips nothing
        self.floor = np.full(len(self.sectors), -np.inf)
        self.e_last = np.full(len(self.sectors), -np.inf)
        self.b_last = np.zeros((len(self.sectors), len(self.field_sites)))

    def ground(self, z_outside, select_coeffs=None):
        """Lowest dressed eigenstate over all sectors.

        z_outside: the <sz> z_k of each field site's neighbour across the
        cut, which dresses the field site with the field b_k = J z_k z_hat.
        select_coeffs: coefficients c_k resolving degenerate minima by
        minimizing sum_k c_k <sz_(field site k)> over the degenerate level
        (the infinitesimal-field limit of the upcoming fields).  Returns a
        dict with the dressed energy, the bare-Hamiltonian expectation and
        the per-field-site <sz> values.

        Each sector keeps its lowest level at zero field (its floor) and
        e_last at the fields b_last of its last solve.  Fields b and b'
        differ by the diagonal sum_k (b_k - b'_k) sz_k, of norm at most
        sum_k |b_k - b'_k| s_k, so by Weyl's inequality the sector's lowest
        level at fields b is at least
            max(floor - sum_k |b_k| s_k, e_last - sum_k |b_k - b_last,k| s_k).
        A call visits the sectors by ascending bound and stops at the first
        whose bound lies above the running minimum by the degeneracy window
        or more: it and every later sector hold neither the minimum nor a
        member of its level.  An unsolved sector's bound is -inf, so the
        first call solves every sector.
        """
        fields = self.coupling * np.array(z_outside, dtype=float)
        if len(fields) != len(self.field_sites):
            raise ValueError("one field value per field site required")
        unit = abs(self.coupling)
        bounds = np.maximum(
            self.floor - np.abs(fields) @ self.field_spins,
            self.e_last - np.abs(fields - self.b_last) @ self.field_spins)
        results = []
        best = np.inf
        for k in np.argsort(bounds, kind="stable"):
            if not degenerate_with(best, bounds[k], unit):
                break
            sec = self.sectors[k]
            shift = None
            for b, d in zip(fields, sec["diags"]):
                if b != 0.0:
                    shift = b * d if shift is None else shift + b * d
            if "dense" in sec:
                mat = sec["dense"]
                e0, _, manifold = lowest_level(
                    mat if shift is None else mat + np.diag(shift), unit)
            else:
                vals, manifold, _ = lanczos_ground(
                    sec["op"], seed=self.seed, v0=sec["v0"], shift=shift,
                    unit=unit)
                sec["v0"] = manifold[:, 0]
                e0 = float(vals[0])
            self.e_last[k], self.b_last[k] = e0, fields
            if shift is None:
                self.floor[k] = e0
            results.append((e0, sec, manifold))
            best = min(best, e0)
        results.sort(key=lambda r: r[1]["two_m"])
        e0 = best
        level = [(sec, m) for e, sec, m in results
                 if degenerate_with(e0, e, unit)]
        sec, manifold = level[0]
        vec = manifold[:, 0]
        if select_coeffs is not None and (len(level) > 1 or manifold.shape[1] > 1):
            picks = []
            for sec, manifold in level:
                selector = sum(c * d for c, d in zip(select_coeffs, sec["diags"]))
                value, v = select_in_manifold(manifold, selector)
                picks.append((round(value, 10), sec["two_m"], sec, v))
            _, _, sec, vec = min(picks, key=lambda p: p[:2])
        p = np.abs(vec) ** 2
        z_fields = [float(p @ d) for d in sec["diags"]]
        e_bare = e0 - sum(b * z for b, z in zip(fields, z_fields))
        return {"energy": e0, "e_bare": e_bare, "z_fields": z_fields}


def boundary_map(chain_spins, z_b, z_bprime) -> BoundaryPair:
    """One application of the boundary map on an open segment.

    Solves the ground state of H_chain + z_b . s_last + z_bprime . s_first
    (fields confined to the x-z plane; rotational symmetry of the isotropic
    exchange makes this lossless) and returns the expectation vectors of the
    boundary spins: BoundaryPair(z=<s_last>, zprime=<s_first>).  Each field
    is b_x (s+ + s-)/2 + b_z sz, and each spin is read as
    (Re <s+>, Im <s+>, <sz>), since <s+> = <sx> + i <sy>.
    """
    spins = [parse_spin(s) for s in chain_spins]
    z_b = np.asarray(z_b, dtype=float)
    z_bp = np.asarray(z_bprime, dtype=float)
    for v in (z_b, z_bp):
        if v.shape != (3,) or not np.all(np.isfinite(v)) or abs(v[1]) > ZERO_MODULUS:
            raise ValueError("boundary fields must be finite 3-vectors in the "
                             "x-z plane")
    basis = ProductBasis(spins)
    last = basis.n_sites - 1
    splus = {site: raising(basis, [site]) for site in (0, last)}
    sz = {site: basis.two_m[:, site] / 2.0 for site in (0, last)}
    chain = heisenberg_matrix(basis, [(k, k + 1) for k in range(last)])
    fields = sum(b[0] / 2.0 * (splus[site] + splus[site].T) + sp.diags(b[2] * sz[site])
                 for site, b in ((last, z_b), (0, z_bp)))
    _, _, manifold = lowest_level((chain + fields).toarray())
    vec = manifold[:, 0]
    if manifold.shape[1] > 1:
        # infinitesimal-field limit: minimize the field coupling inside the
        # degenerate manifold; fall back to +z on both edges at zero field
        if not (np.any(z_b) or np.any(z_bp)):
            fields = sz[0] + sz[last]
        _, vec = select_in_manifold(manifold, fields)
    p = np.abs(vec) ** 2

    def spin_vector(site):
        up = np.vdot(vec, splus[site] @ vec)
        return np.array([up.real, up.imag, p @ sz[site]])

    return BoundaryPair(z=spin_vector(last), zprime=spin_vector(0))


@dataclass
class ScfResult:
    """One converged biseparable minimum for a fixed bipartition."""

    ebs: float
    z_a: float
    z_aprime: float
    z_b: float
    z_bprime: float
    eta: int
    converged: bool
    residual: float
    decoupled: bool = False
    iterations: int = 0


@dataclass
class BipartitionReport:
    n_a: int
    n_b: int
    offset: int
    result: ScfResult | None
    failed: bool = False
    message: str = ""


def _run_branch(solver_a, solver_b, npair, eta, z0):
    """Alternating minimization from one starting modulus; returns an
    ScfResult.

    Each half-cycle is exact (A's dressed ground state for B's boundary
    spins, then B's for A's), so the product-state energy never rises.  A
    converged branch reports the product state of the cycle whose residual
    fell below TOL.
    """
    sign = [1.0, float(eta)] if npair == 2 else [1.0]
    z_b = np.array([z0 * s for s in sign])
    z_a = np.zeros(npair)
    best_resid = np.inf
    since_progress = 0
    for it in range(1, MAX_ITER + 1):
        ga = solver_a.ground(z_b, select_coeffs=sign)
        za = np.array(ga["z_fields"])
        gb = solver_b.ground(za, select_coeffs=[-s for s in sign])
        zb = np.array(gb["z_fields"])
        resid = max(np.max(np.abs(za - z_a)), np.max(np.abs(zb - z_b)))
        z_a, z_b = za, zb
        if resid < TOL:
            # the crossing bonds add J z_a . z_b to the product state's energy
            ebs = (ga["e_bare"] + gb["e_bare"]
                   + solver_a.coupling * float(za @ zb))
            return ScfResult(float(ebs), float(za[0]), float(za[-1]),
                             float(zb[0]), float(zb[-1]), eta, True,
                             float(resid), iterations=it)
        # abandon a branch whose residual fails to halve within 100 cycles:
        # the map has no attracting fixed point here
        if resid < 0.5 * best_resid:
            best_resid = resid
            since_progress = 0
        else:
            since_progress += 1
            if since_progress > 100:
                break
    return ScfResult(np.inf, 0, 0, 0, 0, eta, False, float(resid),
                     iterations=it)


def biseparable_minimum(system: SpinSystem, arc: Arc,
                        seed: int = DEFAULT_SEED) -> ScfResult:
    """Minimum energy over biseparable states for one contiguous bipartition."""
    result, _ = biseparable_minimum_detailed(system, arc, seed)
    return result


def biseparable_minimum_detailed(system: SpinSystem, arc: Arc, seed: int = DEFAULT_SEED):
    """As biseparable_minimum but also returns every branch result."""
    sites_a, sites_b, pairs = cut(system, arc)
    solver_a = CollinearChainSolver(system, sites_a, [a for a, _ in pairs], seed)
    solver_b = CollinearChainSolver(system, sites_b, [b for _, b in pairs], seed)

    # the exactly-decoupled candidate is always evaluated, and first: these
    # field-free calls give each solver the sector floors its later calls
    # skip sectors by
    e_dec = (solver_a.ground([0.0] * len(pairs))["e_bare"]
             + solver_b.ground([0.0] * len(pairs))["e_bare"])
    decoupled = ScfResult(ebs=float(e_dec), z_a=0.0, z_aprime=0.0, z_b=0.0,
                          z_bprime=0.0, eta=1, converged=True, residual=0.0,
                          decoupled=True)

    # grid of starting moduli, capped by the spin of B's first boundary site
    s_bd = system.site_two_s[pairs[0][1]] / 2.0
    etas = (1, -1) if len(pairs) == 2 else (1,)

    branches = []
    for eta in etas:
        for f in INIT_GRID:
            try:
                branches.append(_run_branch(solver_a, solver_b, len(pairs),
                                            eta, s_bd * f))
            except SolverError:
                branches.append(ScfResult(np.inf, 0, 0, 0, 0, eta, False,
                                          np.inf))
    # the decoupled value alone is only an upper bound on the minimum, so it
    # must not stand in for an arc where every branch failed
    if not any(b.converged for b in branches):
        raise ScfError("no SCF branch converged", branches)
    candidates = [b for b in branches if b.converged] + [decoupled]
    # branches reaching one fixed point differ only by rounding, so ties
    # within 1e-12 |J| go to the decoupled candidate, then to eta = +1 (the
    # window and rule of biseparable_scan); otherwise the seed picks eta
    unit = abs(system.coupling)
    emin = min(r.ebs for r in candidates)
    best = min((r for r in candidates if r.ebs <= emin + 1e-12 * unit),
               key=lambda r: (not r.decoupled, -r.eta, r.ebs))
    # a branch that drifted to the decoupled point is reported as such
    if not best.decoupled and max(abs(best.z_a), abs(best.z_b)) < 1e-7 \
            and best.ebs >= e_dec - 1e-9 * unit:
        best = decoupled
    return _canonical(best, len(pairs)), branches + [decoupled]


def _canonical(result: ScfResult, npair: int) -> ScfResult:
    """A fixed point as reported: of it and its spin-flipped twin (same
    energy) the one with z_b >= 0, and eta the sign of z_b * z_bprime (1 for
    a decoupled point or a single coupling pair)."""
    if result.z_b < 0:
        result = replace(result, z_a=-result.z_a, z_aprime=-result.z_aprime,
                         z_b=-result.z_b, z_bprime=-result.z_bprime)
    eta = -1 if npair == 2 and result.z_b * result.z_bprime < 0 else 1
    return replace(result, eta=eta)


def map_jobs(fn, jobs, workers: int = 1) -> list:
    """[fn(job) for job in jobs], over a process pool when workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _scan_one(args):
    system, arc, seed = args
    try:
        return BipartitionReport(arc.length, system.n_sites - arc.length,
                                 arc.offset, biseparable_minimum(system, arc, seed))
    except SolverError as exc:
        return BipartitionReport(arc.length, system.n_sites - arc.length,
                                 arc.offset, None, failed=True,
                                 message=str(exc))


def scan_arcs(system: SpinSystem) -> list:
    """Contiguous arcs scanned for the global minimum: N_A = 1..N/2; one offset
    for homogeneous rings, all valid offsets otherwise."""
    n = system.n_sites
    homogeneous = len(set(system.site_two_s)) == 1
    arcs = []
    for length in range(1, n // 2 + 1):
        if system.topology == RING:
            offsets = [0] if homogeneous else range(n)
        else:
            offsets = range(n - length + 1)
        for off in offsets:
            arcs.append(Arc(off, length))
    return arcs


@dataclass
class ScanResult:
    reports: list
    ebs: float
    argmin: BipartitionReport


def biseparable_scan(system: SpinSystem, seed: int = DEFAULT_SEED,
                     workers: int = 1) -> ScanResult:
    """E_bs = min over contiguous bipartitions of E_bs(N_A, N_B)."""
    arcs = scan_arcs(system)
    reports = map_jobs(_scan_one, [(system, arc, seed) for arc in arcs], workers)
    reports.sort(key=lambda r: (r.n_a, r.offset))
    ok = [r for r in reports if not r.failed]
    if not ok:
        raise ScfError("every bipartition failed")
    emin = min(r.result.ebs for r in ok)
    window = 1e-12 * abs(system.coupling)  # ties, in units of |J|
    ties = [r for r in ok if r.result.ebs <= emin + window]
    argmin = min(ties, key=lambda r: (r.n_a, r.offset, -r.result.eta))
    return ScanResult(reports, float(emin), argmin)
