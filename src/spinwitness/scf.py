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
  included in the minimum: the lowest converged candidate, ties within
  1e-12 |J| going to the decoupled one.  A branch that comes within 1e-6 of
  a fixed point an earlier branch of its arc and eta converged to stops
  there, unless every modulus of that point is below 1e-7 (z = 0, which
  can be a saddle).  The decoupled candidate is solved first, at zero field.
  Each segment solver keeps every Sz sector's lowest level at zero field
  and at the fields of its last solve.  The fields are diagonal, so by
  Weyl's inequality changing them from b' to b moves a sector's lowest
  level by at most sum_k |b_k - b'_k| s_k; later solves skip every sector
  whose bound from those two levels lies above the current minimum by the
  degeneracy window or more.  A single-site threshold's one dressed solve
  gets its sector bounds from a cut of the solver's own sites, in their ring
  order, in two halves (``CollinearChainSolver.bound_by_halves``) instead.

E_bs is a minimum over every bipartition, so every failure is a
``SolverError`` that propagates: of an eigensolve, or of an arc none of whose
branches converged.  ``bipartition_report``, one arc's solve for ``bisep``
and a scan alike, adds the arc (n_a, 1-based offset) to its diagnostics.
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
from .hamiltonians import RING, Arc, SpinSystem, build_hamiltonian, cut
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


def boundary_geometry(pair: BoundaryPair) -> BoundaryGeometry:
    z = np.asarray(pair.z, dtype=float)
    zp = np.asarray(pair.zprime, dtype=float)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zp))):
        raise ValueError("boundary vectors must be finite")
    a, b = np.linalg.norm(z), np.linalg.norm(zp)
    # equal moduli differ only by rounding; report them as exactly equal
    diff = abs(a - b) if abs(a - b) >= ZERO_MODULUS else 0.0
    if a < ZERO_MODULUS or b < ZERO_MODULUS:
        return BoundaryGeometry(np.nan, diff, (a, b))
    c = float(np.clip(z @ zp / (a * b), -1.0, 1.0))
    return BoundaryGeometry(float(np.arccos(c)), diff, (a, b))


def _sector_blocks(basis, mat):
    """(2M, positions, CSR block) of each Sz sector of an operator `mat` on
    `basis` that conserves Sz.  Its rows, taken once in sector order, hold no
    column outside their own sector, so each block is a run of those rows
    with its columns renumbered: the same arrays as mat[idx][:, idx],
    without a scipy column index per sector."""
    sectors = basis.sectors()
    order = np.concatenate([idx for _, idx in sectors])
    rows = mat.tocsr()[order]
    pos = np.empty(len(order), dtype=rows.indices.dtype)
    pos[order] = np.arange(len(order))
    cols = pos[rows.indices]
    start = 0
    for t, idx in sectors:
        stop = start + len(idx)
        lo, hi = rows.indptr[start], rows.indptr[stop]
        yield t, idx, sp.csr_matrix(
            (rows.data[lo:hi], cols[lo:hi] - start, rows.indptr[start:stop + 1] - lo),
            shape=(len(idx), len(idx)))
        start = stop


class CollinearChainSolver:
    """Ground states of the system's `sites`, each of `field_sites` dressed
    by the +/- z field of a neighbour outside them.

    Precomputes the Sz-sector blocks of the bare Hamiltonian (the bonds
    inside `sites`) and the diagonal sz operators of the field sites, so
    repeated solves during the fixed-point iteration only add diagonals.
    The product space is enumerated and assembled once and cut into its
    sectors (``_sector_blocks``).  The sites need not be
    connected (the complement of a mid-chain arc is two pieces).  The solver
    keeps the system, its sites in the order given and the field sites'
    local indices, so ``bound_by_halves`` needs only the fields.
    """

    def __init__(self, system: SpinSystem, sites, field_sites, seed: int = DEFAULT_SEED):
        self.system, self.sites = system, list(sites)
        self.field_sites = tuple(self.sites.index(s) for s in field_sites)
        self.field_spins = np.array([system.site_two_s[s] / 2.0 for s in field_sites])
        self.seed = seed
        self.sectors = []
        op = build_hamiltonian(system, sites=self.sites)
        basis = op.basis
        for t, idx, block in _sector_blocks(basis, op.matrix):
            sec = {"two_m": t,
                   "diags": [basis.two_m[idx, s] / 2.0 for s in self.field_sites]}
            if len(idx) <= DENSE_DIM:
                sec["dense"] = block.toarray()
            else:  # lanczos_ground reads only .matrix and .dim
                sec["op"] = SimpleNamespace(matrix=block, dim=len(idx))
                sec["v0"] = None
            self.sectors.append(sec)
        # each sector's lowest level at zero field, and a lower bound on it at
        # the fields b_last, exact once solved there; -inf until solved or
        # bounded (bound_by_halves), a bound that skips nothing
        self.floor = np.full(len(self.sectors), -np.inf)
        self.e_last = np.full(len(self.sectors), -np.inf)
        self.b_last = np.zeros((len(self.sectors), len(self.field_sites)))

    def bound_by_halves(self, z_outside):
        """Bound every sector from below at the fields of z_outside (as in
        ``ground``) before any solve, by cutting the sites in two.

        The solver's sites are split in their given order (the ring order,
        so few bonds cross) after the first len // 2; a single site is left
        unbounded.  Each half keeps its own field sites, and every sector of
        each half is solved densely at those fields (a Lanczos estimate would
        lie above the level, not below): e_1(2M_1), e_2(2M_2).  The dressed
        Hamiltonian is H_1 + H_2 + V, with V the bonds between the halves.
        H_1 + H_2 on sector 2M is the direct sum over 2M_1 + 2M_2 = 2M, and
        V is at least the sum of each bond's lowest eigenvalue, so by Weyl's
        inequality the sector's lowest level is at least
            min over 2M_1 + 2M_2 = 2M of e_1 + e_2, plus sum over V of
            min(J s_a s_b, J [S_0(S_0 + 1) - s_a(s_a + 1) - s_b(s_b + 1)] / 2)
        with S_0 = |s_a - s_b|, lowered by 1e-12 max(|J|, |bound|) for
        rounding.  It becomes each sector's e_last at these fields.
        """
        system, sites = self.system, self.sites
        if len(sites) < 2:
            return
        coupling = system.coupling
        fields = coupling * np.array(z_outside, dtype=float)
        unit = abs(coupling)
        cut_at = len(sites) // 2
        half = {site: k >= cut_at for k, site in enumerate(sites)}
        levels = []
        for lo, hi in ((0, cut_at), (cut_at, len(sites))):
            op = build_hamiltonian(system, sites=sites[lo:hi])
            own = [k for k, f in enumerate(self.field_sites) if lo <= f < hi]
            local = [self.field_sites[k] - lo for k in own]
            mat = op.matrix + sp.diags(op.basis.two_m[:, local] @ fields[own] / 2.0)
            levels.append({t: lowest_level(block.toarray(), unit)[0]
                           for t, _, block in _sector_blocks(op.basis, mat)})
        low, high = levels
        bound = np.array([min(e + high[sec["two_m"] - t] for t, e in low.items()
                              if sec["two_m"] - t in high)
                          for sec in self.sectors])
        for a, b in system.bonds():
            if a in half and b in half and half[a] != half[b]:
                s_a, s_b = (system.site_two_s[x] / 2.0 for x in (a, b))
                s_0 = abs(s_a - s_b)
                bound += min(coupling * s_a * s_b,
                             coupling * (s_0 * (s_0 + 1) - s_a * (s_a + 1)
                                         - s_b * (s_b + 1)) / 2)
        self.e_last = bound - 1e-12 * np.maximum(unit, np.abs(bound))
        self.b_last[:] = fields

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
        e_last, a lower bound on its lowest level at the fields b_last:
        that level itself once solved there, or a bound from
        ``bound_by_halves``.  Fields b and b' differ by the diagonal
        sum_k (b_k - b'_k) sz_k, of norm at most sum_k |b_k - b'_k| s_k, so
        by Weyl's inequality the sector's lowest level at fields b is at
        least
            max(floor - sum_k |b_k| s_k, e_last - sum_k |b_k - b_last,k| s_k).
        A call visits the sectors by ascending bound and stops at the first
        whose bound lies above the running minimum by the degeneracy window
        or more: it and every later sector hold neither the minimum nor a
        member of its level.  An unsolved, unbounded sector's bound is
        -inf, so a first call without ``bound_by_halves`` solves every
        sector.
        """
        fields = self.system.coupling * np.array(z_outside, dtype=float)
        if len(fields) != len(self.field_sites):
            raise ValueError("one field value per field site required")
        unit = abs(self.system.coupling)
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
    """An arc's decoupled candidate, or one branch's result, converged or not."""

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
    result: ScfResult
    warning: str = ""


def _known_fixed_point(za, zb, known):
    """The first of the `known` fixed points within 1e-6 of (za, zb) in
    every boundary modulus, or None."""
    for r in known:
        if max(abs(za[0] - r.z_a), abs(za[-1] - r.z_aprime),
               abs(zb[0] - r.z_b), abs(zb[-1] - r.z_bprime)) < 1e-6:
            return r
    return None


def _run_branch(solver_a, solver_b, eta, z0, known=()):
    """Alternating minimization from one starting modulus; returns an
    ScfResult.

    Each half-cycle is exact (A's dressed ground state for B's boundary
    spins, then B's for A's), so the product-state energy never rises.  A
    converged branch reports the product state of the cycle whose residual
    fell below TOL.  A branch that comes within 1e-6 of one of the `known`
    fixed points (those earlier branches of its arc and eta converged to)
    stops there and reports that point with its own cycle count.
    """
    npair = len(solver_a.field_sites)
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
                   + solver_a.system.coupling * float(za @ zb))
            return ScfResult(float(ebs), float(za[0]), float(za[-1]),
                             float(zb[0]), float(zb[-1]), eta, True,
                             float(resid), iterations=it)
        match = _known_fixed_point(za, zb, known)
        if match is not None:
            return replace(match, iterations=it)
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
    """As biseparable_minimum but also returns the result of every branch
    run; the decoupled candidate is not run, and shows only as the best."""
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
        # the fixed points this eta's branches converged to, less z = 0: a
        # branch can contract towards it and then escape (it may be a
        # saddle), so passing near it proves nothing
        known = []
        for f in INIT_GRID:
            branch = _run_branch(solver_a, solver_b, eta, s_bd * f, known)
            branches.append(branch)
            if branch.converged and max(abs(branch.z_a), abs(branch.z_aprime),
                                        abs(branch.z_b), abs(branch.z_bprime)) >= 1e-7:
                known.append(branch)
    # the decoupled value alone is only an upper bound on the minimum, so it
    # must not stand in for an arc where every branch failed
    if not any(b.converged for b in branches):
        raise SolverError("no SCF branch converged", {
            "branches": len(branches),
            "last_residuals": [float(b.residual) for b in branches]})
    candidates = [b for b in branches if b.converged] + [decoupled]
    # branches reaching one fixed point differ only by rounding, so ties
    # within 1e-12 |J| (the window of biseparable_scan) go to the decoupled
    # candidate, then to eta = +1; otherwise the seed picks eta
    unit = abs(system.coupling)
    emin = min(r.ebs for r in candidates)
    best = min((r for r in candidates if r.ebs <= emin + 1e-12 * unit),
               key=lambda r: (not r.decoupled, -r.eta, r.ebs))
    return _canonical(best), branches


def _canonical(result: ScfResult) -> ScfResult:
    """A fixed point as reported: of it and its spin-flipped twin (same
    energy) the one with z_b >= 0, and eta the sign of z_b * z_bprime (1 for
    a decoupled point; with one coupling pair z_bprime is z_b, so 1)."""
    if result.z_b < 0:
        result = replace(result, z_a=-result.z_a, z_aprime=-result.z_aprime,
                         z_b=-result.z_b, z_bprime=-result.z_bprime)
    eta = -1 if result.z_b * result.z_bprime < 0 else 1
    return replace(result, eta=eta)


def map_jobs(fn, jobs, workers: int = 1) -> list:
    """[fn(*job) for job in jobs], in job order, over a process pool when
    workers > 1."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


def bipartition_report(system: SpinSystem, arc: Arc,
                       seed: int = DEFAULT_SEED) -> BipartitionReport:
    """The arc's minimum, warning 'k of n branches unconverged' when some of
    its branches did not converge.  A SolverError gets the arc's n_a and
    1-based offset, as printed, added to its diagnostics."""
    try:
        best, branches = biseparable_minimum_detailed(system, arc, seed)
    except SolverError as exc:
        exc.diagnostics.update(n_a=arc.length, offset=arc.offset + 1)
        raise
    k = sum(not b.converged for b in branches)
    return BipartitionReport(
        arc.length, system.n_sites - arc.length, arc.offset, best,
        f"{k} of {len(branches)} branches unconverged" if k else "")


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
    """E_bs = min over contiguous bipartitions of E_bs(N_A, N_B); the
    reports are in ``scan_arcs`` order, (n_a, offset)."""
    reports = map_jobs(bipartition_report,
                       [(system, arc, seed) for arc in scan_arcs(system)], workers)
    emin = min(r.result.ebs for r in reports)
    window = 1e-12 * abs(system.coupling)  # ties go to the first arc
    argmin = next(r for r in reports if r.result.ebs <= emin + window)
    return ScanResult(reports, float(emin), argmin)
