"""Self-consistent minimization over biseparable states.

Two layers:

* ``boundary_map`` — the one-step map used to probe the fixed-point geometry
  with general (x-z plane) boundary fields.  This validates the reduction to
  collinear fields with equal boundary moduli.
* ``biseparable_minimum`` / ``biseparable_scan`` — the production fixed-point
  solver.  Fields are restricted to +/- z with the two boundary expectations
  of each subsystem tied by a sign eta = +/-1; both eta branches and a grid
  of starting moduli are scanned, and the exactly-decoupled candidate
  (all boundary expectations zero) is always included in the minimum.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .eigensolvers import (
    SolverError,
    degenerate_with,
    lanczos_ground,
    lowest_level,
    select_in_manifold,
)
from .hamiltonians import (
    Arc,
    RING,
    SpinSystem,
    complement_sites,
    coupling_bonds,
    subsystem_bonds,
)
from .operators import (
    ProductBasis,
    SparseHermitianOperator,
    field_term,
    heisenberg_matrix,
    parse_spin,
    sector_two_m_values,
    sz_diagonal,
)

ZERO_MODULUS = 1e-12
# The chain solver solves sectors up to this dimension densely.  Above it, it
# runs one Lanczos vector warm-started from the previous iterate's ground
# vector, cheaper than the two cold solves ground_state's LANCZOS_CROSSOVER
# is priced against, so its crossover is lower.
DENSE_DIM = 128


class ScfError(RuntimeError):
    """No self-consistent branch converged.

    Carries a diagnostics summary: the branch count and each branch's last
    residual.
    """

    def __init__(self, message: str, branches=()):
        super().__init__(message)
        self.diagnostics = ({"branches": len(branches),
                             "last_residuals": [float(b.residual)
                                                for b in branches]}
                            if branches else {})


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
    """Ground states of an open segment dressed with +/- z boundary fields.

    Precomputes the Sz-sector blocks of the bare Hamiltonian and the diagonal
    boundary sz operators, so repeated solves during the fixed-point
    iteration only add diagonals.  The segment need not be connected (the
    complement of a mid-chain arc is two pieces).
    """

    def __init__(self, site_two_s, bonds, field_sites=(0, -1),
                 coupling: float = 1.0, seed: int = 42):
        self.site_two_s = tuple(int(t) for t in site_two_s)
        n = len(self.site_two_s)
        self.field_sites = tuple(s % n for s in field_sites)
        self.seed = seed
        self.sectors = []
        for two_m in sector_two_m_values(self.site_two_s):
            basis = ProductBasis(self.site_two_s, two_m)
            mat = heisenberg_matrix(basis, bonds, coupling)
            sec = {"two_m": two_m,
                   "diags": [sz_diagonal(basis, s) for s in self.field_sites]}
            if basis.dim <= DENSE_DIM:
                sec["dense"] = mat.toarray()
            else:
                sec["op"] = SparseHermitianOperator(basis, mat)
                sec["v0"] = None
            self.sectors.append(sec)

    def ground(self, field_values, select_coeffs=None):
        """Lowest dressed eigenstate over all sectors.

        field_values: scalars b_k, one per field site (field = b_k * z_hat).
        select_coeffs: coefficients c_k resolving degenerate minima by
        minimizing sum_k c_k <sz_(field site k)> over the degenerate level
        (the infinitesimal-field limit of the upcoming fields).  Returns a
        dict with the dressed energy, the bare-Hamiltonian expectation and
        the per-field-site <sz> values.
        """
        field_values = tuple(float(b) for b in field_values)
        if len(field_values) != len(self.field_sites):
            raise ValueError("one field value per field site required")
        results = []
        for sec in self.sectors:
            shift = None
            for b, d in zip(field_values, sec["diags"]):
                if b != 0.0:
                    shift = b * d if shift is None else shift + b * d
            if "dense" in sec:
                mat = sec["dense"]
                e0, _, manifold = lowest_level(
                    mat if shift is None else mat + np.diag(shift))
            else:
                vals, manifold, _, _ = lanczos_ground(
                    sec["op"], seed=self.seed, v0=sec["v0"], shift=shift)
                sec["v0"] = manifold[:, 0]
                e0 = float(vals[0])
            results.append((e0, sec, manifold))
        e0 = min(r[0] for r in results)
        level = [(sec, m) for e, sec, m in results if degenerate_with(e0, e)]
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
        e_bare = e0 - sum(b * z for b, z in zip(field_values, z_fields))
        return {"energy": e0, "e_bare": e_bare, "z_fields": z_fields}


def boundary_map(chain_spins, z_b, z_bprime) -> BoundaryPair:
    """One application of the boundary map on an open segment.

    Solves the ground state of H_chain + z_b . s_last + z_bprime . s_first
    (fields confined to the x-z plane; rotational symmetry of the isotropic
    exchange makes this lossless) and returns the expectation vectors of the
    boundary spins: BoundaryPair(z=<s_last>, zprime=<s_first>).
    """
    spins = [parse_spin(s) for s in chain_spins]
    z_b = np.asarray(z_b, dtype=float)
    z_bp = np.asarray(z_bprime, dtype=float)
    for v in (z_b, z_bp):
        if v.shape != (3,) or abs(v[1]) > ZERO_MODULUS:
            raise ValueError("boundary fields must be 3-vectors in the x-z plane")
    basis = ProductBasis(spins)
    last = basis.n_sites - 1
    chain = heisenberg_matrix(basis, [(k, k + 1) for k in range(last)])
    fields = field_term(basis, last, z_b) + field_term(basis, 0, z_bp)
    _, _, manifold = lowest_level((chain + fields).toarray())
    vec = manifold[:, 0]
    if manifold.shape[1] > 1:
        # infinitesimal-field limit: minimize the field coupling inside the
        # degenerate manifold; fall back to +z on both edges at zero field
        if not (np.any(z_b) or np.any(z_bp)):
            fields = sz_diagonal(basis, 0) + sz_diagonal(basis, last)
        _, vec = select_in_manifold(manifold, fields)

    def spin_vector(site):
        out = np.empty(3)
        for k, unit in enumerate(np.eye(3)):
            comp = field_term(basis, site, unit)
            out[k] = float(np.real(np.vdot(vec, comp @ vec)))
        return out

    return BoundaryPair(z=spin_vector(last), zprime=spin_vector(0))


@dataclass(frozen=True)
class ScfConfig:
    """Knobs of the collinear fixed-point solver."""

    etas: tuple = (1, -1)
    damping: float = 0.5
    tol: float = 1e-10
    max_iter: int = 10000
    init_grid: tuple | None = None  # moduli in [0, s_boundary]; default 5-point
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")
        # an infinite tol would accept the first cycle as converged
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.init_grid is not None and not len(self.init_grid):
            raise ValueError("init_grid must be None or non-empty")
        if not self.etas or any(e not in (1, -1) for e in self.etas):
            raise ValueError("etas must be a non-empty list of +1 and -1")


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


def _bipartition_structure(system: SpinSystem, arc: Arc):
    """Local layout of the bipartition: site lists, bonds and coupling pairs.

    Returns (sites_a, sites_b, pairs) where pairs are
    (a_local, b_local) indices of the coupled boundary spins; pair 0 is the
    unprimed one (A-last with B-first when both exist).
    """
    sites_a = arc.sites(system)
    sites_b = complement_sites(system, arc)
    loc_a = {s: i for i, s in enumerate(sites_a)}
    loc_b = {s: i for i, s in enumerate(sites_b)}
    pairs = []
    for a, b in coupling_bonds(system, arc):
        pairs.append((loc_a[a], loc_b[b]))
    # deterministic order: the pair involving A's last site first
    pairs.sort(key=lambda p: (-p[0], p[1]))
    if not pairs:
        raise ValueError("arc does not couple to its complement")
    return sites_a, sites_b, pairs


def _run_branch(solver_a, solver_b, npair, eta, z0, cfg):
    """Damped alternation from one starting modulus; returns an ScfResult."""
    sign = [1.0, float(eta)] if npair == 2 else [1.0]

    def cycle(z_b):
        """One undamped map: A answers the fields z_b, then B answers A."""
        ga = solver_a.ground(z_b, select_coeffs=sign)
        za = np.array(ga["z_fields"])
        gb = solver_b.ground(za, select_coeffs=[-s for s in sign])
        zb = np.array(gb["z_fields"])
        return za, zb, ga["e_bare"] + gb["e_bare"] + float(za @ zb)

    z_b = np.array([z0 * s for s in sign])
    z_a = np.zeros(npair)
    alpha = cfg.damping
    residuals = []
    converged = False
    best_resid = np.inf
    since_progress = 0
    it = 0
    for it in range(1, cfg.max_iter + 1):
        za_meas, zb_meas, _ = cycle(z_b)
        resid = max(np.max(np.abs(za_meas - z_a)), np.max(np.abs(zb_meas - z_b)))
        residuals.append(resid)
        if resid < cfg.tol:
            converged = True
            z_a, z_b = za_meas, zb_meas
            break
        # abort branches stuck in a limit cycle: no residual improvement by
        # 2x over 200 cycles means the map has no attracting fixed point here
        if resid < 0.5 * best_resid:
            best_resid = resid
            since_progress = 0
        else:
            since_progress += 1
            if since_progress > 200:
                break
        z_a = (1 - alpha) * z_a + alpha * za_meas
        z_b = (1 - alpha) * z_b + alpha * zb_meas
        # halve the damping on a period-2 oscillation of the residual
        if len(residuals) >= 6:
            r = residuals[-6:]
            if (abs(r[-1] - r[-3]) < 0.05 * max(r[-1], 1e-300)
                    and abs(r[-2] - r[-4]) < 0.05 * max(r[-2], 1e-300)
                    and r[-1] > 0.9 * r[-3]):
                alpha = max(0.05, alpha / 2)
                residuals.clear()
    if not converged:
        return ScfResult(np.inf, 0, 0, 0, 0, eta, False,
                         residuals[-1] if residuals else np.inf, iterations=it)
    # one exact (undamped) verification cycle from the converged point
    za_v, zb_v, ebs = cycle(z_b)
    verify = max(np.max(np.abs(za_v - z_a)), np.max(np.abs(zb_v - z_b)))
    pad = lambda v: (float(v[0]), float(v[1]) if len(v) > 1 else float(v[0]))
    za0, za1 = pad(za_v)
    zb0, zb1 = pad(zb_v)
    return ScfResult(ebs=float(ebs), z_a=za0, z_aprime=za1, z_b=zb0,
                     z_bprime=zb1, eta=eta, converged=verify < 10 * cfg.tol,
                     residual=float(verify), iterations=it)


def biseparable_minimum(system: SpinSystem, arc: Arc,
                        cfg: ScfConfig | None = None) -> ScfResult:
    """Minimum energy over biseparable states for one contiguous bipartition."""
    result, _ = biseparable_minimum_detailed(system, arc, cfg)
    return result


def biseparable_minimum_detailed(system: SpinSystem, arc: Arc,
                                 cfg: ScfConfig | None = None):
    """As biseparable_minimum but also returns every branch result."""
    cfg = cfg or ScfConfig()
    sites_a, sites_b, pairs = _bipartition_structure(system, arc)
    spins_a = [system.site_two_s[i] for i in sites_a]
    spins_b = [system.site_two_s[i] for i in sites_b]
    bonds_a = subsystem_bonds(system, sites_a)
    bonds_b = subsystem_bonds(system, sites_b)
    solver_a = CollinearChainSolver(
        spins_a, bonds_a, field_sites=[p[0] for p in pairs],
        coupling=system.coupling, seed=cfg.seed)
    solver_b = CollinearChainSolver(
        spins_b, bonds_b, field_sites=[p[1] for p in pairs],
        coupling=system.coupling, seed=cfg.seed)

    # grid of starting moduli, capped by the boundary spin of B
    s_bd = system.site_two_s[sites_b[0]] / 2.0
    grid = cfg.init_grid
    if grid is None:
        grid = tuple(s_bd * f for f in (0.0, 0.25, 0.5, 0.75, 1.0))
    etas = cfg.etas if len(pairs) == 2 else (1,)

    branches = []
    for eta in etas:
        for z0 in grid:
            try:
                branches.append(_run_branch(solver_a, solver_b, len(pairs),
                                            eta, float(z0), cfg))
            except SolverError:
                branches.append(ScfResult(np.inf, 0, 0, 0, 0, eta, False,
                                          np.inf))
    # the decoupled value alone is only an upper bound on the minimum, so it
    # must not stand in for an arc where every branch failed
    if not any(b.converged for b in branches):
        raise ScfError("no SCF branch converged", branches)
    # the exactly-decoupled candidate is always evaluated
    e_dec = (solver_a.ground([0.0] * len(pairs))["e_bare"]
             + solver_b.ground([0.0] * len(pairs))["e_bare"])
    decoupled = ScfResult(ebs=float(e_dec), z_a=0.0, z_aprime=0.0, z_b=0.0,
                          z_bprime=0.0, eta=1, converged=True, residual=0.0,
                          decoupled=True)
    candidates = [b for b in branches if b.converged] + [decoupled]
    # branches reaching one fixed point differ only by rounding, so ties
    # within 1e-12 go to the decoupled candidate, then to eta = +1 (the
    # window and rule of biseparable_scan); otherwise the seed picks eta
    emin = min(r.ebs for r in candidates)
    best = min((r for r in candidates if r.ebs <= emin + 1e-12),
               key=lambda r: (not r.decoupled, -r.eta, r.ebs))
    # a branch that drifted to the decoupled point is reported as such
    if not best.decoupled and max(abs(best.z_a), abs(best.z_b)) < 1e-7 \
            and best.ebs >= e_dec - 1e-9:
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
    system, arc, cfg = args
    try:
        return BipartitionReport(arc.length, system.n_sites - arc.length,
                                 arc.offset, biseparable_minimum(system, arc, cfg))
    except (ScfError, SolverError) as exc:
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


def biseparable_scan(system: SpinSystem, cfg: ScfConfig | None = None,
                     workers: int = 1) -> ScanResult:
    """E_bs = min over contiguous bipartitions of E_bs(N_A, N_B)."""
    cfg = cfg or ScfConfig()
    arcs = scan_arcs(system)
    reports = map_jobs(_scan_one, [(system, arc, cfg) for arc in arcs], workers)
    reports.sort(key=lambda r: (r.n_a, r.offset))
    ok = [r for r in reports if not r.failed]
    if not ok:
        raise ScfError("every bipartition failed")
    emin = min(r.result.ebs for r in ok)
    ties = [r for r in ok if r.result.ebs <= emin + 1e-12]
    argmin = min(ties, key=lambda r: (r.n_a, r.offset, -r.result.eta))
    return ScanResult(reports, float(emin), argmin)
