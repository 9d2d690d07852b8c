"""Witness products: per-site disentangling thresholds, verdicts, proof-support
quantities and thermal crossings.

Site indices in this module are 0-based; tables carry the original ring
positions even when a spinless substitution reduces the ring to a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .eigensolvers import (
    DEFAULT_SEED,
    degenerate_with,
    dense_spectrum,
    refuse_dense,
    sectored_ground_state,
)
from .hamiltonians import (
    CHAIN,
    Arc,
    SpinSystem,
    build_on_sites,
    cut,
    defected_ring,
    site_classes,
)
from .operators import (
    ProductBasis,
    heisenberg_matrix,
    parse_spin,
    raising,
    spin_str,
    translation_orbits,
)
from .scf import CollinearChainSolver


@dataclass
class ThresholdTable:
    """Per-site disentangling costs E_bs^k - E_0 for one system."""

    label: str
    e0: float
    entries: list  # (site, ebs_k, cost); site is the original ring position


@dataclass
class Verdict:
    """Which spins a measured exchange energy certifies as entangled."""

    measured_energy: float
    sites_provably_entangled: list
    multipartite_detected: bool


def ground_energy(system: SpinSystem, seed: int = DEFAULT_SEED) -> float:
    """Global ground energy, from the lowest Sz sector alone."""
    return sectored_ground_state(system, seed=seed).energy


def single_site_threshold(system: SpinSystem, k: int, seed: int = DEFAULT_SEED) -> float:
    """E_bs^k: minimum biseparable energy when only site k is factored out.

    The cut Arc(k, 1): the ground energy of the remaining sites with k's
    neighbours dressed by the field J s_k of a fully polarized spin k.
    """
    _, rest, pairs = cut(system, Arc(k, 1))
    # the remainder in index order: ring order moves some sums in the last digit
    solver = CollinearChainSolver(system, sorted(rest), [b for _, b in pairs], seed)
    g = solver.ground([system.site_two_s[k] / 2.0] * len(pairs))
    return float(g["energy"])


def threshold_table(system: SpinSystem, label: str | None = None,
                    site_labels=None, seed: int = DEFAULT_SEED) -> ThresholdTable:
    """Thresholds E_bs^k for every site, referred to the ground energy.
    Each symmetry class of sites is solved once and shares that value."""
    e0 = ground_energy(system, seed=seed)
    if site_labels is None:
        site_labels = list(range(system.n_sites))
    classes = site_classes(system)
    ebs = {rep: single_site_threshold(system, rep, seed=seed)
           for rep in sorted(set(classes))}
    entries = sorted((site_labels[i], ebs[rep], ebs[rep] - e0)
                     for i, rep in enumerate(classes))
    return ThresholdTable(system.describe() if label is None else label,
                          float(e0), entries)


def defect_series(system: SpinSystem, defect_site: int, defect_spins,
                  labels=None, seed: int = DEFAULT_SEED) -> list:
    """Threshold tables for the homogeneous ring `system` with one
    substituted spin, one per s_M.

    A spinless substitution contributes a zero-cost entry at the defect site
    (a spin-0 site is in a product state with everything) and the open-chain
    thresholds for the remaining sites.
    """
    tables = []
    for idx, sm in enumerate(defect_spins):
        sm_two = parse_spin(sm)
        label = labels[idx] if labels is not None else f"s_M={spin_str(sm_two)}"
        defected, site_labels = defected_ring(system, defect_site, sm)
        table = threshold_table(defected, label=label, site_labels=site_labels,
                                seed=seed)
        if sm_two == 0:
            table.entries.append((defect_site, table.e0, 0.0))
            table.entries.sort(key=lambda t: t[0])
        tables.append(table)
    return tables


def verdict(measured_energy: float, table: ThresholdTable,
            global_ebs: float) -> Verdict:
    """Entanglement certified by a measured exchange energy.

    Site k is certified entangled with the rest iff the energy lies strictly
    below E_bs^k; the full N-partite statement needs energy below the global
    biseparable minimum.  At or above max_k E_bs^k nothing can be concluded.
    """
    sites = [k for k, e, _ in table.entries if measured_energy < e]
    return Verdict(float(measured_energy), sites,
                   bool(measured_energy < global_ebs))


def eta_s(spin) -> float:
    """sqrt((sum_{m=-s}^{s} m^2) / (2s+1)); strictly positive for s >= 1/2."""
    two_s = parse_spin(spin)
    if two_s < 1:
        raise ValueError("eta_s requires s >= 1/2")
    two_ms = range(-two_s, two_s + 1, 2)
    total = sum(Fraction(t, 2) ** 2 for t in two_ms)
    return float(np.sqrt(float(total / (two_s + 1))))


def f_factor(x_a: int, x_b: int, spin) -> float:
    """f(x_a, x_b) = 1 + prod_{x in {x_a, x_b}} (-1)^x [1 - x(x+1)/(2s(s+1))]."""
    two_s = parse_spin(spin)
    if two_s < 1:
        raise ValueError("f_factor requires s >= 1/2")
    for x in (x_a, x_b):
        if not isinstance(x, (int, np.integer)) or not 0 <= x <= two_s:
            raise ValueError(f"x = {x} outside the admissible range [0, 2s]")
    s = Fraction(two_s, 2)
    prod = Fraction(1)
    for x in (x_a, x_b):
        prod *= (-1) ** x * (1 - Fraction(x * (x + 1)) / (2 * s * (s + 1)))
    return float(1 + prod)


@dataclass
class EigenstateCheck:
    """Outcome of sampling singlet x singlet product states against H."""

    min_variance: float | None
    samples: int
    no_singlet_sector: bool
    reason: str = ""


def _singlet_projector(site_two_s) -> np.ndarray | None:
    """Orthonormal basis (columns) of the S^2 = 0 eigenspace, or None."""
    if sum(site_two_s) % 2 == 1:
        return None  # half-integer total spin cannot reach S = 0
    basis = ProductBasis(site_two_s, 0)
    if basis.dim == 0:
        return None
    splus = raising(basis, range(basis.n_sites))
    vals, vecs = scipy.linalg.eigh((splus.T @ splus).toarray())  # S^2 at M = 0
    keep = vals < 1e-8
    if not np.any(keep):
        return None
    cols = vecs[:, keep]
    # lift from the M=0 sector to the full space
    full = np.zeros((basis.total_dim, cols.shape[1]))
    full[basis.full_index] = cols
    return full


def verify_not_eigenstate(system: SpinSystem, arc: Arc, samples: int = 1000,
                          seed: int = DEFAULT_SEED) -> EigenstateCheck:
    """Minimum energy variance of H over random singlet (x) singlet states.

    Draws random states in the S_A = 0 tensor S_B = 0 sector of a contiguous
    bipartition; a strictly positive variance for every sample witnesses that
    no such biseparable state is an eigenstate of H.
    """
    sites_a, sites_b, _ = cut(system, arc)
    proj_a = _singlet_projector([system.site_two_s[i] for i in sites_a])
    proj_b = _singlet_projector([system.site_two_s[i] for i in sites_b])
    if proj_a is None or proj_b is None:
        side = "A" if proj_a is None else "B"
        return EigenstateCheck(None, 0, True,
                               f"subsystem {side} has no singlet sector")
    # H in the site order (A sites, then B sites)
    h = build_on_sites(system, sites_a + sites_b).matrix
    rng = np.random.default_rng(seed)
    min_var = np.inf
    for _ in range(samples):
        ca = rng.standard_normal(proj_a.shape[1]) + 1j * rng.standard_normal(proj_a.shape[1])
        cb = rng.standard_normal(proj_b.shape[1]) + 1j * rng.standard_normal(proj_b.shape[1])
        psi = np.kron(proj_a @ ca, proj_b @ cb)
        psi /= np.linalg.norm(psi)
        hpsi = h @ psi
        e = np.real(np.vdot(psi, hpsi))
        var = np.real(np.vdot(hpsi, hpsi)) - e * e
        min_var = min(min_var, float(var))
    return EigenstateCheck(min_var, samples, False)


def full_spectrum(system: SpinSystem) -> np.ndarray:
    """Complete spectrum, ascending, from Sz x Bloch-momentum blocks.

    The momenta k are those of the cyclic shift by `step` sites, the shortest
    one mapping the spins onto themselves (step = N, one k = 0 block, on a
    chain or a ring with a defect).  H is real and spin-flip symmetric, so
    k and L - k, and 2M and -2M, share a spectrum: only k <= L/2 and 2M >= 0
    are solved.  The product space is enumerated once and H assembled on it
    once; each sector's block is sliced from it by index, after every block
    has been checked against the dense limit."""
    spins, n = system.site_two_s, system.n_sites
    step = n if system.topology == CHAIN else min(
        p for p in range(1, n + 1) if n % p == 0 and spins[p:] + spins[:p] == spins)
    n_k = n // step
    basis = ProductBasis(spins)
    rep, shift, length = translation_orbits(basis, step)
    sectors = [(two_m, idx) for two_m, idx in basis.sectors() if two_m >= 0]
    for _, idx in sectors:  # every orbit carries k = 0: the largest block
        refuse_dense(np.count_nonzero(rep[idx] == idx))
    mat = heisenberg_matrix(basis, system.bonds(), system.coupling)
    pieces = []
    for two_m, idx in sectors:
        block = mat[idx][:, idx]
        r, j, l = rep[idx], shift[idx], length[idx]
        for k in range(n_k // 2 + 1):
            # an orbit of length l carries momentum k only if k l = 0 mod L
            states = np.nonzero(k * l % n_k == 0)[0]
            reps, col = np.unique(r[states], return_inverse=True)
            phase = np.exp(2j * np.pi * k * j[states] / n_k) / np.sqrt(l[states])
            real = 2 * k % n_k == 0
            pk = sp.csr_matrix((phase.real if real else phase, (states, col)),
                               shape=(idx.size, reps.size))
            vals = dense_spectrum(pk.conj().T @ block @ pk)
            pieces += [vals] * ((1 if real else 2) * (2 if two_m else 1))
    return np.sort(np.concatenate(pieces))


def thermal_energy(spectrum: np.ndarray, temperature: float) -> float:
    """Canonical <H>_T over a complete spectrum (k_B = 1, T in units of J)."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    e = np.asarray(spectrum, dtype=float)
    if temperature == 0:
        return float(e[degenerate_with(e.min(), e)].mean())
    w = np.exp(-(e - e.min()) / temperature)
    return float((e * w).sum() / w.sum())


def threshold_temperature(spectrum: np.ndarray, ebs: float) -> float:
    """Temperature T* at which <H>_T crosses a biseparable threshold.

    <H>_T increases monotonically in T, so the root is unique; found by
    bisection to |<H>_T - ebs| < 1e-10, searched up to T = 1e6.
    """
    e = np.asarray(spectrum, dtype=float)
    e0 = e.min()
    if ebs <= e0:
        raise ValueError("threshold at or below the ground energy: no crossing")
    if ebs >= e.mean():
        raise ValueError("threshold above the infinite-T energy: no crossing")
    lo, hi = 0.0, 1.0
    while thermal_energy(e, hi) < ebs:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no crossing below T = 1e6")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = thermal_energy(e, mid)
        if abs(val - ebs) < 1e-10:
            return mid
        if val < ebs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
