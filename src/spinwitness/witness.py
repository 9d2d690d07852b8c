"""Witness products: per-site disentangling thresholds, verdicts, proof-support
quantities and thermal crossings.

Site indices in this module are 0-based; tables carry the original ring
positions even when a spinless substitution reduces the ring to a chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .eigensolvers import (
    DEFAULT_SEED,
    degenerate_with,
    dense_spectrum,
    lowest_level,
    refuse_dense,
    sectored_ground_state,
)
from .hamiltonians import (
    Arc,
    SpinSystem,
    build_hamiltonian,
    cut,
    defected_ring,
    site_classes,
    site_maps,
)
from .operators import (
    ProductBasis,
    heisenberg_matrix,
    parse_spin,
    raising,
    spin_str,
    symmetry_orbits,
)
from .scf import bipartition_report, map_jobs


@dataclass
class ThresholdTable:
    """E_0 and the per-site costs E_bs^k - E_0 of one substitution."""

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
    """E_bs^k: minimum biseparable energy when only site k is factored out,
    the minimum of the cut Arc(k, 1) (``bipartition_report``): the ground
    energy of the remaining sites with k's neighbours dressed by the field
    s_k of a fully polarized spin k.
    """
    return bipartition_report(system, Arc(k, 1), seed).result.ebs


def threshold_table(system: SpinSystem, seed: int = DEFAULT_SEED) -> list:
    """E_bs^k of every site k, in site order.  Each symmetry class of sites
    is solved once and shares that value."""
    classes = site_classes(system)
    ebs = {rep: single_site_threshold(system, rep, seed=seed)
           for rep in sorted(set(classes))}
    return [ebs[rep] for rep in classes]


def defect_table(system: SpinSystem, defect_site: int, defect_spin,
                 label=None, seed: int = DEFAULT_SEED) -> ThresholdTable:
    """Threshold table of the homogeneous ring `system` with the spin at
    `defect_site` replaced by s_M = `defect_spin`, labelled "s_M=..." unless
    a label is given; its entries are by original ring position.

    A spinless substitution contributes a zero-cost entry at the defect site
    (a spin-0 site is in a product state with everything) and the open-chain
    thresholds for the remaining sites.
    """
    sm_two = parse_spin(defect_spin)
    defected, site_labels = defected_ring(system, defect_site, defect_spin)
    e0 = float(ground_energy(defected, seed=seed))
    entries = [(site, ebs, ebs - e0) for site, ebs in
               zip(site_labels, threshold_table(defected, seed=seed))]
    if sm_two == 0:
        entries.append((defect_site, e0, 0.0))
    return ThresholdTable(f"s_M={spin_str(sm_two)}" if label is None else label,
                          e0, sorted(entries))


def defect_series(system: SpinSystem, defect_site: int, defect_spins,
                  labels=None, seed: int = DEFAULT_SEED, workers: int = 1) -> list:
    """``defect_table`` of each s_M in `defect_spins`, labelled by the
    matching entry of `labels` when given, over `workers` processes."""
    jobs = [(system, defect_site, sm, None if labels is None else labels[i], seed)
            for i, sm in enumerate(defect_spins)]
    return map_jobs(defect_table, jobs, workers)


def verdict(measured_energy: float, thresholds, global_ebs: float) -> Verdict:
    """Entanglement certified by a measured exchange energy, given the
    thresholds E_bs^k of ``threshold_table``.

    Site k is certified entangled with the rest iff the energy lies strictly
    below E_bs^k; the full N-partite statement needs energy below the global
    biseparable minimum.  At or above max_k E_bs^k nothing can be concluded.
    """
    sites = [k for k, e in enumerate(thresholds) if measured_energy < e]
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
    splus = raising(basis, range(basis.n_sites))
    e0, _, cols = lowest_level((splus.T @ splus).toarray())  # S^2 at M = 0
    if not degenerate_with(0.0, e0):
        return None
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
    h = build_hamiltonian(system, sites=sites_a + sites_b).matrix
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


def _symmetry_blocks(n_k: int, reflection: bool) -> list:
    """(columns, copies) of each symmetry block of an Sz sector: copies is how
    often its spectrum occurs, and each column (w, c) of an orbit of
    representative a is sum over r, f of w[f, r] T^r P^f |a> / N.

    At k = 2 pi kappa / L = 0 and pi the columns are real, one per parity p.
    With a reflection, k and -k (0 < k < pi) form one two-dimensional irrep:
    its p = +1 columns are Sandvik's semi-momentum states cos(k r) (1 + P)
    and sin(k r) (P - 1), both real, and the p = -1 block repeats their
    spectrum.  Without one, each such k is a complex Bloch block and -k
    repeats it.  H commutes with the group, so an element of the block is
    <column'| H |column> = (c[0] <column'| H |a> + c[1] <column'| H |T^-1 a>) / N.
    """
    r = np.arange(n_k)
    order = n_k * (2 if reflection else 1)
    blocks = []
    for kappa in range(n_k // 2 + 1):
        k = 2 * np.pi * kappa / n_k
        cos, sin = np.cos(k * r), np.sin(k * r)
        if 2 * kappa % n_k == 0:
            blocks += ([([(np.array([cos, p * cos]), (order, 0))], 1) for p in (1, -1)]
                       if reflection else [([(cos[None], (order, 0))], 1)])
        elif reflection:
            # <column'| H |sin column> takes (T - cos k) column' / sin k, the
            # partner of column' in the p = -1 block, and T on a gives T^-1 a
            blocks.append(([(np.array([cos, cos]), (n_k, 0)),
                            (np.array([-sin, sin]),
                             (-n_k * np.cos(k) / np.sin(k), n_k / np.sin(k)))], 2))
        else:
            blocks.append(([(np.exp(1j * k * r)[None], (order, 0))], 2))
    return blocks


def _block_isometry(blocks, images, fixed, dim: int):
    """The columns of one sector's symmetry blocks, block after block.

    images[f, r, i] is the index of T^r P^f |a_i> for the sector's
    representatives a_i; fixed[i] is true where some T^r P fixes a_i.  Each
    column sums its weights over the whole group, stabilizer included, and
    is normalized; one that cancels (an orbit without that momentum or
    parity) is dropped, as is the second of a semi-momentum pair where a
    reflection fixes a_i, for then the two are parallel.  Returns the
    (dim x columns) matrix Q, the number of columns of each block, and per
    column its representative and its coefficients c / N.
    """
    weights = np.array([w for columns, _ in blocks for w, _ in columns])
    coefs = np.array([c for columns, _ in blocks for _, c in columns])
    shape = weights.shape + (images.shape[-1],)
    cols = np.arange(shape[0] * shape[-1]).reshape(shape[0], 1, 1, shape[-1])
    u = sp.csc_matrix((np.broadcast_to(weights[..., None], shape).ravel(),
                       (np.broadcast_to(images, shape).ravel(),
                        np.broadcast_to(cols, shape).ravel())),
                      shape=(dim, shape[0] * shape[-1]))
    u.data[np.abs(u.data) < 1e-9] = 0  # cancelled to rounding
    u.eliminate_zeros()
    norm = np.sqrt(np.asarray(abs(u).power(2).sum(axis=0)).ravel())
    keep = (norm > 0).reshape(shape[0], shape[-1])  # per column kind and orbit
    sizes, c = [], 0
    for columns, _ in blocks:
        if len(columns) == 2:
            keep[c + 1] &= ~(fixed & keep[c])
        sizes.append(int(keep[c:c + len(columns)].sum()))
        c += len(columns)
    column, rep = np.nonzero(keep)
    keep = keep.ravel()
    scale = 1 / norm[keep]
    q = u[:, keep]
    q.data *= np.repeat(scale, np.diff(q.indptr))
    return q, sizes, rep, coefs[column] * scale[:, None]


def full_spectrum(system: SpinSystem) -> np.ndarray:
    """Complete spectrum, ascending, from Sz x symmetry blocks.

    The symmetries are the system's site maps (``site_maps``): the rotations
    T^r, r < L (L = 1 on a chain or a ring with a defect), and, where the
    spins allow one, the reflections T^r P.  H is real and spin-flip
    symmetric, so 2M and -2M share a spectrum and only 2M >= 0 is solved.
    Each sector splits into blocks labelled (k, p) (``_symmetry_blocks``),
    real wherever the system has a reflection.  The product space is
    enumerated once, its orbits found once, and every block is sized from
    them and checked against the dense limit before H is assembled, once.
    A block's elements need H only on the representatives a and T^-1 a:
    one sparse product per sector gives them all.
    """
    rotations, reflections = site_maps(system)
    n_k = len(rotations)
    basis = ProductBasis(system.site_two_s)
    reps, images = symmetry_orbits(basis, rotations, reflections)
    blocks = _symmetry_blocks(n_k, bool(reflections))
    rep_two_m = basis.two_m[reps].sum(axis=1)
    fixed = (images[1:] == reps).any(axis=(0, 1))
    sectors = []
    for two_m in np.unique(rep_two_m[rep_two_m >= 0]).tolist():
        own = rep_two_m == two_m
        iso = _block_isometry(blocks, images[:, :, own], fixed[own], basis.dim)
        for size in iso[1]:
            refuse_dense(size)
        # H on a, then on T^-1 a: <column| H |a> = (H Q)[a, column]
        # (a complex Q gives the block of -k, whose spectrum is the same)
        sectors.append((two_m, images[0, [0, -1] if n_k > 2 else [0]][:, own], iso))
    mat = heisenberg_matrix(basis, system.bonds())
    pieces = []
    for two_m, x, (q, sizes, rep, coef) in sectors:
        hq = mat[x.ravel()] @ q
        stop = 0
        for size, (_, copies) in zip(sizes, blocks):
            a, c = rep[stop:stop + size], coef[stop:stop + size]
            sub = hq[:, stop:stop + size]
            # scaled while sparse: dense_spectrum makes the one dense copy
            block = sub[a].multiply(c[:, :1])
            if np.any(c[:, 1]):
                block += sub[a + x.shape[1]].multiply(c[:, 1:])
            pieces += [dense_spectrum(block)] * copies * (2 if two_m else 1)
            stop += size
    return np.sort(np.concatenate(pieces))


def thermal_energy(spectrum: np.ndarray, temperature: float) -> float:
    """Canonical <H>_T over a complete spectrum (k_B = 1, T in units of J);
    at T = 0 its limit, the lowest level."""
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    e = np.asarray(spectrum, dtype=float)
    if temperature == 0:
        return float(e.min())
    w = np.exp(-(e - e.min()) / temperature)
    return float((e * w).sum() / w.sum())


def threshold_temperature(spectrum: np.ndarray, ebs: float) -> float:
    """Temperature T* at which <H>_T crosses a biseparable threshold.

    <H>_T increases monotonically in T, so the root is unique; found by
    bisection to |<H>_T - ebs| < 1e-10, searched up to T = 1e6, in units of J.
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
