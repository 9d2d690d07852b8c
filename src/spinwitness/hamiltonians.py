"""Heisenberg ring/chain Hamiltonians and their open subsystems.

Energies are in units of J = 1; `SpinSystem.coupling` scales every bond,
including the crossing bonds of a cut.  Sites are indexed 0-based in this
API.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import (
    ProductBasis,
    SparseHermitianOperator,
    heisenberg_matrix,
    parse_spin,
    product_dim,
    spin_str,
)

RING = "ring"
CHAIN = "chain"


@dataclass(frozen=True)
class SpinSystem:
    """A ring or open chain of spins with uniform nearest-neighbour exchange."""

    topology: str
    site_two_s: tuple
    coupling: float = 1.0

    def __post_init__(self):
        if self.topology not in (RING, CHAIN):
            raise ValueError(f"unknown topology {self.topology!r}")
        n = len(self.site_two_s)
        if self.topology == RING and n < 3:
            raise ValueError("a ring needs at least 3 sites")
        if self.topology == CHAIN and n < 2:
            raise ValueError("a chain needs at least 2 sites")
        if self.coupling == 0:
            raise ValueError("coupling must be nonzero: at J = 0 every state "
                             "is a ground state and no energy witnesses anything")
        if any(int(t) <= 0 for t in self.site_two_s):
            raise ValueError("all spins must be > 0; model a spinless defect "
                             "by removing the site (chain topology)")
        product_dim(self.site_two_s)  # refuse a space too large to enumerate

    @classmethod
    def ring(cls, n: int, spin, coupling: float = 1.0) -> "SpinSystem":
        return cls(RING, (parse_spin(spin),) * n, coupling)

    @classmethod
    def chain(cls, n: int, spin, coupling: float = 1.0) -> "SpinSystem":
        return cls(CHAIN, (parse_spin(spin),) * n, coupling)

    @classmethod
    def from_spins(cls, topology: str, spins, coupling: float = 1.0) -> "SpinSystem":
        return cls(topology, tuple(parse_spin(s) for s in spins), coupling)

    @property
    def n_sites(self) -> int:
        return len(self.site_two_s)

    def bonds(self) -> list:
        """Nearest-neighbour bonds as (i, j) pairs, 0-based."""
        n = self.n_sites
        pairs = [(i, i + 1) for i in range(n - 1)]
        if self.topology == RING:
            pairs.append((n - 1, 0))
        return pairs

    def describe(self) -> str:
        spins = {spin_str(t) for t in self.site_two_s}
        tag = spins.pop() if len(spins) == 1 else "mixed"
        return f"{self.topology} N={self.n_sites} s={tag}"


def defected_ring(base: SpinSystem, defect_site: int, defect_spin):
    """A homogeneous ring `base` with one substituted spin; same coupling.

    A spinless substitution (defect_spin = 0) removes the site, leaving an
    open chain.  Returns (system, labels) where labels[i] is the original
    0-based ring position of system site i.
    """
    if base.topology != RING or len(set(base.site_two_s)) != 1:
        raise ValueError("a substitution needs a homogeneous ring")
    n, sub = base.n_sites, parse_spin(defect_spin)
    if not 0 <= defect_site < n:
        raise ValueError("defect site out of range")
    if sub == 0:
        order = [(defect_site + 1 + i) % n for i in range(n - 1)]
        return SpinSystem(CHAIN, base.site_two_s[1:], base.coupling), order
    spins = list(base.site_two_s)
    spins[defect_site] = sub
    return SpinSystem(RING, tuple(spins), base.coupling), list(range(n))


def site_maps(system: SpinSystem):
    """The symmetries of the system, as site maps m (site i goes to m[i]):
    (rotations, reflections), each the maps of a ring, or the reversal of a
    chain, that carry `site_two_s` onto itself (J is uniform, so the spins
    decide).

    The rotations are listed by ascending shift, the identity first, so with
    T = rotations[1] (the shortest one) rotations[r] = T^r; and with
    P = reflections[0], reflections[r] = T^r P.
    """
    n, spins = system.n_sites, system.site_two_s
    if system.topology == RING:
        rotations = [[(r + i) % n for i in range(n)] for r in range(n)]
        reflections = [[(r - i) % n for i in range(n)] for r in range(n)]
    else:
        rotations, reflections = [list(range(n))], [list(range(n - 1, -1, -1))]

    def keep(maps):
        return [m for m in maps if all(spins[m[i]] == spins[i] for i in range(n))]
    return keep(rotations), keep(reflections)


def site_classes(system: SpinSystem) -> list:
    """For each site, the lowest site that a symmetry (`site_maps`) maps it to."""
    rotations, reflections = site_maps(system)
    return [min(m[i] for m in rotations + reflections)
            for i in range(system.n_sites)]


@dataclass(frozen=True)
class Arc:
    """A block of consecutive sites; wraps around rings, never around chains."""

    offset: int
    length: int

    def sites(self, system: SpinSystem) -> list:
        n = system.n_sites
        if not 1 <= self.length <= n - 1:
            raise ValueError("arc length must be in [1, N-1]")
        if not 0 <= self.offset < n:
            raise ValueError("arc offset out of range")
        if system.topology == CHAIN:
            if self.offset + self.length > n:
                raise ValueError("arc must not wrap on a chain")
            return list(range(self.offset, self.offset + self.length))
        return [(self.offset + i) % n for i in range(self.length)]


def cut(system: SpinSystem, arc: Arc):
    """The bipartition A = arc | B = the rest, as (sites_a, sites_b, pairs).

    sites_b lists every other site once, in ring order from the site after
    the arc; on a chain that is the piece after the arc, then the piece
    before it.  pairs are the crossing bonds as (site in A, site in B), the
    one at A's last site first.
    """
    sites_a = arc.sites(system)
    n, end = system.n_sites, arc.offset + arc.length
    sites_b = [(end + i) % n for i in range(n - arc.length)]
    pos_a = {s: i for i, s in enumerate(sites_a)}
    pos_b = {s: i for i, s in enumerate(sites_b)}
    pairs = sorted(((i, j) if i in pos_a else (j, i) for i, j in system.bonds()
                    if (i in pos_a) != (j in pos_a)),
                   key=lambda p: (-pos_a[p[0]], pos_b[p[1]]))
    return sites_a, sites_b, pairs


def build_hamiltonian(system: SpinSystem, sector_two_m: int | None = None,
                      sites=None) -> SparseHermitianOperator:
    """Heisenberg Hamiltonian of the system (N bonds for a ring, N-1 for a
    chain), or of the given `sites` alone: only the bonds with both ends
    inside them, each site renumbered by its place in `sites`."""
    sites = range(system.n_sites) if sites is None else sites
    local = {site: k for k, site in enumerate(sites)}
    basis = ProductBasis([system.site_two_s[i] for i in sites], sector_two_m)
    bonds = [(local[i], local[j]) for i, j in system.bonds()
             if i in local and j in local]
    return SparseHermitianOperator(basis, heisenberg_matrix(basis, bonds,
                                                            system.coupling))


__all__ = [
    "RING", "CHAIN", "SpinSystem", "Arc",
    "defected_ring", "site_maps", "site_classes", "cut",
    "build_hamiltonian",
]
