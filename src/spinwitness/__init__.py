"""Energy-based multipartite entanglement witnesses for Heisenberg spin rings.

The exchange Hamiltonian itself acts as the witness: any measured energy
below the biseparable minimum E_bs certifies genuine multipartite
entanglement, and per-site thresholds E_bs^k certify entanglement between an
individual spin and the rest of the system.
"""

__version__ = "0.1.0"

from .eigensolvers import (
    GroundStateResult,
    SolverError,
    dense_spectrum,
    ground_state,
    lanczos_ground,
    sectored_ground_state,
)
from .hamiltonians import (
    Arc,
    SpinSystem,
    build_hamiltonian,
    defected_ring,
)
from .operators import (
    LocalSpinMatrices,
    ProductBasis,
    SparseHermitianOperator,
    local_spin_matrices,
    parse_spin,
    spin_str,
)
from .scf import (
    BoundaryGeometry,
    BoundaryPair,
    ScfError,
    ScfResult,
    biseparable_minimum,
    biseparable_scan,
    boundary_geometry,
    boundary_map,
)
from .witness import (
    ThresholdTable,
    Verdict,
    defect_series,
    eta_s,
    f_factor,
    full_spectrum,
    ground_energy,
    single_site_threshold,
    thermal_energy,
    threshold_table,
    threshold_temperature,
    verdict,
    verify_not_eigenstate,
)
