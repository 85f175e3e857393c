"""Exact diagonalization of qubit-ring Hamiltonians with entanglement and
density-of-states diagnostics."""

__version__ = "0.1.0"

from .pauli import (
    PauliString,
    PhasedString,
    multiply,
)
from .hamiltonians import (
    OperatorSum,
    build_ba,
    build_exyz,
    normalize,
    sample_random,
)
from .spectra import (
    EigenDecomposition,
    diagonalize_dense,
    min_gap,
)
from .symmetry import (
    MomentumSector,
    build_momentum_basis,
    joint_eigenbasis,
)
from .entanglement import (
    build_M,
    epsilon_fraction,
    pair_only_checks,
    sector_purities,
)
from .free_fermion import (
    FreeFermionModes,
    collect_spectrum,
    min_gap_scan,
    mode_energies,
    spectrum_sum_set,
)
from .dos import (
    EmpiricalDistribution,
    ba_prediction,
    ba_prediction_printed,
    block_link_split,
    clt_bound_check,
    ks_distance,
    lyapunov_quantities,
    moments,
    power_sums,
    ring_moments,
)

__all__ = [name for name in dir() if not name.startswith("_")]
