"""Exact diagonalization of qubit-ring Hamiltonians with entanglement and
density-of-states diagnostics."""

__version__ = "0.1.0"

from .pauli import (
    PauliString,
    PhasedString,
    StateVector,
    apply,
    expectation,
    multiply,
)
from .hamiltonians import (
    ChainCoefficients,
    InteractionGraph,
    OperatorSum,
    build_ba,
    build_exyz,
    build_general,
    build_invariant,
    build_nn_chain,
    build_pair_only,
    hs_inner,
    normalize,
    sample_random,
)
from .spectra import (
    EigenDecomposition,
    commutator_norm,
    detect_degeneracy,
    diagonalize_dense,
)
from .symmetry import (
    MomentumSector,
    build_momentum_basis,
    joint_eigenbasis,
    translate_index,
    translation_defect,
    translation_permutation,
)
from .entanglement import (
    average_purity,
    build_M,
    epsilon_fraction,
    pair_only_checks,
    pauli_coefficients,
    reduce_contiguous,
    sector_purities,
)
from .free_fermion import (
    FreeFermionModes,
    collect_spectrum,
    min_gap_scan,
    mode_energies,
    resolve_parity_map,
    sector_parity,
    spectrum_sum_set,
)
from .dos import (
    EmpiricalDistribution,
    Histogram,
    ba_prediction,
    ba_prediction_printed,
    block_link_split,
    characteristic_fn,
    clt_bound_check,
    geometry_conditions,
    ks_distance,
    lyapunov_quantities,
    moments,
    power_sums,
)

__all__ = [name for name in dir() if not name.startswith("_")]
