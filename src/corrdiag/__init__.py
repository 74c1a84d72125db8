"""Spectral statistics of symmetric random matrices with correlated diagonals."""

__version__ = "0.1.0"

import os

# one BLAS thread, so ensemble CSVs keep their bytes on any core count; a
# caller who set the variable, or imported NumPy first, keeps its setting
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curie_weiss import (
    limiting_correlation,
    magnetization_levels,
    pair_correlation,
    sample_spins,
    spontaneous_magnetization,
)
from .moments import MomentValue, catalan, closed_form_moments, limiting_moment
from .oracle import (
    census_report,
    check_excess_crossing_decay,
    check_cell_bound,
    check_sn_minus_snstar_decay,
    walk_census,
)
from .partitions import (
    PairPartition,
    enumerate_pair_partitions,
    height,
    is_crossing,
)
from .sampler import (
    CurieWeiss,
    Equicorrelated,
    Independent,
    Toeplitz,
    build_matrix,
    child_seed,
    sample_diagonal,
    validate_conditions,
)
from .spectra import (
    EnsembleStats,
    concentration_probe,
    eigenvalues_symmetric,
    empirical_moments,
    run_ensemble,
    trace_moment_direct,
)
from .volumes import (
    VolumeEstimate,
    exact_volume,
    solve_partition_system,
    toeplitz_volume,
)

__all__ = [
    "PairPartition",
    "enumerate_pair_partitions",
    "is_crossing",
    "height",
    "toeplitz_volume",
    "exact_volume",
    "solve_partition_system",
    "VolumeEstimate",
    "limiting_moment",
    "closed_form_moments",
    "catalan",
    "MomentValue",
    "pair_correlation",
    "limiting_correlation",
    "spontaneous_magnetization",
    "magnetization_levels",
    "sample_spins",
    "Independent",
    "Equicorrelated",
    "CurieWeiss",
    "Toeplitz",
    "sample_diagonal",
    "build_matrix",
    "child_seed",
    "validate_conditions",
    "EnsembleStats",
    "eigenvalues_symmetric",
    "empirical_moments",
    "trace_moment_direct",
    "run_ensemble",
    "concentration_probe",
    "walk_census",
    "check_cell_bound",
    "check_sn_minus_snstar_decay",
    "check_excess_crossing_decay",
    "census_report",
]
