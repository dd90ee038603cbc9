"""recurlab: exact-arithmetic experiments with almost-rigid operators.

The package builds a family of isometry-like operators on truncated
sequence spaces whose return-time behaviour splits sharply by tuple size:
below the fold parameter, simultaneous approximate returns exist along an
explicit lattice of times; at the fold parameter plus one, the basis tuple
never comes back.  Natural-number set utilities, density profiles and
report writers round out the toolbox.
"""

from .natset import (ArithmeticProgression, DeltaOf, DensityReport, Explicit,
                     IntersectionOf, IpClosure, Multiples, NatSet, NatSetError,
                     RotationReturn, UnionOf, density_profile, window_pair_witness)
from .opcore import (SUP, Applied, BlockPermutationIsometry, Diagonal,
                     OpcoreError, Vec, WeightedBackwardShift,
                     basis_vec, diagonal_rotation, distance, dyadic_comb,
                     krylov_rank, stack, vec_of, zero_vec)
from .perturbed_rotation import (DEFAULT_MESH, ConstructionError,
                                 FunctionalGrid, GridEntry, GridResolutionError,
                                 ModulusLadder, PerturbedRotation, RigidityDefect,
                                 ScanReport, WitnessPoint, annihilating_functional,
                                 build_functional_grid, build_modulus_ladder,
                                 build_operator, lattice_candidates, non_recurrence_scan,
                                 quantize_head_functional, recurrence_witness,
                                 rigidity_defect)
from .dynamics import (DynamicsError, InclusionReport, PeriodClassification,
                       QrFailure, QrWitness, classify_period_by_density,
                       commutant_return_inclusion, detect_period, displacements,
                       orbit_returns, polynomial_apply, quasi_rigidity_search, return_set)
from .report import (atomic_write_text, descriptor_hash, line_plot_svg,
                     make_record, write_csv, write_json, write_svg)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticProgression", "DeltaOf", "DensityReport", "Explicit",
    "IntersectionOf", "IpClosure", "Multiples", "NatSet", "NatSetError",
    "RotationReturn", "UnionOf", "density_profile", "window_pair_witness",
    "SUP", "Applied", "BlockPermutationIsometry", "Diagonal",
    "OpcoreError", "Vec", "WeightedBackwardShift", "basis_vec",
    "diagonal_rotation", "distance", "dyadic_comb", "krylov_rank", "stack",
    "vec_of", "zero_vec",
    "DEFAULT_MESH", "ConstructionError", "FunctionalGrid",
    "GridEntry", "GridResolutionError", "ModulusLadder", "PerturbedRotation",
    "RigidityDefect", "ScanReport", "WitnessPoint", "annihilating_functional",
    "build_functional_grid", "build_modulus_ladder", "build_operator",
    "lattice_candidates", "non_recurrence_scan",
    "quantize_head_functional", "recurrence_witness", "rigidity_defect",
    "DynamicsError", "InclusionReport", "PeriodClassification", "QrFailure",
    "QrWitness", "classify_period_by_density",
    "commutant_return_inclusion", "detect_period", "displacements", "orbit_returns",
    "polynomial_apply", "quasi_rigidity_search", "return_set",
    "atomic_write_text", "descriptor_hash", "line_plot_svg", "make_record",
    "write_csv", "write_json", "write_svg",
    "__version__",
]
