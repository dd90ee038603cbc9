"""recurlab: exact-arithmetic experiments with almost-rigid operators.

The package builds a family of isometry-like operators on truncated
sequence spaces whose return-time behaviour splits sharply by tuple size:
below the fold parameter, simultaneous approximate returns exist along an
explicit lattice of times; at the fold parameter plus one, the basis tuple
never comes back.  Natural-number set utilities, density profiles and
report writers round out the toolbox.

The namespace is lazy (PEP 562): `import recurlab` loads no submodule, and a
public name is read from its home module on every access, uncached, so set
analytics never load numpy and a patched module attribute shows through.
"""

import importlib

__version__ = "0.1.0"

# each home module and the public names it defines, space-separated
_EXPORTS = {
    "natset": """ArithmeticProgression DeltaOf DensityReport Explicit IntersectionOf
        IpClosure Multiples NatSet NatSetError PeriodClassification RecurlabError
        RotationReturn UnionOf classify_period_by_density density_profile detect_period
        window_pair_witness""",
    "opcore": """SUP Applied BlockPermutationIsometry Diagonal OpcoreError Vec
        WeightedBackwardShift basis_vec diagonal_rotation displacements distance
        dyadic_comb krylov_rank stack vec_of zero_vec""",
    "perturbed_rotation": """DEFAULT_MESH ConstructionError FunctionalGrid GridEntry
        GridResolutionError ModulusLadder PerturbedRotation RigidityDefect ScanReport
        WitnessPoint annihilating_functional build_functional_grid build_modulus_ladder
        build_operator lattice_candidates non_recurrence_scan quantize_head_functional
        recurrence_witness rigidity_defects""",
    "dynamics": """DynamicsError InclusionReport QrFailure QrWitness
        commutant_return_inclusion orbit_returns polynomial_apply quasi_rigidity_search
        return_set""",
    "report": """atomic_write_text descriptor_hash line_plot_svg make_record write_csv
        write_json write_svg""",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
