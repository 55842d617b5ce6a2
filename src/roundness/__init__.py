"""Generalized roundness and p-negative type of finite metric spaces.

The package root is lazy (PEP 562): `import roundness` loads no submodule
and no numpy, and each name in `__all__` is looked up in its submodule on
every access, not cached here, so `roundness.X` is always the object that
`roundness.<submodule>.X` holds now. Search internals, such as
`metric.power_matrix` or `spectral.eigensym`, are imported from their
submodules. The library never changes the environment of the process that
imports it; the `gr` CLI alone defaults OPENBLAS_NUM_THREADS to 1 (see
`roundness.cli`).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "errors": ("RoundnessError",),
    "graphs": ("Graph", "gen_family", "load_edge_list", "load_solid", "parse_edge_list",
               "path_metric"),
    "hamming": (
        "ClassificationResult",
        "classify_subset",
        "cube_distance_matrix",
        "eigen_identity_check",
        "factor_matrix",
        "factorization_check",
        "lifted_vertex_matrix",
        "null_dimension_check",
        "path_embedding_witness",
        "scan_subsets",
        "sign_matrix",
        "sign_vector",
        "subset_metric",
        "tree_embedding_search",
    ),
    "metric": ("FiniteMetricSpace", "NegativeTypeWitness", "build_metric_space"),
    "negtype": (
        "GrInequalityResult",
        "KernelCoincidenceReport",
        "NegTypeVerdict",
        "RoundnessResult",
        "check_negative_type",
        "generalized_roundness",
        "gr_inequality_check",
        "kernel_coincidence_check",
    ),
    "spectral": ("det_exact", "kernel_basis_exact", "rank_exact"),
}

_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
