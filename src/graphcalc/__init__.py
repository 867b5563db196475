"""Discrete calculus, inequality certificates, and PDE flows on finite weighted graphs.

The public names are loaded lazily (PEP 562): ``import graphcalc`` alone
imports no submodule and no numpy, and each name imports its module on
first access. So a CLI process loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, in the order of __all__.
_PUBLIC = {
    "graph": (
        "WeightedGraph", "VertexFunction", "build_graph", "generate", "d_constant",
        "random_vertex_function", "read_edge_list", "write_edge_list",
        "read_vertex_function", "write_vertex_function",
    ),
    "calculus": (
        "DEFAULT_TOL", "CertificateReport", "laplacian", "grad_sq", "abs_fn", "pos_part",
        "sign_fn", "sign_plus", "d_inner", "mass", "dirichlet_energy", "free_energy",
        "check_kato1", "check_kato2", "check_product_rule",
    ),
    "elliptic": (
        "Potential", "SolverConfig", "SolveReport", "SpectralPair", "ChainCertificate",
        "ChainOutcome", "MaxPrincipleOutcome", "MaxPrincipleResult", "LiouvilleSearchReport",
        "solve_linear_schrodinger", "solve_ginzburg_landau", "verify_gl_bound",
        "check_subsolution", "verify_gradient_estimate", "check_liouville_premises",
        "keller_osserman_chain", "liouville_search", "check_strong_max_principle",
        "spectrum_smallest",
    ),
    "evolution": (
        "EvolutionConfig", "EvolutionScheme", "EvolutionTrace", "MaxPrincipleDiag",
        "evolve_heat", "schrodinger_evolve", "schrodinger_step", "gp_evolve",
        "check_parabolic_max",
    ),
    "errors": (
        "GraphCalcError", "SelfLoopError", "DuplicateEdgeError", "NonPositiveWeightError",
        "DisconnectedError", "DisconnectedDrawError", "BadParamsError", "DomainMismatchError",
        "NonFiniteValueError", "ComplexNotAllowedError", "SingularSystemError",
        "IncompatibleRHSError", "SingularJacobianError", "NotASolutionError",
        "NegativeInputError", "BadStartError", "ConvergenceFailureError",
        "LinearSolveFailureError", "FileFormatError",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (*_PUBLIC, "serialize")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
