"""Orbit censuses of transvection-style group actions on F2 triangular
matrix spaces, with exact closed-form predictions and the general
graph-driven transvection-group construction.

The namespace is lazy: `import f2orbits` loads neither numpy nor any
submodule, and each name in `__all__` imports its submodule on first
use, so a process that needs only part of the package loads only that
part."""

from importlib import import_module

_EXPORTS = {
    "f2la": ("ArfClass", "BilinearForm", "F2Vector", "QuadraticSpace",
             "SymplecticBasis", "arf", "form_eval", "kernel_basis", "q_eval",
             "symplectic_reduce", "transvect", "value_counts_brute",
             "value_counts_closed"),
    "tri": ("HexGraph", "TriMatrix", "TriShape", "couple", "hex_graph", "pattern_E",
            "pattern_P", "pattern_Ptilde", "pattern_R", "phi", "phi_star", "psi"),
    "actions": ("ActionKind", "ActionSpec", "Generator", "apply", "generators",
                "height_first", "height_second", "psi_height"),
    "lattice": ("DeltaClosure", "Graph", "LatticeSpec", "NonspecialityUnknown",
                "VanishingReport", "build", "check_vanishing", "contains_e6",
                "delta_closure", "e6_graph", "hex_lattice_graph",
                "parse_graph_file", "predict_census_nonspecial"),
    "orbits": ("EnumerationGuardError", "OrbitCensus", "OrbitRecord",
               "enumerate_orbits", "enumerate_stratum", "orbit_of"),
    "classify": ("PredictedCensus", "VerifyReport", "epsilon", "eta_bar", "h_bar",
                 "label_orbits", "predict_first", "predict_second", "sharp",
                 "verify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # `f2orbits.orbits` after a bare `import f2orbits`, as when the
        # package imported its submodules eagerly
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
