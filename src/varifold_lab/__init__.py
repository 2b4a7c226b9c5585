"""Discrete varifold toolbox: meshes with junctions, bending energy, densities,
spherical links, geodesic nets, and boundary conormal integrals.

Importing the package loads no submodule and not NumPy. Each submodule is
registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and runs
when one of its attributes is first read, so a CLI command loads only what it
uses; registering them at once, rather than on first ``__getattr__``, keeps
``sys.modules["varifold_lab.<module>"]`` complete for code that wraps module
attributes right after ``import varifold_lab`` (the benchmark's tracer). The
public names below resolve through ``__getattr__`` (PEP 562) and are not
cached here, so every read sees the submodule's current binding.
"""

import importlib.util
import sys

#: Each public name's home module; ``__all__`` and ``__getattr__`` read this table.
_EXPORTS = {
    "boundary": ("BoundaryDatum", "CircleSpec", "admissibility_check", "circle_conormal_integral",
                 "circle_conormal_integral_quad", "load_datum", "make_datum", "save_datum",
                 "sup_conormal_integral"),
    "curvature": ("enclosed_volume", "euler_characteristic", "helfrich_energy", "mean_curvature",
                  "second_fundamental_norm", "willmore_energy"),
    "blowup": ("ball_mass_ladder", "classify_density", "density", "li_yau_check", "monotonicity_check",
               "spherical_link"),
    "generators": ("GENERATORS", "gen_branched_patch", "gen_cap", "gen_double_bubble",
                   "gen_double_bubble_flat", "gen_flat_disk", "gen_singular_pair", "gen_sphere",
                   "gen_torus", "gen_triple_bubble"),
    "mesh": ("DiscreteVarifold", "MeshError", "boundary_measure", "edge_topology", "load_mesh_file",
             "make_varifold", "refine", "save_varifold", "total_mass"),
    "netmatch": ("NetError", "match_link"),
    "nets": ("GeodesicNet", "balance_residual", "catalogue", "load_net", "make_net", "relax", "save_net",
             "total_length"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME) + ["__version__"]


def _register(name: str):
    """``varifold_lab.<name>``, in ``sys.modules`` but not run until an attribute is read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in ("reports", "_kernels", *_EXPORTS)})


def __getattr__(name: str):
    if name == "__version__":
        return globals()["reports"].TOOL_VERSION
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
