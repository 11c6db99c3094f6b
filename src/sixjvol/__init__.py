"""Quantum 6j-symbols at odd roots of unity and hyperbolic volumes.

The library evaluates quantum 6j-symbols at q = e^{2 pi i / r} (r odd)
in a log-magnitude representation, classifies six-tuples of dihedral
angles by the signature of their Gram matrix, reconstructs generalized
hyperbolic tetrahedra in the Minkowski model (with truncation of
hyperideal vertices and signed edge lengths), computes their volumes by
two independent dilogarithm/Lobachevsky routes, and checks the
asymptotic growth of 6j-symbols and prism brackets against those
volumes.

Submodules load on first use (PEP 562): `import sixjvol` imports no
submodule and not numpy, and the first use of a name in `__all__`, or of
a submodule as an attribute, imports that submodule and binds its public
names here.
"""

import importlib

# submodule -> the public names the package re-exports from it
_EXPORTS = {
    "gram": (
        "DEFAULT_TOL", "AlphaSixTuple", "AngleSixTuple", "GeometryClass",
        "GeometryTag", "GramMatrix", "Signature", "admissible",
        "change_angles_opposite_vertex", "classify", "cofactor",
        "cofactor_matrix", "gram_cache_info", "gram_from_alpha",
        "gram_from_angles", "sample_admissible_alpha",
        "sample_hyperbolic_alpha", "signature", "strictly_admissible"),
    "graphs": (
        "BlowUpGraph", "PrismCheck", "PrismSpec", "bracket_blowup",
        "prism_colors_for_r", "prism_conjecture_check", "prism_graph",
        "prism_volume"),
    "growth": (
        "GrowthFit", "GrowthPlan", "GrowthSample", "LevelSkipped",
        "asymp2_log_prediction", "colors_for_r", "fit_growth",
        "growth_series"),
    "qnum": (
        "TABLE_CACHE_BYTES", "LevelTables", "OddLevel", "QuarterPhaseLog",
        "TableCacheInfo", "level_tables", "log_brace_factorial",
        "log_quantum_factorial", "quantum_integer", "table_cache_info"),
    "sixj": (
        "FACE_TRIPLES", "OPPOSITE_PAIRS", "QUAD_MOVES", "VERTEX_TRIPLES",
        "ColorSixTuple", "ColorTriple", "SumBounds", "big_colors",
        "canonicalize", "change_colors_face", "change_colors_quad",
        "delta_triple", "is_admissible_triple", "is_admissible_tuple",
        "sixj_exact_small", "sixj_log", "tuple_of"),
    "tetra": (
        "CaseLabel", "DistanceKind", "EdgeDistance", "GeneralizedTetrahedron",
        "SegmentSide", "VertexType", "case_label", "distance", "edge_length",
        "edge_length_tuple", "minkowski_dot", "reconstruct", "segment_side",
        "vertex_type"),
    "volfun": (
        "CriticalData", "MaxResult", "TauEta", "big_V", "critical_xi",
        "delta_vertex", "lobachevsky", "schlafli_residual", "tau_eta",
        "volume", "volume_by_max"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    # bound here, later lookups of any of these names skip this hook
    for export in _EXPORTS[module]:
        globals()[export] = getattr(mod, export)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
