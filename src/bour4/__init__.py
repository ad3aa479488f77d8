"""Spacelike helicoidal and rotational surfaces in Minkowski 4-space.

The package computes first/second fundamental forms, mean curvature vectors,
Gauss curvature and Gauss maps (as unit 2-vectors) for the three spacelike
helicoidal families, constructs the isometric rotational partner of each, and
checks isometry, shared-Gauss-map, minimality and hyperplanarity claims
numerically against a generic finite-difference/jet oracle.
"""

from importlib import import_module as _import_module

#: Submodule -> its public names; each loads on first use, so `import bour4` loads no numpy.
_EXPORTS = {
    "bour": ("BourGauge", "PairReport", "PairTolerances", "bernoulli_residual", "bour_partner",
             "constraint_rhs", "gauge_complete", "gauss_residual", "isometry_residual",
             "minimal_pair_identity_residual", "natural_gauge", "pair_report",
             "parallel_curve_residual", "same_gauss_pair_I", "same_gauss_pair_II", "scale_gauge"),
    "errors": ("Bour4Error", "DegenerateSurfaceError", "EvalDomainError", "ExprSyntaxError",
               "FrameFailureError", "InfeasibleGaugeError", "NonFiniteError", "NotSpacelikeError",
               "NumericalError", "QuadratureError", "UnknownIdentifierError", "ValidationError"),
    "expressions": ("Expr", "eval_jet", "parse", "to_source"),
    "families": ("HelicoidSpec", "ProfileFn", "RotationalSpec", "SurfaceKind",
                 "closed_form_curvatures", "closed_form_frame", "closed_form_gauss",
                 "closed_form_metric", "const_profile", "expr_profile", "helicoid_from_json",
                 "helicoid_jet", "helicoid_to_json", "is_constant_profile", "make_helicoid",
                 "profile_jets"),
    "grids": ("Grid", "grid_for"),
    "jets": ("Jet2",),
    "lorentz": ("BIVECTOR_SIGNATURE", "Bivector6", "CausalClass", "Vec4", "bivector_dot",
                "causal_character", "minkowski_dot", "pseudo_to_standard", "standard_to_pseudo",
                "wedge"),
    "meshes": ("sample_mesh", "write_csv", "write_obj"),
    "quadrature": ("Antiderivative", "integrate"),
    "surfaces": ("CurvatureReport", "FirstForm", "Frame", "SurfaceJet", "curvature_report",
                 "first_form", "gauss_map", "numeric_jet", "orthonormal_frame"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
