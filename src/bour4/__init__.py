"""Spacelike helicoidal and rotational surfaces in Minkowski 4-space.

The package computes first/second fundamental forms, mean curvature vectors,
Gauss curvature and Gauss maps (as unit 2-vectors) for the three spacelike
helicoidal families, constructs the isometric rotational partner of each, and
checks isometry, shared-Gauss-map, minimality and hyperplanarity claims
numerically against a generic finite-difference/jet oracle.
"""

from .bour import (BourGauge, PairReport, PairTolerances, bernoulli_residual,
                   bour_partner, choose_vbar_sign, constraint_rhs,
                   gauge_complete, gauss_residual, isometry_residual,
                   minimal_pair_identity_residual, natural_gauge, pair_report,
                   parallel_curve_residual, same_gauss_pair_I,
                   same_gauss_pair_II, scale_gauge)
from .errors import (Bour4Error, DegenerateSurfaceError, EvalDomainError,
                     ExprSyntaxError, FrameFailureError, InfeasibleGaugeError,
                     NonFiniteError, NotSpacelikeError, NumericalError,
                     QuadratureError, UnknownIdentifierError, ValidationError)
from .expressions import Expr, eval_jet, parse, to_source
from .families import (HelicoidSpec, ProfileFn, RotationalSpec, SurfaceKind,
                       closed_form_curvatures, closed_form_frame,
                       closed_form_gauss, closed_form_metric, const_profile,
                       expr_profile, helicoid_from_json, helicoid_jet,
                       helicoid_to_json, is_constant_profile, make_helicoid,
                       profile_jets)
from .grids import Grid, grid_for
from .jets import Jet2
from .lorentz import (BIVECTOR_SIGNATURE, Bivector6, CausalClass, Vec4,
                      bivector_dot, causal_character, minkowski_dot,
                      pseudo_to_standard, standard_to_pseudo, wedge)
from .meshes import MeshGrid, sample_mesh, write_csv, write_obj
from .quadrature import Antiderivative, integrate
from .surfaces import (CurvatureReport, FirstForm, Frame, SurfaceJet,
                       curvature_report, first_form, gauss_map, numeric_jet,
                       orthonormal_frame)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
