"""Velocity-dependent horizontal/vertical decompositions of fibred-space
tangent vectors: classification, induced and subduced structures, symmetry
reduction, and constrained dynamics.

The public surface re-exports the chart/point types, the splitting
calculus, Lagrangian machinery, reduction tools, and the config loader.
Everything is plain Python: compiled expressions evaluate their jets
through straight-line code generated once per expression, and points,
trajectories, sampled maxima and Jet2's derivatives are lists of floats,
and the package has no runtime dependency.
"""

from .bundle import (BundleChart, DerivedField, PullbackPoint,
                     SecondTangentPoint, TangentPointM, VectorField,
                     canonical_flip, complete_lift, lie_bracket, mu,
                     tangent_map, vertical_endomorphism, vertical_lift)
from .config import ModelConfig, load_config
from .errors import (ArityError, BasePointMismatch, BranchAmbiguity,
                     DimensionMismatch, DomainError, ExprSyntaxError,
                     FibresplitError, FlowEscape, HypothesisFailed,
                     NoConvergence, NonFiniteState, NotAffine, NotPrincipal,
                     NotSubducible, NotWellDefined, ParseError,
                     SingularHessian, SingularMatrix, UnknownIdentifier)
from .exprs import (VarContext, compile_field, fold_constants, parse,
                    substitute, to_string)
from .jets import Jet2, ScalarField, TapeField
from .lagrangian import (InducedSplitting, LagrangianSpec, SodeSpec,
                         euler_lagrange_sode, fibre_regularity,
                         homogeneity_of_induced, induced_splitting,
                         integrate_sode, liouville_derivative,
                         projection_verify, subduce,
                         symmetry_condition_check, tangency_check)
from .nonholonomic import (ConstrainedLagrangianField, ConstrainedSystem,
                           integrate_constrained)
from .numerics import (TrajectoryRecord, linear_solve, newton_solve,
                       rk4_integrate)
from .reduction import (ActionSpec, MagneticModel, MagneticSystem,
                        connection_test_domega, decoupling_check,
                        integrate_magnetic, invariance_check,
                        magnetic_induced_splitting, momentum_map, omega,
                        principal_check, unreduce, vilms_of_sode,
                        vilms_principal_check, xi_field)
from .splitting import (AffineSplittingData, SplittingSpec,
                        affine_curvature_coefficients, affine_decompose,
                        classify, curvature_pointwise, curvature_rbar,
                        horizontal_lift_curve, lifted_field,
                        project_horizontal, project_vertical,
                        vilms_complete_lift_check, vilms_horizontal,
                        vilms_lift, vilms_vertical_projector)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
