"""Multiwavelet Besov analysis and boundary-integral experiments on
piecewise-flat closed surfaces."""

__version__ = "0.1.0"

from .surface import (ConeFace, Patch, PolyhedralSurface, ResolutionOfUnity,
                      SurfaceError, fichera_corner, load_surface,
                      quasi_random_points, surface_text, unit_cube)
from .wavelets import (BasisSpec, CoefficientField, WaveletIndex, analyze,
                       classify_index, classify_level, empty_field, haar_basis,
                       level_size, load_field, moment_check, multiwavelet_basis,
                       save_field, synthesize, synthesize_params)
from .spaces import (BesovSpec, adaptivity_tau, besov_level_terms, besov_norm,
                     coarse_lp_norm, critical_line_spec, embedding_predicate,
                     on_critical_line, seq_norm)
from .weighted import (ConstantModel, EdgePowerModel, FiniteDifferenceHandle,
                       VertexPowerModel, WeightedNormDivergence, WeightedSpec,
                       partition_face_derivs, sector_q, weighted_sobolev_norm)
from .approx import (GrowthReport, NTermPlan, RateReport, UniformApprox,
                     alpha_star, assess_growth, best_n_term,
                     boundary_tail_check, cumulative_tail, fit_rate,
                     gamma_star, interior_tail_check, level_tail_sums,
                     n_term_plan, predicted_rate, synth_field, uniform_approx,
                     whitney_check)
from .bem import (DoubleLayerSystem, HarmonicProbe, SolutionReport,
                  SolveReport, analyze_solution, assemble, galerkin_rhs,
                  gauss_check, interior_dirichlet_density, potential_eval,
                  solid_angles, solve)

__all__ = [name for name in dir() if not name.startswith("_")]
