"""Cohomology of finite cover models.

Local cochains on diagonal neighborhoods, the page bicomplex tying them to
the nerve, explicit contraction homotopies, exact Betti/torsion profiles,
simplex fillers over contractible carriers, and sampled partition-of-unity
constructions, all verifiable at desk scale.
"""

__version__ = "0.1.0"

from .errors import (AcyclicityError, BudgetError, CoefficientError,
                     DomainError, LoccoError, ModelError, SupportError,
                     UncoveredSampleError)
from .model import (CoverModel, Nerve, TupleSet, arc, enumeration_budget,
                    left_invariant_cover, load_model, model_from_json_dict,
                    shrink_relation_check)
from .coeff import (CoefficientSystem, Integers, PrimeField, Rationals,
                    RealVectors, parse_system)
from .cochains import (CechPage, LocalCochain, SimplicialCochain,
                       cech_coboundary, evaluate_alternating,
                       local_cochain_from_json, local_differential,
                       page_vertical_differential, permutation_sign,
                       random_local_cochain, simplicial_coboundary,
                       smallest_point, standard_column_contraction,
                       standard_differential, vertex_pullback)
from .bicomplex import (PartitionFamily, TotalCochain, approximate_row_contraction,
                        augment_cech, augment_local, contraction_defect,
                        family_from_json, first_hit_family, random_page,
                        random_unity_family, row_contraction,
                        row_contraction_to_local, scale_page_by_weight_sum,
                        sigma_row_contraction, total_differential,
                        total_from_page, uniform_unity_family)
from .homology import (AugmentedColumnSpec, AugmentedRowSpec, BoundaryMatrix,
                       CechComplexSpec, ComplexSpec, LocalComplexSpec,
                       SimplicialComplexSpec, SmithDecomposition,
                       TotalComplexSpec, assemble_matrix, block_profiles,
                       check_smith_certificate, cohomology_profile,
                       field_cohomology, integer_cohomology, kernel_basis,
                       matrix_rank, rank_in_quotient, smith_normal_form)
from .compare import (AcyclicityStatus, ComparisonReport, colimit_scan,
                      is_acyclic, model_hash, random_cover_model,
                      verify_lambda_iso, verify_local_vs_cech)
from .loopfill import (CheckReport, LoopContraction, SampledPath, edge_fill,
                       linear_combination, linear_contraction, path_battery,
                       path_from_function, path_group_contraction,
                       path_loop_contraction, sigma_fill, vector_battery)
from .pou import (SampledDomain, ScalarFamily, arc_cover_family, ball_family,
                  bump, circle_domain, group_tuple_domain, layered_family,
                  numerability_rescue, plateau_family, plateau_partition,
                  product_family, refines_supports, rescue_partition,
                  shrunken_tuples)
