"""Hausdorff vs Gromov-Hausdorff: exact small-instance computation and lower bounds.

The package computes exact Gromov-Hausdorff distances between small finite
metric spaces, evaluates closed-form lower bounds for subsets of model
manifolds (circle, flat torus, Euclidean space), certifies the bound machinery
through Vietoris-Rips/Cech complexes and Z/2 homology, and ships a family of
instances whose GH/Hausdorff ratio is arbitrarily small.
"""

from .bounds import (BoundReport, circle_bound, circle_bound_pair,
                     convexity_bound, convexity_bound_pair, fillrad_bound,
                     fillrad_bound_pair, jung_bound_pair, jung_constant,
                     scale_cap)
from .complexes import (SimplicialComplex, VertexMap, build_cech_circle,
                        build_cech_witness, build_vr, check_contiguous,
                        check_simplicial, compose_maps, inclusion_map,
                        induced_vr_map, subset_projection_map)
from .gh import Correspondence, GHResult, distortion, gh_exact, rigid_incumbent
from .homology import betti_numbers, fundamental_class_survives, vr_persistence_bars
from .manifolds import (AmbientManifold, FiniteMetricSpace, FiniteSubset,
                        circle, covering_radius_circle, covering_radius_witness,
                        cross_distances, euclidean, flat_torus,
                        hausdorff_subsets)
from .ratio import (RatioInstance, RatioReport, apply_cyclic_isometry,
                    as_subsets, build_instance, verify_instance)
from .sampling import (SplitMix64, equispaced_circle, grid_covering_radius,
                       grid_points, uniform_points)

__version__ = "0.1.0"
