"""Persistent homology of Euclidean point clouds.

Builds Vietoris-Rips, Delaunay-Rips, and Alpha filtrations on point clouds
in R^2/R^3, computes persistence diagrams by native Z2 boundary-matrix
reduction, and provides diagram metrics (exact bottleneck distance),
vectorizations (persistence images and statistics), and synthetic data
generators, all behind one CLI.
"""

from .core import Filtration, PersistenceDiagram, PointCloud, sort_filtration
from .datagen import ShapeClass, add_noise, near_cocircular_quad, sample_shape
from .delaunay import DelaunayComplex, delaunay
from .filtration import (FiltrationSpec, build, build_alpha,
                         build_delaunay_rips, build_rips)
from .geometry import (PerturbationPairing, epsilon_perturb,
                       hausdorff_distance, same_triangulation)
from .metrics import Matching, bottleneck
from .persistence import (BoundaryMatrix, ReducedMatrix, boundary_matrix,
                          compute_diagram, extract_pairs, reduce_standard,
                          reduce_twist)
from .vectorize import (PIGrid, delay_embed, fit_pi_grid, persistence_image,
                        persistence_stats, persistent_entropy,
                        stats_feature_vector)

__version__ = "0.1.0"

__all__ = [
    "Filtration", "PersistenceDiagram", "PointCloud", "sort_filtration",
    "ShapeClass", "add_noise", "near_cocircular_quad", "sample_shape",
    "DelaunayComplex", "delaunay", "FiltrationSpec", "build", "build_alpha",
    "build_delaunay_rips", "build_rips", "PerturbationPairing",
    "epsilon_perturb", "hausdorff_distance", "same_triangulation", "Matching",
    "bottleneck", "BoundaryMatrix", "ReducedMatrix", "boundary_matrix",
    "compute_diagram", "extract_pairs", "reduce_standard", "reduce_twist",
    "PIGrid", "delay_embed", "fit_pi_grid", "persistence_image",
    "persistence_stats", "persistent_entropy", "stats_feature_vector",
    "__version__",
]
