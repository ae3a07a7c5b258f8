"""Calculus on finite metric random walk spaces.

A Space couples a finite metric with a row-stochastic jump kernel and a
reversible stationary measure. On top of it the package computes the heat
semigroup, nonlocal set geometry (perimeter, total variation, curvature of
boundaries, Cheeger constant), the spectral gap, two notions of Ricci
curvature (carre-du-champ bounds and coarse transport curvature), exact
optimal transport, and verifiers for the decay and transport inequalities
these quantities satisfy.
"""

__version__ = "0.1.0"

from .core import (
    HypothesisError,
    ScalarField,
    Space,
    StructuralError,
    Subset,
    ValidationReport,
    convolve_kernel,
    propagate_measure,
    restrict_space,
    space_from_json,
    space_to_json,
    validate_space,
)
from .builders import (
    PointCloud,
    WeightedGraph,
    disjoint_union,
    epsilon_step_from_point_cloud,
    fixture,
    from_markov_kernel,
    from_weighted_graph,
    grid_kernel_neumann,
    random_reversible_space,
)
from .heat import HeatTrajectory, apply_laplacian, heat_evolve, heat_trajectory, stationary_limit
from .connectivity import (
    BlockDecomposition,
    ErgodicityResult,
    ReachabilityResult,
    invariant_blocks,
    is_ergodic,
    is_m_connected,
    reachability,
)
from .geometry import (
    CheegerResult,
    cheeger,
    coarea_decompose,
    interaction,
    mean_curvature,
    median_shift,
    min_bipartition_interaction,
    perimeter,
    total_variation,
)
from .spectral import SpectralReport, dirichlet_energy, spectral_gap, variance, verify_poincare_decay
from .curvature import (
    BEResult,
    OllivierResult,
    be_best_constant,
    gamma,
    gamma2,
    gradient_estimate_check,
    kappa_global,
    lipschitz_contraction_check,
    ollivier_global,
    ollivier_kappa,
)
from .transport import (
    DivergenceStats,
    TransportPlan,
    TransportStats,
    divergences,
    random_density,
    transport_stats,
    verify_transport_inequality,
    wasserstein,
)
