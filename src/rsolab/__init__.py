"""Simulation and verification laboratory for a random Schrodinger operator.

The model: on a finite box in Z^d, a random potential beta with a
reciprocal-inverse-Gaussian-type law couples through nearest-neighbor
weights W; the operator of interest is 2*diag(beta) minus the weighted
adjacency, with simple or Dirichlet boundary corrections.  The package
provides exact and Gibbs samplers for the potential, spectral counting,
Green-function machinery, an effective-resistance identity, and audited
Monte-Carlo estimators for spectral statistics, all reproducible from a
single seed.
"""

from ._version import VERSION as __version__
from .critical import (
    CriticalReport,
    branching_factor,
    comparison_scan,
    critical_report,
    fractional_moment_critical_w,
    solve_critical_w,
    step_decay_integral,
)
from .field import (
    BetaField,
    PositivityLossError,
    QuadratureBudgetError,
    SamplerConfig,
    exact_field,
    gibbs_chain,
    laplace_exact,
    log_density,
    quadrature_oracle,
    sample_beta_batch,
)
from .graphs import (
    Pinned,
    WeightedGraph,
    attach_delta,
    build_box,
    build_grid,
    dump_graph,
    load_graph,
    remove_vertex,
    subbox_indices,
)
from .operators import (
    FactorizationError,
    OperatorMatrix,
    ResidualError,
    assemble,
    count_eigenvalues_leq,
    count_eigenvalues_many,
    green_column,
    operator_from_two_beta,
)
from .resistance import (
    GreenSurrogate,
    IdentityReport,
    NetworkError,
    build_network,
    build_surrogate,
    effective_resistance,
    harmonic_residual,
    identity_check,
    nash_williams_bound,
    tilted_field,
)
from .rig import rig_cdf, rig_logpdf, rig_pdf, sample_rig
from .rng import chain_seed_key, philox_stream
from .stats import (
    DecayFit,
    EstimateWithCI,
    IdsCurve,
    MonteCarloConfig,
    bound_audit,
    decay_moment_fit,
    estimate_ids,
    fit_loglog_slope,
    gamma_marginal_test,
    laplace_audit,
    martingale_check,
    monotonicity_check,
    wegner_audit,
)

__all__ = [
    "__version__",
    # graphs
    "WeightedGraph",
    "Pinned",
    "build_grid",
    "build_box",
    "subbox_indices",
    "attach_delta",
    "remove_vertex",
    "dump_graph",
    "load_graph",
    # rig
    "rig_logpdf",
    "rig_pdf",
    "rig_cdf",
    "sample_rig",
    # rng
    "philox_stream",
    "chain_seed_key",
    # field
    "BetaField",
    "SamplerConfig",
    "PositivityLossError",
    "QuadratureBudgetError",
    "log_density",
    "laplace_exact",
    "gibbs_chain",
    "sample_beta_batch",
    "exact_field",
    "quadrature_oracle",
    # operators
    "OperatorMatrix",
    "FactorizationError",
    "ResidualError",
    "assemble",
    "operator_from_two_beta",
    "count_eigenvalues_leq",
    "count_eigenvalues_many",
    "green_column",
    # resistance
    "GreenSurrogate",
    "IdentityReport",
    "NetworkError",
    "build_surrogate",
    "tilted_field",
    "harmonic_residual",
    "build_network",
    "effective_resistance",
    "nash_williams_bound",
    "identity_check",
    # critical
    "CriticalReport",
    "step_decay_integral",
    "branching_factor",
    "solve_critical_w",
    "fractional_moment_critical_w",
    "critical_report",
    "comparison_scan",
    # stats
    "EstimateWithCI",
    "IdsCurve",
    "DecayFit",
    "MonteCarloConfig",
    "estimate_ids",
    "fit_loglog_slope",
    "bound_audit",
    "wegner_audit",
    "decay_moment_fit",
    "gamma_marginal_test",
    "laplace_audit",
    "martingale_check",
    "monotonicity_check",
]
