"""Bayesian dynamic borrowing from historical controls.

Historical observations are modeled as a finite mixture whose first
component shares its parameters with the current study, so each historical
subject is borrowed exactly to the extent the data support it.  The package
provides conjugate Gibbs sampling for Poisson and normal-linear outcomes, a
truncated-Dirichlet prior for capping the borrowed fraction, exact
partition enumeration as a ground-truth oracle, elicitation tools for the
number of borrowed subjects, power-prior and reference comparators, and a
deterministic CLI.
"""

__version__ = "0.1.0"

from .comparators import (
    A0Prior,
    NppConfig,
    ReferencePriorConfig,
    npp_conditional_posterior,
    npp_log_norm_const,
    npp_posterior,
    reference_posterior,
)
from .conjugate import (
    LinearConditional,
    NormalGammaPrior,
    PoissonGammaPrior,
    linear_log_partition_weight,
    poisson_component_posterior,
    poisson_log_partition_weight,
)
from .core import (
    Dataset,
    DrawsMatrix,
    EnumerationCapError,
    HistoricalDataset,
    LeapConfig,
    NumericalError,
    PartitionAssignment,
    ValidationError,
    ValidationReport,
    class_counts,
    validate_config,
)
from .diagnostics import (
    ParameterSummary,
    PosteriorSummary,
    SimMetrics,
    dic,
    sim_metrics,
    summarize,
)
from .elicitation import (
    SscPmf,
    posterior_ssc_summary,
    solve_beta_hyperparams,
    ssc_interval,
    ssc_prior_pmf_beta,
    ssc_prior_pmf_numeric,
    truncation_bound,
)
from .gibbs import GibbsState, gibbs_step, initialize_state, run_chain, run_chains
from .oracle import (
    PartitionTable,
    enumerate_partitions,
    partition_averaged_mean,
    posterior_partition_table,
    prior_partition_table,
    ssc_marginal_from_table,
)
from .ptd import PtdParams
from .simulate import SimScenario, generate_replication, run_simulation

__all__ = [
    "A0Prior",
    "Dataset",
    "DrawsMatrix",
    "EnumerationCapError",
    "GibbsState",
    "HistoricalDataset",
    "LeapConfig",
    "LinearConditional",
    "NormalGammaPrior",
    "NppConfig",
    "NumericalError",
    "ParameterSummary",
    "PartitionAssignment",
    "PartitionTable",
    "PoissonGammaPrior",
    "PosteriorSummary",
    "PtdParams",
    "ReferencePriorConfig",
    "SimMetrics",
    "SimScenario",
    "SscPmf",
    "ValidationError",
    "ValidationReport",
    "class_counts",
    "dic",
    "enumerate_partitions",
    "generate_replication",
    "gibbs_step",
    "initialize_state",
    "linear_log_partition_weight",
    "npp_conditional_posterior",
    "npp_log_norm_const",
    "npp_posterior",
    "partition_averaged_mean",
    "poisson_component_posterior",
    "poisson_log_partition_weight",
    "posterior_partition_table",
    "posterior_ssc_summary",
    "prior_partition_table",
    "reference_posterior",
    "run_chain",
    "run_chains",
    "run_simulation",
    "sim_metrics",
    "solve_beta_hyperparams",
    "ssc_interval",
    "ssc_marginal_from_table",
    "ssc_prior_pmf_beta",
    "ssc_prior_pmf_numeric",
    "summarize",
    "truncation_bound",
    "validate_config",
]
