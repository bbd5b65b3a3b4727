"""Transfer learning for dependency graphs built from categorical event streams.

Bootstrap a sparse, freshly deployed system's dependency graph from a mature
graph of the same kind of system: select which source-only entities carry
over, then reconstruct the target's edges around them.
"""

from .config import TransferConfig, build_config, parse_config_file
from .errors import GraftError, GraphFormatError
from .evalkit import (
    EvalResult,
    baseline_dt,
    baseline_nt,
    baseline_random_walk,
    random_walk_scores,
    score,
)
from .hetgraph import (
    HeteroGraph,
    align_union_entities,
    dynamic_factor,
    format_graph,
    induced_subgraph,
    parse_graph,
    read_graph,
    write_graph,
)
from .ingest import Event, accumulate, parse_events, read_events, snapshot_series
from .metapath import (
    MetaPath,
    SimilarityMatrix,
    blend,
    enumerate_metapaths,
    path_distance_matrix,
    project,
)
from .numerics import ols_nonneg, sym_eig_topk
from .reconstruction import (
    ReconstructionProblem,
    ReconstructionSolution,
    finalize_edges,
    reconstruction_gradient,
    reconstruction_objective,
    solve_reconstruction,
)
from .selection import (
    SelectionState,
    fit_selection_model,
    fit_weights,
    mds_embed,
    merge_transferred_entities,
    metapath_distance_matrices,
    relevance_scores,
    selection_objective,
)
from .synthbench import SynthSpec, generate, measured_stats
from .transfer import TransferReport, auto_mu, construct_dependencies, run_transfer, write_report

__version__ = "1.0.0"

__all__ = [
    "EvalResult",
    "Event",
    "GraftError",
    "GraphFormatError",
    "HeteroGraph",
    "MetaPath",
    "ReconstructionProblem",
    "ReconstructionSolution",
    "SelectionState",
    "SimilarityMatrix",
    "SynthSpec",
    "TransferConfig",
    "TransferReport",
    "accumulate",
    "align_union_entities",
    "auto_mu",
    "baseline_dt",
    "baseline_nt",
    "baseline_random_walk",
    "blend",
    "build_config",
    "construct_dependencies",
    "dynamic_factor",
    "enumerate_metapaths",
    "finalize_edges",
    "fit_selection_model",
    "fit_weights",
    "format_graph",
    "generate",
    "induced_subgraph",
    "mds_embed",
    "measured_stats",
    "merge_transferred_entities",
    "metapath_distance_matrices",
    "ols_nonneg",
    "parse_config_file",
    "parse_events",
    "parse_graph",
    "path_distance_matrix",
    "project",
    "random_walk_scores",
    "read_events",
    "read_graph",
    "reconstruction_gradient",
    "reconstruction_objective",
    "relevance_scores",
    "run_transfer",
    "score",
    "selection_objective",
    "snapshot_series",
    "solve_reconstruction",
    "sym_eig_topk",
    "write_graph",
    "write_report",
]
