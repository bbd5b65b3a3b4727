"""Transfer learning for dependency graphs built from categorical event streams.

Bootstrap a sparse, freshly deployed system's dependency graph from a mature
graph of the same kind of system: select which source-only entities carry
over, then reconstruct the target's edges around them.

The top level exports the pipeline's entry points and the names its callers
use; everything else imports from its module (``graft.hetgraph``,
``graft.selection``, ...).
"""

from .config import TransferConfig
from .errors import GraftError, GraphFormatError
from .evalkit import baseline_dt, baseline_nt, baseline_random_walk, score
from .hetgraph import HeteroGraph, dynamic_factor, format_graph, parse_graph
from .ingest import accumulate, parse_events, snapshot_series
from .metapath import SimilarityMatrix
from .selection import fit_selection_model, mds_embed, metapath_distance_matrices
from .synthbench import SynthSpec, generate
from .transfer import run_transfer

__version__ = "3.0.0"

__all__ = [
    "GraftError",
    "GraphFormatError",
    "HeteroGraph",
    "SimilarityMatrix",
    "SynthSpec",
    "TransferConfig",
    "accumulate",
    "baseline_dt",
    "baseline_nt",
    "baseline_random_walk",
    "dynamic_factor",
    "fit_selection_model",
    "format_graph",
    "generate",
    "mds_embed",
    "metapath_distance_matrices",
    "parse_events",
    "parse_graph",
    "run_transfer",
    "score",
    "snapshot_series",
]
