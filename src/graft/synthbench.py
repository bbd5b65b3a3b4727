"""Seeded synthetic benchmark instances: a source graph, a ground-truth target
derived from it by entity deletion plus edge perturbation, and an immature
partial observation of that target.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import check_field_types
from .errors import GraftError
from .hetgraph import HeteroGraph, check_shared_types, dynamic_factor, induced_subgraph


@dataclass(frozen=True)
class SynthSpec:
    """Benchmark knobs.

    ``dynamic_factor`` is the requested pair-normalized structural gap between
    the source graph and the target truth; the generator realizes it by
    toggling the nearest integer number of entity pairs, so the measured value
    lands within one toggle quantum (2 / (n (n - 1))) of the request.
    ``maturity`` is the fraction of target-truth entities (and then surviving
    edges) retained in the partial observation.
    """

    n_source: int
    n_target: int
    dynamic_factor: float = 0.1
    maturity: float = 0.5
    n_types: int = 3
    edge_prob: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("n_source", "n_target"):
            if getattr(self, name) < 2:
                raise GraftError(f"{name} must be an integer >= 2")
        if self.n_target > self.n_source:
            raise GraftError("n_target must not exceed n_source")
        if not 0.0 <= self.dynamic_factor < 1.0:
            raise GraftError("dynamic_factor must be in [0, 1)")
        if not 0.0 < self.maturity <= 1.0:
            raise GraftError("maturity must be in (0, 1]")
        if self.n_types < 1:
            raise GraftError("n_types must be a positive integer")
        if self.edge_prob is not None and not 0.0 < self.edge_prob <= 1.0:
            raise GraftError("edge_prob must be in (0, 1]")
        if self.seed < 0:
            raise GraftError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def edge_prob_effective(self) -> float:
        if self.edge_prob is not None:
            return self.edge_prob
        # default aims for mean degree about 8
        return min(1.0, 8.0 / (self.n_source - 1))

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), edge_prob=self.edge_prob_effective)


def _entity_ids(n: int) -> list[str]:
    """Ids of n entities, zero-padded to one width of at least 5 digits so they sort in order."""
    width = max(5, len(str(n - 1)))
    return [f"e{i:0{width}d}" for i in range(n)]


# source pairs drawn per rng.random call: 512 KiB of uniforms at a time
_DRAW_CELLS = 1 << 16


def _pair_starts(n: int) -> np.ndarray:
    """Row-major index of pair (i, i + 1) among the n(n − 1)/2 pairs i < j of
    n entities, for each row i; pair (i, j) has index starts[i] + j − i − 1."""
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def _pairs_at(starts: np.ndarray, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (rows, cols) at row-major indices ``flat``, the inverse of
    starts[i] + j − i − 1 for ``starts = _pair_starts(n)``."""
    rows = np.searchsorted(starts, flat, side="right") - 1
    return rows, flat - starts[rows] + rows + 1


def generate(spec: SynthSpec) -> tuple[HeteroGraph, HeteroGraph, HeteroGraph]:
    """Generate (source, target_truth, target_partial) for one spec.

    Draw order is fixed (types, source edges, entity deletion, pair toggles,
    kept entities, kept edges) so outputs are reproducible per seed. Each
    entity pair i < j has a row-major index (``_pair_starts``). The source
    pairs are drawn in chunks of that order from one ``rng.random`` stream,
    which equals one draw over all pairs, and the target's pairs are one
    bool per index, so no triangle index arrays or dense adjacency are made.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_source
    ids = _entity_ids(n)
    type_idx = rng.integers(0, spec.n_types, size=n)
    entities = [(ids[i], f"t{type_idx[i]}") for i in range(n)]

    total = n * (n - 1) // 2
    hits = [
        start + np.flatnonzero(rng.random(min(_DRAW_CELLS, total - start)) < spec.edge_prob_effective)
        for start in range(0, total, _DRAW_CELLS)
    ]
    rows, cols = _pairs_at(_pair_starts(n), np.concatenate(hits))
    # the ids sort in index order, so the pair indices are already entity indices
    gs = HeteroGraph(entities)._with_edges(rows, cols, np.ones(len(rows)))

    survivors = np.sort(rng.choice(n, size=spec.n_target, replace=False))
    keep_ids = [ids[i] for i in survivors]
    trimmed = induced_subgraph(gs, keep_ids)

    m = spec.n_target
    n_pairs = m * (m - 1) // 2
    k = int(round(spec.dynamic_factor * n_pairs))
    starts = _pair_starts(m)
    t_rows, t_cols, _ = trimmed.edge_arrays()
    pairs = np.zeros(n_pairs, dtype=bool)
    pairs[starts[t_rows] + t_cols - t_rows - 1] = True
    pairs[rng.choice(n_pairs, size=k, replace=False)] ^= True
    t_rows, t_cols = _pairs_at(starts, np.flatnonzero(pairs))
    gt_truth = trimmed._with_edges(t_rows, t_cols, np.ones(len(t_rows)))

    n_keep = max(1, int(round(spec.maturity * gt_truth.n)))
    kept = np.sort(rng.choice(gt_truth.n, size=n_keep, replace=False))
    gt_hat = induced_subgraph(gt_truth, [gt_truth.entity_ids[i] for i in kept])
    n_edges_keep = int(round(spec.maturity * gt_hat.edge_count))
    if n_edges_keep < gt_hat.edge_count:
        chosen = np.sort(rng.choice(gt_hat.edge_count, size=n_edges_keep, replace=False))
        gt_hat = gt_hat._with_edges(*(arr[chosen] for arr in gt_hat.edge_arrays()))
    return gs, gt_truth, gt_hat


def measured_stats(gs: HeteroGraph, gt_truth: HeteroGraph, gt_hat: HeteroGraph) -> dict:
    """Measured counterparts of the requested spec knobs, for metadata files."""
    check_shared_types(gt_truth, gs)
    truth_on_hat = induced_subgraph(gt_truth, list(gt_hat.entity_ids))
    return {
        "measured_dynamic_factor": dynamic_factor(gs._reindexed(gt_truth.entity_items()), gt_truth),
        "measured_entity_maturity": gt_hat.n / gt_truth.n,
        "measured_edge_maturity": (
            gt_hat.edge_count / truth_on_hat.edge_count if truth_on_hat.edge_count else 1.0
        ),
        "n_source_edges": gs.edge_count,
        "n_truth_edges": gt_truth.edge_count,
        "n_partial_edges": gt_hat.edge_count,
    }
