"""Seeded JSONL event streams that count their own ground truth.

The generator is the benchmark's reference for the ingest layer: while it
writes the lines it tallies, in its own data structures, everything an exact
ingest must reproduce (entities, per-pair co-occurrence counts, and the total
weight before each window boundary).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

# (type label, id prefix, id pool size). Prefixes keep ids of different types
# apart, so no id can appear under two types.
TYPES = (
    ("host", "h", 2400),
    ("proc", "p", 3600),
    ("user", "u", 1800),
    ("file", "f", 4800),
    ("port", "n", 900),
    ("svc", "s", 600),
)
# Share of events with 1, 2, 3 and 4 attributes. Single-attribute events carry
# no pair and must be skipped by the ingest layer.
ARITY_SHARE = (0.03, 0.37, 0.35, 0.25)
ZIPF_EXPONENT = 1.2


@dataclass
class Stream:
    """Event lines plus the generator's own tallies."""

    lines: list[str]
    window: int
    windows: int
    entities: dict[str, str]
    pair_counts: Counter
    cumulative_weight: list[float]

    @property
    def total_weight(self) -> float:
        return self.cumulative_weight[-1]


def make_stream(seed: int, n_events: int, windows: int = 24, window: int = 60_000) -> Stream:
    """``n_events`` JSONL records over exactly ``windows`` windows of ``window`` ms."""
    rng = np.random.default_rng(seed)
    span = windows * window
    offsets = np.sort(rng.integers(0, span, size=n_events))
    offsets[0], offsets[-1] = 0, span - 1
    start = 1_700_000_000_000 + int(rng.integers(0, 10**9))
    arity = rng.choice(len(ARITY_SHARE), size=n_events, p=ARITY_SHARE) + 1
    type_order = rng.random((n_events, len(TYPES))).argsort(axis=1)
    picks = []
    for _, _, pool in TYPES:
        p = 1.0 / np.arange(1, pool + 1) ** ZIPF_EXPONENT
        picks.append(rng.choice(pool, size=n_events, p=p / p.sum()))

    lines: list[str] = []
    entities: dict[str, str] = {}
    pair_counts: Counter = Counter()
    window_weight = [0.0] * windows
    for e in range(n_events):
        attrs = []
        for t in type_order[e, : arity[e]]:
            label, prefix, _ = TYPES[t]
            attrs.append((label, f"{prefix}{picks[t][e]:05d}"))
        ts = start + int(offsets[e])
        body = ", ".join(f'"{label}": "{eid}"' for label, eid in attrs)
        lines.append(f'{{"ts": {ts}, "attrs": {{{body}}}}}')
        k = len(attrs)
        if k < 2:
            continue
        ids = sorted(eid for _, eid in attrs)
        for label, eid in attrs:
            entities[eid] = label
        for i in range(k):
            for j in range(i + 1, k):
                pair_counts[ids[i], ids[j]] += 1
        window_weight[int(offsets[e]) // window] += k * (k - 1) // 2
    return Stream(
        lines, window, windows, entities, pair_counts, [float(w) for w in np.cumsum(window_weight)]
    )
