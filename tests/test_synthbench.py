import itertools
import tracemalloc

import numpy as np
import pytest

from graft import GraftError, SynthSpec, generate, synthbench
from graft.hetgraph import induced_subgraph
from graft.synthbench import measured_stats
from testkit import reference_generate


class TestSynthSpec:
    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            ({"n_source": 1, "n_target": 1}, "n_source"),
            ({"n_source": 10, "n_target": 1}, "n_target"),
            ({"n_source": 10, "n_target": 20}, "not exceed"),
            ({"n_source": 10, "n_target": 5, "dynamic_factor": 1.0}, "dynamic_factor"),
            ({"n_source": 10, "n_target": 5, "dynamic_factor": -0.1}, "dynamic_factor"),
            ({"n_source": 10, "n_target": 5, "maturity": 0.0}, "maturity"),
            ({"n_source": 10, "n_target": 5, "maturity": 1.1}, "maturity"),
            ({"n_source": 10, "n_target": 5, "n_types": 0}, "n_types"),
            ({"n_source": 10, "n_target": 5, "edge_prob": 0.0}, "edge_prob"),
            ({"n_source": 10, "n_target": 5, "seed": 0.5}, "seed"),
            ({"n_source": True, "n_target": 1}, "n_source"),
            ({"n_source": 10, "n_target": 5, "seed": -1}, "^seed must be a nonnegative integer"),
        ],
    )
    def test_invalid_rejected(self, kwargs, msg):
        with pytest.raises(GraftError, match=msg):
            SynthSpec(**kwargs)

    def test_default_edge_prob_targets_mean_degree_eight(self):
        assert SynthSpec(101, 50).edge_prob_effective == pytest.approx(0.08)
        assert SynthSpec(5, 4).edge_prob_effective == 1.0
        assert SynthSpec(100, 50, edge_prob=0.3).edge_prob_effective == 0.3

    def test_to_dict_reports_effective_prob(self):
        d = SynthSpec(101, 50, seed=3).to_dict()
        assert d["edge_prob"] == pytest.approx(0.08)
        assert d["seed"] == 3


class TestGenerate:
    def test_shapes_and_containment(self):
        spec = SynthSpec(60, 30, dynamic_factor=0.1, maturity=0.5, seed=1)
        gs, gt_truth, gt_hat = generate(spec)
        assert gs.n == 60 and gt_truth.n == 30 and gt_hat.n == 15
        src_ids = set(gs.entity_ids)
        truth_ids = set(gt_truth.entity_ids)
        hat_ids = set(gt_hat.entity_ids)
        assert truth_ids <= src_ids and hat_ids <= truth_ids
        # types agree everywhere
        for eid in truth_ids:
            assert gt_truth.type_of(eid) == gs.type_of(eid)
        # partial edges are a subset of the truth edges on the kept entities
        truth_edges = {(a, b) for a, b, _ in gt_truth.edges()}
        assert {(a, b) for a, b, _ in gt_hat.edges()} <= truth_edges

    def test_zero_factor_full_maturity_is_exact_restriction(self):
        spec = SynthSpec(40, 25, dynamic_factor=0.0, maturity=1.0, seed=2)
        gs, gt_truth, gt_hat = generate(spec)
        assert gt_truth == induced_subgraph(gs, list(gt_truth.entity_ids))
        assert gt_hat == gt_truth

    def test_measured_factor_within_toggle_quantum(self):
        spec = SynthSpec(80, 40, dynamic_factor=0.15, maturity=0.6, seed=3)
        gs, gt_truth, gt_hat = generate(spec)
        stats = measured_stats(gs, gt_truth, gt_hat)
        quantum = 2.0 / (40 * 39)
        assert abs(stats["measured_dynamic_factor"] - 0.15) <= quantum

    def test_exact_toggle_count(self):
        # every toggle flips exactly one pair, so the measured factor is
        # exactly 2k / (n (n - 1)) with k = round(F * n(n-1)/2)
        spec = SynthSpec(30, 20, dynamic_factor=0.2, maturity=1.0, seed=4)
        gs, gt_truth, _ = generate(spec)
        restricted = induced_subgraph(gs, list(gt_truth.entity_ids))
        truth_pairs = {(a, b) for a, b, _ in gt_truth.edges()}
        restricted_pairs = {(a, b) for a, b, _ in restricted.edges()}
        flipped = truth_pairs ^ restricted_pairs
        n_pairs = 20 * 19 // 2
        assert len(flipped) == round(0.2 * n_pairs)

    def test_maturity_counts(self):
        spec = SynthSpec(50, 30, dynamic_factor=0.1, maturity=0.4, seed=5)
        _, gt_truth, gt_hat = generate(spec)
        assert gt_hat.n == round(0.4 * 30)
        truth_on_hat = induced_subgraph(gt_truth, list(gt_hat.entity_ids))
        assert gt_hat.edge_count == round(0.4 * truth_on_hat.edge_count)

    def test_deterministic_per_seed(self):
        spec = SynthSpec(40, 20, seed=7)
        a = generate(spec)
        b = generate(spec)
        c = generate(SynthSpec(40, 20, seed=8))
        assert a == b
        assert any(x != y for x, y in zip(a, c))

    def test_paper_scale_instance(self):
        gs, gt_truth, gt_hat = generate(SynthSpec(1200, 600, 0.2, 0.5, seed=0))
        assert gs.n == 1200 and gt_truth.n == 600 and gt_hat.n == 300
        stats = measured_stats(gs, gt_truth, gt_hat)
        assert abs(stats["measured_dynamic_factor"] - 0.2) <= 2.0 / (600 * 599)
        assert stats["measured_entity_maturity"] == pytest.approx(0.5)
        assert abs(stats["measured_edge_maturity"] - 0.5) < 0.01

    def test_ids_sort_in_generation_order_past_five_digits(self):
        # five-digit padding would sort e100000 between e10000 and e10001
        ids = synthbench._entity_ids(100_001)
        assert ids == sorted(ids)
        assert ids[0] == "e000000" and ids[-1] == "e100000"
        # up to 100000 entities the ids keep their five digits
        assert synthbench._entity_ids(100_000)[-1] == "e99999"

    def test_single_entity_partial_floor(self):
        # tiny maturity still keeps at least one entity
        _, _, gt_hat = generate(SynthSpec(20, 10, maturity=0.01, seed=9))
        assert gt_hat.n == 1


class TestGenerateAgainstReference:
    KNOBS = list(itertools.product((1, 3, 7), (None, 1.0, 0.01), (0.0, 0.2, 0.9), (0.3, 1.0)))

    # 7-pair draws cut the source stream mid-row
    @pytest.mark.parametrize(
        "n_source,n_target,draw_cells",
        [(2, 2, 7), (3, 2, 7), (3, 3, 7), (41, 17, 7), (257, 130, synthbench._DRAW_CELLS)],
    )
    def test_matches_triangle_index_reference(self, monkeypatch, n_source, n_target, draw_cells):
        monkeypatch.setattr(synthbench, "_DRAW_CELLS", draw_cells)
        for seed, (n_types, edge_prob, factor, maturity) in enumerate(self.KNOBS):
            spec = SynthSpec(n_source, n_target, factor, maturity, n_types, edge_prob, seed)
            assert generate(spec) == reference_generate(spec), spec

    def test_matches_reference_over_several_draws(self):
        # 800 entities take 5 default draws
        spec = SynthSpec(800, 400, dynamic_factor=0.2, maturity=0.5, seed=3)
        assert 800 * 799 // 2 > 4 * synthbench._DRAW_CELLS
        assert generate(spec) == reference_generate(spec)


class TestGenerateMemory:
    def test_peaks_below_three_quarters_of_a_dense_matrix(self):
        # the triangle index arrays, one uniform per pair and the target's
        # dense adjacency peaked at 1.73 float64 n × n arrays
        spec = SynthSpec(1200, 600, dynamic_factor=0.2, maturity=0.5, seed=0)
        generate(spec)
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 8 * 1200 * 1200
