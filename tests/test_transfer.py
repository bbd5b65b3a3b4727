import dataclasses
import json

import numpy as np
import pytest

from graft import (
    GraftError,
    HeteroGraph,
    SynthSpec,
    TransferConfig,
    TransferReport,
    align_union_entities,
    auto_mu,
    dynamic_factor,
    generate,
    induced_subgraph,
    merge_transferred_entities,
    run_transfer,
    write_report,
)
from graft.transfer import construct_dependencies
from testkit import edge_weight


@pytest.fixture(scope="module")
def small_instance():
    return generate(SynthSpec(60, 30, dynamic_factor=0.1, maturity=0.5, seed=0))


class TestAutoMu:
    def test_counts_formula(self):
        merged = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")], [])
        gt_hat = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [])
        assert auto_mu(merged, gt_hat) == pytest.approx(0.25)

    def test_no_transfer_means_zero(self):
        g = HeteroGraph([("a", "t"), ("b", "t")], [])
        assert auto_mu(g, g) == 0.0

    def test_empty_merged_rejected(self):
        with pytest.raises(GraftError, match="no entities"):
            auto_mu(HeteroGraph(), HeteroGraph())

    def test_target_not_contained_rejected(self):
        merged = HeteroGraph([("a", "t")], [])
        gt_hat = HeteroGraph([("b", "t")], [])
        with pytest.raises(GraftError, match="missing from the merged"):
            auto_mu(merged, gt_hat)


class TestRunTransfer:
    def test_self_transfer_recovers_all_entities(self):
        # the target is the source minus nothing: every entity is shared,
        # nothing transfers, and the output keeps the full entity set
        gs, _, _ = generate(SynthSpec(30, 30, dynamic_factor=0.0, maturity=1.0, seed=1))
        est, report = run_transfer(gs, gs, TransferConfig(d2=30))
        assert est.entity_ids == gs.entity_ids
        assert report.transferred_entities == []
        assert report.mu_used == 0.0
        assert report.observed_gap == 0.0

    def test_estimate_contains_partial(self, small_instance):
        gs, _, gt_hat = small_instance
        est, report = run_transfer(gs, gt_hat)
        assert set(gt_hat.entity_ids) <= set(est.entity_ids)
        for a, b, w in gt_hat.edges():
            assert edge_weight(est, a, b) == w
        assert set(report.transferred_entities) == set(est.entity_ids) - set(gt_hat.entity_ids)

    def test_report_fields_consistent(self, small_instance):
        gs, _, gt_hat = small_instance
        est, report = run_transfer(gs, gt_hat)
        assert len(report.metapaths) == len(report.metapath_weights)
        assert all(w >= 0 for w in report.metapath_weights)
        assert sorted(report.transferred_scores) == report.transferred_entities
        assert all(s >= 1.96 for s in report.transferred_scores.values())
        merged_n = gt_hat.n + len(report.transferred_entities)
        assert report.mu_used == pytest.approx((merged_n - gt_hat.n) / merged_n)
        assert 0.0 <= report.observed_gap <= 1.0
        trace = report.selection_objective_trace
        assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))
        ctrace = report.construction_objective_trace
        assert all(b <= a for a, b in zip(ctrace, ctrace[1:]))
        assert set(report.timings) == {
            "validate",
            "selection-model",
            "entity-selection",
            "merge",
            "construction",
        }

    def test_fixed_mu_respected(self, small_instance):
        gs, _, gt_hat = small_instance
        _, report = run_transfer(gs, gt_hat, TransferConfig(mu=0.75))
        assert report.mu_used == 0.75

    def test_deterministic(self, small_instance):
        gs, _, gt_hat = small_instance
        e1, r1 = run_transfer(gs, gt_hat)
        e2, r2 = run_transfer(gs, gt_hat)
        assert e1 == e2
        assert r1.to_json() == r2.to_json()

    def test_stage_prefix_on_errors(self):
        gs = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 1.0)])
        gt = HeteroGraph([("x", "t"), ("y", "t")], [])
        with pytest.raises(GraftError, match="validate: no overlap"):
            run_transfer(gs, gt)

    def test_empty_source_rejected(self):
        with pytest.raises(GraftError, match="validate: source graph has no entities"):
            run_transfer(HeteroGraph(), HeteroGraph([("a", "t"), ("b", "t")], []))

    def test_tiny_target_rejected(self):
        gs = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 1.0)])
        with pytest.raises(GraftError, match="at least 2"):
            run_transfer(gs, HeteroGraph([("a", "t")], []))

    def test_type_conflict_rejected(self):
        gs = HeteroGraph([("a", "t"), ("b", "u")], [("a", "b", 1.0)])
        gt = HeteroGraph([("a", "wrong"), ("b", "u")], [])
        with pytest.raises(GraftError, match="conflicting types"):
            run_transfer(gs, gt)

    @pytest.mark.parametrize(
        "source,target,n_paths",
        [
            # one entity pair against 2 meta-paths (t-t, t-t-t)
            (
                HeteroGraph([("a", "t"), ("b", "t")], [("a", "b")]),
                HeteroGraph([("a", "t"), ("b", "t")], []),
                2,
            ),
            # a triangle of three types plus a tail: 6 entity pairs against 12 meta-paths
            (
                HeteroGraph(
                    [("a", "x"), ("b", "y"), ("c", "z"), ("d", "x")],
                    [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
                ),
                HeteroGraph([("a", "x"), ("b", "y")], [("a", "b")]),
                12,
            ),
        ],
        ids=["two-entities", "triangle-plus-tail"],
    )
    def test_fewer_entity_pairs_than_metapaths(self, source, target, n_paths):
        estimate, report = run_transfer(source, target)
        assert len(report.metapaths) == len(report.metapath_weights) == n_paths
        assert all(w >= 0 for w in report.metapath_weights)
        assert set(target.entity_ids) <= set(estimate.entity_ids)


def views_instance():
    """Source, partial target and merged graph: the target has entities the
    source lacks, and three source-only entities are merged in."""
    rng = np.random.default_rng(3)
    source_ids = [f"s{i:02d}" for i in range(20)]
    target_only = ["a0", "m5", "s05x", "z9"]
    types = {eid: f"k{i % 3}" for i, eid in enumerate(source_ids + target_only)}

    def graph(ids):
        edges = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:] if rng.random() < 0.3]
        return HeteroGraph([(eid, types[eid]) for eid in ids], edges)

    source = graph(source_ids)
    target = graph(source_ids[:12] + target_only)
    return source, target, merge_transferred_entities(target, source, ["s13", "s15", "s18"])


class TestConstructionViews:
    def test_views_match_the_union_alignment(self):
        source, target, merged = views_instance()
        in_source = set(source.entity_ids)
        ref_target, ref_source = align_union_entities(
            merged, induced_subgraph(source, [e for e in merged.entity_ids if e in in_source])
        )
        hat, hat_source = align_union_entities(
            target, induced_subgraph(source, [e for e in target.entity_ids if e in in_source])
        )
        _, _, prob = construct_dependencies(source, target, merged, 0.5, TransferConfig())
        assert prob.target.entity_ids == prob.source.entity_ids == ref_target.entity_ids == merged.entity_ids
        assert prob.target == ref_target
        assert prob.source == ref_source
        assert prob.observed_gap == dynamic_factor(hat_source, hat)
        assert ref_source.edge_count and prob.observed_gap > 0.0

    def test_type_conflict_in_merged_rejected(self):
        source, target, _ = views_instance()
        merged = HeteroGraph(
            [(eid, "other" if eid == "s03" else etype) for eid, etype in target.entity_items()],
            target.edges(),
        )
        with pytest.raises(GraftError, match="conflicting types"):
            construct_dependencies(source, target, merged, 0.5, TransferConfig())


class TestReportSerialization:
    def test_json_shape_and_traces(self, small_instance, tmp_path):
        gs, _, gt_hat = small_instance
        _, report = run_transfer(gs, gt_hat)
        path = tmp_path / "report.json"
        write_report(report, path)
        data = json.loads(path.read_text())
        assert data["schema"] == "report_v1"
        assert "timings" not in data
        sel = data["selection_objective_trace"]
        assert sel[0][0] == 1
        con = data["construction_objective_trace"]
        assert con[0][0] == 0
        assert [i for i, _ in con] == list(range(len(con)))
        assert data["config"]["z_entity"] == 1.96

    def test_json_keys_are_the_dataclass_fields(self):
        fields = {f.name for f in dataclasses.fields(TransferReport)}
        assert set(TransferReport().to_json_dict()) == fields - {"timings"} | {"schema"}

    def test_json_is_stable_and_sorted(self):
        report = TransferReport(mu_used=0.5, config={"b": 1, "a": 2})
        text = report.to_json()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["mu_used"] == 0.5
