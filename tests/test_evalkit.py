import numpy as np
import pytest

from graft import (
    GraftError,
    HeteroGraph,
    SynthSpec,
    TransferConfig,
    baseline_dt,
    baseline_nt,
    baseline_random_walk,
    evalkit,
    generate,
    score,
)
from graft.evalkit import EvalResult, random_walk_scores
from testkit import dense_random_walk_scores, edge_weight, reference_score


def graph_of(entities, edges=()):
    return HeteroGraph([(e, "t") for e in entities], edges)


class TestScore:
    def test_identical_graphs(self):
        g = graph_of("abc", [("a", "b", 1.0)])
        r = score(g, g)
        assert r.entity_f1 == 1.0 and r.edge_f1 == 1.0 and r.combined_f1 == 1.0
        assert not r.had_zero_division

    def test_set_algebra_oracle(self):
        est = graph_of("abcd", [("a", "b", 1.0), ("c", "d", 1.0)])
        truth = graph_of("abce", [("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0)])
        r = score(est, truth)
        # entities: correct {a,b,c}; precision 3/4, recall 3/4
        assert r.entity_precision == pytest.approx(0.75)
        assert r.entity_recall == pytest.approx(0.75)
        assert r.entity_f1 == pytest.approx(0.75)
        # edges: correct {(a,b)}; precision 1/2, recall 1/3
        assert r.edge_precision == pytest.approx(0.5)
        assert r.edge_recall == pytest.approx(1.0 / 3.0)
        assert r.edge_f1 == pytest.approx(0.4)
        assert r.combined_f1 == pytest.approx((0.75 + 0.4) / 2.0)

    def test_weights_ignored(self):
        a = graph_of("ab", [("a", "b", 1.0)])
        b = graph_of("ab", [("a", "b", 99.0)])
        assert score(a, b).edge_f1 == 1.0

    def test_zero_division_flagged(self):
        est = graph_of("ab", [])
        truth = graph_of("ab", [("a", "b", 1.0)])
        r = score(est, truth)
        assert r.edge_f1 == 0.0 and r.had_zero_division
        r2 = score(graph_of(""), graph_of("ab"))
        assert r2.entity_f1 == 0.0 and r2.had_zero_division

    def test_empty_truth_edges_flagged_even_when_matched(self):
        g = graph_of("ab", [])
        assert score(g, g).had_zero_division

    def test_combined_is_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            ids = [f"e{i}" for i in range(n)]
            pick = lambda: [
                (ids[i], ids[j], 1.0)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            est = HeteroGraph([(e, "t") for e in ids], pick())
            truth = HeteroGraph([(e, "t") for e in ids], pick())
            r = score(est, truth)
            assert r.combined_f1 == pytest.approx((r.entity_f1 + r.edge_f1) / 2.0)
            assert min(r.entity_f1, r.edge_f1) <= r.combined_f1 <= max(r.entity_f1, r.edge_f1)

    def test_to_dict_keys(self):
        d = score(graph_of("ab"), graph_of("ab")).to_dict()
        assert set(d) == {
            "entity_precision",
            "entity_recall",
            "entity_f1",
            "edge_precision",
            "edge_recall",
            "edge_f1",
            "combined_f1",
            "had_zero_division",
        }


def random_pairs_graph(rng, ids, p=0.3):
    """The ids, each pair of them an edge with probability p."""
    ids = sorted(ids)
    return graph_of(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < p])


def exactly_equal(a: EvalResult, b: EvalResult) -> bool:
    """Field by field, floats compared bit for bit."""
    fa, fb = a.to_dict(), b.to_dict()
    return fa.keys() == fb.keys() and all(
        type(fa[k]) is type(fb[k]) and np.float64(fa[k]).tobytes() == np.float64(fb[k]).tobytes() for k in fa
    )


class TestScoreOracle:
    """``score`` counts integer pair keys; the set-based reference counts id pairs."""

    @pytest.mark.parametrize(
        "est,truth",
        [
            # estimate entities the truth lacks, with edges to them and between them;
            # unmasked, (b, y) would key as 1 * 3 - 1, the truth's (a, c)
            (
                graph_of("abxy", [("a", "b"), ("a", "x"), ("x", "y"), ("b", "y")]),
                graph_of("abc", [("a", "b"), ("a", "c"), ("b", "c")]),
            ),
            # truth entities the estimate lacks, sorting between and around the shared ones
            (graph_of("bd", [("b", "d")]), graph_of("abcde", [("a", "b"), ("b", "d"), ("c", "e"), ("d", "e")])),
            (graph_of("ab", [("a", "b")]), graph_of("xyz", [("x", "y"), ("y", "z")])),
            (graph_of("abc"), graph_of("abc", [("a", "c")])),
            (graph_of("abc", [("a", "c")]), graph_of("abc")),
            (graph_of("ab"), graph_of("ab")),
            (graph_of(""), graph_of("ab", [("a", "b")])),
            (graph_of("ab", [("a", "b")]), graph_of("")),
            (graph_of(""), graph_of("")),
        ],
        ids=["estimate-only", "truth-only", "disjoint", "empty-estimate-edges", "empty-truth-edges",
             "no-edges", "empty-estimate", "empty-truth", "both-empty"],
    )
    def test_cases(self, est, truth):
        assert exactly_equal(score(est, truth), reference_score(est, truth))

    def test_identical_graphs(self):
        gs, truth, _ = generate(SynthSpec(60, 30, seed=3))
        for g in (gs, truth):
            assert exactly_equal(score(g, g), reference_score(g, g))

    def test_random_overlapping_graphs(self):
        rng = np.random.default_rng(5)
        pool = [f"e{i:02d}" for i in range(40)]
        for _ in range(30):
            graphs = [random_pairs_graph(rng, rng.choice(pool, size=int(rng.integers(2, 30)), replace=False))
                      for _ in range(2)]
            assert exactly_equal(score(*graphs), reference_score(*graphs))

    @pytest.mark.parametrize("kind", ["disjoint", "no-estimate-edges", "no-truth-edges", "identical"])
    def test_random_graph_pairs(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ids = [f"e{i:02d}" for i in rng.permutation(40)]
            n_est, n_truth = (int(k) for k in rng.integers(2, 20, size=2))
            est = random_pairs_graph(rng, ids[:n_est], p=0.0 if kind == "no-estimate-edges" else 0.3)
            if kind == "identical":
                truth = HeteroGraph(est.entity_items(), est.edges())
            else:
                start = n_est if kind == "disjoint" else int(rng.integers(0, n_est))
                truth = random_pairs_graph(rng, ids[start:start + n_truth], p=0.0 if kind == "no-truth-edges" else 0.3)
            assert exactly_equal(score(est, truth), reference_score(est, truth))

    def test_synthetic_instance(self):
        gs, truth, gt_hat = generate(SynthSpec(120, 60, dynamic_factor=0.2, maturity=0.5, seed=1))
        for est in (gs, gt_hat, baseline_dt(gs, gt_hat)):
            assert exactly_equal(score(est, truth), reference_score(est, truth))


class TestSimpleBaselines:
    def test_nt_is_identity(self):
        g = graph_of("abc", [("a", "b", 2.0)])
        assert baseline_nt(g) is g

    def test_dt_union_with_max_weight(self):
        gs = HeteroGraph([("a", "t"), ("b", "t"), ("c", "u")], [("a", "b", 1.0), ("b", "c", 5.0)])
        gt = HeteroGraph([("a", "t"), ("b", "t"), ("d", "v")], [("a", "b", 3.0), ("a", "d", 1.0)])
        out = baseline_dt(gs, gt)
        assert out.entity_ids == ("a", "b", "c", "d")
        assert out.type_of("c") == "u" and out.type_of("d") == "v"
        assert edge_weight(out, "a", "b") == 3.0
        assert edge_weight(out, "b", "c") == 5.0
        assert edge_weight(out, "a", "d") == 1.0

    def test_dt_matches_pairwise_max_reference(self):
        # shared pairs whose larger weight is on either side, over overlapping id pools
        rng = np.random.default_rng(4)
        pool = [f"e{i:02d}" for i in range(40)]
        for _ in range(20):
            graphs = []
            for _ in range(2):
                ids = sorted(rng.choice(pool, size=int(rng.integers(2, 30)), replace=False))
                pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < 0.4]
                pairs = [(a, b, float(w)) for (a, b), w in zip(pairs, rng.integers(1, 4, len(pairs)))]
                graphs.append(graph_of(ids, pairs))
            weights = {}
            for g in graphs:
                for a, b, w in g.edges():
                    weights[a, b] = max(weights.get((a, b), w), w)
            ids = sorted(set(graphs[0].entity_ids) | set(graphs[1].entity_ids))
            want = graph_of(ids, [(a, b, w) for (a, b), w in weights.items()])
            assert baseline_dt(*graphs) == want and baseline_dt(*graphs[::-1]) == want

    def test_dt_entity_recall_is_total(self):
        gs, gt_truth, gt_hat = generate(SynthSpec(50, 25, seed=0))
        out = baseline_dt(gs, gt_hat)
        assert score(out, gt_truth).entity_recall == 1.0

    def test_dt_type_conflict_rejected(self):
        gs = HeteroGraph([("a", "t")], [])
        gt = HeteroGraph([("a", "u")], [])
        with pytest.raises(GraftError, match="conflicting types"):
            baseline_dt(gs, gt)


def dense_walk_oracle(gs, restart_ids, restart):
    """Closed form p = restart * (I - (1-restart) W)^-1 r for graphs with no
    degree-zero entities."""
    adj = gs.csr().toarray()
    deg = adj.sum(axis=0)
    assert (deg > 0).all()
    w = adj / deg
    r = np.zeros(gs.n)
    for eid in restart_ids:
        r[gs.index_of(eid)] = 1.0
    r /= r.sum()
    return np.linalg.solve(np.eye(gs.n) - (1.0 - restart) * w, restart * r)


class TestRandomWalk:
    def connected_graph(self, seed, n=50, p=0.12):
        rng = np.random.default_rng(seed)
        ids = [f"e{i:02d}" for i in range(n)]
        edges = [(ids[i], ids[i + 1], 1.0) for i in range(n - 1)]  # spanning path
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < p:
                    edges.append((ids[i], ids[j], 1.0))
        return HeteroGraph([(e, "t") for e in ids], edges)

    def test_stationary_sums_to_one(self):
        g = self.connected_graph(0)
        p = random_walk_scores(g, list(g.entity_ids)[:10])
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in p.values())

    def test_matches_dense_closed_form(self):
        g = self.connected_graph(1)
        restart_ids = list(g.entity_ids)[:7]
        got = random_walk_scores(g, restart_ids)
        expect = dense_walk_oracle(g, restart_ids, 0.15)
        got_vec = np.array([got[eid] for eid in g.entity_ids])
        assert np.allclose(got_vec, expect, atol=1e-8)

    def test_dangling_mass_recycled(self):
        # isolated entity keeps total mass at one
        g = HeteroGraph(
            [("a", "t"), ("b", "t"), ("c", "t")], [("a", "b", 1.0)]
        )
        p = random_walk_scores(g, ["c"])
        assert sum(p.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_reference_with_dangling_entities(self):
        gs, _, _ = generate(SynthSpec(300, 150, seed=5))
        isolated = [(f"zz{i}", gs.type_of(gs.entity_ids[i])) for i in range(3)]
        g = HeteroGraph(list(gs.entity_items()) + isolated, gs.edges())
        restart_ids = list(gs.entity_ids[::7]) + ["zz0"]  # mass sits on a dangling entity too
        got = random_walk_scores(g, restart_ids)
        want = dense_random_walk_scores(g, restart_ids, evalkit.RESTART_PROB)
        assert list(got) == list(want) == list(g.entity_ids)
        assert want["zz1"] == 0.0 and want["zz0"] > 0.0
        np.testing.assert_allclose(list(got.values()), list(want.values()), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "ids,msg",
        [
            ([], "empty"),
            (["zz"], "not in the source"),
        ],
    )
    def test_invalid_rejected(self, ids, msg):
        g = self.connected_graph(3, n=5, p=0.0)
        with pytest.raises(GraftError, match=msg):
            random_walk_scores(g, ids)


class TestRandomWalkBaseline:
    def test_output_contains_partial_and_scores(self):
        gs, gt_truth, gt_hat = generate(SynthSpec(60, 30, seed=2))
        out = baseline_random_walk(gs, gt_hat)
        assert set(gt_hat.entity_ids) <= set(out.entity_ids)
        r = score(out, gt_truth)
        assert 0.0 <= r.combined_f1 <= 1.0

    def test_no_source_only_entities_degenerates_to_construction(self):
        gs, _, _ = generate(SynthSpec(20, 20, maturity=1.0, seed=3))
        out = baseline_random_walk(gs, gs)
        assert set(out.entity_ids) == set(gs.entity_ids)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_walk_selects_as_dense_reference(self, seed, monkeypatch):
        gs, _, gt_hat = generate(SynthSpec(300, 150, seed=seed))
        sparse = baseline_random_walk(gs, gt_hat)
        monkeypatch.setattr(evalkit, "random_walk_scores", dense_random_walk_scores)
        dense = baseline_random_walk(gs, gt_hat)
        assert sparse.n > gt_hat.n
        assert sparse.entity_ids == dense.entity_ids

    @pytest.mark.filterwarnings("error")  # no 0/0 standardising a flat vector
    @pytest.mark.parametrize("only", ["c", "cd"])
    def test_flat_scores_select_nothing(self, only):
        # c and d hang off a alike, so their walk scores are equal, as one entity's score is to itself
        gs = graph_of("ab" + only, [("a", "b", 1.0)] + [("a", e, 1.0) for e in only])
        gt_hat = graph_of("ab", [("a", "b", 1.0)])
        scores = random_walk_scores(gs, ["a", "b"])
        assert len({scores[e] for e in only}) == 1
        assert evalkit._rw_select(gs, gt_hat, TransferConfig(z_entity=1e-9)) == []

    def test_deterministic(self):
        gs, _, gt_hat = generate(SynthSpec(40, 20, seed=4))
        assert baseline_random_walk(gs, gt_hat) == baseline_random_walk(gs, gt_hat)

    def test_no_overlap_rejected(self):
        gs = graph_of("ab", [("a", "b", 1.0)])
        gt = graph_of("xy", [("x", "y", 1.0)])
        with pytest.raises(GraftError, match="no overlap"):
            baseline_random_walk(gs, gt)


class TestEvalResult:
    def test_frozen(self):
        r = EvalResult(1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(AttributeError):
            r.entity_f1 = 0.5
