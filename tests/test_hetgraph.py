import numpy as np
import pytest

from graft import GraftError, GraphFormatError, HeteroGraph, dynamic_factor, format_graph, parse_graph
from graft.hetgraph import align_union_entities, induced_subgraph, read_graph, split_by_overlap, write_graph
from graft.reconstruction import finalize_edges
from graft.selection import merge_transferred_entities
from testkit import edge_weight


def toy_graph():
    return HeteroGraph(
        [("p1", "process"), ("f1", "file"), ("s1", "socket")],
        [("p1", "f1", 2.0), ("p1", "s1")],
    )


class TestHeteroGraph:
    def test_entities_sorted_lexicographically(self):
        g = HeteroGraph([("b", "t"), ("a", "t"), ("c", "t")], [])
        assert g.entity_ids == ("a", "b", "c")

    def test_basic_accessors(self):
        g = toy_graph()
        assert g.n == 3
        assert g.edge_count == 2
        assert g.type_of("p1") == "process"
        assert g.has_entity("f1") and not g.has_entity("nope")
        assert edge_weight(g, "f1", "p1") == 2.0
        assert edge_weight(g, "p1", "s1") == 1.0

    def test_edges_normalized_and_sorted(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [("c", "b"), ("b", "a")])
        assert g.edges() == (("a", "b", 1.0), ("b", "c", 1.0))

    @pytest.mark.parametrize(
        "entities,edges,msg",
        [
            ([("a", "t"), ("a", "u")], [], "duplicate"),
            ([("a", "t")], [("a", "a")], "self-loop"),
            ([("a", "t"), ("b", "t")], [("a", "b"), ("b", "a")], "duplicate"),
            ([("a", "t"), ("b", "t")], [("a", "c")], "not a declared entity"),
            ([("a", "t"), ("b", "t")], [("a", "b", 0.0)], "positive"),
            ([("a", "t"), ("b", "t")], [("a", "b", float("nan"))], "positive"),
            ([("a b", "t")], [], "whitespace"),
            ([("", "t")], [], "empty"),
            ([("a", "t"), ("b", "t")], [("a", "b", "x")], r"\('a', 'b'\) weight must be a number, got 'x'"),
            ([("a", "t"), ("b", "t")], [("a", "b", None)], r"\('a', 'b'\) weight must be a number, got None"),
            ([("a", "t"), ("b", "t")], [("a", "b", 1.0, 2.0)], "edge must be"),
            ([("a", "t"), ("b", "t")], [("a", "zz"), ("a",)], "'zz' is not a declared entity"),
            ([("a",)], [], r"entity must be \(id, type\), got \('a',\)"),
            ([("a", "t"), "b"], [], r"entity must be \(id, type\), got 'b'"),
            ([("a", "t"), ("b", "t")], [("a", ["x"])], r"edge endpoint \['x'\] is not a declared entity"),
            ([("a", "t"), ("b", "t")], [("a", "b"), 5], "edge must be .*, got 5"),
        ],
    )
    def test_invalid_inputs_rejected(self, entities, edges, msg):
        with pytest.raises(GraftError, match=msg):
            HeteroGraph(entities, edges)

    def test_equality_ignores_construction_order(self):
        g1 = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 3.0)])
        g2 = HeteroGraph([("b", "t"), ("a", "t")], [("b", "a", 3.0)])
        assert g1 == g2
        assert g1 != HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 4.0)])

    def test_sorted_and_shuffled_edge_arrays_build_equal_graphs(self):
        rng = np.random.default_rng(0)
        base = HeteroGraph([(f"e{i:02d}", "t") for i in range(30)])
        rows, cols = np.triu_indices(30, k=1)
        pick = rng.random(len(rows)) < 0.2
        rows, cols, weights = rows[pick], cols[pick], rng.uniform(1.0, 2.0, np.count_nonzero(pick))
        in_order = base._with_edges(rows.copy(), cols.copy(), weights.copy())
        last_two_swapped = np.r_[: len(rows) - 2, len(rows) - 1, len(rows) - 2]
        for order in (rng.permutation(len(rows)), last_two_swapped):
            built = base._with_edges(rows[order], cols[order], weights[order])
            assert built == in_order and format_graph(built) == format_graph(in_order)
            r, c, _ = built.edge_arrays()
            assert (np.diff(r * 30 + c) > 0).all()


def graph_text(entities, edges) -> str:
    """Records in list order as a graph file: entity k on line 2 + k, edge k after all entities."""
    lines = ["graphfmt 1"] + [f"v {eid} {etype}" for eid, etype in entities]
    return "\n".join(lines + [f"e {a} {b} {w!r}" for a, b, w in edges]) + "\n"


def both_doors_reject(entities, edges) -> tuple[str, GraphFormatError]:
    """The constructor's message and the parser's error for the same bad records."""
    with pytest.raises(GraftError) as built:
        HeteroGraph(entities, edges)
    with pytest.raises(GraphFormatError) as parsed:
        parse_graph(graph_text(entities, edges))
    return str(built.value), parsed.value


AB = [("a", "t"), ("b", "t")]
WEIGHT_AB = "edge ('a', 'b') weight must be positive and finite, got"


class TestSharedValidator:
    """``HeteroGraph(...)`` and ``parse_graph`` check records with one validator:
    the same message from both, and from the file the line of the first bad record."""

    @pytest.mark.parametrize(
        "entities,edges,msg,line,suffix",
        [
            (AB + [("a", "u")], [], "duplicate entity id 'a'", 4, " (first declared on line 2)"),
            (AB, [("a", "b", 1.0), ("c", "a", 1.0)], "edge endpoint 'c' is not a declared entity", 5, ""),
            (AB, [("a", "c", 1.0)], "edge endpoint 'c' is not a declared entity", 4, ""),
            (AB, [("b", "b", 1.0)], "self-loop on entity 'b' is not allowed", 4, ""),
            (AB, [("a", "b", 0.0)], f"{WEIGHT_AB} 0.0", 4, ""),
            (AB, [("b", "a", -2.5)], "edge ('b', 'a') weight must be positive and finite, got -2.5", 4, ""),
            (AB, [("a", "b", float("inf"))], f"{WEIGHT_AB} inf", 4, ""),
            (AB, [("a", "b", float("nan"))], f"{WEIGHT_AB} nan", 4, ""),
            (AB + [("c", "t")], [("a", "b", 1.0), ("b", "c", 1.0), ("b", "a", 2.0)],
             "duplicate edge between 'b' and 'a'", 7, " (first on line 5)"),
            # the first bad record wins, whatever its check
            (AB, [("a", "b", -1.0), ("a", "a", 1.0)], f"{WEIGHT_AB} -1.0", 4, ""),
            (AB, [("a", "a", 1.0), ("a", "b", -1.0)], "self-loop on entity 'a' is not allowed", 4, ""),
            # entities are checked before edges
            (AB + [("b", "u")], [("a", "zz", 1.0)],
             "duplicate entity id 'b'", 4, " (first declared on line 3)"),
            # ints beyond float range read as the file's digits do
            (AB, [("a", "b", 10**400)], f"{WEIGHT_AB} inf", 4, ""),
            (AB, [("a", "b", -(10**400))], f"{WEIGHT_AB} -inf", 4, ""),
        ],
    )
    def test_same_message_from_both_doors(self, entities, edges, msg, line, suffix):
        built, parsed = both_doors_reject(entities, edges)
        assert built == msg
        assert str(parsed) == f"line {line}: {msg}{suffix}"
        assert parsed.line == line

    def test_earlier_endpoint_error_wins_over_later_bad_weight(self):
        text = "graphfmt 1\nv a t\ne a zz 1.0\ne a b -1.0\nv b t\n"
        with pytest.raises(GraphFormatError, match="'zz' is not a declared entity") as exc:
            parse_graph(text)
        assert exc.value.line == 3

    @staticmethod
    def random_records(rng, n=2000, m=20_000):
        """Shuffled entities and randomly oriented, unique edges."""
        ids = [f"e{i}" for i in rng.permutation(n)]
        entities = [(eid, f"t{rng.integers(3)}") for eid in ids]
        iu = np.triu_indices(n, 1)
        picks = rng.choice(len(iu[0]), size=m, replace=False)
        flip = rng.random(m) < 0.5
        weights = rng.integers(1, 8, size=m) * 0.25
        edges = []
        for i, j, f, w in zip(iu[0][picks], iu[1][picks], flip, weights):
            a, b = ids[i], ids[j]
            edges.append((b, a, float(w)) if f else (a, b, float(w)))
        return entities, edges

    def test_clean_graph_round_trips(self):
        entities, edges = self.random_records(np.random.default_rng(7))
        g = HeteroGraph(entities, edges)
        assert (g.n, g.edge_count) == (2000, 20_000)
        assert parse_graph(graph_text(entities, edges)) == g
        assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize("seed", range(3))
    def test_single_fault_mutations(self, seed):
        rng = np.random.default_rng(seed)
        entities, edges = self.random_records(rng)
        n_ents = len(entities)
        j = int(rng.integers(n_ents - 1))
        k = int(rng.integers(j + 1, n_ents))
        dup_id = entities[j][0]
        ents = entities[:k] + [(dup_id, "t0")] + entities[k + 1 :]
        built, parsed = both_doors_reject(ents, edges)
        assert built == f"duplicate entity id {dup_id!r}"
        assert str(parsed) == f"line {k + 2}: {built} (first declared on line {j + 2})"

        p = int(rng.integers(1, len(edges)))
        q = int(rng.integers(p))
        (a, b, w), (c, d, _) = edges[p], edges[q]
        faults = [
            ((a, "missing", w), "edge endpoint 'missing' is not a declared entity"),
            ((b, b, w), f"self-loop on entity {b!r} is not allowed"),
            ((a, b, -w), f"edge ({a!r}, {b!r}) weight must be positive and finite, got {-w}"),
            ((d, c, w), f"duplicate edge between {d!r} and {c!r}"),
        ]
        for record, msg in faults:
            bad = edges[:p] + [record] + edges[p + 1 :]
            built, parsed = both_doors_reject(entities, bad)
            assert built == msg
            suffix = f" (first on line {n_ents + 2 + q})" if msg.startswith("duplicate") else ""
            assert str(parsed) == f"line {n_ents + 2 + p}: {msg}{suffix}"


class TestEdgeWeightsArePythonFloats:
    """``edges()`` yields Python floats however the graph was built, so the text
    form reads ``2.0`` and never a numpy repr."""

    @staticmethod
    def square():
        return HeteroGraph(
            [("a", "t"), ("b", "u"), ("c", "t"), ("d", "u")],
            [("a", "b", np.float64(2.0)), ("b", "c"), ("a", "d", np.int64(1)), ("d", "c")],
        )

    def built_graphs(self):
        g = self.square()
        u = np.array([[1.0], [0.5], [1.0], [0.25]])
        yield g
        yield finalize_edges(u, g, 0.0)
        yield induced_subgraph(g, ["a", "b", "c"])
        yield merge_transferred_entities(induced_subgraph(g, ["a", "b"]), g, ["c"])

    def test_edges_yield_python_floats(self):
        for g in self.built_graphs():
            assert g.edge_count > 0
            assert all(type(w) is float for _, _, w in g.edges()), g

    def test_format_writes_plain_floats(self):
        text = format_graph(self.square())
        assert "e a b 2.0\n" in text
        assert "np." not in "".join(format_graph(g) for g in self.built_graphs())


class TestAdjacency:
    def test_weighted_matrix(self):
        g = toy_graph()
        i, j = g.index_of("f1"), g.index_of("p1")
        rows, cols, weights = g.edge_arrays()
        assert weights[(rows == min(i, j)) & (cols == max(i, j))].tolist() == [2.0]
        m = g.csr().toarray()
        assert m[i, j] == 1.0
        assert m[j, i] == 1.0

    def test_binary_matrix_and_invariants(self):
        g = toy_graph()
        assert g.csr() is g.csr()
        m = g.csr().toarray()
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_empty_graph(self):
        g = HeteroGraph([], [])
        assert g.n == 0
        assert g.csr().shape == (0, 0)
        assert g.type_codes()[0] == () and g.type_codes()[1].shape == (0,)

    def test_type_codes(self):
        g = HeteroGraph([("b", "y"), ("a", "x"), ("c", "y"), ("d", "w")], [("a", "b")])
        names, codes = g.type_codes()
        assert names == ("w", "x", "y")
        assert [names[c] for c in codes] == list(g.entity_types)
        assert g.type_codes() is g.type_codes()  # cached, and read-only for every caller
        assert not codes.flags.writeable


class TestSubgraphAndAlignment:
    def test_induced_subgraph_keeps_internal_edges(self):
        g = HeteroGraph(
            [("a", "t"), ("b", "t"), ("c", "t")],
            [("a", "b"), ("b", "c"), ("a", "c")],
        )
        sub = induced_subgraph(g, ["a", "c"])
        assert sub.entity_ids == ("a", "c")
        assert sub.edges() == (("a", "c", 1.0),)

    def test_induced_subgraph_unknown_id(self):
        with pytest.raises(GraftError, match="unknown"):
            induced_subgraph(toy_graph(), ["p1", "zz"])

    def test_align_union_entities(self):
        a = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b")])
        b = HeteroGraph([("b", "t"), ("c", "t")], [("b", "c")])
        ga, gb = align_union_entities(a, b)
        assert ga.entity_ids == gb.entity_ids == ("a", "b", "c")
        assert ga.edges() == (("a", "b", 1.0),)
        assert gb.edges() == (("b", "c", 1.0),)

    def test_align_type_conflict(self):
        a = HeteroGraph([("a", "t1")], [])
        b = HeteroGraph([("a", "t2")], [])
        with pytest.raises(GraftError, match="conflicting"):
            align_union_entities(a, b)

    def test_split_by_overlap_in_source_order(self):
        source = HeteroGraph([("d", "t"), ("a", "t"), ("c", "t"), ("b", "t"), ("e", "t")], [])
        target = HeteroGraph([("z", "t"), ("e", "t"), ("b", "t")], [])
        assert split_by_overlap(source, target) == ([1, 4], [0, 2, 3])
        with pytest.raises(GraftError, match="^no overlap between domains"):
            split_by_overlap(source, HeteroGraph([("z", "t")], []))


class TestDynamicFactor:
    def test_identical_graphs_zero(self):
        g = toy_graph()
        reweighted = HeteroGraph(g.entity_items(), [(a, b, 7.5 * w) for a, b, w in g.edges()])
        for a, b in ((g, g), (g, reweighted)):  # weights play no part
            assert dynamic_factor(a, b) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            ids = [f"e{i}" for i in range(n)]
            ents = [(e, "t") for e in ids]

            def rand_graph():
                edges = [
                    (ids[i], ids[j])
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < 0.4
                ]
                return HeteroGraph(ents, edges)

            ga, gb = rand_graph(), rand_graph()
            f = dynamic_factor(ga, gb)
            assert f == dynamic_factor(gb, ga)
            assert 0.0 <= f <= 1.0

    def test_flip_count_formula_exact(self):
        # toggling k distinct pairs of a binary graph moves the factor by exactly
        # 2k / (n (n - 1))
        rng = np.random.default_rng(5)
        n = 14
        ids = [f"e{i:02d}" for i in range(n)]
        ents = [(e, "t") for e in ids]
        base_pairs = {
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        }
        g1 = HeteroGraph(ents, sorted(base_pairs))
        all_pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
        for k in (0, 1, 7, 20):
            chosen = rng.choice(len(all_pairs), size=k, replace=False)
            pairs = set(base_pairs)
            for idx in chosen:
                p = all_pairs[idx]
                pairs.symmetric_difference_update({p})
            g2 = HeteroGraph(ents, sorted(pairs))
            f = dynamic_factor(g1, g2)
            assert f == dynamic_factor(g2, g1) == 2.0 * k / (n * (n - 1))

    def test_mismatched_ids_rejected(self):
        g = toy_graph()
        renamed = HeteroGraph([("x", "t"), ("y", "t"), ("z", "t")], [("x", "y")])
        for other in (HeteroGraph([("x", "t"), ("y", "t")], []), renamed):
            with pytest.raises(GraftError, match="different entity index spaces"):
                dynamic_factor(g, other)


class TestGraphFormat:
    def test_round_trip(self):
        g = toy_graph()
        assert parse_graph(format_graph(g)) == g

    def test_round_trip_preserves_weights_exactly(self):
        g = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 0.12345678901234567)])
        assert edge_weight(parse_graph(format_graph(g)), "a", "b") == 0.12345678901234567

    def test_header_required(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("v a t\n")

    @pytest.mark.parametrize(
        "body,line,msg",
        [
            ("v a\n", 2, "v-line"),
            ("v a t\nv a t\n", 3, "duplicate"),
            ("v a t\ne a b 1.0\n", 3, "not a declared entity"),
            ("v a t\ne a a 1.0\n", 3, "self-loop"),
            ("v a t\nv b t\ne a b zero\n", 4, "weight"),
            ("v a t\nv b t\ne a b 1.0\ne b a 2.0\n", 5, "duplicate"),
            ("x a\n", 2, "unknown record type"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, body, line, msg):
        with pytest.raises(GraphFormatError, match=msg) as exc:
            parse_graph("graphfmt 1\n" + body)
        assert exc.value.line == line

    def test_read_write_round_trip(self, tmp_path):
        g = toy_graph()
        path = tmp_path / "g.graph"
        write_graph(g, path)
        assert read_graph(path) == g

    def test_read_error_names_file(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match="bad.graph"):
            read_graph(path)
