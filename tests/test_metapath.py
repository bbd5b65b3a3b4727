import numpy as np
import pytest

from graft import (
    GraftError,
    HeteroGraph,
    MetaPath,
    SimilarityMatrix,
    blend,
    enumerate_metapaths,
    path_distance_matrix,
    project,
)
from graft import metapath


def tripartite():
    # p1-f1-h1 chain plus p2 sharing f1; two processes, one file, one host
    entities = [("p1", "process"), ("p2", "process"), ("f1", "file"), ("h1", "host")]
    edges = [("p1", "f1", 1.0), ("p2", "f1", 1.0), ("f1", "h1", 1.0)]
    return HeteroGraph(entities, edges)


def random_graph(rng, n=18, n_types=3, p=0.2):
    types = rng.integers(0, n_types, size=n)
    entities = [(f"e{i:02d}", f"t{types[i]}") for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((entities[i][0], entities[j][0], 1.0))
    return HeteroGraph(entities, edges)


class TestMetaPath:
    def test_canonical_orientation(self):
        assert MetaPath(("file", "process")).types == ("file", "process")
        assert MetaPath(("process", "file")).types == ("file", "process")
        assert MetaPath(("process", "file")) == MetaPath(("file", "process"))

    def test_palindrome_and_label(self):
        p = MetaPath(("process", "file", "process"))
        assert p.is_palindrome()
        assert p.label() == "process-file-process"
        assert not MetaPath(("file", "process")).is_palindrome()

    def test_length(self):
        assert MetaPath(("a", "b", "c")).length == 3

    @pytest.mark.parametrize("types", [(), ("a",), ("a", ""), ("a", 3)])
    def test_invalid_rejected(self, types):
        with pytest.raises(GraftError):
            MetaPath(types)

    def test_ordering_is_deterministic(self):
        ps = [MetaPath(t) for t in [("b", "a"), ("a", "a"), ("a", "b", "a")]]
        assert sorted(ps) == [MetaPath(("a", "a")), MetaPath(("a", "b")), MetaPath(("a", "b", "a"))]


class TestEnumerate:
    def test_hand_built_expectation(self):
        # edge type pairs: process-file, file-host; no process-host edge
        got = enumerate_metapaths(tripartite(), max_len=3)
        expected = {
            MetaPath(("file", "process")),
            MetaPath(("file", "host")),
            MetaPath(("process", "file", "process")),
            MetaPath(("process", "file", "host")),
            MetaPath(("host", "file", "host")),
            MetaPath(("file", "process", "file")),
            MetaPath(("file", "host", "file")),
        }
        assert set(got) == expected
        assert got == sorted(got)

    def test_max_len_two(self):
        got = enumerate_metapaths(tripartite(), max_len=2)
        assert got == [MetaPath(("file", "host")), MetaPath(("file", "process"))]

    def test_max_len_too_small(self):
        with pytest.raises(GraftError, match="max_len"):
            enumerate_metapaths(tripartite(), max_len=1)

    def test_empty_graph(self):
        assert enumerate_metapaths(HeteroGraph()) == []

    def test_every_consecutive_pair_occurs_on_an_edge(self):
        g = random_graph(np.random.default_rng(3))
        pairs = set()
        for a, b, _ in g.edges():
            ta, tb = g.type_of(a), g.type_of(b)
            pairs.add((ta, tb))
            pairs.add((tb, ta))
        for p in enumerate_metapaths(g, max_len=4):
            for ta, tb in zip(p.types, p.types[1:]):
                assert (ta, tb) in pairs


def naive_projection_weights(g, p):
    """Dense masked chain product, counting both orientations for non-palindromes."""
    n = g.n
    adj = g.adjacency(binary=True).matrix
    types = np.array(g.entity_types)

    def mask(t):
        return np.diag((types == t).astype(float))

    m = mask(p.types[0]) @ adj @ mask(p.types[1])
    for t in p.types[2:]:
        m = m @ adj @ mask(t)
    if not p.is_palindrome():
        m = m + m.T
    m = np.triu(m, k=1)
    return {
        (g.entity_ids[i], g.entity_ids[j]): m[i, j]
        for i in range(n)
        for j in range(i + 1, n)
        if m[i, j] > 0
    }


class TestProject:
    def test_two_hop_walk_counts(self):
        g = tripartite()
        pp = project(g, MetaPath(("process", "file", "process")))
        # p1-f1-p2 is the only process-file-process walk with distinct endpoints
        assert pp.edge_weight("p1", "p2") == 1.0
        assert pp.edge_count == 1
        assert pp.entity_ids == g.entity_ids

    def test_direct_projection_ignores_weights(self):
        g = HeteroGraph([("a", "x"), ("b", "y")], [("a", "b", 7.5)])
        pp = project(g, MetaPath(("x", "y")))
        assert pp.edge_weight("a", "b") == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        for p in enumerate_metapaths(g, max_len=3):
            pp = project(g, p)
            got = {(a, b): w for a, b, w in pp.edges()}
            assert got == naive_projection_weights(g, p)

    def test_reversal_gives_identical_projection(self):
        g = tripartite()
        assert project(g, MetaPath(("process", "file", "host"))) == project(
            g, MetaPath(("host", "file", "process"))
        )

    def test_empty_graph(self):
        assert project(HeteroGraph(), MetaPath(("a", "b"))).n == 0


def naive_hop_distances(gp, cap):
    """BFS from every entity over binary adjacency."""
    n = gp.n
    adj = gp.adjacency(binary=True).matrix
    nbrs = [np.flatnonzero(adj[i] > 0) for i in range(n)]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[s, v] == np.inf:
                        dist[s, v] = d
                        nxt.append(v)
            frontier = nxt
    if cap is None:
        cap = dist[np.isfinite(dist)].max() + 1.0
    dist[~np.isfinite(dist)] = cap
    return dist


class TestPathDistance:
    def test_chain_distances(self):
        g = HeteroGraph(
            [("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        sim = path_distance_matrix(g)
        m = sim.matrix
        i = {e: k for k, e in enumerate(g.entity_ids)}
        assert m[i["a"], i["c"]] == 2.0
        # d is isolated: default cap is longest finite distance plus one
        assert m[i["a"], i["d"]] == 3.0
        assert np.array_equal(m, m.T)

    def test_explicit_cap(self):
        g = HeteroGraph([("a", "t"), ("b", "t")], [])
        sim = path_distance_matrix(g, cap=9.0)
        assert sim.matrix[0, 1] == 9.0

    @pytest.mark.parametrize("seed,cap", [(0, None), (1, 5.0), (2, None)])
    def test_matches_naive_bfs_oracle(self, seed, cap):
        g = random_graph(np.random.default_rng(seed), p=0.08)
        got = path_distance_matrix(g, cap=cap).matrix
        assert np.array_equal(got, naive_hop_distances(g, cap))

    def test_triangle_inequality_on_reachable_pairs(self):
        g = random_graph(np.random.default_rng(4), p=0.3)
        m = path_distance_matrix(g).matrix
        n = g.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-12

    def test_provenance_recorded(self):
        p = MetaPath(("t", "t"))
        sim = path_distance_matrix(HeteroGraph([("a", "t")], []), provenance=p)
        assert sim.provenance == p

    def test_bad_cap(self):
        with pytest.raises(GraftError, match="cap"):
            path_distance_matrix(HeteroGraph(), cap=0.0)

    def test_empty_graph(self):
        assert path_distance_matrix(HeteroGraph()).n == 0


def graph_from_pairs(n, pairs, isolated=0):
    """Entities v0000.. joined by index pairs, plus isolated entities sorted in between."""
    ids = [f"v{i:04d}" for i in range(n)]
    lone = [f"v{i:04d}a" for i in range(isolated)]
    edges = [(ids[a], ids[b], 1.0) for a, b in pairs]
    return HeteroGraph([(e, "t") for e in ids + lone], edges)


def path_pairs(start, length):
    return [(start + i, start + i + 1) for i in range(length - 1)]


class HandOffSpy:
    """Records the sources the bitset BFS hands to Dijkstra."""

    def __init__(self, monkeypatch):
        self.sources = []
        real = metapath.shortest_path

        def spy(*args, indices=None, **kwargs):
            self.sources.append(np.asarray(indices))
            return real(*args, indices=indices, **kwargs)

        monkeypatch.setattr(metapath, "shortest_path", spy)


class TestBitsetBfs:
    """The multi-source bitset BFS against the per-source oracle, bit for bit."""

    @pytest.mark.parametrize("cap", [None, 5.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_word_boundaries(self, n, cap):
        # from n = 2 on every entity gets an edge, so all n bit columns are live
        rng = np.random.default_rng(n)
        pairs = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 2.0 / n}
        lonely = set(range(n)) - {v for p in pairs for v in p}
        pairs |= {tuple(sorted((v, (v + 1) % n))) for v in lonely if n > 1}
        g = graph_from_pairs(n, sorted(pairs))
        got = path_distance_matrix(g, cap=cap).matrix
        assert np.array_equal(got, naive_hop_distances(g, cap))

    @pytest.mark.parametrize("cap", [None, 5.0, 0.5])
    def test_components_and_isolated_entities(self, cap):
        ring = [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
        clique = [(a, b) for a in range(12, 16) for b in range(a + 1, 16)]
        g = graph_from_pairs(16, path_pairs(0, 5) + ring + clique, isolated=6)
        got = path_distance_matrix(g, cap=cap).matrix
        assert np.array_equal(got, naive_hop_distances(g, cap))

    @pytest.mark.parametrize("n", [1, 5])
    def test_all_isolated(self, n):
        got = path_distance_matrix(graph_from_pairs(0, [], isolated=n)).matrix
        assert np.array_equal(got, 1.0 - np.eye(n))

    @pytest.mark.parametrize("cap", [None, 5.0, 0.5])
    def test_long_path_hands_off_every_source(self, monkeypatch, cap):
        spy = HandOffSpy(monkeypatch)
        g = graph_from_pairs(100, path_pairs(0, 100), isolated=2)
        got = path_distance_matrix(g, cap=cap).matrix
        assert np.array_equal(got, naive_hop_distances(g, cap))
        # every vertex of a 100-path has a vertex at least 50 hops away
        assert [s.tolist() for s in spy.sources] == [list(range(100))]

    @pytest.mark.parametrize("cap", [None, 5.0, 0.5])
    def test_dense_core_with_tail_hands_off_some_sources(self, monkeypatch, cap):
        spy = HandOffSpy(monkeypatch)
        rng = np.random.default_rng(3)
        core = [(a, b) for a in range(20) for b in range(a + 1, 20) if rng.random() < 0.4]
        # the tail hangs from its middle, so only the entities near that
        # point reach everything within the bitset hops
        g = graph_from_pairs(80, core + [(0, 50)] + path_pairs(20, 60), isolated=3)
        got = path_distance_matrix(g, cap=cap).matrix
        assert np.array_equal(got, naive_hop_distances(g, cap))
        live = np.flatnonzero(np.diff(g.csr().indptr))
        eccentricity = naive_hop_distances(g, None)[np.ix_(live, live)].max(axis=1)
        (sources,) = spy.sources
        assert sources.tolist() == np.flatnonzero(eccentricity >= metapath._BITSET_HOPS).tolist()
        assert 0 < len(sources) < 80


class TestSimilarityMatrix:
    @pytest.mark.parametrize(
        "m,msg",
        [
            (np.zeros((2, 3)), "square"),
            (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
            (np.array([[0.0, 1.0], [2.0, 0.0]]), "symmetric"),
            (np.array([[1.0, 2.0], [2.0, 0.0]]), "diagonal"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "nonnegative"),
        ],
    )
    def test_invalid_rejected(self, m, msg):
        with pytest.raises(GraftError, match=msg):
            SimilarityMatrix(m)


class TestBlend:
    def test_weighted_sum(self):
        a = SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = SimilarityMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
        out = blend([a, b], [0.5, 0.25])
        assert np.allclose(out.matrix, [[0.0, 1.5], [1.5, 0.0]])
        assert out.provenance is None

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(7)
        mats = []
        for _ in range(4):
            m = np.triu(rng.random((6, 6)), k=1)
            mats.append(SimilarityMatrix(m + m.T))
        w = rng.random(4)
        expect = sum(wi * m.matrix for wi, m in zip(w, mats))
        assert np.allclose(blend(mats, w).matrix, expect)

    @pytest.mark.parametrize(
        "mats,w,msg",
        [
            ([], [], "at least one"),
            ([SimilarityMatrix(np.zeros((2, 2)))], [1.0, 2.0], "weights"),
            ([SimilarityMatrix(np.zeros((2, 2)))], [-1.0], "nonnegative"),
            (
                [SimilarityMatrix(np.zeros((2, 2))), SimilarityMatrix(np.zeros((3, 3)))],
                [1.0, 1.0],
                "mismatch",
            ),
        ],
    )
    def test_invalid_rejected(self, mats, w, msg):
        with pytest.raises(GraftError, match=msg):
            blend(mats, w)
