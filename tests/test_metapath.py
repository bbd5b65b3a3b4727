import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from graft import GraftError, HeteroGraph, SimilarityMatrix, metapath
from graft.metapath import MetaPath, blend, enumerate_metapaths, path_distance_matrix, project
from graft.numerics import _check_symmetric
from testkit import reference_project


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
        assert p.types == ("process", "file", "process")
        assert not MetaPath(("file", "process")).is_palindrome()

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


def naive_projection(g, p):
    """Dense masked chain product, counting both orientations for non-palindromes, diagonal cleared."""
    adj = g.csr().toarray()
    types = np.array(g.entity_types)

    def mask(t):
        return np.diag((types == t).astype(float))

    m = mask(p.types[0]) @ adj @ mask(p.types[1])
    for t in p.types[2:]:
        m = m @ adj @ mask(t)
    if not p.is_palindrome():
        m = m + m.T
    np.fill_diagonal(m, 0.0)
    return m


def count(g, pp, a, b):
    return pp[g.index_of(a), g.index_of(b)]


class TestProject:
    def test_two_hop_walk_counts(self):
        g = tripartite()
        pp = project(g, MetaPath(("process", "file", "process")))
        # p1-f1-p2 is the only process-file-process walk with distinct endpoints
        assert count(g, pp, "p1", "p2") == count(g, pp, "p2", "p1") == 1.0
        assert pp.nnz == 2
        assert pp.shape == (g.n, g.n)

    def test_direct_projection_ignores_weights(self):
        g = HeteroGraph([("a", "x"), ("b", "y")], [("a", "b", 7.5)])
        pp = project(g, MetaPath(("x", "y")))
        assert count(g, pp, "a", "b") == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_dense_oracle(self, seed):
        # length 4 includes non-palindromes with equal end types, whose products have a diagonal
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        for p in enumerate_metapaths(g, max_len=4):
            pp = project(g, p)
            assert isinstance(pp, sp.csr_matrix)
            assert np.array_equal(pp.toarray(), naive_projection(g, p))
            # only positive walk counts are stored, none on the diagonal
            rows = np.repeat(np.arange(g.n), np.diff(pp.indptr))
            assert (pp.data > 0).all()
            assert not (rows == pp.indices).any()

    @staticmethod
    def assert_matches_reference(g, p):
        got, want = project(g, p), reference_project(g, p)
        assert isinstance(got, sp.csr_matrix) and got.shape == want.shape == (g.n, g.n)
        assert got.nnz == want.nnz and (got != want).nnz == 0
        # symmetric where it is produced: path_distance_matrix rejects any other pattern
        assert (got != got.T).nnz == 0
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_typed_blocks_match_mask_products(self, seed):
        g = random_graph(np.random.default_rng(seed), n=30, n_types=4, p=0.12)
        paths = enumerate_metapaths(g, max_len=4)
        # equal end types on a path that is not its own reversal, and one of the four types left out
        assert any(p.types[0] == p.types[-1] and not p.is_palindrome() for p in paths)
        assert any(p.is_palindrome() for p in paths) and any(p.types[0] != p.types[-1] for p in paths)
        assert any(len(set(p.types)) < 4 for p in paths)
        isolated = 0
        for p in paths:
            pp = self.assert_matches_reference(g, p)
            ends = np.isin(np.array(g.entity_types), [p.types[0], p.types[-1]])
            empty = np.diff(pp.indptr) == 0
            assert empty[~ends].all()  # a type at neither end has empty rows
            isolated += int((empty & ends).sum())
        assert isolated  # some end-type entities reach no other entity along their path

    def test_one_type_graph(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=15, n_types=1, p=0.2)
        paths = enumerate_metapaths(g, max_len=4)
        assert [p.types for p in paths] == [("t0",) * k for k in (2, 3, 4)]
        for p in paths:
            self.assert_matches_reference(g, p)

    def test_type_absent_from_the_graph_gives_an_empty_projection(self):
        g = tripartite()
        for types in (("process", "router"), ("router", "file", "router"), ("process", "file", "router")):
            assert self.assert_matches_reference(g, MetaPath(types)).nnz == 0

    def test_reversal_gives_identical_projection(self):
        g = tripartite()
        a = project(g, MetaPath(("process", "file", "host")))
        b = project(g, MetaPath(("host", "file", "process")))
        assert a.nnz and (a != b).nnz == 0

    def test_empty_graph(self):
        assert project(HeteroGraph(), MetaPath(("a", "b"))).shape == (0, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hops_read_the_pattern_not_the_counts(self, seed):
        g = random_graph(np.random.default_rng(seed), p=0.1)
        for p in enumerate_metapaths(g, max_len=3):
            links = naive_projection(g, p) > 0
            got = path_distance_matrix(project(g, p), provenance=p)
            assert got.provenance == p
            assert np.array_equal(got.matrix, naive_hop_distances(sp.csr_matrix(links)))


def naive_hop_distances(graph):
    """BFS from every entity over binary adjacency; unreachable pairs get the longest hop plus one.

    ``graph`` is a HeteroGraph or a sparse adjacency."""
    adj = (graph.csr() if isinstance(graph, HeteroGraph) else graph).toarray()
    n = adj.shape[0]
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
    dist[~np.isfinite(dist)] = dist[np.isfinite(dist)].max() + 1.0
    return dist


def assert_oracle_hops(g):
    """``path_distance_matrix`` of ``g`` equals the per-source BFS oracle, and its own
    transpose: the BFS writes it symmetric, and no check in the run walks it."""
    got = path_distance_matrix(g.csr()).matrix
    assert np.array_equal(got, naive_hop_distances(g))
    assert np.array_equal(got, got.T)
    return got


class TestPathDistance:
    def test_chain_distances(self):
        g = HeteroGraph(
            [("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")],
            [("a", "b", 1.0), ("b", "c", 1.0)],
        )
        sim = path_distance_matrix(g.csr())
        m = sim.matrix
        i = {e: k for k, e in enumerate(g.entity_ids)}
        assert m[i["a"], i["c"]] == 2.0
        # d is isolated: default cap is longest finite distance plus one
        assert m[i["a"], i["d"]] == 3.0
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_naive_bfs_oracle(self, seed):
        assert_oracle_hops(random_graph(np.random.default_rng(seed), p=0.08))

    def test_triangle_inequality_on_reachable_pairs(self):
        g = random_graph(np.random.default_rng(4), p=0.3)
        m = path_distance_matrix(g.csr()).matrix
        n = g.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert m[i, j] <= m[i, k] + m[k, j] + 1e-12

    def test_provenance_recorded(self):
        p = MetaPath(("t", "t"))
        sim = path_distance_matrix(HeteroGraph([("a", "t")], []).csr(), provenance=p)
        assert sim.provenance == p

    def test_empty_graph(self):
        assert path_distance_matrix(HeteroGraph().csr()).n == 0

    @pytest.mark.parametrize("adj", [
        sp.csr_matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3)),  # a directed 3-cycle
        # a directed edge whose head has an empty row, once an IndexError in the relabelling
        sp.csr_matrix((np.ones(1), ([0], [1])), shape=(3, 3)),
        sp.csr_matrix((2, 3)),
    ], ids=["directed-cycle", "edge-into-empty-row", "not-square"])
    def test_asymmetric_adjacency_rejected(self, adj):
        with pytest.raises(GraftError, match="^adjacency must be symmetric$"):
            path_distance_matrix(adj)
        with pytest.raises(GraftError, match=r"^adjacency of meta-path \('t', 'u'\) must be symmetric$"):
            path_distance_matrix(adj, provenance=MetaPath(("t", "u")))

    def test_every_asymmetric_pattern_on_four_entities_rejected(self):
        # all 2¹² off-diagonal patterns: each symmetric one matches the oracle, every other one is a GraftError
        cells = [(i, j) for i in range(4) for j in range(4) if i != j]
        symmetric = 0
        for bits in range(1 << len(cells)):
            on = [c for k, c in enumerate(cells) if bits >> k & 1]
            adj = sp.csr_matrix((np.ones(len(on)), ([i for i, _ in on], [j for _, j in on])), shape=(4, 4))
            if all((j, i) in on for i, j in on):
                symmetric += 1
                assert np.array_equal(path_distance_matrix(adj).matrix, naive_hop_distances(adj))
            else:
                with pytest.raises(GraftError, match="symmetric"):
                    path_distance_matrix(adj)
        assert symmetric == 1 << 6

    def test_entry_stored_twice_is_one_edge(self):
        # row 0 stores its edge to 1 twice, row 1 its edge to 0 once: the pattern is symmetric
        adj = sp.csr_matrix((np.ones(3), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 2))
        assert np.array_equal(path_distance_matrix(adj).matrix, [[0, 1], [1, 0]])


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

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129])
    def test_word_boundaries(self, n):
        # from n = 2 on every entity gets an edge, so all n bit columns are live
        rng = np.random.default_rng(n)
        pairs = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 2.0 / n}
        lonely = set(range(n)) - {v for p in pairs for v in p}
        pairs |= {tuple(sorted((v, (v + 1) % n))) for v in lonely if n > 1}
        g = graph_from_pairs(n, sorted(pairs))
        got = path_distance_matrix(g.csr()).matrix
        assert np.array_equal(got, naive_hop_distances(g))

    def test_components_and_isolated_entities(self):
        ring = [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
        clique = [(a, b) for a in range(12, 16) for b in range(a + 1, 16)]
        g = graph_from_pairs(16, path_pairs(0, 5) + ring + clique, isolated=6)
        got = path_distance_matrix(g.csr()).matrix
        assert np.array_equal(got, naive_hop_distances(g))

    @pytest.mark.parametrize("n", [1, 5])
    def test_all_isolated(self, n):
        got = path_distance_matrix(graph_from_pairs(0, [], isolated=n).csr()).matrix
        assert np.array_equal(got, 1.0 - np.eye(n))
        assert np.array_equal(got, got.T)

    def test_long_path_hands_off_every_source(self, monkeypatch):
        spy = HandOffSpy(monkeypatch)
        assert_oracle_hops(graph_from_pairs(100, path_pairs(0, 100), isolated=2))
        # every vertex of a 100-path has a vertex at least 50 hops away
        assert [s.tolist() for s in spy.sources] == [list(range(100))]

    def test_dense_core_with_tail_hands_off_some_sources(self, monkeypatch):
        spy = HandOffSpy(monkeypatch)
        rng = np.random.default_rng(3)
        core = [(a, b) for a in range(20) for b in range(a + 1, 20) if rng.random() < 0.4]
        # the tail hangs from its middle, so only the entities near that
        # point reach everything within the bitset hops
        g = graph_from_pairs(80, core + [(0, 50)] + path_pairs(20, 60), isolated=3)
        assert_oracle_hops(g)
        live = np.flatnonzero(np.diff(g.csr().indptr))
        eccentricity = naive_hop_distances(g)[np.ix_(live, live)].max(axis=1)
        (sources,) = spy.sources
        assert sources.tolist() == np.flatnonzero(eccentricity >= metapath._BITSET_HOPS).tolist()
        assert 0 < len(sources) < 80


class TestCompactHops:
    """Hop matrices take the narrowest unsigned dtype that holds the cap, one past the longest hop."""

    @pytest.mark.parametrize("graph,dtype", [
        ("random", np.uint8),
        # the longest hop is 299, so the cap is 300
        ("path300", np.uint16),
    ])
    def test_dtype_and_values(self, graph, dtype):
        if graph == "random":
            g = random_graph(np.random.default_rng(5), p=0.08)
        else:
            g = graph_from_pairs(300, path_pairs(0, 300), isolated=1)
        got = path_distance_matrix(g.csr()).matrix
        assert got.dtype == dtype
        assert np.array_equal(got, naive_hop_distances(g))

    def test_blend_reads_the_same_values_as_float(self):
        g = random_graph(np.random.default_rng(6), p=0.1)
        other = random_graph(np.random.default_rng(7), p=0.1)
        mats = [path_distance_matrix(g.csr()), path_distance_matrix(other.csr())]
        floats = [SimilarityMatrix(m.matrix.astype(float)) for m in mats]
        assert mats[0].matrix.dtype == np.uint8
        assert np.array_equal(blend(mats), blend(floats))


class TestIntegerHopCounts:
    """Hop counts go straight into the integer matrix, with no float64 k × k matrix on the way."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isolated_entities_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pairs = {(a, b) for a, b in rng.integers(0, 150, (120, 2)).tolist() if a < b}
        g = graph_from_pairs(150, sorted(pairs), isolated=40)
        assert (np.diff(g.csr().indptr) == 0).sum() >= 40
        assert_oracle_hops(g)

    def test_hand_off_rows_need_uint16(self, monkeypatch):
        # a 300-path hands off every one of its entities, and its rows hold
        # hops past 255; the clique beside it ends inside the bitset hops
        spy = HandOffSpy(monkeypatch)
        clique = [(a, b) for a in range(300, 310) for b in range(a + 1, 310)]
        g = graph_from_pairs(310, path_pairs(0, 300) + clique, isolated=2)
        got = path_distance_matrix(g.csr()).matrix
        assert got.dtype == np.uint16
        assert got.max() == 300
        assert np.array_equal(got, naive_hop_distances(g))
        live = np.flatnonzero(np.diff(g.csr().indptr))
        (sources,) = spy.sources
        assert live[sources].tolist() == [g.entity_ids.index(f"v{i:04d}") for i in range(300)]

    def test_sparse_graph_allocates_no_float_matrix(self):
        rng = np.random.default_rng(0)
        pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, 1000, (2000, 2)).tolist() if a != b}
        g = graph_from_pairs(1000, sorted(pairs))
        k = int(np.count_nonzero(np.diff(g.csr().indptr)))
        assert k > 950
        path_distance_matrix(g.csr())
        tracemalloc.start()
        try:
            got = path_distance_matrix(g.csr()).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == np.uint8
        # a float64 k × k hop matrix alone would take 8·k² bytes
        assert peak < 8 * k * k


class TestSimilarityMatrix:
    @pytest.mark.parametrize(
        "m,msg",
        [
            (np.zeros((2, 3)), "square"),
            (np.array([[0.0, np.inf], [np.inf, 0.0]]), "finite"),
            (np.zeros(3), "square"),
            (np.array([[1.0, 2.0], [2.0, 0.0]]), "diagonal"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "nonnegative"),
        ],
    )
    def test_invalid_rejected(self, m, msg):
        with pytest.raises(GraftError, match=msg):
            SimilarityMatrix(m)

    def test_symmetry_is_left_to_its_consumers(self):
        # MDS and the weight fit check it (tests/test_selection.py, TestSymmetryConsumers)
        assert SimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]])).n == 2


class TestTiledSymmetryCheck:
    """``numerics._check_symmetric``, the one symmetry rule, on the dtypes of a hop matrix and of
    the blend: it compares tile by tile, and 800 rows make three 256-wide tiles and a short 32-wide
    last one."""

    @staticmethod
    def symmetric(dtype):
        m = np.triu(np.random.default_rng(11).integers(1, 9, (800, 800)), k=1)
        return (m + m.T).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_symmetric_accepted(self, dtype):
        assert _check_symmetric(self.symmetric(dtype)) is None

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("cell", [
        (3, 600),  # far off-diagonal, in a full tile two tiles from the diagonal
        (300, 5),  # below the diagonal, in the tile beside the first
        (5, 790),  # off-diagonal, in the short last column of tiles
        (780, 795),  # inside the short last diagonal tile
        (795, 780),  # its mirror
    ])
    def test_asymmetric_cell_rejected(self, dtype, cell):
        m = self.symmetric(dtype)
        m[cell] += 1
        with pytest.raises(GraftError, match="symmetric"):
            _check_symmetric(m)


class TestBlend:
    """``blend`` is the uniform mean ΣM/P, each matrix weighing 1/P."""

    def test_weighted_sum(self):
        a = SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = SimilarityMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
        out = blend([a, b])
        assert out.dtype == np.float64
        assert np.array_equal(out, [[0.0, 2.5], [2.5, 0.0]])

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(7)
        mats = []
        for _ in range(4):
            m = np.triu(rng.random((6, 6)), k=1)
            mats.append(SimilarityMatrix(m + m.T))
        expect = sum(m.matrix for m in mats) / 4
        assert np.allclose(blend(mats), expect, rtol=1e-15, atol=0.0)

    @staticmethod
    def hop_like(count, n=11, seed=3, high=12):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(count):
            m = np.triu(rng.integers(1, high, (n, n)), k=1)
            mats.append(SimilarityMatrix((m + m.T).astype(np.uint8)))
        return mats

    @pytest.mark.parametrize("count", [1, 2, 6, 24])
    def test_equal_unsigned_weights_scale_the_exact_sum(self, count):
        mats = self.hop_like(count)
        total = sum(m.matrix.astype(np.int64) for m in mats)
        out = blend(mats)
        assert out.dtype == np.float64
        assert np.array_equal(out, total * (1.0 / count))
        if count == 1:  # the one matrix, read in place, times 1.0
            assert np.array_equal(out, mats[0].matrix * 1.0)

    def test_many_full_matrices_do_not_wrap(self):
        full = np.full((5, 5), 255, dtype=np.uint8)
        np.fill_diagonal(full, 0)
        out = blend([SimilarityMatrix(full)] * 300)
        assert np.array_equal(out, (full.astype(np.int64) * 300) * (1.0 / 300))

    # 257 full uint8 matrices sum to 65535 in uint16; 258 would wrap it, and
    # so would two full uint16 matrices, or two full uint32 ones in uint32
    @pytest.mark.parametrize(
        "dtype,count", [(np.uint8, 24), (np.uint8, 257), (np.uint8, 258), (np.uint16, 2), (np.uint16, 3), (np.uint32, 2)]
    )
    def test_bitwise_equal_to_int64_oracle_across_widenings(self, dtype, count):
        rng = np.random.default_rng(count)
        top = np.iinfo(dtype).max
        mats = []
        for _ in range(count):
            m = np.triu(rng.integers(top - 3, top, (6, 6), endpoint=True), k=1).astype(dtype)
            m[0, 1:] = top  # row 0 sums to count × the dtype maximum
            mats.append(SimilarityMatrix(m + m.T))
        total = sum(m.matrix.astype(np.int64) for m in mats)
        assert total[0, 1] == count * int(top)
        out = blend(m for m in mats)
        assert np.array_equal(out, total * (1.0 / count))
        assert np.array_equal(out, np.multiply(total, 1.0 / count, dtype=float))

    def test_uint32_matrices_widen_instead_of_wrapping(self):
        big = np.full((4, 4), 4_000_000_000, dtype=np.uint32)
        np.fill_diagonal(big, 0)
        assert np.array_equal(blend([SimilarityMatrix(big)] * 3), big.astype(np.int64) * 3 * (1.0 / 3))

    # integer-valued floats plus halves, so every order of the float sum is exact
    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_float_matrix_widens_the_sum(self, at):
        mats = self.hop_like(4)
        m = mats[at].matrix + 0.5
        np.fill_diagonal(m, 0.0)
        mats[at] = SimilarityMatrix(m)
        total = sum(x.matrix.astype(np.float64) for x in mats)
        assert np.array_equal(blend(mats), total * 0.25)

    def test_inputs_left_unchanged(self):
        mats = self.hop_like(3)
        mats.insert(1, SimilarityMatrix(mats[0].matrix.astype(float)))
        before = [m.matrix.copy() for m in mats]
        for head in (mats, mats[1:], mats[1:2], mats[:1]):
            out = blend(head)
            assert not any(np.shares_memory(out, m.matrix) for m in head)
        assert all(np.array_equal(m.matrix, b) for m, b in zip(mats, before))

    @pytest.mark.parametrize(
        "mats,msg",
        [
            ([], "at least one"),
            ([SimilarityMatrix(np.zeros((2, 2))), SimilarityMatrix(np.zeros((3, 3)))], "mismatch"),
        ],
    )
    def test_invalid_rejected(self, mats, msg):
        with pytest.raises(GraftError, match=msg):
            blend(mats)


class TestStreamedBlend:
    """``blend`` takes a generator and consumes it one matrix at a time."""

    @staticmethod
    def mats(n=7, count=5, seed=9):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            m = np.triu(rng.integers(1, 12, (n, n)), k=1)
            out.append(SimilarityMatrix((m + m.T).astype(np.uint8)))
        return out

    @pytest.mark.parametrize("count", [1, 40, 32768])
    def test_generator_bitwise_equal_to_list(self, count):
        # one matrix read in place, a short exact sum, and a stream long
        # enough that its uint8 sum would overflow a uint16 accumulator
        mats = self.mats(n=4, count=count)
        assert np.array_equal(blend(m for m in mats), blend(mats))

    def test_generator_consumed_one_matrix_at_a_time(self):
        # each matrix is made on demand and held only by the blend, which has
        # let go of matrix k − 2 by the time it asks for matrix k
        arrays = [m.matrix for m in self.mats(count=6)]
        alive = []

        def stream():
            for k, a in enumerate(arrays):
                if k >= 2:
                    assert alive[k - 2]() is None
                m = SimilarityMatrix(a.copy())
                alive.append(weakref.ref(m.matrix))
                yield m

        total = sum(a.astype(np.int64) for a in arrays)
        assert np.array_equal(blend(stream()), total * (1.0 / 6))
        assert len(alive) == 6

    @staticmethod
    def counted(mats, pulled):
        for m in mats:
            pulled.append(m)
            yield m

    def test_wrong_shape_mid_stream_stops_it(self):
        mats = self.mats(count=5)
        mats[2] = self.mats(n=8, count=1)[0]
        pulled = []
        with pytest.raises(GraftError, match="mismatch"):
            blend(self.counted(mats, pulled))
        assert len(pulled) == 3
