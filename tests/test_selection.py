import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from graft import (
    GraftError,
    HeteroGraph,
    SimilarityMatrix,
    SynthSpec,
    TransferConfig,
    fit_selection_model,
    generate,
    mds_embed,
    numerics,
    run_transfer,
    selection,
    transfer,
)
from graft.metapath import MetaPath, enumerate_metapaths
from graft.numerics import ols_nonneg
from graft.selection import (
    SelectionState,
    blend,
    fit_weights,
    merge_transferred_entities,
    metapath_distance_matrices,
    relevance_scores,
    selection_objective,
    squared_row_distances,
)
from testkit import edge_weight, uniform_weights

# keeps the weight fit's normal equations solvable when hop-matrix columns are collinear
RIDGE = 1e-6


def typed_random_graph(seed, n=20, n_types=3, p=0.25):
    rng = np.random.default_rng(seed)
    types = rng.integers(0, n_types, size=n)
    entities = [(f"e{i:02d}", f"t{types[i]}") for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((entities[i][0], entities[j][0], 1.0))
    return HeteroGraph(entities, edges)


class TestMdsEmbed:
    def test_two_points_frozen(self):
        # squared dissimilarity 4 between two points embeds as +/-1 on a line;
        # the sign convention puts the positive coordinate first
        emb = mds_embed(np.array([[0.0, 4.0], [4.0, 0.0]]), 1)
        assert np.allclose(emb, [[1.0], [-1.0]])

    def test_euclidean_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 3))
        sq = squared_row_distances(x)
        emb = mds_embed(sq, 3)
        got = squared_row_distances(emb)
        assert np.allclose(got, sq, rtol=1e-6, atol=1e-9)

    @staticmethod
    def dense_mds(d, d1):
        """MDS of the formed double centring B by a full ``eigh``, each vector's
        largest-magnitude entry made positive."""
        n = len(d)
        j = np.eye(n) - np.full((n, n), 1.0 / n)
        values, vectors = np.linalg.eigh(-0.5 * j @ d @ j)
        values, vectors = values[::-1][:d1], vectors[:, ::-1][:, :d1]
        signs = np.sign(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(d1)])
        return vectors * signs * np.sqrt(np.clip(values, 0.0, None))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["euclidean", "hop blend"])
    def test_matches_dense_eigh_reference(self, kind, seed):
        # the Lanczos matvec reads one triangle of D (dsymv); the dense reference forms B
        if kind == "euclidean":
            d = squared_row_distances(np.random.default_rng(seed).standard_normal((80, 6)))
        else:
            g = typed_random_graph(seed, n=90, p=0.05)
            d = blend(metapath_distance_matrices(g, TransferConfig()))
        got, want = mds_embed(d, 5), self.dense_mds(d, 5)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * np.abs(want).max())

    def test_non_euclidean_input_is_clipped(self):
        # unit-square squared distances with one diagonal stretched to 8
        # cannot come from any point set: centering gives eigenvalue -1.5
        s = np.array(
            [
                [0.0, 1.0, 1.0, 8.0],
                [1.0, 0.0, 2.0, 1.0],
                [1.0, 2.0, 0.0, 1.0],
                [8.0, 1.0, 1.0, 0.0],
            ]
        )
        n = 4
        j = np.eye(n) - np.full((n, n), 1.0 / n)
        b = -0.5 * j @ s @ j
        assert np.linalg.eigvalsh(b).min() < -1.0
        emb = mds_embed(s, 4)
        assert np.isfinite(emb).all()
        # the clipped direction contributes nothing
        assert np.allclose(np.linalg.norm(emb, axis=0).min(), 0.0)

    def test_coincident_points_embed_at_the_origin(self):
        # B = 0: ARPACK finds no start vector there, and LAPACK returned zeros
        assert np.array_equal(mds_embed(np.zeros((40, 40)), 16), np.zeros((40, 16)))

    def test_lanczos_failure_is_a_stage_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("No convergence (400 iterations, 3/16 eigenvectors converged)", [], [])

        monkeypatch.setattr(numerics, "eigsh", fail)
        gs, _, gt_hat = generate(SynthSpec(60, 30, dynamic_factor=0.1, maturity=0.5, seed=0))
        with pytest.raises(GraftError, match="^selection-model: MDS eigensolve failed: ARPACK error -1: No convergence"):
            run_transfer(gs, gt_hat)

    @pytest.mark.parametrize(
        "m,d1,msg",
        [
            (np.zeros((2, 3)), 1, "square"),
            (np.zeros((0, 0)), 1, "empty"),
            (np.zeros((3, 3)), 0, "d1 must be"),
            (np.zeros((3, 3)), 4, "d1 must be"),
            (np.full((2, 2), np.nan), 1, "finite"),
        ],
    )
    def test_invalid_rejected(self, m, d1, msg):
        with pytest.raises(GraftError, match=msg):
            mds_embed(m, d1)


class TestSquaredRowDistances:
    def test_matches_naive_loops(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 4))
        got = squared_row_distances(x)
        for i in range(8):
            for j in range(8):
                expect = float(((x[i] - x[j]) ** 2).sum())
                assert got[i, j] == pytest.approx(expect, abs=1e-12)


class TestFitWeights:
    def test_exact_recovery_of_blend(self):
        # a nonnegative blend of squared-Euclidean matrices is realized by
        # concatenating the scaled coordinates, so recovery is exact
        rng = np.random.default_rng(1)
        n = 25
        w_true = np.array([0.3, 0.5, 0.2])
        parts, mats = [], []
        for wi in w_true:
            xi = rng.standard_normal((n, 2))
            mats.append(SimilarityMatrix(squared_row_distances(xi)))
            parts.append(np.sqrt(wi) * xi)
        combined = np.hstack(parts)
        w = fit_weights(combined, mats, ridge=0.0)
        assert np.allclose(w, w_true, atol=1e-8)

    def test_clamps_negative_coefficients(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 2))
        d = squared_row_distances(x)
        mats = [SimilarityMatrix(d), SimilarityMatrix(2.0 * d)]
        # collinear columns need ridge; the fit splits weight nonnegatively
        w = fit_weights(x, mats, ridge=1e-8)
        assert (w >= 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(GraftError, match="does not match"):
            fit_weights(np.zeros((3, 2)), [SimilarityMatrix(np.zeros((4, 4)))], 0.0)

    def test_no_matrices(self):
        with pytest.raises(GraftError, match="at least one"):
            fit_weights(np.zeros((3, 2)), [], 0.0)


def dense_fit_reference(embedding, mats, ridge):
    """The weight fit through the full n(n−1)/2 × P float64 design."""
    iu = np.triu_indices(embedding.shape[0], k=1)
    design = np.column_stack([m.matrix[iu].astype(float) for m in mats])
    return ols_nonneg(design, squared_row_distances(embedding)[iu], ridge)


class TestFitWeightsOnHopMatrices:
    @pytest.mark.parametrize("block_cells", [1, 60, selection._FIT_BLOCK_CELLS])
    def test_matches_dense_design_reference(self, monkeypatch, block_cells):
        # 1 cell gives one row per block, 60 gives 3-row blocks and a short last one
        monkeypatch.setattr(selection, "_FIT_BLOCK_CELLS", block_cells)
        g = typed_random_graph(7)
        mats = metapath_distance_matrices(g, TransferConfig())
        assert {m.matrix.dtype for m in mats} == {np.dtype(np.uint8)}
        embedding = mds_embed(blend(mats), 4)
        got = fit_weights(embedding, mats, RIDGE)
        want = dense_fit_reference(embedding, mats, RIDGE)
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert (got > 0).any()

    def test_identical_hop_matrices_need_ridge(self):
        g = typed_random_graph(7)
        mat = metapath_distance_matrices(g, TransferConfig())[0]
        embedding = np.random.default_rng(0).standard_normal((g.n, 3))
        with pytest.raises(GraftError, match="ridge"):
            fit_weights(embedding, [mat, mat], ridge=0.0)
        assert np.isfinite(fit_weights(embedding, [mat, mat], ridge=RIDGE)).all()

    def test_fewer_pairs_than_matrices_need_ridge(self):
        mats = [SimilarityMatrix(np.array([[0, k], [k, 0]], dtype=np.uint8)) for k in (1, 2)]
        with pytest.raises(GraftError, match="at least as many rows"):
            fit_weights(np.array([[0.0], [1.0]]), mats, ridge=0.0)


class TestSymmetryConsumers:
    """The consumers that rely on symmetry check it; ``SimilarityMatrix`` does not walk for it."""

    ASYMMETRIC = np.array([[0.0, 1.0], [2.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_fit_weights_rejects_an_asymmetric_matrix(self, dtype):
        # its halved full-row sums assume equal triangles
        mats = [SimilarityMatrix(self.ASYMMETRIC.astype(dtype))]
        with pytest.raises(GraftError, match="not symmetric"):
            fit_weights(np.array([[0.0], [1.0]]), mats, ridge=RIDGE)

    def test_mds_rejects_an_asymmetric_matrix(self):
        with pytest.raises(GraftError, match="not symmetric"):
            mds_embed(self.ASYMMETRIC, 1)


class TestSelectionMemory:
    def test_warm_fit_peaks_below_sixteen_dense_matrices(self):
        # 24 float64 hop matrices plus the n(n−1)/2 × 24 float64 design
        # peaked at about 40 float64 n × n arrays
        gs, _, _ = generate(SynthSpec(600, 300, dynamic_factor=0.2, maturity=0.5, seed=0))
        fit_selection_model(gs)
        tracemalloc.start()
        try:
            fit_selection_model(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * gs.n * gs.n

    def test_streamed_fit_peaks_below_1_75_dense_matrices(self):
        # the blend is the one n × n array; MDS's centred working copy read
        # 2.05 float64 n × n arrays, a separate symmetrised copy 3.06, and
        # keeping all 24 hop matrices for a weight fit peaked near 6
        gs, _, _ = generate(SynthSpec(1200, 600, dynamic_factor=0.2, maturity=0.5, seed=0))
        assert len(enumerate_metapaths(gs, TransferConfig().max_path_len)) == 24
        fit_selection_model(gs)
        tracemalloc.start()
        try:
            fit_selection_model(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * 8 * gs.n * gs.n

    def test_streamed_fit_peaks_below_1_35_dense_matrices(self):
        # the blend's uint16 sum (a quarter of a float64 n × n array) beside
        # the blend it is scaled into; the uint32 sum read 1.507
        gs, _, _ = generate(SynthSpec(1200, 600, dynamic_factor=0.2, maturity=0.5, seed=0))
        fit_selection_model(gs)
        tracemalloc.start()
        try:
            fit_selection_model(gs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.35 * 8 * gs.n * gs.n

    def test_relevance_peaks_below_half_a_dense_matrix(self):
        # only the shared × source-only block of E Eᵀ; the full E Eᵀ with
        # blocked z-scores read 1.04, z-scoring every shared row at once 1.76
        gs, _, gt_hat = generate(SynthSpec(1200, 600, dynamic_factor=0.2, maturity=0.5, seed=0))
        state = fit_selection_model(gs)
        want = relevance_scores(state, gs, gt_hat)
        tracemalloc.start()
        try:
            got = relevance_scores(state, gs, gt_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 0.5 * 8 * gs.n * gs.n

    def test_fit_refused_when_two_dense_matrices_exceed_physical_memory(self, monkeypatch):
        g = typed_random_graph(0, n=40, p=0.2)
        need = 16 * 40 * 40
        projected, real_project = [], selection.project
        monkeypatch.setattr(selection, "project", lambda *a: projected.append(a) or real_project(*a))
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(GraftError, match=f"40 entities needs {need} bytes .* {need - 1} bytes of physical"):
            fit_selection_model(g)
        assert projected == []
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: need)
        fit_selection_model(g)
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: None)
        fit_selection_model(g)
        assert projected

    @staticmethod
    def cgroups(monkeypatch, tmp_path, lines, files):
        """A fake ``/proc/self/cgroup`` of ``lines`` and memory hierarchies under
        ``tmp_path``: v2 at ``v2/``, v1 at ``v1/``, with ``files`` (path: text) in them."""
        proc = tmp_path / "proc-self-cgroup"
        proc.write_text("".join(f"{line}\n" for line in lines))
        monkeypatch.setattr(selection, "_PROC_CGROUP", str(proc))
        monkeypatch.setattr(selection, "_CGROUP_V2_ROOT", str(tmp_path / "v2"))
        monkeypatch.setattr(selection, "_CGROUP_V1_MEMORY_ROOT", str(tmp_path / "v1"))
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text)
        monkeypatch.setattr(selection.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}.__getitem__)

    def test_physical_memory_from_sysconf(self, monkeypatch, tmp_path):
        monkeypatch.setattr(selection, "_PROC_CGROUP", str(tmp_path / "missing"))
        answers = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1000}
        monkeypatch.setattr(selection.os, "sysconf", answers.__getitem__)
        assert selection._physical_memory_bytes() == 4096 * 1000
        answers["SC_PHYS_PAGES"] = -1  # sysconf's answer for an indeterminate value
        assert selection._physical_memory_bytes() is None
        monkeypatch.delattr(selection.os, "sysconf")  # as on Windows
        assert selection._physical_memory_bytes() is None

    @pytest.mark.parametrize(
        "limit,expect",
        [("3000000\n", 3_000_000), ("9000000\n", 4_096_000), ("max\n", 4_096_000), (None, 4_096_000)],
        ids=["below-physical", "above-physical", "max", "missing"],
    )
    def test_cgroup_limit_caps_physical_memory(self, monkeypatch, tmp_path, limit, expect):
        # a cgroup namespace puts the process at the root of the v2 hierarchy
        self.cgroups(monkeypatch, tmp_path, ["0::/"], {} if limit is None else {"v2/memory.max": limit})
        assert selection._physical_memory_bytes() == expect
        monkeypatch.delattr(selection.os, "sysconf")  # physical memory unknown: the limit alone
        assert selection._physical_memory_bytes() == (None if limit in (None, "max\n") else int(limit))

    def test_unreadable_cgroup_limit_sets_none(self, monkeypatch, tmp_path):
        # a directory in the file's place: open() raises IsADirectoryError, as it
        # raises PermissionError on an unreadable file, whatever user runs the test
        self.cgroups(monkeypatch, tmp_path, ["0::/app"], {"v2/app/memory.max/x": ""})
        assert selection._physical_memory_bytes() == 4_096_000
        monkeypatch.setattr(selection, "_PROC_CGROUP", str(tmp_path))
        assert selection._physical_memory_bytes() == 4_096_000

    def test_smallest_limit_on_the_v2_path(self, monkeypatch, tmp_path):
        # a MemoryMax= on a systemd slice limits every cgroup below it
        files = {
            "v2/memory.max": "5000000\n",
            "v2/user.slice/memory.max": "2000000\n",
            "v2/user.slice/run.scope/memory.max": "max\n",
            "v2/other.slice/memory.max": "1000000\n",  # not on the process's path
        }
        self.cgroups(monkeypatch, tmp_path, ["0::/user.slice/run.scope"], files)
        assert selection._physical_memory_bytes() == 2_000_000

    def test_v1_memory_limit(self, monkeypatch, tmp_path):
        files = {
            "v1/memory.limit_in_bytes": "9223372036854771712\n",  # v1's "no limit"
            "v1/jobs/memory.limit_in_bytes": "9223372036854771712\n",
            "v1/jobs/a1/memory.limit_in_bytes": "3000000\n",
            "v1/low/memory.limit_in_bytes": "1000000\n",  # only a cpu line names it
        }
        lines = ["9:name=systemd:/", "4:memory:/jobs/a1", "2:cpu,cpuacct:/low", "0::/"]
        self.cgroups(monkeypatch, tmp_path, lines, files)
        assert selection._physical_memory_bytes() == 3_000_000
        # a v1 line that names memory beside other controllers
        self.cgroups(monkeypatch, tmp_path, ["3:cpuset,memory:/low"], {})
        assert selection._physical_memory_bytes() == 1_000_000


def dense_objective_reference(embedding, mats, weights, lam):
    """The selection objective through n × n arrays, as it was computed before row blocks."""
    g = embedding @ embedding.T
    sq = np.diagonal(g)[:, None] + np.diagonal(g)[None, :] - 2.0 * g
    np.fill_diagonal(sq, 0.0)
    expect = np.zeros(sq.shape)
    for wi, m in zip(weights, mats):
        expect += wi * m.matrix
    diff = np.clip(sq, 0.0, None) - expect
    return float((diff * diff).sum()) + lam * (float((embedding * embedding).sum()) + float((weights**2).sum()))


class TestSelectionObjective:
    # 300 rows: one row per block, 7-row blocks and 54-row blocks, each with a short last block
    @pytest.mark.parametrize("block_cells", [1, 7 * 300, selection._FIT_BLOCK_CELLS])
    def test_blocked_matches_dense_reference(self, monkeypatch, block_cells):
        monkeypatch.setattr(selection, "_FIT_BLOCK_CELLS", block_cells)
        g = typed_random_graph(3, n=300, p=0.02)
        cfg = TransferConfig()
        state = fit_selection_model(g, cfg)
        mats = metapath_distance_matrices(g, cfg)
        weights = uniform_weights(len(mats))
        want = dense_objective_reference(state.embedding, mats, weights, cfg.lam)
        got = selection_objective(state.embedding, mats, cfg.lam)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert state.objective_trace == [got]

    def test_perfect_fit_is_regularizer_only(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2))
        mats = [SimilarityMatrix(squared_row_distances(x))]
        obj = selection_objective(x, mats, lam=0.5)
        expect = 0.5 * (float((x * x).sum()) + 1.0)
        assert obj == pytest.approx(expect, rel=1e-12)

    def test_fit_is_squared_residual_over_both_triangles(self):
        x = np.array([[0.0], [1.0]])  # squared distance 1
        mats = [SimilarityMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))]
        # off-diagonal residual is -2 in both triangles
        assert selection_objective(x, mats, lam=0.0) == pytest.approx(8.0)



class TestFitSelectionModel:
    def test_two_type_graph_fits_its_one_metapath_in_one_sweep(self):
        g = HeteroGraph(
            [("a", "x"), ("b", "y"), ("c", "x"), ("d", "y")],
            [("a", "b", 1.0), ("c", "d", 1.0), ("a", "d", 1.0)],
        )
        cfg = TransferConfig(max_path_len=2)
        state = fit_selection_model(g, cfg)
        assert state.metapaths == [MetaPath(("x", "y"))]
        assert len(state.objective_trace) == 1

    def test_trace_is_the_objective_at_the_blended_weights_and_deterministic(self):
        g = typed_random_graph(7)
        cfg = TransferConfig()
        s1 = fit_selection_model(g, cfg)
        s2 = fit_selection_model(g, cfg)
        mats = metapath_distance_matrices(g, cfg)
        objective = selection_objective(s1.embedding, mats, cfg.lam)
        assert s1.objective_trace == [objective]
        assert np.array_equal(s1.embedding, s2.embedding)
        assert s1.objective_trace == s2.objective_trace

    def test_checks_symmetry_once_on_the_blend(self, monkeypatch):
        # each hop matrix is symmetric by construction (tests/test_metapath.py pins it against
        # the per-source BFS), so the fit's one n × n symmetry walk is MDS's, on the blend
        checked, real_check = [], numerics._check_symmetric

        def spy(m):
            checked.append(m)
            real_check(m)

        monkeypatch.setattr(numerics, "_check_symmetric", spy)
        monkeypatch.setattr(selection, "_check_symmetric", spy)
        blends, real_blend = [], selection.blend
        monkeypatch.setattr(selection, "blend", lambda mats: blends.append(real_blend(mats)) or blends[-1])
        g = typed_random_graph(7)
        fit_selection_model(g, TransferConfig())
        assert len(blends) == 1 and blends[0].shape == (g.n, g.n)
        assert len(checked) == 1 and checked[0] is blends[0]

    def test_builds_no_graph(self, monkeypatch):
        # each meta-path's projection is a sparse matrix read by the BFS, not a graph
        g = typed_random_graph(7)
        built, real = [], HeteroGraph._init
        monkeypatch.setattr(HeteroGraph, "_init", lambda self, *a: built.append(a) or real(self, *a))
        state = fit_selection_model(g, TransferConfig())
        assert len(state.metapaths) == 24
        assert built == []

    @pytest.mark.parametrize("max_path_len,n_paths", [(3, 24), (2, 6)])
    def test_bitwise_equal_to_one_sweep_reference(self, max_path_len, n_paths):
        g = typed_random_graph(7)
        cfg = TransferConfig(max_path_len=max_path_len)
        mats = metapath_distance_matrices(g, cfg)
        assert len(mats) == n_paths
        # the blend's oracle: the exact int64 sum of the hop matrices, scaled by 1/P
        total = sum(m.matrix.astype(np.int64) for m in mats)
        embedding = mds_embed(total * (1.0 / n_paths), cfg.d1)
        obj = selection_objective(embedding, mats, cfg.lam)
        state = fit_selection_model(g, cfg)
        assert state.metapaths == [m.provenance for m in mats]
        assert np.array_equal(state.embedding, embedding)
        assert state.objective_trace == [obj]
        assert len(state.objective_trace) == 1

    def test_embedding_dims_capped_by_n(self):
        g = HeteroGraph(
            [("a", "x"), ("b", "y"), ("c", "x")], [("a", "b", 1.0), ("b", "c", 1.0)]
        )
        state = fit_selection_model(g, TransferConfig(d1=16, max_path_len=2))
        assert state.embedding.shape == (3, 3)

    def test_empty_source_rejected(self):
        with pytest.raises(GraftError, match="no entities"):
            fit_selection_model(HeteroGraph())

    def test_edgeless_source_rejected(self):
        with pytest.raises(GraftError, match="no meta-paths"):
            fit_selection_model(HeteroGraph([("a", "x"), ("b", "y")], []))


def state_from_embedding(gs, emb):
    return SelectionState([MetaPath(("t", "t"))], np.asarray(emb, float), [0.0])


class TestRelevanceScores:
    def setup_method(self):
        self.gs = HeteroGraph(
            [("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")], [("a", "b", 1.0)]
        )
        self.gt_hat = HeteroGraph([("a", "t"), ("b", "t")], [])
        # relevance rows: a -> [1,0,1,2], b -> [0,1,1,0]
        self.state = state_from_embedding(
            self.gs, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
        )

    def test_hand_computed_scores(self):
        scores = relevance_scores(self.state, self.gs, self.gt_hat)
        # row a: mean 1, std sqrt(0.5); row b: mean 0.5, std 0.5
        assert scores["c"] == pytest.approx(1.0)
        assert scores["d"] == pytest.approx(np.sqrt(2.0))

    def test_select_entities_thresholds(self, monkeypatch):
        # the pipeline transfers the source-only entities whose score reaches z_entity
        monkeypatch.setattr(transfer, "fit_selection_model", lambda *args: self.state)
        scores = relevance_scores(self.state, self.gs, self.gt_hat)
        for z, want in ((1.2, "d"), (0.9, "cd"), (scores["d"], "d"), (5.0, "")):
            _, report = run_transfer(self.gs, self.gt_hat, TransferConfig(z_entity=z))
            assert report.transferred_entities == list(want)
            assert report.transferred_scores == {e: scores[e] for e in want}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_reference(self, seed):
        # per-row z-scores of the full E Eᵀ, then the max over the shared rows;
        # one shared entity has a zero embedding, so its flat row is skipped
        gs, _, gt_hat = generate(SynthSpec(300, 150, dynamic_factor=0.2, maturity=0.5, seed=seed))
        emb = fit_selection_model(gs).embedding.copy()
        flat = gs.index_of(gt_hat.entity_ids[0])
        emb[flat] = 0.0
        shared = [i for i, e in enumerate(gs.entity_ids) if gt_hat.has_entity(e) and i != flat]
        only = [i for i, e in enumerate(gs.entity_ids) if not gt_hat.has_entity(e)]
        r = emb[shared] @ emb.T
        z = (r - r.mean(axis=1, keepdims=True)) / r.std(axis=1, keepdims=True)
        want = z[:, only].max(axis=0)
        got = relevance_scores(state_from_embedding(gs, emb), gs, gt_hat)
        assert list(got) == [gs.entity_ids[i] for i in only]
        assert np.allclose(list(got.values()), want, rtol=0.0, atol=1e-12)

    def test_zero_variance_rows_skipped(self):
        # shared entity 'a' has a zero embedding, so its relevance row is flat
        state = state_from_embedding(
            self.gs, [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]
        )
        scores = relevance_scores(state, self.gs, self.gt_hat)
        # only row b contributes: mean 0.5, std sqrt(0.1875)... recompute:
        # row b = [0,1,1,0], mean 0.5, std 0.5 -> z(c)=1, z(d)=-1
        assert scores == {"c": pytest.approx(1.0), "d": pytest.approx(-1.0)}

    def test_all_rows_flat_gives_empty(self):
        state = state_from_embedding(self.gs, np.zeros((4, 2)))
        assert relevance_scores(state, self.gs, self.gt_hat) == {}

    def test_no_source_only_entities(self):
        gt_hat = HeteroGraph(self.gs.entity_items(), [])
        assert relevance_scores(self.state, self.gs, gt_hat) == {}

    def test_no_overlap_rejected(self):
        gt_hat = HeteroGraph([("z", "t")], [])
        with pytest.raises(GraftError, match="no overlap"):
            relevance_scores(self.state, self.gs, gt_hat)

    def test_row_mismatch_rejected(self):
        state = state_from_embedding(self.gs, np.zeros((3, 2)))
        with pytest.raises(GraftError, match="do not match"):
            relevance_scores(state, self.gs, self.gt_hat)


class TestMerge:
    def test_selected_arrive_isolated_with_source_types(self):
        gs = HeteroGraph([("a", "t"), ("b", "u"), ("c", "v")], [("a", "b", 1.0), ("b", "c", 2.0)])
        gt_hat = HeteroGraph([("a", "t")], [])
        merged = merge_transferred_entities(gt_hat, gs, {"b", "c"})
        assert merged.entity_ids == ("a", "b", "c")
        assert merged.type_of("b") == "u" and merged.type_of("c") == "v"
        assert merged.edge_count == 0

    def test_target_edges_kept(self):
        gs = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [])
        gt_hat = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b", 3.0)])
        merged = merge_transferred_entities(gt_hat, gs, {"c"})
        assert edge_weight(merged, "a", "b") == 3.0

    def test_already_present_rejected(self):
        gs = HeteroGraph([("a", "t")], [])
        gt_hat = HeteroGraph([("a", "t")], [])
        with pytest.raises(GraftError, match="already present"):
            merge_transferred_entities(gt_hat, gs, {"a"})

    def test_unknown_selected_rejected(self):
        gs = HeteroGraph([("a", "t")], [])
        gt_hat = HeteroGraph([("a", "t")], [])
        with pytest.raises(GraftError, match="not in the source graph"):
            merge_transferred_entities(gt_hat, gs, {"q"})

    def test_type_conflict_rejected(self):
        gs = HeteroGraph([("a", "t"), ("b", "u")], [])
        gt_hat = HeteroGraph([("a", "other")], [])
        with pytest.raises(GraftError, match="conflicting types"):
            merge_transferred_entities(gt_hat, gs, {"b"})
