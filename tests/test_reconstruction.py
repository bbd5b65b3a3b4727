import logging

import numpy as np
import pytest

from graft import (
    GraftError,
    HeteroGraph,
    ReconstructionProblem,
    ReconstructionSolution,
    TransferConfig,
    finalize_edges,
    solve_reconstruction,
)
from graft.numerics import finite_diff_grad, sym_eig_topk
from graft.reconstruction import (
    INIT_NOISE,
    MAX_BACKTRACKS,
    _check_diverged,
    reconstruction_gradient,
    reconstruction_objective,
    soft_dynamic_factor,
)


def random_graph(seed, n=20, p=0.25, weighted=True):
    rng = np.random.default_rng(seed)
    entities = [(f"e{i:02d}", "t") for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.5, 3.0)) if weighted else 1.0
                edges.append((entities[i][0], entities[j][0], w))
    return HeteroGraph(entities, edges)


def make_problem(seed=0, n=12, mu=0.5, reg=0.01, rank=4, gap=0.1):
    gt = random_graph(seed, n=n)
    gs = random_graph(seed + 100, n=n)
    gs = HeteroGraph(gt.entity_items(), [(a, b, w) for a, b, w in gs.edges()])
    return ReconstructionProblem(
        gt.adjacency(binary=True), gs.adjacency(binary=True), gap, mu, reg, rank
    )


def naive_objective(u, prob):
    """Triple-loop transcription of the objective."""
    n = prob.n
    at, asrc = prob.target_adj.matrix, prob.source_adj.matrix
    m = u @ u.T
    smooth = 0.0
    gap = 0.0
    for i in range(n):
        for j in range(n):
            smooth += (m[i, j] - at[i, j]) ** 2
            gap += (m[i, j] - asrc[i, j]) ** 2
    gap /= n * (n - 1)
    reg = prob.reg * float((u * u).sum())
    return prob.mu * smooth + (1.0 - prob.mu) * (gap - prob.observed_gap) ** 2 + reg


def reference_solve(prob, seed, config):
    """Descent loop that evaluates the objective and the gradient separately.

    Returns the factors, the accepted-objective trace and the number of step
    halvings, for comparison with ``solve_reconstruction``.
    """
    rank = min(prob.rank, prob.n)
    blended = prob.mu * prob.target_adj.matrix + (1.0 - prob.mu) * prob.source_adj.matrix
    values, vectors = sym_eig_topk(blended, rank)
    u = vectors * np.sqrt(np.clip(values, 0.0, None))[None, :]
    u = u + INIT_NOISE * np.random.default_rng(seed).standard_normal(u.shape)
    obj = _check_diverged(reconstruction_objective(u, prob))
    trace = [obj]
    halvings = 0
    for _ in range(config.construction_max_iters):
        grad = reconstruction_gradient(u, prob)
        eta = config.eta0
        candidate = None
        for _ in range(MAX_BACKTRACKS):
            trial = u - eta * grad
            try:
                trial_obj = reconstruction_objective(trial, prob)
            except GraftError:
                trial_obj = np.inf
            if trial_obj <= obj:
                candidate = trial
                break
            eta *= 0.5
            halvings += 1
        if candidate is None:
            break
        prev, u, obj = obj, candidate, _check_diverged(trial_obj)
        trace.append(obj)
        if abs(obj - prev) / max(abs(prev), 1e-30) < config.construction_tol:
            break
    return u, trace, halvings


class TestObjective:
    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    def test_matches_naive_loops(self, mu):
        prob = make_problem(mu=mu)
        rng = np.random.default_rng(42)
        u = rng.standard_normal((prob.n, prob.rank))
        got = reconstruction_objective(u, prob)
        assert got == pytest.approx(naive_objective(u, prob), rel=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_bitwise_equal_to_direct_formulas(self, mu):
        # the objective and gradient written out term by term, in the same
        # floating-point order; any reordering shows up in the last bits
        prob = make_problem(mu=mu, n=60, rank=6)
        u = np.random.default_rng(11).standard_normal((prob.n, prob.rank))
        m = u @ u.T
        pairs = prob.n * (prob.n - 1)
        smooth = float(((m - prob.target_adj.matrix) ** 2).sum())
        gap = float(((m - prob.source_adj.matrix) ** 2).sum()) / pairs
        value = (
            prob.mu * smooth
            + (1.0 - prob.mu) * (gap - prob.observed_gap) ** 2
            + prob.reg * float((u * u).sum())
        )
        grad = (
            4.0 * prob.mu * ((m - prob.target_adj.matrix) @ u)
            + (1.0 - prob.mu) * 2.0 * (gap - prob.observed_gap) * (4.0 / pairs)
            * ((m - prob.source_adj.matrix) @ u)
            + 2.0 * prob.reg * u
        )
        assert reconstruction_objective(u, prob) == value
        assert np.array_equal(reconstruction_gradient(u, prob), grad)

    def test_mu_boundaries(self):
        prob0 = make_problem(mu=0.0, reg=0.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((prob0.n, prob0.rank))
        gap = soft_dynamic_factor(u, prob0.source_adj.matrix)
        assert reconstruction_objective(u, prob0) == pytest.approx(
            (gap - prob0.observed_gap) ** 2, rel=1e-12
        )
        prob1 = make_problem(mu=1.0, reg=0.0)
        m = u @ u.T
        smooth = float(((m - prob1.target_adj.matrix) ** 2).sum())
        assert reconstruction_objective(u, prob1) == pytest.approx(smooth, rel=1e-12)

    def test_orthogonal_rotation_invariant(self):
        prob = make_problem(rank=5)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((prob.n, 5))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert reconstruction_objective(u @ q, prob) == pytest.approx(
            reconstruction_objective(u, prob), rel=1e-10
        )

    def test_soft_dynamic_factor_zero_at_exact_fit(self):
        g = random_graph(5, n=8, weighted=False)
        adj = g.adjacency(binary=True).matrix
        vals, vecs = np.linalg.eigh(adj)
        u = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None)))
        # adjacency is indefinite, so a PSD factorization cannot be exact,
        # but the PSD part is the closest fit and the factor is nonnegative
        assert soft_dynamic_factor(u, adj) >= 0.0

    def test_row_mismatch_rejected(self):
        prob = make_problem()
        with pytest.raises(GraftError, match="rows"):
            reconstruction_objective(np.zeros((prob.n + 1, prob.rank)), prob)


class TestGradient:
    def test_zero_point_is_stationary(self):
        prob = make_problem(mu=0.4, reg=0.2)
        grad = reconstruction_gradient(np.zeros((prob.n, prob.rank)), prob)
        assert np.array_equal(grad, np.zeros((prob.n, prob.rank)))

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.7, 1.0])
    def test_matches_finite_differences(self, mu):
        prob = make_problem(mu=mu, n=9, rank=3)
        rng = np.random.default_rng(8)
        u = 0.5 * rng.standard_normal((prob.n, prob.rank))
        grad = reconstruction_gradient(u, prob)
        fd = finite_diff_grad(lambda v: reconstruction_objective(v, prob), u, h=1e-6)
        assert np.allclose(grad, fd, atol=1e-5)

    def test_spectral_point_is_stationary_for_smooth_term(self):
        # with mu=1 and no regularizer, u = V sqrt(L) on positive top
        # eigenpairs of A_T zeroes the gradient exactly
        g = random_graph(2, n=10, weighted=False)
        adj = g.adjacency(binary=True)
        prob = ReconstructionProblem(adj, adj, 0.0, 1.0, 0.0, 1)
        vals, vecs = np.linalg.eigh(adj.matrix)
        top = vecs[:, -1:] * np.sqrt(vals[-1])
        grad = reconstruction_gradient(top, prob)
        assert np.abs(grad).max() < 1e-10

    def test_row_mismatch_rejected(self):
        prob = make_problem()
        with pytest.raises(GraftError, match="rows"):
            reconstruction_gradient(np.zeros((2, prob.rank)), prob)


class TestProblemValidation:
    def test_mismatched_index_rejected(self):
        a = random_graph(0, n=5).adjacency(binary=True)
        b = random_graph(1, n=6).adjacency(binary=True)
        with pytest.raises(GraftError, match="entity index"):
            ReconstructionProblem(a, b, 0.0, 0.5, 0.0, 2)

    def test_weighted_views_rejected(self):
        g = random_graph(0, n=5)
        with pytest.raises(GraftError, match="binary"):
            ReconstructionProblem(g.adjacency(), g.adjacency(binary=True), 0.0, 0.5, 0.0, 2)

    @pytest.mark.parametrize(
        "gap,mu,reg,rank,msg",
        [
            (-0.1, 0.5, 0.0, 2, "observed_gap"),
            (1.5, 0.5, 0.0, 2, "observed_gap"),
            (0.0, -0.2, 0.0, 2, "mu must"),
            (0.0, 1.2, 0.0, 2, "mu must"),
            (0.0, 0.5, -1.0, 2, "reg"),
            (0.0, 0.5, 0.0, 0, "rank"),
            (0.0, 0.5, 0.0, 2.5, "rank"),
        ],
    )
    def test_bad_scalars_rejected(self, gap, mu, reg, rank, msg):
        adj = random_graph(0, n=5).adjacency(binary=True)
        with pytest.raises(GraftError, match=msg):
            ReconstructionProblem(adj, adj, gap, mu, reg, rank)

    def test_too_few_entities(self):
        adj = HeteroGraph([("a", "t")], []).adjacency(binary=True)
        with pytest.raises(GraftError, match="at least 2"):
            ReconstructionProblem(adj, adj, 0.0, 0.5, 0.0, 1)


class TestSolve:
    def test_self_transfer_reproduces_edges(self):
        g = random_graph(0, n=20)
        adj = g.adjacency(binary=True)
        prob = ReconstructionProblem(adj, adj, 0.0, 1.0, 0.0, 20)
        sol = solve_reconstruction(prob, seed=0, config=TransferConfig())
        out = finalize_edges(sol, g, 1.96)
        assert set(out.edges()) == set(g.edges())

    def test_mu_one_reaches_eigen_truncation_value(self):
        g = random_graph(0, n=20, weighted=False)
        adj = g.adjacency(binary=True)
        rank = 4
        prob = ReconstructionProblem(adj, adj, 0.0, 1.0, 0.0, rank)
        sol = solve_reconstruction(prob, seed=1, config=TransferConfig())
        a = adj.matrix
        vals = np.linalg.eigvalsh(a)[::-1]
        kept = np.clip(vals[:rank], 0.0, None)
        optimum = float((a * a).sum() - (kept**2).sum())
        assert sol.objective_trace[-1] <= 1.05 * optimum

    def test_trace_monotone_and_starts_at_init(self):
        prob = make_problem(mu=0.5, reg=0.01, rank=8, n=15)
        sol = solve_reconstruction(prob, seed=2, config=TransferConfig())
        t = sol.objective_trace
        assert len(t) == sol.iterations + 1
        assert all(b <= a for a, b in zip(t, t[1:]))

    def test_deterministic_per_seed(self):
        prob = make_problem()
        s1 = solve_reconstruction(prob, seed=7, config=TransferConfig())
        s2 = solve_reconstruction(prob, seed=7, config=TransferConfig())
        s3 = solve_reconstruction(prob, seed=8, config=TransferConfig())
        assert np.array_equal(s1.factors, s2.factors)
        assert s1.objective_trace == s2.objective_trace
        assert not np.array_equal(s1.factors, s3.factors)

    def test_rank_capped_by_n(self):
        prob = make_problem(n=6, rank=50)
        sol = solve_reconstruction(prob, seed=0, config=TransferConfig())
        assert sol.factors.shape == (6, 6)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "config",
        [
            TransferConfig(),
            TransferConfig(eta0=1e4),
            TransferConfig(eta0=1e150),
            TransferConfig(construction_max_iters=3),
        ],
        ids=["default", "backtracking", "no-descent", "capped"],
    )
    def test_bitwise_equal_to_reference_loop(self, mu, config):
        prob = make_problem(mu=mu, n=14, rank=5)
        # the no-descent case overflows every trial objective on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_reconstruction(prob, seed=3, config=config)
            factors, trace, halvings = reference_solve(prob, 3, config)
        assert np.array_equal(sol.factors, factors)
        assert sol.objective_trace == trace
        assert sol.iterations == len(trace) - 1
        if config.eta0 > 1.0:
            assert halvings > 0
        if config.eta0 == 1e150:
            assert sol.iterations == 0 and halvings == MAX_BACKTRACKS
        if config.construction_max_iters == 3:
            assert sol.iterations == 3

    def test_logs_iteration_cap_and_backtracks(self, caplog):
        prob = make_problem(mu=0.5, n=14, rank=5)
        config = TransferConfig(eta0=0.5, construction_max_iters=3)
        _, _, halvings = reference_solve(prob, 0, config)
        assert halvings > 0
        with caplog.at_level(logging.INFO, logger="graft.reconstruction"):
            solve_reconstruction(prob, seed=0, config=config)
        assert (
            f"stopped by iteration cap after 3 iteration(s), {halvings} backtrack(s)" in caplog.text
        )

    def test_logs_tolerance_stop(self, caplog):
        prob = make_problem(mu=0.5, n=14, rank=5)
        config = TransferConfig(construction_tol=1e-2)
        with caplog.at_level(logging.INFO, logger="graft.reconstruction"):
            sol = solve_reconstruction(prob, seed=0, config=config)
        assert sol.iterations < config.construction_max_iters
        assert f"stopped by tolerance after {sol.iterations} iteration(s)" in caplog.text

    def test_divergent_setup_rejected(self):
        prob = make_problem(reg=1e20)
        with pytest.raises(GraftError, match="diverged"):
            solve_reconstruction(prob, seed=0, config=TransferConfig())


class TestFinalize:
    def test_huge_threshold_keeps_originals_only(self):
        g = random_graph(4, n=10)
        sol = ReconstructionSolution(np.random.default_rng(0).standard_normal((10, 3)), [0.0], 0)
        out = finalize_edges(sol, g, z=1e9)
        assert out == g

    def test_proposes_high_score_pair_with_raw_weight(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")], [])
        u = np.array([[1.0], [1.0], [0.0], [0.0]])
        # row a scores [1, 1, 0, 0]: mean 0.5, std 0.5, so z(a, b) = 1
        out = finalize_edges(ReconstructionSolution(u, [0.0], 0), g, z=0.9)
        assert out.edge_weight("a", "b") == 1.0
        assert out.edge_count == 1

    def test_original_weights_preserved(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [("a", "b", 7.25)])
        u = np.array([[1.0], [1.0], [0.0]])
        out = finalize_edges(ReconstructionSolution(u, [0.0], 0), g, z=-10.0)
        assert out.edge_weight("a", "b") == 7.25

    def test_zero_variance_rows_propose_nothing(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [])
        out = finalize_edges(ReconstructionSolution(np.zeros((3, 2)), [0.0], 0), g, z=0.0)
        assert out.edge_count == 0

    def test_negative_scores_clipped_to_positive_weight(self):
        g = HeteroGraph([(f"e{i}", "t") for i in range(6)], [])
        u = np.random.default_rng(3).standard_normal((6, 2))
        out = finalize_edges(ReconstructionSolution(u, [0.0], 0), g, z=-10.0)
        # every pair is proposed; construction succeeds only if all weights
        # are positive, and clipped ones land at machine epsilon
        assert out.edge_count == 15
        assert min(w for _, _, w in out.edges()) >= np.finfo(float).eps

    def test_row_mismatch_rejected(self):
        g = random_graph(1, n=5)
        with pytest.raises(GraftError, match="rows"):
            finalize_edges(ReconstructionSolution(np.zeros((4, 2)), [0.0], 0), g, 1.0)
