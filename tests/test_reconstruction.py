import dataclasses
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import subspace_angles

from graft import (
    GraftError,
    HeteroGraph,
    SynthSpec,
    TransferConfig,
    generate,
    reconstruction,
    run_transfer,
    selection,
    transfer,
)
from graft.numerics import sym_eig_topk
from graft.reconstruction import (
    CONSTRUCTION_TOL,
    INIT_NOISE,
    MAX_BACKTRACKS,
    ReconstructionProblem,
    _check_diverged,
    _spectral_start,
    finalize_edges,
    reconstruction_gradient,
    reconstruction_objective,
    solve_reconstruction,
)
from graft.selection import merge_transferred_entities
from graft.transfer import construct_dependencies
from testkit import edge_weight, finite_diff_grad, graph_from_upper, soft_dynamic_factor


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
    return ReconstructionProblem(gt, gs, gap, mu, reg, rank)


def naive_objective(u, prob):
    """Triple-loop transcription of the objective."""
    n = prob.n
    at, asrc = prob.target.csr().toarray(), prob.source.csr().toarray()
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


def direct_formulas(u, prob):
    """The factored objective and gradient written out term by term, in the
    evaluator's floating-point order, forming both sparse products at every mu."""
    a_t = sp.csr_matrix(prob.target.csr().toarray())
    a_s = sp.csr_matrix(prob.source.csr().toarray())
    gram = u.T @ u
    au_t, au_s = a_t @ u, a_s @ u
    pairs = prob.n * (prob.n - 1)
    gram_sq = np.vdot(gram, gram)
    smooth = gram_sq - 2.0 * np.vdot(u, au_t) + float((a_t.data * a_t.data).sum())
    gap = (gram_sq - 2.0 * np.vdot(u, au_s) + float((a_s.data * a_s.data).sum())) / pairs
    value = (
        prob.mu * smooth
        + (1.0 - prob.mu) * (gap - prob.observed_gap) ** 2
        + prob.reg * np.trace(gram)
    )
    c = (1.0 - prob.mu) * 2.0 * (gap - prob.observed_gap) * (4.0 / pairs)
    grad = (u @ gram) * (4.0 * prob.mu + c) - 4.0 * prob.mu * au_t - c * au_s + 2.0 * prob.reg * u
    return value, grad


def reference_solve(prob, config):
    """Descent loop that evaluates the objective and the gradient separately.

    It starts where the solver does, so it pins the descent loop, not the
    eigensolve. The first iteration tries ``eta0``; each later one starts
    from the step the previous one accepted, doubled if it took no halving.
    Returns the factors, the accepted-objective trace and the number of step
    halvings, for comparison with ``solve_reconstruction``.
    """
    u = _spectral_start(prob, config.seed)  # the start is pinned by TestSpectralStart
    obj = _check_diverged(reconstruction_objective(u, prob))
    trace = [obj]
    halvings = 0
    eta = config.eta0
    for _ in range(config.construction_max_iters):
        grad = reconstruction_gradient(u, prob)
        candidate = None
        for tries in range(1, MAX_BACKTRACKS + 1):
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
        if tries == 1:
            eta *= 2.0
        prev, u, obj = obj, candidate, _check_diverged(trial_obj)
        trace.append(obj)
        if abs(obj - prev) / max(abs(prev), 1e-30) < reconstruction.CONSTRUCTION_TOL:
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
        # any reordering of the floating-point operations shows up in the last bits
        prob = make_problem(mu=mu, n=60, rank=6)
        u = np.random.default_rng(11).standard_normal((prob.n, prob.rank))
        value, grad = direct_formulas(u, prob)
        assert reconstruction_objective(u, prob) == value
        assert np.array_equal(reconstruction_gradient(u, prob), grad)

    @pytest.mark.parametrize(
        "mu,products", [(0.0, ["source"]), (0.5, ["target", "source"]), (1.0, ["target"])], ids=["0.0", "0.5", "1.0"]
    )
    def test_a_term_of_zero_weight_forms_no_sparse_product(self, mu, products, monkeypatch):
        prob = make_problem(mu=mu, n=60, rank=6)
        u = np.random.default_rng(11).standard_normal((prob.n, prob.rank))
        value, grad = direct_formulas(u, prob)  # forms both products, before the count starts
        names = {id(prob.target.csr()): "target", id(prob.source.csr()): "source"}
        formed = []
        csr_type = type(prob.target.csr())
        matmul = csr_type.__matmul__

        def counted(a, b):
            formed.append(names.get(id(a), "other"))
            return matmul(a, b)

        monkeypatch.setattr(csr_type, "__matmul__", counted)
        evaluation = reconstruction._Evaluation(u, prob)
        assert (evaluation.objective, formed) == (value, products)
        assert np.array_equal(evaluation.gradient(), grad)
        assert formed == products  # the gradient reuses the evaluation's products

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_gradient_matches_dense_formula(self, mu):
        prob = make_problem(mu=mu, n=60, rank=6)
        u = np.random.default_rng(11).standard_normal((prob.n, prob.rank))
        m = u @ u.T
        pairs = prob.n * (prob.n - 1)
        a_t, a_s = prob.target.csr().toarray(), prob.source.csr().toarray()
        gap = float(((m - a_s) ** 2).sum()) / pairs
        dense = (
            4.0 * prob.mu * ((m - a_t) @ u)
            + (1.0 - prob.mu) * 2.0 * (gap - prob.observed_gap) * (4.0 / pairs)
            * ((m - a_s) @ u)
            + 2.0 * prob.reg * u
        )
        np.testing.assert_allclose(reconstruction_gradient(u, prob), dense, rtol=1e-10, atol=0.0)

    def test_mu_boundaries(self):
        prob0 = make_problem(mu=0.0, reg=0.0)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((prob0.n, prob0.rank))
        gap = soft_dynamic_factor(u, prob0.source.csr().toarray())
        assert reconstruction_objective(u, prob0) == pytest.approx(
            (gap - prob0.observed_gap) ** 2, rel=1e-12
        )
        prob1 = make_problem(mu=1.0, reg=0.0)
        m = u @ u.T
        smooth = float(((m - prob1.target.csr().toarray()) ** 2).sum())
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
        adj = g.csr().toarray()
        vals, vecs = np.linalg.eigh(adj)
        u = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None)))
        # adjacency is indefinite, so a PSD factorization cannot be exact,
        # but the PSD part is the closest fit and the factor is nonnegative
        assert soft_dynamic_factor(u, adj) >= 0.0

    def test_row_mismatch_rejected(self):
        prob = make_problem()
        with pytest.raises(GraftError, match="rows"):
            reconstruction_objective(np.zeros((prob.n + 1, prob.rank)), prob)


class TestEvaluationMemory:
    def test_no_n_by_n_array_per_evaluation(self):
        n, rank = 2000, 16
        ids = tuple(f"e{i:04d}" for i in range(n))

        def sparse_graph(seed):
            return graph_from_upper(ids, np.random.default_rng(seed).random((n, n)) < 0.002)

        prob = ReconstructionProblem(sparse_graph(1), sparse_graph(2), 0.01, 0.5, 0.01, rank)
        u = np.random.default_rng(3).standard_normal((n, rank))
        tracemalloc.start()
        try:
            for _ in range(10):
                reconstruction_objective(u, prob)
                reconstruction_gradient(u, prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense n x n float64 array (u @ u.T, a residual) takes n * n * 8 bytes
        assert peak < n * n * 8 / 4


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
        prob = ReconstructionProblem(g, g, 0.0, 1.0, 0.0, 1)
        vals, vecs = np.linalg.eigh(g.csr().toarray())
        top = vecs[:, -1:] * np.sqrt(vals[-1])
        grad = reconstruction_gradient(top, prob)
        assert np.abs(grad).max() < 1e-10

    def test_row_mismatch_rejected(self):
        prob = make_problem()
        with pytest.raises(GraftError, match="rows"):
            reconstruction_gradient(np.zeros((2, prob.rank)), prob)


class TestProblemValidation:
    def test_mismatched_index_rejected(self):
        a = random_graph(0, n=5)
        b = random_graph(1, n=6)
        with pytest.raises(GraftError, match="entity index"):
            ReconstructionProblem(a, b, 0.0, 0.5, 0.0, 2)

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
        g = random_graph(0, n=5)
        with pytest.raises(GraftError, match=msg):
            ReconstructionProblem(g, g, gap, mu, reg, rank)

    def test_too_few_entities(self):
        g = HeteroGraph([("a", "t")], [])
        with pytest.raises(GraftError, match="at least 2"):
            ReconstructionProblem(g, g, 0.0, 0.5, 0.0, 1)


class TestSolve:
    def test_self_transfer_reproduces_edges(self):
        g = random_graph(0, n=20)
        prob = ReconstructionProblem(g, g, 0.0, 1.0, 0.0, 20)
        sol = solve_reconstruction(prob, TransferConfig(seed=0))
        out = finalize_edges(sol.factors, g, 1.96)
        assert set(out.edges()) == set(g.edges())

    def test_mu_one_reaches_eigen_truncation_value(self):
        g = random_graph(0, n=20, weighted=False)
        rank = 4
        prob = ReconstructionProblem(g, g, 0.0, 1.0, 0.0, rank)
        sol = solve_reconstruction(prob, TransferConfig(seed=1))
        a = g.csr().toarray()
        vals = np.linalg.eigvalsh(a)[::-1]
        kept = np.clip(vals[:rank], 0.0, None)
        optimum = float((a * a).sum() - (kept**2).sum())
        assert sol.objective_trace[-1] <= 1.05 * optimum

    def test_trace_monotone_and_starts_at_init(self):
        prob = make_problem(mu=0.5, reg=0.01, rank=8, n=15)
        sol = solve_reconstruction(prob, TransferConfig(seed=2))
        t = sol.objective_trace
        assert len(t) == sol.iterations + 1
        assert all(b <= a for a, b in zip(t, t[1:]))

    def test_iterations_read_off_the_trace(self):
        sol = solve_reconstruction(make_problem(), TransferConfig(construction_max_iters=3))
        assert sol.iterations == len(sol.objective_trace) - 1 == 3
        with pytest.raises(AttributeError):
            sol.iterations = 0

    def test_deterministic_per_seed(self):
        prob = make_problem()
        s1 = solve_reconstruction(prob, TransferConfig(seed=7))
        s2 = solve_reconstruction(prob, TransferConfig(seed=7))
        s3 = solve_reconstruction(prob, TransferConfig(seed=8))
        assert np.array_equal(s1.factors, s2.factors)
        assert s1.objective_trace == s2.objective_trace
        assert not np.array_equal(s1.factors, s3.factors)

    def test_rank_capped_by_n(self):
        prob = make_problem(n=6, rank=50)
        sol = solve_reconstruction(prob, TransferConfig(seed=0))
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
        config = dataclasses.replace(config, seed=3)
        # the no-descent case overflows every trial objective on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_reconstruction(prob, config)
            factors, trace, halvings = reference_solve(prob, config)
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
        _, _, halvings = reference_solve(prob, config)
        assert halvings > 0
        with caplog.at_level(logging.INFO, logger="graft.reconstruction"):
            solve_reconstruction(prob, config)
        assert (
            f"stopped by iteration cap after 3 iteration(s), {halvings} backtrack(s)" in caplog.text
        )

    def test_logs_tolerance_stop(self, caplog, monkeypatch):
        prob = make_problem(mu=0.5, n=14, rank=5)
        config = TransferConfig()
        monkeypatch.setattr(reconstruction, "CONSTRUCTION_TOL", 1e-2)
        with caplog.at_level(logging.INFO, logger="graft.reconstruction"):
            sol = solve_reconstruction(prob, config)
        assert sol.iterations < config.construction_max_iters
        assert f"stopped by tolerance after {sol.iterations} iteration(s)" in caplog.text

    @pytest.mark.parametrize(
        "config,tol,reason",
        [
            (TransferConfig(), 1e-2, "tolerance"),
            (TransferConfig(eta0=0.5, construction_max_iters=3), CONSTRUCTION_TOL, "iteration cap"),
            (TransferConfig(eta0=1e150), CONSTRUCTION_TOL, f"no descent after {MAX_BACKTRACKS} halvings"),
        ],
        ids=["tolerance", "cap", "no-descent"],
    )
    def test_solution_records_stop_reason_and_backtracks(self, config, tol, reason, monkeypatch):
        prob = make_problem(mu=0.5, n=14, rank=5)
        monkeypatch.setattr(reconstruction, "CONSTRUCTION_TOL", tol)
        # the no-descent case overflows every trial objective on purpose
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_reconstruction(prob, config)
            _, trace, halvings = reference_solve(prob, config)
        assert sol.stop_reason == reason
        assert sol.backtracks == halvings
        assert sol.iterations == len(trace) - 1
        if reason == "tolerance":
            assert sol.iterations < config.construction_max_iters
        elif reason == "iteration cap":
            assert sol.iterations == 3 and halvings > 0
        else:
            assert sol.iterations == 0 and halvings == MAX_BACKTRACKS

    def test_step_starts_at_eta0_and_adapts(self, monkeypatch):
        # records every trial step, grouped by iteration, in powers of two of eta0
        eta0 = 0.01
        iterations = []

        class Recording(reconstruction._Evaluation):
            def __init__(self, u, prob):
                super().__init__(u, prob)
                if iterations:  # a trial of the running iteration, not the start
                    u0, grad, steps = iterations[-1]
                    step = np.vdot(u0 - self.u, grad) / np.vdot(grad, grad)
                    power = np.log2(step / eta0)
                    assert power == pytest.approx(round(power), abs=1e-9)
                    steps.append(round(power))

            def gradient(self):
                grad = super().gradient()
                iterations.append((self.u, grad, []))
                return grad

        monkeypatch.setattr(reconstruction, "_Evaluation", Recording)
        sol = solve_reconstruction(make_problem(mu=0.5, n=14, rank=5), TransferConfig(eta0=eta0))
        steps = [s for _, _, s in iterations]
        assert len(steps) == sol.iterations
        assert sum(len(s) - 1 for s in steps) == sol.backtracks
        assert steps[0][0] == 0  # the first trial is eta0
        for s in steps:  # each rejected trial halves the step
            assert s == list(range(s[0], s[0] - len(s), -1))
        clean = halved = 0
        for before, after in zip(steps, steps[1:]):
            if len(before) == 1:  # accepted at once: the next iteration doubles it
                assert after[0] == before[-1] + 1
                clean += 1
            else:  # accepted after halving: the next iteration starts there
                assert after[0] == before[-1]
                halved += 1
        assert clean > 0 and halved > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mu_grid_stops_by_tolerance(self, seed):
        config = TransferConfig()
        gs, _, gh = generate(SynthSpec(300, 150, dynamic_factor=0.2, maturity=0.5, seed=seed))
        _, report = run_transfer(gs, gh, config)
        merged = merge_transferred_entities(gh, gs, report.transferred_entities)
        for mu in [i / 10 for i in range(11)]:
            _, sol, _ = construct_dependencies(gs, gh, merged, mu, config)
            assert sol.stop_reason == "tolerance", f"mu {mu}: {sol.stop_reason} after {sol.iterations}"

    def test_divergent_setup_rejected(self):
        prob = make_problem(reg=1e20)
        with pytest.raises(GraftError, match="start objective .* lower lam, the regularization weight") as err:
            solve_reconstruction(prob, TransferConfig())
        assert "eta0" not in str(err.value)

    def test_overflowing_start_names_the_start_and_lam(self):
        # lam = 1e308 overflows the start's ridge term to inf; no numpy warning escapes
        gs, _, gt_hat = generate(SynthSpec(120, 60, 0.2, 0.5, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(GraftError, match="construction: reconstruction start objective inf exceeds .* lower lam"):
                run_transfer(gs, gt_hat, TransferConfig(lam=1e308))


class TestSpectralStart:
    """The start is Lanczos on the sparse blend; the dense solve is its reference."""

    @staticmethod
    def sparse_problem(seed, n, mu, rank):
        gt = random_graph(seed, n=n, p=0.08, weighted=False)
        gs = random_graph(seed + 50, n=n, p=0.08, weighted=False)
        return ReconstructionProblem(gt, HeteroGraph(gt.entity_items(), gs.edges()), 0.1, mu, 0.01, rank)

    @staticmethod
    def noise(seed, shape):
        return INIT_NOISE * np.random.default_rng(seed).standard_normal(shape)

    @staticmethod
    def dense_blend(prob):
        return prob.mu * prob.target.csr().toarray() + (1.0 - prob.mu) * prob.source.csr().toarray()

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spans_the_dense_top_eigenspace(self, mu, seed):
        prob = self.sparse_problem(seed, 90, mu, 6)
        values, vectors = sym_eig_topk(self.dense_blend(prob), 7)
        assert values[5] > 0.0 and values[5] - values[6] > 1e-3  # the top 6 are a well-separated subspace
        u = _spectral_start(prob, seed) - self.noise(seed, (90, 6))
        assert subspace_angles(u, vectors[:, :6]).max() <= 1e-6
        assert np.allclose(np.linalg.norm(u, axis=0), np.sqrt(values[:6]), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("rank", [11, 12, 50])
    def test_rank_from_n_minus_one_takes_the_dense_solve(self, rank):
        prob = self.sparse_problem(3, 12, 0.5, rank)
        values, vectors = sym_eig_topk(self.dense_blend(prob), min(rank, 12))
        want = vectors * np.sqrt(np.clip(values, 0.0, None))[None, :] + self.noise(4, vectors.shape)
        assert np.array_equal(_spectral_start(prob, 4), want)

    def test_reruns_are_bitwise_equal(self):
        first = _spectral_start(self.sparse_problem(5, 90, 0.3, 6), 8)
        assert np.array_equal(first, _spectral_start(self.sparse_problem(5, 90, 0.3, 6), 8))
        assert not np.array_equal(first, _spectral_start(self.sparse_problem(5, 90, 0.3, 6), 9))

    def test_no_edges_start_at_the_noise(self):
        g = HeteroGraph([(f"e{i}", "t") for i in range(30)], [])
        prob = ReconstructionProblem(g, g, 0.0, 0.5, 0.0, 4)
        assert np.array_equal(_spectral_start(prob, 2), self.noise(2, (30, 4)))

    def test_makes_no_n_by_n_array(self):
        # mean degree about 8 in each graph, as in the synthetic benchmark; the
        # start holds O(nnz + n·rank) (Lanczos basis, factors, noise), so even
        # a one-byte n × n array would break the bound
        n = 2000
        rng = np.random.default_rng(6)
        entities = [(f"e{i:04d}", "t") for i in range(n)]

        def sparse_graph():
            pairs = {tuple(sorted(p)) for p in rng.integers(0, n, (4 * n, 2)).tolist() if p[0] != p[1]}
            return HeteroGraph(entities, [(entities[i][0], entities[j][0], 1.0) for i, j in sorted(pairs)])

        prob = ReconstructionProblem(sparse_graph(), sparse_graph(), 0.1, 0.5, 0.01, 16)
        prob.target.csr(), prob.source.csr()  # cached before tracing
        _spectral_start(prob, 0)
        tracemalloc.start()
        try:
            _spectral_start(prob, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * n


class TestFinalize:
    def test_huge_threshold_keeps_originals_only(self):
        g = random_graph(4, n=10)
        u = np.random.default_rng(0).standard_normal((10, 3))
        out = finalize_edges(u, g, z=1e9)
        assert out == g

    def test_proposes_high_score_pair_with_raw_weight(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t"), ("d", "t")], [])
        u = np.array([[1.0], [1.0], [0.0], [0.0]])
        # row a scores [1, 1, 0, 0]: mean 0.5, std 0.5, so z(a, b) = 1
        out = finalize_edges(u, g, z=0.9)
        assert edge_weight(out, "a", "b") == 1.0
        assert out.edge_count == 1

    def test_original_weights_preserved(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [("a", "b", 7.25)])
        u = np.array([[1.0], [1.0], [0.0]])
        out = finalize_edges(u, g, z=-10.0)
        assert edge_weight(out, "a", "b") == 7.25

    def test_zero_variance_rows_propose_nothing(self):
        g = HeteroGraph([("a", "t"), ("b", "t"), ("c", "t")], [])
        out = finalize_edges(np.zeros((3, 2)), g, z=0.0)
        assert out.edge_count == 0

    def test_negative_scores_clipped_to_positive_weight(self):
        g = HeteroGraph([(f"e{i}", "t") for i in range(6)], [])
        u = np.random.default_rng(3).standard_normal((6, 2))
        out = finalize_edges(u, g, z=-10.0)
        # every pair is proposed; construction succeeds only if all weights
        # are positive, and clipped ones land at machine epsilon
        assert out.edge_count == 15
        assert min(w for _, _, w in out.edges()) >= np.finfo(float).eps

    def test_row_mismatch_rejected(self):
        g = random_graph(1, n=5)
        with pytest.raises(GraftError, match="rows"):
            finalize_edges(np.zeros((4, 2)), g, 1.0)

    def test_refused_before_scoring_when_its_arrays_exceed_physical_memory(self, monkeypatch):
        # one float64 and three boolean n × n arrays: 11·n² bytes over the merged n,
        # which selection's guard, over the source's n, does not cover
        g = random_graph(2, n=30)
        u = np.random.default_rng(0).standard_normal((30, 3))
        need = 11 * 30 * 30
        scored, real_matmul = [], reconstruction._matmul
        monkeypatch.setattr(reconstruction, "_matmul", lambda *a: scored.append(a) or real_matmul(*a))
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: need - 1)
        message = f"^edge scoring over 30 entities needs {need} bytes .* {need - 1} bytes of physical"
        with pytest.raises(GraftError, match=message):
            finalize_edges(u, g, 1.0)
        assert scored == []
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: need)
        want = finalize_edges(u, g, 1.0)
        monkeypatch.setattr(selection, "_physical_memory_bytes", lambda: None)
        assert finalize_edges(u, g, 1.0) == want
        assert scored

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("z", [-0.5, 0.5, 1.96])
    def test_edges_follow_the_dense_rule(self, seed, z):
        # pair (i, j) is an edge when max(z_ij, z_ji) >= z, z-scores taken per row of u uᵀ
        n = 60
        g = HeteroGraph([(f"e{i:02d}", "t") for i in range(n)], [])
        u = np.random.default_rng(seed).standard_normal((n, 4)) + 0.3
        scores = u @ u.T
        zs = (scores - scores.mean(axis=1, keepdims=True)) / scores.std(axis=1, keepdims=True)
        want = set(zip(*np.nonzero(np.triu(np.maximum(zs, zs.T) >= z, k=1))))
        out = finalize_edges(u, g, z)
        assert {(g.index_of(a), g.index_of(b)) for a, b, _ in out.edges()} == want
        assert 0 < len(want) < n * (n - 1) // 2

    def test_peaks_below_two_dense_matrices(self, monkeypatch):
        # the score matrix and three boolean n × n arrays; a float z-score
        # matrix and its max with its transpose beside the scores read 3.13
        gs, _, gt_hat = generate(SynthSpec(1200, 600, dynamic_factor=0.2, maturity=0.5, seed=0))
        calls = []
        monkeypatch.setattr(transfer, "finalize_edges", lambda *args: calls.append(args) or finalize_edges(*args))
        run_transfer(gs, gt_hat)
        u, merged, z = calls[0]
        want = finalize_edges(u, merged, z)
        tracemalloc.start()
        try:
            got = finalize_edges(u, merged, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * 8 * merged.n * merged.n
