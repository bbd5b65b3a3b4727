"""End-to-end acceptance checks.

Each test prints one ``CRITERION k: PASS/FAIL (...)`` line before asserting,
so a full run doubles as a checklist. Criteria 5 to 8 follow the synthetic
benchmark protocol (source 1200 entities, target 600, dynamic factor 0.2,
maturity 0.5, seeds 0 to 4); the pipeline there runs with eta0 = 0.02, the
step the criteria's recorded numbers and the benchmark's transfer-1200
workload were measured with.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from graft import (
    HeteroGraph,
    SimilarityMatrix,
    SynthSpec,
    TransferConfig,
    baseline_dt,
    baseline_nt,
    baseline_random_walk,
    dynamic_factor,
    generate,
    mds_embed,
    run_transfer,
    score,
)
from graft.cli import main as cli_main
from graft.reconstruction import (
    ReconstructionProblem,
    reconstruction_gradient,
    reconstruction_objective,
)
from graft.selection import fit_weights, merge_transferred_entities, squared_row_distances
from graft.transfer import construct_dependencies
from testkit import finite_diff_grad, graph_from_upper

BENCH_SPEC = dict(n_source=1200, n_target=600, dynamic_factor=0.2, maturity=0.5)
BENCH_SEEDS = (0, 1, 2, 3, 4)
ACCEPT_CFG = TransferConfig(eta0=0.02)


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {k}: {detail}"


def _pipeline_run(seed: int, config: TransferConfig):
    """One benchmark run, keeping the intermediates the criteria reuse."""
    gs, gt_truth, gt_hat = generate(SynthSpec(seed=seed, **BENCH_SPEC))
    estimate, report = run_transfer(gs, gt_hat, config)
    return SimpleNamespace(
        seed=seed,
        gs=gs,
        gt_truth=gt_truth,
        gt_hat=gt_hat,
        merged=merge_transferred_entities(gt_hat, gs, report.transferred_entities),
        mu=report.mu_used,
        construction_trace=report.construction_objective_trace,
        transfer_f1=score(estimate, gt_truth).combined_f1,
        nt_f1=score(baseline_nt(gt_hat), gt_truth).combined_f1,
        dt_f1=score(baseline_dt(gs, gt_hat), gt_truth).combined_f1,
    )


@pytest.fixture(scope="module")
def benchmark_runs():
    start = time.perf_counter()
    runs = [_pipeline_run(seed, ACCEPT_CFG) for seed in BENCH_SEEDS]
    return runs, time.perf_counter() - start


def test_criterion_01_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(10, 41))
        rank = int(rng.integers(2, 9))
        mu = (0.0, 0.3, 0.7, 1.0)[i % 4]
        ids = tuple(f"e{j:02d}" for j in range(n))

        def random_graph():
            return graph_from_upper(ids, rng.random((n, n)) < 0.3)

        prob = ReconstructionProblem(
            random_graph(), random_graph(), float(rng.random()), mu,
            float(rng.choice([0.0, 0.1])), rank,
        )
        u = 0.7 * rng.standard_normal((n, rank))
        grad = reconstruction_gradient(u, prob)
        fd = finite_diff_grad(lambda v: reconstruction_objective(v, prob), u, h=1e-5)
        worst = max(worst, np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 50 instances in {elapsed:.1f}s",
    )


def test_criterion_02_mds_round_trip_and_clipping():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((30, 3))
    sq = squared_row_distances(points)
    recovered = np.sqrt(squared_row_distances(mds_embed(sq, 3)))
    original = np.sqrt(sq)
    off = ~np.eye(30, dtype=bool)
    rel = np.abs(recovered[off] - original[off]) / original[off]
    # stretched-square input has no point realization (centered matrix has a
    # negative eigenvalue), so this exercises the clipping path
    non_euclidean = np.array(
        [
            [0.0, 1.0, 1.0, 8.0],
            [1.0, 0.0, 2.0, 1.0],
            [1.0, 2.0, 0.0, 1.0],
            [8.0, 1.0, 1.0, 0.0],
        ]
    )
    emb = mds_embed(non_euclidean, 4)
    _report(
        2,
        rel.max() <= 1e-6 and np.isfinite(emb).all(),
        f"max rel distance err {rel.max():.2e}; clipping path finite",
    )


def test_criterion_03_blend_weight_recovery():
    rng = np.random.default_rng(1)
    n = 30
    w_true = np.array([0.4, 0.3, 0.2, 0.1])
    mats, parts = [], []
    for wi in w_true:
        xi = rng.standard_normal((n, 2))
        mats.append(SimilarityMatrix(squared_row_distances(xi)))
        parts.append(np.sqrt(wi) * xi)
    w = fit_weights(np.hstack(parts), mats, ridge=0.0)
    err = np.abs(w - w_true).max()
    _report(3, err <= 1e-5, f"weight recovery err {err:.2e} over 4 matrices")


def test_criterion_04_self_transfer_sanity():
    gs, _, _ = generate(SynthSpec(200, 200, dynamic_factor=0.0, maturity=1.0, seed=0))
    estimate, _ = run_transfer(gs, gs, TransferConfig(d2=200, z_edge=2.58))
    combined = score(estimate, gs).combined_f1
    _report(4, combined >= 0.99, f"combined F1 {combined:.4f} on 200-entity self transfer")


def test_criterion_05_benchmark_ordering(benchmark_runs):
    runs, elapsed = benchmark_runs
    t_mean = np.mean([r.transfer_f1 for r in runs])
    nt_mean = np.mean([r.nt_f1 for r in runs])
    dt_mean = np.mean([r.dt_f1 for r in runs])
    wins = sum(1 for r in runs if r.transfer_f1 > r.nt_f1 and r.transfer_f1 > r.dt_f1)
    ok = t_mean > nt_mean and t_mean > dt_mean and wins >= 4 and elapsed <= 600.0
    _report(
        5,
        ok,
        f"mean combined F1 transfer {t_mean:.4f} vs nt {nt_mean:.4f}, dt {dt_mean:.4f}; "
        f"beats both in {wins}/5 seeds; {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def trend_tables(benchmark_runs):
    runs, _ = benchmark_runs
    cache = {}
    for r in runs[:3]:
        cell = {"transfer": r.transfer_f1, "nt": r.nt_f1, "dt": r.dt_f1,
                "rw": score(baseline_random_walk(r.gs, r.gt_hat, ACCEPT_CFG), r.gt_truth).combined_f1}
        cache[(0.2, 0.5, r.seed)] = cell

    def cell(factor, maturity, seed):
        key = (factor, maturity, seed)
        if key not in cache:
            gs, gt_truth, gt_hat = generate(
                SynthSpec(1200, 600, factor, maturity, seed=seed)
            )
            estimate, _ = run_transfer(gs, gt_hat, ACCEPT_CFG)
            cache[key] = {
                "transfer": score(estimate, gt_truth).combined_f1,
                "nt": score(baseline_nt(gt_hat), gt_truth).combined_f1,
                "dt": score(baseline_dt(gs, gt_hat), gt_truth).combined_f1,
                "rw": score(baseline_random_walk(gs, gt_hat, ACCEPT_CFG), gt_truth).combined_f1,
            }
        return cache[key]

    def mean_over_seeds(factor, maturity):
        cells = [cell(factor, maturity, seed) for seed in range(3)]
        return {m: float(np.mean([c[m] for c in cells])) for m in ("transfer", "nt", "dt", "rw")}

    factor_table = {f: mean_over_seeds(f, 0.5) for f in (0.1, 0.2, 0.3, 0.4, 0.5)}
    maturity_table = {m: mean_over_seeds(0.2, m) for m in (0.3, 0.5, 0.7)}
    return factor_table, maturity_table


def test_criterion_06_factor_and_maturity_trends(trend_tables):
    factor_table, maturity_table = trend_tables
    problems = []
    for method in ("transfer", "nt", "dt", "rw"):
        f_seq = [factor_table[f][method] for f in sorted(factor_table)]
        if not all(b <= a + 0.05 for a, b in zip(f_seq, f_seq[1:])):
            problems.append(f"{method} not non-increasing in dynamic factor: {f_seq}")
        m_seq = [maturity_table[m][method] for m in sorted(maturity_table)]
        if not all(b >= a - 0.05 for a, b in zip(m_seq, m_seq[1:])):
            problems.append(f"{method} not non-decreasing in maturity: {m_seq}")
    _report(
        6,
        not problems,
        "; ".join(problems)
        or "4 methods x 2 trends within the 0.05 noise band over 3 seeds",
    )


def _first_converged(trace, tol=1e-4):
    for i in range(1, len(trace)):
        if abs(trace[i] - trace[i - 1]) / max(abs(trace[i - 1]), 1e-30) < tol:
            return i
    return None


def _converged_within(trace, cap, limit=30):
    hit = _first_converged(trace)
    if hit is not None and hit <= limit:
        return True
    # a fit that stopped on its own before the iteration cap sits at a fixed
    # point: the accepted objective would not change again
    return len(trace) - 1 < cap and len(trace) - 1 <= limit


def _monotone(trace):
    return all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:]))


def test_criterion_07_convergence_speed(benchmark_runs):
    runs, _ = benchmark_runs
    # only construction traces count: a selection fit is one sweep, so its
    # one-entry trace would count as converged by construction
    traces = [r.construction_trace for r in runs]
    converged = sum(1 for t in traces if _converged_within(t, ACCEPT_CFG.construction_max_iters))
    monotone = all(_monotone(t) for t in traces)
    hits = [_first_converged(t) for t in traces]
    _report(
        7,
        converged >= 0.9 * len(traces) and monotone,
        f"{converged}/{len(traces)} construction traces converged within 30 iterations "
        f"(first hits {hits}); monotone={monotone}",
    )


def test_criterion_08_auto_mix_near_grid_best(benchmark_runs):
    runs, _ = benchmark_runs
    grid = [round(0.1 * i, 1) for i in range(11)]
    means = {}
    for m in grid:
        f1s = [
            score(
                construct_dependencies(r.gs, r.gt_hat, r.merged, m, ACCEPT_CFG)[0],
                r.gt_truth,
            ).combined_f1
            for r in runs
        ]
        means[m] = float(np.mean(f1s))
    best = max(means, key=lambda m: means[m])
    auto = float(np.mean([r.mu for r in runs]))
    _report(
        8,
        abs(best - auto) <= 0.15,
        f"best grid mu {best} (F1 {means[best]:.4f}) vs auto {auto:.4f}; "
        f"grid spread {max(means.values()) - min(means.values()):.4f}",
    )


def test_criterion_09_dynamic_factor_axioms():
    rng = np.random.default_rng(0)
    ok = True
    details = []
    for trial in range(5):
        n = int(rng.integers(6, 30))
        ids = tuple(f"e{j:02d}" for j in range(n))

        m = rng.random((n, n)) < 0.4
        a, b = graph_from_upper(ids, m), graph_from_upper(ids, rng.random((n, n)) < 0.4)
        ok &= dynamic_factor(a, a) == 0.0
        ok &= dynamic_factor(a, b) == dynamic_factor(b, a)
        ok &= 0.0 <= dynamic_factor(a, b) <= 1.0
        # plant k pair flips and demand the exact closed form
        k = int(rng.integers(0, n * (n - 1) // 2 + 1))
        rows, cols = np.triu_indices(n, k=1)
        chosen = rng.choice(rows.size, size=k, replace=False)
        flipped = m.copy()
        for idx in chosen:
            i, j = rows[idx], cols[idx]
            flipped[i, j] = not flipped[i, j]
        got = dynamic_factor(a, graph_from_upper(ids, flipped))
        expect = 2.0 * k / (n * (n - 1))
        ok &= got == expect
        details.append(f"k={k},n={n}")
    full = HeteroGraph([("a", "t"), ("b", "t")], [("a", "b")])
    empty = HeteroGraph([("a", "t"), ("b", "t")], [])
    ok &= dynamic_factor(full, empty) == 1.0
    _report(9, bool(ok), f"identity, symmetry, range, flip formula exact ({'; '.join(details)})")


def test_criterion_10_end_to_end_determinism(tmp_path):
    def run_all(root):
        bench = root / "bench"
        assert (
            cli_main(
                ["synth", "--n-source", "300", "--n-target", "150",
                 "--dynamic-factor", "0.2", "--maturity", "0.5",
                 "--seed", "0", "--out", str(bench)]
            )
            == 0
        )
        assert (
            cli_main(
                ["transfer", "--source", str(bench / "source.graph"),
                 "--target", str(bench / "target_partial.graph"),
                 "--out", str(root / "estimate.graph"),
                 "--report", str(root / "report.json")]
            )
            == 0
        )
        assert (
            cli_main(
                ["sweep", "--axis", "dynfactor", "--values", "0.1",
                 "--methods", "nt,dt", "--seeds", "0",
                 "--out", str(root / "sweep.csv")]
            )
            == 0
        )
        return [
            bench / "source.graph", bench / "target_truth.graph",
            bench / "target_partial.graph", bench / "meta.json",
            root / "estimate.graph", root / "report.json", root / "sweep.csv",
        ]

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    same = [a.read_bytes() == b.read_bytes() for a, b in zip(first, second)]
    report = json.loads(first[5].read_text())
    _report(
        10,
        all(same) and report["schema"] == "report_v2",
        f"{sum(same)}/{len(same)} artifacts byte-identical across reruns "
        "(graphs, meta, report, sweep CSV)",
    )
