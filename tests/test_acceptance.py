"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1-9 are self-contained and seeded. Criterion 10 needs an
externally provided dataset directory (ANCHORCLUST_COIL_DIR or
data/coil) and is skipped when absent; its score is reported, not
asserted, because upstream preprocessing is unspecified.
"""

import functools
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    accuracy_by_permutation,
    alpha_grid_search,
    ari_from_counts,
    dense_reference_fit,
    kkt_residual,
    naive_reconstruction,
    pair_counts_by_enumeration,
    random_graph_set,
    random_orthonormal,
    random_stochastic,
)

from anchorclust.anchors import build_all, build_anchor_graph, select_anchors
from anchorclust.dataset import load_dataset, synth_blobs
from anchorclust.graph_tools import reconstruct_full_graph
from anchorclust.metrics import accuracy, ari, evaluate_all, nmi, pairwise_f_precision
from anchorclust.solver import (
    SolverConfig,
    fit,
    mix_graphs,
    svt,
    update_F,
    update_G,
    update_alpha,
)

warnings.filterwarnings("ignore")


def criterion(num, title):
    def wrap(func):
        @functools.wraps(func)
        def run(*args, **kwargs):
            try:
                detail = func(*args, **kwargs)
            except Exception:
                print(f"[acceptance] criterion {num:2d} FAIL: {title}")
                raise
            print(f"[acceptance] criterion {num:2d} PASS: {title}"
                  + (f" ({detail})" if detail else ""))
        return run
    return wrap


@criterion(1, "monotone descent over 100 seeded runs within 1e-9")
def test_monotone_descent_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for run in range(100):
        V = int(rng.integers(2, 4))
        gs = random_graph_set(40, 6, V, seed=run)
        cfg = SolverConfig(
            c=int(rng.integers(2, 5)),
            beta=float(rng.uniform(0.05, 1.0)),
            gamma=float(10 ** rng.uniform(-5, 0)),
            max_iters=8,
            rel_tol=1e-14,
            seed=run,
        )
        hist = fit(gs, cfg).state.objective_history
        worst = max(worst, max(b - a for a, b in zip(hist, hist[1:])))
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return f"worst increase {worst:.2e}, {elapsed:.1f}s"


@criterion(2, "block-update oracles on 50 random instances each")
def test_block_update_oracles():
    rng = np.random.default_rng(7)

    # basis update reaches the nuclear norm of Z^T F
    for trial in range(50):
        Z = rng.standard_normal((9, 5))
        F = np.abs(rng.standard_normal((9, 3)))
        G = update_G(Z, F)
        W = Z.T @ F
        gap = abs(np.trace(G.T @ W) - np.linalg.svd(W, compute_uv=False).sum())
        assert gap < 1e-8

    # singular value thresholding satisfies the prox KKT conditions
    for trial in range(50):
        M = rng.standard_normal((5, 5))
        tau = float(rng.uniform(0.1, 1.0))
        Z = svt(M, tau)
        on, off = kkt_residual(M, tau, Z)
        assert on < 1e-8
        assert off <= tau + 1e-8

    # view weights agree with an exhaustive simplex grid at step 1e-3
    for trial in range(50):
        V = 2 + trial % 2
        gs = random_graph_set(8, 4, V, seed=300 + trial)
        Z = svt(mix_graphs(gs.graphs, np.full(V, 1.0 / V)), 0.05)
        alpha = update_alpha(gs.graphs, Z)
        best = alpha_grid_search(gs.graphs, Z)
        assert np.max(np.abs(alpha - best)) <= 1e-3 + 1e-9

    # indicator update beats 1000 random non-negative perturbations
    for trial in range(50):
        Z = rng.standard_normal((6, 4))
        G = random_orthonormal(4, 2, seed=600 + trial)
        F = update_F(Z, G)
        base = np.sum((Z - F @ G.T) ** 2)
        scales = 10.0 ** rng.uniform(-3, 0, size=1000)
        probes = np.maximum(
            F[None] + scales[:, None, None] * rng.standard_normal((1000,) + F.shape),
            0.0,
        )
        vals = np.sum((Z[None] - probes @ G.T) ** 2, axis=(1, 2))
        assert base <= vals.min() + 1e-12
    return None


@criterion(3, "convergence within 100 cycles at rel_tol 1e-6 (n=1000, c=5, V=2)")
def test_convergence_speed():
    ds = synth_blobs(n=1000, c=5, V=2, dims=[10, 10], seed=0)
    gs = build_all(ds, select_anchors(ds, m=25, seed=0), k=5)
    res = fit(gs, SolverConfig(c=5, rel_tol=1e-6, max_iters=200, seed=0))
    assert res.converged
    assert res.state.iters_run <= 100
    return f"{res.state.iters_run} cycles"


@criterion(4, "clustering quality on separated blobs (ACC >= 0.95, NMI >= 0.85, < 2s)")
def test_clustering_quality():
    t0 = time.perf_counter()
    ds = synth_blobs(n=300, c=3, V=2, dims=[5, 8], separation=10, noise=0.1, seed=0)
    gs = build_all(ds, select_anchors(ds, m=10, seed=0), k=3)
    res = fit(gs, SolverConfig(c=3, beta=0.2, gamma=0.1, seed=0))
    elapsed = time.perf_counter() - t0
    acc = accuracy(res.labels, ds.labels)
    score = nmi(res.labels, ds.labels)
    assert acc >= 0.95
    assert score >= 0.85
    assert elapsed < 2.0
    return f"ACC {acc:.3f}, NMI {score:.3f}, {elapsed:.2f}s"


@criterion(5, "linear scaling: total time at n=20000 within 6x of n=5000")
def test_linear_scaling():
    def pipeline(n):
        ds = synth_blobs(n=n, c=5, V=2, dims=[10, 10], separation=10,
                         noise=1.0, seed=0)
        t0 = time.perf_counter()
        anchor_set = select_anchors(ds, m=30, seed=0, max_iters=30)
        gs = build_all(ds, anchor_set, k=5)
        cfg = SolverConfig(c=5, max_iters=15, rel_tol=1e-15, seed=0)
        res = fit(gs, cfg)
        return time.perf_counter() - t0

    pipeline(500)  # warm the numerics stack before timing
    small = min(pipeline(5000) for _ in range(2))
    large = min(pipeline(20000) for _ in range(2))
    ratio = large / small
    assert ratio <= 6.0
    return f"{small:.2f}s vs {large:.2f}s, ratio {ratio:.2f} (ideal 4)"


@criterion(6, "metric oracles: exact equality against brute force (200 trials each)")
def test_metric_oracles():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        pred = rng.integers(0, int(rng.integers(1, 5)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 5)), size=n)
        assert accuracy(pred, truth) == accuracy_by_permutation(pred, truth)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        pred = rng.integers(0, int(rng.integers(1, 5)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 5)), size=n)
        counts = pair_counts_by_enumeration(pred, truth)
        assert ari(pred, truth) == ari_from_counts(*counts)
        tp, pp, tq, _ = counts
        precision = tp / pp if pp else 0.0
        recall = tp / tq if tq else 0.0
        f = (2 * precision * recall / (precision + recall)
             if precision + recall else 0.0)
        assert pairwise_f_precision(pred, truth) == (f, precision)
    return None


@criterion(7, "anchor graph contract on 100 random instances")
def test_anchor_graph_contract():
    rng = np.random.default_rng(13)
    for trial in range(100):
        n = int(rng.integers(20, 61))
        m = int(rng.integers(3, 10))
        k = int(rng.integers(1, m))
        X = rng.standard_normal((n, int(rng.integers(2, 6))))
        C = rng.standard_normal((m, X.shape[1]))
        S = build_anchor_graph(X, C, k)
        assert np.max(np.abs(S.sum(axis=1) - 1.0)) < 1e-10
        assert np.all((S > 0).sum(axis=1) == min(k, m))
    return None


@criterion(8, "full-graph reconstruction matches the triple-loop oracle to 1e-12")
def test_graph_reconstruction():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 8))
        S = random_stochastic(n, m, seed=trial)
        full = reconstruct_full_graph(S)
        assert np.max(np.abs(full.B - naive_reconstruction(S))) < 1e-12
        assert np.max(np.abs(full.B - full.B.T)) < 1e-10
        assert np.max(np.abs(full.B.sum(axis=1) - 1.0)) < 1e-8
    return None


@criterion(9, "single-view fit matches the dense reference loop (20 seeds)")
def test_single_view_equivalence():
    from anchorclust.anchors import AnchorGraphSet

    for seed in range(20):
        S = random_stochastic(15, 5, seed=seed)
        cfg = SolverConfig(c=3, beta=0.3, gamma=0.1, max_iters=20, seed=seed)
        graphs = AnchorGraphSet(graphs=[S], k=0)
        result = fit(graphs, cfg)
        history, labels, _ = dense_reference_fit(graphs, cfg)
        got = np.asarray(result.state.objective_history)
        assert got.shape == (len(history),)
        assert np.max(np.abs(got - history) / np.abs(history)) <= 1e-12
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.state.alpha, [1.0])
    return None


def test_optional_external_preset_run():
    """Criterion 10: preset run on an externally converted dataset."""
    root = os.environ.get("ANCHORCLUST_COIL_DIR", "data/coil")
    if not (Path(root) / "meta.json").is_file():
        print("[acceptance] criterion 10 SKIP: external dataset not provided")
        pytest.skip(f"no dataset at {root}")
    ds = load_dataset(root)
    gs = build_all(ds, select_anchors(ds, m=35, seed=0), k=5)
    res = fit(gs, SolverConfig(c=ds.num_classes, beta=0.3, gamma=0.01, seed=0))
    scores = evaluate_all(res.labels, ds.labels)
    verdict = "meets 0.95" if scores["acc"] >= 0.95 else "below 0.95 (reported, not failed)"
    print(f"[acceptance] criterion 10 PASS: preset run ACC {scores['acc']:.3f}, {verdict}")
