import numpy as np

from anchorclust.anchors import AnchorGraphSet
from anchorclust.solver import SolverConfig, fit


def random_stochastic(n, m, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, m)) ** 3
    return S / S.sum(axis=1, keepdims=True)


def fit_one(S, cfg):
    return fit(AnchorGraphSet(graphs=[S], k=0), cfg)


def test_unregularized_single_cycle_copies_graph():
    S = random_stochastic(8, 4, seed=0)
    cfg = SolverConfig(c=2, beta=0.0, gamma=0.0, max_iters=1)
    res = fit_one(S, cfg)
    assert np.array_equal(res.state.Z, S)


def test_monotone_descent():
    rng = np.random.default_rng(1)
    for trial in range(10):
        S = random_stochastic(15, 6, seed=trial)
        cfg = SolverConfig(
            c=3,
            beta=float(rng.uniform(0.05, 1.0)),
            gamma=float(10 ** rng.uniform(-5, 0)),
            max_iters=12,
            rel_tol=1e-14,
            seed=trial,
        )
        hist = fit_one(S, cfg).state.objective_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))


def test_alpha_pinned_at_one():
    S = random_stochastic(10, 4, seed=2)
    res = fit_one(S, SolverConfig(c=2, max_iters=5))
    assert np.array_equal(res.state.alpha, [1.0])
