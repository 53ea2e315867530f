import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    alpha_grid_search,
    dense_reference_fit,
    dense_update_alpha,
    dense_update_Z,
    kkt_residual,
    mix_graphs,
    random_graph_set,
    random_orthonormal,
    random_stochastic,
    simplex_qp_by_enumeration,
    svt,
)

from anchorclust import solver
from anchorclust.anchors import AnchorGraphSet, build_all, select_anchors
from anchorclust.dataset import synth_blobs
from anchorclust.errors import InvalidParameter, NumericalBreakdown, RankDeficientWarning
from anchorclust.metrics import evaluate_all
from anchorclust.solver import (
    SolverConfig,
    fit,
    init_state,
    labels_from_F,
    objective,
    update_F,
    update_G,
    update_Z,
)


def zblock_value(Z, graphs, alpha, F, G, beta, gamma):
    A = mix_graphs(graphs, alpha)
    return (
        np.sum((Z - A) ** 2)
        + beta * np.linalg.svd(Z, compute_uv=False).sum()
        + gamma * np.sum((Z - F @ G.T) ** 2)
    )


class TestUpdateF:
    def test_nonnegative_product_passes_through(self):
        Z = np.abs(np.random.default_rng(0).standard_normal((4, 2)))
        G = np.eye(2)
        assert np.array_equal(update_F(Z, G), Z @ G)

    def test_elementwise_clamp(self):
        Z = np.array([[1.0, -2.0], [0.0, 3.0]])
        F = update_F(Z, np.eye(2))
        assert np.array_equal(F, [[1.0, 0.0], [0.0, 3.0]])

    def test_beats_random_nonnegative_perturbations(self):
        rng = np.random.default_rng(42)
        Z = rng.standard_normal((6, 4))
        G = random_orthonormal(4, 2, seed=1)
        F = update_F(Z, G)
        base = np.sum((Z - F @ G.T) ** 2)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-3, 0)
            Fp = np.maximum(F + scale * rng.standard_normal(F.shape), 0.0)
            assert base <= np.sum((Z - Fp @ G.T) ** 2) + 1e-12


class TestUpdateG:
    def test_identity_product(self):
        G = update_G(np.eye(3), np.eye(3), random_orthonormal(3, 3, seed=0))
        assert np.allclose(G, np.eye(3), atol=1e-12)

    def test_diagonal_positive(self):
        Z = np.diag([3.0, 1.0])
        G = update_G(Z, np.eye(2), random_orthonormal(2, 2, seed=0))
        assert np.allclose(G, np.eye(2), atol=1e-12)
        assert np.trace(G.T @ Z.T @ np.eye(2)) == pytest.approx(4.0)

    def test_trace_equals_nuclear_norm(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            Z = rng.standard_normal((8, 5))
            F = np.abs(rng.standard_normal((8, 3)))
            G = update_G(Z, F, random_orthonormal(5, 3, seed=seed))
            W = Z.T @ F
            achieved = np.trace(G.T @ W)
            target = np.linalg.svd(W, compute_uv=False).sum()
            assert achieved == pytest.approx(target, abs=1e-10)
            assert np.max(np.abs(G.T @ G - np.eye(3))) < 1e-12

    def test_full_rank_is_u_vt_bitwise(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            Z = rng.standard_normal((8, 5))
            F = np.abs(rng.standard_normal((8, 3)))
            U, _, Vt = np.linalg.svd(Z.T @ F, full_matrices=False)
            assert np.array_equal(update_G(Z, F, random_orthonormal(5, 3, seed)), U @ Vt)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_rank_deficient_completion_is_nearest_previous(self, r):
        # W = Z^T F has rank r < c = 3 <= m = 5. The maximizers of
        # Tr(G^T W) are U_r V_r^T + Q V_n^T over every orthonormal m x (c - r)
        # Q orthogonal to U_r; the step must pick the one nearest G_prev.
        rng = np.random.default_rng(r)
        m, c = 5, 3
        for trial in range(20):
            Z = rng.standard_normal((8, m))
            F = rng.standard_normal((8, r)) @ rng.standard_normal((r, c))
            G_prev = random_orthonormal(m, c, seed=100 * r + trial)
            G = update_G(Z, F, G_prev)
            W = Z.T @ F
            U, s, Vt = np.linalg.svd(W, full_matrices=True)
            assert np.max(np.abs(G.T @ G - np.eye(c))) < 1e-12
            assert np.trace(G.T @ W) == pytest.approx(s.sum(), abs=1e-10)

            def maximizer(O):
                # O: (m - r) x (c - r), orthonormalized, in U's complement
                Q = U[:, r:] @ np.linalg.qr(O)[0]
                return U[:, :r] @ Vt[:r] + Q @ Vt[r:]

            best = np.trace(G.T @ G_prev)
            O_opt = U[:, r:].T @ G @ Vt[r:].T
            for _ in range(50):
                for O in (rng.standard_normal((m - r, c - r)),
                          O_opt + 1e-3 * rng.standard_normal((m - r, c - r))):
                    assert np.trace(maximizer(O).T @ G_prev) <= best + 1e-12

            R = random_orthonormal(c, c, seed=trial)
            rotated = update_G(Z, F @ R, G_prev @ R)
            assert np.allclose(rotated, G @ R, atol=1e-12)

    def test_zero_product_keeps_basis(self):
        G_prev = random_orthonormal(5, 3, seed=1)
        G = update_G(np.zeros((8, 5)), np.ones((8, 3)), G_prev)
        assert np.allclose(G, G_prev, atol=1e-14)

    def test_non_unique_completion_warns(self):
        # r = 1 and G_prev V_n = e_1 lies in span(U_r): every Q orthogonal
        # to U_r is equally near
        W = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        G_prev = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.warns(RankDeficientWarning):
            G = update_G(np.eye(3), W, G_prev)
        assert np.max(np.abs(G.T @ G - np.eye(2))) < 1e-12
        assert np.trace(G.T @ W) == pytest.approx(1.0, abs=1e-12)


class TestSvt:
    def test_tau_zero_identity(self):
        M = np.random.default_rng(0).standard_normal((4, 3))
        assert np.array_equal(svt(M, 0.0), M)

    def test_diagonal_soft_threshold(self):
        Z = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(Z, np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidParameter):
            svt(np.eye(2), -0.5)

    def test_all_below_threshold_gives_zero(self):
        assert np.array_equal(svt(0.1 * np.eye(3), 5.0), np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
    def test_kkt_residual(self, shape):
        rng = np.random.default_rng(7)
        for trial in range(20):
            M = rng.standard_normal(shape)
            tau = 0.5
            Z = svt(M, tau)
            on, off = kkt_residual(M, tau, Z)
            assert on < 1e-8
            assert off <= tau + 1e-8

    def test_matches_direct_svd_construction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = rng.standard_normal((10, 6))
            tau = float(rng.uniform(0.05, 2.0))
            U, s, Vt = np.linalg.svd(M, full_matrices=False)
            direct = (U * np.maximum(s - tau, 0.0)) @ Vt
            assert np.allclose(svt(M, tau), direct, atol=1e-10)


class TestUpdateZ:
    def test_beta_zero_returns_blend(self):
        gs = random_graph_set(8, 4, 2, seed=0)
        F = np.abs(np.random.default_rng(1).standard_normal((8, 2)))
        G = random_orthonormal(4, 2, seed=2)
        alpha = np.array([0.3, 0.7])
        Z = dense_update_Z(gs.graphs, alpha, F, G, beta=0.0, gamma=0.5)
        M = (mix_graphs(gs.graphs, alpha) + 0.5 * F @ G.T) / 1.5
        assert np.array_equal(Z, M)

    def test_gamma_zero_single_view_reduction(self):
        gs = random_graph_set(6, 3, 1, seed=3)
        S = gs.graphs[0].toarray()
        F = np.abs(np.random.default_rng(4).standard_normal((6, 2)))
        G = random_orthonormal(3, 2, seed=5)
        Z = dense_update_Z(gs.graphs, np.array([1.0]), F, G, beta=0.4, gamma=0.0)
        assert np.array_equal(Z, svt(S, 0.2))

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(6)
        gs = random_graph_set(7, 4, 2, seed=7)
        F = np.abs(rng.standard_normal((7, 3)))
        G = random_orthonormal(4, 3, seed=8)
        alpha = np.array([0.4, 0.6])
        beta, gamma = 0.3, 0.2
        Z = dense_update_Z(gs.graphs, alpha, F, G, beta, gamma)
        base = zblock_value(Z, gs.graphs, alpha, F, G, beta, gamma)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-4, -1)
            Zp = Z + scale * rng.standard_normal(Z.shape)
            assert base <= zblock_value(Zp, gs.graphs, alpha, F, G, beta, gamma) + 1e-12

    @pytest.mark.parametrize("beta,expect_strict", [(0.2, False), (0.7, True)])
    def test_rank_reduction(self, beta, expect_strict):
        rng = np.random.default_rng(9)
        gs = random_graph_set(12, 5, 2, seed=10)
        F = np.abs(rng.standard_normal((12, 3)))
        G = random_orthonormal(5, 3, seed=11)
        alpha = np.array([0.5, 0.5])
        gamma = 0.1
        M = (mix_graphs(gs.graphs, alpha) + gamma * F @ G.T) / (1 + gamma)
        tau = beta / (2 * (1 + gamma))
        s_m = np.linalg.svd(M, compute_uv=False)
        assert (s_m[-1] < tau) == expect_strict  # instance chosen to hit both sides
        Z = dense_update_Z(gs.graphs, alpha, F, G, beta, gamma)
        s_z = np.linalg.svd(Z, compute_uv=False)
        rank = lambda s: int((s > 1e-8).sum())
        assert rank(s_z) <= rank(s_m)
        if s_m[-1] < tau:
            assert rank(s_z) < rank(s_m)


def qp_value(Q, q, a):
    return float(a @ Q @ a - a @ q)


class TestUpdateAlpha:
    def test_single_view_trivial(self):
        gs = random_graph_set(5, 3, 1, seed=0)
        assert np.array_equal(dense_update_alpha(gs.graphs, gs.graphs[0].toarray()), [1.0])

    def test_identical_graphs_stay_uniform(self):
        # Q is singular; the flat direction takes no step
        S = random_graph_set(6, 3, 1, seed=1).graphs[0].toarray()
        assert np.array_equal(dense_update_alpha([S, S.copy()], S), [0.5, 0.5])
        Z = svt(S, 0.05)
        assert np.array_equal(dense_update_alpha([S, S.copy(), S.copy()], Z),
                              np.full(3, 1.0 / 3.0))

    def test_orthogonal_graphs_pick_matching_view(self):
        # disjoint anchor support makes the graphs Frobenius-orthogonal
        n = 10
        S1 = np.zeros((n, 4))
        S1[:, 0] = 1.0
        S2 = np.zeros((n, 4))
        S2[:, 2] = 1.0
        alpha = dense_update_alpha([S1, S2], S1.copy())
        best = alpha_grid_search([S1, S2], S1)
        assert np.max(np.abs(alpha - best)) <= 1e-3 + 1e-9
        assert np.array_equal(alpha, [1.0, 0.0])

    @pytest.mark.parametrize("V", [2, 3])
    def test_matches_grid_search(self, V):
        for seed in range(6):
            gs = random_graph_set(9, 4, V, seed=seed)
            Z = svt(mix_graphs(gs.graphs, np.full(V, 1.0 / V)), 0.05)
            alpha = dense_update_alpha(gs.graphs, Z)
            best = alpha_grid_search(gs.graphs, Z)
            assert np.max(np.abs(alpha - best)) <= 1e-3 + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(V=st.integers(2, 6), rank=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_support_enumeration(self, V, rank, seed):
        # PSD Q of every rank up to V; q pulls toward a simplex point, plus
        # noise from 1e-3 to 1e2, so the optimum may sit on any face (about
        # 1 in 20 draws frees a weight that a pass had zeroed)
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((V, min(rank, V)))
        Q = B @ B.T
        noise = 10.0 ** rng.uniform(-3.0, 2.0)
        q = 2.0 * Q @ rng.dirichlet(np.ones(V)) + noise * rng.standard_normal(V)
        alpha = solver._simplex_qp(Q, q)
        _, want = simplex_qp_by_enumeration(Q, q)
        scale = np.abs(Q).max() + np.abs(q).max()
        assert qp_value(Q, q, alpha) - want <= 1e-12 * max(abs(want), scale)
        assert np.all(alpha >= 0)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        # KKT: equal gradients on the support, none lower off it
        g = 2.0 * Q @ alpha - q
        on = alpha > 0
        lam = g[on].mean()
        assert np.max(np.abs(g[on] - lam)) <= 1e-9 * scale
        assert np.all(g[~on] - lam >= -1e-9 * scale)

class TestObjective:
    def test_zero_everything(self):
        Z = np.zeros((4, 3))
        graphs = [np.zeros((4, 3)), np.zeros((4, 3))]
        gs = AnchorGraphSet(graphs=graphs, k=0)
        cfg = SolverConfig(c=2, beta=0.7, gamma=0.3)
        state = init_state(gs, cfg)
        state.Z = Z
        state.F = np.zeros((4, 2))
        state.G = state.G
        assert objective(state, gs, cfg) == pytest.approx(0.0, abs=1e-15)

    def test_exact_fits_leave_only_nuclear_term(self):
        rng = np.random.default_rng(13)
        G = random_orthonormal(5, 3, seed=14)
        F = np.abs(rng.standard_normal((8, 3)))
        Z = F @ G.T
        gs = AnchorGraphSet(graphs=[Z.copy(), Z.copy()], k=0)
        cfg = SolverConfig(c=3, beta=0.6, gamma=0.9)
        state = init_state(gs, cfg)
        state.Z, state.F, state.G = Z, F, G
        expected = 0.6 * np.linalg.svd(Z, compute_uv=False).sum()
        assert objective(state, gs, cfg) == pytest.approx(expected, rel=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            gs = random_graph_set(7, 4, 3, seed=seed)
            cfg = SolverConfig(c=2, beta=float(rng.uniform(0, 1)),
                               gamma=float(rng.uniform(0, 1)), seed=seed)
            state = init_state(gs, cfg)
            state.Z = rng.standard_normal((7, 4))
            state.F = np.abs(rng.standard_normal((7, 2)))
            state.G = random_orthonormal(4, 2, seed=seed + 99)
            state.alpha = rng.dirichlet(np.ones(3))

            blend = sum(a * S for a, S in zip(state.alpha, gs.graphs))
            by_hand = (
                np.linalg.norm(state.Z - blend, "fro") ** 2
                + cfg.beta * np.linalg.svd(state.Z, compute_uv=False).sum()
                + cfg.gamma * np.linalg.norm(state.Z - state.F @ state.G.T, "fro") ** 2
            )
            got = objective(state, gs, cfg)
            assert got == pytest.approx(by_hand, rel=1e-10)


class TestInitState:
    def test_even_weights(self):
        gs = random_graph_set(6, 3, 2, seed=0)
        state = init_state(gs, SolverConfig(c=2))
        assert np.array_equal(state.alpha, [0.5, 0.5])

    def test_identical_graphs_blend_exactly(self):
        S = random_graph_set(6, 3, 1, seed=1).graphs[0].toarray()
        gs = AnchorGraphSet(graphs=[S, S.copy()], k=0)
        state = init_state(gs, SolverConfig(c=2))
        assert np.array_equal(state.Z.dense(), S)

    def test_orthonormal_G_over_seeds(self):
        gs = random_graph_set(10, 6, 2, seed=2)
        for seed in range(100):
            state = init_state(gs, SolverConfig(c=3, seed=seed))
            dev = np.max(np.abs(state.G.T @ state.G - np.eye(3)))
            assert dev < 1e-12
            assert np.all(state.F >= 0)

    def test_builds_no_sparse_matrix(self, monkeypatch):
        # the graph set holds the CSR graphs and cross-Grams already
        gs = random_graph_set(10, 6, 3, seed=4)

        def refuse(*args, **kwargs):
            raise AssertionError("init_state built a sparse matrix")

        for name in ("csr_array", "csc_array", "coo_array", "hstack", "vstack"):
            monkeypatch.setattr(sp, name, refuse)
        state = init_state(gs, SolverConfig(c=2))
        assert state.alpha.shape == (3,)

    def test_c_above_m_refused(self):
        gs = random_graph_set(6, 2, 2, seed=3)
        with pytest.raises(InvalidParameter, match="need c <= m, got c=3, m=2"):
            init_state(gs, SolverConfig(c=3))


class TestLabelsFromF:
    def test_identity_indicator(self):
        assert np.array_equal(labels_from_F(np.eye(4)), [0, 1, 2, 3])

    def test_tie_goes_to_lowest_index(self):
        assert labels_from_F(np.array([[0.2, 0.2]]))[0] == 0

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(16)
        F = np.abs(rng.standard_normal((40, 5)))
        # naive scan keeping the first maximum
        naive = []
        for i in range(40):
            best, arg = -1.0, 0
            for j in range(5):
                if F[i, j] > best:
                    best, arg = F[i, j], j
            naive.append(arg)
        assert np.array_equal(labels_from_F(F), naive)


class TestFit:
    def test_single_cycle_history(self):
        gs = random_graph_set(10, 4, 2, seed=4)
        res = fit(gs, SolverConfig(c=2, max_iters=1))
        assert res.state.iters_run == 1
        assert len(res.state.objective_history) == 2
        assert not res.converged

    def test_monotone_descent_random_configs(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            gs = random_graph_set(
                20, 5, int(rng.integers(1, 4)), seed=int(rng.integers(1 << 31))
            )
            cfg = SolverConfig(
                c=int(rng.integers(2, 5)),
                beta=float(rng.uniform(0.05, 1.0)),
                gamma=float(10 ** rng.uniform(-5, 0)),
                max_iters=10,
                rel_tol=1e-14,
                seed=trial,
            )
            res = fit(gs, cfg)
            hist = res.state.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_constraints_preserved(self):
        gs = random_graph_set(15, 5, 3, seed=5)
        res = fit(gs, SolverConfig(c=3, max_iters=20, rel_tol=1e-12))
        st_ = res.state
        assert np.all(st_.F >= 0)
        assert np.max(np.abs(st_.G.T @ st_.G - np.eye(3))) < 1e-8
        assert np.all(st_.alpha >= 0)
        assert st_.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constraints_hold_after_every_cycle(self):
        gs = random_graph_set(12, 5, 2, seed=8)
        cfg = SolverConfig(c=3, beta=0.4, gamma=0.2, seed=1)
        state = init_state(gs, cfg)
        state.Z = state.Z.dense()
        for _ in range(10):
            state.F = update_F(state.Z, state.G)
            state.G = update_G(state.Z, state.F, state.G)
            state.Z = dense_update_Z(gs.graphs, state.alpha, state.F, state.G,
                                     cfg.beta, cfg.gamma)
            state.alpha = dense_update_alpha(gs.graphs, state.Z)
            assert np.all(state.F >= 0)
            assert np.max(np.abs(state.G.T @ state.G - np.eye(3))) < 1e-8
            assert np.all(state.alpha >= 0)
            assert state.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        gs = random_graph_set(12, 4, 2, seed=6)
        cfg = SolverConfig(c=2, max_iters=15, seed=3)
        a, b = fit(gs, cfg), fit(gs, cfg)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.state.Z.dense(), b.state.Z.dense())
        assert np.array_equal(a.state.F, b.state.F)
        assert np.array_equal(a.state.G, b.state.G)
        assert np.array_equal(a.state.alpha, b.state.alpha)
        assert a.state.objective_history == b.state.objective_history

    def test_blob_quality(self):
        ds = synth_blobs(300, 3, 2, [5, 8], separation=10, noise=0.1, seed=0)
        gs = build_all(ds, select_anchors(ds, m=10, seed=0), k=3)
        res = fit(gs, SolverConfig(c=3, beta=0.2, gamma=0.1, seed=0))
        assert res.converged
        assert evaluate_all(res.labels, ds.labels)["acc"] >= 0.95

    def test_non_finite_graphs_break(self):
        bad = np.full((5, 3), np.nan)
        gs = AnchorGraphSet(graphs=[bad], k=0)
        with pytest.raises(NumericalBreakdown):
            fit(gs, SolverConfig(c=2))


def fail_at_call(monkeypatch, name, call, outcome):
    """Make solver.<name> raise outcome (an exception) or return it at its
    call-th call; every other call runs the real function."""
    real, calls = getattr(solver, name), []

    def wrapped(*args, **kwargs):
        calls.append(name)
        if len(calls) != call:
            return real(*args, **kwargs)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(solver, name, wrapped)


class TestBreakdown:
    """A LinAlgError or a non-finite objective in any cycle of fit, cycle 0
    included, ends in NumericalBreakdown naming that cycle."""

    CFG = SolverConfig(c=3, beta=0.4, gamma=0.2, max_iters=10, rel_tol=1e-300, seed=1)

    @staticmethod
    def call_of(name, cycle):
        # _objective runs once at cycle 0; the block steps from cycle 1 on
        return cycle + 1 if name == "_objective" else cycle

    @pytest.mark.parametrize("name, cycle", [
        ("update_F", 3), ("update_G", 3), ("update_Z", 3), ("update_alpha", 3),
        ("_objective", 3), ("_objective", 0)])
    def test_linalg_error(self, monkeypatch, name, cycle):
        gs = random_graph_set(12, 5, 2, seed=8)
        error = np.linalg.LinAlgError("SVD did not converge")
        fail_at_call(monkeypatch, name, self.call_of(name, cycle), error)
        message = f"^linear algebra failed at cycle {cycle}: SVD did not converge$"
        with pytest.raises(NumericalBreakdown, match=message):
            fit(gs, self.CFG)

    @pytest.mark.parametrize("cycle", [0, 3])
    def test_nan_objective(self, monkeypatch, cycle):
        gs = random_graph_set(12, 5, 2, seed=8)
        fail_at_call(monkeypatch, "_objective", self.call_of("_objective", cycle), np.nan)
        message = rf"^objective became non-finite at cycle {cycle} \(beta=0.4, gamma=0.2\)$"
        with pytest.raises(NumericalBreakdown, match=message):
            fit(gs, self.CFG)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c=0),
            dict(c=2, beta=-0.1),
            dict(c=2, gamma=-0.1),
            dict(c=2, max_iters=0),
            dict(c=2, rel_tol=0.0),
            dict(c=2, seed=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameter):
            SolverConfig(**kwargs)


def blob_graphs(n=600, c=5, dims=(10, 10), m=25, k=5, seed=0, **blob_kwargs):
    ds = synth_blobs(n=n, c=c, V=len(dims), dims=list(dims), seed=seed, **blob_kwargs)
    return build_all(ds, select_anchors(ds, m=m, seed=seed), k=k)


def assert_matches_dense_reference(result, graphs, cfg):
    """fit keeps Z factored; its run must track the dense reference loop."""
    history, labels, ref = dense_reference_fit(graphs, cfg)
    got = np.asarray(result.state.objective_history)
    assert got.shape == (len(history),)
    # relative to the data scale sum_v ||S_v||^2 where the objective is
    # zero up to rounding (beta = gamma = 0)
    scale = float(np.trace(graphs.Q))
    rel = np.abs(got - history) / np.maximum(np.abs(history), scale)
    assert rel.max() <= 1e-12
    assert np.array_equal(result.labels, labels)
    assert np.max(np.abs(result.state.alpha - ref.alpha)) <= 1e-12


class CsrOnlyGraph(sp.csr_array):
    """A CSR anchor graph that refuses to be densified."""

    def toarray(self, *args, **kwargs):
        raise AssertionError("the solver densified an n x m anchor graph")

    todense = toarray


class TestFactoredFit:
    """fit against the dense reference loop built from update_F/G/Z/alpha
    and objective()."""

    def test_acceptance_blob_runs(self):
        # criteria 3 and 4 of the acceptance suite
        ds = synth_blobs(n=1000, c=5, V=2, dims=[10, 10], seed=0)
        gs = build_all(ds, select_anchors(ds, m=25, seed=0), k=5)
        cfg = SolverConfig(c=5, rel_tol=1e-6, max_iters=200, seed=0)
        assert_matches_dense_reference(fit(gs, cfg), gs, cfg)
        ds = synth_blobs(n=300, c=3, V=2, dims=[5, 8], separation=10, noise=0.1, seed=0)
        gs = build_all(ds, select_anchors(ds, m=10, seed=0), k=3)
        cfg = SolverConfig(c=3, beta=0.2, gamma=0.1, seed=0)
        assert_matches_dense_reference(fit(gs, cfg), gs, cfg)

    def test_acceptance_random_configs(self):
        # the first 20 runs of acceptance criterion 1
        rng = np.random.default_rng(2024)
        for run in range(20):
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
            assert_matches_dense_reference(fit(gs, cfg), gs, cfg)

    def test_four_views(self):
        gs = blob_graphs(n=800, c=6, dims=(8, 8, 8, 8), m=40, seed=3, noise=2.0)
        cfg = SolverConfig(c=6, seed=3)
        assert_matches_dense_reference(fit(gs, cfg), gs, cfg)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.1), (0.3, 0.0), (0.0, 0.0)])
    def test_no_threshold_or_no_factor_term(self, beta, gamma):
        # beta = 0 gives tau = 0, so Z = M with no thresholding
        gs = blob_graphs(seed=1)
        cfg = SolverConfig(c=5, beta=beta, gamma=gamma, seed=1)
        assert_matches_dense_reference(fit(gs, cfg), gs, cfg)

    def test_more_clusters_than_anchors(self):
        # G cannot have c orthonormal columns in R^m; c = m still fits
        gs = random_graph_set(40, 6, 2, seed=5)
        with pytest.raises(InvalidParameter, match="need c <= m, got c=7, m=6"):
            fit(gs, SolverConfig(c=7))
        cfg = SolverConfig(c=6, max_iters=30, seed=5)
        assert_matches_dense_reference(fit(gs, cfg), gs, cfg)

    def test_single_view(self):
        for seed in range(5):
            S = random_stochastic(30, 6, seed=seed)
            cfg = SolverConfig(c=3, beta=0.3, gamma=0.1, max_iters=40, seed=seed)
            graphs = AnchorGraphSet(graphs=[S], k=0)
            result = fit(graphs, cfg)
            assert_matches_dense_reference(result, graphs, cfg)
            assert np.array_equal(result.state.alpha, [1.0])

    def test_state_keeps_Z_factored(self):
        # SolverState is a plain record: reading Z builds nothing, and
        # objective() densifies a FactoredZ itself
        gs = blob_graphs(seed=4)
        cfg = SolverConfig(c=5, max_iters=5, seed=4)
        state = fit(gs, cfg).state
        assert isinstance(state.Z, solver.FactoredZ)
        assert not any(isinstance(v, property) for v in vars(solver.SolverState).values())
        assert objective(state, gs, cfg) == pytest.approx(state.objective_history[-1],
                                                          rel=1e-10)

    def test_threshold_cuts_every_singular_value(self):
        gs = blob_graphs(seed=2)
        cfg = SolverConfig(c=5, beta=1e3, seed=2)
        result = fit(gs, cfg)
        assert_matches_dense_reference(result, gs, cfg)
        Z = result.state.Z.dense()
        assert not Z.any()
        assert not np.signbit(Z).any()
        assert not result.state.F.any()

    @pytest.mark.parametrize("beta, gamma", [(0.3, 0.1), (0.0, 0.1), (0.5, 0.0)])
    def test_one_transpose_product_per_cycle(self, monkeypatch, beta, gamma):
        # the G step's S_v^T F is the one the Z step uses
        gs = blob_graphs(seed=3)
        cfg = SolverConfig(c=5, beta=beta, gamma=gamma, max_iters=12, seed=3)
        calls = []
        each_t_times = AnchorGraphSet.each_t_times

        def counting(self, Y):
            calls.append(Y.shape)
            return each_t_times(self, Y)

        monkeypatch.setattr(AnchorGraphSet, "each_t_times", counting)
        init_state(gs, cfg)
        at_init = len(calls)
        calls.clear()
        result = fit(gs, cfg)
        assert result.state.iters_run > 1
        assert len(calls) == at_init + result.state.iters_run

    def test_csr_only_graphs_never_densified(self):
        # n x m float64 is 16 MB here; the factored loop stays well below
        gs = blob_graphs(n=20000, dims=(6, 6), m=100, k=3)
        n, m = gs.n, gs.m
        csr = AnchorGraphSet(graphs=[CsrOnlyGraph(S) for S in gs.graphs], k=3)
        cfg = SolverConfig(c=5, max_iters=10)
        tracemalloc.start()
        try:
            got = fit(csr, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8
        want = fit(gs, cfg)
        assert got.state.objective_history == want.state.objective_history
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.state.alpha, want.state.alpha)

    @pytest.mark.parametrize("tau", [1e-6, 1e-4, 1e-2, 0.3])
    def test_gram_route_matches_lapack_on_graded_spectra(self, tau):
        # singular values 1e0 .. 1e-12; the Gram route resolves sigma only
        # down to about sqrt(eps) sigma_max, so tau stays above 1e-8
        worst = np.zeros(3)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n, m = 50, 13
            U, _ = np.linalg.qr(rng.standard_normal((n, m)))
            W, _ = np.linalg.qr(rng.standard_normal((m, m)))
            M = (U * np.logspace(0, -12, m)) @ W.T
            F = np.abs(rng.standard_normal((n, 3)))
            G = random_orthonormal(m, 3, seed=trial)
            Z = update_Z(AnchorGraphSet(graphs=[M], k=0), np.ones(1), F, G, 2.0 * tau, 0.0)
            s = np.linalg.svd(M, compute_uv=False)
            kept = np.maximum(s - tau, 0.0)
            worst = np.maximum(worst, [
                abs(Z.nuclear_norm() - kept.sum()) / kept.sum(),
                abs(np.sum((Z.sigma - tau) ** 2) - np.sum(kept**2)) / np.sum(kept**2),
                abs(Z.res_sq - np.sum(np.minimum(s, tau) ** 2)) / np.sum(s**2),
            ])
        # bounds pinned at the worst errors measured over these trials
        # (2.5e-11 at tau = 1e-6, 1.4e-15, 4.4e-16)
        assert worst[0] <= 3e-11  # sum(sigma - tau), relative
        assert worst[1] <= 2e-15  # sum((sigma - tau)^2), relative
        assert worst[2] <= 1e-15  # sum(min(sigma, tau)^2), relative to ||M||^2
