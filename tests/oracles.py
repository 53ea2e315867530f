"""Independent reference implementations used to cross-check the library.

Everything here recomputes results by brute force or by a visibly
different route (enumeration, grids, triple loops) and must stay free of
calls into the code paths under test.
"""

import itertools

import numpy as np

from anchorclust.anchors import AnchorGraphSet
from anchorclust.solver import (
    SolverState,
    objective,
    update_alpha,
    update_F,
    update_G,
    update_Z,
)


def random_orthonormal(m, c, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, c)))
    return Q


def random_stochastic(n, m, seed, sparsity=3.0):
    rng = np.random.default_rng(seed)
    S = rng.random((n, m)) ** sparsity
    return S / S.sum(axis=1, keepdims=True)


def random_graph_set(n, m, V, seed, sparsity=3.0):
    return AnchorGraphSet(
        graphs=[random_stochastic(n, m, seed * 1000 + v, sparsity) for v in range(V)],
        k=0,
    )


def kkt_residual(M, tau, Z):
    """Optimality check for min 0.5||Z-M||^2 + tau||Z||_*: on Z's positive
    singular subspace M - Z must equal tau * U1 V1^T; orthogonal to it the
    spectral norm of M - Z may not exceed tau."""
    U, s, Vt = np.linalg.svd(Z)
    r = int((s > 1e-8).sum())
    R = M - Z
    if r:
        on = np.max(np.abs(U[:, :r].T @ R @ Vt[:r].T - tau * np.eye(r)))
    else:
        on = 0.0
    Pl = np.eye(M.shape[0]) - U[:, :r] @ U[:, :r].T
    Pr = np.eye(M.shape[1]) - Vt[:r].T @ Vt[:r]
    off = np.linalg.norm(Pl @ R @ Pr, 2)
    return on, off


def alpha_grid_search(graphs, Z, step=1e-3):
    """Exhaustive minimizer of the view-weight objective on a simplex grid."""
    V = len(graphs)
    flat = np.stack([S.ravel() for S in graphs])
    Q = flat @ flat.T
    q = 2.0 * (flat @ Z.ravel())
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if V == 2:
        pts = np.stack([ticks, 1.0 - ticks], axis=1)
    elif V == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        pts = np.stack([a[mask], b[mask], 1.0 - a[mask] - b[mask]], axis=1)
    else:
        raise ValueError("grid oracle supports V in (2, 3)")
    vals = np.einsum("ki,ij,kj->k", pts, Q, pts) - pts @ q
    return pts[np.argmin(vals)]


def accuracy_by_permutation(pred, truth):
    """Brute force: best match rate over all mappings of predicted cluster
    ids onto a padded id set."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    p_ids = np.unique(pred)
    t_ids = np.unique(truth)
    side = max(len(p_ids), len(t_ids))
    target = {tid: j for j, tid in enumerate(t_ids)}
    best = 0
    for perm in itertools.permutations(range(side)):
        mapping = {pid: perm[i] for i, pid in enumerate(p_ids)}
        hits = sum(1 for p, t in zip(pred, truth) if mapping[p] == target[t])
        best = max(best, hits)
    return best / len(pred)


def pair_counts_by_enumeration(pred, truth):
    """O(n^2) loop over unordered pairs."""
    n = len(pred)
    tp = pred_pairs = true_pairs = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            pred_pairs += same_p
            true_pairs += same_t
            tp += same_p and same_t
    return int(tp), int(pred_pairs), int(true_pairs), int(total)


def ari_from_counts(tp, pred_pairs, true_pairs, total):
    if pred_pairs == true_pairs and (pred_pairs == 0 or pred_pairs == total):
        return 1.0
    expected = pred_pairs * true_pairs / total
    max_index = (pred_pairs + true_pairs) / 2
    return (tp - expected) / (max_index - expected)


def naive_reconstruction(S):
    """Triple loop over B_{il} = sum_j S_ij S_lj / D_j."""
    n, m = S.shape
    D = S.sum(axis=0)
    B = np.zeros((n, n))
    for i in range(n):
        for l in range(n):
            for j in range(m):
                if D[j] > 0:
                    B[i, l] += S[i, j] * S[l, j] / D[j]
    return B


def dense_reference_fit(graphs, config):
    """fit's cycle replayed on dense n x m matrices with the public block
    updates (update_F/G/Z/alpha) and objective(), from fit's initial draw;
    a single view keeps alpha = [1.0]. Returns (objective history, labels,
    final state)."""
    S_list = [np.asarray(S, dtype=np.float64) for S in graphs.graphs]
    V, (n, m), c = len(S_list), S_list[0].shape, config.c
    alpha = np.full(V, 1.0 / V)
    rng = np.random.default_rng(config.seed)
    F = np.abs(rng.standard_normal((n, c)))
    basis, _ = np.linalg.qr(rng.standard_normal((m, min(c, m))))
    G = np.zeros((m, c))
    G[:, : basis.shape[1]] = basis
    Z = sum(a * S for a, S in zip(alpha, S_list))
    dense = AnchorGraphSet(graphs=S_list, k=graphs.k)
    state = SolverState(Z=Z, F=F, G=G, alpha=alpha)
    history = [objective(state, dense, config)]
    for _ in range(config.max_iters):
        state.F = update_F(state.Z, state.G)
        state.G = update_G(state.Z, state.F)
        state.Z = update_Z(S_list, state.alpha, state.F, state.G,
                           config.beta, config.gamma)
        if V > 1:
            state.alpha = update_alpha(S_list, state.Z)
        history.append(objective(state, dense, config))
        if abs(history[-1] - history[-2]) / max(history[-2], 1e-12) < config.rel_tol:
            break
    return history, np.argmax(state.F, axis=1), state
