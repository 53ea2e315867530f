"""Independent reference implementations used to cross-check the library.

Everything here recomputes results by brute force or by a visibly
different route (enumeration, grids, triple loops, dense n x m matrices)
and must stay free of calls into the code paths under test, with three
exceptions:

- dense_update_alpha forms the view-weight QP densely and hands it to
  the package's QP solve, which simplex_qp_by_enumeration checks on its
  own;
- dense_anchor_graph takes the package's distances, so that it pins how
  the build stores the graph, tie order included;
- dense_reference_fit runs the package's update_F, update_G,
  SolverState and objective beside its own dense Z and alpha steps, so
  it checks the factored Z, alpha and objective paths, not the F and G
  steps.

random_graph_set only wraps its graphs in the package's AnchorGraphSet.
Graphs may be passed dense or sparse; they are made dense on reading.
"""

import itertools

import numpy as np
import scipy.sparse as sp

from anchorclust.anchors import AnchorGraphSet, _sq_dists
from anchorclust.errors import InvalidParameter
from anchorclust.solver import (
    SolverState,
    _simplex_qp,
    objective,
    update_F,
    update_G,
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


def dense(S):
    """A graph as a dense array, whether it is stored sparse or dense."""
    return S.toarray() if sp.issparse(S) else np.asarray(S, dtype=np.float64)


def mix_graphs(graphs, alpha):
    """Weighted sum of the per-view graphs, as a dense array."""
    Z = alpha[0] * dense(graphs[0])
    for a, S in zip(alpha[1:], graphs[1:]):
        Z += a * dense(S)
    return Z


def dense_anchor_graph(X, anchors, k):
    """The anchor graph as a dense n x m array, filled by put_along_axis
    from the stable distance order: the reference for the CSR build."""
    d2 = _sq_dists(X, anchors)
    order = np.argsort(d2, axis=1, kind="stable")
    phi = np.take_along_axis(d2, order, axis=1)
    top, phi_kp1 = phi[:, :k], phi[:, k]
    den = k * phi_kp1 - top.sum(axis=1)
    degenerate = den <= 0.0
    weights = (phi_kp1[:, None] - top) / np.where(degenerate, 1.0, den)[:, None]
    weights[degenerate] = 1.0 / k
    S = np.zeros((X.shape[0], anchors.shape[0]))
    np.put_along_axis(S, order[:, :k], weights, axis=1)
    return S


def best_column_permutation(S0, S):
    """Brute force over all m! column orders of S (m <= 6): the perm with
    the largest sum_j <S0[:, j], S[:, perm[j]]>, from dense column dot
    products, and that trace."""
    S0, S = dense(S0), dense(S)
    m = S.shape[1]
    if m > 6:
        raise ValueError("permutation oracle supports m <= 6")
    dots = np.array([[S0[:, i] @ S[:, j] for j in range(m)] for i in range(m)])
    best = max(itertools.permutations(range(m)),
               key=lambda perm: sum(dots[j, perm[j]] for j in range(m)))
    return np.array(best), sum(dots[j, best[j]] for j in range(m))


def lloyd_bincount_centers(X, assign, m):
    """Cluster means by one weighted bincount per column, the loop Lloyd's
    update ran before the one-hot product; an empty cluster gets a zero row."""
    counts = np.bincount(assign, minlength=m).astype(np.float64)
    centers = np.stack(
        [np.bincount(assign, weights=X[:, d], minlength=m) for d in range(X.shape[1])],
        axis=1,
    )
    nonempty = counts > 0
    centers[nonempty] /= counts[nonempty, None]
    return centers


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


def svt(M, tau):
    """Singular value thresholding, the proximal operator of tau * ||.||_*:
    minimizes 0.5 ||Z - M||_F^2 + tau ||Z||_*. The SVD is taken through an
    eigendecomposition of the small Gram matrix, with the arithmetic of
    FactoredZ.dense."""
    if tau < 0:
        raise InvalidParameter(f"tau must be >= 0, got {tau}")
    M = np.asarray(M, dtype=np.float64)
    if tau == 0.0:
        return M.copy()
    transposed = M.shape[0] < M.shape[1]
    A = M.T if transposed else M
    lam, V = np.linalg.eigh(A.T @ A)
    sigma = np.sqrt(np.clip(lam, 0.0, None))
    keep = sigma > tau
    if not keep.any():
        return np.zeros_like(M)
    V, sigma = V[:, keep], sigma[keep]
    Z = ((A @ V) / sigma * (sigma - tau)) @ V.T
    return Z.T if transposed else Z


def dense_update_Z(graphs, alpha, F, G, beta, gamma):
    """The Z block on dense copies of the graphs: SVT of the blended target."""
    M = mix_graphs(graphs, alpha)
    if gamma != 0.0:
        M = (M + gamma * (F @ G.T)) / (1.0 + gamma)
    return svt(M, beta / (2.0 * (1.0 + gamma)))


def dense_update_alpha(graphs, Z):
    """The alpha block on dense copies of the graphs and a dense Z: the
    QP's Q and q formed from the flattened matrices, solved by the
    package's QP."""
    flat = np.stack([dense(S).ravel() for S in graphs])
    return _simplex_qp(flat @ flat.T, 2.0 * (flat @ np.asarray(Z).ravel()))


def simplex_qp_by_enumeration(Q, q):
    """min a^T Q a - a^T q on the simplex by solving the KKT system
    [2 Q_ss, -c 1; c 1^T, 0] [a_s; lambda / c] = [q_s; c] on every one of
    the 2^V - 1 supports s (least squares where it is singular; c scales
    the border to Q) and keeping the best non-negative solution. A
    minimizer of smallest support has a non-singular system, so it is
    among the candidates."""
    V = q.size
    c = 2.0 * np.abs(Q).max() or 1.0
    best, best_val = None, np.inf
    for size in range(1, V + 1):
        for support in itertools.combinations(range(V), size):
            s = list(support)
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = 2.0 * Q[np.ix_(s, s)]
            K[:size, size] = -c
            K[size, :size] = c
            sol = np.linalg.lstsq(K, np.append(q[s], c), rcond=None)[0]
            if np.any(sol[:size] < 0):
                continue
            a = np.zeros(V)
            a[s] = sol[:size]
            val = float(a @ Q @ a - a @ q)
            if val < best_val:
                best, best_val = a, val
    return best, best_val


def alpha_grid_search(graphs, Z, step=1e-3):
    """Exhaustive minimizer of the view-weight objective on a simplex grid."""
    V = len(graphs)
    flat = np.stack([dense(S).ravel() for S in graphs])
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
    """fit's cycle replayed on dense n x m matrices with update_F/G,
    dense_update_Z/alpha and objective(), from fit's initial draw;
    a single view keeps alpha = [1.0]. Returns (objective history, labels,
    final state)."""
    S_list = [dense(S) for S in graphs.graphs]
    V, (n, m), c = len(S_list), S_list[0].shape, config.c
    alpha = np.full(V, 1.0 / V)
    rng = np.random.default_rng(config.seed)
    F = np.abs(rng.standard_normal((n, c)))
    G, _ = np.linalg.qr(rng.standard_normal((m, c)))
    Z = sum(a * S for a, S in zip(alpha, S_list))
    state = SolverState(Z=Z, F=F, G=G, alpha=alpha)
    history = [objective(state, graphs, config)]
    for _ in range(config.max_iters):
        state.F = update_F(state.Z, state.G)
        state.G = update_G(state.Z, state.F, state.G)
        state.Z = dense_update_Z(S_list, state.alpha, state.F, state.G,
                                 config.beta, config.gamma)
        if V > 1:
            state.alpha = dense_update_alpha(S_list, state.Z)
        history.append(objective(state, graphs, config))
        if abs(history[-1] - history[-2]) / max(history[-2], 1e-12) < config.rel_tol:
            break
    return history, np.argmax(state.F, axis=1), state
