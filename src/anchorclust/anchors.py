"""Anchor selection and normalized k-NN anchor graph construction.

Anchors are per-view k-means centers; above SAMPLE_PER_ANCHOR * m rows,
k-means runs on a sample of the rows and is finished on all of them. A
graph row spreads unit mass over the k nearest anchors of a sample: with
phi the squared Euclidean distance and phi_(1) <= ... <= phi_(k+1) the
sorted anchor distances of a row,

    weight of the j-th nearest anchor
        = (phi_(k+1) - phi_(j)) / (k * phi_(k+1) - sum_{h<=k} phi_(h))

so the (k+1)-th neighbour acts as a local bandwidth and each row sums to
one by construction. When all k+1 nearest anchors are equidistant the
ratio is 0/0; the limit assigns uniform weight 1/k over the k nearest,
which is what we do.

Each view's k-means runs on its own, so anchor j of one view and anchor
j of another are unrelated centres. build_all therefore permutes the
graph columns of each view v >= 1 to best match view 0's: perms[v]
maximizes tr(S_0^T S_v[:, perms[v]]) (Wang et al., "Align then Fusion",
NeurIPS 2022), the assignment module's solution on the m x m product
S_0^T S_v of the graphs as built. View 0 keeps its order, so the
consensus graph's columns follow view 0's anchors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assignment import min_cost_assignment
from .dataset import MultiViewDataset
from .errors import (
    DegenerateRowWarning,
    DegenerateViewWarning,
    InvalidParameter,
    ShapeMismatch,
)


@dataclass(frozen=True)
class AnchorSet:
    """Per-view anchor matrices of common anchor count m."""

    anchors: list[np.ndarray]
    m: int
    kmeans_iters_used: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParameter(f"m must be >= 1, got {self.m}")
        for i, C in enumerate(self.anchors):
            if C.shape[0] != self.m:
                raise ShapeMismatch(
                    f"anchor matrix {i} has {C.shape[0]} rows, expected m={self.m}"
                )
            if not np.isfinite(C).all():
                raise InvalidParameter(f"anchor matrix {i} has non-finite rows")


class AnchorGraphSet:
    """V n x m row-stochastic sample-to-anchor graphs (dense ones are
    converted to CSR), stored once, as the CSR block row H = [S_1 ... S_V]
    (n x Vm); products with H^T go through H.T, a CSC view of its arrays.
    Built with them: the cross-Grams C[v, u] = S_v^T S_u (m x m) and
    Q_vu = <S_v, S_u>_F = tr(C[v, u]), which the solver reads. Column j of
    S_v is anchor row perms[v, j] of view v: build_all's, or by default the
    identity. Only __init__ sets H, C, Q and perms."""

    def __init__(self, graphs: list, k: int, perms: np.ndarray | None = None):
        if not graphs:
            raise InvalidParameter("graph set needs at least one graph")
        graphs = [S if isinstance(S, sp.csr_array) else sp.csr_array(S)
                  for S in graphs]
        n, m = graphs[0].shape
        for i, S in enumerate(graphs):
            if S.shape != (n, m):
                raise ShapeMismatch(
                    f"graph {i} has shape {S.shape}, expected {(n, m)}"
                )
        V = self.num_views = len(graphs)
        self.k = k
        self.H = sp.hstack(graphs, format="csr")
        C = (self.H.T @ self.H).toarray().reshape(V, m, V, m)
        self.C = np.ascontiguousarray(C.transpose(0, 2, 1, 3))
        self.Q = np.einsum("vuii->vu", self.C)
        self.perms = np.tile(np.arange(m), (V, 1)) if perms is None else perms

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.H.shape[1] // self.num_views

    @property
    def graphs(self) -> list:
        """The V graphs S_v as CSR, sliced from H's column blocks."""
        m = self.m
        return [self.H[:, v * m:(v + 1) * m] for v in range(self.num_views)]

    def mix_times(self, alpha: np.ndarray, X: np.ndarray) -> np.ndarray:
        """(sum_v alpha_v S_v) X for an m x c block X."""
        return self.H @ (alpha[:, None, None] * X).reshape(-1, X.shape[1])

    def each_t_times(self, Y: np.ndarray) -> np.ndarray:
        """The V products S_v^T Y of an n x c block Y, as a V x m x c array."""
        return (self.H.T @ Y).reshape(self.num_views, self.m, Y.shape[1])

    def mixture(self, alpha: np.ndarray) -> np.ndarray:
        """sum_v alpha_v S_v as a dense n x m array; the only place the
        graphs are made dense."""
        return self.mix_times(alpha, np.eye(self.m))


def _sq_dists(X: np.ndarray, C: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances, clipped at zero, in one n x m
    array: x2 - 2 X C^T + c2 as (-2 X C^T + x2) + c2, the same roundings.
    x2, the squared row norms of X, may be passed in when X is reused."""
    if x2 is None:
        x2 = np.sum(X * X, axis=1)
    d2 = X @ C.T
    d2 *= -2.0
    d2 += x2[:, None]
    d2 += np.sum(C * C, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _cluster_means(X: np.ndarray, assign: np.ndarray, m: int):
    """Mean of the rows of X in each of m clusters (a zero row for an empty
    one) and the mask of non-empty clusters. The sums are the m x n one-hot
    matrix times X: each CSR row lists its samples in ascending order, so
    every sum adds the same rows in the same order from 0.0 as a bincount
    per column."""
    n = X.shape[0]
    counts = np.bincount(assign, minlength=m).astype(np.float64)
    onehot = sp.csr_array((np.ones(n), (assign, np.arange(n))), shape=(m, n))
    means = onehot @ X
    nonempty = counts > 0
    means[nonempty] /= counts[nonempty, None]
    return means, nonempty


def _kmeans_pp_init(X, m, rng, x2):
    """k-means++ seeding; returns (centers, degenerate_flag). x2 holds the
    squared row norms of X."""
    n = X.shape[0]
    centers = np.empty((m, X.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = X[idx]
    d2 = _sq_dists(X, centers[0:1], x2)[:, 0]
    degenerate = False
    for j in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            # fewer distinct rows than centers; reuse an arbitrary row
            degenerate = True
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = X[idx]
        d2 = np.minimum(d2, _sq_dists(X, centers[j : j + 1], x2)[:, 0])
    return centers, degenerate


# Above SAMPLE_PER_ANCHOR * m rows, k-means seeds and converges on a
# sample of that many rows and then runs FULL_PASSES Lloyd iterations on
# all rows, as LMVSC (Kang et al., AAAI 2020) takes anchors from a sample:
# full k-means costs O(n m d) per iteration for up to max_iters, and the
# timings and NMI behind these constants are in README.md.
SAMPLE_PER_ANCHOR = 50
FULL_PASSES = 5
# Names the rule above in the anchor cache's key, so that entries another
# rule wrote miss.
ANCHOR_RULE = f"k-means++ on {SAMPLE_PER_ANCHOR}*m rows, {FULL_PASSES} passes on all"


def _lloyd(X, centers, x2, max_iters):
    """Up to max_iters Lloyd iterations from centers, stopping when neither
    the assignment nor the centers change. Empty clusters are reseeded to
    the point currently farthest from its own center. Returns (centers,
    iterations_run)."""
    n, m = X.shape[0], centers.shape[0]
    assign = None
    iters = 0
    for iters in range(1, max_iters + 1):
        d2 = _sq_dists(X, centers, x2)
        new_assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        new_centers, nonempty = _cluster_means(X, new_assign, m)
        for j in np.nonzero(~nonempty)[0]:
            far = int(np.argmax(point_d2))
            new_centers[j] = X[far]
            point_d2[far] = 0.0
        moved = not np.array_equal(new_centers, centers)
        same_assign = assign is not None and np.array_equal(new_assign, assign)
        centers, assign = new_centers, new_assign
        if same_assign and not moved:
            break
    return centers, iters


def kmeans(X: np.ndarray, m: int, rng, max_iters: int = 100):
    """Lloyd k-means with k-means++ seeding, on all n rows of X up to
    SAMPLE_PER_ANCHOR * m rows. Above that, seeding and up to max_iters
    Lloyd iterations run on that many rows drawn without replacement (in
    row order), then FULL_PASSES Lloyd iterations on all rows.

    Returns (centers, iterations_run, degenerate_flag); the iterations
    count both stages, and the flag says that X has fewer than m distinct
    rows, so that duplicate centers were kept.
    """
    n = X.shape[0]
    if not (1 <= m <= n):
        raise InvalidParameter(f"need 1 <= m <= n, got m={m}, n={n}")
    x2 = np.sum(X * X, axis=1)
    size = SAMPLE_PER_ANCHOR * m
    if n <= size:
        centers, degenerate = _kmeans_pp_init(X, m, rng, x2)
        centers, iters = _lloyd(X, centers, x2, max_iters)
        return centers, iters, degenerate
    rows = np.sort(rng.choice(n, size=size, replace=False))
    centers, degenerate = _kmeans_pp_init(X[rows], m, rng, x2[rows])
    centers, sample_iters = _lloyd(X[rows], centers, x2[rows], max_iters)
    centers, iters = _lloyd(X, centers, x2, FULL_PASSES)
    # a sample can miss a rare row, so the view itself decides
    degenerate = degenerate and np.unique(X, axis=0).shape[0] < m
    return centers, sample_iters + iters, degenerate


def select_anchors(
    ds: MultiViewDataset, m: int, seed: int = 0, max_iters: int = 100
) -> AnchorSet:
    """Run k-means independently per view; the centers are the anchors."""
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    anchors, iters_used = [], 0
    for v, X in enumerate(ds.views):
        centers, iters, degenerate = kmeans(X, m, rng, max_iters=max_iters)
        if degenerate:
            warnings.warn(
                f"view '{ds.view_names[v]}' has fewer than m={m} distinct "
                "rows; duplicate anchors were kept",
                DegenerateViewWarning,
                stacklevel=2,
            )
        anchors.append(centers)
        iters_used = max(iters_used, iters)
    return AnchorSet(anchors=anchors, m=m, kmeans_iters_used=iters_used)


def _nearest(d2: np.ndarray, q: int):
    """Column indices and values of the q smallest entries of each row of
    d2, in stable-argsort order: by value, then by index. argpartition
    picks q candidates per row; a row with more than q entries at or below
    its q-th smallest value has ties that decide which columns are kept,
    so that row alone is sorted whole."""
    order = np.argpartition(d2, q - 1, axis=1)[:, :q]
    order.sort(axis=1)
    phi = np.take_along_axis(d2, order, axis=1)
    by_value = np.argsort(phi, axis=1, kind="stable")
    order = np.take_along_axis(order, by_value, axis=1)
    phi = np.take_along_axis(phi, by_value, axis=1)
    for row in np.flatnonzero(np.count_nonzero(d2 <= phi[:, -1:], axis=1) > q):
        order[row] = np.argsort(d2[row], kind="stable")[:q]
        phi[row] = d2[row, order[row]]
    return order, phi


def build_anchor_graph(X: np.ndarray, anchors: np.ndarray, k: int) -> sp.csr_array:
    """Normalized k-NN anchor graph of one view (see module docstring), as
    CSR with sorted column indices and no stored zeros."""
    X = np.asarray(X, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.shape[1:] != X.shape[1:]:
        raise ShapeMismatch(
            f"anchors of shape {anchors.shape} for samples of shape {X.shape}"
        )
    n, m = X.shape[0], anchors.shape[0]
    if not (1 <= k <= m - 1):
        raise InvalidParameter(
            f"need 1 <= k <= m-1 (the k+1 nearest anchor sets the "
            f"bandwidth), got k={k}, m={m}"
        )
    order, phi = _nearest(_sq_dists(X, anchors), k + 1)
    phi_kp1 = phi[:, k]
    top = phi[:, :k]
    den = k * phi_kp1 - top.sum(axis=1)
    degenerate = den <= 0.0
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} row(s) have k+1 equidistant nearest "
            "anchors; assigned uniform 1/k weights",
            DegenerateRowWarning,
            stacklevel=2,
        )
    den_safe = np.where(degenerate, 1.0, den)
    weights = (phi_kp1[:, None] - top) / den_safe[:, None]
    weights[degenerate] = 1.0 / k

    indptr = np.arange(0, n * k + 1, k)
    S = sp.csr_array((weights.ravel(), order[:, :k].ravel(), indptr), shape=(n, m))
    S.sort_indices()
    S.eliminate_zeros()
    return S


def build_all(ds: MultiViewDataset, anchor_set: AnchorSet, k: int) -> AnchorGraphSet:
    """Anchor graph per view, the columns of view v >= 1 permuted by the
    assignment on -S_0^T S_v; the set of these. O(n*m*d) after k-means."""
    if len(anchor_set.anchors) != ds.num_views:
        raise ShapeMismatch(
            f"{len(anchor_set.anchors)} anchor matrices for {ds.num_views} views"
        )
    graphs = [build_anchor_graph(X, C, k) for X, C in zip(ds.views, anchor_set.anchors)]
    perms = np.tile(np.arange(anchor_set.m), (len(graphs), 1))
    for v in range(1, len(graphs)):
        perms[v] = min_cost_assignment(-(graphs[0].T @ graphs[v]).toarray())
        graphs[v] = graphs[v][:, perms[v]]
        graphs[v].sort_indices()
    return AnchorGraphSet(graphs, k, perms)
