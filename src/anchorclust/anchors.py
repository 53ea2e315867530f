"""Anchor selection and normalized k-NN anchor graph construction.

Anchors are per-view k-means centers. A graph row spreads unit mass over
the k nearest anchors of a sample: with phi the squared Euclidean distance
and phi_(1) <= ... <= phi_(k+1) the sorted anchor distances of a row,

    weight of the j-th nearest anchor
        = (phi_(k+1) - phi_(j)) / (k * phi_(k+1) - sum_{h<=k} phi_(h))

so the (k+1)-th neighbour acts as a local bandwidth and each row sums to
one by construction. When all k+1 nearest anchors are equidistant the
ratio is 0/0; the limit assigns uniform weight 1/k over the k nearest,
which is what we do.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset as dataset_mod
from .dataset import MultiViewDataset
from .errors import (
    DegenerateRowWarning,
    DegenerateViewWarning,
    InvalidParameter,
    IoError,
    MalformedMeta,
    ShapeMismatch,
)

ANCHOR_KEY_FILE = "anchor_key.json"


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


@dataclass(frozen=True)
class AnchorGraphSet:
    """V dense n x m row-stochastic sample-to-anchor graphs."""

    graphs: list[np.ndarray]
    k: int

    def __post_init__(self):
        if not self.graphs:
            raise InvalidParameter("graph set needs at least one graph")
        n, m = self.graphs[0].shape
        for i, S in enumerate(self.graphs):
            if S.shape != (n, m):
                raise ShapeMismatch(
                    f"graph {i} has shape {S.shape}, expected {(n, m)}"
                )

    @property
    def n(self) -> int:
        return self.graphs[0].shape[0]

    @property
    def m(self) -> int:
        return self.graphs[0].shape[1]

    @property
    def num_views(self) -> int:
        return len(self.graphs)


def _sq_dists(X: np.ndarray, C: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances, clipped at zero. x2, the
    squared row norms of X, may be passed in when X is reused."""
    if x2 is None:
        x2 = np.sum(X * X, axis=1)
    d2 = x2[:, None] - 2.0 * (X @ C.T) + np.sum(C * C, axis=1)[None, :]
    return np.maximum(d2, 0.0)


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


def kmeans(X: np.ndarray, m: int, rng, max_iters: int = 100):
    """Lloyd k-means with k-means++ seeding.

    Empty clusters are reseeded to the point currently farthest from its
    own center. Returns (centers, iterations_run, degenerate_flag).
    """
    n = X.shape[0]
    if not (1 <= m <= n):
        raise InvalidParameter(f"need 1 <= m <= n, got m={m}, n={n}")
    x2 = np.sum(X * X, axis=1)
    centers, degenerate = _kmeans_pp_init(X, m, rng, x2)
    assign = None
    iters = 0
    for iters in range(1, max_iters + 1):
        d2 = _sq_dists(X, centers, x2)
        new_assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        counts = np.bincount(new_assign, minlength=m).astype(np.float64)
        new_centers = np.stack(
            [
                np.bincount(new_assign, weights=X[:, dim], minlength=m)
                for dim in range(X.shape[1])
            ],
            axis=1,
        )
        nonempty = counts > 0
        new_centers[nonempty] /= counts[nonempty, None]
        for j in np.nonzero(~nonempty)[0]:
            far = int(np.argmax(point_d2))
            new_centers[j] = X[far]
            point_d2[far] = 0.0
        moved = not np.array_equal(new_centers, centers)
        same_assign = assign is not None and np.array_equal(new_assign, assign)
        centers, assign = new_centers, new_assign
        if same_assign and not moved:
            break
    return centers, iters, degenerate


def select_anchors(
    ds: MultiViewDataset, m: int, seed: int = 0, max_iters: int = 100
) -> AnchorSet:
    """Run k-means independently per view; the centers are the anchors."""
    if not (1 <= m <= ds.n):
        raise InvalidParameter(f"need 1 <= m <= n, got m={m}, n={ds.n}")
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


def build_anchor_graph(X: np.ndarray, anchors: np.ndarray, k: int) -> np.ndarray:
    """Normalized k-NN anchor graph of one view (see module docstring)."""
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
    d2 = _sq_dists(X, anchors)
    order = np.argsort(d2, axis=1, kind="stable")
    phi = np.take_along_axis(d2, order, axis=1)

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

    S = np.zeros((n, m))
    np.put_along_axis(S, order[:, :k], weights, axis=1)
    return S


def build_all(ds: MultiViewDataset, anchor_set: AnchorSet, k: int) -> AnchorGraphSet:
    """Anchor graph per view; O(n*m*d) after anchor selection."""
    if len(anchor_set.anchors) != ds.num_views:
        raise ShapeMismatch(
            f"{len(anchor_set.anchors)} anchor matrices for {ds.num_views} views"
        )
    graphs = [
        build_anchor_graph(X, C, k) for X, C in zip(ds.views, anchor_set.anchors)
    ]
    return AnchorGraphSet(graphs=graphs, k=k)


def dataset_digest(ds: MultiViewDataset, normalize: bool) -> str:
    """Anchor-cache key of a loaded dataset: its views' shapes and bytes
    (after any normalization) and the normalize flag."""
    h = hashlib.blake2b(digest_size=16)
    h.update(b"normalize=%d" % bool(normalize))
    for X in ds.views:
        h.update(repr(X.shape).encode())
        h.update(np.ascontiguousarray(X))
    return h.hexdigest()


def save_anchor_set(anchor_set: AnchorSet, root_path, key: dict) -> None:
    """Cache anchors as an f64le dataset directory. The old key file goes
    first and the new one last, so an interrupted save reads as a miss."""
    key_path = Path(root_path) / ANCHOR_KEY_FILE
    entry = MultiViewDataset(views=anchor_set.anchors)
    try:
        key_path.unlink(missing_ok=True)
        dataset_mod.save_dataset(entry, root_path, fmt="f64le")
        key_path.write_text(json.dumps(key) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"writing anchor cache {key_path}: {exc}") from None


def load_anchor_set(root_path, key: dict) -> AnchorSet | None:
    """The anchors cached under root_path if its key file equals key,
    else None; no anchor file is read on a miss."""
    key_path = Path(root_path) / ANCHOR_KEY_FILE
    if not key_path.is_file():
        return None
    try:
        stored = json.loads(key_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MalformedMeta(f"{key_path}: {exc}") from None
    if stored != key:
        return None
    views = dataset_mod.load_dataset(root_path).views
    return AnchorSet(anchors=views, m=key["m"], kmeans_iters_used=0)
