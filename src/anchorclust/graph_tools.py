"""Rebuild a full n x n sample similarity graph from an n x m anchor graph
for inspection or external heatmap rendering.

With D = diag(column sums of S), the reconstruction is B = S D^-1 S^T:
two samples are similar when they put mass on the same anchors. B is
symmetric, non-negative, and row-stochastic whenever S is.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from .errors import AllZeroGraph, InvalidParameter, NonFiniteValue

DENSE_N_CAP = 20000
TOP_K_BLOCK_ROWS = 2048  # rows of B formed at a time by reconstruct_top_k


def _check_graph(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2:
        raise InvalidParameter(f"expected a 2-d anchor graph, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise NonFiniteValue("anchor graph has non-finite entries")
    if (S < 0).any():
        raise InvalidParameter("anchor graph has negative entries")
    return S


def _drop_zero_columns(S: np.ndarray):
    """(Sk, Sk / D_k): S without its all-zero anchor columns (dropping any
    warns), and Sk over its column sums."""
    D = S.sum(axis=0)
    keep = D > 0
    if not keep.any():
        raise AllZeroGraph("every anchor column sums to zero")
    if not keep.all():
        warnings.warn(f"dropped {int((~keep).sum())} all-zero anchor column(s)",
                      stacklevel=3)
    Sk = S[:, keep]
    return Sk, Sk / D[keep]


def reconstruct_full_graph(S: np.ndarray) -> np.ndarray:
    """Dense B = S D^-1 S^T. Zero anchor columns carry no mass and are
    dropped with a warning; n is capped because B is O(n^2) by nature."""
    S = _check_graph(S)
    n = S.shape[0]
    if n > DENSE_N_CAP:
        raise InvalidParameter(
            f"n={n} exceeds the dense cap {DENSE_N_CAP}; use the top-k "
            "sparsified reconstruction instead"
        )
    Sk, SD = _drop_zero_columns(S)
    return SD @ Sk.T


def reconstruct_top_k(S: np.ndarray, top_k: int) -> sp.csr_matrix:
    """Sparse reconstruction keeping the top_k largest entries per row of B,
    computed blockwise so the dense n x n matrix never materializes. Zero
    anchor columns are dropped with a warning."""
    S = _check_graph(S)
    if top_k < 1:
        raise InvalidParameter(f"top_k must be >= 1, got {top_k}")
    n = S.shape[0]
    Sk, SD = _drop_zero_columns(S)
    top_k = min(top_k, n)

    rows, cols, vals = [], [], []
    for start in range(0, n, TOP_K_BLOCK_ROWS):
        stop = min(start + TOP_K_BLOCK_ROWS, n)
        block = SD[start:stop] @ Sk.T
        idx = np.argpartition(block, -top_k, axis=1)[:, -top_k:]
        sel = np.take_along_axis(block, idx, axis=1)
        nz = sel > 0
        r = np.repeat(np.arange(start, stop), top_k).reshape(idx.shape)
        rows.append(r[nz])
        cols.append(idx[nz])
        vals.append(sel[nz])
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
