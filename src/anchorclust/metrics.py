"""External clustering metrics: ACC, NMI, Purity, ARI, pairwise F-score
and Precision. All are computed from one contingency table and are
invariant under relabeling of either partition. Each metric is a function
of the table; evaluate_all builds the table once for all six."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import min_cost_assignment
from .errors import LengthMismatch


@dataclass(frozen=True)
class ContingencyTable:
    """counts[i, j] = number of samples in predicted cluster i and true class j."""

    counts: np.ndarray
    n: int


def contingency(pred, truth) -> ContingencyTable:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size != truth.size:
        raise LengthMismatch(
            f"pred has {pred.size} labels, truth has {truth.size}"
        )
    if pred.size == 0:
        raise LengthMismatch("empty label vectors")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    cp, ct = pi.max() + 1, ti.max() + 1
    counts = np.zeros((cp, ct), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return ContingencyTable(counts=counts, n=pred.size)


def _accuracy(ct: ContingencyTable) -> float:
    side = max(ct.counts.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: ct.counts.shape[0], : ct.counts.shape[1]] = ct.counts
    cols = min_cost_assignment(-padded)
    return int(padded[np.arange(side), cols].sum()) / ct.n


def _nmi(ct: ContingencyTable) -> float:
    n = ct.n
    pred_sizes, true_sizes = ct.counts.sum(axis=1), ct.counts.sum(axis=0)
    p_pred = pred_sizes / n
    p_true = true_sizes / n
    h_pred = -np.sum(p_pred * np.log(p_pred))
    h_true = -np.sum(p_true * np.log(p_true))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    nz = ct.counts > 0
    nij = ct.counts[nz].astype(np.float64)
    outer = np.outer(pred_sizes, true_sizes)[nz].astype(np.float64)
    mi = float(np.sum((nij / n) * np.log(n * nij / outer)))
    return float(min(max(mi / np.sqrt(h_pred * h_true), 0.0), 1.0))


def _purity(ct: ContingencyTable) -> float:
    return int(ct.counts.max(axis=1).sum()) / ct.n


def pair_counts(ct: ContingencyTable) -> tuple[int, int, int, int]:
    """(TP, pairs co-clustered in pred, pairs co-clustered in truth, all
    pairs): sums of x choose 2, exact in int64 for n below 3e9."""
    sizes = (ct.counts, ct.counts.sum(axis=1), ct.counts.sum(axis=0), ct.n)
    return tuple(int(np.sum(x * (x - 1) // 2)) for x in sizes)


def _ari(tp: int, pred_pairs: int, true_pairs: int, total: int) -> float:
    if pred_pairs == true_pairs and (pred_pairs == 0 or pred_pairs == total):
        # both partitions trivial in the same way, hence identical
        return 1.0
    expected = pred_pairs * true_pairs / total
    max_index = (pred_pairs + true_pairs) / 2
    return (tp - expected) / (max_index - expected)


def _f_precision(tp: int, pred_pairs: int, true_pairs: int, _) -> tuple[float, float]:
    precision = tp / pred_pairs if pred_pairs else 0.0
    recall = tp / true_pairs if true_pairs else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f, precision


def accuracy(pred, truth) -> float:
    """Best cluster-to-class matching rate, via the minimum-cost assignment
    (assignment.min_cost_assignment) on the negated, zero-padded square
    contingency table."""
    return _accuracy(contingency(pred, truth))


def nmi(pred, truth) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(truth)), natural
    logs. Both entropies zero means both partitions are the trivial single
    cluster, which are identical, so the score is 1."""
    return _nmi(contingency(pred, truth))


def purity(pred, truth) -> float:
    """Fraction of samples in the majority class of their predicted cluster."""
    return _purity(contingency(pred, truth))


def ari(pred, truth) -> float:
    """Adjusted Rand index from contingency-table pair counts."""
    return _ari(*pair_counts(contingency(pred, truth)))


def pairwise_f_precision(pred, truth) -> tuple[float, float]:
    """(F-score, precision) over unordered sample pairs; 0/0 counts as 0."""
    return _f_precision(*pair_counts(contingency(pred, truth)))


def evaluate_all(pred, truth) -> dict[str, float]:
    """The six standard metrics as one dict (insertion order fixed)."""
    ct = contingency(pred, truth)
    pairs = pair_counts(ct)
    f, prec = _f_precision(*pairs)
    return {
        "acc": _accuracy(ct),
        "nmi": _nmi(ct),
        "purity": _purity(ct),
        "ari": _ari(*pairs),
        "f_score": f,
        "precision": prec,
    }
