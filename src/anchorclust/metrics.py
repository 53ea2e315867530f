"""External clustering metrics: ACC, NMI, Purity, ARI, pairwise F-score
and Precision, all invariant under relabeling of either partition.
evaluate_all is the one scoring entry point: it builds the contingency
table once and reads all six scores from it."""

from __future__ import annotations

import numpy as np

from .assignment import min_cost_assignment
from .errors import InvalidParameter, LengthMismatch

CONTINGENCY_CELL_CAP = 1 << 24  # evaluate_all peaks near 3 int64 tables


def contingency(pred, truth) -> np.ndarray:
    """int64 counts[i, j] = number of samples in predicted cluster i and
    true class j. A table above CONTINGENCY_CELL_CAP cells raises
    InvalidParameter before it is allocated."""
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
    if cp * ct > CONTINGENCY_CELL_CAP:
        raise InvalidParameter(f"{cp} predicted x {ct} true labels exceed the "
                               f"contingency table cap of {CONTINGENCY_CELL_CAP} cells")
    counts = np.zeros((cp, ct), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return counts


def _accuracy(counts: np.ndarray, n: int) -> float:
    counts = counts if counts.shape[0] <= counts.shape[1] else counts.T
    cols = min_cost_assignment(-counts)
    return int(counts[np.arange(counts.shape[0]), cols].sum()) / n


def _nmi(counts: np.ndarray, n: int) -> float:
    pred_sizes, true_sizes = counts.sum(axis=1), counts.sum(axis=0)
    p_pred = pred_sizes / n
    p_true = true_sizes / n
    h_pred = -np.sum(p_pred * np.log(p_pred))
    h_true = -np.sum(p_true * np.log(p_true))
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    nz = counts > 0
    nij = counts[nz].astype(np.float64)
    outer = np.outer(pred_sizes, true_sizes)[nz].astype(np.float64)
    mi = float(np.sum((nij / n) * np.log(n * nij / outer)))
    return float(min(max(mi / np.sqrt(h_pred * h_true), 0.0), 1.0))


def _purity(counts: np.ndarray, n: int) -> float:
    return int(counts.max(axis=1).sum()) / n


def pair_counts(counts: np.ndarray, n: int) -> tuple[int, int, int, int]:
    """(TP, pairs co-clustered in pred, pairs co-clustered in truth, all
    pairs): sums of x choose 2, exact in int64 for n below 3e9."""
    sizes = (counts, counts.sum(axis=1), counts.sum(axis=0), n)
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


def evaluate_all(pred, truth) -> dict[str, float]:
    """The six standard metrics as one dict, in this order:

    acc        best cluster-to-class matching rate, via the minimum-cost
               assignment (assignment.min_cost_assignment) on the negated
               contingency table, with its smaller side as rows
    nmi        mutual information over sqrt(H(pred) * H(truth)), natural
               logs; 1 when both are the trivial single cluster (identical)
    purity     fraction of samples in the majority class of their
               predicted cluster
    ari        adjusted Rand index from the table's pair counts
    f_score,   F-score and precision over unordered sample pairs; 0/0
    precision  counts as 0
    """
    counts = contingency(pred, truth)
    n = int(counts.sum())
    pairs = pair_counts(counts, n)
    f, prec = _f_precision(*pairs)
    return {
        "acc": _accuracy(counts, n),
        "nmi": _nmi(counts, n),
        "purity": _purity(counts, n),
        "ari": _ari(*pairs),
        "f_score": f,
        "precision": prec,
    }
