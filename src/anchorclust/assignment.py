"""Minimum-cost matching of every row of an r x m cost matrix, r <= m.

Crouse's shortest augmenting path method (D. F. Crouse, "On implementing
2D rectangular assignment algorithms", IEEE TAES 52(4), 2016), with the
tie rules of scipy.optimize.linear_sum_assignment's C code, so that both
return the same assignment on every input:

- each row's search starts from the columns m-1, ..., 0, and a column
  taken from the search is replaced by the last one still in it;
- a reduced cost is ((min_val + cost[i, j]) - u[i]) - v[j];
- among the columns of lowest path cost, the last one (in search order)
  that has no row yet is taken, else the first one.

The scan over the columns still in the search is vectorized; the rest
follows the C code step by step. O(r^2 m) in the worst case.
"""

from __future__ import annotations

import numpy as np


def min_cost_assignment(cost) -> np.ndarray:
    """The r distinct columns col[i] of range(m) that minimize the sum of
    cost[i, col[i]], for a finite r x m cost, r <= m: a permutation if square."""
    cost = np.asarray(cost, dtype=np.float64)
    r, m = cost.shape
    u, v = np.zeros(r), np.zeros(m)
    col4row, row4col = [-1] * r, np.full(m, -1)
    path = [-1] * m  # path[j]: the row before column j on the shortest path
    for cur in range(r):
        # the columns still in the search, and their entries, in search order
        remaining = np.arange(m - 1, -1, -1)
        rem_cost = np.full(m, np.inf)
        rem_path = np.empty(m, dtype=np.intp)
        rem_free = row4col[remaining] < 0
        rem_v = v[remaining]
        # the rows and columns taken, and each column's path cost
        rows, cols, costs = [cur], [], []
        i, min_val, num = cur, 0.0, m
        while True:
            reduced = min_val + cost[i].take(remaining[:num])
            reduced -= u[i]
            reduced -= rem_v[:num]
            scores = rem_cost[:num]
            shorter = reduced < scores
            np.copyto(scores, reduced, where=shorter)
            rem_path[:num][shorter] = i
            tied = scores == np.minimum.reduce(scores)
            free = (tied & rem_free[:num]).nonzero()[0]
            index = free[-1] if free.size else tied.argmax()
            j = int(remaining[index])
            min_val = float(scores[index])
            path[j] = int(rem_path[index])
            cols.append(j)
            costs.append(min_val)
            if row4col[j] < 0:
                break
            i = int(row4col[j])
            rows.append(i)
            num -= 1
            for a in (remaining, rem_cost, rem_path, rem_free, rem_v):
                a[index] = a[num]
        # dual update: row rows[t + 1] holds column cols[t]
        u[cur] += min_val
        for i, c in zip(rows[1:], costs):
            u[i] += min_val - c
        for j, c in zip(cols, costs):
            v[j] -= min_val - c
        # augment along the path back to row cur
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row)
