import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import anchorclust
from anchorclust.assignment import min_cost_assignment


def cost_matrix(kind, n, rng):
    if kind == "random":
        return rng.standard_normal((n, n))
    if kind == "small_integers":  # full of ties
        return rng.integers(-2, 3, size=(n, n)).astype(np.float64)
    if kind == "zero_one":
        return (rng.random((n, n)) < 0.3).astype(np.float64)
    if kind == "constant":
        return np.full((n, n), float(rng.integers(-3, 4)))
    # a negated contingency table, zero-padded to a square as metrics does
    rows, cols = rng.integers(1, n + 1, size=2)
    table = np.zeros((n, n), dtype=np.int64)
    table[:rows, :cols] = rng.integers(0, 20, size=(rows, cols))
    return -table


@pytest.mark.parametrize(
    "kind", ["random", "small_integers", "zero_one", "constant", "contingency"])
def test_same_assignment_as_scipy(kind):
    # equal assignments, not only equal totals: ties must break the same way
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n in range(1, 41):
        for _ in range(3):
            cost = cost_matrix(kind, n, rng)
            rows, cols = linear_sum_assignment(cost)
            assert np.array_equal(rows, np.arange(n))
            assert np.array_equal(min_cost_assignment(cost), cols), (kind, n)


def test_import_loads_no_unused_scipy_subpackage():
    # scipy.optimize alone loads scipy.linalg, spatial and special too: about
    # 28 MiB of resident memory and 0.3 s per process, for nothing the
    # package uses
    body = ("import sys, anchorclust, anchorclust.cli\n"
            "print(' '.join(sorted(sys.modules)))")
    src = str(Path(anchorclust.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", body], env=env,
                           capture_output=True, text=True, check=True)
    loaded = set(child.stdout.split())
    unused = {"scipy.optimize", "scipy.linalg", "scipy.spatial", "scipy.special"}
    assert "scipy.sparse" in loaded
    assert loaded.isdisjoint(unused), sorted(loaded & unused)
