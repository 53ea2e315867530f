import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_reconstruction

from anchorclust import graph_tools
from anchorclust.errors import AllZeroGraph, InvalidParameter
from anchorclust.graph_tools import (
    reconstruct_full_graph,
    reconstruct_top_k,
)


def random_stochastic(n, m, seed):
    rng = np.random.default_rng(seed)
    S = rng.random((n, m)) ** 2
    return S / S.sum(axis=1, keepdims=True)


def test_one_hot_rows_give_uniform_blocks(monkeypatch):
    # hard assignment: group {0,1} on anchor 0, group {2,3,4} on anchor 2
    S = np.zeros((5, 3))
    S[[0, 1], 0] = 1.0
    S[[2, 3, 4], 2] = 1.0
    with pytest.warns(UserWarning, match="all-zero anchor column"):
        B = reconstruct_full_graph(S)
    expected = np.zeros((5, 5))
    expected[:2, :2] = 1.0 / 2.0
    expected[2:, 2:] = 1.0 / 3.0
    assert np.allclose(B, expected, atol=1e-15)
    monkeypatch.setattr(graph_tools, "TOP_K_BLOCK_ROWS", 2)
    with pytest.warns(UserWarning, match="dropped 1 all-zero anchor column"):
        top = reconstruct_top_k(S, top_k=5)
    assert np.allclose(top.toarray(), expected, atol=1e-15)


def test_matches_naive_triple_loop():
    for seed in range(5):
        S = random_stochastic(6, 4, seed)
        B = reconstruct_full_graph(S)
        assert np.max(np.abs(B - naive_reconstruction(S))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.integers(2, 6))
def test_row_stochastic_symmetric_property(seed, n, m):
    S = random_stochastic(n, m, seed)
    B = reconstruct_full_graph(S)
    assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-8
    assert np.max(np.abs(B - B.T)) < 1e-10
    assert np.all(B >= 0)
    assert B.sum() == pytest.approx(n, rel=1e-10)


def test_all_zero_graph_rejected():
    with pytest.raises(AllZeroGraph):
        reconstruct_full_graph(np.zeros((4, 3)))


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
def test_graph_must_be_2d(shape):
    with pytest.raises(InvalidParameter, match="expected a 2-d anchor graph, got shape"):
        reconstruct_full_graph(np.ones(shape))


def test_negative_entries_rejected():
    S = np.ones((3, 2))
    S[0, 0] = -0.5
    with pytest.raises(InvalidParameter):
        reconstruct_full_graph(S)


def test_dense_cap_enforced(monkeypatch):
    monkeypatch.setattr(graph_tools, "DENSE_N_CAP", 20)
    S = random_stochastic(30, 3, seed=0)
    with pytest.raises(InvalidParameter, match="dense cap 20"):
        reconstruct_full_graph(S)


def test_top_k_matches_dense(monkeypatch):
    monkeypatch.setattr(graph_tools, "TOP_K_BLOCK_ROWS", 5)
    S = random_stochastic(12, 4, seed=1)
    dense = reconstruct_full_graph(S)
    sparse = reconstruct_top_k(S, top_k=3).toarray()
    for i in range(12):
        top = np.sort(np.argsort(dense[i])[-3:])
        nz = np.nonzero(sparse[i])[0]
        assert set(nz) <= set(top)
        assert np.allclose(sparse[i, nz], dense[i, nz], atol=1e-14)


def test_top_k_requires_positive_k():
    with pytest.raises(InvalidParameter):
        reconstruct_top_k(random_stochastic(5, 3, 0), top_k=0)
