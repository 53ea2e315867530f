import ast
import hashlib
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    best_column_permutation,
    dense_anchor_graph,
    lloyd_bincount_centers,
    mix_graphs,
)

import anchorclust
from anchorclust.anchors import (
    AnchorGraphSet,
    AnchorSet,
    _cluster_means,
    build_all,
    build_anchor_graph,
    select_anchors,
)
from anchorclust.cli import ANCHOR_KEY_FILE, cached_anchors
from anchorclust.dataset import MultiViewDataset, synth_blobs
from anchorclust.errors import (
    DegenerateRowWarning,
    DegenerateViewWarning,
    InvalidParameter,
    MalformedMeta,
    MissingFile,
    ShapeMismatch,
)
from anchorclust.metrics import evaluate_all
from anchorclust.solver import SolverConfig, fit


def anchors_at_sq_dists(sq_dists):
    """Point at the origin in 1-d plus anchors whose squared distances
    from it are exactly the given values."""
    X = np.zeros((1, 1))
    C = np.sqrt(np.asarray(sq_dists, dtype=float))[:, None]
    return X, C


class TestBuildAnchorGraph:
    def test_k1_single_unit_weight(self):
        X, C = anchors_at_sq_dists([1.0, 2.0, 4.0])
        S = build_anchor_graph(X, C, k=1).toarray()
        assert np.array_equal(S, [[1.0, 0.0, 0.0]])

    def test_hand_evaluated_weights(self):
        # sorted squared distances (1, 2, 4), k=2:
        # weights ((4-1)/(2*4-3), (4-2)/(2*4-3)) = (0.6, 0.4)
        X, C = anchors_at_sq_dists([1.0, 2.0, 4.0])
        S = build_anchor_graph(X, C, k=2).toarray()
        assert S[0] == pytest.approx([0.6, 0.4, 0.0], abs=1e-15)

    def test_equidistant_limit_uniform(self):
        X = np.zeros((1, 2))
        C = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        with pytest.warns(DegenerateRowWarning):
            S = build_anchor_graph(X, C, k=2).toarray()
        assert S[0] == pytest.approx([0.5, 0.5, 0.0])

    def test_k_must_be_below_m(self):
        X, C = anchors_at_sq_dists([1.0, 2.0])
        with pytest.raises(InvalidParameter):
            build_anchor_graph(X, C, k=2)

    def test_anchor_columns_must_match_view(self):
        with pytest.raises(ShapeMismatch):
            build_anchor_graph(np.zeros((5, 3)), np.zeros((4, 2)), k=2)

    def test_support_is_k_nearest(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        C = rng.standard_normal((7, 3))
        k = 3
        S = build_anchor_graph(X, C, k)
        d2 = ((X[:, None, :] - C[None]) ** 2).sum(-1)
        for i in range(40):
            expected = set(np.argsort(d2[i])[:k].tolist())
            assert set(np.nonzero(S[i])[0].tolist()) == expected

    def test_monotone_weights(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        C = rng.standard_normal((9, 4))
        S = build_anchor_graph(X, C, k=4).toarray()
        d2 = ((X[:, None, :] - C[None]) ** 2).sum(-1)
        for i in range(30):
            nz = np.nonzero(S[i])[0]
            order = nz[np.argsort(d2[i, nz])]
            weights = S[i, order]
            assert np.all(np.diff(weights) <= 1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(10, 60))
    def test_rows_stochastic_property(self, seed, m, n):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, m))
        X = rng.standard_normal((n, 3))
        C = rng.standard_normal((m, 3))
        S = build_anchor_graph(X, C, k).toarray()
        assert np.all(S >= 0) and np.all(S <= 1)
        assert np.max(np.abs(S.sum(axis=1) - 1.0)) < 1e-10
        assert np.all((S > 0).sum(axis=1) == k)


def assert_same_csr(S, dense):
    want = sp.csr_array(dense)
    assert isinstance(S, sp.csr_array) and S.shape == want.shape
    assert np.array_equal(S.indptr, want.indptr)
    assert np.array_equal(S.indices, want.indices)
    assert np.array_equal(S.data, want.data)


class TestCsrBuild:
    """The build emits CSR equal to the CSR of the dense reference fill."""

    def test_tied_distances_store_no_zero_weight(self):
        # sorted squared distances (1, 1, 4, 4, 9), k=3: the third nearest
        # (anchor 0, tied with the bandwidth anchor 2) has weight 0
        X, C = anchors_at_sq_dists([4.0, 1.0, 4.0, 1.0, 9.0])
        S = build_anchor_graph(X, C, k=3)
        assert_same_csr(S, dense_anchor_graph(X, C, 3))
        assert S.indices.tolist() == [1, 3]
        assert S.data.tolist() == [0.5, 0.5]

    def test_equidistant_rows_take_lowest_anchor_indices(self):
        X, C = anchors_at_sq_dists([4.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.warns(DegenerateRowWarning):
            S = build_anchor_graph(X, C, k=2)
        assert_same_csr(S, dense_anchor_graph(X, C, 2))
        assert S.indices.tolist() == [1, 2]
        assert S.data.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_lattice_rows(self, k):
        # anchors on the 3 x 3 integer lattice, samples on the half-integer
        # lattice: exact distances, so many rows have ties and zero k-th
        # weights, and for k <= 3 some have k+1 equidistant nearest anchors
        C = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), -1).reshape(9, 2)
        X = np.random.default_rng(k).integers(-4, 5, size=(300, 2)) / 2.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            S = build_anchor_graph(X, C, k)
        degenerate = any(w.category is DegenerateRowWarning for w in caught)
        assert degenerate == (k <= 3)
        assert_same_csr(S, dense_anchor_graph(X, C, k))
        if k > 1:
            assert np.diff(S.indptr).min() < k

    def test_random_rows(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((500, 4))
        C = rng.standard_normal((20, 4))
        for k in (1, 5, 19):
            S = build_anchor_graph(X, C, k)
            assert_same_csr(S, dense_anchor_graph(X, C, k))
            assert np.all(np.diff(S.indptr) == k)


class TestSelectAnchors:
    def test_m_equals_n_permutation(self):
        X = np.random.default_rng(3).standard_normal((8, 2))
        ds = MultiViewDataset(views=[X])
        an = select_anchors(ds, m=8, seed=0)
        got = {tuple(r) for r in an.anchors[0]}
        assert got == {tuple(r) for r in X}

    def test_m1_is_column_mean(self):
        X = np.random.default_rng(4).standard_normal((20, 3))
        ds = MultiViewDataset(views=[X])
        an = select_anchors(ds, m=1, seed=0)
        assert np.allclose(an.anchors[0][0], X.mean(axis=0), atol=1e-12)

    def test_two_blobs_recovered(self):
        ds = synth_blobs(200, 2, 1, [3], separation=10, noise=0.1, seed=7)
        an = select_anchors(ds, m=2, seed=0)
        X = ds.views[0]
        means = np.stack([X[ds.labels == j].mean(0) for j in range(2)])
        for center in an.anchors[0]:
            assert min(np.linalg.norm(center - mu) for mu in means) < 0.1

    def test_m_above_n_rejected(self):
        ds = MultiViewDataset(views=[np.ones((3, 2))])
        with pytest.raises(InvalidParameter):
            select_anchors(ds, m=4)

    def test_negative_seed_rejected(self):
        ds = MultiViewDataset(views=[np.ones((3, 2))])
        with pytest.raises(InvalidParameter, match="seed must be >= 0, got -1"):
            select_anchors(ds, m=2, seed=-1)

    def test_few_distinct_rows_warns(self):
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 4, axis=0)
        ds = MultiViewDataset(views=[X])
        with pytest.warns(DegenerateViewWarning):
            select_anchors(ds, m=5, seed=0)

    def test_anchors_pinned_bitwise(self):
        # digest of the anchors computed before k-means cached the row norms
        ds = synth_blobs(n=400, c=4, V=2, dims=[6, 9], noise=1.5, seed=11)
        a = select_anchors(ds, m=12, seed=5, max_iters=25)
        h = hashlib.blake2b(digest_size=16)
        for C in a.anchors:
            h.update(np.ascontiguousarray(C).tobytes())
        assert (h.hexdigest(), a.kmeans_iters_used) == (
            "c3256dafce4553763908e84f088555a3", 19)

    def test_deterministic(self):
        ds = synth_blobs(60, 3, 2, [3, 4], seed=11)
        a = select_anchors(ds, m=6, seed=5)
        b = select_anchors(ds, m=6, seed=5)
        for ca, cb in zip(a.anchors, b.anchors):
            assert np.array_equal(ca, cb)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestClusterMeans:
    """The one-hot product against the per-column bincount loop, on values
    spread over 16 decades, where any change in summation order shows."""

    @staticmethod
    def spread(rng, n, d):
        return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, (n, d))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 40),
           st.integers(1, 30))
    def test_random_inputs_bitwise(self, seed, n, d, m):
        rng = np.random.default_rng(seed)
        X, assign = self.spread(rng, n, d), rng.integers(0, m, n)
        means, nonempty = _cluster_means(X, assign, m)
        assert_same_bits(means, lloyd_bincount_centers(X, assign, m))
        assert np.array_equal(nonempty, np.bincount(assign, minlength=m) > 0)

    def test_empty_clusters_bitwise(self):
        rng = np.random.default_rng(1)
        X = self.spread(rng, 500, 16)
        assign = rng.choice([0, 3, 4, 9], 500)
        means, nonempty = _cluster_means(X, assign, 12)
        assert_same_bits(means, lloyd_bincount_centers(X, assign, 12))
        assert np.flatnonzero(nonempty).tolist() == [0, 3, 4, 9]
        assert not means[~nonempty].any()

    def test_duplicate_rows_bitwise(self):
        rng = np.random.default_rng(2)
        X = np.repeat(self.spread(rng, 40, 1024), 25, axis=0)
        rng.shuffle(X)
        assign = rng.integers(0, 30, X.shape[0])
        assert_same_bits(_cluster_means(X, assign, 30)[0],
                         lloyd_bincount_centers(X, assign, 30))


class TestGraphSetStorage:
    def test_nonzeros_stored_once_and_mixture_unchanged(self):
        ds = synth_blobs(500, 4, 3, [5, 6, 7], seed=4)
        anchor_set = select_anchors(ds, m=20, seed=4)
        graphs = [build_anchor_graph(X, C, 5) for X, C in zip(ds.views, anchor_set.anchors)]
        gs = AnchorGraphSet(graphs=graphs, k=5)

        def csr_bytes(value):
            if isinstance(value, (list, tuple)):
                return sum(csr_bytes(v) for v in value)
            if sp.issparse(value):
                return value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
            return 0

        stored = sum(csr_bytes(v) for v in vars(gs).values())
        # H alone, with each nonzero once: no transpose, no per-view copy
        assert stored == csr_bytes(gs.H)
        assert gs.H.nnz == sum(S.nnz for S in graphs)
        for S, built in zip(gs.graphs, graphs):
            assert_same_bits(S.toarray(), built.toarray())
        for alpha in (np.full(3, 1 / 3), np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5])):
            assert_same_bits(gs.mixture(alpha), mix_graphs(graphs, alpha))

    @pytest.mark.parametrize("V", [1, 2, 3, 4])
    def test_mixture_equals_view_by_view_sum(self, V):
        # H times the stacked alpha_v I blocks adds each entry's views in
        # view order from 0.0, as the dense sum does, so the bits agree
        rng = np.random.default_rng(V)
        graphs = [rng.random((40, 7)) * (rng.random((40, 7)) < 0.4) for _ in range(V)]
        gs = AnchorGraphSet(graphs=graphs, k=2)
        for alpha in [rng.dirichlet(np.ones(V)) for _ in range(5)] + list(np.eye(V)):
            assert_same_bits(gs.mixture(alpha), mix_graphs(graphs, alpha))


class TestBuildAll:
    @pytest.mark.parametrize("make, error, message", [
        (lambda X: AnchorSet(anchors=[X[:2]], m=0, kmeans_iters_used=0),
         InvalidParameter, "m must be >= 1, got 0"),
        (lambda X: AnchorSet(anchors=[X[:2], X[:3]], m=2, kmeans_iters_used=0),
         ShapeMismatch, "anchor matrix 1 has 3 rows, expected m=2"),
        (lambda X: AnchorSet(anchors=[X[:2], X[:2] * np.nan], m=2, kmeans_iters_used=0),
         InvalidParameter, "anchor matrix 1 has non-finite rows"),
        (lambda X: AnchorGraphSet(graphs=[], k=0), InvalidParameter,
         "graph set needs at least one graph"),
        (lambda X: build_all(MultiViewDataset(views=[X, X]),
                             AnchorSet(anchors=[X[:2]], m=2, kmeans_iters_used=0), k=1),
         ShapeMismatch, "1 anchor matrices for 2 views"),
    ])
    def test_inconsistent_inputs_refused(self, make, error, message):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(error, match=message):
            make(X)

    def test_single_view_matches_direct_call(self):
        # one view is never permuted: the set is byte-identical
        ds = synth_blobs(50, 2, 1, [3], seed=0)
        an = select_anchors(ds, m=5, seed=0)
        gs = build_all(ds, an, k=2)
        direct = AnchorGraphSet(graphs=[build_anchor_graph(ds.views[0], an.anchors[0], k=2)], k=2)
        assert [name for name, v in vars(gs).items() if sp.issparse(v)] == ["H"]
        assert_same_csr_bits(gs.H, direct.H)
        assert_same_bits(gs.C, direct.C)
        assert_same_bits(gs.Q, direct.Q)

    def test_shapes_shared(self):
        ds = synth_blobs(40, 3, 3, [2, 3, 4], seed=1)
        gs = build_all(ds, select_anchors(ds, m=7, seed=1), k=3)
        assert gs.num_views == 3
        assert all(S.shape == (40, 7) for S in gs.graphs)
        assert gs.n == 40 and gs.m == 7

    def test_deterministic_end_to_end(self):
        ds = synth_blobs(50, 2, 2, [3, 3], seed=2)

        def run():
            return build_all(ds, select_anchors(ds, m=6, seed=3), k=2)

        ga, gb = run(), run()
        for Sa, Sb in zip(ga.graphs, gb.graphs):
            assert np.array_equal(Sa.toarray(), Sb.toarray())


def assert_same_csr_bits(A, B):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def row_sorted_data(S):
    """Each row's stored values in ascending order, row after row."""
    rows = np.repeat(np.arange(S.shape[0]), np.diff(S.indptr))
    return S.data[np.lexsort((S.data, rows))]


class TestAlignment:
    """build_all permutes the columns of each view v >= 1 to best match
    view 0's and records the permutations in gs.perms; the graphs are
    otherwise as built."""

    @pytest.mark.parametrize("m", [4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_assignment_reaches_brute_force_trace(self, m, seed):
        rng = np.random.default_rng(seed)
        X0, X1 = rng.standard_normal((40, 2)), rng.standard_normal((40, 3))
        A0, A1 = rng.standard_normal((m, 2)), rng.standard_normal((m, 3))
        S0, S1 = build_anchor_graph(X0, A0, 2), build_anchor_graph(X1, A1, 2)
        gs = build_all(MultiViewDataset(views=[X0, X1]),
                       AnchorSet(anchors=[A0, A1], m=m, kmeans_iters_used=0), k=2)
        assert np.array_equal(gs.perms[0], np.arange(m))
        perm = gs.perms[1]
        _, best = best_column_permutation(S0, S1)
        D0, D1 = S0.toarray(), S1.toarray()
        assert sorted(perm) == list(range(m))
        assert np.einsum("ij,ij->", D0, D1[:, perm]) >= best * (1 - 1e-12)

    def test_aligned_graphs_are_column_permutations(self):
        ds = synth_blobs(300, 4, 3, [4, 5, 6], noise=1.0, seed=3)
        an = select_anchors(ds, m=12, seed=3)
        gs = build_all(ds, an, k=4)
        raw = [build_anchor_graph(X, C, 4) for X, C in zip(ds.views, an.anchors)]
        assert_same_csr_bits(gs.graphs[0], raw[0])
        assert np.array_equal(gs.perms[0], np.arange(12))
        moved = 0
        for X, C, S, R, perm in zip(ds.views[1:], an.anchors[1:], gs.graphs[1:], raw[1:],
                                    gs.perms[1:]):
            assert sorted(perm) == list(range(12))
            moved += int((perm != np.arange(12)).sum())
            ref = sp.csr_array(R[:, perm])
            ref.sort_indices()
            assert S.has_canonical_format
            assert_same_csr_bits(S, ref)
            assert_same_bits(row_sorted_data(S), row_sorted_data(R))
            # column j of the aligned graph is anchor row perm[j]
            assert np.allclose(S.toarray(), build_anchor_graph(X, C[perm], 4).toarray(),
                               rtol=0, atol=1e-12)
        assert moved > 0

    def test_identical_views_keep_identity(self):
        X = synth_blobs(200, 3, 1, [3], noise=1.0, seed=5).views[0]
        C = select_anchors(MultiViewDataset(views=[X]), m=8, seed=5).anchors[0]
        S = build_anchor_graph(X, C, 3)
        assert np.unique(S.toarray().T, axis=0).shape[0] == 8  # distinct columns
        ds = MultiViewDataset(views=[X, X])
        gs = build_all(ds, AnchorSet(anchors=[C, C], m=8, kmeans_iters_used=0), k=3)
        assert np.array_equal(gs.perms, np.tile(np.arange(8), (2, 1)))
        assert_same_csr_bits(gs.graphs[1], gs.graphs[0])
        # shuffled anchors of the second view: the alignment undoes the shuffle
        shuffle = np.random.default_rng(5).permutation(8)
        gs = build_all(ds, AnchorSet(anchors=[C, C[shuffle]], m=8, kmeans_iters_used=0), k=3)
        assert np.array_equal(gs.perms[1], np.argsort(shuffle))
        assert np.allclose(gs.graphs[1].toarray(), S.toarray(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("V", [1, 2, 3])
    def test_set_equals_rebuild_from_its_graphs(self, V):
        # the alignment permutes H's columns and C's blocks in place of a
        # second product: a set rebuilt from the aligned graphs has the same bits
        ds = synth_blobs(400, 4, V, [3, 5, 4][:V], noise=2.0, seed=V)
        gs = build_all(ds, select_anchors(ds, m=10, seed=V), k=3)
        rebuilt = AnchorGraphSet(gs.graphs, 3)
        assert gs.H.has_canonical_format
        assert_same_csr_bits(gs.H, rebuilt.H)
        assert_same_bits(gs.C, rebuilt.C)
        assert_same_bits(gs.Q, rebuilt.Q)
        assert gs.C.flags.c_contiguous
        assert gs.perms.shape == (V, 10)
        assert all(sorted(p) == list(range(10)) for p in gs.perms)
        assert V == 1 or (gs.perms[1:] != np.arange(10)).any()  # columns moved

    def test_hard_blobs_quality(self):
        # noise 15, V=3: independently ordered anchor columns scored NMI
        # 0.820 on this dataset, aligned ones 0.908
        seed = int(np.random.SeedSequence([7, 0]).generate_state(1)[0])
        ds = synth_blobs(n=3000, c=8, V=3, dims=[16] * 3, separation=10, noise=15,
                         seed=seed)
        gs = build_all(ds, select_anchors(ds, m=40), k=5)
        result = fit(gs, SolverConfig(c=8, max_iters=300))
        assert evaluate_all(result.labels, ds.labels)["nmi"] >= 0.88


class TestScaling:
    def test_build_time_roughly_linear_in_n(self):
        import time

        def build_seconds(n):
            ds = synth_blobs(n, 4, 2, [10, 10], noise=1.0, seed=0)
            an = select_anchors(ds, m=20, seed=0, max_iters=10)
            t0 = time.perf_counter()
            build_all(ds, an, k=5)
            return time.perf_counter() - t0

        build_seconds(200)  # warm up
        small = min(build_seconds(500) for _ in range(5))
        large = min(build_seconds(2000) for _ in range(5))
        assert large / small <= 6.0

    def test_doubling_n_keeps_build_ratio_bounded(self):
        # anchors (k-means capped at 10 iterations) plus graphs, best of 7
        # interleaved repeats, so a burst of load on a shared machine
        # rarely lands on every repeat of one size. The body runs in a
        # child process with BLAS on one thread: a second BLAS thread that
        # waits for a busy core slows the larger products, so under a
        # competing process the ratio would drift up whatever the repeats.
        body = """
import time
from anchorclust.anchors import build_all, select_anchors
from anchorclust.dataset import synth_blobs

def build_seconds(n):
    ds = synth_blobs(n, 4, 2, [8, 8], noise=1.0, seed=0)
    t0 = time.perf_counter()
    anchor_set = select_anchors(ds, 15, seed=0, max_iters=10)
    build_all(ds, anchor_set, 5)
    return time.perf_counter() - t0

build_seconds(500)  # warm up
best = {3000: float("inf"), 6000: float("inf")}
for _ in range(7):
    for n in best:
        best[n] = min(best[n], build_seconds(n))
print(best[6000] / best[3000])
"""
        src = str(Path(anchorclust.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        env.update(dict.fromkeys(
            ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1"))
        child = subprocess.run([sys.executable, "-c", body], env=env,
                               capture_output=True, text=True, check=True)
        assert float(child.stdout) <= 3.0


class TestGraphCache:
    """The anchor cache of --cache-graphs, cli.cached_anchors: an entry is
    keyed on m, the seed and the views' bytes."""

    def test_round_trip(self, tmp_path):
        ds = synth_blobs(30, 2, 2, [2, 3], seed=0)
        anchor_set, hit = cached_anchors(ds, 4, 9, tmp_path / "cache")
        assert not hit
        back, hit = cached_anchors(ds, 4, 9, tmp_path / "cache")
        assert hit
        for Ca, Cb in zip(anchor_set.anchors, back.anchors):
            assert np.array_equal(Ca, Cb)
        for k in (1, 2, 3):
            built, loaded = build_all(ds, anchor_set, k), build_all(ds, back, k)
            for Sa, Sb in zip(built.graphs, loaded.graphs):
                assert Sa.toarray().tobytes() == Sb.toarray().tobytes()
        other_ds = synth_blobs(30, 2, 2, [2, 3], seed=1)
        # each miss is tried on its own copy, as a miss overwrites the entry
        for i, (data, seed) in enumerate([(ds, 8), (other_ds, 9)]):
            shutil.copytree(tmp_path / "cache", tmp_path / f"copy{i}")
            assert not cached_anchors(data, 4, seed, tmp_path / f"copy{i}")[1]
        assert not cached_anchors(ds, 4, 9, tmp_path / "empty")[1]

    @pytest.mark.parametrize("meta", ["{not json", '{"n": 30}', "[]"])
    def test_malformed_meta_raises_typed_error(self, tmp_path, meta):
        ds = synth_blobs(30, 2, 2, [2, 3], seed=0)
        cached_anchors(ds, 4, 9, tmp_path / "cache")
        (tmp_path / "cache" / "meta.json").write_text(meta)
        with pytest.raises(MalformedMeta):
            cached_anchors(ds, 4, 9, tmp_path / "cache")

    def test_missing_key_is_a_miss_and_missing_view_an_error(self, tmp_path):
        # the key read decides a miss, with no stat before it; under a key
        # that is present, a missing anchor file is a data error (exit 3)
        ds = synth_blobs(30, 2, 2, [2, 3], seed=0)
        cached_anchors(ds, 4, 9, tmp_path / "cache")
        (tmp_path / "cache" / "view1.f64").unlink()
        with pytest.raises(MissingFile):
            cached_anchors(ds, 4, 9, tmp_path / "cache")
        (tmp_path / "cache" / ANCHOR_KEY_FILE).unlink()
        assert not cached_anchors(ds, 4, 9, tmp_path / "cache")[1]

    def test_graph_set_shape_check(self):
        with pytest.raises(Exception):
            AnchorGraphSet(graphs=[np.ones((3, 2)), np.ones((4, 2))], k=1)


def test_graph_set_fields_written_only_in_init():
    # H, C, Q and perms are set once, by AnchorGraphSet.__init__: an
    # assignment to them (or into them, or an in-place sort) anywhere else
    # in the package is a second writer that can leave them disagreeing
    fields = {"H", "C", "Q", "perms"}
    in_place = {"sort_indices", "sum_duplicates", "eliminate_zeros", "sort", "fill"}

    def field_of(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in fields

    def writes(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = [e for t in node.targets
                           for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in in_place and field_of(node.func.value):
                    yield node
                elif (name in ("setattr", "__setattr__") and len(node.args) > 1
                      and getattr(node.args[1], "value", None) in fields):
                    yield node
                continue
            else:
                continue
            if any(field_of(t) for t in targets):
                yield node

    package = Path(anchorclust.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "anchors.py":
            init = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) and node.name == "AnchorGraphSet")
            init = next(f for f in init.body if getattr(f, "name", "") == "__init__")
            allowed = {id(node) for node in ast.walk(init)}
        found += [f"{path.name}:{node.lineno}" for node in writes(tree)
                  if id(node) not in allowed]
    assert found == []
