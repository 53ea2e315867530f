import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_anchor_graph, lloyd_bincount_centers, mix_graphs

import anchorclust
from anchorclust.anchors import (
    AnchorGraphSet,
    _cluster_means,
    build_all,
    build_anchor_graph,
    load_anchor_set,
    save_anchor_set,
    select_anchors,
)
from anchorclust.dataset import MultiViewDataset, synth_blobs
from anchorclust.errors import (
    DegenerateRowWarning,
    DegenerateViewWarning,
    InvalidParameter,
    MalformedMeta,
    ShapeMismatch,
)


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
    def test_nonzeros_stored_twice_and_mixture_unchanged(self):
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
        # H, Ht and a third copy in the per-view graphs
        assert stored <= 0.75 * (csr_bytes(gs.H) + csr_bytes(gs.Ht) + csr_bytes(graphs))
        for S, built in zip(gs.graphs, graphs):
            assert_same_bits(S.toarray(), built.toarray())
        for alpha in (np.full(3, 1 / 3), np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5])):
            assert_same_bits(gs.mixture(alpha), mix_graphs(graphs, alpha))


class TestBuildAll:
    def test_single_view_matches_direct_call(self):
        ds = synth_blobs(50, 2, 1, [3], seed=0)
        an = select_anchors(ds, m=5, seed=0)
        gs = build_all(ds, an, k=2)
        direct = build_anchor_graph(ds.views[0], an.anchors[0], k=2)
        assert np.array_equal(gs.graphs[0].toarray(), direct.toarray())

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
    KEY = {"m": 4, "seed": 9, "digest": "d"}

    def test_round_trip(self, tmp_path):
        ds = synth_blobs(30, 2, 2, [2, 3], seed=0)
        anchor_set = select_anchors(ds, m=4, seed=9)
        save_anchor_set(anchor_set, tmp_path / "cache", self.KEY)
        back = load_anchor_set(tmp_path / "cache", self.KEY)
        for Ca, Cb in zip(anchor_set.anchors, back.anchors):
            assert np.array_equal(Ca, Cb)
        for k in (1, 2, 3):
            built, loaded = build_all(ds, anchor_set, k), build_all(ds, back, k)
            for Sa, Sb in zip(built.graphs, loaded.graphs):
                assert Sa.toarray().tobytes() == Sb.toarray().tobytes()
        for other in ({**self.KEY, "seed": 8}, {**self.KEY, "digest": "e"}):
            assert load_anchor_set(tmp_path / "cache", other) is None
        assert load_anchor_set(tmp_path / "empty", self.KEY) is None

    @pytest.mark.parametrize("meta", ["{not json", '{"n": 30}', "[]"])
    def test_malformed_meta_raises_typed_error(self, tmp_path, meta):
        ds = synth_blobs(30, 2, 2, [2, 3], seed=0)
        save_anchor_set(select_anchors(ds, m=4, seed=9), tmp_path / "cache", self.KEY)
        (tmp_path / "cache" / "meta.json").write_text(meta)
        with pytest.raises(MalformedMeta):
            load_anchor_set(tmp_path / "cache", self.KEY)

    def test_graph_set_shape_check(self):
        with pytest.raises(Exception):
            AnchorGraphSet(graphs=[np.ones((3, 2)), np.ones((4, 2))], k=1)
