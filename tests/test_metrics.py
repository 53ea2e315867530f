import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    accuracy_by_permutation,
    ari_from_counts,
    pair_counts_by_enumeration,
)

from anchorclust import metrics
from anchorclust.errors import InvalidParameter, LengthMismatch
from anchorclust.metrics import contingency, evaluate_all, pair_counts


def random_labelings(trials, max_n, max_c, seed):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, max_n + 1))
        cp = int(rng.integers(1, max_c + 1))
        ct = int(rng.integers(1, max_c + 1))
        yield rng.integers(0, cp, size=n), rng.integers(0, ct, size=n)


# ---------------------------------------------------------------- accuracy


class TestAccuracy:
    def test_identical(self):
        y = [0, 1, 2, 1, 0]
        assert evaluate_all(y, y)["acc"] == 1.0

    def test_relabeling_invariant(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert evaluate_all(pred, truth)["acc"] == 1.0

    def test_matches_permutation_oracle(self):
        for pred, truth in random_labelings(100, max_n=10, max_c=4, seed=0):
            acc = evaluate_all(pred, truth)["acc"]
            assert acc == accuracy_by_permutation(pred, truth)

    def test_permutation_optimum_up_to_six_clusters(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            pred = rng.integers(0, 6, size=18)
            truth = rng.integers(0, 6, size=18)
            acc = evaluate_all(pred, truth)["acc"]
            assert acc == accuracy_by_permutation(pred, truth)

    def test_rectangular(self):
        pred = [0, 1, 2, 3]
        truth = [0, 0, 1, 1]
        assert evaluate_all(pred, truth)["acc"] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate_all([0, 1], [0, 1, 2])

    def test_empty_labels(self):
        with pytest.raises(LengthMismatch, match="empty label vectors"):
            evaluate_all([], [])

    def test_table_above_the_cap_refused_before_allocation(self):
        # 20000 distinct ids a side would need a 2.98 GiB table
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="20000 predicted x 20000 true"):
                evaluate_all(np.arange(20000), np.arange(20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_cap_counts_cells(self, monkeypatch):
        monkeypatch.setattr(metrics, "CONTINGENCY_CELL_CAP", 12)
        assert contingency(np.arange(12) % 3, np.arange(12) % 4).shape == (3, 4)
        with pytest.raises(InvalidParameter, match="cap of 12 cells"):
            contingency(np.arange(13) % 3, np.arange(13) % 5)

    def test_many_predicted_ids_need_no_square_table(self):
        # 4000 singleton clusters against 10 classes: the matching runs on
        # the 10 x 4000 table, not on a 4000 x 4000 square (366 MiB)
        truth = np.arange(4000) % 10
        tracemalloc.start()
        try:
            assert evaluate_all(np.arange(4000), truth)["acc"] == 10 / 4000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------- nmi


class TestNmi:
    def test_identical_multi_cluster(self):
        score = evaluate_all([0, 1, 0, 1], [1, 0, 1, 0])["nmi"]
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_single_cluster_pred_zero(self):
        assert evaluate_all([0, 0, 0, 0], [0, 1, 2, 3])["nmi"] == 0.0

    def test_independent_partitions_zero(self):
        score = evaluate_all([0, 0, 1, 1], [0, 1, 0, 1])["nmi"]
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_both_trivial(self):
        assert evaluate_all([0, 0, 0], [5, 5, 5])["nmi"] == 1.0

    def test_hand_computed(self):
        # contingency [[2,0],[1,1]]: I = sum nij/n ln(n nij / (ri cj))
        pred = [0, 0, 1, 1]
        truth = [0, 0, 0, 1]
        n = 4
        mi = (2 / n) * np.log(n * 2 / (2 * 3)) + (1 / n) * np.log(n * 1 / (2 * 3)) + (
            1 / n
        ) * np.log(n * 1 / (2 * 1))
        h = -(0.5 * np.log(0.5) + 0.5 * np.log(0.5))
        ht = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        score = evaluate_all(pred, truth)["nmi"]
        assert score == pytest.approx(mi / np.sqrt(h * ht), rel=1e-12)


# ---------------------------------------------------------------- purity


class TestPurity:
    def test_identical(self):
        assert evaluate_all([0, 1, 1], [0, 1, 1])["purity"] == 1.0

    def test_single_cluster_balanced(self):
        assert evaluate_all([0, 0, 0, 0], [0, 1, 2, 3])["purity"] == 0.25

    def test_hand_count(self):
        assert evaluate_all([0, 0, 1, 1], [0, 1, 1, 1])["purity"] == 0.75


# ---------------------------------------------------------------- ari, pairs


class TestAri:
    def test_identical(self):
        assert evaluate_all([0, 1, 2, 0], [0, 1, 2, 0])["ari"] == 1.0

    def test_single_cluster_pred(self):
        assert evaluate_all([0, 0, 0, 0], [0, 0, 1, 1])["ari"] == 0.0

    def test_matches_pair_enumeration(self):
        for pred, truth in random_labelings(100, max_n=12, max_c=4, seed=1):
            counts = pair_counts_by_enumeration(pred, truth)
            assert evaluate_all(pred, truth)["ari"] == ari_from_counts(*counts)

    def test_symmetric(self):
        for pred, truth in random_labelings(30, max_n=12, max_c=3, seed=2):
            swapped = evaluate_all(truth, pred)["ari"]
            assert evaluate_all(pred, truth)["ari"] == pytest.approx(swapped, abs=1e-14)


class TestPairwise:
    def test_identical(self):
        scores = evaluate_all([0, 0, 1], [0, 0, 1])
        assert (scores["f_score"], scores["precision"]) == (1.0, 1.0)

    def test_all_singletons(self):
        scores = evaluate_all([0, 1, 2, 3], [0, 0, 1, 1])
        assert (scores["f_score"], scores["precision"]) == (0.0, 0.0)

    def test_matches_pair_enumeration(self):
        for pred, truth in random_labelings(100, max_n=12, max_c=4, seed=3):
            tp, pp, tq, _ = pair_counts_by_enumeration(pred, truth)
            precision = tp / pp if pp else 0.0
            recall = tp / tq if tq else 0.0
            f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            scores = evaluate_all(pred, truth)
            assert (scores["f_score"], scores["precision"]) == (f, precision)


# ---------------------------------------------------------------- shared


class TestContingency:
    def test_counts(self):
        counts = contingency([0, 0, 1, 1], [0, 1, 1, 1])
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [[1, 1], [0, 2]])
        assert int(counts.sum()) == 4

    def test_pair_counts_consistent(self):
        pred = [0, 0, 1, 1, 2]
        truth = [0, 1, 1, 1, 0]
        counts = pair_counts(contingency(pred, truth), len(pred))
        assert counts == pair_counts_by_enumeration(pred, truth)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=25
    ),
    shift_p=st.integers(1, 50),
    shift_t=st.integers(1, 50),
)
def test_all_metrics_relabel_invariant(labels, shift_p, shift_t):
    pred = np.array([p for p, _ in labels])
    truth = np.array([t for _, t in labels])
    base = evaluate_all(pred, truth)
    # renaming cluster ids must not move any score
    moved = evaluate_all(31 * pred + shift_p, 17 * truth + shift_t)
    for key in base:
        assert base[key] == pytest.approx(moved[key], abs=1e-12)


def test_evaluate_all_keys_ordered():
    keys = list(evaluate_all([0, 1], [0, 1]).keys())
    assert keys == ["acc", "nmi", "purity", "ari", "f_score", "precision"]
