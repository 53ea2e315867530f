import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorclust import dataset as dataset_mod
from anchorclust.dataset import (
    MultiViewDataset,
    load_dataset,
    load_labels_file,
    read_matrix_csv,
    remap_labels,
    save_dataset,
    synth_blobs,
    write_json,
    write_labels,
    write_matrix_csv,
    write_matrix_f64le,
    zscore,
)
from anchorclust.errors import (
    AnchorClustError,
    InvalidParameter,
    MalformedMeta,
    MissingFile,
    NonFiniteValue,
    ShapeMismatch,
)


def write_fixture(root, views, labels=None):
    """Hand-rolled dataset directory, independent of save_dataset."""
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, rows in enumerate(views):
        fname = f"v{i}.csv"
        (root / fname).write_text(
            "\n".join(",".join(str(x) for x in row) for row in rows) + "\n"
        )
        entries.append(
            {"name": f"v{i}", "file": fname, "dims": len(rows[0]), "format": "csv"}
        )
    meta = {"n": len(views[0]), "views": entries}
    if labels is not None:
        meta["labels"] = "y.txt"
        (root / "y.txt").write_text("\n".join(str(y) for y in labels) + "\n")
    (root / "meta.json").write_text(json.dumps(meta))
    return root


class TestLoad:
    def test_two_views_no_labels(self, tmp_path):
        views = [
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]],
            [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]],
        ]
        ds = load_dataset(write_fixture(tmp_path / "d", views))
        assert ds.n == 4
        assert ds.num_views == 2
        assert ds.labels is None
        assert np.array_equal(ds.views[0], np.array(views[0]))

    def test_row_count_mismatch(self, tmp_path):
        views = [
            [[1.0], [2.0], [3.0], [4.0]],
            [[1.0], [2.0], [3.0], [4.0], [5.0]],
        ]
        with pytest.raises(ShapeMismatch, match="v1"):
            load_dataset(write_fixture(tmp_path / "d", views))

    def test_missing_meta(self, tmp_path):
        with pytest.raises(MissingFile, match="meta.json"):
            load_dataset(tmp_path)

    def test_missing_view_file(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]])
        (root / "v0.csv").unlink()
        with pytest.raises(MissingFile, match="v0.csv"):
            load_dataset(root)

    def test_malformed_meta_json(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "meta.json").write_text("{not json")
        with pytest.raises(MalformedMeta):
            load_dataset(root)

    @pytest.mark.parametrize("value, kind", [("3", "str"), (True, "bool")])
    def test_meta_key_of_wrong_type(self, tmp_path, value, kind):
        root = tmp_path / "d"
        root.mkdir()
        (root / "meta.json").write_text(json.dumps({"n": value, "views": []}))
        with pytest.raises(MalformedMeta, match=f"key 'n' should be int, got {kind}"):
            load_dataset(root)

    def test_meta_missing_key(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        (root / "meta.json").write_text(json.dumps({"views": []}))
        with pytest.raises(MalformedMeta, match="'n'"):
            load_dataset(root)

    def test_non_finite_token(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]])
        (root / "v0.csv").write_text("1.0\nblah\n")
        with pytest.raises(NonFiniteValue, match="line 2"):
            load_dataset(root)

    def test_nan_rejected(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]])
        (root / "v0.csv").write_text("1.0\nnan\n")
        with pytest.raises(NonFiniteValue):
            load_dataset(root)

    def test_wrong_column_count(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0, 2.0], [3.0, 4.0]]])
        (root / "v0.csv").write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ShapeMismatch, match="line 2"):
            load_dataset(root)

    @pytest.mark.parametrize("text", [b"1.0\n2.0\n\xff\xfe", b"\xff1.0\n2.0\n"])
    def test_non_utf8_view(self, tmp_path, text):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]])
        (root / "v0.csv").write_bytes(text)
        with pytest.raises(NonFiniteValue, match="not UTF-8"):
            load_dataset(root)

    def test_non_utf8_labels(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]], labels=[0, 1])
        (root / "y.txt").write_bytes(b"0\n1\xff\n")
        with pytest.raises(NonFiniteValue, match="not UTF-8"):
            load_dataset(root)

    def test_non_utf8_meta(self, tmp_path):
        root = write_fixture(tmp_path / "d", [[[1.0], [2.0]]])
        with open(root / "meta.json", "ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(MalformedMeta):
            load_dataset(root)

    def test_labels_remapped_first_occurrence(self, tmp_path):
        views = [[[1.0], [2.0], [3.0], [4.0]]]
        root = write_fixture(tmp_path / "d", views, labels=[7, 3, 7, 9])
        ds = load_dataset(root)
        assert np.array_equal(ds.labels, [0, 1, 0, 2])

    def test_labels_length_checked(self, tmp_path):
        views = [[[1.0], [2.0], [3.0]]]
        root = write_fixture(tmp_path / "d", views, labels=[0, 1])
        with pytest.raises(ShapeMismatch, match="labels"):
            load_dataset(root)

    def test_f64le_view(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        X = np.arange(6.0).reshape(3, 2)
        X.astype("<f8").tofile(root / "v0.f64")
        meta = {
            "n": 3,
            "views": [{"name": "v0", "file": "v0.f64", "dims": 2, "format": "f64le"}],
        }
        (root / "meta.json").write_text(json.dumps(meta))
        ds = load_dataset(root)
        assert np.array_equal(ds.views[0], X)

    @pytest.mark.parametrize("fmt, n, dims, key", [("f64le", -1, -2, "n"), ("csv", 0, 1, "n"),
                                                  ("csv", 2, 0, "dims")])
    def test_n_and_dims_below_one(self, tmp_path, fmt, n, dims, key):
        # n = -1, dims = -2 once reached reshape(-1, -2) on two values
        root = tmp_path / "d"
        root.mkdir()
        fname = "v0.f64" if fmt == "f64le" else "v0.csv"
        if fmt == "f64le":
            np.array([1.0, 2.0]).astype("<f8").tofile(root / fname)
        else:
            (root / fname).write_text("1.0\n2.0\n")
        meta = {"n": n, "views": [{"name": "v0", "file": fname, "dims": dims, "format": fmt}]}
        (root / "meta.json").write_text(json.dumps(meta))
        value = n if key == "n" else dims
        with pytest.raises(MalformedMeta, match=f"key '{key}' should be >= 1, got {value}"):
            load_dataset(root)


# any JSON value, for a meta.json key or entry of the wrong kind
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4,
)


@st.composite
def dataset_directories(draw):
    """(meta.json object, {file name: bytes}): a well-formed directory of
    1-2 views and labels, each key, entry and file of which is dropped or
    replaced by random JSON or bytes now and then."""
    def odd():  # true about one time in ten
        return draw(st.sampled_from(range(10))) == 7

    def value(good):
        return draw(JUNK) if odd() else good

    def pick(good, bad):
        return draw(bad if odd() else good)

    n = pick(st.integers(1, 5), st.integers(-1, 0))
    rows = max(n, 0) + odd() - odd()
    meta, files = {}, {}
    for i in range(pick(st.integers(1, 2), st.just(0))):
        dims = pick(st.integers(1, 3), st.integers(-1, 0))
        fmt = pick(st.sampled_from(["csv", "f64le"]), st.sampled_from(["npy", "CSV"]))
        row = draw(st.lists(st.floats(width=32) | st.integers(-3, 3),
                            min_size=max(dims, 0), max_size=max(dims, 0)))
        X = [row] * max(rows, 0)
        name = f"v{i}.{fmt}"
        if fmt == "csv":
            files[name] = "".join(",".join(map(str, r)) + "\n" for r in X).encode()
        else:
            files[name] = np.array(X, dtype="<f8").tobytes()
        entry = {"name": f"view{i}", "file": name, "dims": dims, "format": fmt}
        meta.setdefault("views", []).append(
            value({k: value(v) for k, v in entry.items() if not odd()}))
    labels = draw(st.lists(st.integers(-2, 2) | st.floats(width=16), min_size=max(rows, 0),
                           max_size=max(rows, 0)))
    files["y.txt"] = "".join(f"{y}\n" for y in labels).encode()
    for key, good in [("n", n), ("views", meta.get("views", [])), ("labels", "y.txt")]:
        if not odd():
            meta[key] = value(good)
    for name in list(files):
        if odd():
            files[name] = draw(st.binary(max_size=40))
    return value(meta), files


class TestMalformedDirectories:
    @settings(max_examples=200, deadline=None)
    @given(directory=dataset_directories())
    def test_load_returns_or_raises_a_typed_error(self, directory):
        # meta.json with wrong kinds, missing keys, n or dims <= 0 and
        # unknown formats, over random view and label bytes: the load
        # either succeeds or raises one of the package's errors
        meta, files = directory
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "meta.json").write_text(json.dumps(meta))
            for name, body in files.items():
                (root / name).write_bytes(body)
            try:
                ds = load_dataset(root)
            except AnchorClustError:
                return
            assert ds.n == meta["n"] and ds.num_views == len(meta["views"])


def parse_outcome(parse, path, dims):
    """What a CSV parser makes of a file: its bits, or its typed error."""
    try:
        X = parse(path, dims)
    except AnchorClustError as exc:
        return type(exc).__name__, str(exc)
    return X.shape, X.tobytes()


TOKEN_FORMATS = [repr, "{:.25g}".format, "{:.5e}".format, "{:.17g}".format, str]


class TestCsvParse:
    """The C-parsed load against the line reader that it falls back to."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=24), st.integers(1, 4),
           st.sampled_from(TOKEN_FORMATS), st.sampled_from(["\n", "\r\n"]),
           st.booleans())
    def test_same_bits_as_line_reader(self, tmp_path_factory, values, dims, fmt,
                                      newline, last_newline):
        values = values * dims  # a multiple of dims long
        rows = [values[i:i + dims] for i in range(0, len(values), dims)]
        text = newline.join(",".join(fmt(x) for x in row) for row in rows)
        path = tmp_path_factory.mktemp("csv") / "v.csv"
        path.write_bytes((text + newline * last_newline).encode())
        got = parse_outcome(dataset_mod._parse_csv_matrix, path, dims)
        assert got == parse_outcome(dataset_mod._parse_csv_lines, path, dims)
        assert got[0] == (len(rows), dims)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, dims, outcome", [
        ("1,2\n3\n", 2, "ShapeMismatch"),                 # ragged row
        ("1,2\n  \n3,4\n", 2, (2, 2)),                   # whitespace-only line
        ("1_0,2\n", 2, (1, 2)),                           # float() takes underscores
        ("1,2\n#,3\n", 2, "NonFiniteValue"),              # no comment syntax
        ("1,2,\n", 2, "ShapeMismatch"),                   # trailing comma
        ("1,2\r\n3,4\r\n", 2, (2, 2)),                    # CRLF
        ("nan,1\n", 2, (1, 2)),                           # parsed; the dataset refuses it
        ("1,2,3\n4,5,6\n", 2, "ShapeMismatch"),           # every row too wide
        ("", 1, "ShapeMismatch"),                         # empty file
        ("\n\r\n \n", 1, "ShapeMismatch"),                 # blank lines only
    ])
    def test_malformed_case_ends_like_line_reader(self, tmp_path, text, dims, outcome):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode())
        got = parse_outcome(dataset_mod._parse_csv_matrix, path, dims)
        assert got == parse_outcome(dataset_mod._parse_csv_lines, path, dims)
        assert got[0] == outcome

    def test_well_formed_file_skips_line_reader(self, tmp_path, monkeypatch):
        X = np.random.default_rng(5).standard_normal((50, 3))
        write_matrix_csv(X, tmp_path / "v.csv")

        def refuse(path, dims):
            raise AssertionError("line reader used")

        monkeypatch.setattr(dataset_mod, "_parse_csv_lines", refuse)
        assert dataset_mod._parse_csv_matrix(tmp_path / "v.csv", 3).tobytes() == X.tobytes()


class TestSaveRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "f64le"])
    def test_random_round_trip_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(5)
        ds = MultiViewDataset(
            views=[rng.standard_normal((10, 3)), rng.standard_normal((10, 2))],
            labels=rng.integers(0, 3, size=10),
        )
        save_dataset(ds, tmp_path / "d", fmt=fmt)
        back = load_dataset(tmp_path / "d")
        assert back.n == ds.n
        for a, b in zip(ds.views, back.views):
            assert np.array_equal(a, b)
        assert np.array_equal(remap_labels(ds.labels), back.labels)
        assert back.view_names == ds.view_names

    def test_unknown_format_refused(self, tmp_path):
        ds = MultiViewDataset(views=[np.ones((2, 2))])
        with pytest.raises(InvalidParameter, match="format 'npy' not one of"):
            save_dataset(ds, tmp_path / "d", fmt="npy")
        assert not (tmp_path / "d").exists()

    def test_meta_layout_single_view_no_labels(self, tmp_path):
        ds = MultiViewDataset(views=[np.ones((2, 2))])
        save_dataset(ds, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        assert len(meta["views"]) == 1
        assert "labels" not in meta

    def test_three_views_listed_in_order(self, tmp_path):
        ds = MultiViewDataset(
            views=[np.full((2, 1), float(i)) for i in range(3)],
            view_names=["a", "b", "c"],
        )
        save_dataset(ds, tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        assert [v["name"] for v in meta["views"]] == ["a", "b", "c"]

    def test_f64le_view_written_without_a_copy(self, tmp_path):
        # the view's own buffer is written: a converted copy would add 100%
        # of the matrix to the peak
        X = np.random.default_rng(0).standard_normal((2000, 400))
        ds = MultiViewDataset(views=[X])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_dataset(ds, tmp_path / "d", fmt="f64le")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.01 * X.nbytes
        assert np.array_equal(load_dataset(tmp_path / "d").views[0], X)


class TestValidation:
    def test_needs_a_view(self):
        with pytest.raises(InvalidParameter):
            MultiViewDataset(views=[])

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(views=[np.ones((3, 2))], view_names=["a", "b"]), InvalidParameter,
         "2 view names for 1 views"),
        (dict(views=[np.ones(3)]), ShapeMismatch,
         r"view 'view0' \(index 0\): expected a 2-d matrix .* got shape \(3,\)"),
        (dict(views=[np.ones((3, 0))]), ShapeMismatch, r"got shape \(3, 0\)"),
        (dict(views=[np.ones((3, 2)), np.ones((4, 2))], view_names=["a", "b"]),
         ShapeMismatch, r"view 'b' \(index 1\): 4 rows, expected 3 \(row count of view 'a'\)"),
        (dict(views=[np.ones((3, 2))], labels=[0, 1]), ShapeMismatch,
         r"labels: length \(2,\), expected \(3,\)"),
        (dict(views=[np.ones((3, 2))], labels=np.zeros((3, 1))), ShapeMismatch,
         r"labels: length \(3, 1\), expected \(3,\)"),
    ])
    def test_inconsistent_parts_refused(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            MultiViewDataset(**kwargs)

    def test_unlabeled_has_no_class_count(self):
        assert MultiViewDataset(views=[np.ones((2, 2))]).num_classes is None

    @pytest.mark.parametrize("labels, message", [
        ([1.5, 1.2, 2.0], "entry 0 is 1.5, not an int64 integer"),
        ([1.0, np.nan, 2.0], "entry 1 is nan,"),
        ([np.inf, 1.0, 2.0], "entry 0 is inf,"),
        ([1.0, 2.0, -np.inf], "entry 2 is -inf,"),
        ([0.0, 2.0**63, 1.0], r"entry 1 is 9.223372036854776e\+18,"),
        (np.array([0, 2**63, 1], dtype=np.uint64), "entry 1 is 9223372036854775808,"),
        (["a", "b", "c"], "<U1 entries are not integers"),
        ([1 + 0j, 2, 3], "complex128 entries are not integers"),
    ])
    def test_non_integer_labels_refused(self, labels, message):
        # once cast silently: 1.5 and 1.2 became one class, NaN became INT64_MIN
        with pytest.raises(NonFiniteValue, match=f"labels: {message}"):
            MultiViewDataset(views=[np.ones((3, 1))], labels=labels)
        with pytest.raises(NonFiniteValue, match=f"labels: {message}"):
            remap_labels(labels)

    @pytest.mark.parametrize("labels, classes", [
        ([3.0, 7.0, 9.0], 3), ([3, 7, 9], 3), ([-1, 0, 1], 3), ([5, 5, 5], 1),
        ([-(2.0**63), 0.0, 0.0], 2), (np.array([2, 0, 2], dtype=np.uint8), 2),
        ([True, False, True], 2),
    ])
    def test_integer_labels_kept_and_counted(self, labels, classes):
        # integral floats are how MATLAB stores labels; the class count is
        # the number of distinct labels, not max + 1
        ds = MultiViewDataset(views=[np.ones((3, 1))], labels=labels)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [int(y) for y in labels]
        assert ds.num_classes == classes
        assert remap_labels(labels).tolist() == remap_labels(ds.labels).tolist()

    def test_non_finite_located(self):
        X = np.ones((3, 2))
        X[1, 1] = np.inf
        with pytest.raises(NonFiniteValue, match="row 1, column 1"):
            MultiViewDataset(views=[X])

    def test_views_read_only(self):
        ds = MultiViewDataset(views=[np.ones((2, 2))])
        with pytest.raises(ValueError):
            ds.views[0][0, 0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        # arrays that need no conversion are shared, not copied, and only
        # the dataset's own views of them are frozen
        X = np.ones((3, 2))
        y = np.array([0, 1, 1], dtype=np.int64)
        ds = MultiViewDataset(views=[X], labels=y)
        assert np.shares_memory(ds.views[0], X)
        assert np.shares_memory(ds.labels, y)
        assert not ds.views[0].flags.writeable
        assert not ds.labels.flags.writeable
        X[0, 0] = 5.0
        y[0] = 1
        assert X.flags.writeable and y.flags.writeable


class TestSynthBlobs:
    def test_same_seed_identical(self):
        a = synth_blobs(30, 3, 2, [2, 3], seed=9)
        b = synth_blobs(30, 3, 2, [2, 3], seed=9)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va, vb)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_zero_rows_sit_on_centers(self):
        # two samples per cluster collapse onto one point when noise is 0
        ds = synth_blobs(6, 3, 1, [4], noise=0.0, seed=2)
        X = ds.views[0]
        for j in range(3):
            rows = X[ds.labels == j]
            assert np.array_equal(rows[0], rows[1])

    def test_n_equals_c_distinct_centers(self):
        ds = synth_blobs(3, 3, 2, [2, 2], noise=0.0, seed=0)
        assert np.array_equal(ds.labels, [0, 1, 2])
        assert len(np.unique(ds.views[0], axis=0)) == 3

    def test_balanced_sizes(self):
        ds = synth_blobs(10, 3, 1, [2], seed=0)
        assert sorted(np.bincount(ds.labels).tolist()) == [3, 3, 4]

    def test_nearest_center_recovers_labels(self):
        ds = synth_blobs(300, 3, 2, [5, 4], separation=10, noise=0.1, seed=4)
        for X in ds.views:
            centers = np.stack([X[ds.labels == j].mean(0) for j in range(3)])
            d2 = ((X[:, None, :] - centers[None]) ** 2).sum(-1)
            agree = (np.argmin(d2, axis=1) == ds.labels).mean()
            assert agree >= 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, c=3, V=1, dims=[2]),
            dict(n=5, c=2, V=2, dims=[2]),
            dict(n=5, c=2, V=1, dims=[2], separation=0.0),
            dict(n=5, c=2, V=1, dims=[2], noise=-1.0),
            dict(n=5, c=2, V=2, dims=[2, 0]),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameter):
            synth_blobs(**kwargs)


class TestHelpers:
    def test_matrix_csv_round_trip(self, tmp_path):
        X = np.random.default_rng(1).standard_normal((4, 3))
        write_matrix_csv(X, tmp_path / "m.csv")
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), X)

    @pytest.mark.parametrize("text", ["\n1,2\n3,4\n", " \n\n1,2\n3,4"])
    def test_matrix_csv_width_from_first_non_blank_line(self, tmp_path, text):
        (tmp_path / "m.csv").write_text(text)
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", [b"1,2\n3,4\n\xff\xfe", b"\xff1,2\n3,4\n"])
    def test_matrix_csv_non_utf8(self, tmp_path, text):
        (tmp_path / "m.csv").write_bytes(text)
        with pytest.raises(NonFiniteValue, match="not UTF-8"):
            read_matrix_csv(tmp_path / "m.csv")

    def test_labels_file_non_utf8(self, tmp_path):
        (tmp_path / "y.txt").write_bytes(b"\xfe5\n2\n")
        with pytest.raises(NonFiniteValue, match="not UTF-8"):
            load_labels_file(tmp_path / "y.txt")

    def test_labels_file_round_trip(self, tmp_path):
        (tmp_path / "y.txt").write_text("5\n5\n2\n8\n")
        assert np.array_equal(load_labels_file(tmp_path / "y.txt"), [0, 0, 1, 2])

    def test_writers_round_trip_through_their_readers(self, tmp_path):
        write_labels(np.array([5, 5, -2, 8]), tmp_path / "y.txt")
        assert (tmp_path / "y.txt").read_text() == "5\n5\n-2\n8\n"
        assert np.array_equal(load_labels_file(tmp_path / "y.txt"), [0, 0, 1, 2])
        X = np.random.default_rng(2).standard_normal((3, 4))
        write_matrix_f64le(X.T, tmp_path / "x.f64")
        assert np.array_equal(np.fromfile(tmp_path / "x.f64", dtype="<f8").reshape(4, 3), X.T)
        obj = {"n": 3, "name": "vue \u00e9", "views": [1.5, None, True]}
        write_json(obj, tmp_path / "o.json")
        assert dataset_mod.read_json(tmp_path / "o.json", MalformedMeta) == obj

    def test_zscore(self):
        rng = np.random.default_rng(0)
        ds = MultiViewDataset(views=[rng.normal(3.0, 2.0, size=(50, 4))])
        out = zscore(ds)
        assert np.allclose(out.views[0].mean(0), 0, atol=1e-12)
        assert np.allclose(out.views[0].std(0), 1, atol=1e-12)

    def test_zscore_constant_feature(self):
        X = np.ones((5, 2))
        X[:, 1] = np.arange(5)
        ds = MultiViewDataset(views=[X])
        with pytest.warns(UserWarning, match="constant"):
            out = zscore(ds)
        assert np.all(out.views[0][:, 0] == 0.0)
