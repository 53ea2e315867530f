import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from anchorclust.dataset import load_dataset, remap_labels

ROOT = Path(__file__).resolve().parents[1]


def convert(tmp_path, views, *flags, **arrays):
    """Save views as a 1 x V cell array "X" plus any other arrays (or, for
    bytes, write them as the file), and run scripts/convert_mat_dataset.py
    on it into tmp_path / "out" with flags."""
    if isinstance(views, bytes):
        (tmp_path / "in.mat").write_bytes(views)
    else:
        cells = np.empty((1, len(views)), dtype=object)
        cells[0, :] = views
        scipy.io.savemat(tmp_path / "in.mat", {"X": cells, **arrays})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "convert_mat_dataset.py"),
                           str(tmp_path / "in.mat"), str(tmp_path / "out"), *flags],
                          capture_output=True, text=True, env=env)


def test_convert_mat_dataset(tmp_path):
    # a 2-view cell array, view 1 stored d x n, labels from {3, 7, 9}
    rng = np.random.default_rng(0)
    X0, X1 = rng.standard_normal((30, 4)), rng.standard_normal((30, 6))
    raw = rng.choice([3, 7, 9], size=30)
    done = convert(tmp_path, [X0, X1.T], Y=raw.reshape(-1, 1))
    assert done.returncode == 0, done.stderr
    ds = load_dataset(tmp_path / "out")
    assert [X.shape for X in ds.views] == [(30, 4), (30, 6)]
    assert np.array_equal(ds.views[0], X0)
    assert np.array_equal(ds.views[1], X1)
    assert set(ds.labels.tolist()) == {0, 1, 2}
    assert np.array_equal(ds.labels, remap_labels(raw))


def test_unlabeled_n_is_the_size_every_view_shares(tmp_path):
    # no labels and view 0 stored d x n: n is 30, the one size on an axis
    # of both views, not view 0's first axis
    rng = np.random.default_rng(1)
    X0, X1 = rng.standard_normal((30, 4)), rng.standard_normal((30, 6))
    done = convert(tmp_path, [X0.T, X1])
    assert done.returncode == 0, done.stderr
    ds = load_dataset(tmp_path / "out")
    assert [X.shape for X in ds.views] == [(30, 4), (30, 6)]
    assert np.array_equal(ds.views[0], X0)
    assert np.array_equal(ds.views[1], X1)
    assert ds.labels is None


def test_view_of_the_wrong_size_exits_3(tmp_path):
    rng = np.random.default_rng(2)
    done = convert(tmp_path, [rng.standard_normal((30, 4)), rng.standard_normal((29, 6))],
                   Y=rng.integers(0, 3, size=(30, 1)))
    assert done.returncode == 3
    assert done.stderr.startswith("data error [ShapeMismatch]: ")
    assert "Traceback" not in done.stderr


def test_integral_float_labels_accepted(tmp_path):
    # MATLAB stores labels as doubles; an integral one keeps its value
    X = np.random.default_rng(3).standard_normal((6, 2))
    done = convert(tmp_path, [X], Y=np.array([[3.0], [7.0], [9.0], [3.0], [7.0], [9.0]]))
    assert done.returncode == 0, done.stderr
    assert load_dataset(tmp_path / "out").labels.tolist() == [0, 1, 2, 0, 1, 2]


SIX = np.arange(12.0).reshape(6, 2)


@pytest.mark.parametrize("views, flags, arrays, status, line", [
    (b"this is not a mat\n", (), {}, 3,
     "data error [MalformedMeta]: {mat}: unreadable .mat file (MatReadError: "),
    ([SIX, "abc"], (), {}, 3,
     "data error [NonFiniteValue]: view 1: <U3 entries are not numbers"),
    ([SIX], (), {"Y": np.array([1.5, 1.2, 2, 2, 3, 3])}, 3,
     "data error [NonFiniteValue]: labels: entry 0 is 1.5, not an int64 integer"),
    ([SIX], (), {"Y": np.array([1, np.nan, 2, 2, 3, 3])}, 3,
     "data error [NonFiniteValue]: labels: entry 1 is nan, not an int64 integer"),
    ([SIX], ("--views-key", "W"), {}, 2,
     "config error [MalformedConfig]: key 'W' not in {mat}; found ['X']"),
])
def test_malformed_input_exits_with_one_line(tmp_path, views, flags, arrays, status, line):
    done = convert(tmp_path, views, *flags, **arrays)
    assert done.returncode == status
    assert done.stderr.startswith(line.format(mat=tmp_path / "in.mat"))
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
