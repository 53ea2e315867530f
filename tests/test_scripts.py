import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.io

from anchorclust.dataset import load_dataset, remap_labels

ROOT = Path(__file__).resolve().parents[1]


def test_convert_mat_dataset(tmp_path):
    # a 2-view cell array, view 1 stored d x n, labels from {3, 7, 9}
    rng = np.random.default_rng(0)
    X0, X1 = rng.standard_normal((30, 4)), rng.standard_normal((30, 6))
    raw = rng.choice([3, 7, 9], size=30)
    cells = np.empty((1, 2), dtype=object)
    cells[0, 0], cells[0, 1] = X0, X1.T
    scipy.io.savemat(tmp_path / "two.mat", {"X": cells, "Y": raw.reshape(-1, 1)})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "convert_mat_dataset.py"),
                    str(tmp_path / "two.mat"), str(tmp_path / "out")],
                   check=True, capture_output=True, env=env)
    ds = load_dataset(tmp_path / "out")
    assert [X.shape for X in ds.views] == [(30, 4), (30, 6)]
    assert np.array_equal(ds.views[0], X0)
    assert np.array_equal(ds.views[1], X1)
    assert set(ds.labels.tolist()) == {0, 1, 2}
    assert np.array_equal(ds.labels, remap_labels(raw))
