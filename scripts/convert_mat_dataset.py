#!/usr/bin/env python3
"""Convert a MATLAB .mat multi-view file into the dataset directory layout.

Expects a cell array of per-view feature matrices plus a label vector,
the common distribution format for multi-view clustering corpora:

    python scripts/convert_mat_dataset.py coil.mat data/coil \\
        --views-key X --labels-key Y

The sample count n is the label vector's length when there are labels,
and otherwise the one size that every view has on one of its axes (view
0's first axis when no size or more than one does). A view whose first
axis is not n but whose second is, stored d x n, is transposed; pass
--transpose to transpose every view. Requires scipy (v7.3 HDF5 .mat
files are not supported).

Exit codes, each error with the stderr line the anchorclust command
prints:

    0  success
    2  a --views-key that the file does not hold (MalformedConfig)
    3  a .mat file that cannot be opened or parsed; a view that is not a
       numeric matrix; a label that is not an integer (NaN, inf or
       fractional); a view or label vector whose size disagrees with n
"""

from __future__ import annotations

import argparse

import numpy as np
import scipy.io

from anchorclust import MultiViewDataset, save_dataset
from anchorclust.cli import report_error
from anchorclust.dataset import VIEW_FORMATS, remap_labels
from anchorclust.errors import (
    AnchorClustError,
    MalformedConfig,
    MalformedMeta,
    NonFiniteValue,
    io_errors,
)


def extract_views(obj):
    """Flatten a MATLAB cell array into a list of per-view matrices."""
    if hasattr(obj, "toarray"):
        return [obj]
    arr = np.asarray(obj)
    if arr.dtype == object:
        return list(arr.ravel())
    return [arr]


def sample_count(views, labels) -> int:
    """The label count, else the one size on an axis of every view, else
    view 0's first axis."""
    if labels is not None:
        return len(labels)
    common = set(views[0].shape).intersection(*(X.shape for X in views[1:]))
    return common.pop() if len(common) == 1 else views[0].shape[0]


def convert(args) -> None:
    with io_errors(f"reading {args.mat_file}"):
        try:
            mat = scipy.io.loadmat(args.mat_file)
        except OSError:
            raise
        except Exception as exc:  # scipy's parser fails in many ways on bad bytes
            raise MalformedMeta(f"{args.mat_file}: unreadable .mat file "
                                f"({type(exc).__name__}: {exc})") from None
    if args.views_key not in mat:
        usable = [k for k in mat if not k.startswith("__")]
        raise MalformedConfig(f"key {args.views_key!r} not in {args.mat_file}; "
                              f"found {usable}")
    views = []
    for i, X in enumerate(extract_views(mat[args.views_key])):
        X = X.toarray() if hasattr(X, "toarray") else np.asarray(X)
        if X.dtype.kind not in "biuf":
            raise NonFiniteValue(f"view {i}: {X.dtype} entries are not numbers")
        views.append(X)

    labels = None
    if args.labels_key in mat:
        labels = remap_labels(np.asarray(mat[args.labels_key]).ravel())

    n = sample_count(views, labels)
    fixed = []
    for i, X in enumerate(views):
        if X.ndim == 2 and (args.transpose or (X.shape[0] != n and X.shape[1] == n)):
            X = X.T
        fixed.append(np.ascontiguousarray(X, dtype=np.float64))
        print(f"view {i}: {fixed[-1].shape}")

    ds = MultiViewDataset(views=fixed, labels=labels)
    save_dataset(ds, args.output_dir, fmt=args.format)
    print(f"wrote {args.output_dir} (n={ds.n}, V={ds.num_views}"
          + (f", c={ds.num_classes})" if labels is not None else ")"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mat_file")
    parser.add_argument("output_dir")
    parser.add_argument("--views-key", default="X")
    parser.add_argument("--labels-key", default="Y")
    parser.add_argument("--transpose", action="store_true",
                        help="views are stored as d x n")
    parser.add_argument("--format", choices=VIEW_FORMATS, default="f64le")
    try:
        convert(parser.parse_args())
    except AnchorClustError as exc:
        return report_error(exc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
