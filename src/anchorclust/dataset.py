"""Multi-view dataset container, on-disk format, and synthetic data.

A dataset directory holds one ``meta.json`` plus the files it declares::

    meta.json    {"n": int,
                  "views": [{"name": str, "file": str, "dims": int,
                             "format": "csv" | "f64le"}, ...],
                  "labels": "labels.txt"}          # optional key
    view files   csv: one sample per row, comma separated, '.' decimal
                 point, no header.
                 f64le: raw row-major little-endian float64, no header,
                 row count inferred from meta.
    labels file  one integer per line, n lines.

Loaded matrices are float64; labels are remapped to contiguous 0-based
integers in first-occurrence order, since downstream metrics only depend
on the partition. A dataset's views and labels are read-only views, so an
array it shares with its caller stays writeable for the caller.

Each file format, JSON included, has its one reader and one writer here;
a writer leaves naming a failed write to the caller's io_errors block.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InvalidParameter,
    MalformedMeta,
    NonFiniteValue,
    ShapeMismatch,
    io_errors,
)

VIEW_FORMATS = ("csv", "f64le")


@dataclass(frozen=True)
class MultiViewDataset:
    """V feature matrices over the same n samples, optional ground truth."""

    views: list[np.ndarray]
    labels: np.ndarray | None = None
    view_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.views:
            raise InvalidParameter("dataset needs at least one view")
        # views, so freezing them below leaves the caller's arrays writeable
        views = [np.ascontiguousarray(v, dtype=np.float64).view() for v in self.views]
        names = list(self.view_names) or [f"view{i}" for i in range(len(views))]
        if len(names) != len(views):
            raise InvalidParameter(
                f"{len(names)} view names for {len(views)} views"
            )
        n = views[0].shape[0]
        for i, (name, X) in enumerate(zip(names, views)):
            if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
                raise ShapeMismatch(
                    f"view '{name}' (index {i}): expected a 2-d matrix with "
                    f"n >= 1 and d >= 1, got shape {X.shape}"
                )
            if X.shape[0] != n:
                raise ShapeMismatch(
                    f"view '{name}' (index {i}): {X.shape[0]} rows, "
                    f"expected {n} (row count of view '{names[0]}')"
                )
            if not np.isfinite(X).all():
                r, c = np.argwhere(~np.isfinite(X))[0]
                raise NonFiniteValue(
                    f"view '{name}' (index {i}): non-finite entry at "
                    f"row {r}, column {c}"
                )
            X.flags.writeable = False
        labels = self.labels
        if labels is not None:
            labels = np.ascontiguousarray(_int_labels(labels)).view()
            if labels.ndim != 1 or labels.shape[0] != n:
                raise ShapeMismatch(f"labels: length {labels.shape}, expected ({n},)")
            labels.flags.writeable = False
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "view_names", names)

    @property
    def n(self) -> int:
        return self.views[0].shape[0]

    @property
    def num_views(self) -> int:
        return len(self.views)

    @property
    def num_classes(self) -> int | None:
        return None if self.labels is None else int(np.unique(self.labels).size)


def _int_labels(labels) -> np.ndarray:
    """labels as int64. Float labels (MATLAB's) must be integers: a NaN, an
    infinity, a fraction or a number outside int64 raises NonFiniteValue."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf":
        raise NonFiniteValue(f"labels: {labels.dtype} entries are not integers")
    if labels.dtype.kind in "uf":  # an int64 array cannot hold a bad label
        ok = (labels >= -(2**63)) & (labels < 2**63) & (labels == np.trunc(labels))
        if not ok.all():
            i = int(np.argmin(ok))
            raise NonFiniteValue(f"labels: entry {i} is {labels.flat[i]}, not an int64 integer")
    return labels.astype(np.int64, copy=False)


def remap_labels(raw: np.ndarray) -> np.ndarray:
    """Map integer labels (_int_labels) to 0..c-1, first occurrence first."""
    uniq, first, inverse = np.unique(_int_labels(raw), return_index=True, return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inverse]


def _parse_csv_matrix(path: Path, dims: int | None) -> np.ndarray:
    """Parse a view CSV with numpy's C reader, which gives the same bits
    as float() per token. A file it refuses, finds empty or reads at
    another width goes to the line reader, which accepts what float()
    accepts (underscores, whitespace-only lines) and raises the typed,
    line-numbered errors. A blank file skips loadtxt and its no-data
    warning. dims None takes the width of the first non-blank line."""
    with io_errors(f"reading {path}"):
        with open(path, "rb") as fh:
            blank = not any(line.strip() for line in fh)
        if not blank:
            try:
                X = np.loadtxt(path, delimiter=",", dtype=np.float64,
                               comments=None, ndmin=2, encoding="utf-8")
            except ValueError:
                pass
            else:
                if X.shape[0] and dims in (None, X.shape[1]):
                    return X
    return _parse_csv_lines(path, dims)


def _text_lines(path: Path):
    """(line number, stripped line) for each non-blank line of a UTF-8
    text file; bytes that are not UTF-8 raise NonFiniteValue."""
    try:
        with io_errors(f"reading {path}"), open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise NonFiniteValue(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_csv_lines(path: Path, dims: int | None) -> np.ndarray:
    rows = []
    for lineno, line in _text_lines(path):
        tokens = line.split(",")
        if dims is None:
            dims = len(tokens)
        if len(tokens) != dims:
            raise ShapeMismatch(
                f"{path}: line {lineno} has {len(tokens)} columns, "
                f"meta declares dims={dims}"
            )
        row = []
        for token in tokens:
            try:
                row.append(float(token))
            except ValueError:
                raise NonFiniteValue(
                    f"{path}: line {lineno}: {token!r} is not a decimal real"
                ) from None
        rows.append(row)
    if not rows:
        raise ShapeMismatch(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=np.float64)


def _parse_f64le_matrix(path: Path, n: int, dims: int) -> np.ndarray:
    with io_errors(f"reading {path}"):
        data = np.fromfile(path, dtype="<f8")
    if data.size != n * dims:
        raise ShapeMismatch(
            f"{path}: {data.size} float64 values, expected n*dims = {n}*{dims}"
        )
    return data.reshape(n, dims)


def json_value(value, kind: type, where: str, key: str, error: type[Exception]):
    """A JSON value as a kind: an int stands for a float, a bool only for a bool."""
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise error(f"{where}: key '{key}' should be {kind.__name__}, "
                    f"got {type(value).__name__}")
    return value


def _require(meta: dict, key: str, kind, where: str, least: int | None = None):
    """meta[key] read as a kind (json_value) and, given least, >= least."""
    if key not in meta:
        raise MalformedMeta(f"{where}: missing key '{key}'")
    value = json_value(meta[key], kind, where, key, MalformedMeta)
    if least is not None and value < least:
        raise MalformedMeta(f"{where}: key '{key}' should be >= {least}, got {value}")
    return value


def read_json(path: Path, malformed: type[Exception]) -> dict:
    """The JSON object in a UTF-8 file. A failed open or read raises
    MissingFile or IoError (errors.io_errors); text that is not UTF-8
    JSON, or whose top level is not an object, raises malformed."""
    try:
        with io_errors(f"reading {path}"), open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except ValueError as exc:
        raise malformed(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise malformed(f"{path}: top level must be an object")
    return value


def load_dataset(root_path) -> MultiViewDataset:
    """Load and validate a dataset directory (see module docstring for layout)."""
    root = Path(root_path)
    meta_path = root / "meta.json"
    meta = read_json(meta_path, MalformedMeta)

    n = _require(meta, "n", int, str(meta_path), least=1)
    entries = _require(meta, "views", list, str(meta_path))
    if not entries:
        raise MalformedMeta(f"{meta_path}: 'views' list is empty")

    views, names = [], []
    for i, entry in enumerate(entries):
        where = f"{meta_path}: views[{i}]"
        if not isinstance(entry, dict):
            raise MalformedMeta(f"{where}: expected an object")
        name = _require(entry, "name", str, where)
        fname = _require(entry, "file", str, where)
        dims = _require(entry, "dims", int, where, least=1)
        fmt = _require(entry, "format", str, where)
        if fmt not in VIEW_FORMATS:
            raise MalformedMeta(
                f"{where}: format {fmt!r} not one of {VIEW_FORMATS}"
            )
        fpath = root / fname
        X = (_parse_csv_matrix(fpath, dims) if fmt == "csv"
             else _parse_f64le_matrix(fpath, n, dims))
        if X.shape[0] != n:
            raise ShapeMismatch(
                f"{fpath}: {X.shape[0]} rows, meta declares n={n}"
            )
        views.append(X)
        names.append(name)

    labels = None
    if "labels" in meta:
        lname = _require(meta, "labels", str, str(meta_path))
        labels = load_labels_file(root / lname, expected_n=n)

    return MultiViewDataset(views=views, labels=labels, view_names=names)


def load_labels_file(path, expected_n: int | None = None) -> np.ndarray:
    """Read one integer per line and remap to contiguous 0-based labels."""
    path = Path(path)
    raw = []
    for lineno, line in _text_lines(path):
        try:
            raw.append(int(line))
            if not -(2**63) <= raw[-1] < 2**63:
                raise ValueError("outside the int64 range")
        except ValueError:
            raise NonFiniteValue(
                f"{path}: line {lineno}: {line!r} is not an int64 label"
            ) from None
    if expected_n is not None and len(raw) != expected_n:
        raise ShapeMismatch(
            f"{path}: {len(raw)} labels, expected n={expected_n}"
        )
    return remap_labels(np.asarray(raw, dtype=np.int64))


def save_dataset(ds: MultiViewDataset, root_path, fmt: str = "csv") -> None:
    """Write a dataset directory such that load_dataset reproduces it exactly."""
    if fmt not in VIEW_FORMATS:
        raise InvalidParameter(f"format {fmt!r} not one of {VIEW_FORMATS}")
    ext, write = ("csv", write_matrix_csv) if fmt == "csv" else ("f64", write_matrix_f64le)
    root = Path(root_path)
    with io_errors(f"writing dataset under {root}"):
        root.mkdir(parents=True, exist_ok=True)
        entries = []
        for i, (name, X) in enumerate(zip(ds.view_names, ds.views)):
            write(X, root / f"view{i}.{ext}")
            entries.append({"name": name, "file": f"view{i}.{ext}",
                            "dims": X.shape[1], "format": fmt})
        meta = {"n": ds.n, "views": entries}
        if ds.labels is not None:
            meta["labels"] = "labels.txt"
            write_labels(ds.labels, root / "labels.txt")
        write_json(meta, root / "meta.json")


def write_labels(labels, path) -> None:
    """Write an integer array one entry per line, as load_labels_file
    reads, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{y}\n" for y in labels.tolist()))


def write_matrix_f64le(X, path) -> None:
    """Write raw row-major little-endian float64, as _parse_f64le_matrix
    reads; a little-endian float64 array is written without a copy."""
    np.asarray(X, dtype="<f8").tofile(path)


def write_json(obj, path) -> None:
    """Write indented UTF-8 JSON, as read_json reads."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def write_matrix_csv(X: np.ndarray, path) -> None:
    """Write a matrix as header-less CSV; repr round-trips float64 exactly."""
    X = np.asarray(X, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(",".join(repr(x) for x in row.tolist()))
            fh.write("\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a header-less CSV matrix, inferring the column count from its
    first non-blank line."""
    return _parse_csv_matrix(Path(path), dims=None)


def synth_blobs(
    n: int,
    c: int,
    V: int,
    dims: list[int],
    separation: float = 10.0,
    noise: float = 0.1,
    seed: int = 0,
) -> MultiViewDataset:
    """Gaussian blob views sharing one balanced labeling.

    Each view draws its own c centers from separation * N(0, I) and adds
    isotropic noise; cluster sizes differ by at most one. Deterministic
    per seed.
    """
    if not (n >= c >= 1):
        raise InvalidParameter(f"need n >= c >= 1, got n={n}, c={c}")
    if V != len(dims):
        raise InvalidParameter(f"V={V} but {len(dims)} dims given")
    if any(d < 1 for d in dims):
        raise InvalidParameter(f"all dims must be >= 1, got {dims}")
    if separation <= 0:
        raise InvalidParameter(f"separation must be > 0, got {separation}")
    if noise < 0:
        raise InvalidParameter(f"noise must be >= 0, got {noise}")

    rng = np.random.default_rng(seed)
    base, extra = divmod(n, c)
    sizes = [base + (1 if j < extra else 0) for j in range(c)]
    labels = np.repeat(np.arange(c, dtype=np.int64), sizes)

    views = []
    for d in dims:
        centers = separation * rng.standard_normal((c, d))
        X = centers[labels]
        if noise > 0:
            X = X + noise * rng.standard_normal((n, d))
        views.append(X)
    return MultiViewDataset(views=views, labels=labels)


def zscore(ds: MultiViewDataset) -> MultiViewDataset:
    """Per-feature standardization; constant features are mapped to zero."""
    views = []
    for X in ds.views:
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd_safe = np.where(sd > 0, sd, 1.0)
        Xs = (X - mu) / sd_safe
        if (sd == 0).any():
            warnings.warn(
                f"{int((sd == 0).sum())} constant feature(s) mapped to zero",
                stacklevel=2,
            )
            Xs[:, sd == 0] = 0.0
        views.append(Xs)
    return MultiViewDataset(views=views, labels=ds.labels, view_names=ds.view_names)
