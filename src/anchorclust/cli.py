"""Command-line front end.

Subcommands:
    fit                cluster a dataset directory, write labels + reports
    evaluate           score a predictions file against a labels file
    reconstruct-graph  expand an anchor graph to a full sample graph
    sweep              grid-search (m, beta, gamma) over one dataset

A run's settings are the fields of RunConfig. Each is a flag (the field
with - for _) and a config-file key, except dataset and output_dir, which
the required arguments set. They come from built-in defaults, then an
optional named preset, then an optional JSON config file, then explicit
flags, in that order. A setting that no dataset can make valid, or that
would never take effect (a sweep's --beta), is rejected before the load.

A sweep loads the dataset once and builds anchor graphs once per m; its
(beta, gamma) cells share them and are solved in ANCHORCLUST_WORKERS
processes (an integer >= 1; default 1, this process).

Exit codes: 0 success, else the exit_status of the error's category in
errors.py: 2 config, 3 data (file reads and writes included), 4 numerical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import anchors as anchors_mod
from . import dataset as dataset_mod
from . import graph_tools, metrics, solver
from .errors import (
    AnchorClustError,
    ConfigError,
    DataError,
    InvalidParameter,
    MalformedConfig,
    MalformedMeta,
    MissingFile,
    NumericalBreakdown,
    io_errors,
)

PRESETS = {
    "coil": {"m": 35, "beta": 0.3, "gamma": 0.01},
    "wiki": {"m": 30, "beta": 0.1, "gamma": 0.1},
    "usps": {"m": 40, "beta": 0.3, "gamma": 0.1},
    "reuters": {"m": 15, "beta": 0.8, "gamma": 0.0001},
    "noisymnist": {"m": 100, "beta": 0.2, "gamma": 1.0},
    "xmedia": {"m": 40, "beta": 0.1, "gamma": 1.0},
    "cifar10": {"m": 35, "beta": 1.0, "gamma": 0.001},
    "cifar100": {"m": 150, "beta": 0.4, "gamma": 0.1},
    "mnist": {"m": 30, "beta": 0.2, "gamma": 0.1},
}

DEFAULT_K = 5

ANCHOR_KEY_FILE = "anchor_key.json"


@dataclass
class RunConfig:
    """Resolved settings of one fit run: the config-file keys and flags."""

    dataset: str
    output_dir: str
    c: int | None = None
    m: int | None = None
    k: int = DEFAULT_K
    seed: int = 0
    beta: float = solver.SolverConfig.beta
    gamma: float = solver.SolverConfig.gamma
    rel_tol: float = solver.SolverConfig.rel_tol
    max_iters: int = solver.SolverConfig.max_iters
    normalize: bool = False
    cache_graphs: bool = False
    save_graph: bool = False


# each setting's value type, X for an annotation X | None
_FIELD_KINDS = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def _apply_mapping(cfg: RunConfig, mapping: dict, source: str) -> None:
    for key, value in mapping.items():
        if key not in _FIELD_KINDS:
            raise MalformedConfig(f"{source}: unknown key {key!r}")
        setattr(cfg, key, dataset_mod.json_value(value, _FIELD_KINDS[key], source, key,
                                                 MalformedConfig))


def _solver_config(cfg: RunConfig, c: int) -> solver.SolverConfig:
    return solver.SolverConfig(c=c, beta=cfg.beta, gamma=cfg.gamma,
                               max_iters=cfg.max_iters, rel_tol=cfg.rel_tol,
                               seed=cfg.seed)


# Why a setting would never take effect: the config-file keys that a
# required argument always sets, and the settings a sweep's grids replace
_ARGUMENT_ONLY = {"dataset": "the positional dataset argument sets it",
                  "output_dir": "--output sets it"}
_SWEEP_GRIDS = {
    "m": "a sweep takes m from --m-grid",
    "beta": "a sweep takes beta from --beta-grid",
    "gamma": "a sweep takes gamma from --gamma-grid",
    "preset": "a sweep takes m, beta and gamma from --m-grid, --beta-grid "
              "and --gamma-grid",
}


def resolve_config(args: argparse.Namespace, sweep: bool = False) -> RunConfig:
    """defaults < preset < config file < explicit flags. A setting that no
    dataset makes valid raises InvalidParameter here, before any load, and
    a setting that would never take effect raises MalformedConfig: a
    config-file key that an argument always sets, and in a sweep a flag,
    key or preset that its grids replace."""
    cfg = RunConfig(dataset=args.dataset, output_dir=args.output_dir)
    refused = {**_ARGUMENT_ONLY, **(_SWEEP_GRIDS if sweep else {})}
    if sweep:
        for key, why in _SWEEP_GRIDS.items():
            if getattr(args, key) is not None:
                raise MalformedConfig(f"--{key} has no effect: {why}")

    file_map = {}
    if args.config:
        file_map = dataset_mod.read_json(Path(args.config), MalformedConfig)
        for key in file_map:
            if key in refused:
                raise MalformedConfig(
                    f"{args.config}: key {key!r} has no effect: {refused[key]}"
                )
    # the file's preset is consumed here; an explicit --preset flag wins
    presets = [file_map.pop("preset")] if "preset" in file_map else []
    if args.preset is not None:
        presets.append(args.preset)
    for preset in presets:
        if not isinstance(preset, str) or preset not in PRESETS:
            raise MalformedConfig(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
    if presets:
        _apply_mapping(cfg, PRESETS[presets[-1]], f"preset {presets[-1]!r}")
    _apply_mapping(cfg, file_map, str(args.config))
    for name in _FIELD_KINDS:
        value = getattr(args, name)
        if value is not None:
            setattr(cfg, name, value)

    if not cfg.dataset:
        raise MalformedConfig("no dataset path given")
    if not cfg.output_dir:
        raise MalformedConfig("no output directory given")
    _resolve_sizes(cfg)
    _solver_config(cfg, 1 if cfg.c is None else cfg.c)  # checks the rest
    return cfg


def _resolve_sizes(cfg: RunConfig, ds=None) -> tuple[int, int, int]:
    """The run's (c, m, k). Without the dataset, refuse an m below 2 and a
    k below 1; with it, take c from the labels and m = min(c + 20, n) when
    unset, refuse a c or an m above n or an m below 2, and clamp k to m - 1.
    Either way, refuse a c above m once both are known."""
    c, m, k = cfg.c, cfg.m, cfg.k
    if ds is None:
        if m is not None and m < 2 or k < 1:
            raise InvalidParameter(f"need m >= 2 and k >= 1, got m={m}, k={k}")
    else:
        if c is None:
            if ds.labels is None:
                raise MalformedConfig("cluster count not set and the dataset "
                                      "has no labels; pass --c")
            c = ds.num_classes
        if c > ds.n:
            raise InvalidParameter(f"need c <= n, got c={c}, n={ds.n}")
        m = m if m is not None else min(c + 20, ds.n)
        if m < 2 or m > ds.n:
            raise InvalidParameter(f"need 2 <= m <= n, got m={m}, n={ds.n}")
        k = min(k, m - 1)
    if None not in (c, m) and c > m:
        raise InvalidParameter(f"need c <= m, got c={c}, m={m}")
    return c, m, k


@dataclass
class GraphBuild:
    """Anchor graphs of one (dataset, m) and what a solve needs besides."""

    graphs: anchors_mod.AnchorGraphSet
    labels: np.ndarray | None
    c: int
    seconds: float
    cached: bool


def load_data(cfg: RunConfig):
    """Load the dataset, z-scored under --normalize."""
    ds = dataset_mod.load_dataset(cfg.dataset)
    return dataset_mod.zscore(ds) if cfg.normalize else ds


def cached_anchors(ds, m: int, seed: int,
                   root: Path) -> tuple[anchors_mod.AnchorSet, bool]:
    """The anchors of ds for m and seed, kept by --cache-graphs under root
    as an f64le dataset directory beside the key file ANCHOR_KEY_FILE: m,
    the seed and a digest of the views' shapes and bytes as k-means sees
    them. Returns (anchor set, hit). A hit loads the entry; a miss reads
    no anchor file, runs k-means and saves the entry, the old key file
    removed first and the new one written last, so that an interrupted
    save reads as a miss."""
    digest = hashlib.blake2b(digest_size=16)
    for X in ds.views:
        digest.update(repr(X.shape).encode())
        digest.update(np.ascontiguousarray(X))
    key = {"m": m, "seed": seed, "digest": digest.hexdigest()}
    key_path = root / ANCHOR_KEY_FILE
    try:
        hit = dataset_mod.read_json(key_path, MalformedMeta) == key
    except MissingFile:
        hit = False
    if hit:
        views = dataset_mod.load_dataset(root).views
        return anchors_mod.AnchorSet(anchors=views, m=m, kmeans_iters_used=0), True
    anchor_set = anchors_mod.select_anchors(ds, m, seed=seed)
    entry = dataset_mod.MultiViewDataset(views=anchor_set.anchors)
    with io_errors(f"writing anchor cache {key_path}"):
        key_path.unlink(missing_ok=True)
        dataset_mod.save_dataset(entry, root, fmt="f64le")
        dataset_mod.write_json(key, key_path)
    return anchor_set, False


def build_graphs(cfg: RunConfig, ds, cache_dir: Path) -> GraphBuild:
    """Anchor graphs for cfg.m, from anchors that --cache-graphs keeps in
    cache_dir (cached_anchors) or from k-means on every call without it."""
    c, m, k = _resolve_sizes(cfg, ds)
    t0 = time.perf_counter()
    if cfg.cache_graphs:
        anchor_set, cached = cached_anchors(ds, m, cfg.seed, cache_dir)
    else:
        anchor_set, cached = anchors_mod.select_anchors(ds, m, seed=cfg.seed), False
    gs = anchors_mod.build_all(ds, anchor_set, k)
    return GraphBuild(gs, ds.labels, c, time.perf_counter() - t0, cached)


def solve_and_write(cfg: RunConfig, build: GraphBuild) -> dict:
    """Solve on prebuilt graphs, write the run's outputs into the existing
    output directory, return the record."""
    graphs = build.graphs
    result = solver.fit(graphs, _solver_config(cfg, build.c))
    scores = None
    if build.labels is not None:
        scores = metrics.evaluate_all(result.labels, build.labels)

    record = {
        "labels_file": "labels.txt",
        "alpha": [float(a) for a in result.state.alpha],
        "final_objective": result.state.objective_history[-1],
        "iterations": result.state.iters_run,
        "converged": result.converged,
        "elapsed_seconds": result.elapsed,
        "build_seconds": build.seconds,
        "graphs_cached": build.cached,
        "n": graphs.n,
        "num_views": graphs.num_views,
        "c": build.c,
        "m": graphs.m,
        "k": graphs.k,
        "beta": cfg.beta,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "metrics": scores,
    }
    out = Path(cfg.output_dir)
    with io_errors(f"writing {out}"):
        dataset_mod.write_labels(result.labels, out / "labels.txt")
        with open(out / "convergence.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective"])
            for i, obj in enumerate(result.state.objective_history):
                writer.writerow([i, repr(obj)])
        if cfg.save_graph:
            dataset_mod.write_matrix_csv(result.state.Z.dense(), out / "consensus_graph.csv")
        dataset_mod.write_json(record, out / "results.json")
    return record


def run_fit(cfg: RunConfig, build: GraphBuild | None = None) -> dict:
    """Full pipeline for one configuration; returns the results record.
    Given the prebuilt graphs of a sweep's m, only the solve and the
    writes run. The output directory is made first, so an unusable
    --output fails before any load or solve."""
    out = Path(cfg.output_dir)
    with io_errors(f"writing {out}"):
        out.mkdir(parents=True, exist_ok=True)
    if build is None:
        ds = load_data(cfg)
        build = build_graphs(cfg, ds, out / "graphs")
    return solve_and_write(cfg, build)


def cmd_fit(args) -> int:
    print(json.dumps(run_fit(resolve_config(args)), indent=2))
    return 0


def cmd_evaluate(args) -> int:
    truth = dataset_mod.load_labels_file(args.truth)
    pred = dataset_mod.load_labels_file(args.predictions)
    scores = metrics.evaluate_all(pred, truth)
    print(json.dumps(scores, indent=2))
    return 0


def cmd_reconstruct_graph(args) -> int:
    if args.top_k is not None and args.format == "f64le":
        raise MalformedConfig("--format f64le has no effect: --top-k writes a COO CSV")
    if args.top_k is not None and args.top_k < 1:
        raise InvalidParameter(f"--top-k must be >= 1, got {args.top_k}")
    S = dataset_mod.read_matrix_csv(args.graph)
    if S.min() < 0:
        # learned consensus graphs can dip slightly negative after the
        # low-rank step; the reconstruction needs non-negative mass
        print(
            f"clamping {int((S < 0).sum())} negative entries "
            f"(min {S.min():.2e}) to zero",
            file=sys.stderr,
        )
        S = np.maximum(S, 0.0)
    out = Path(args.output)
    with io_errors(f"writing {out}"):
        out.parent.mkdir(parents=True, exist_ok=True)
        if args.top_k is not None:
            coo = graph_tools.reconstruct_top_k(S, args.top_k).tocoo()
            with open(out, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["row", "col", "value"])
                for i, j, v in zip(coo.row, coo.col, coo.data):
                    writer.writerow([int(i), int(j), repr(float(v))])
        else:
            write = (dataset_mod.write_matrix_f64le if args.format == "f64le"
                     else dataset_mod.write_matrix_csv)
            write(graph_tools.reconstruct_full_graph(S), out)
    print(f"wrote {out}")
    return 0


def _shared_builds(cfg: RunConfig, m_grid) -> dict:
    """Load the dataset once and build graphs once per m. Maps each m to
    its GraphBuild, or to the error that fails all of that m's cells."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ds = load_data(cfg)
        except AnchorClustError as exc:
            return dict.fromkeys(m_grid, exc)
        builds = {}
        for m in m_grid:
            cache_dir = Path(cfg.output_dir) / "graphs" / f"m{m}"
            try:
                builds[m] = build_graphs(dataclasses.replace(cfg, m=m), ds, cache_dir)
            except AnchorClustError as exc:
                builds[m] = exc
    return builds


# The shared builds of a sweep, set in each pool worker by _init_pool_worker
# so that the graphs cross to a worker once rather than once per cell.
_POOL_BUILDS: dict | None = None


def _init_pool_worker(builds: dict) -> None:
    global _POOL_BUILDS
    _POOL_BUILDS = builds


def _pool_cell(cfg: RunConfig) -> dict:
    return _sweep_cell(cfg, _POOL_BUILDS[cfg.m])


def _sweep_cell(cfg: RunConfig, build) -> dict:
    """Solve one grid cell on its m's shared graphs; failures are
    recorded, never raised."""
    row = {"m": cfg.m, "beta": cfg.beta, "gamma": cfg.gamma, "status": "ok",
           "error": ""}
    try:
        if isinstance(build, AnchorClustError):
            raise build
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            record = run_fit(cfg, build)
    except AnchorClustError as exc:
        return {**row, "status": "failed", "error": f"{type(exc).__name__}: {exc}"}
    row.update(
        final_objective=record["final_objective"],
        iterations=record["iterations"],
        converged=record["converged"],
    )
    if record["metrics"]:
        row.update(record["metrics"])
    return row


def cmd_sweep(args) -> int:
    cfg = resolve_config(args, sweep=True)
    text = os.environ.get("ANCHORCLUST_WORKERS", "1")
    workers = int(text) if text.strip().isdecimal() else 0
    if workers < 1:
        raise MalformedConfig(f"ANCHORCLUST_WORKERS={text!r}: need an integer >= 1")
    builds = _shared_builds(cfg, args.m_grid)
    cells_dir = Path(cfg.output_dir) / "cells"
    jobs = [
        dataclasses.replace(
            cfg, m=m, beta=beta, gamma=gamma,
            output_dir=str(cells_dir / f"cell_m{m}_b{beta}_g{gamma}"),
        )
        for m in args.m_grid
        for beta in args.beta_grid
        for gamma in args.gamma_grid
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_pool_worker,
                                 initargs=(builds,)) as pool:
            rows = list(pool.map(_pool_cell, jobs))
    else:
        rows = [_sweep_cell(job, builds[job.m]) for job in jobs]

    out = Path(cfg.output_dir)
    fields = [
        "m", "beta", "gamma", "status", "acc", "nmi", "purity", "ari",
        "f_score", "precision", "final_objective", "iterations", "converged",
        "error",
    ]
    with io_errors(f"writing {out / 'sweep.csv'}"):
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, restval="")
            writer.writeheader()
            writer.writerows(rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} cells)")
    return 0


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    # a setting flag left out is None, and then leaves the config file's value
    p.add_argument("dataset", help="dataset directory (meta.json layout)")
    p.add_argument("--output", dest="output_dir", required=True,
                   help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    p.add_argument("--c", type=int, help="cluster count (default: from labels)")
    p.add_argument("--m", type=int, help="anchor count (default: c+20)")
    p.add_argument("--k", type=int, help=f"neighbor count (default {DEFAULT_K}, clamped to m-1)")
    p.add_argument("--seed", type=int, help="RNG seed for anchors and solver")
    p.add_argument("--beta", type=float, help="low-rank weight")
    p.add_argument("--gamma", type=float, help="factorization weight")
    p.add_argument("--rel-tol", type=float, help="stopping tolerance")
    p.add_argument("--max-iters", type=int, help="cycle cap")
    p.add_argument("--normalize", action="store_true", default=None,
                   help="z-score features per view")
    p.add_argument("--cache-graphs", action="store_true", default=None,
                   help="keep each view's anchors under <output>/graphs and "
                   "reuse them when m, seed and the data match")
    p.add_argument("--save-graph", action="store_true", default=None,
                   help="also write the learned consensus graph, its "
                   "columns in view 0's anchor order")


# a sweep grid: its distinct values in first-seen order, at least one
def _grid(kind, text: str) -> list:
    values = list(dict.fromkeys(kind(t) for t in text.split(",") if t))
    if not values:
        raise argparse.ArgumentTypeError("empty grid")
    return values


def _int_list(text: str) -> list[int]:
    return _grid(int, text)


def _float_list(text: str) -> list[float]:
    return _grid(float, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorclust",
        description="Multi-view clustering on low-rank consensus anchor graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="cluster a dataset directory")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("truth", help="labels file, one integer per line")
    p.add_argument("predictions", help="predicted labels file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reconstruct-graph", help="full sample graph from an anchor graph")
    p.add_argument("graph", help="anchor graph CSV (n x m)")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--top-k", dest="top_k", type=int,
                   help="keep only the top-k entries per row (COO output)")
    p.add_argument("--format", choices=dataset_mod.VIEW_FORMATS, default="csv",
                   help="dense output encoding (n x n, row-major for f64le)")
    p.set_defaults(func=cmd_reconstruct_graph)

    p = sub.add_parser("sweep", help="grid-search m, beta, gamma")
    _add_fit_flags(p)
    p.add_argument("--m-grid", type=_int_list, required=True)
    p.add_argument("--beta-grid", type=_float_list, required=True)
    p.add_argument("--gamma-grid", type=_float_list, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def report_error(exc: AnchorClustError) -> int:
    """Print the error's stderr line and return its exit status."""
    print(f"{exc.label.format(type(exc).__name__)}: {exc}", file=sys.stderr)
    return exc.exit_status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, NumericalBreakdown) as exc:
        return report_error(exc)


if __name__ == "__main__":
    raise SystemExit(main())
