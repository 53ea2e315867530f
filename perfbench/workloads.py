"""The benchmark's workloads and the correctness gate on their outputs.

Each workload offers the same four steps, all driven by run.py:

    setup(seed, workdir, scale) -> source   make what every operation needs
    prepare(source, i) -> input             the input of operation i (untimed)
    run(input) -> output                    one operation (timed)
    check(input, output) -> Outcome         correctness gate (untimed)

``scale`` divides n; the traced run uses scale 4 for the linearity check.
Inputs come only from the workload seed; the program sees the generated
data, never the seed. Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from anchorclust import anchors, cli, dataset, metrics, solver

# Relative tolerance of the descent and final-objective checks.
REL_TOL = 1e-9


@dataclass
class Outcome:
    """Gate result of one operation; a sweep operation holds several cells."""

    attempted: int
    failed: int = 0
    nmis: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    max_rel_rise: float = -np.inf
    max_final_rel_diff: float = 0.0


def sub_seed(seed: int, i: int) -> int:
    """Data seed of item i of the workload seed's stream."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def nmi_reference(pred, truth) -> float:
    """NMI with sqrt normalisation, written apart from anchorclust.metrics."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    joint = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(joint, (p, t), 1.0)
    joint /= joint.sum()
    pp, pt = joint.sum(axis=1), joint.sum(axis=0)
    h = float(-(pp * np.log(pp)).sum()), float(-(pt * np.log(pt)).sum())
    if h[0] == 0.0 or h[1] == 0.0:
        return float(h[0] == h[1])
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pp, pt)[nz])).sum())
    return mi / np.sqrt(h[0] * h[1])


def check_labels(labels, truth, c, nmi_reported, floor, out: Outcome) -> list:
    """Labels shape and range, NMI against the generator's truth and floor."""
    problems = []
    labels = np.asarray(labels)
    if labels.shape != truth.shape:
        return [f"labels have shape {labels.shape}, expected {truth.shape}"]
    if labels.min() < 0 or labels.max() >= c:
        problems.append(f"labels outside [0, {c}): {labels.min()}..{labels.max()}")
    score = nmi_reference(labels, truth)
    out.nmis.append(score)
    if abs(score - nmi_reported) > REL_TOL:
        problems.append(f"reported NMI {nmi_reported!r} != reference {score!r}")
    if score < floor:
        problems.append(f"NMI {score:.4f} below the floor {floor}")
    return problems


def check_history(history, final_reference, out: Outcome) -> list:
    """Objective never rises, and its last value matches the reference."""
    h = np.asarray(history, dtype=np.float64)
    problems = []
    if h.size < 2 or not np.isfinite(h).all():
        return [f"objective history of length {h.size} is short or non-finite"]
    rise = float(((h[1:] - h[:-1]) / np.abs(h[:-1])).max())
    out.max_rel_rise = max(out.max_rel_rise, rise)
    if rise > REL_TOL:
        problems.append(f"objective rose by {rise:.3e} relative")
    diff = abs(h[-1] - final_reference) / abs(final_reference)
    out.max_final_rel_diff = max(out.max_final_rel_diff, diff)
    if diff > REL_TOL:
        problems.append(f"final objective {h[-1]!r} != reference {final_reference!r}")
    return problems


@dataclass(frozen=True)
class InMemory:
    """select_anchors -> build_all -> solver.fit -> evaluate_all on
    synth_blobs data held in memory. Operation i runs on item i of the
    seed's dataset stream, so a run's median covers many datasets."""

    name: str
    n: int
    c: int
    dims: tuple
    noise: float
    m: int
    k: int
    kmeans_max_iters: int
    nmi_floor: float
    cells: int = 1

    def working_set(self) -> dict:
        return {
            "features_mb": self.n * sum(self.dims) * 8 / 2**20,
            "solver.graphs_mb": len(self.dims) * self.n * self.m * 8 / 2**20,
        }

    def _dataset(self, seed, i, scale):
        return dataset.synth_blobs(
            n=self.n // scale, c=self.c, V=len(self.dims), dims=list(self.dims),
            noise=self.noise, seed=sub_seed(seed, i),
        )

    def setup(self, seed, workdir, scale=1):
        return {"seed": seed, "scale": scale, "first": self._dataset(seed, 0, scale)}

    def prepare(self, source, i):
        if i == 0:
            return source["first"]
        return self._dataset(source["seed"], i, source["scale"])

    def run(self, ds):
        anchor_set = anchors.select_anchors(ds, self.m, max_iters=self.kmeans_max_iters)
        graphs = anchors.build_all(ds, anchor_set, self.k)
        config = solver.SolverConfig(c=self.c)
        result = solver.fit(graphs, config)
        scores = metrics.evaluate_all(result.labels, ds.labels)
        return graphs, config, result, scores

    def check(self, ds, output) -> Outcome:
        graphs, config, result, scores = output
        out = Outcome(attempted=1)
        problems = check_labels(result.labels, ds.labels, self.c, scores["nmi"],
                                self.nmi_floor, out)
        reference = solver.objective(result.state, graphs, config)
        problems += check_history(result.state.objective_history, reference, out)
        out.problems, out.failed = problems, int(bool(problems))
        return out


@dataclass(frozen=True)
class Sweep:
    """One ``anchorclust sweep`` call through cli.main on a CSV dataset
    directory; each call is len(grid) cells. Operation i sweeps dataset i
    of the seed's stream, written (untimed) just before it."""

    name: str
    n: int
    c: int
    dims: tuple
    max_iters: int
    m_grid: tuple
    beta_grid: tuple
    gamma_grid: tuple
    nmi_floor: float

    @property
    def cells(self) -> int:
        return len(self.m_grid) * len(self.beta_grid) * len(self.gamma_grid)

    def working_set(self) -> dict:
        return {
            "features_mb": self.n * sum(self.dims) * 8 / 2**20,
            "solver.graphs_mb": len(self.dims) * self.n * max(self.m_grid) * 8 / 2**20,
        }

    def _write(self, seed, i, scale, workdir):
        """Dataset i of the seed's stream as a CSV directory, and the argv."""
        ds = dataset.synth_blobs(n=self.n // scale, c=self.c, V=len(self.dims),
                                 dims=list(self.dims), seed=sub_seed(seed, i))
        root, out = Path(workdir) / "data", Path(workdir) / "sweep"
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        dataset.save_dataset(ds, root, fmt="csv")
        argv = ["sweep", str(root), "--output", str(out),
                "--c", str(self.c), "--max-iters", str(self.max_iters),
                "--m-grid", ",".join(map(str, self.m_grid)),
                "--beta-grid", ",".join(map(str, self.beta_grid)),
                "--gamma-grid", ",".join(map(str, self.gamma_grid))]
        return {"truth": ds.labels, "out": out, "argv": argv}

    def setup(self, seed, workdir, scale=1):
        first = self._write(seed, 0, scale, workdir)
        return {"seed": seed, "scale": scale, "workdir": workdir, "first": first}

    def prepare(self, source, i):
        if i == 0:
            return source["first"]
        return self._write(source["seed"], i, source["scale"], source["workdir"])

    def run(self, inp):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(inp["argv"])

    def check(self, inp, code) -> Outcome:
        out = Outcome(attempted=self.cells)
        report = inp["out"] / "sweep.csv"
        if code != 0 or not report.is_file():
            out.failed = self.cells
            out.problems = [f"sweep exited with {code}; report present: {report.is_file()}"]
            return out
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        want = sorted((m, b, g) for m in self.m_grid for b in self.beta_grid
                      for g in self.gamma_grid)
        got = sorted((int(r["m"]), float(r["beta"]), float(r["gamma"])) for r in rows)
        if got != want:
            out.failed = self.cells
            out.problems = [f"sweep.csv cells {got} != grid {want}"]
            return out
        for row in rows:
            try:
                problems = self._check_cell(inp, row, out)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                out.failed += 1
                out.problems += [f"cell m={row['m']} beta={row['beta']} "
                                 f"gamma={row['gamma']}: {p}" for p in problems]
        return out

    def _check_cell(self, inp, row, out) -> list:
        if row["status"] != "ok":
            return [f"status {row['status']}: {row['error']}"]
        m, beta, gamma = int(row["m"]), float(row["beta"]), float(row["gamma"])
        cell = inp["out"] / "cells" / f"cell_m{m}_b{beta}_g{gamma}"
        labels = np.loadtxt(cell / "labels.txt", dtype=np.int64, ndmin=1)
        problems = check_labels(labels, inp["truth"], self.c, float(row["nmi"]),
                                self.nmi_floor, out)
        with open(cell / "convergence.csv", newline="", encoding="utf-8") as fh:
            history = [float(r["objective"]) for r in csv.DictReader(fh)]
        record = json.loads((cell / "results.json").read_text(encoding="utf-8"))
        return problems + check_history(history, record["final_objective"], out)


WORKLOADS = {
    w.name: w
    for w in (
        InMemory("lowdim_v4", n=2000, c=10, dims=(16, 16, 16, 16), noise=2.0,
                 m=60, k=5, kmeans_max_iters=20, nmi_floor=0.95),
        InMemory("highdim_v2", n=2000, c=10, dims=(1024, 1024), noise=1.0,
                 m=30, k=5, kmeans_max_iters=100, nmi_floor=0.9),
        Sweep("sweep_csv", n=3000, c=8, dims=(64, 32), max_iters=30,
              m_grid=(20, 30), beta_grid=(0.1, 1.0), gamma_grid=(0.01, 1.0),
              nmi_floor=0.85),
    )
}
