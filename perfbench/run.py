"""anchorclust benchmark: time to labels on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lowdim_v4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With ``--trace 0`` one process times untraced operations of one workload
and reports the end-to-end metrics. With ``--trace 1`` it reports the
per-layer metrics from spans recorded around the package's functions
(see spans.py). Earlier stdout lines are a readable table and the
environment record; the last line is the JSON result. A full record,
and with ``--trace 1`` the spans, go to perfbench/out/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# The load is one closed-loop client on one BLAS thread, whatever the core count.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_OPS = 5     # at least this many timed operations; nmi uses the first MIN_OPS
TRACE_FULL_SHARE = 0.75  # share of a traced run spent at full n; the rest at n/4

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "nmi": "score"}

# Per-layer timings normalised per unit of work, for the n vs n/4 linearity
# check: (metric prefix, span name, self time?, unit of work).
LINEARITY = [
    ("anchors.seed", "anchors.seed", False, "calls"),
    ("anchors.lloyd", "anchors.kmeans", True, "lloyd_iters"),
    ("anchors.graph", "anchors.graph", False, "calls"),
    ("solver.init", "solver.init", False, "calls"),
    ("solver.F", "solver.F", False, "calls"),
    ("solver.G", "solver.G", False, "calls"),
    ("solver.Z", "solver.Z", False, "calls"),
    ("solver.alpha", "solver.alpha", False, "calls"),
    ("solver.objective", "solver.objective", False, "calls"),
    ("solver.self", "solver.fit", True, "cycles"),
    ("metrics.eval", "metrics.eval", False, "calls"),
]

WARNING_METRICS = {
    "solver.rank_deficient_warnings": ("RankDeficientWarning",),
    "solver.qp_not_converged_warnings": ("QpNotConvergedWarning",),
    "anchors.degenerate_warnings": ("DegenerateViewWarning", "DegenerateRowWarning"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="lowdim_v4, highdim_v2, sweep_csv, or all (one process each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_rev() -> str:
    """HEAD commit read from .git, without running git; a checkout may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((SRC / "anchorclust").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, read from sysfs (read only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes or {"L2": "unknown", "L3": "unknown"}


def environment(seed, wl) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_digest": src_digest(),
        "seed": seed,
        "workload": wl.name,
        "working_set": {k: round(v, 3) for k, v in wl.working_set().items()},
        "cpu_cache": cache_sizes(),
    }


def run_op(wl, inp, tracer=None, op_id=None):
    """One timed operation. Returns (seconds, output or None, warnings, error)."""
    ctx = tracer.op(op_id) if tracer else nullcontext()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with ctx:
            t0 = time.perf_counter()
            try:
                out, err = wl.run(inp), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return dt, out, counts, err


class Gate:
    """Runs the correctness gate on every operation and keeps the tally."""

    def __init__(self, wl):
        self.wl, self.attempted, self.failed = wl, 0, 0
        self.problems, self.max_rel_rise, self.max_final_rel_diff = [], float("-inf"), 0.0

    def __call__(self, inp, out, err):
        from workloads import Outcome
        if err is not None:
            o = Outcome(attempted=self.wl.cells, failed=self.wl.cells, problems=[err])
        else:
            o = self.wl.check(inp, out)
        self.attempted += o.attempted
        self.failed += o.failed
        self.problems += o.problems[: max(0, 20 - len(self.problems))]
        self.max_rel_rise = max(self.max_rel_rise, o.max_rel_rise)
        self.max_final_rel_diff = max(self.max_final_rel_diff, o.max_final_rel_diff)
        return o

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": self.failed / max(1, self.attempted),
                "max_rel_rise": self.max_rel_rise if self.max_rel_rise > float("-inf") else None,
                "max_final_rel_diff": self.max_final_rel_diff,
                "problems": self.problems}


def timed_run(wl, args, import_s, workdir):
    """--trace 0: set-up several times, warm up once, time operations."""
    import resource
    gate = Gate(wl)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        source = wl.setup(args.seed, workdir)
        reps.append(time.perf_counter() - t0)
    inp = wl.prepare(source, 0)
    warm_s, out, _, err = run_op(wl, inp)
    gate(inp, out, err)

    times, nmis, begin, i = [], [], time.perf_counter(), 0
    while i < MIN_OPS or time.perf_counter() - begin < args.seconds:
        i += 1
        inp = wl.prepare(source, i)
        dt, out, _, err = run_op(wl, inp)
        times.append(dt)
        outcome = gate(inp, out, err)
        if i <= MIN_OPS:
            nmis += outcome.nmis
    metrics = {
        "wall_s": statistics.median(times),
        "setup_s": import_s + statistics.median(reps) + warm_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nmi": statistics.fmean(nmis) if nmis else 0.0,
    }
    detail = {"op_seconds": times, "setup_reps_s": reps, "import_s": import_s,
              "warmup_s": warm_s, "nmis": nmis}
    return metrics, END_TO_END, gate, detail


def traced_run(wl, args, workdir, modules):
    """--trace 1: paired untraced/traced operations at n, then traced at n/4."""
    from spans import Tracer
    tracer, gate = Tracer(modules), Gate(wl)
    source = wl.setup(args.seed, workdir)
    inp = wl.prepare(source, 0)
    _, out, _, err = run_op(wl, inp)  # warm-up, untraced
    gate(inp, out, err)

    plain, traced, warns, full_ops = [], [], [], []
    begin, i = time.perf_counter(), 0
    while i < 2 or time.perf_counter() - begin < TRACE_FULL_SHARE * args.seconds:
        i += 1
        inp = wl.prepare(source, i)
        for tracing in ((False, True) if i % 2 else (True, False)):
            op_id = f"full{i}" if tracing else None
            dt, out, counts, err = run_op(wl, inp, tracer if tracing else None, op_id)
            gate(inp, out, err)
            if tracing:
                traced.append(dt)
                warns.append(counts)
                full_ops.append(op_id)
            else:
                plain.append(dt)

    quarter, quarter_ops, j = wl.setup(args.seed, workdir, scale=4), [], 0
    while j < 2 or time.perf_counter() - begin < args.seconds:
        j += 1
        inp = wl.prepare(quarter, j)
        op_id = f"quarter{j}"
        dt, out, counts, err = run_op(wl, inp, tracer, op_id)
        gate(inp, out, err)
        quarter_ops.append(op_id)

    metrics, units, shares = layer_metrics(tracer, full_ops, quarter_ops, traced, warns)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    units["trace.overhead"] = "ratio"
    detail = {"traced_op_seconds": traced, "untraced_op_seconds": plain,
              "shares": shares, "absent_hooks": tracer.absent}
    return metrics, units, gate, detail, tracer


def _totals(tracer, op_ids):
    """Per span name: total duration, total self time, call count, infos."""
    from spans import self_times
    ops = set(op_ids)
    selfs = self_times(tracer.spans)
    tot, own, calls, infos = {}, {}, {}, {}
    for span, s in zip(tracer.spans, selfs):
        if span[4] not in ops:
            continue
        name = span[0]
        tot[name] = tot.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        infos.setdefault(name, []).append((span[4], span[5] or {}))
    return tot, own, calls, infos


def _useful_ratio(infos, ops):
    """Mean over operations of distinct input keys / calls; 1.0 without calls."""
    ratios = []
    for op in ops:
        keys = [info["key"] for o, info in infos if o == op]
        ratios.append(len(set(keys)) / len(keys) if keys else 1.0)
    return statistics.fmean(ratios)


def layer_metrics(tracer, full_ops, quarter_ops, traced, warns):
    from spans import cycle_times
    tot, own, calls, infos = _totals(tracer, full_ops)
    k = len(full_ops)
    per_op = lambda table, name: table.get(name, 0.0) / k
    m, u = {}, {}

    def put(name, value, unit):
        m[name], u[name] = value, unit

    put("dataset.load_s", per_op(tot, "dataset.load"), "s")
    put("dataset.load_calls", per_op(calls, "dataset.load"), "count")
    put("dataset.mb_read", sum(i["bytes"] for _, i in infos.get("dataset.load", []))
        / 2**20 / k, "MiB")
    put("dataset.load_useful_ratio", _useful_ratio(infos.get("dataset.load", []), full_ops), "ratio")
    put("anchors.seed_s", per_op(tot, "anchors.seed"), "s")
    put("anchors.lloyd_s", per_op(own, "anchors.kmeans"), "s")
    put("anchors.graph_s", per_op(tot, "anchors.graph"), "s")
    used = [i["iters_used"] for _, i in infos.get("anchors.select", [])]
    put("anchors.kmeans_iters", statistics.fmean(used) if used else 0.0, "count")
    put("anchors.kmeans_calls", per_op(calls, "anchors.kmeans"), "count")
    put("anchors.kmeans_useful_ratio", _useful_ratio(infos.get("anchors.kmeans", []), full_ops), "ratio")
    for block in ("init", "F", "G", "Z", "alpha", "objective"):
        put(f"solver.{block}_s", per_op(tot, f"solver.{block}"), "s")
    put("solver.self_s", per_op(own, "solver.fit"), "s")
    full_spans = [s for s in tracer.spans if s[4] in set(full_ops)]
    cycles = sorted(cycle_times(full_spans))
    if cycles:
        q = statistics.quantiles(cycles, n=10) if len(cycles) > 1 else cycles * 9
        put("solver.cycle_ms_p50", statistics.median(cycles) * 1e3, "ms")
        put("solver.cycle_ms_p90", q[8] * 1e3, "ms")
    put("solver.cycles", calls.get("solver.F", 0) / max(1, calls.get("solver.fit", 0)), "count")
    shapes = [i for _, i in infos.get("solver.fit", [])]
    put("solver.graphs_mb", max((s["V"] * s["n"] * s["m"] * 8 / 2**20 for s in shapes),
                                default=0.0), "MiB")
    for name, classes in WARNING_METRICS.items():
        if any(hasattr(tracer.modules["errors"], c) for c in classes):
            put(name, statistics.fmean(sum(w.get(c, 0) for c in classes) for w in warns), "count")
    put("metrics.eval_s", per_op(tot, "metrics.eval"), "s")
    put("cli.self_s", per_op(own, "cli.run_fit"), "s")
    put("cli.cells", per_op(calls, "cli.run_fit"), "count")

    # Linearity: per-unit time at n over per-unit time at n/4, divided by 4.
    def unit_time(totals, span, own_time, unit):
        t, o, c, inf = totals
        seconds = (o if own_time else t).get(span, 0.0)
        if unit == "calls":
            work = c.get(span, 0)
        elif unit == "cycles":
            work = c.get("solver.F", 0)
        else:
            work = sum(i["iters"] for _, i in inf.get("anchors.kmeans", []))
        return seconds / work if work else None

    quarter = _totals(tracer, quarter_ops)
    for prefix, span, own_time, unit in LINEARITY:
        at_n = unit_time((tot, own, calls, infos), span, own_time, unit)
        at_q = unit_time(quarter, span, own_time, unit)
        if at_n is not None and at_q:
            put(f"{prefix}.linearity", at_n / at_q / 4.0, "ratio")

    # Share of each module in the traced operations' wall time (self times).
    wall = sum(traced)
    shares = {}
    for name, seconds in own.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + seconds / wall
    shares["untraced"] = 1.0 - sum(shares.values())
    # A hook whose function no longer exists reports nothing, not zero.
    for name in list(m):
        if any(name.startswith(a + "_") or name.startswith(a + ".") for a in tracer.absent):
            del m[name], u[name]
    return m, u, shares


def print_table(workload, metrics, units, gate, extra=None):
    for name, value in metrics.items():
        print(f"{workload:<11} {name:<34} {value:>14.6g} {units[name]}")
    print(f"{workload:<11} {'fail_ratio':<34} {gate['fail_ratio']:>14.6g} ratio"
          f"   ({gate['failed']} of {gate['attempted']} operations)")
    for name, value in (extra or {}).items():
        print(f"{workload:<11} {name:<34} {value:>14.6g} share of wall_s")


def run_one(args) -> int:
    if not (SRC / "anchorclust" / "__init__.py").is_file():
        print(f"error: no anchorclust package under {SRC}; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("ANCHORCLUST_WORKERS", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed as part of set-up)
    import anchorclust
    from anchorclust import anchors, cli, dataset, errors, metrics, solver
    import_s = time.perf_counter() - t0
    if Path(anchorclust.__file__).resolve().parent != SRC / "anchorclust":
        print(f"error: imported anchorclust from {anchorclust.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            modules = {"anchors": anchors, "cli": cli, "dataset": dataset,
                       "errors": errors, "metrics": metrics, "solver": solver}
            metrics_, units, gate, detail, tracer = traced_run(wl, args, workdir, modules)
        else:
            metrics_, units, gate, detail = timed_run(wl, args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed, wl)
    summary = gate.summary()
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics_, "units": units, "gate": summary,
              "detail": detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl"))

    print("env " + json.dumps(env))
    for problem in summary["problems"]:
        print(f"{wl.name}: check failed: {problem}")
    print_table(wl.name, metrics_, units, summary, detail.get("shares"))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("lowdim_v4", "highdim_v2", "sweep_csv"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
