import ast
import builtins
import csv
import dataclasses
import errno
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from anchorclust import anchors as anchors_mod
from anchorclust import cli
from anchorclust import dataset as dataset_mod
from anchorclust import solver as solver_mod
from anchorclust.cli import PRESETS, main
from anchorclust.dataset import (
    MultiViewDataset,
    save_dataset,
    synth_blobs,
    write_matrix_csv,
)
from anchorclust.errors import (
    AnchorClustError,
    ConfigError,
    DataError,
    DegenerateViewWarning,
    MalformedConfig,
    NumericalBreakdown,
)


def read_results(output_dir) -> dict:
    return json.loads((Path(output_dir) / "results.json").read_text(encoding="utf-8"))


def read_convergence(output_dir) -> list[tuple[int, float]]:
    with open(Path(output_dir) / "convergence.csv", encoding="utf-8", newline="") as fh:
        return [(int(r["iteration"]), float(r["objective"])) for r in csv.DictReader(fh)]


def read_sweep_report(path) -> list[dict]:
    def opt_float(s):
        return float(s) if s else None

    fields = {
        "m": int,
        "beta": float,
        "gamma": float,
        "status": str,
        "acc": opt_float,
        "nmi": opt_float,
        "purity": opt_float,
        "ari": opt_float,
        "f_score": opt_float,
        "precision": opt_float,
        "final_objective": opt_float,
        "iterations": lambda s: int(s) if s else None,
        "converged": lambda s: s == "True" if s else None,
        "error": str,
    }
    with open(path, encoding="utf-8", newline="") as fh:
        return [{key: cast(raw[key]) for key, cast in fields.items()}
                for raw in csv.DictReader(fh)]


@pytest.fixture()
def blob_dir(tmp_path):
    ds = synth_blobs(60, 3, 2, [4, 5], separation=10, noise=0.1, seed=0)
    root = tmp_path / "blobs"
    save_dataset(ds, root)
    return root


# each RunConfig field: a config-file value and a flag value, both unlike
# its default (a flag can only turn a bool on)
SETTING_VALUES = {
    "dataset": ("data_file", "data_flag"),
    "output_dir": ("out_file", "out_flag"),
    "c": (4, 6), "m": (12, 16), "k": (2, 4), "seed": (3, 7),
    "beta": (0.5, 0.75), "gamma": (0.02, 0.04),
    "rel_tol": (1e-4, 1e-5), "max_iters": (9, 11),
    "normalize": (True, True), "cache_graphs": (True, True),
    "save_graph": (True, True),
}


# bad in every sweep cell too: flags, or a config file's key
SHARED_BAD_SETTINGS = ["--c=0", "--k=0", "--max-iters=0", "--rel-tol=0",
                       "--rel-tol=nan", "--rel-tol=inf", "config:max_iters=0",
                       "--seed=-5", "config:seed=-1"]


def fit_args(dataset, output, **over):
    args = ["fit", str(dataset), "--output", str(output)]
    defaults = dict(c=3, m=10, k=3, seed=0, beta=0.2, gamma=0.1)
    defaults.update(over)
    for key, value in defaults.items():
        if value is not None:
            args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestFitCommand:
    def test_end_to_end(self, blob_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(fit_args(blob_dir, out)) == 0
        record = read_results(out)
        assert record["converged"] is True
        assert record["metrics"]["acc"] >= 0.9
        assert len(record["alpha"]) == 2
        assert sum(record["alpha"]) == pytest.approx(1.0, abs=1e-9)

        labels = (out / "labels.txt").read_text().splitlines()
        assert len(labels) == 60
        curve = read_convergence(out)
        assert curve[0][0] == 0
        assert len(curve) == record["iterations"] + 1
        objs = [o for _, o in curve]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
        assert record["final_objective"] == objs[-1]
        # stdout carries the same record
        printed = json.loads(capsys.readouterr().out)
        assert printed["final_objective"] == record["final_objective"]

    def test_deterministic_outputs(self, blob_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(fit_args(blob_dir, out_a))
        main(fit_args(blob_dir, out_b))
        assert (out_a / "labels.txt").read_text() == (out_b / "labels.txt").read_text()
        assert (out_a / "convergence.csv").read_text() == (
            out_b / "convergence.csv"
        ).read_text()

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
        assert code == 3
        assert "MissingFile" in capsys.readouterr().err

    def test_preset_loads_table_values(self, tmp_path):
        ds = synth_blobs(80, 3, 2, [4, 4], seed=1)
        root = tmp_path / "d"
        save_dataset(ds, root)
        out = tmp_path / "run"
        code = main(
            ["fit", str(root), "--output", str(out), "--preset", "coil",
             "--max-iters", "5"]
        )
        assert code == 0
        record = read_results(out)
        assert record["m"] == 35
        assert record["beta"] == 0.3
        assert record["gamma"] == 0.01

    def test_all_presets_well_formed(self):
        for name, triple in PRESETS.items():
            assert set(triple) == {"m", "beta", "gamma"}, name

    def test_unknown_preset_exits_2(self, blob_dir, tmp_path, capsys):
        code = main(["fit", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--preset", "nope"])
        assert code == 2
        # a preset, from the flag or the file's key, must be a string naming
        # one; a bad file key counts even when the flag names a good one
        cfg = tmp_path / "cfg.json"
        for preset, flag in [(["coil"], []), ({}, []), ("", []), (None, []), (3, []),
                             ("nope", []), (["coil"], ["--preset", "coil"]),
                             ("coil", ["--preset", ""])]:
            cfg.write_text(json.dumps({"preset": preset}))
            capsys.readouterr()
            assert main(fit_args(blob_dir, tmp_path / "o") + ["--config", str(cfg)]
                        + flag) == 2, (preset, flag)
            assert "config error [MalformedConfig]: unknown preset" in (
                capsys.readouterr().err)

    def test_config_file_with_unknown_key_exits_2(self, blob_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 3, "bogus_knob": 1}))
        code = main(["fit", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_non_utf8_view_exits_3(self, blob_dir, tmp_path, capsys):
        with open(blob_dir / "view0.csv", "ab") as fh:
            fh.write(b"\xff\xfe")
        code = main(fit_args(blob_dir, tmp_path / "o"))
        assert code == 3
        assert "data error [NonFiniteValue]" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, blob_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"c": 3}\xff')
        code = main(["fit", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 2
        assert "config error [MalformedConfig]" in capsys.readouterr().err

    def test_config_file_with_qp_tol_exits_2(self, blob_dir, tmp_path, capsys):
        # the view-weight QP's tolerance is a solver constant, not a config key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 3, "qp_tol": 1e-10}))
        code = main(["fit", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 2
        assert "unknown key 'qp_tol'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--qp-tol", "--qp-max-iters"])
    def test_qp_flags_rejected(self, blob_dir, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(fit_args(blob_dir, tmp_path / "o") + [flag, "1"])
        assert exc.value.code == 2

    def test_config_keys_are_run_config_fields(self):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert set(cli._FIELD_KINDS) == fields

    def test_config_file_plus_flag_override(self, blob_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 3, "m": 8, "beta": 0.5, "max_iters": 5}))
        out = tmp_path / "run"
        code = main(["fit", str(blob_dir), "--output", str(out),
                     "--config", str(cfg), "--beta", "0.25"])
        assert code == 0
        record = read_results(out)
        assert record["m"] == 8
        assert record["beta"] == 0.25

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.RunConfig)])
    def test_setting_precedence(self, tmp_path, command, name):
        # defaults < config-file "preset" < config file < flags, per setting;
        # a file key that an argument always sets, and in a sweep a flag,
        # key or preset that the grids replace, is refused by name
        file_value, flag_value = SETTING_VALUES[name]
        positional = {"dataset": "data", "output_dir": "out"}
        refused = {"dataset": "positional dataset argument", "output_dir": "--output"}
        if command == "sweep":
            refused.update(m="--m-grid", beta="--beta-grid", gamma="--gamma-grid")
        cfg_path = tmp_path / "cfg.json"

        def resolve(file_map, flag=False):
            cfg_path.write_text(json.dumps(file_map))
            given = {**positional, name: flag_value} if flag else positional
            argv = [command, given["dataset"], "--output", given["output_dir"],
                    "--config", str(cfg_path)]
            if command == "sweep":
                argv += ["--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1"]
            if flag and name not in positional:
                argv.append("--" + name.replace("_", "-"))
                if not isinstance(flag_value, bool):
                    argv.append(str(flag_value))
            return getattr(cli.resolve_config(cli.build_parser().parse_args(argv),
                                              sweep=command == "sweep"), name)

        default = resolve({})
        if name in positional:
            assert default == positional[name]
            assert resolve({}, flag=True) == flag_value
        else:
            assert default == getattr(cli.RunConfig, name)
        # the file's "preset" key is refused first in a sweep
        with_preset = [{"preset": "coil", name: file_value}] if command == "fit" else []
        if name in refused:
            for file_map in [{name: file_value}] + with_preset:
                with pytest.raises(MalformedConfig, match=f"key '{name}' has no effect: .*"
                                   + refused[name]):
                    resolve(file_map)
            if name not in positional:
                with pytest.raises(MalformedConfig, match=refused[name]):
                    resolve({}, flag=True)
        else:
            for file_map in [{name: file_value}] + with_preset:
                assert resolve(file_map) == file_value != default
            beaten = (not flag_value) if isinstance(flag_value, bool) else file_value
            assert resolve({name: beaten}, flag=True) == flag_value != beaten
        if command == "sweep":
            with pytest.raises(MalformedConfig, match="key 'preset' has no effect"):
                resolve({"preset": "coil"})
        else:
            assert resolve({"preset": "coil"}) == PRESETS["coil"].get(name, default)

    @pytest.mark.parametrize("setting", ["--m=12", "--beta=5", "--gamma=0.5",
                                         "--preset=coil", "config:m", "config:beta",
                                         "config:gamma", "config:preset"])
    def test_sweep_refuses_settings_its_grids_replace(self, blob_dir, tmp_path,
                                                      capsys, monkeypatch, setting):
        loads = []
        load = dataset_mod.load_dataset

        def counting_load(root, *args, **kwargs):
            loads.append(root)
            return load(root, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        argv = ["sweep", str(blob_dir), "--output", str(tmp_path / "o"),
                "--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1"]
        name = setting.removeprefix("config:").removeprefix("--").split("=")[0]
        if setting.startswith("config:"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({name: "coil" if name == "preset" else 12}))
            setting = f"--config={cfg}"
        assert main(argv + [setting]) == 2
        err = capsys.readouterr().err
        assert "config error [MalformedConfig]" in err
        grids = ["--m-grid", "--beta-grid", "--gamma-grid"] if name == "preset" else [
            f"--{name}-grid"]
        assert all(g in err for g in grids)
        assert loads == []
        assert not (tmp_path / "o").exists()

    def test_config_file_bad_type_exits_2(self, blob_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": "three"}))
        code = main(["fit", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--config", str(cfg)])
        assert code == 2

    def test_config_file_integer_for_a_float_setting(self, blob_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 1}))
        args = cli.build_parser().parse_args(
            ["fit", str(blob_dir), "--output", str(tmp_path / "o"), "--config", str(cfg)])
        beta = cli.resolve_config(args).beta
        assert beta == 1.0 and type(beta) is float

    def test_unlabeled_dataset_without_c_exits_2(self, tmp_path, capsys):
        root = tmp_path / "unlabeled"
        save_dataset(MultiViewDataset(views=synth_blobs(30, 3, 1, [4], seed=0).views), root)
        assert main(["fit", str(root), "--output", str(tmp_path / "o")]) == 2
        assert ("config error [MalformedConfig]: cluster count not set and the "
                "dataset has no labels; pass --c\n") == capsys.readouterr().err

    def test_cache_graphs_reused(self, blob_dir, tmp_path):
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is False
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True

    def test_cache_graphs_not_reused_for_other_data(self, blob_dir, tmp_path):
        # same n and V as blob_dir, different contents
        other = tmp_path / "other"
        save_dataset(synth_blobs(60, 3, 2, [4, 5], separation=10, noise=0.1,
                                 seed=7), other)
        fresh = tmp_path / "fresh"
        main(fit_args(other, fresh))
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        main(fit_args(other, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is False
        assert (out / "labels.txt").read_bytes() == (fresh / "labels.txt").read_bytes()
        main(fit_args(other, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True

    def test_cache_graphs_not_reused_across_normalize(self, blob_dir, tmp_path):
        fresh = tmp_path / "fresh"
        main(fit_args(blob_dir, fresh) + ["--normalize"])
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        main(fit_args(blob_dir, out) + ["--cache-graphs", "--normalize"])
        assert read_results(out)["graphs_cached"] is False
        assert (out / "convergence.csv").read_bytes() == (
            fresh / "convergence.csv"
        ).read_bytes()
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is False

    def test_stale_cache_miss_reads_no_graph_csv(self, blob_dir, tmp_path,
                                                 monkeypatch):
        # the key file is compared before any anchor file of the entry is read
        out = tmp_path / "run"
        cache_loads = []
        load = dataset_mod.load_dataset

        def counting_load(root, *args, **kwargs):
            if Path(root) == out / "graphs":
                cache_loads.append(root)
            return load(root, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        other = tmp_path / "other"
        save_dataset(synth_blobs(60, 3, 2, [4, 5], separation=10, noise=0.1,
                                 seed=7), other)
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        main(fit_args(other, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is False
        assert cache_loads == []
        main(fit_args(other, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True
        assert len(cache_loads) == 1

    def test_cache_hit_for_another_k(self, blob_dir, tmp_path):
        fresh = tmp_path / "fresh"
        main(fit_args(blob_dir, fresh, k=3))
        out = tmp_path / "run"
        main(fit_args(blob_dir, out, k=2) + ["--cache-graphs"])
        main(fit_args(blob_dir, out, k=3) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True
        assert read_results(out)["k"] == 3
        for fname in ("labels.txt", "convergence.csv"):
            assert (out / fname).read_bytes() == (fresh / fname).read_bytes()

    def test_old_graph_csv_entry_is_a_miss(self, blob_dir, tmp_path):
        fresh = tmp_path / "fresh"
        main(fit_args(blob_dir, fresh) + ["--cache-graphs"])
        key = json.loads((fresh / "graphs" / cli.ANCHOR_KEY_FILE).read_text())
        # an entry of the earlier format: graph CSVs, meta.json and a
        # sidecar keyed on m, k, seed and digest, with no anchor key file
        ds = dataset_mod.load_dataset(blob_dir)
        graphs = anchors_mod.build_all(ds, anchors_mod.select_anchors(ds, 10), 3)
        entry = tmp_path / "run" / "graphs"
        entry.mkdir(parents=True)
        views = []
        for i, S in enumerate(graphs.graphs):
            write_matrix_csv(S.toarray(), entry / f"graph{i}.csv")
            views.append({"name": f"graph{i}", "file": f"graph{i}.csv",
                          "dims": graphs.m, "format": "csv"})
        (entry / "meta.json").write_text(json.dumps({"n": ds.n, "views": views}))
        (entry / "anchor_graphs.json").write_text(json.dumps(
            {"m": 10, "k": 3, "seed": 0, "digest": key["digest"]}))
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is False
        for fname in ("labels.txt", "convergence.csv"):
            assert (out / fname).read_bytes() == (fresh / fname).read_bytes()
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True

    def test_unparseable_cache_key_exits_3(self, blob_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        key_path = out / "graphs" / cli.ANCHOR_KEY_FILE
        key_path.write_text("{not json")
        capsys.readouterr()
        assert main(fit_args(blob_dir, out) + ["--cache-graphs"]) == 3
        assert "MalformedMeta" in capsys.readouterr().err
        # a key that parses to no object is malformed too, not a miss
        for key in ["[]", '"m10"', "null"]:
            key_path.write_text(key)
            assert main(fit_args(blob_dir, out) + ["--cache-graphs"]) == 3
            assert (f"data error [MalformedMeta]: {key_path}: top level must be an "
                    "object") in capsys.readouterr().err

    def test_compact_cache_key_is_a_hit(self, blob_dir, tmp_path):
        # the key is compared as parsed JSON, so an entry whose key file was
        # written on one line is still a hit
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        key_path = out / "graphs" / cli.ANCHOR_KEY_FILE
        key = json.loads(key_path.read_text(encoding="utf-8"))
        key_path.write_text(json.dumps(key) + "\n", encoding="utf-8")
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        assert read_results(out)["graphs_cached"] is True

    def test_missing_config_file_exits_3(self, blob_dir, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        code = main(fit_args(blob_dir, tmp_path / "o") + ["--config", str(cfg)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error [MissingFile]: reading {cfg}: [Errno 2] No such file or "
            f"directory: '{cfg}'\n")

    def test_output_path_is_a_file_exits_3(self, blob_dir, tmp_path, capsys,
                                           monkeypatch):
        # the output directory is made before the dataset is loaded
        loads = []
        load = dataset_mod.load_dataset

        def counting_load(root, *args, **kwargs):
            loads.append(root)
            return load(root, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(fit_args(blob_dir, taken)) == 3
        assert "data error [IoError]" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("meta", ["{not json", '{"n": 60}'])
    def test_corrupt_graph_cache_exits_3(self, blob_dir, tmp_path, capsys, meta):
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--cache-graphs"])
        (out / "graphs" / "meta.json").write_text(meta)
        capsys.readouterr()
        assert main(fit_args(blob_dir, out) + ["--cache-graphs"]) == 3
        assert "MalformedMeta" in capsys.readouterr().err

    def test_save_graph_flag(self, blob_dir, tmp_path):
        out = tmp_path / "run"
        main(fit_args(blob_dir, out) + ["--save-graph"])
        Z = np.loadtxt(out / "consensus_graph.csv", delimiter=",")
        assert Z.shape == (60, 10)

    def test_normalize_flag(self, blob_dir, tmp_path):
        out = tmp_path / "run"
        assert main(fit_args(blob_dir, out) + ["--normalize"]) == 0

    def test_single_view_flag_and_key_rejected(self, blob_dir, tmp_path, capsys):
        # a 1-view dataset needs no flag (test_single_view_runs)
        sweep = ["sweep", str(blob_dir), "--output", str(tmp_path / "o"),
                 "--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1"]
        for argv in (fit_args(blob_dir, tmp_path / "o"), sweep):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--single-view"])
            assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"single_view": True}))
        capsys.readouterr()
        assert main(fit_args(blob_dir, tmp_path / "o") + ["--config", str(cfg)]) == 2
        assert "unknown key 'single_view'" in capsys.readouterr().err

    def test_single_view_runs(self, tmp_path):
        ds = synth_blobs(50, 2, 1, [4], seed=2)
        root = tmp_path / "sv"
        save_dataset(ds, root)
        out = tmp_path / "run"
        code = main(["fit", str(root), "--output", str(out), "--c", "2",
                     "--m", "6", "--k", "2"])
        assert code == 0
        assert read_results(out)["alpha"] == [1.0]

    @pytest.mark.parametrize(
        "command, setting",
        [(cmd, s) for cmd in ("fit", "sweep") for s in SHARED_BAD_SETTINGS]
        + [("fit", s) for s in ("--m=1", "--beta=-1", "--gamma=-0.5", "--beta=nan",
                                "--beta=inf", "--gamma=nan", "--gamma=inf")])
    def test_bad_setting_exits_2_before_load(self, blob_dir, tmp_path, capsys,
                                            monkeypatch, command, setting):
        # a sweep takes m, beta and gamma from its grids, where a bad value
        # fails its own cells (test_bad_grid_value_fails_its_own_cells)
        loads = []
        load = dataset_mod.load_dataset

        def counting_load(root, *args, **kwargs):
            loads.append(root)
            return load(root, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        argv = [command, str(blob_dir), "--output", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1"]
        if setting.startswith("config:"):
            key, value = setting.removeprefix("config:").split("=")
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: int(value)}))
            setting = f"--config={cfg}"
        assert main(argv + [setting]) == 2
        assert "config error [InvalidParameter]" in capsys.readouterr().err
        assert loads == []

    @pytest.mark.parametrize("dataset, output, message", [
        ("", "o", "no dataset path given"),
        ("blobs", "", "no output directory given"),
    ])
    def test_empty_path_exits_2(self, blob_dir, tmp_path, capsys, dataset, output, message):
        dataset = dataset and str(blob_dir)
        output = output and str(tmp_path / output)
        assert main(["fit", dataset, "--output", output]) == 2
        assert capsys.readouterr().err == f"config error [MalformedConfig]: {message}\n"
        assert list(tmp_path.iterdir()) == [blob_dir]

    @pytest.mark.parametrize("setting, message", [
        ("--c=61", "need c <= n, got c=61, n=60"),
        ("--m=61", "need 2 <= m <= n, got m=61, n=60"),
    ])
    def test_setting_above_n_exits_2_after_load(self, blob_dir, tmp_path, capsys,
                                                setting, message):
        # n is known only once the 60-sample dataset is read; m is left
        # unset, as a c above a given m is refused before the load
        out = tmp_path / "o"
        assert main(fit_args(blob_dir, out, m=None) + [setting]) == 2
        assert capsys.readouterr().err == f"config error [InvalidParameter]: {message}\n"
        assert not (out / "labels.txt").exists()


    @pytest.mark.parametrize("source", ["flags", "config file", "preset"])
    def test_c_above_m_exits_2_before_load(self, blob_dir, tmp_path, capsys,
                                           monkeypatch, source):
        # G needs c orthonormal columns in R^m; preset reuters has m = 15
        loads = []
        monkeypatch.setattr(dataset_mod, "load_dataset",
                            lambda root, *a, **kw: loads.append(root))
        argv = ["fit", str(blob_dir), "--output", str(tmp_path / "o"), "--c", "16"]
        if source == "flags":
            argv += ["--m", "15"]
        elif source == "config file":
            (tmp_path / "cfg.json").write_text(json.dumps({"m": 15}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        else:
            argv += ["--preset", "reuters"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error [InvalidParameter]: need c <= m, got c=16, m=15\n")
        assert loads == []

    def test_c_from_labels_above_m_exits_2_after_load(self, tmp_path, capsys,
                                                      monkeypatch):
        # c = 4 is known only once the labels are read
        root, out = tmp_path / "blobs4", tmp_path / "o"
        save_dataset(synth_blobs(60, 4, 2, [4, 5], seed=0), root)
        loads = []
        load = dataset_mod.load_dataset

        def counting_load(root, *args, **kwargs):
            loads.append(root)
            return load(root, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        assert main(["fit", str(root), "--output", str(out), "--m", "3"]) == 2
        assert capsys.readouterr().err == (
            "config error [InvalidParameter]: need c <= m, got c=4, m=3\n")
        assert loads == [str(root)]
        assert not (out / "labels.txt").exists()


class TestEvaluateCommand:
    def test_prints_six_metrics(self, tmp_path, capsys):
        (tmp_path / "truth.txt").write_text("0\n0\n1\n1\n")
        (tmp_path / "pred.txt").write_text("1\n1\n0\n0\n")
        assert main(["evaluate", str(tmp_path / "truth.txt"),
                     str(tmp_path / "pred.txt")]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert list(scores) == ["acc", "nmi", "purity", "ari", "f_score", "precision"]
        assert scores["acc"] == 1.0

    def test_many_predicted_ids(self, tmp_path, capsys):
        # 4000 distinct predicted ids against 10 classes
        (tmp_path / "truth.txt").write_text("".join(f"{i % 10}\n" for i in range(4000)))
        (tmp_path / "pred.txt").write_text("".join(f"{i}\n" for i in range(4000)))
        assert main(["evaluate", str(tmp_path / "truth.txt"),
                     str(tmp_path / "pred.txt")]) == 0
        assert json.loads(capsys.readouterr().out)["acc"] == 0.0025

    def test_missing_file_exits_3(self, tmp_path):
        (tmp_path / "truth.txt").write_text("0\n1\n")
        assert main(["evaluate", str(tmp_path / "truth.txt"),
                     str(tmp_path / "gone.txt")]) == 3

    def test_table_above_the_cap_exits_2(self, tmp_path, capsys):
        ids = "".join(f"{i}\n" for i in range(20000))
        (tmp_path / "truth.txt").write_text(ids)
        (tmp_path / "pred.txt").write_text(ids)
        assert main(["evaluate", str(tmp_path / "truth.txt"),
                     str(tmp_path / "pred.txt")]) == 2
        assert capsys.readouterr().err == (
            "config error [InvalidParameter]: 20000 predicted x 20000 true labels "
            "exceed the contingency table cap of 16777216 cells\n")

    def test_length_mismatch_exits_3(self, tmp_path):
        (tmp_path / "a.txt").write_text("0\n1\n")
        (tmp_path / "b.txt").write_text("0\n1\n0\n")
        assert main(["evaluate", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 3


@pytest.mark.parametrize("label", ["99999999999999999999999", "-9223372036854775809"])
def test_label_outside_int64_exits_3(blob_dir, tmp_path, capsys, label):
    labels = blob_dir / "labels.txt"
    lines = labels.read_text().splitlines()
    lines[4] = label
    labels.write_text("\n".join(lines) + "\n")
    message = f"data error [NonFiniteValue]: {labels}: line 5: '{label}' is not an int64 label"
    assert main(fit_args(blob_dir, tmp_path / "o")) == 3
    assert message in capsys.readouterr().err
    assert main(["evaluate", str(labels), str(labels)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("views, message", [
    ([], "'views' list is empty"),
    (["view0.csv"], "views[0]: expected an object"),
    ([{"name": "v", "file": "view0.csv", "dims": 4, "format": "tsv"}],
     "views[0]: format 'tsv' not one of ('csv', 'f64le')"),
    ([{"name": "v", "file": "v.f64", "dims": 4, "format": "f64le"}],
     "v.f64: 239 float64 values, expected n*dims = 60*4"),
])
def test_malformed_meta_exits_3(blob_dir, tmp_path, capsys, views, message):
    np.arange(239.0).tofile(blob_dir / "v.f64")
    meta_path = blob_dir / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta_path.write_text(json.dumps({**meta, "views": views}), encoding="utf-8")
    assert main(fit_args(blob_dir, tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error [") and message in err


def fail_reads_under(monkeypatch, target: Path) -> None:
    """Make open and np.fromfile raise EIO on target and the files under
    it; every other path reads as before. File modes cannot make a read
    fail for root, so the failure is injected."""
    def failing(real):
        def fake(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)) and (
                    Path(path) == target or target in Path(path).parents):
                raise OSError(errno.EIO, os.strerror(errno.EIO), str(path))
            return real(path, *args, **kwargs)
        return fake

    monkeypatch.setattr(builtins, "open", failing(builtins.open))
    monkeypatch.setattr(np, "fromfile", failing(np.fromfile))


class TestReadFailures:
    """An OSError while reading an input exits 3 as IoError naming the file,
    or as MissingFile if the file is not there."""

    @pytest.mark.parametrize("fmt, name", [("csv", "view0.csv"), ("f64le", "view1.f64"),
                                           ("csv", "labels.txt"), ("csv", "meta.json")])
    def test_dataset_file(self, tmp_path, capsys, monkeypatch, fmt, name):
        root = tmp_path / "data"
        save_dataset(synth_blobs(60, 3, 2, [4, 5], seed=0), root, fmt=fmt)
        fail_reads_under(monkeypatch, root / name)
        assert main(fit_args(root, tmp_path / "o")) == 3
        assert f"data error [IoError]: reading {root / name}: [Errno 5]" in (
            capsys.readouterr().err)

    def test_reconstruct_input(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "S.csv"
        write_matrix_csv(np.full((4, 2), 0.5), graph)
        fail_reads_under(monkeypatch, graph)
        assert main(["reconstruct-graph", str(graph), str(tmp_path / "B.csv")]) == 3
        assert f"data error [IoError]: reading {graph}: [Errno 5]" in (
            capsys.readouterr().err)

    def test_cached_anchor_file(self, blob_dir, tmp_path, capsys, monkeypatch):
        # the key file and meta.json read first (test_config_and_key_file)
        out = tmp_path / "o"
        argv = fit_args(blob_dir, out) + ["--cache-graphs"]
        assert main(argv) == 0
        fail_reads_under(monkeypatch, out / "graphs" / "view0.f64")
        assert main(argv) == 3
        assert f"data error [IoError]: reading {out / 'graphs' / 'view0.f64'}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("state, message", [
        ("missing", "[MissingFile]: reading {}: [Errno 2]"),
        ("a directory", "[IoError]: reading {}: [Errno 21]")], ids=["missing", "dir"])
    @pytest.mark.parametrize("name", ["meta.json", "view0.csv", "view1.f64", "labels.txt",
                                      "--config", "reconstruct-graph", "evaluate"])
    def test_input_missing_or_a_directory(self, tmp_path, capsys, name, state,
                                          message):
        # the open itself decides: no existence check runs before it
        root = tmp_path / "data"
        fmt = "f64le" if name == "view1.f64" else "csv"
        save_dataset(synth_blobs(60, 3, 2, [4, 5], seed=0), root, fmt=fmt)
        target = tmp_path / "input"
        argv = {"--config": fit_args(root, tmp_path / "o") + ["--config", str(target)],
                "reconstruct-graph": [name, str(target), str(tmp_path / "B.csv")],
                "evaluate": [name, str(target), str(root / "labels.txt")]}.get(name)
        if argv is None:
            target, argv = root / name, fit_args(root, tmp_path / "o")
        target.unlink(missing_ok=True)
        if state == "a directory":
            target.mkdir()
        assert main(argv) == 3
        assert f"data error {message.format(target)}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cfg.json", "o/graphs/anchor_key.json"])
    def test_config_and_key_file(self, blob_dir, tmp_path, capsys, monkeypatch, name):
        (tmp_path / "cfg.json").write_text(json.dumps({"max_iters": 5}))
        argv = fit_args(blob_dir, tmp_path / "o") + [
            "--cache-graphs", "--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 0
        capsys.readouterr()
        fail_reads_under(monkeypatch, tmp_path / name)
        assert main(argv) == 3
        assert f"data error [IoError]: reading {tmp_path / name}: [Errno 5]" in (
            capsys.readouterr().err)


def test_every_error_has_one_category(monkeypatch, capsys):
    # a new error class that falls under no category would exit 1 with a
    # traceback; each one exits with its category's status and prefix
    prefixes = {ConfigError: "config error [{}]: ", DataError: "data error [{}]: ",
                NumericalBreakdown: "numerical breakdown: "}
    assert [c.exit_status for c in prefixes] == [2, 3, 4]
    classes, pending = [], [AnchorClustError]
    while pending:
        subs = pending.pop().__subclasses__()
        classes += subs
        pending += subs
    assert len(classes) >= 12
    for cls in classes:
        (category,) = [c for c in prefixes if issubclass(cls, c)]

        def raising(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_evaluate", raising)
        assert main(["evaluate", "truth.txt", "pred.txt"]) == category.exit_status
        err = capsys.readouterr().err
        assert err == prefixes[category].format(cls.__name__) + "boom\n"


def test_breakdown_in_a_cycle_exits_4(blob_dir, tmp_path, capsys, monkeypatch):
    # the objective runs once at cycle 0 and once per later cycle
    real, calls = solver_mod._objective, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("eigh did not converge")
        return real(*args)

    monkeypatch.setattr(solver_mod, "_objective", failing)
    assert main(fit_args(blob_dir, tmp_path / "o")) == 4
    assert capsys.readouterr().err == (
        "numerical breakdown: linear algebra failed at cycle 2: eigh did not converge\n")


class TestReconstructCommand:
    def test_dense_output_row_stochastic(self, tmp_path):
        rng = np.random.default_rng(0)
        S = rng.random((8, 3))
        S /= S.sum(axis=1, keepdims=True)
        write_matrix_csv(S, tmp_path / "S.csv")
        out = tmp_path / "B.csv"
        assert main(["reconstruct-graph", str(tmp_path / "S.csv"), str(out)]) == 0
        B = np.loadtxt(out, delimiter=",")
        assert B.shape == (8, 8)
        assert np.allclose(B.sum(axis=1), 1.0, atol=1e-8)

    def test_blank_first_line(self, tmp_path):
        (tmp_path / "S.csv").write_text("\n0.5,0.5\n1,0\n")
        out = tmp_path / "B.csv"
        assert main(["reconstruct-graph", str(tmp_path / "S.csv"), str(out)]) == 0
        assert np.loadtxt(out, delimiter=",").shape == (2, 2)

    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_blank_input_exits_3(self, tmp_path, capsys, text):
        (tmp_path / "S.csv").write_text(text)
        assert main(["reconstruct-graph", str(tmp_path / "S.csv"),
                     str(tmp_path / "B.csv")]) == 3
        assert f"data error [ShapeMismatch]: {tmp_path / 'S.csv'}: empty" in (
            capsys.readouterr().err)

    def test_top_k_with_binary_format_exits_2(self, tmp_path, capsys):
        # refused before the graph is read: the graph file does not exist
        out = tmp_path / "B.f64"
        assert main(["reconstruct-graph", str(tmp_path / "absent.csv"), str(out),
                     "--format", "f64le", "--top-k", "2"]) == 2
        assert "config error [MalformedConfig]: --format f64le" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_top_k_below_1_exits_2_before_read(self, tmp_path, capsys):
        # the graph has a negative entry, whose clamping note would show a read
        write_matrix_csv(np.array([[0.5, 0.5], [1.5, -0.5]]), tmp_path / "S.csv")
        out = tmp_path / "B.csv"
        assert main(["reconstruct-graph", str(tmp_path / "S.csv"), str(out),
                     "--top-k", "0"]) == 2
        assert capsys.readouterr().err == (
            "config error [InvalidParameter]: --top-k must be >= 1, got 0\n")
        assert not out.exists()

    def test_top_k_coo_output(self, tmp_path):
        rng = np.random.default_rng(1)
        S = rng.random((6, 3))
        S /= S.sum(axis=1, keepdims=True)
        write_matrix_csv(S, tmp_path / "S.csv")
        out = tmp_path / "B.csv"
        assert main(["reconstruct-graph", str(tmp_path / "S.csv"), str(out),
                     "--top-k", "2"]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "row,col,value"
        assert len(rows) == 6 * 2

    def test_learned_consensus_graph_round_trips(self, tmp_path):
        # the saved consensus graph may have small negative entries after
        # the low-rank step; the subcommand must still reconstruct from it
        ds = synth_blobs(40, 2, 2, [3, 3], seed=5)
        root = tmp_path / "d"
        save_dataset(ds, root)
        run = tmp_path / "run"
        main(["fit", str(root), "--output", str(run), "--c", "2", "--m", "6",
              "--k", "2", "--save-graph"])
        out = tmp_path / "full.csv"
        code = main(["reconstruct-graph", str(run / "consensus_graph.csv"),
                     str(out)])
        assert code == 0
        B = np.loadtxt(out, delimiter=",")
        assert B.shape == (40, 40)
        assert np.all(B >= 0)

    def test_binary_output_matches_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        S = rng.random((5, 3))
        S /= S.sum(axis=1, keepdims=True)
        write_matrix_csv(S, tmp_path / "S.csv")
        main(["reconstruct-graph", str(tmp_path / "S.csv"),
              str(tmp_path / "B.csv")])
        main(["reconstruct-graph", str(tmp_path / "S.csv"),
              str(tmp_path / "B.f64"), "--format", "f64le"])
        dense = np.loadtxt(tmp_path / "B.csv", delimiter=",")
        raw = np.fromfile(tmp_path / "B.f64", dtype="<f8").reshape(5, 5)
        assert np.array_equal(dense, raw)

    def test_binary_output_written_without_a_copy(self, tmp_path, monkeypatch):
        # from the moment B exists, writing it adds under 1% of B to the
        # peak; a converted copy would add 100%
        rng = np.random.default_rng(3)
        S = rng.random((1200, 4))
        write_matrix_csv(S / S.sum(axis=1, keepdims=True), tmp_path / "S.csv")
        built = {}
        reconstruct = cli.graph_tools.reconstruct_full_graph

        def measured(S):
            built["B"] = B = reconstruct(S)
            built["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return B

        monkeypatch.setattr(cli.graph_tools, "reconstruct_full_graph", measured)
        tracemalloc.start()
        try:
            assert main(["reconstruct-graph", str(tmp_path / "S.csv"),
                         str(tmp_path / "B.f64"), "--format", "f64le"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        B = built["B"]
        assert peak - built["base"] < 0.01 * B.nbytes
        assert np.array_equal(np.fromfile(tmp_path / "B.f64", dtype="<f8").reshape(B.shape), B)

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        write_matrix_csv(np.full((4, 2), 0.5), tmp_path / "S.csv")
        (tmp_path / "taken").write_text("")
        code = main(["reconstruct-graph", str(tmp_path / "S.csv"),
                     str(tmp_path / "taken" / "B.csv")])
        assert code == 3
        assert "data error [IoError]" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("top_k", [[], ["--top-k", "2"]])
    def test_non_finite_graph_exits_3(self, tmp_path, capsys, bad, top_k):
        S = np.full((4, 2), 0.5)
        S[1, 0] = bad
        write_matrix_csv(S, tmp_path / "S.csv")
        code = main(["reconstruct-graph", str(tmp_path / "S.csv"),
                     str(tmp_path / "B.csv")] + top_k)
        assert code == 3
        assert "data error [NonFiniteValue]" in capsys.readouterr().err
        assert not (tmp_path / "B.csv").exists()


class TestSweepCommand:
    def test_single_cell_matches_fit(self, blob_dir, tmp_path):
        fit_out = tmp_path / "fit"
        main(fit_args(blob_dir, fit_out, max_iters=30))
        sweep_out = tmp_path / "sweep"
        code = main(["sweep", str(blob_dir), "--output", str(sweep_out),
                     "--m-grid", "10", "--beta-grid", "0.2",
                     "--gamma-grid", "0.1", "--c", "3", "--k", "3",
                     "--seed", "0", "--max-iters", "30"])
        assert code == 0
        rows = read_sweep_report(sweep_out / "sweep.csv")
        assert len(rows) == 1
        cell = rows[0]
        record = read_results(fit_out)
        assert cell["status"] == "ok"
        assert cell["final_objective"] == pytest.approx(
            record["final_objective"], rel=1e-12
        )
        assert cell["acc"] == record["metrics"]["acc"]

    def test_gamma_grid_all_cells_monotone(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8", "--beta-grid", "0.2",
                     "--gamma-grid", "1e-5,1e-3,1e-1,1e1",
                     "--c", "3", "--max-iters", "15", "--seed", "0"])
        assert code == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        for r in rows:
            cell_dir = out / "cells" / f"cell_m{r['m']}_b{r['beta']}_g{r['gamma']}"
            objs = [o for _, o in read_convergence(cell_dir)]
            assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_failed_cell_recorded_and_sweep_continues(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8,500", "--beta-grid", "0.2",
                     "--gamma-grid", "0.1", "--c", "3", "--max-iters", "5"])
        assert code == 0
        rows = read_sweep_report(out / "sweep.csv")
        status = {r["m"]: r["status"] for r in rows}
        assert status[8] == "ok"
        assert status[500] == "failed"
        assert "InvalidParameter" in [r for r in rows if r["m"] == 500][0]["error"]

    def test_c_above_n_fails_every_cell(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8,10", "--beta-grid", "0.2",
                     "--gamma-grid", "0.1", "--c", "61", "--max-iters", "5"]) == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert [(r["m"], r["status"], r["error"]) for r in rows] == [
            (m, "failed", "InvalidParameter: need c <= n, got c=61, n=60")
            for m in (8, 10)]

    def test_c_above_m_fails_that_m_cells(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "6,20", "--beta-grid", "0.2,0.5",
                     "--gamma-grid", "0.1", "--c", "8", "--max-iters", "5"]) == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert [(r["m"], r["status"], r["error"]) for r in rows] == [
            (6, "failed", "InvalidParameter: need c <= m, got c=8, m=6"),
            (6, "failed", "InvalidParameter: need c <= m, got c=8, m=6"),
            (20, "ok", ""), (20, "ok", "")]
        assert all(r["iterations"] >= 1 for r in rows[2:])

    @pytest.mark.parametrize("workers", ["abc", "", "0", "-1", "1.5", "\u00b2"])
    def test_bad_workers_exits_2_before_load(self, blob_dir, tmp_path, capsys,
                                            monkeypatch, workers):
        loads = []
        monkeypatch.setattr(dataset_mod, "load_dataset",
                            lambda root, *a, **kw: loads.append(root))
        monkeypatch.setenv("ANCHORCLUST_WORKERS", workers)
        assert main(["sweep", str(blob_dir), "--output", str(tmp_path / "o"),
                     "--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1",
                     "--c", "3"]) == 2
        assert "config error [MalformedConfig]: ANCHORCLUST_WORKERS" in (
            capsys.readouterr().err)
        assert loads == []

    @pytest.mark.parametrize("grid", ["--m-grid", "--beta-grid", "--gamma-grid"])
    @pytest.mark.parametrize("text", ["", ",", ",,"])
    def test_empty_grid_exits_2(self, blob_dir, tmp_path, capsys, grid, text):
        grids = {"--m-grid": "8", "--beta-grid": "0.2", "--gamma-grid": "0.1", grid: text}
        argv = ["sweep", str(blob_dir), "--output", str(tmp_path / "o"), "--c", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}" for flag, value in grids.items()])
        assert exc.value.code == 2
        assert f"argument {grid}: empty grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_grid_value_fails_its_own_cells(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "1,8", "--beta-grid=-1,0.2",
                     "--gamma-grid", "0.1", "--c", "3", "--max-iters", "5"]) == 0
        rows = read_sweep_report(out / "sweep.csv")
        status = {(r["m"], r["beta"]): r["status"] for r in rows}
        assert status == {(1, -1.0): "failed", (1, 0.2): "failed",
                          (8, -1.0): "failed", (8, 0.2): "ok"}
        assert all(r["error"].startswith("InvalidParameter: ")
                   for r in rows if r["status"] == "failed")

    def test_repeated_grid_values_solve_once(self, blob_dir, tmp_path, monkeypatch):
        runs = []
        run_fit = cli.run_fit

        def counting_run_fit(cfg, *args, **kwargs):
            runs.append((cfg.m, cfg.beta, cfg.gamma))
            return run_fit(cfg, *args, **kwargs)

        monkeypatch.setenv("ANCHORCLUST_WORKERS", "1")
        monkeypatch.setattr(cli, "run_fit", counting_run_fit)
        out = tmp_path / "sweep"
        assert main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8,8", "--beta-grid", "0.1,0.1,1e-1,0.2,0.1",
                     "--gamma-grid", "0.01", "--c", "3", "--max-iters", "5"]) == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert [(r["m"], r["beta"], r["gamma"]) for r in rows] == runs == [
            (8, 0.1, 0.01), (8, 0.2, 0.01)]
        assert sorted(p.name for p in (out / "cells").iterdir()) == [
            "cell_m8_b0.1_g0.01", "cell_m8_b0.2_g0.01"]

    def test_worker_pool(self, blob_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ANCHORCLUST_WORKERS", "2")
        out = tmp_path / "sweep"
        code = main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8,10", "--beta-grid", "0.2",
                     "--gamma-grid", "0.1", "--c", "3", "--max-iters", "5"])
        assert code == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert len(rows) == 2 and all(r["status"] == "ok" for r in rows)

    def test_pool_job_size_does_not_grow_with_n(self, tmp_path, monkeypatch):
        class InlinePool:
            """Runs the pool's initializer and jobs in this process."""

            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                jobs = list(jobs)
                sizes.append(max(len(pickle.dumps(job)) for job in jobs))
                return map(fn, jobs)

        sizes = []
        monkeypatch.setenv("ANCHORCLUST_WORKERS", "2")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_POOL_BUILDS", None)
        for n in (60, 2000):
            root = tmp_path / f"data{n:05d}"
            save_dataset(synth_blobs(n, 3, 2, [4, 5], seed=0), root)
            out = tmp_path / f"out{n:05d}"
            assert main(["sweep", str(root), "--output", str(out),
                         "--m-grid", "8,10", "--beta-grid", "0.2",
                         "--gamma-grid", "0.1", "--c", "3", "--max-iters", "5"]) == 0
            rows = read_sweep_report(out / "sweep.csv")
            assert len(rows) == 2 and all(r["status"] == "ok" for r in rows)
        # a job is one cell's config; the graphs (n x m per view) reach
        # each worker once, through the pool initializer
        assert sizes[0] == sizes[1] < 2000

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_cells_match_separate_fits(self, blob_dir, tmp_path,
                                            monkeypatch, workers):
        monkeypatch.setenv("ANCHORCLUST_WORKERS", workers)
        flags = ["--c", "3", "--k", "3", "--seed", "0", "--max-iters", "30"]
        out = tmp_path / "sweep"
        assert main(["sweep", str(blob_dir), "--output", str(out),
                     "--m-grid", "8,10", "--beta-grid", "0.2,1.0",
                     "--gamma-grid", "0.01,0.1"] + flags) == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert len(rows) == 8 and all(r["status"] == "ok" for r in rows)
        timing = {"elapsed_seconds", "build_seconds"}
        for r in rows:
            name = f"cell_m{r['m']}_b{r['beta']}_g{r['gamma']}"
            fit_out = tmp_path / name
            assert main(fit_args(blob_dir, fit_out, m=r["m"], beta=r["beta"],
                                 gamma=r["gamma"], max_iters=30)) == 0
            cell = out / "cells" / name
            for fname in ("labels.txt", "convergence.csv"):
                assert (cell / fname).read_bytes() == (fit_out / fname).read_bytes()
            got, want = read_results(cell), read_results(fit_out)
            assert {k: v for k, v in got.items() if k not in timing} == {
                k: v for k, v in want.items() if k not in timing
            }

    def test_loads_once_and_selects_anchors_once_per_m(self, blob_dir, tmp_path,
                                                       monkeypatch):
        calls = {"load": 0, "select": []}
        load, select = dataset_mod.load_dataset, anchors_mod.select_anchors

        def counting_load(*args, **kwargs):
            calls["load"] += 1
            return load(*args, **kwargs)

        def counting_select(ds, m, *args, **kwargs):
            calls["select"].append(m)
            return select(ds, m, *args, **kwargs)

        monkeypatch.setattr(dataset_mod, "load_dataset", counting_load)
        monkeypatch.setattr(anchors_mod, "select_anchors", counting_select)
        code = main(["sweep", str(blob_dir), "--output", str(tmp_path / "sweep"),
                     "--m-grid", "8,10", "--beta-grid", "0.2,1.0",
                     "--gamma-grid", "0.01,0.1", "--c", "3", "--max-iters", "5"])
        assert code == 0
        assert calls["load"] == 1
        assert sorted(calls["select"]) == [8, 10]

    def test_cells_share_one_graph_set_per_m(self, blob_dir, tmp_path,
                                            monkeypatch):
        # each graph set stacks its graphs into the block row once and
        # takes the cross-Grams from it; the 4 cells of an m reuse them
        stacks = []
        hstack = sp.hstack

        def counting_hstack(*args, **kwargs):
            stacks.append(1)
            return hstack(*args, **kwargs)

        monkeypatch.setenv("ANCHORCLUST_WORKERS", "1")
        monkeypatch.setattr(sp, "hstack", counting_hstack)
        code = main(["sweep", str(blob_dir), "--output", str(tmp_path / "sweep"),
                     "--m-grid", "8,10", "--beta-grid", "0.2,1.0",
                     "--gamma-grid", "0.01,0.1", "--c", "3", "--max-iters", "5"])
        assert code == 0
        assert len(read_sweep_report(tmp_path / "sweep" / "sweep.csv")) == 8
        assert len(stacks) == 2

    def test_missing_dataset_fails_every_cell(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", str(tmp_path / "nope"), "--output", str(out),
                     "--m-grid", "8,10", "--beta-grid", "0.2",
                     "--gamma-grid", "0.1,1.0", "--c", "3"])
        assert code == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert len(rows) == 4
        assert all(r["status"] == "failed" for r in rows)
        assert len({r["error"] for r in rows}) == 1
        assert rows[0]["error"].startswith("MissingFile: ")

    def test_shared_build_warnings_suppressed(self, tmp_path, capsys):
        # 4 distinct rows per view, so m=6 anchors cannot be distinct
        base = synth_blobs(4, 2, 2, [3, 3], seed=3)
        ds = MultiViewDataset(views=[np.repeat(X, 5, axis=0) for X in base.views],
                              labels=np.repeat(base.labels, 5))
        with pytest.warns(DegenerateViewWarning):
            anchors_mod.select_anchors(ds, 6, seed=0)
        root = tmp_path / "dup"
        save_dataset(ds, root)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", str(root), "--output", str(tmp_path / "sweep"),
                         "--m-grid", "6", "--beta-grid", "0.2",
                         "--gamma-grid", "0.1", "--c", "2", "--max-iters", "5"])
        assert code == 0
        assert caught == []
        assert capsys.readouterr().err == ""

    def test_unwritable_cells_fail_and_unwritable_report_exits_3(
            self, blob_dir, tmp_path, capsys, monkeypatch):
        # a cell's directory is made before its solve
        fits = []
        fit = solver_mod.fit

        def counting_fit(*args, **kwargs):
            fits.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "fit", counting_fit)
        argv = ["--m-grid", "8", "--beta-grid", "0.2", "--gamma-grid", "0.1,1.0",
                "--c", "3", "--max-iters", "5"]
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "cells").write_text("")
        assert main(["sweep", str(blob_dir), "--output", str(out)] + argv) == 0
        rows = read_sweep_report(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["failed", "failed"]
        assert all(r["error"].startswith("IoError: ") for r in rows)
        assert fits == []
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["sweep", str(blob_dir), "--output", str(taken)] + argv) == 3
        assert "data error [IoError]" in capsys.readouterr().err

    def test_cache_graphs_one_entry_per_m(self, blob_dir, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", str(blob_dir), "--output", str(out), "--m-grid", "8,10",
                "--beta-grid", "0.2,1.0", "--gamma-grid", "0.1", "--c", "3",
                "--max-iters", "5", "--cache-graphs"]
        cells = ["cell_m8_b0.2_g0.1", "cell_m8_b1.0_g0.1",
                 "cell_m10_b0.2_g0.1", "cell_m10_b1.0_g0.1"]
        assert main(argv) == 0
        assert sorted(p.name for p in (out / "graphs").iterdir()) == ["m10", "m8"]
        first = {c: (out / "cells" / c / "labels.txt").read_bytes() for c in cells}
        assert not any(read_results(out / "cells" / c)["graphs_cached"] for c in cells)
        assert main(argv) == 0
        assert all(read_results(out / "cells" / c)["graphs_cached"] for c in cells)
        assert first == {c: (out / "cells" / c / "labels.txt").read_bytes()
                         for c in cells}


def test_only_errors_catches_oserror():
    # an OSError becomes IoError in one place, errors.io_errors; a handler
    # anywhere else would give a file failure its own error and exit status
    package = Path(cli.__file__).parent
    handlers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        handlers += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(isinstance(name, ast.Name) and name.id == "OSError"
                    for name in ast.walk(node.type))
        ]
    assert handlers == []


def test_no_existence_precheck():
    # a reader opens the file and lets the failed open decide (io_errors);
    # a stat before the open is a second decision, and a race with a writer
    package = Path(cli.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("is_file", "exists", "is_dir")
        ]
    assert calls == []


def test_anchors_do_no_file_io():
    # the anchor cache of --cache-graphs is cli.cached_anchors; the module
    # that selects anchors and builds graphs neither reads nor writes files
    tree = ast.parse((Path(cli.__file__).parent / "anchors.py").read_text(encoding="utf-8"))
    io_calls = ("open", "io_errors", "read_json", "load_dataset", "save_dataset")
    calls = [
        f"anchors.py:{node.lineno}" for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in io_calls
    ]
    assert calls == []


def test_only_dataset_writes_data_files():
    # labels, f64le matrices and JSON each have one writer, in dataset.py
    # beside their readers; the CLI's own reports are CSV through csv.writer
    package = Path(cli.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.name == "dataset.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("tofile", "write_text", "writelines")
        ]
    assert calls == []


def test_one_breakdown_handler():
    # a LinAlgError becomes NumericalBreakdown in one place, the cycle loop
    # of solver.fit; a second handler would give a failure its own message
    package = Path(cli.__file__).parent
    handlers = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                    getattr(name, "attr", getattr(name, "id", None)) == "LinAlgError"
                    for name in ast.walk(node.type)):
                owner = max((f for f in funcs if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                handlers.append(f"{path.name}:{owner.name if owner else '<module>'}")
    assert handlers == ["solver.py:fit"]


def test_only_cli_prints():
    # the library reports through return values and warnings; only the
    # command-line front end writes to the terminal
    package = Path(cli.__file__).parent
    printers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        printers += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]
    assert printers == []


class TestModuleEntryPoint:
    """python -m anchorclust, in a child interpreter."""

    @staticmethod
    def run(*argv):
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "anchorclust", *map(str, argv)],
                              capture_output=True, text=True, env=env)

    def test_evaluate_prints_scores(self, tmp_path):
        (tmp_path / "y.txt").write_text("0\n0\n1\n2\n2\n")
        done = self.run("evaluate", tmp_path / "y.txt", tmp_path / "y.txt")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert json.loads(done.stdout) == dict.fromkeys(
            ["acc", "nmi", "purity", "ari", "f_score", "precision"], 1.0)

    def test_config_error_exits_2_with_one_line(self, blob_dir, tmp_path):
        done = self.run("fit", blob_dir, "--output", tmp_path / "o", "--m", "1")
        assert done.returncode == 2
        assert done.stderr == ("config error [InvalidParameter]: need m >= 2 and k >= 1, "
                               "got m=1, k=5\n")
        assert done.stdout == ""
