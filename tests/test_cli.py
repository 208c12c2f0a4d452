import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from eanet import cli
from eanet import config as cfg
from eanet import gradcheck
from eanet import runtime
from eanet.checkpoint import load_checkpoint
from eanet.data import SyntheticScenarioSpec
from eanet.errors import ConfigError, ParseError
from eanet.gradcheck import run_gradient_checks
from eanet.model import ModelConfig, TrajectoryModel, toy_instance
from eanet.plots import MARGIN_TOP, PLOT_H, plot_curves, plot_expert_strip
from eanet.report import read_stream_csv, write_loss_csv, write_stream_csv
from eanet.runtime import BaseMetrics, OnlineConfig, StreamRecord, TrainConfig, run_online

SVG = "{http://www.w3.org/2000/svg}"


def test_the_cli_imports_no_network_modules():
    # Every command imports the CLI, so a module it pulls in costs every
    # command its load time and memory (xml.sax.saxutils pulls in all of
    # these for one escape).
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, eanet.cli; print(' '.join(sorted({'ssl', 'urllib.request', "
            "'http.client', 'socket', 'email'} & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    assert done.stdout.split() == []


# ---------------------------------------------------------------------------
# config files


def test_parse_kv_skips_comments_and_blanks():
    text = "# a comment\n\nepochs = 3\n  lr=0.5  \n"
    assert cfg.parse_kv_text(text) == {"epochs": "3", "lr": "0.5"}


def test_parse_kv_reports_line_numbers():
    with pytest.raises(ParseError, match=":2:"):
        cfg.parse_kv_text("epochs = 3\nnot a pair\n")
    with pytest.raises(ParseError, match="duplicate"):
        cfg.parse_kv_text("lr = 1\nlr = 2\n")
    with pytest.raises(ParseError, match="empty key"):
        cfg.parse_kv_text("= 2\n")


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epoches = 3\n")
    with pytest.raises(ConfigError, match="epoches"):
        cfg.load_config_file(str(path))


def test_config_coercions():
    mapping = {"epochs": "3", "lr": "0.5", "clip_norm": "none",
               "rr_checkpoints": "0, 50", "strategy": "hedge"}
    train = cfg.config_from(TrainConfig, mapping, seed=0)
    assert train.epochs == 3 and train.lr == 0.5
    online = cfg.config_from(OnlineConfig, mapping, seed=4)
    assert online.clip_norm is None
    assert online.rr_checkpoints == (0, 50)
    assert online.strategy == "hedge" and online.seed == 4
    with pytest.raises(ConfigError, match="integer"):
        cfg.config_from(TrainConfig, {"epochs": "three"}, seed=0)
    with pytest.raises(ConfigError, match="clip_norm"):
        cfg.config_from(OnlineConfig, {"clip_norm": "soft"}, seed=0)


def test_overrides_beat_the_file():
    mapping = {"epochs": "3", "online_lr": "0.5"}
    overrides = argparse.Namespace(epochs=9)
    assert cfg.config_from(TrainConfig, mapping, seed=0, overrides=overrides).epochs == 9
    overrides = argparse.Namespace(lr=0.25, clip_norm="none")
    online = cfg.config_from(OnlineConfig, mapping, seed=0, overrides=overrides)
    assert online.lr == 0.25 and online.clip_norm is None


def test_empty_mapping_gives_the_dataclass_defaults():
    assert cfg.config_from(ModelConfig, {}) == ModelConfig()
    assert cfg.config_from(TrainConfig, {}, seed=0) == TrainConfig()
    assert cfg.config_from(OnlineConfig, {}, seed=0) == OnlineConfig()


def test_known_keys_are_the_config_fields():
    assert cfg.KNOWN_KEYS == (
        "alignment", "batch_size", "clip_norm", "epochs", "kernel", "lr", "lr_after",
        "lr_drop_epoch", "max_instances", "online_lr", "prelu_init", "rbf_sigma",
        "rr_checkpoints", "seed", "stack_layers", "strategy", "t_obs", "t_pred",
        "updates_per_instance")


@pytest.mark.parametrize("command, configs", [
    ("train", (ModelConfig, TrainConfig)),
    ("base", (ModelConfig, TrainConfig)),
    ("online", (OnlineConfig,)),
])
def test_setting_flags_name_config_fields(command, configs):
    # config_from reads overrides by field name, so a flag whose dest names
    # no field would be ignored without an error.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    groups = [g for g in commands.choices[command]._action_groups if g.title == cli.SETTINGS]
    dests = [action.dest for group in groups for action in group._group_actions]
    fields = {f.name for config in configs for f in dataclasses.fields(config)}
    assert dests and set(dests) <= fields


_NON_FINITE = ("nan", "inf", "-inf")


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, OnlineConfig, SyntheticScenarioSpec])
@pytest.mark.parametrize("text", _NON_FINITE)
def test_every_float_setting_must_be_finite(cls, text):
    # NaN passes every `x <= 0` range check, and inf passes most of them.
    names = [f.name for f in dataclasses.fields(cls) if isinstance(f.default, float)]
    assert names
    for name in names:
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            cls(**{name: float(text)}).validate()


def _command(name: str, tmp_path) -> list[str]:
    """Arguments for ``name`` whose inputs do not exist, so that the run
    fails at its first piece of work if its settings pass."""
    missing, out = str(tmp_path / "missing.txt"), str(tmp_path / "out")
    return {"gen": ["gen", "--kind", "circle", "--frames", "30", "--out", out],
            "train": ["train", "--data", missing, "--ckpt-out", out],
            "base": ["base", "--data", missing, "--out", out],
            "online": ["online", "--ckpt", missing, "--stream", missing, "--report", out]}[name]


@pytest.mark.parametrize("command, flag", [
    ("gen", "--speed"), ("gen", "--noise"), ("gen", "--extent"),
    ("train", "--lr"), ("train", "--lr-after"), ("base", "--lr"), ("base", "--lr-after"),
    ("online", "--lr"), ("online", "--clip-norm"), ("online", "--base-ade"),
    ("online", "--base-fde")])
@pytest.mark.parametrize("text", _NON_FINITE)
def test_non_finite_flag_is_a_config_error(command, flag, text, tmp_path, capsys):
    assert cli.main(_command(command, tmp_path) + [f"{flag}={text}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--base-ade", "--base-fde"])
@pytest.mark.parametrize("text", ["0", "-0.5"])
def test_non_positive_base_flag_is_a_config_error(flag, text, tmp_path, capsys):
    assert cli.main(_command("online", tmp_path) + [f"{flag}={text}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and positive" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", [
    ("train", "lr"), ("train", "lr_after"), ("train", "rbf_sigma"), ("train", "prelu_init"),
    ("base", "lr"), ("base", "lr_after"), ("base", "rbf_sigma"), ("base", "prelu_init"),
    ("online", "online_lr"), ("online", "clip_norm")])
@pytest.mark.parametrize("text", _NON_FINITE)
def test_non_finite_config_key_is_a_config_error(command, key, text, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {text}\n")
    assert cli.main(_command(command, tmp_path) + ["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key.removeprefix('online_')} must be finite" in err
    assert list(tmp_path.iterdir()) == [config]


def test_seed_precedence(monkeypatch):
    monkeypatch.setenv("EANET_SEED", "41")
    assert cfg.resolve_seed(9, {"seed": "3"}) == 9
    assert cfg.resolve_seed(None, {"seed": "3"}) == 3
    assert cfg.resolve_seed(None, {}) == 41
    monkeypatch.delenv("EANET_SEED")
    assert cfg.resolve_seed(None, {}) == 0


def test_config_digest_is_order_independent():
    a = cfg.config_digest({"x": 1, "y": 2})
    b = cfg.config_digest({"y": 2, "x": 1})
    assert a == b and len(a) == 64


# ---------------------------------------------------------------------------
# stream report CSV


def sample_records():
    return [
        StreamRecord(0, 0.5, 0.9, None, 3.25, 0.125, "normal",
                     (0.1, 0.2, 0.7), (0.0, 0.0, 2.0), pre_norm=0.375, clipped=True),
        StreamRecord(1, 0.25, 0.4, 0.8, 3.0, float("nan"), "exploded", None, None),
        StreamRecord(2, 0.75, 1.5, None, float("inf"), None, "exploded",
                     (0.5, 0.25, 0.25), None, pre_norm=float("nan"), clipped=False),
    ]


def legacy_report(path, out):
    """Rewrite the report at ``path`` to ``out`` in the layout written
    before the pre_norm and clipped columns, the seventh and eighth."""
    with open(path, newline="") as fh:
        rows = [row[:7] + row[9:] for row in csv.reader(fh)]
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_stream_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "report.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    back = read_stream_csv(str(path))
    assert back[0] == sample_records()[0]
    assert back[1].rr == 0.8 and math.isnan(back[1].grad_norm)
    assert back[1].expert is None and back[1].alpha is None
    assert back[1].pre_norm is None and back[1].clipped is None
    assert math.isnan(back[2].pre_norm) and back[2].clipped is False
    assert dataclasses.replace(back[2], pre_norm=None) == dataclasses.replace(
        sample_records()[2], pre_norm=None)


def test_stream_csv_reads_the_layout_without_pre_norm_and_clipped(tmp_path):
    path, old = tmp_path / "report.csv", tmp_path / "old.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    legacy_report(path, old)
    assert old.read_text().splitlines()[0] == ("instance_idx,ade,fde,rr,loss,grad_norm,health,"
                                               "e_1,e_2,e_3,alpha_1,alpha_2,alpha_3")
    back = read_stream_csv(str(old))
    assert [(r.pre_norm, r.clipped) for r in back] == [(None, None)] * 3
    want = [dataclasses.replace(r, pre_norm=None, clipped=None) for r in sample_records()]
    assert back[0] == want[0] and back[2] == want[2]
    assert back[1].rr == 0.8 and math.isnan(back[1].grad_norm)


def test_stream_csv_clipped_cells_must_be_flags(tmp_path):
    path = tmp_path / "report.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[7:9] == ["0.375", "1"]
    path.write_text("\n".join([lines[0], lines[1].replace("0.375,1,", "0.375,yes,")]) + "\n")
    with pytest.raises(ParseError, match="row 2: column 'clipped'"):
        read_stream_csv(str(path))


def test_stream_csv_column_order(tmp_path):
    path = tmp_path / "report.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    header = path.read_text().splitlines()[0]
    assert header == ("instance_idx,ade,fde,rr,loss,grad_norm,health,pre_norm,clipped,"
                      "e_1,e_2,e_3,alpha_1,alpha_2,alpha_3")


def test_stream_csv_parse_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "report.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    lines = path.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], lines[1].replace("0.5", "half")]) + "\n")
    with pytest.raises(ParseError, match="row 2"):
        read_stream_csv(str(bad))
    bad.write_text("\n".join([lines[0], "1,2,3"]) + "\n")
    with pytest.raises(ParseError, match="row 2"):
        read_stream_csv(str(bad))
    bad.write_text("a,b\n")
    with pytest.raises(ParseError, match="header"):
        read_stream_csv(str(bad))


@pytest.mark.parametrize("cell", ["nan", "inf", "1.5"])
def test_stream_csv_instance_index_must_be_an_integer(tmp_path, cell):
    path = tmp_path / "report.csv"
    write_stream_csv(sample_records(), str(path), layers=3)
    lines = path.read_text().splitlines()
    lines[2] = cell + lines[2][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"row 3: column 'instance_idx' .*{cell}"):
        read_stream_csv(str(path))


def test_loss_csv_has_one_row_per_epoch(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_csv([2.5, 2.25, 2.0], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 4 and lines[2] == "1,2.25"


# ---------------------------------------------------------------------------
# SVG plots


def curve_lengths(path):
    root = ET.parse(path).getroot()
    return {pl.get("class"): len(pl.get("points").split())
            for pl in root.iter(f"{SVG}polyline")}


def test_curve_point_count_equals_report_rows(tmp_path):
    records = [StreamRecord(i, 0.5 + 0.01 * i, 0.9, 0.7, 3.0, 0.1, "normal",
                            None, None) for i in range(23)]
    path = tmp_path / "curves.svg"
    plot_curves(records, str(path), base=BaseMetrics(0.4, 0.8, 0, 0))
    lengths = curve_lengths(str(path))
    assert lengths == {"ade": 23, "fde": 23, "rr": 23}
    root = ET.parse(str(path)).getroot()
    base_lines = [l for l in root.iter(f"{SVG}line")
                  if (l.get("class") or "").startswith("base")]
    assert len(base_lines) == 2


def test_plot_without_rr_or_base_omits_those_marks(tmp_path):
    records = [StreamRecord(i, 0.5, 0.9, None, 3.0, 0.1, "normal", None, None)
               for i in range(4)]
    path = tmp_path / "curves.svg"
    plot_curves(records, str(path))
    assert set(curve_lengths(str(path))) == {"ade", "fde"}


def test_empty_report_yields_empty_axes(tmp_path):
    path = tmp_path / "curves.svg"
    plot_curves([], str(path))
    root = ET.parse(str(path)).getroot()
    assert root.tag == f"{SVG}svg"
    assert list(root.iter(f"{SVG}polyline")) == []


def test_expert_strip_cells_and_shading(tmp_path):
    records = [StreamRecord(i, 0.1, 0.2, None, 1.0, 0.1, "normal",
                            (0.0, 1.0), None) for i in range(5)]
    path = tmp_path / "experts.svg"
    plot_expert_strip(records, str(path))
    root = ET.parse(str(path)).getroot()
    cells = [r for r in root.iter(f"{SVG}rect") if r.get("class") == "cell"]
    assert len(cells) == 5 * 2
    fills = {c.get("fill") for c in cells}
    # Weight 1 renders the dark end of the ramp, weight 0 stays white.
    assert fills == {"rgb(255,255,255)", "rgb(0,100,0)"}


def test_expert_strip_without_expert_data(tmp_path):
    records = [StreamRecord(0, 0.1, 0.2, None, 1.0, 0.1, "normal", None, None)]
    path = tmp_path / "experts.svg"
    plot_expert_strip(records, str(path))
    root = ET.parse(str(path)).getroot()
    assert [r for r in root.iter(f"{SVG}rect") if r.get("class") == "cell"] == []


# ---------------------------------------------------------------------------
# commands, end to end


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny scene, a checkpoint trained on it, and an online report."""
    root = tmp_path_factory.mktemp("cliwork")
    scene = root / "scene.txt"
    assert cli.main(["gen", "--kind", "oneway", "--agents", "3", "--frames", "70",
                     "--seed", "7", "--out", str(scene)]) == 0
    ckpt = root / "model.ckpt"
    assert cli.main(["train", "--data", str(scene), "--ckpt-out", str(ckpt),
                     "--epochs", "3", "--stack-layers", "2", "--seed", "1"]) == 0
    report = root / "report.csv"
    assert cli.main(["online", "--ckpt", str(ckpt), "--stream", str(scene),
                     "--report", str(report), "--strategy", "ea",
                     "--max-instances", "12", "--seed", "2",
                     "--base-ade", "0.5", "--base-fde", "0.9"]) == 0
    return root


def test_gen_is_byte_identical_for_a_seed(tmp_path):
    args = ["gen", "--kind", "circle", "--agents", "4", "--frames", "50",
            "--seed", "3", "--out"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(args + [str(a)]) == 0
    assert cli.main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
    assert manifest["command"] == "gen" and manifest["seed"] == 3
    assert str(a) in manifest["outputs"]


def test_gen_without_flags_builds_the_spec_defaults(tmp_path, monkeypatch):
    specs = []
    generate = cli.generate_synthetic

    def recording(spec, frames):
        specs.append(spec)
        return generate(spec, frames)

    monkeypatch.setattr(cli, "generate_synthetic", recording)
    assert cli.main(["gen", "--kind", "circle", "--frames", "20", "--seed", "3",
                     "--out", str(tmp_path / "scene.txt")]) == 0
    assert specs == [SyntheticScenarioSpec(kind="circle", seed=3)]


def test_gen_unknown_kind_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--kind", "spiral", "--frames", "10",
                  "--out", str(tmp_path / "x.txt")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_train_writes_checkpoint_loss_log_and_manifest(workdir):
    assert (workdir / "model.ckpt").exists()
    lines = (workdir / "model.ckpt.loss.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header + one row per epoch
    manifest = json.loads((workdir / "model.ckpt.manifest.json").read_text())
    assert str(workdir / "model.ckpt.loss.csv") in manifest["outputs"]


def test_diverged_train_leaves_its_loss_log_and_a_manifest(workdir, tmp_path, capsys):
    # Two epochs at the default rate, then a rate that blows up the third.
    ckpt = tmp_path / "diverged.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--data", str(workdir / "scene.txt"),
                         "--ckpt-out", str(ckpt), "--epochs", "4", "--lr-after", "1e6",
                         "--lr-drop-epoch", "1", "--stack-layers", "2", "--seed", "1"]) == 1
    assert caught == []
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("error: non-finite loss ") and error.endswith(" at epoch 2, step 0")
    assert not ckpt.exists()
    trained = (workdir / "model.ckpt.loss.csv").read_text().splitlines()
    assert (tmp_path / "diverged.ckpt.loss.csv").read_text().splitlines() == trained[:3]
    manifest = json.loads((tmp_path / "diverged.ckpt.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["diverged"] == {"epoch": 2, "step": 0}
    assert manifest["outputs"] == [str(tmp_path / "diverged.ckpt.loss.csv")]


def test_interrupted_train_leaves_its_loss_log_and_a_manifest(workdir, tmp_path, monkeypatch,
                                                              capsys):
    # One step per epoch: the third step's interrupt lands in epoch 2.
    steps = []
    step = runtime.sgd_step

    def interrupted(arena, lr):
        steps.append(lr)
        if len(steps) == 3:
            raise KeyboardInterrupt
        step(arena, lr)

    monkeypatch.setattr(runtime, "sgd_step", interrupted)
    ckpt = tmp_path / "interrupted.ckpt"
    assert cli.main(["train", "--data", str(workdir / "scene.txt"), "--ckpt-out", str(ckpt),
                     "--epochs", "3", "--stack-layers", "2", "--seed", "1"]) == 130
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: train interrupted"
    assert not ckpt.exists()
    trained = (workdir / "model.ckpt.loss.csv").read_text().splitlines()
    assert (tmp_path / "interrupted.ckpt.loss.csv").read_text().splitlines() == trained[:3]
    manifest = json.loads((tmp_path / "interrupted.ckpt.manifest.json").read_text())
    assert manifest["interrupted"] == {"epoch": 2, "reason": "keyboard interrupt"}
    assert "diverged" not in manifest
    assert manifest["outputs"] == [str(tmp_path / "interrupted.ckpt.loss.csv")]
    assert len(manifest["epoch_s"]) == 2


def test_train_manifest_records_the_seconds_of_each_finished_epoch(workdir, tmp_path,
                                                                  monkeypatch, capsys):
    manifest = json.loads((workdir / "model.ckpt.manifest.json").read_text())
    assert len(manifest["epoch_s"]) == 3
    assert all(seconds >= 0.0 for seconds in manifest["epoch_s"])
    assert sum(manifest["epoch_s"]) <= manifest["wall_clock_s"] + 1e-3
    # Preparing the inputs counts towards the first epoch: here it moves
    # the command's clock on by 1000 s.
    offset = [0.0]
    clock = cli.time.monotonic
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: clock() + offset[0]))
    prepare = runtime.frame_tables

    def slow(*args):
        offset[0] += 1000.0
        return prepare(*args)

    monkeypatch.setattr(runtime, "frame_tables", slow)
    args = ["--data", str(workdir / "scene.txt"), "--epochs", "4", "--stack-layers", "2",
            "--seed", "1"]
    assert cli.main(["train", *args, "--ckpt-out", str(tmp_path / "slow.ckpt")]) == 0
    epoch_s = json.loads((tmp_path / "slow.ckpt.manifest.json").read_text())["epoch_s"]
    assert len(epoch_s) == 4 and epoch_s[0] >= 1000.0 > max(epoch_s[1:])
    # A diverged run records its finished epochs too.
    assert cli.main(["train", *args, "--ckpt-out", str(tmp_path / "diverged.ckpt"),
                     "--lr-after", "1e6", "--lr-drop-epoch", "1"]) == 1
    capsys.readouterr()
    manifest = json.loads((tmp_path / "diverged.ckpt.manifest.json").read_text())
    assert manifest["diverged"] == {"epoch": 2, "step": 0} and len(manifest["epoch_s"]) == 2


def test_manifests_record_the_environment(workdir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    assert cli.main(["eval", "--ckpt", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "scene.txt"), "--samples", "2",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    for path in ("scene.txt", "model.ckpt"):
        manifest = json.loads((workdir / f"{path}.manifest.json").read_text())
        assert manifest["environment"] == cli._environment()
    environment = json.loads((tmp_path / "eval.json.manifest.json").read_text())["environment"]
    assert environment["numpy"] == np.__version__
    assert set(environment) == {"python", "numpy", "blas", "blas_core", "simd", "threads"}
    assert set(environment["blas"]) == {"name", "version"}
    assert set(environment["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS"}


def test_the_environment_names_the_blas_kernels_and_simd_targets(monkeypatch):
    environment = cli._environment()
    if environment["blas"]["name"] == "scipy-openblas":
        # A CPU family such as SkylakeX or Haswell.
        assert environment["blas_core"].isalnum() and environment["blas_core"] != "unknown"
    from numpy._core import _multiarray_umath as umath
    assert set(environment["simd"]) <= set(umath.__cpu_dispatch__)
    assert all(umath.__cpu_features__[target] for target in environment["simd"])
    monkeypatch.setattr(cli, "BLAS_CORE_SYMBOL", "no_such_symbol")
    assert cli._environment()["blas_core"] == "unknown"
    monkeypatch.undo()
    monkeypatch.setattr(cli, "BLAS_LIBS", ("no_such_dir/*openblas*",))
    assert cli._environment()["blas_core"] == "unknown"


@pytest.mark.parametrize("command", ["gen", "train", "online", "eval", "base"])
def test_manifest_inputs_list_the_config_file(command, workdir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\nstack_layers = 1\nmax_instances = 3\nseed = 3\n")
    scene, ckpt, out = str(workdir / "scene.txt"), str(workdir / "model.ckpt"), tmp_path / "out"
    argv = {"gen": ["gen", "--kind", "circle", "--frames", "30", "--out", str(out)],
            "train": ["train", "--data", scene, "--ckpt-out", str(out)],
            "online": ["online", "--ckpt", ckpt, "--stream", scene, "--report", str(out)],
            "eval": ["eval", "--ckpt", ckpt, "--data", scene, "--samples", "2",
                     "--out", str(out)],
            "base": ["base", "--data", scene, "--samples", "2", "--out", str(out)]}[command]
    assert cli.main(argv + ["--config", str(config)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["command"] == command and manifest["seed"] == 3
    assert str(config) in manifest["inputs"]


@pytest.mark.parametrize("command, what", [
    ("train", "training data"), ("online", "stream data"), ("eval", "evaluation data"),
    ("base", "base data")])
def test_data_without_a_complete_window_fails_before_any_output(command, what, workdir,
                                                                tmp_path, capsys):
    # 10 frames hold no window of t_obs + t_pred = 20.
    short = tmp_path / "short.txt"
    assert cli.main(["gen", "--kind", "oneway", "--agents", "3", "--frames", "10",
                     "--seed", "7", "--out", str(short)]) == 0
    capsys.readouterr()
    out, ckpt = tmp_path / "out", str(workdir / "model.ckpt")
    argv = {"train": ["train", "--data", str(short), "--ckpt-out", str(out)],
            "online": ["online", "--ckpt", ckpt, "--stream", str(short), "--report", str(out)],
            "eval": ["eval", "--ckpt", ckpt, "--data", str(short), "--out", str(out)],
            "base": ["base", "--data", str(short), "--out", str(out)]}[command]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no trajectory windows in the {what}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.txt", "short.txt.manifest.json"]


def test_flags_beat_the_config_file(workdir, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 3\nstack_layers = 2\n")
    ckpt = tmp_path / "flag.ckpt"
    assert cli.main(["train", "--data", str(workdir / "scene.txt"), "--ckpt-out", str(ckpt),
                     "--config", str(config), "--epochs", "1", "--seed", "1"]) == 0
    capsys.readouterr()
    lines = (tmp_path / "flag.ckpt.loss.csv").read_text().splitlines()
    assert len(lines) == 1 + 1
    assert load_checkpoint(str(ckpt))[0].config.stack_layers == 2


def test_manifest_digest_covers_the_resolved_settings(workdir, tmp_path, capsys):
    def train_digest(name, *extra, config_text=None):
        args = ["train", "--data", str(workdir / "scene.txt"),
                "--ckpt-out", str(tmp_path / f"{name}.ckpt"), "--stack-layers", "1",
                "--seed", "1", *extra]
        if config_text is not None:
            (tmp_path / f"{name}.cfg").write_text(config_text)
            args += ["--config", str(tmp_path / f"{name}.cfg")]
        assert cli.main(args) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / f"{name}.ckpt.manifest.json").read_text())
        return manifest["config_digest"]

    one = train_digest("one", "--epochs", "1")
    assert train_digest("two", "--epochs", "2") != one
    assert train_digest("file", config_text="epochs = 1\n") == one


def test_train_missing_data_is_an_io_error(tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path / "nope.txt"),
                     "--ckpt-out", str(tmp_path / "m.ckpt"), "--epochs", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_online_report_row_count_and_rr(workdir):
    records = read_stream_csv(str(workdir / "report.csv"))
    assert len(records) == 12
    manifest = json.loads((workdir / "report.csv.manifest.json").read_text())
    assert manifest["counters"]["updates"] == 12
    assert manifest["health"] == {"status": "normal", "first_trigger_instance": None}
    assert all(r.rr is not None for r in records)
    assert all(len(r.expert) == 2 for r in records)


def test_interrupted_online_leaves_its_finished_rows_and_a_manifest(workdir, tmp_path,
                                                                   monkeypatch, capsys):
    argv = ["online", "--ckpt", str(workdir / "model.ckpt"), "--stream", str(workdir / "scene.txt"),
            "--strategy", "ea", "--max-instances", "30", "--seed", "2",
            "--base-ade", "0.5", "--base-fde", "0.9", "--report"]
    full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    assert cli.main(argv + [str(full)]) == 0
    updates = []
    update = runtime._apply_update

    def interrupted(*args):
        updates.append(None)
        if len(updates) == 20:
            raise KeyboardInterrupt
        return update(*args)

    monkeypatch.setattr(runtime, "_apply_update", interrupted)
    assert cli.main(argv + [str(cut)]) == 130
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "error: online interrupted"
    # The header and 19 finished rows, byte for byte those of the full run.
    assert cut.read_bytes().splitlines() == full.read_bytes().splitlines()[:20]
    assert len(read_stream_csv(str(cut))) == 19
    manifest = json.loads((tmp_path / "cut.csv.manifest.json").read_text())
    assert manifest["command"] == "online"
    assert manifest["interrupted"] == {"instance": 19, "reason": "keyboard interrupt"}
    assert manifest["outputs"] == [str(cut)]
    prefix = tmp_path / "cut"
    assert cli.main(["plot", "--report", str(cut), "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert curve_lengths(str(prefix) + ".curves.svg")["ade"] == 19


def test_online_without_base_leaves_rr_empty(workdir, tmp_path, capsys):
    report = tmp_path / "nobasereport.csv"
    code = cli.main(["online", "--ckpt", str(workdir / "model.ckpt"),
                     "--stream", str(workdir / "scene.txt"),
                     "--report", str(report), "--strategy", "plain",
                     "--max-instances", "5", "--seed", "2"])
    assert code == 0
    assert "health: normal" in capsys.readouterr().out
    records = read_stream_csv(str(report))
    assert len(records) == 5
    assert all(r.rr is None for r in records)


def test_online_base_flags_must_pair(workdir, tmp_path, capsys):
    code = cli.main(["online", "--ckpt", str(workdir / "model.ckpt"),
                     "--stream", str(workdir / "scene.txt"),
                     "--report", str(tmp_path / "r.csv"), "--base-ade", "0.5"])
    assert code == 2
    assert "together" in capsys.readouterr().err


def test_eval_json_summary(workdir, tmp_path, capsys):
    out = tmp_path / "eval.json"
    code = cli.main(["eval", "--ckpt", str(workdir / "model.ckpt"),
                     "--data", str(workdir / "scene.txt"),
                     "--samples", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert set(summary) == {"ade", "fde", "k", "instances"}
    assert summary["k"] == 4 and summary["ade"] > 0


def test_eval_default_sample_count_is_twenty():
    parser = cli.build_parser()
    args = parser.parse_args(["eval", "--ckpt", "x", "--data", "y"])
    assert args.samples == 20


@pytest.mark.parametrize("samples", ("0", "-3"))
@pytest.mark.parametrize("command", ("eval", "base"))
def test_too_few_samples_exit_before_any_work(command, samples, tmp_path, monkeypatch,
                                              capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the sample count was checked")

    for name in ("load_checkpoint", "load_dataset", "train_offline", "compute_base",
                 "mean_best_of_k"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(runtime, "train_offline", fail)
    argv = [command, "--data", str(tmp_path / "scene.txt"), "--samples", samples]
    if command == "eval":
        argv += ["--ckpt", str(tmp_path / "model.ckpt")]
    assert cli.main(argv) == 1
    assert "error: need at least one sample" in capsys.readouterr().err


def test_plot_command_writes_both_svgs(workdir, tmp_path, capsys):
    prefix = tmp_path / "fig"
    code = cli.main(["plot", "--report", str(workdir / "report.csv"),
                     "--out", str(prefix), "--base-ade", "0.5", "--base-fde", "0.9"])
    assert code == 0
    capsys.readouterr()
    for suffix in (".curves.svg", ".experts.svg"):
        root = ET.parse(str(prefix) + suffix).getroot()
        assert root.tag == f"{SVG}svg"
    assert curve_lengths(str(prefix) + ".curves.svg")["ade"] == 12


def test_plot_of_a_report_without_pre_norm_and_clipped_is_unchanged(workdir, tmp_path,
                                                                     capsys):
    old = tmp_path / "old.csv"
    legacy_report(workdir / "report.csv", old)
    figures = []
    for report in (workdir / "report.csv", old):
        prefix = tmp_path / report.stem
        assert cli.main(["plot", "--report", str(report), "--out", str(prefix),
                         "--base-ade", "0.5", "--base-fde", "0.9"]) == 0
        figures.append([(tmp_path / (report.stem + suffix)).read_bytes()
                        for suffix in (".curves.svg", ".experts.svg")])
    capsys.readouterr()
    assert figures[0] == figures[1]


def test_plot_empty_report_succeeds(tmp_path, capsys):
    report = tmp_path / "empty.csv"
    write_stream_csv([], str(report), layers=2)
    code = cli.main(["plot", "--report", str(report), "--out", str(tmp_path / "fig")])
    assert code == 0
    capsys.readouterr()
    assert ET.parse(str(tmp_path / "fig.curves.svg")).getroot().tag == f"{SVG}svg"


@pytest.mark.parametrize("rr, expert", [
    ((0.0, -0.4, 0.0), (0.3, 0.7)),
    ((0.2, 0.5, 0.1), (math.nan, math.nan)),
], ids=["largest_rr_zero", "no_finite_expert_value"])
def test_plot_of_a_readable_report_writes_both_svgs_and_a_manifest(rr, expert, tmp_path, capsys):
    report = tmp_path / "report.csv"
    write_stream_csv([StreamRecord(i, 0.5, 0.9, value, 3.0, 0.1, "normal", expert, (0.5, 0.5))
                      for i, value in enumerate(rr)], str(report), layers=2)
    prefix = tmp_path / "fig"
    assert cli.main(["plot", "--report", str(report), "--out", str(prefix)]) == 0
    capsys.readouterr()
    for suffix in (".curves.svg", ".experts.svg"):
        assert ET.parse(str(prefix) + suffix).getroot().tag == f"{SVG}svg"
    manifest = json.loads((tmp_path / "fig.curves.svg.manifest.json").read_text())
    assert manifest["command"] == "plot"


def test_rr_points_below_zero_stay_inside_the_frame(tmp_path):
    for rr in ((-0.2, -0.5, -0.8), (-0.8, 0.0, 0.6)):
        records = [StreamRecord(i, 0.5, 0.9, value, 3.0, 0.1, "normal", None, None)
                   for i, value in enumerate(rr)]
        path = tmp_path / "curves.svg"
        plot_curves(records, str(path))
        line = next(pl for pl in ET.parse(str(path)).getroot().iter(f"{SVG}polyline")
                    if pl.get("class") == "rr")
        heights = [float(point.split(",")[1]) for point in line.get("points").split()]
        assert all(MARGIN_TOP <= y <= MARGIN_TOP + PLOT_H for y in heights)
        # A lower rr is drawn lower.
        assert np.argsort(heights).tolist() == np.argsort(rr)[::-1].tolist()


def test_exploded_online_run_round_trips_and_plots(tmp_path, capsys):
    config = ModelConfig(stack_layers=2)
    stream = [toy_instance(agents=3, config=config, seed=i) for i in range(4)]
    with np.errstate(all="ignore"):
        result = run_online(TrajectoryModel(config, seed=0), stream,
                            OnlineConfig(strategy="ea", lr=50.0, clip_norm=None, seed=0))
    assert result.health.status == "exploded"
    assert None in [r.grad_norm for r in result.records]
    report = tmp_path / "exploded.csv"
    write_stream_csv(result.records, str(report), layers=config.stack_layers)
    back = read_stream_csv(str(report))
    assert [r.grad_norm for r in back] == [r.grad_norm for r in result.records]
    assert [r.health for r in back] == [r.health for r in result.records]
    assert [r.clipped for r in back] == [r.clipped for r in result.records]
    assert np.array_equal([r.pre_norm for r in back], [r.pre_norm for r in result.records],
                          equal_nan=True)
    assert any(not math.isfinite(r.pre_norm) for r in back)
    prefix = tmp_path / "fig"
    assert cli.main(["plot", "--report", str(report), "--out", str(prefix)]) == 0
    capsys.readouterr()
    for suffix in (".curves.svg", ".experts.svg"):
        assert ET.parse(str(prefix) + suffix).getroot().tag == f"{SVG}svg"


def test_exploded_online_command_counts_its_updates(workdir, tmp_path, capsys):
    report = tmp_path / "exploded.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["online", "--ckpt", str(workdir / "model.ckpt"),
                         "--stream", str(workdir / "scene.txt"), "--report", str(report),
                         "--strategy", "plain", "--lr", "1e3", "--clip-norm", "none",
                         "--max-instances", "6", "--updates-per-instance", "2", "--seed", "2"])
    assert code == 0
    # The explosion is recorded in the rows and the manifest, not printed.
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "health: exploded" in capsys.readouterr().out
    records = read_stream_csv(str(report))
    assert report.read_text().splitlines()[0] == (workdir / "report.csv").read_text().splitlines()[0]
    manifest = json.loads((tmp_path / "exploded.csv.manifest.json").read_text())
    first = next(r.instance_idx for r in records if r.health != "normal")
    assert manifest["health"] == {"status": "exploded", "first_trigger_instance": first}
    counters = manifest["counters"]
    assert counters["clipped"] == 0
    assert counters["skipped"] >= sum(r.grad_norm is None for r in records) > 0
    assert len(records) <= counters["updates"] <= 2 * len(records)


def test_plot_malformed_report_fails_with_row_number(tmp_path, capsys):
    report = tmp_path / "bad.csv"
    report.write_text("instance_idx,ade,fde,rr,loss,grad_norm,health\n1,x,2,,3,4,normal\n")
    code = cli.main(["plot", "--report", str(report), "--out", str(tmp_path / "fig")])
    assert code == 1
    assert "row 2" in capsys.readouterr().err


def test_gradcheck_command_passes_every_case(monkeypatch, capsys):
    cases = []

    def recorded():
        results = run_gradient_checks()
        cases.extend(name for name, _, _ in results)
        return results

    monkeypatch.setattr(cli, "run_gradient_checks", recorded)
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split(":")[0] for line in lines if line.startswith(("PASS", "FAIL"))]
    assert cases and verdicts == [f"PASS {name}" for name in cases]
    assert lines[-1] == f"{len(cases)}/{len(cases)} gradient checks passed"


def test_perturbed_gradients_fail_the_check_suite(monkeypatch):
    right = gradcheck.numeric_gradient
    monkeypatch.setattr(gradcheck, "numeric_gradient", lambda *a, **kw: right(*a, **kw) + 0.5)
    results = run_gradient_checks()
    assert any(not ok for _, _, ok in results)
