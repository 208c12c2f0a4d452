import hashlib
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from eanet.checkpoint import (MAGIC, META_NAME, VERSION, checkpoint_bytes,
                              config_text, load_checkpoint, save_checkpoint)
from eanet.errors import CheckpointError, ConfigError
from eanet.model import ModelConfig, TrajectoryModel, toy_instance
from eanet.rng import Xorshift64Star

CONFIG = ModelConfig(stack_layers=3)

# A version 1 file, written by save_checkpoint at commit 8a9ee7f for
# TrajectoryModel(V1_CONFIG, seed=11) with the RNG of Xorshift64Star(99)
# after five uniform() draws, and that version's predict() of
# toy_instance(agents=4, config=V1_CONFIG, seed=2) from the reloaded file.
DATA = Path(__file__).resolve().parent / "data"
V1_FILE = DATA / "checkpoint_v1.ckpt"
V1_PREDICTION = DATA / "checkpoint_v1_predict.npy"
V1_CONFIG = ModelConfig(stack_layers=2)
V1_SEED = 11


def fresh(tmp_path, seed=7):
    model = TrajectoryModel(CONFIG, seed=seed)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, str(path))
    return model, path


def both_versions(tmp_path):
    """A fresh version 2 file and a copy of the version 1 fixture, for
    tests that damage them."""
    v1 = tmp_path / "v1.ckpt"
    shutil.copyfile(V1_FILE, v1)
    return [fresh(tmp_path)[1], v1]


def test_save_load_save_is_byte_identical(tmp_path):
    model, path = fresh(tmp_path)
    first = path.read_bytes()
    loaded, _ = load_checkpoint(str(path))
    save_checkpoint(loaded, str(path))
    assert path.read_bytes() == first


def test_default_checkpoint_holds_one_kernel_row_and_no_rng_block():
    blob = checkpoint_bytes(TrajectoryModel(ModelConfig(), seed=0))
    assert len(blob) == 10273
    assert struct.unpack("<I", blob[4:8])[0] == VERSION == 2


def test_v1_file_loads_and_predicts_what_v1_predicted(tmp_path):
    loaded, rng = load_checkpoint(str(V1_FILE))
    assert config_text(loaded.config) == config_text(V1_CONFIG)
    assert rng.state == Xorshift64Star(0).state
    inst = toy_instance(agents=4, config=V1_CONFIG, seed=2)
    want = np.load(V1_PREDICTION)
    assert np.array_equal(loaded.predict(inst), want)

    resaved = tmp_path / "v2.ckpt"
    save_checkpoint(loaded, str(resaved))
    assert struct.unpack("<I", resaved.read_bytes()[4:8])[0] == VERSION
    reloaded, _ = load_checkpoint(str(resaved))
    assert np.array_equal(reloaded.predict(inst), want)


def test_seeded_kernels_are_row_1_of_the_v1_draws():
    # The fixture stores seed 11's initial parameters as v1 drew them,
    # every 3x3 window whole; a fresh model keeps row 1 of each.
    loaded, _ = load_checkpoint(str(V1_FILE))
    model = TrajectoryModel(V1_CONFIG, seed=V1_SEED)
    for name, param in model.params.items():
        want = param.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(loaded.params[name].data, want), name


def test_parameters_survive_the_round_trip_exactly(tmp_path):
    model, path = fresh(tmp_path)
    loaded, _ = load_checkpoint(str(path))
    assert sorted(loaded.params) == sorted(model.params)
    for name, param in model.params.items():
        assert np.array_equal(loaded.params[name].data, param.data), name


def test_config_survives_the_round_trip(tmp_path):
    config = ModelConfig(t_obs=6, t_pred=10, stack_layers=2, kernel="rbf",
                         rbf_sigma=2.0, prelu_init=0.1)
    model = TrajectoryModel(config, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, str(path))
    loaded, _ = load_checkpoint(str(path))
    assert config_text(loaded.config) == config_text(config)


def test_post_save_prediction_matches_reload_exactly(tmp_path):
    #  Saving rounds the live parameters to the stored f32 grid, so the
    #  just-saved model and its reloaded copy agree bit for bit.
    model, path = fresh(tmp_path, seed=3)
    inst = toy_instance(agents=4, config=CONFIG, seed=2)
    after_save = model.predict(inst)
    loaded, _ = load_checkpoint(str(path))
    assert np.array_equal(loaded.predict(inst), after_save)


def test_bad_magic_is_rejected(tmp_path):
    for path in both_versions(tmp_path):
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))


def test_unsupported_version_is_rejected(tmp_path):
    _, path = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    for version in (0, VERSION + 1):
        blob[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))


def test_truncated_file_is_rejected(tmp_path):
    for path in both_versions(tmp_path):
        blob = path.read_bytes()
        for cut in (3, 10, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(str(path))


def test_every_proper_prefix_is_rejected(tmp_path):
    # Each cut ends inside some field, or between two, so every field
    # boundary of both versions is a truncation the one bounds check meets.
    for path in both_versions(tmp_path):
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(str(path))


def test_trailing_bytes_are_rejected(tmp_path):
    for path in both_versions(tmp_path):
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(path))


def test_unknown_tensor_name_is_rejected(tmp_path):
    model = TrajectoryModel(CONFIG, seed=7)
    blob = checkpoint_bytes(model)
    # Rename the GCN weight in place; same name length keeps offsets valid.
    assert b"gcn/w" in blob
    path = tmp_path / "m.ckpt"
    path.write_bytes(blob.replace(b"gcn/w", b"gcn/q", 1))
    with pytest.raises(CheckpointError, match="unknown tensor|missing"):
        load_checkpoint(str(path))


def test_tensor_name_that_is_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    blob = checkpoint_bytes(TrajectoryModel(CONFIG, seed=7))
    path.write_bytes(blob.replace(b"gcn/w", b"gcn/\xff", 1))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_checkpoint(str(path))


def test_dims_whose_product_wraps_in_int64_are_truncation(tmp_path):
    # 65536^4 = 2^64, which an int64 product wraps to 0 values.
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIH", VERSION, 1, 5) + b"gcn/w"
                     + struct.pack("<B4I", 4, *[65536] * 4) + bytes(64))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(path))


def test_tampered_config_fails_the_digest(tmp_path):
    for path in both_versions(tmp_path):
        blob = bytearray(path.read_bytes())
        # The meta/config tensor is first; flip its stack_layers entry.
        header = 4 + 4 + 4 + 2 + len(META_NAME.encode()) + 1 + 4
        vec = np.frombuffer(bytes(blob[header:header + 28]), dtype="<f4").copy()
        vec[3] += 1.0
        blob[header:header + 28] = vec.tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(str(path))


def test_feature_dimension_other_than_five_is_rejected(tmp_path):
    blob = bytearray(checkpoint_bytes(TrajectoryModel(CONFIG, seed=7)))
    header = 4 + 4 + 4 + 2 + len(META_NAME.encode()) + 1 + 4
    vec = np.frombuffer(bytes(blob[header:header + 28]), dtype="<f4").copy()
    assert vec[2] == 5.0
    vec[2] = 4.0
    blob[header:header + 28] = vec.tobytes()
    # Whether the digest is recomputed over the text rendering the tampered
    # slot or over the canonical text, the slot itself must be refused.
    text = config_text(CONFIG)
    for digest_text in (text.replace("feat_dim = 5", "feat_dim = 4"), text):
        blob[-32:] = hashlib.sha256(digest_text.encode("utf-8")).digest()
        path = tmp_path / "feat.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="feature dimension 4"):
            load_checkpoint(str(path))


def _with_config_slot(tmp_path, slot, value) -> str:
    """A checkpoint file whose config vector has ``value`` at ``slot``."""
    blob = bytearray(checkpoint_bytes(TrajectoryModel(CONFIG, seed=7)))
    header = 4 + 4 + 4 + 2 + len(META_NAME.encode()) + 1 + 4
    vec = np.frombuffer(bytes(blob[header:header + 28]), dtype="<f4").copy()
    vec[slot] = value
    blob[header:header + 28] = vec.tobytes()
    path = tmp_path / "slot.ckpt"
    path.write_bytes(bytes(blob))
    return str(path)


@pytest.mark.parametrize("slot", range(5))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.5])
def test_integer_config_slot_that_is_not_whole_is_rejected(tmp_path, slot, value):
    with pytest.raises(CheckpointError, match="not whole"):
        load_checkpoint(_with_config_slot(tmp_path, slot, value))


@pytest.mark.parametrize("slot, name", [(5, "rbf_sigma"), (6, "prelu_init")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_float_config_slot_that_is_not_finite_is_rejected(tmp_path, slot, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        load_checkpoint(_with_config_slot(tmp_path, slot, value))


@pytest.mark.parametrize("slot, message", [(0, "t_obs and t_pred must be positive"),
                                           (3, "stack_layers must be >= 1")])
def test_integer_config_slot_out_of_range_is_rejected(tmp_path, slot, message):
    with pytest.raises(ConfigError, match=message):
        load_checkpoint(_with_config_slot(tmp_path, slot, 0))


def test_digest_covers_the_canonical_config_text():
    model = TrajectoryModel(CONFIG, seed=0)
    blob = checkpoint_bytes(model)
    want = hashlib.sha256(config_text(CONFIG).encode("utf-8")).digest()
    assert blob[-32:] == want


def test_save_rounds_live_parameters_to_f32(tmp_path):
    model = TrajectoryModel(CONFIG, seed=5)
    model.params["gcn/w"].data[0, 0] = 0.1  # not representable in f32
    save_checkpoint(model, str(tmp_path / "m.ckpt"))
    stored = np.float64(np.float32(0.1))
    assert model.params["gcn/w"].data[0, 0] == stored


def test_checkpoint_bytes_leaves_the_model_alone():
    model = TrajectoryModel(CONFIG, seed=5)
    model.params["gcn/w"].data[0, 0] = 0.1
    checkpoint_bytes(model)
    assert model.params["gcn/w"].data[0, 0] == 0.1
