"""Binary checkpoints: magic, version, named f32 tensors, digest.

Layout of version 2, all little-endian:

    "EANT"                      4-byte magic
    version                     u32 (currently 2)
    tensor count                u32
    per tensor:
        name length             u16, then UTF-8 name bytes
        rank                    u8
        dims                    u32 each
        payload                 f32 values, C order
    config digest               32-byte sha256

`load_checkpoint` reads the fields with `struct` at a running offset
behind one bounds check, so a file cut short anywhere is a truncation.

Version 1 files still load. They differ in two places: each conv kernel
is stored as its full (C_out, C_in, 3, 3) window, of which the loader
keeps row 1, the only row the model reads; and a 16-byte RNG block
(u64 state + 8 zeros) sits before the digest, which the loader skips.

Parameters are stored as 32-bit floats, so ``save_checkpoint`` first
rounds the live float64 parameters to that grid; a model that was just
saved therefore predicts exactly what its reloaded copy predicts. The
model configuration rides along as a reserved ``meta/config`` tensor and
the digest covers its canonical text form, so a file whose config block
was tampered with refuses to load.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import CheckpointError
from .graph import KERNEL_KINDS
from .model import GAUSS_CHANNELS, ModelConfig, TrajectoryModel
from .rng import Xorshift64Star

MAGIC = b"EANT"
VERSION = 2
META_NAME = "meta/config"


def config_text(config: ModelConfig) -> str:
    """Canonical one-line-per-field rendering used for the digest.

    ``feat_dim`` is the fixed channel count `GAUSS_CHANNELS`, which slot 2
    of the meta tensor also holds. Float fields are quantized to f32 before rendering because that is
    the precision the meta tensor stores; without this, a config float
    that is not f32-representable would change its repr across a round
    trip and fail the digest check.
    """
    fields = [
        ("t_obs", config.t_obs),
        ("t_pred", config.t_pred),
        ("feat_dim", GAUSS_CHANNELS),
        ("stack_layers", config.stack_layers),
        ("kernel", config.kernel),
        ("rbf_sigma", repr(float(np.float32(config.rbf_sigma)))),
        ("prelu_init", repr(float(np.float32(config.prelu_init)))),
    ]
    return "".join(f"{k} = {v}\n" for k, v in fields)


def _config_vector(config: ModelConfig) -> np.ndarray:
    return np.array([
        config.t_obs, config.t_pred, GAUSS_CHANNELS, config.stack_layers,
        KERNEL_KINDS.index(config.kernel), config.rbf_sigma, config.prelu_init,
    ], dtype=np.float32)


def _config_from_vector(vec: np.ndarray) -> ModelConfig:
    if vec.shape != (7,):
        raise CheckpointError(f"malformed {META_NAME} tensor, shape {vec.shape}")
    slots = vec[:5]
    if not np.all(np.isfinite(slots) & (slots == np.floor(slots))):
        raise CheckpointError(f"{META_NAME} integer slots {slots.tolist()} are not whole numbers")
    t_obs, t_pred, feat_dim, stack_layers, kernel_idx = (int(v) for v in slots)
    if feat_dim != GAUSS_CHANNELS:
        raise CheckpointError(f"feature dimension {feat_dim}, the model's is {GAUSS_CHANNELS}")
    if not 0 <= kernel_idx < len(KERNEL_KINDS):
        raise CheckpointError(f"unknown kernel index {kernel_idx}")
    config = ModelConfig(
        t_obs=t_obs, t_pred=t_pred,
        stack_layers=stack_layers, kernel=KERNEL_KINDS[kernel_idx],
        rbf_sigma=float(vec[5]), prelu_init=float(vec[6]),
    )
    config.validate()
    return config


def _encode_tensor(name: str, data: np.ndarray) -> bytes:
    # asarray keeps 0-d shapes, which ascontiguousarray would promote to 1-d
    payload = np.asarray(data, dtype=np.float32, order="C")
    raw = name.encode("utf-8")
    parts = [struct.pack("<H", len(raw)), raw, struct.pack("<B", payload.ndim)]
    parts += [struct.pack("<I", d) for d in payload.shape]
    parts.append(payload.tobytes())
    return b"".join(parts)


def checkpoint_bytes(model: TrajectoryModel) -> bytes:
    """Serialize without touching the model (used by save and by tests)."""
    tensors = [(META_NAME, _config_vector(model.config))]
    tensors += [(name, p.data) for name, p in model.params.items()]
    out = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(tensors))]
    out += [_encode_tensor(name, data) for name, data in tensors]
    out.append(hashlib.sha256(config_text(model.config).encode("utf-8")).digest())
    return b"".join(out)


def save_checkpoint(model: TrajectoryModel, path: str) -> None:
    """Round the live parameters to f32 and write the file.

    The rounding is deliberate: it pins the in-memory model to exactly the
    values the file stores, so predictions made after a save match
    predictions made after a reload bit for bit.
    """
    model.arena.data[...] = model.arena.data.astype(np.float32)
    blob = checkpoint_bytes(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path: str) -> tuple[TrajectoryModel, Xorshift64Star]:
    """Rebuild the model recorded in ``path``, from a version 1 or 2 file.

    The second item is always a fresh seed-0 stream; the RNG state a
    version 1 file holds is skipped. Raises CheckpointError for a bad
    magic, an unsupported version, any truncation (dims whose product
    outruns the file included), a tensor name that is not UTF-8, an
    integer config slot that is not a finite whole number, a feature
    dimension other than `GAUSS_CHANNELS`, a tensor name the rebuilt
    model does not expect, a missing parameter, or a config digest
    mismatch. Raises ConfigError, before the digest is checked, for a
    config that `ModelConfig.validate` rejects: a float slot that is not
    finite, ``t_obs``, ``t_pred`` or ``stack_layers`` below one, or an
    ``rbf_sigma`` that is not positive.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> int:  # the offset of the next n bytes: the one bounds check
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint: wanted {n} bytes at offset {pos}, "
                                  f"file has {len(blob)}")
        pos += n
        return pos - n

    def unpack(fmt: str) -> tuple:
        return struct.unpack_from(fmt, blob, take(struct.calcsize(fmt)))

    if unpack("<4s")[0] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version, count = unpack("<II")
    if version not in (1, VERSION):
        raise CheckpointError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            name = unpack(f"<{unpack('<H')[0]}s")[0].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not UTF-8") from None
        shape = unpack(f"<{unpack('<B')[0]}I")
        values = math.prod(shape)
        payload = np.frombuffer(blob, "<f4", values, take(4 * values)).reshape(shape)
        if name in tensors:
            raise CheckpointError(f"duplicate tensor {name!r}")
        tensors[name] = payload.astype(np.float64)
    if version == 1:
        take(16)
    (digest,) = unpack("<32s")
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes after checkpoint")

    if META_NAME not in tensors:
        raise CheckpointError(f"checkpoint has no {META_NAME} tensor")
    config = _config_from_vector(tensors.pop(META_NAME).astype(np.float32))
    if hashlib.sha256(config_text(config).encode("utf-8")).digest() != digest:
        raise CheckpointError("config digest mismatch")

    model = TrajectoryModel(config, seed=0)
    for name in tensors:
        if name not in model.params:
            raise CheckpointError(f"unknown tensor {name!r}")
    for name, param in model.params.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint is missing {name!r}")
        if version == 1 and tensors[name].shape[2:] == (3, 3):  # a whole 3x3 window
            tensors[name] = tensors[name][:, :, 1:2].copy()
        if tensors[name].shape != param.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {param.data.shape}")
        param.data[...] = tensors[name]
    return model, Xorshift64Star(0)
