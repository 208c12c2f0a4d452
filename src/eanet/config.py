"""Flat ``key = value`` configuration files and their digests.

One namespace covers model, offline-training, and online keys so a single
file can drive a whole experiment; the command line overrides the file,
the file overrides built-in defaults, and for the seed the ``EANET_SEED``
environment variable slots in below the file. Digests are sha256 over the
canonical sorted rendering, which is what run manifests record.
"""

from __future__ import annotations

import hashlib
import os

from .errors import ConfigError, ParseError
from .model import ModelConfig
from .runtime import OnlineConfig, TrainConfig

MODEL_KEYS = ("t_obs", "t_pred", "stack_layers", "kernel", "rbf_sigma", "prelu_init")
TRAIN_KEYS = ("epochs", "batch_size", "lr", "lr_after", "lr_drop_epoch", "seed")
ONLINE_KEYS = ("online_lr", "clip_norm", "updates_per_instance", "max_instances",
               "alignment", "strategy", "rr_checkpoints", "seed")
KNOWN_KEYS = tuple(sorted(set(MODEL_KEYS) | set(TRAIN_KEYS) | set(ONLINE_KEYS)))


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; blank lines and ``#`` comments skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ParseError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        mapping = parse_kv_text(fh.read(), source=path)
    for key in mapping:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return mapping


def config_digest(mapping: dict[str, object]) -> str:
    canonical = "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _coerce_int(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return int(mapping[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {mapping[key]!r}") from None


def _coerce_float(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return float(mapping[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {mapping[key]!r}") from None


def _coerce_optional_norm(value) -> float | None:
    if value is None or (isinstance(value, str) and value.lower() in ("none", "off")):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"clip_norm must be a number or 'none', got {value!r}") from None


def _coerce_int_list(mapping, key, default):
    if key not in mapping:
        return default
    try:
        return tuple(int(part) for part in str(mapping[key]).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {mapping[key]!r}") from None


def resolve_seed(flag_seed: int | None, mapping: dict[str, str]) -> int:
    """Precedence: command-line flag, config file, EANET_SEED, then 0."""
    if flag_seed is not None:
        return flag_seed
    if "seed" in mapping:
        return _coerce_int(mapping, "seed", 0)
    env = os.environ.get("EANET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"EANET_SEED must be an integer, got {env!r}") from None
    return 0


def model_config_from(mapping: dict[str, str], **overrides) -> ModelConfig:
    d = ModelConfig()
    config = ModelConfig(
        t_obs=_coerce_int(mapping, "t_obs", d.t_obs),
        t_pred=_coerce_int(mapping, "t_pred", d.t_pred),
        stack_layers=_coerce_int(mapping, "stack_layers", d.stack_layers),
        kernel=str(mapping.get("kernel", d.kernel)),
        rbf_sigma=_coerce_float(mapping, "rbf_sigma", d.rbf_sigma),
        prelu_init=_coerce_float(mapping, "prelu_init", d.prelu_init),
    )
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def train_config_from(mapping: dict[str, str], seed: int, **overrides) -> TrainConfig:
    d = TrainConfig()
    config = TrainConfig(
        epochs=_coerce_int(mapping, "epochs", d.epochs),
        batch_size=_coerce_int(mapping, "batch_size", d.batch_size),
        lr=_coerce_float(mapping, "lr", d.lr),
        lr_after=_coerce_float(mapping, "lr_after", d.lr_after),
        lr_drop_epoch=_coerce_int(mapping, "lr_drop_epoch", d.lr_drop_epoch),
        seed=seed,
    )
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def online_config_from(mapping: dict[str, str], seed: int, **overrides) -> OnlineConfig:
    d = OnlineConfig()
    config = OnlineConfig(
        lr=_coerce_float(mapping, "online_lr", d.lr),
        clip_norm=_coerce_optional_norm(mapping.get("clip_norm", d.clip_norm)),
        updates_per_instance=_coerce_int(mapping, "updates_per_instance", d.updates_per_instance),
        max_instances=_coerce_int(mapping, "max_instances", d.max_instances),
        alignment=str(mapping.get("alignment", d.alignment)),
        strategy=str(mapping.get("strategy", d.strategy)),
        rr_checkpoints=_coerce_int_list(mapping, "rr_checkpoints", d.rr_checkpoints),
        seed=seed,
    )
    for name, value in overrides.items():
        if value is None:
            continue
        if name == "clip_norm":
            config.clip_norm = _coerce_optional_norm(value)
        else:
            setattr(config, name, value)
    config.validate()
    return config
