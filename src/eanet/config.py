"""Flat ``key = value`` configuration files and their digests.

The fields of `ModelConfig`, `TrainConfig` and `OnlineConfig` are the run
settings, and one namespace covers all three, so a single file can drive
a whole experiment. A setting's file key is its field name, except the
online rate `OnlineConfig.lr`, whose key is ``online_lr``. `config_from`
builds a config: the command line overrides the file, the file overrides
the field's default, and a value is coerced to the type of that default
(``clip_norm`` also takes ``none`` or ``off``, ``rr_checkpoints`` takes
comma-separated integers). For the seed the ``EANET_SEED`` environment
variable slots in below the file. Digests are sha256 over the canonical
sorted rendering, which is what run manifests record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from .errors import ConfigError, ParseError
from .model import ModelConfig
from .runtime import OnlineConfig, TrainConfig


def _file_key(cls, name: str) -> str:
    """The config-file key of field ``name`` of ``cls``: the field name,
    except the online rate, which is ``online_lr`` beside training's ``lr``."""
    return "online_lr" if cls is OnlineConfig and name == "lr" else name


KNOWN_KEYS = tuple(sorted({_file_key(cls, f.name)
                           for cls in (ModelConfig, TrainConfig, OnlineConfig)
                           for f in dataclasses.fields(cls)}))


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


def _coerce(key: str, value, default):
    """``value`` as the type of ``default``; strings come from files."""
    if key == "clip_norm":
        if value is None or (isinstance(value, str) and value.lower() in ("none", "off")):
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"clip_norm must be a number or 'none', got {value!r}") from None
    if isinstance(default, tuple):
        try:
            return tuple(int(part) for part in str(value).split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"{key} must be comma-separated integers, got {value!r}") from None
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}") from None
    return str(value)


def resolve_seed(flag_seed: int | None, mapping: dict[str, str]) -> int:
    """Precedence: command-line flag, config file, EANET_SEED, then 0."""
    if flag_seed is not None:
        return flag_seed
    if "seed" in mapping:
        return _coerce("seed", mapping["seed"], 0)
    env = os.environ.get("EANET_SEED")
    return 0 if env is None else _coerce("EANET_SEED", env, 0)


def config_from(cls, mapping: dict[str, str], seed: int | None = None, overrides=None):
    """Build and validate a ``cls`` config from a file mapping.

    For each field, a non-None attribute of the same name on
    ``overrides`` (an argparse namespace) beats the file, and the file
    beats the field's default. ``seed``, when given, is set last.
    """
    values = {}
    for f in dataclasses.fields(cls):
        key = _file_key(cls, f.name)
        value = getattr(overrides, f.name, None)
        if value is None:
            value = mapping.get(key)
        if value is not None:
            values[f.name] = _coerce(key, value, f.default)
    if seed is not None:
        values["seed"] = seed
    config = cls(**values)
    config.validate()
    return config
