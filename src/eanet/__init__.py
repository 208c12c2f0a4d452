"""Online trajectory prediction with motion-trend graphs and expert attention."""

from .attention import HedgeState, ea_output, hedge_output, hedge_update, plain_output
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    SyntheticScenarioSpec,
    TrajectoryInstance,
    frames_for_instances,
    generate_synthetic,
    load_dataset,
    load_scene,
    synthetic_instances,
    window_instances,
    write_scene,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    EanetError,
    ParseError,
    TrainingDiverged,
)
from .gaussian import GaussianField, ade_fde, best_of_k, decode_gaussian, nll_loss, restore_ratio
from .graph import KERNEL_KINDS, build_adjacency, normalize_adjacency
from .model import ModelConfig, TrajectoryModel
from .runtime import (
    BaseMetrics,
    OnlineConfig,
    OnlineResult,
    StreamRecord,
    TrainConfig,
    TrainResult,
    compute_base,
    run_online,
    train_offline,
)

__version__ = "0.1.0"

__all__ = [
    "BaseMetrics", "CheckpointError", "ConfigError", "ContractError", "DataError",
    "DimensionError", "EanetError", "GaussianField", "HedgeState", "KERNEL_KINDS",
    "ModelConfig", "OnlineConfig", "OnlineResult", "ParseError", "StreamRecord",
    "SyntheticScenarioSpec", "TrainConfig", "TrainResult", "TrainingDiverged",
    "TrajectoryInstance", "TrajectoryModel", "ade_fde", "best_of_k",
    "build_adjacency", "compute_base", "decode_gaussian", "ea_output",
    "frames_for_instances", "generate_synthetic", "hedge_output", "hedge_update",
    "load_checkpoint", "load_dataset", "load_scene", "nll_loss",
    "normalize_adjacency", "plain_output", "restore_ratio", "run_online",
    "save_checkpoint", "synthetic_instances", "train_offline", "window_instances",
    "write_scene",
]
