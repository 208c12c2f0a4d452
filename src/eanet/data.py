"""Scene files, trajectory windowing, and synthetic scenario generation.

Scene text format: one observation per line, ``frame_id agent_id x y``,
whitespace or tab separated, UTF-8, LF or CRLF line endings. Frames are
windowed over the sorted unique frame sequence; an agent joins a window
only when it is present at every frame of that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .rng import Xorshift64Star

T_OBS_DEFAULT = 8
T_PRED_DEFAULT = 12

SCENARIO_KINDS = ("oneway", "circle", "stagger")


@dataclass
class RawTrack:
    frame_id: int
    agent_id: int
    x: float
    y: float


@dataclass
class TrajectoryInstance:
    """One prediction case: P agents over T_obs observed + T_pred future frames.

    Absolute arrays are (P, T, 2); relative arrays are first differences
    along time. ``obs_rel[:, 0]`` is zero by convention, and ``fut_rel[:, 0]``
    is the step from the last observed frame, so the cumulative sum of
    ``fut_rel`` on top of ``obs_abs[:, -1]`` rebuilds ``fut_abs``.
    """

    scene_id: str
    agent_ids: list[int]
    start_frame: int
    obs_abs: np.ndarray
    fut_abs: np.ndarray
    obs_rel: np.ndarray = field(init=False)
    fut_rel: np.ndarray = field(init=False)

    def __post_init__(self):
        self.obs_abs = np.asarray(self.obs_abs, dtype=np.float64)
        self.fut_abs = np.asarray(self.fut_abs, dtype=np.float64)
        if self.obs_abs.ndim != 3 or self.obs_abs.shape[-1] != 2:
            raise DataError(f"obs_abs must be (P, T, 2), got {self.obs_abs.shape}")
        if self.fut_abs.shape[0] != self.obs_abs.shape[0] or self.fut_abs.shape[-1] != 2:
            raise DataError(
                f"fut_abs {self.fut_abs.shape} inconsistent with obs_abs {self.obs_abs.shape}"
            )
        self.obs_rel = to_relative(self.obs_abs)
        bridged = np.concatenate([self.obs_abs[:, -1:, :], self.fut_abs], axis=1)
        self.fut_rel = np.diff(bridged, axis=1)

    @property
    def n_agents(self) -> int:
        return self.obs_abs.shape[0]

    @property
    def t_obs(self) -> int:
        return self.obs_abs.shape[1]

    @property
    def t_pred(self) -> int:
        return self.fut_abs.shape[1]

    def translated(self, offset: np.ndarray) -> "TrajectoryInstance":
        """A copy with ``offset`` (2-vector) added to all absolute positions."""
        off = np.asarray(offset, dtype=np.float64).reshape(1, 1, 2)
        return TrajectoryInstance(self.scene_id, list(self.agent_ids), self.start_frame,
                                  self.obs_abs + off, self.fut_abs + off)

    def recentred(self) -> "TrajectoryInstance":
        """Translate so the centroid of last-observed positions is the origin."""
        centre = self.obs_abs[:, -1, :].mean(axis=0)
        return self.translated(-centre)


def to_relative(abs_positions: np.ndarray) -> np.ndarray:
    """First differences along the time axis with a zero first row."""
    abs_positions = np.asarray(abs_positions, dtype=np.float64)
    rel = np.zeros_like(abs_positions)
    rel[:, 1:] = np.diff(abs_positions, axis=1)
    return rel


def load_scene(path) -> list[RawTrack]:
    """Parse a scene file. Raises ParseError with a 1-based line number on
    malformed lines and DataError on duplicate (frame, agent) pairs."""
    tracks: list[RawTrack] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            frame_f, agent_f, x, y = values
            if not frame_f.is_integer() or not agent_f.is_integer():
                raise ParseError(f"{path}: line {lineno}: frame and agent ids must be integers")
            key = (int(frame_f), int(agent_f))
            if key in seen:
                raise DataError(f"{path}: duplicate observation for frame {key[0]} agent {key[1]}")
            seen.add(key)
            tracks.append(RawTrack(key[0], key[1], x, y))
    tracks.sort(key=lambda t: (t.frame_id, t.agent_id))
    return tracks


def write_scene(tracks: list[RawTrack], path) -> None:
    """Write tracks in the scene text format with 6 decimal places."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in tracks:
            fh.write(f"{t.frame_id}\t{t.agent_id}\t{t.x:.6f}\t{t.y:.6f}\n")


def window_instances(tracks: list[RawTrack], t_obs: int = T_OBS_DEFAULT,
                     t_pred: int = T_PRED_DEFAULT, scene_id: str = "") -> list[TrajectoryInstance]:
    """Slide a window of t_obs + t_pred frames over the frame sequence.

    Windows are taken over the sorted unique frame ids (so decimated frame
    numbering such as 0, 10, 20 still counts as consecutive). Instances are
    returned in window start order; windows with no complete agent are
    dropped.
    """
    if t_obs < 1 or t_pred < 1:
        raise ConfigError("t_obs and t_pred must be positive")
    if not tracks:
        return []
    frames = sorted({t.frame_id for t in tracks})
    span = t_obs + t_pred
    by_agent: dict[int, dict[int, tuple[float, float]]] = {}
    for t in tracks:
        by_agent.setdefault(t.agent_id, {})[t.frame_id] = (t.x, t.y)
    instances = []
    for start in range(len(frames) - span + 1):
        window = frames[start:start + span]
        complete = [a for a in sorted(by_agent)
                    if all(f in by_agent[a] for f in window)]
        if not complete:
            continue
        coords = np.array([[by_agent[a][f] for f in window] for a in complete])
        instances.append(TrajectoryInstance(
            scene_id=scene_id, agent_ids=complete, start_frame=window[0],
            obs_abs=coords[:, :t_obs], fut_abs=coords[:, t_obs:]))
    return instances


def load_dataset(paths, t_obs: int = T_OBS_DEFAULT,
                 t_pred: int = T_PRED_DEFAULT) -> list[TrajectoryInstance]:
    """Window several scene files into one deterministic instance stream.

    Ordering: window start frame first, then the position of the source
    file in ``paths``, so replays are reproducible.
    """
    keyed = []
    for file_idx, path in enumerate(paths):
        tracks = load_scene(path)
        for inst in window_instances(tracks, t_obs, t_pred, scene_id=str(path)):
            keyed.append(((inst.start_frame, file_idx), inst))
    keyed.sort(key=lambda pair: pair[0])
    return [inst for _, inst in keyed]


@dataclass
class SyntheticScenarioSpec:
    """Parameters of one synthetic crowd scenario.

    kind: oneway (parallel lanes along +x), circle (shared circular
    intersection, mixed directions), or stagger (piecewise-straight with
    the heading resampled by 45..90 degrees every ``period`` frames).
    Speeds are metres per frame; ``noise_std`` is the standard deviation
    of the per-frame Gaussian jitter; ``extent`` is the side of the spawn
    box (and twice the circle radius).
    """

    kind: str = "oneway"
    agents: int = 6
    speed: float = 0.4
    noise_std: float = 0.02
    period: int = 10
    extent: float = 8.0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.agents < 1:
            raise ConfigError("agents must be >= 1")
        if self.speed <= 0:
            raise ConfigError("speed must be positive")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.period < 1:
            raise ConfigError("period must be >= 1")
        if self.extent < 0:
            raise ConfigError("extent must be >= 0")
        if self.kind == "circle" and self.extent <= 0:
            raise ConfigError("circle scenarios need a positive extent")


def generate_synthetic(spec: SyntheticScenarioSpec, frames: int) -> list[RawTrack]:
    """Deterministically generate tracks for ``frames`` consecutive frames.

    All randomness comes from one xorshift64* stream seeded by
    ``spec.seed``. Draw order: per-agent initial state (in agent order),
    then per frame and per agent the motion update, so identical specs
    produce byte-identical tracks on any platform.
    """
    spec.validate()
    if frames < 1:
        raise ConfigError("frames must be >= 1")
    rng = Xorshift64Star(spec.seed)
    n = spec.agents
    noisy = spec.noise_std > 0

    positions = np.zeros((n, 2))
    headings = np.zeros(n)
    phases = np.zeros(n)
    directions = np.ones(n)
    if spec.kind == "circle":
        radius = spec.extent / 2.0
        omega = spec.speed / radius
        for i in range(n):
            phases[i] = rng.uniform() * 2.0 * math.pi
            directions[i] = 1.0 if rng.uniform() < 0.5 else -1.0
    else:
        for i in range(n):
            positions[i, 0] = rng.uniform() * spec.extent
            positions[i, 1] = rng.uniform() * spec.extent
            if spec.kind == "stagger":
                headings[i] = rng.uniform() * 2.0 * math.pi

    tracks: list[RawTrack] = []
    for t in range(frames):
        for i in range(n):
            if t > 0:
                if spec.kind == "circle":
                    angle = phases[i] + directions[i] * omega * t
                    positions[i] = radius * np.array([math.cos(angle), math.sin(angle)])
                elif spec.kind == "oneway":
                    positions[i] = positions[i] + np.array([spec.speed, 0.0])
                else:
                    if t % spec.period == 0:
                        sign = 1.0 if rng.uniform() < 0.5 else -1.0
                        headings[i] += sign * (math.pi / 4.0 + rng.uniform() * math.pi / 4.0)
                    positions[i] = positions[i] + spec.speed * np.array(
                        [math.cos(headings[i]), math.sin(headings[i])])
                if noisy:
                    nx, ny = rng.normal_pair()
                    positions[i] = positions[i] + spec.noise_std * np.array([nx, ny])
            elif spec.kind == "circle":
                positions[i] = radius * np.array([math.cos(phases[i]), math.sin(phases[i])])
            tracks.append(RawTrack(t, i + 1, float(positions[i, 0]), float(positions[i, 1])))
    return tracks


def frames_for_instances(n: int, t_obs: int = T_OBS_DEFAULT,
                         t_pred: int = T_PRED_DEFAULT) -> int:
    """Frame count needed so windowing yields exactly ``n`` instances."""
    if n < 1:
        raise ConfigError("instance count must be >= 1")
    return n - 1 + t_obs + t_pred


def synthetic_instances(spec: SyntheticScenarioSpec, count: int,
                        t_obs: int = T_OBS_DEFAULT,
                        t_pred: int = T_PRED_DEFAULT) -> list[TrajectoryInstance]:
    """Generate exactly ``count`` windowed instances of one scenario."""
    frames = frames_for_instances(count, t_obs, t_pred)
    tracks = generate_synthetic(spec, frames)
    instances = window_instances(tracks, t_obs, t_pred, scene_id=f"{spec.kind}:{spec.seed}")
    return instances[:count]

