"""Scene files, trajectory windowing, and synthetic scenario generation.

Scene text format: one observation per line, ``frame_id agent_id x y``,
whitespace or tab separated, UTF-8, LF or CRLF line endings. Ids are
integers within +-2**53, and a (frame, agent) pair is observed at most once.
Frames are windowed over the sorted unique frame sequence; an agent joins a
window only when it is present at every frame of that window.

A scene read from a file or generated is one `Scene`: dense positions over
its sorted frame and agent ids, with a mask of the observed entries. An
instance holds its track and derives its absolute and relative views
from it on each read. Windowed instances share their frames: each
records its run's read-only block of gathered positions and its offset
there. Scenes and instances compare by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import ConfigError, DataError, ParseError, require_finite
from .rng import Xorshift64Star, box_muller, unit_vectors

T_OBS_DEFAULT = 8
T_PRED_DEFAULT = 12

SCENARIO_KINDS = ("oneway", "circle", "stagger")


@dataclass(eq=False)
class Scene:
    """``frame_ids`` (F,) and ``agent_ids`` (A,) are sorted, unique int64.
    ``coords[f, a]`` of the (F, A, 2) float64 array is the position of agent
    ``agent_ids[a]`` at frame ``frame_ids[f]`` where the (F, A) bool mask
    ``present`` is set, and zero elsewhere."""

    frame_ids: np.ndarray
    agent_ids: np.ndarray
    coords: np.ndarray
    present: np.ndarray


class TrajectoryInstance:
    """One prediction case: P agents over T_obs observed + T_pred future frames.

    An instance holds ``scene_id``, ``agent_ids``, ``start_frame``,
    ``t_obs`` and one (P, T_obs + T_pred, 2) ``track``, the frames of its
    ``block`` from frame ``offset``. All else is a
    read-only property derived from the track on each read: ``obs_abs``
    and ``fut_abs`` are (P, T, 2) views of it, so writes to them reach the
    track; ``obs_rel`` and ``fut_rel`` are the two slices of the steps of
    the whole track (`_steps`), so writes to the track show in them and
    writes to them reach nothing. ``obs_rel[:, 0]`` is zero by convention,
    and ``fut_rel[:, 0]`` is the step from the last observed frame, so the
    cumulative sum of ``fut_rel`` on top of ``obs_abs[:, -1]`` rebuilds
    ``fut_abs``.

    A windowed instance (`window_instances`) shares its run's one
    read-only ``block``, so a write to its track raises ValueError instead
    of reaching a neighbouring window, and it keeps its scene's gathered
    positions alive. Every other instance's track is its own private,
    writable, C-contiguous ``block``, at offset 0: the
    constructor copies its arrays and ``agent_ids``, so writes to the
    caller's objects do not reach the instance; `translated` and
    `recentred` make a new track; a deep copy or a pickle copies the track,
    and the copy's views follow it. Equality is identity.
    """

    __slots__ = ("scene_id", "agent_ids", "start_frame", "t_obs", "track", "block", "offset")

    def __new__(cls, scene_id: str, agent_ids: list[int], start_frame: int,
                obs_abs: np.ndarray, fut_abs: np.ndarray) -> "TrajectoryInstance":
        obs = np.asarray(obs_abs, dtype=np.float64)
        fut = np.asarray(fut_abs, dtype=np.float64)
        if obs.ndim != 3 or obs.shape[-1] != 2:
            raise DataError(f"obs_abs must be (P, T, 2), got {obs.shape}")
        if fut.ndim != 3 or fut.shape[0] != obs.shape[0] or fut.shape[-1] != 2:
            raise DataError(f"fut_abs {fut.shape} inconsistent with obs_abs {obs.shape}")
        if 0 in obs.shape or 0 in fut.shape:
            raise DataError(f"empty obs_abs {obs.shape} or fut_abs {fut.shape}")
        if len(agent_ids) != obs.shape[0]:
            raise DataError(f"{len(agent_ids)} agent ids for {obs.shape[0]} agents")
        return cls._adopt(scene_id, list(agent_ids), start_frame,
                          np.concatenate([obs, fut], axis=1), obs.shape[1])

    @classmethod
    def _adopt(cls, scene_id: str, agent_ids: list[int], start_frame: int, block: np.ndarray,
               t_obs: int, offset: int = 0, span: int | None = None) -> "TrajectoryInstance":
        """The one path to an instance: it owns ``agent_ids``, and its track
        is ``span`` frames of ``block`` from ``offset`` (all if None)."""
        inst = object.__new__(cls)
        inst.scene_id, inst.agent_ids, inst.start_frame = scene_id, agent_ids, start_frame
        inst.block, inst.offset, inst.t_obs = block, offset, t_obs
        inst.track = block if span is None else block[:, offset:offset + span]
        return inst

    def __reduce__(self):
        # A copy of a windowed instance owns a writable copy of its view.
        track = self.track if self.track.flags.writeable else self.track.copy()
        return self._adopt, (self.scene_id, self.agent_ids, self.start_frame, track, self.t_obs)

    @property
    def obs_abs(self) -> np.ndarray:
        return self.track[:, :self.t_obs]

    @property
    def fut_abs(self) -> np.ndarray:
        return self.track[:, self.t_obs:]

    @property
    def obs_rel(self) -> np.ndarray:
        return _steps(self.track)[:, :self.t_obs]

    @property
    def fut_rel(self) -> np.ndarray:
        return _steps(self.track)[:, self.t_obs:]

    @property
    def n_agents(self) -> int:
        return self.track.shape[0]

    @property
    def t_pred(self) -> int:
        return self.track.shape[1] - self.t_obs

    def translated(self, offset: np.ndarray) -> "TrajectoryInstance":
        """A copy with ``offset`` (2-vector) added to all absolute positions."""
        off = np.asarray(offset, dtype=np.float64).reshape(1, 1, 2)
        return self._adopt(self.scene_id, list(self.agent_ids), self.start_frame,
                           self.track + off, self.t_obs)

    def recentred(self) -> "TrajectoryInstance":
        """Translate so the centroid of last-observed positions is the origin."""
        centre = self.obs_abs[:, -1, :].mean(axis=0)
        return self.translated(-centre)


def load_scene(path) -> Scene:
    """Parse a scene file. Raises ParseError with a 1-based line number on
    malformed lines (non-finite coordinates and ids beyond +-2**53 included)
    and DataError on duplicate (frame, agent) pairs."""
    rows = []
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame, agent = _scene_id(parts[0]), _scene_id(parts[1])
                x, y = float(parts[2]), float(parts[3])
            except (ValueError, InvalidOperation):
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from None
            if frame is None or agent is None:
                raise ParseError(f"{path}: line {lineno}: ids must be integers within +-2**53")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"{path}: line {lineno}: non-finite coordinate")
            rows.append((frame, agent, x, y))
    # Ids within 2**53 are exact in float64.
    table = np.array(rows, dtype=np.float64).reshape(-1, 4)
    frame_ids, at_frame = np.unique(table[:, 0].astype(np.int64), return_inverse=True)
    agent_ids, at_agent = np.unique(table[:, 1].astype(np.int64), return_inverse=True)
    shape = (len(frame_ids), len(agent_ids))
    counts = np.bincount(at_frame * shape[1] + at_agent, minlength=shape[0] * shape[1])
    if counts.max(initial=0) > 1:
        f, a = divmod(int(counts.argmax()), shape[1])
        raise DataError(f"{path}: duplicate observation for frame {frame_ids[f]} "
                        f"agent {agent_ids[a]}")
    coords = np.zeros(shape + (2,))
    coords[at_frame, at_agent] = table[:, 2:]
    return Scene(frame_ids, agent_ids, coords, counts.reshape(shape) > 0)


def _scene_id(text: str) -> int | None:
    """The exact value of an id field written as an integer (or as a float
    such as ``10.0``), or None if it is not an integer within +-2**53."""
    try:
        value = int(text)
    except ValueError:
        value = Decimal(text)
    return int(value) if -2 ** 53 <= value <= 2 ** 53 and value == int(value) else None


def write_scene(scene: Scene, path) -> None:
    """Write a scene's observations in the scene text format, frames in
    order and agents ascending within each, with 6 decimal places."""
    frames, agents = np.nonzero(scene.present)
    rows = zip(scene.frame_ids[frames].tolist(), scene.agent_ids[agents].tolist(),
               scene.coords[frames, agents].tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{f}\t{a}\t{x:.6f}\t{y:.6f}\n" for f, a, (x, y) in rows)


def _check_spans(t_obs: int, t_pred: int) -> None:
    if t_obs < 1 or t_pred < 1:
        raise ConfigError("t_obs and t_pred must be positive")


def window_instances(scene: Scene, t_obs: int = T_OBS_DEFAULT, t_pred: int = T_PRED_DEFAULT,
                     scene_id: str = "") -> list[TrajectoryInstance]:
    """Slide a window of t_obs + t_pred frames over the scene's sorted frame
    ids (so decimated ids such as 0, 10, 20 still count as consecutive).
    Instances come in window start order, agents sorted; windows with no
    complete agent are dropped.

    An agent is complete in a window when its cumulative presence count
    grows by the window's length across it. A run is a stretch of
    consecutive windows with one complete-agent set. Each run's positions,
    a (P, run windows + span - 1, 2) block, are gathered once, and each
    window records its run's block and its offset there, the runs that
    input preparation reads, and its track is a (P, span, 2) view of that
    block, so neighbouring windows share their frames instead of each
    holding a copy. The blocks are slices of one read-only array that
    every instance keeps alive; a write to a track raises ValueError. No
    steps are taken here (`TrajectoryInstance` derives them from the track).
    """
    _check_spans(t_obs, t_pred)
    span = t_obs + t_pred
    n_agents = len(scene.agent_ids)
    seen = np.zeros((len(scene.frame_ids) + 1, n_agents), dtype=np.int64)
    np.cumsum(scene.present, axis=0, out=seen[1:])
    complete = seen[span:] - seen[:-span] == span
    # A run starts where the complete set changes; an empty set is no run.
    change = np.ones(len(complete), dtype=bool)
    np.any(complete[1:] != complete[:-1], axis=1, out=change[1:])
    bounds = np.flatnonzero(change)
    windows = np.diff(bounds, append=len(complete))
    live = complete[bounds].any(axis=1)
    starts, windows = bounds[live], windows[live]
    # One row per (run, agent): the agent's frames over the whole run, taken
    # in one gather from the frame-major positions, viewed as one complex128
    # per (x, y) pair so that `np.take` moves whole positions.
    run, agent = np.divmod(np.flatnonzero(complete[starts]), n_agents)
    row_frames = (windows + span - 1)[run]
    first = (starts[run] - np.cumsum(row_frames) + row_frames) * n_agents + agent
    at = np.arange(row_frames.sum()) * n_agents + np.repeat(first, row_frames)
    positions = np.ascontiguousarray(scene.coords, dtype=np.float64).view(np.complex128)
    gathered = np.take(positions.reshape(-1), at)
    gathered.flags.writeable = False
    gathered = gathered.view(np.float64).reshape(-1, 2)
    agent_ids = scene.agent_ids[agent].tolist()
    start_frames = scene.frame_ids.tolist()
    instances = []
    row = pos = 0
    for start, count, p in zip(starts.tolist(), windows.tolist(),
                               np.bincount(run, minlength=len(starts)).tolist()):
        length = count + span - 1
        block = gathered[pos:pos + p * length].reshape(p, length, 2)
        ids = agent_ids[row:row + p]
        for k in range(count):
            instances.append(TrajectoryInstance._adopt(
                scene_id, ids[:], start_frames[start + k], block, t_obs, k, span))
        row, pos = row + p, pos + p * length
    return instances


def _steps(track: np.ndarray) -> np.ndarray:
    """First differences of (..., T, 2) tracks along time: zero at the
    first frame, then ``x[t + 1] - x[t]``, the values `np.diff` gives."""
    steps = np.empty_like(track)
    steps[..., :1, :] = 0.0
    np.subtract(track[..., 1:, :], track[..., :-1, :], out=steps[..., 1:, :])
    return steps


def load_dataset(paths, t_obs: int = T_OBS_DEFAULT,
                 t_pred: int = T_PRED_DEFAULT) -> list[TrajectoryInstance]:
    """Window several scene files into one deterministic instance stream.

    Ordering: window start frame first, then the position of the source
    file in ``paths`` (the sort is stable), so replays are reproducible.
    """
    instances = [inst for path in paths
                 for inst in window_instances(load_scene(path), t_obs, t_pred, str(path))]
    return sorted(instances, key=lambda inst: inst.start_frame)


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
        require_finite(self)
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


def generate_synthetic(spec: SyntheticScenarioSpec, frames: int) -> Scene:
    """Deterministically generate the scene of ``frames`` consecutive
    frames, ids 0..frames-1, with agents 1..n present throughout.

    All randomness comes from one xorshift64* stream seeded by
    ``spec.seed``. Draw order: per-agent initial state (in agent order),
    then per frame and per agent the motion update. The uniforms are the
    same on every platform; positions also go through log, cos and sin
    (numpy loops that call the same C library as `math`), so identical
    specs give byte-identical scenes wherever the C library rounds those
    alike.

    The scene is computed as whole arrays, value for value what a loop over
    frames and agents gives: the draws are counted up front and taken in
    one `uniforms` call; accumulated coordinates go through `np.cumsum`,
    which adds in order, so each position is still
    ``(previous + step) + noise``; and log, cos and sin (`rng.logs`,
    `rng.unit_vectors`) give the values of `math.log`, `math.cos` and
    `math.sin`.
    """
    spec.validate()
    if frames < 1:
        raise ConfigError("frames must be >= 1")
    n, kind = spec.agents, spec.kind
    noisy = spec.noise_std > 0
    later = np.arange(1, frames)
    # Draws per agent: `setup` at frame 0, then at each later frame 2 for a
    # stagger turn and 2 for a noise pair. `first` is where agent i's
    # draws of frame `later[k]` start, at [k, i].
    setup = 3 if kind == "stagger" else 2
    turns = (later % spec.period == 0) if kind == "stagger" else np.zeros(frames - 1, bool)
    per_agent = 2 * turns + (2 if noisy else 0)
    frame_draws = n * per_agent
    first = (n * setup + np.cumsum(frame_draws) - frame_draws)[:, None] \
        + per_agent[:, None] * np.arange(n)
    u = Xorshift64Star(spec.seed).uniforms(n * setup + int(frame_draws.sum()))
    init = u[:n * setup].reshape(n, setup)
    if noisy:
        at = (first + 2 * turns[:, None])[..., None] + np.arange(2)
        noise = (spec.noise_std * box_muller(u[at].ravel())).T.reshape(frames - 1, n, 2)

    if kind == "circle":
        radius = spec.extent / 2.0
        omega = spec.speed / radius
        phases = init[:, 0] * 2.0 * math.pi
        directions = np.where(init[:, 1] < 0.5, 1.0, -1.0)
        angles = np.empty((frames, n))
        angles[0] = phases
        angles[1:] = phases + directions * omega * later[:, None]
        coords = radius * unit_vectors(angles)
        if noisy:
            coords[1:] += noise
    else:
        if kind == "oneway":
            moves = np.broadcast_to([spec.speed, 0.0], (frames - 1, n, 2))
        else:
            # Heading after k turns is headings[k]; frame t has had t // period.
            turn_at = first[turns]
            signs = np.where(u[turn_at] < 0.5, 1.0, -1.0)
            deltas = signs * (math.pi / 4.0 + u[turn_at + 1] * math.pi / 4.0)
            headings = np.cumsum(np.concatenate([init[None, :, 2] * 2.0 * math.pi, deltas]),
                                 axis=0)
            moves = spec.speed * unit_vectors(headings)[later // spec.period]
        # Running sums of start, move, noise, move, noise, ...: every other
        # partial sum is a frame's position.
        every = 2 if noisy else 1
        terms = np.empty((1 + every * (frames - 1), n, 2))
        terms[0] = init[:, :2] * spec.extent
        terms[1::every] = moves
        if noisy:
            terms[2::2] = noise
        coords = np.cumsum(terms, axis=0)[::every]
    return Scene(np.arange(frames, dtype=np.int64), np.arange(1, n + 1, dtype=np.int64), coords,
                 np.ones((frames, n), dtype=bool))


def frames_for_instances(n: int, t_obs: int = T_OBS_DEFAULT,
                         t_pred: int = T_PRED_DEFAULT) -> int:
    """Frame count needed so windowing yields exactly ``n`` instances."""
    _check_spans(t_obs, t_pred)
    if n < 1:
        raise ConfigError("instance count must be >= 1")
    return n - 1 + t_obs + t_pred


def synthetic_instances(spec: SyntheticScenarioSpec, count: int,
                        t_obs: int = T_OBS_DEFAULT,
                        t_pred: int = T_PRED_DEFAULT) -> list[TrajectoryInstance]:
    """Generate exactly ``count`` windowed instances of one scenario: the
    instances `window_instances` makes of `generate_synthetic`'s scene."""
    scene = generate_synthetic(spec, frames_for_instances(count, t_obs, t_pred))
    return window_instances(scene, t_obs, t_pred, f"{spec.kind}:{spec.seed}")
