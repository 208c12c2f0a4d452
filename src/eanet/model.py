"""The assembled predictor: graphs, convolution stack, and output heads.

Parameter registry layout (names are the checkpoint tensor names):

    gcn/w        (2, D)            graph convolution weight
    expand/k     (T_pred, T_obs, 1, 3)   time-expansion kernel
    stack/<l>/k  (T_pred, T_pred, 1, 3)  stacked conv kernels
    stack/<l>/s  ()                per-layer prelu slope
    ea/theta     (D, 1)            gate read-out
    ea/bias      ()                gate bias
    ea/alpha     (L,)              layer mix

The registry is one `tensor.ParameterArena`: every parameter's values
and gradient are views into two flat float64 buffers, laid end to end
in the order above, so an update step is one array op per buffer.

Convolutions are bias-free, initialised uniformly in +-1/sqrt(fan_in)
with fan_in = 9 * C_in, and each 1x3 kernel is the middle row of a 3x3
draw (`_conv_kernel`).
The attention head starts with a near-constant gate of one half and the
mix one-hot on the deepest layer scaled by two, so the gated output
matches the plain deepest-layer output that offline training optimised.

Network inputs are prepared per frame, not per window, by one builder,
`frame_tables`, into one `FrameTables` per agent count. Windowing
decides the runs and preparation reads them: instances that record one
block (`data.TrajectoryInstance`) at offsets less than a span apart
form a run, and a private track is a run of one. Each frame of a run
has its step taken once and its graph built once: one zero-motion graph
per window start, and one motion graph per frame that a window observes
after its first, `GRAPH_FRAMES` graphs per call. Inputs and targets are
gathered from those tables in batch form, with the bits each instance
gets when prepared alone: training gathers a group at a time, and
`chunked_arrays` yields each instance as a batch of one.

`TrajectoryModel.forward` runs the fixed chain of stages (graph
convolution, time-expand conv, residual stack, head) on plain arrays and
puts it on the tape as one record, whose backward runs each stage's
``back`` closure in reverse; the caller's NLL is the second record, and
the Gaussian decode adds none. Offline training runs the forward on the
plain head once per group of same-sized instances, and one backward per
group, seeded with the group's share of the batch. `predict_field` and
`predict` run it off the tape, so they leave nothing behind.

Permuting an instance's agents permutes its predictions to within
rounding only (acceptance criterion 6 allows 1e-10): the convolution
stack is bit-exactly row-local, but the graph convolution's A_hat X sums
over neighbours in the order the agents are stored.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import ea_output, hedge_output, plain_output
from .data import (T_OBS_DEFAULT, T_PRED_DEFAULT, SyntheticScenarioSpec, TrajectoryInstance,
                   synthetic_instances)
from .errors import ConfigError, require_finite
from .gaussian import GaussianField, decode_gaussian, mu_trajectory
from .graph import KERNEL_KINDS, gcn_forward, instance_graphs
from .rng import Xorshift64Star
from .temporal import StackStore, stack_forward, time_expand

GAUSS_CHANNELS = 5
STRATEGIES = ("ea", "plain", "hedge")


@dataclass
class ModelConfig:
    t_obs: int = T_OBS_DEFAULT
    t_pred: int = T_PRED_DEFAULT
    stack_layers: int = 5
    kernel: str = "motion_trend"
    rbf_sigma: float = 1.0
    prelu_init: float = 0.25

    def validate(self) -> None:
        require_finite(self)
        if self.t_obs < 1 or self.t_pred < 1:
            raise ConfigError("t_obs and t_pred must be positive")
        if self.stack_layers < 1:
            raise ConfigError("stack_layers must be >= 1")
        if self.kernel not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kernel!r}")
        if self.rbf_sigma <= 0:
            raise ConfigError("rbf_sigma must be positive")


def _runs(instances: list[TrajectoryInstance], span: int
          ) -> list[tuple[np.ndarray, list[int], list[int]]]:
    """The runs of same-sized instances: ``(block, members, offsets)``
    per run, where instance ``members[i]``'s track is
    ``block[:, offsets[i]:offsets[i] + span]``.

    The instances that windowing gave one ``block``, sorted by
    ``offset``, form a run while each starts less than a span after the
    one before, so every frame of the run's ``block``, the slice of the
    recorded block they cover, lies in one of their tracks. A private
    track is its own block, a run of its own, listed as often as given.
    """
    shared: dict[int, list[tuple[int, int]]] = {}
    for k, instance in enumerate(instances):
        shared.setdefault(id(instance.block), []).append((instance.offset, k))
    runs = []
    for views in shared.values():
        views.sort()
        block = instances[views[0][1]].block
        cuts = [i for i in range(1, len(views)) if views[i][0] - views[i - 1][0] >= span]
        for lo, hi in zip([0, *cuts], [*cuts, len(views)]):
            first = views[lo][0]
            runs.append((block[:, first:views[hi - 1][0] + span],
                         [k for _, k in views[lo:hi]], [at - first for at, _ in views[lo:hi]]))
    return runs


# Frames whose graphs one `instance_graphs` call builds: what 64 windows
# of T_obs 8 build alone. A graph's bits do not depend on the call that
# builds it, so this bounds the graph temporaries and nothing else.
GRAPH_FRAMES = 512


class FrameTables:
    """The prepared frames of same-sized instances, one table row per frame.

    The instances are split into the runs that windowing recorded in
    their ``block`` and ``offset`` (`_runs`), and each frame of a run is
    prepared once, however many of its windows hold it. ``steps``
    (R, P, 2) holds the steps of every run's frames, run after run, each
    run's first step zero, with the bits `data._steps` gives. ``graphs``
    (G, P, P) holds first one normalised graph per instance, of its first
    frame with zero motion (a window's first step is zero), then one per
    frame that some instance observes after its first, with that frame's
    step as the motion: about two graphs per window of a stride-1 run
    instead of T_obs. Instance k starts at row ``starts[k]`` of ``steps``,
    and its T_obs graphs are the rows ``graph_rows[k]`` of ``graphs``.
    The graphs are built `GRAPH_FRAMES` at a time, so their temporaries
    do not grow with the instance count; a frame-major copy of the
    positions, the size of ``steps``, is the one temporary that does.
    """

    __slots__ = ("span", "steps", "graphs", "starts", "graph_rows")

    def __init__(self, instances: list[TrajectoryInstance], config: ModelConfig):
        t_obs, span, count = config.t_obs, config.t_obs + config.t_pred, len(instances)
        frames, firsts, starts = [], [], [0] * count
        row = 0
        for block, run, offsets in _runs(instances, span):
            for k, offset in zip(run, offsets):
                starts[k] = row + offset
            firsts.append(row)
            frames.append(block.transpose(1, 0, 2))
            row += block.shape[1]
        positions = np.concatenate(frames)
        steps = np.empty_like(positions)
        np.subtract(positions[1:], positions[:-1], out=steps[1:])
        for first in firsts:
            steps[first] = 0.0
        # The instances' zero-motion graphs come first, then the motion
        # graphs of the frames that some instance observes after its first.
        starts = np.array(starts, dtype=np.intp)
        later = starts[:, None] + np.arange(1, t_obs)
        moving = np.zeros(row, dtype=bool)
        moving[later] = True
        motion_frames = moving.nonzero()[0]
        graph_rows = np.empty((count, t_obs), dtype=np.intp)
        graph_rows[:, 0] = range(count)
        np.add(motion_frames.searchsorted(later), count, out=graph_rows[:, 1:])
        at = np.concatenate([starts, motion_frames])
        agents = positions.shape[1]
        graphs = np.empty((len(at), agents, agents))
        for lo in range(0, len(at), GRAPH_FRAMES):
            rows = at[lo:lo + GRAPH_FRAMES]
            motions = steps.take(rows, axis=0)
            motions[:max(count - lo, 0)] = 0.0
            graphs[lo:lo + len(rows)] = instance_graphs(positions.take(rows, axis=0), motions,
                                                        config.kernel, config.rbf_sigma)
        self.span, self.steps, self.graphs = span, steps, graphs
        self.starts, self.graph_rows = starts, graph_rows

    def gather(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(x_seq, ahat, fut_rel)`` of the instances at ``rows`` (a list
        or a slice of instance indices), in new arrays: (n, T_obs, P, 2) and
        (n, T_obs, P, P) C-contiguous, and (n, P, T_pred, 2) the last
        frames of a C-contiguous (n, P, span, 2) array of steps, with the
        bits `data._steps` gives for the stacked tracks."""
        t_obs = self.graph_rows.shape[1]
        frames = self.starts[rows, None] + np.arange(self.span)
        steps = np.ascontiguousarray(self.steps.take(frames, axis=0).transpose(0, 2, 1, 3))
        steps[:, :, 0] = 0.0
        x_seq = np.ascontiguousarray(steps[:, :, :t_obs].transpose(0, 2, 1, 3))
        return x_seq, self.graphs.take(self.graph_rows[rows], axis=0), steps[:, :, t_obs:]


def frame_tables(instances: list[TrajectoryInstance], config: ModelConfig
                 ) -> tuple[dict[int, FrameTables], list[tuple[int, int]]]:
    """The one builder of network inputs: the `FrameTables` of
    ``instances`` by agent count, and ``where[i] = (agents, row)``,
    instance i's table and its row there, reading the runs windowing
    recorded (`_runs`). Raises ConfigError, before any work, when an
    instance's spans differ from the model's."""
    sized: dict[int, list[TrajectoryInstance]] = {}
    where = []
    for instance in instances:
        if instance.t_obs != config.t_obs or instance.t_pred != config.t_pred:
            raise ConfigError(f"instance spans ({instance.t_obs}, {instance.t_pred}), "
                              f"model expects ({config.t_obs}, {config.t_pred})")
        same = sized.setdefault(instance.n_agents, [])
        where.append((instance.n_agents, len(same)))
        same.append(instance)
    return {agents: FrameTables(same, config) for agents, same in sized.items()}, where


def chunked_arrays(instances: Iterable[TrajectoryInstance], config: ModelConfig,
                   chunk: int) -> Iterator[tuple[TrajectoryInstance, tuple]]:
    """Each instance with its network inputs and target as a batch of one,
    in order: relative displacements (1, T_obs, P, 2), normalised graphs
    (1, T_obs, P, P) and ``fut_rel`` (1, P, T_pred, 2), with the bits of
    the instance's ``obs_rel`` (time first), of its graphs built alone
    and of its ``fut_rel``, whose strides the target keeps past its first
    axis.

    The next ``chunk`` consecutive instances are drawn from ``instances``
    and prepared by one `frame_tables` call only when the caller reaches
    them, so the transient memory grows with ``chunk`` and a long stream
    holds one chunk of arrays at a time. Each instance's arrays are row
    slices of one `FrameTables.gather` of its chunk's same-sized
    instances, and have the same bits whatever chunk prepares them.
    Raises ConfigError when an instance's spans differ from the model's.
    """
    it = iter(instances)
    while part := list(itertools.islice(it, chunk)):
        tables, where = frame_tables(part, config)
        gathered = {agents: table.gather(slice(None)) for agents, table in tables.items()}
        for instance, (agents, row) in zip(part, where):
            yield instance, tuple(array[row:row + 1] for array in gathered[agents])


def _uniform(rng: Xorshift64Star, shape: tuple[int, ...], bound: float) -> np.ndarray:
    """The next prod(shape) uniforms of ``rng`` in C order, each mapped to
    [-bound, bound) as lo + (hi - lo) * u."""
    lo, hi = -bound, bound
    u = rng.uniforms(math.prod(shape))
    return (lo + (hi - lo) * u).reshape(shape)


def _conv_kernel(rng: Xorshift64Star, c_out: int, c_in: int) -> np.ndarray:
    """A (c_out, c_in, 1, 3) kernel: the middle row of a (c_out, c_in, 3, 3)
    draw. Drawing all nine taps in their old order keeps every seed's
    kernels, and every later draw of the stream, what they were when the
    whole 3x3 window was stored."""
    return _uniform(rng, (c_out, c_in, 3, 3), 1.0 / math.sqrt(c_in * 9.0))[:, :, 1:2]


def _expert_head(config: ModelConfig, rng: Xorshift64Star) -> dict[str, np.ndarray]:
    """The attention head's starting values: a near-constant gate of one
    half, and the mix one-hot on the deepest layer scaled by two."""
    alpha = np.zeros(config.stack_layers)
    alpha[-1] = 2.0
    return {"ea/theta": _uniform(rng, (GAUSS_CHANNELS, 1), 0.01),
            "ea/bias": np.array(math.atanh(0.5)), "ea/alpha": alpha}


class TrajectoryModel:
    """Holds the parameter registry and runs the forward passes.

    The registry lives in one `tensor.ParameterArena`: ``params[name].data``
    and ``.grad`` are views into its flat value and gradient buffers, in
    registry order, and a gradient is zero until a backward writes it.
    Write into the views, never rebind them. ``copy.deepcopy`` and pickle
    copy the buffers and rebind the views to the copies. `forward` records
    on the tape; `predict_field` and `predict` never do.
    """

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config or ModelConfig()
        self.config.validate()
        rng = Xorshift64Star(seed)
        cfg = self.config
        values = {"gcn/w": _uniform(rng, (2, GAUSS_CHANNELS), 1.0 / math.sqrt(2.0)),
                  "expand/k": _conv_kernel(rng, cfg.t_pred, cfg.t_obs)}
        for layer in range(cfg.stack_layers):
            values[f"stack/{layer}/k"] = _conv_kernel(rng, cfg.t_pred, cfg.t_pred)
            values[f"stack/{layer}/s"] = np.array(cfg.prelu_init)
        values.update(_expert_head(cfg, rng))
        self.arena = T.ParameterArena(values)

    @property
    def params(self) -> dict[str, T.Parameter]:
        return self.arena.params

    def init_expert_head(self, rng: Xorshift64Star) -> None:
        """(Re)initialise the attention head's values and zero its
        gradients, in place; called again when an online run starts so
        the gate begins at one half and the mix at the deepest layer."""
        for name, value in _expert_head(self.config, rng).items():
            self.params[name].data[...] = value
            self.params[name].zero_grad()

    def zero_grad(self) -> None:
        self.arena.grad.fill(0.0)

    # ----------------------------------------------------------------- forward

    def forward(self, x_seq: np.ndarray, ahat_seq: np.ndarray, strategy: str = "plain",
                hedge_state=None, store: StackStore | None = None):
        """The whole chain for a batch of same-sized instances: graph
        convolution, time-expand conv, residual stack, the ``strategy``
        head and the Gaussian decode.

        ``x_seq`` holds relative displacements as (N, T_obs, P, 2) and
        ``ahat_seq`` the normalized graphs as (N, T_obs, P, P), as
        `FrameTables.gather` returns them (N = 1 from `chunked_arrays`).
        Returns ``(field, block, trace)``: the decoded head output, the
        (N, L, T_pred, P, D) array of all L layer outputs, and the `ea`
        head's trace (None for the others).
        On the tape this is one record, whose backward adds each
        parameter's gradient into its arena view in the order per-stage
        records did (head, stack slopes from the deepest, stack kernels,
        time-expand kernel, graph weight); the caller's NLL is the second.
        Outside `T.no_grad()`, the record and every array its stages hold
        stay on the tape until a `T.backward` runs. The block lives in
        ``store`` if one is given (see `stack_forward`). An unknown
        strategy, or `hedge` without a ``hedge_state``, raises ConfigError
        before anything goes on the tape.
        """
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}")
        if strategy == "hedge" and hedge_state is None:
            raise ConfigError("hedge strategy needs a HedgeState")
        params, layers = self.params, range(self.config.stack_layers)
        gcn, expand = params["gcn/w"], params["expand/k"]
        kernels = [params[f"stack/{l}/k"] for l in layers]
        slopes = [params[f"stack/{l}/s"] for l in layers]
        features, gcn_back = gcn_forward(ahat_seq, x_seq, gcn.data)
        x0, expand_back = time_expand(features, expand.data)
        block, stack_back = stack_forward(x0, [k.data for k in kernels],
                                          [s.data for s in slopes], store)
        trace = None
        if strategy == "ea":
            head = [params["ea/theta"], params["ea/bias"], params["ea/alpha"]]
            raw, trace, head_back = ea_output(block, *[p.data for p in head])
        elif strategy == "hedge":
            head, (raw, head_back) = [], hedge_output(block, hedge_state)
        else:
            head, (raw, head_back) = [], plain_output(block)

        def back(g):
            g_block, *g_head = head_back(g)
            g_x0, g_kernels, g_slopes = stack_back(g_block)
            g_features, g_expand = expand_back(g_x0)
            grads = [*g_head[::-1], *g_slopes[::-1], *g_kernels, g_expand, *gcn_back(g_features)]
            for param, grad in zip(head[::-1] + slopes[::-1] + kernels + [expand, gcn], grads):
                param.grad += grad

        return decode_gaussian(T._make(raw, params.values(), back)), block, trace

    def predict_field(self, instance: TrajectoryInstance, strategy: str = "plain",
                      hedge_state=None) -> GaussianField:
        """The decoded field of one instance, prepared as a chunk of its own,
        already a batch of one, and run off the tape."""
        [(_, (x_seq, ahat_seq, _))] = chunked_arrays([instance], self.config, 1)
        with T.no_grad():
            return self.forward(x_seq, ahat_seq, strategy, hedge_state)[0]

    def predict(self, instance: TrajectoryInstance) -> np.ndarray:
        """Deterministic (P, T_pred, 2) absolute prediction of the plain head."""
        return mu_trajectory(self.predict_field(instance), instance.obs_abs[:, -1])


def toy_instance(agents: int = 3, config: ModelConfig | None = None,
                 seed: int = 0) -> TrajectoryInstance:
    """A small synthetic instance for gradient checks and smoke tests."""
    cfg = config or ModelConfig()
    spec = SyntheticScenarioSpec(kind="stagger", agents=agents, seed=seed)
    return synthetic_instances(spec, 1, t_obs=cfg.t_obs, t_pred=cfg.t_pred)[0]
