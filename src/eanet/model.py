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
                   _steps, synthetic_instances)
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


def dataset_arrays(part: list[TrajectoryInstance], config: ModelConfig) -> list[tuple]:
    """The network inputs and target of every instance of one chunk, in
    order: relative displacements (T_obs, P, 2), normalised graphs
    (T_obs, P, P) and ``fut_rel`` (P, T_pred, 2). The chunk's same-sized
    instances are prepared as one group: their tracks are stacked once,
    the steps taken once over that stack (`data._steps`, the values each
    instance's ``obs_rel`` and ``fut_rel`` give), and the displacements,
    the graph positions and the target are slices of those two arrays;
    the graphs are built in one `instance_graphs` call. Raises ConfigError
    when an instance's spans differ from the model's. The step
    `chunked_arrays` runs on each chunk.
    """
    by_agents: dict[int, list[int]] = {}
    for idx, instance in enumerate(part):
        if instance.t_obs != config.t_obs or instance.t_pred != config.t_pred:
            raise ConfigError(f"instance spans ({instance.t_obs}, {instance.t_pred}), "
                              f"model expects ({config.t_obs}, {config.t_pred})")
        by_agents.setdefault(instance.n_agents, []).append(idx)
    prepared: list[tuple] = [()] * len(part)
    t_obs = config.t_obs
    for members in by_agents.values():
        tracks = np.stack([part[i].track for i in members])
        steps = _steps(tracks)
        x_seq = np.ascontiguousarray(steps[:, :, :t_obs].transpose(0, 2, 1, 3))
        positions = tracks[:, :, :t_obs].transpose(0, 2, 1, 3)
        ahat = instance_graphs(positions, x_seq, config.kernel, config.rbf_sigma)
        fut_rel = steps[:, :, t_obs:]
        for k, i in enumerate(members):
            prepared[i] = (x_seq[k], ahat[k], fut_rel[k])
    return prepared


def chunked_arrays(instances: Iterable[TrajectoryInstance], config: ModelConfig,
                   chunk: int) -> Iterator[tuple[TrajectoryInstance, tuple]]:
    """Each instance with its `dataset_arrays` entry, in order: the one
    way the package prepares network inputs.

    The next ``chunk`` consecutive instances are drawn from ``instances``
    and prepared in one `dataset_arrays` call only when the caller reaches
    them, so the transient memory grows with ``chunk`` and a long stream
    holds one chunk of arrays at a time. An instance's arrays have the
    same bits whatever chunk prepares them.
    """
    it = iter(instances)
    while part := list(itertools.islice(it, chunk)):
        yield from zip(part, dataset_arrays(part, config))


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
        `chunked_arrays` prepares them. Returns ``(field, block, trace)``:
        the decoded head output, the (N, L, T_pred, P, D) array of all L
        layer outputs, and the `ea` head's trace (None for the others).
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
        """The decoded field of one instance, prepared as a chunk of its own
        and run off the tape."""
        [(_, (x_seq, ahat_seq, _))] = chunked_arrays([instance], self.config, 1)
        with T.no_grad():
            return self.forward(x_seq[None], ahat_seq[None], strategy, hedge_state)[0]

    def predict(self, instance: TrajectoryInstance) -> np.ndarray:
        """Deterministic (P, T_pred, 2) absolute prediction of the plain head."""
        return mu_trajectory(self.predict_field(instance), instance.obs_abs[:, -1])


def toy_instance(agents: int = 3, config: ModelConfig | None = None,
                 seed: int = 0) -> TrajectoryInstance:
    """A small synthetic instance for gradient checks and smoke tests."""
    cfg = config or ModelConfig()
    spec = SyntheticScenarioSpec(kind="stagger", agents=agents, seed=seed)
    return synthetic_instances(spec, 1, t_obs=cfg.t_obs, t_pred=cfg.t_pred)[0]
