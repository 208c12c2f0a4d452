"""Output strategies over the stacked intermediate outputs.

Three ways to turn the (N, L, T, P, D) block of layer outputs that
`temporal.stack_forward` returns into one (N, T, P, D) prediction, each
the last stage of the model's static chain: a function on arrays that
returns its output and a ``back`` closure giving the gradients of the
block and of the head's parameters.

* ``ea_output``: a learned gate scores every layer per frame (tanh of a
  linear read-out, averaged over agents) and a trainable mix vector
  weighs the gated layers. This is the strategy that adapts fastest when
  the scenario shifts, because shallow layers can be promoted without
  retraining the whole chain.
* ``plain_output``: just the deepest layer.
* ``hedge_output``/``hedge_update``: multiplicative-weights mixing with a
  per-layer loss based discount, a smoothing floor, and renormalisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError

# The default discount and floor budget of a `HedgeState`.
HEDGE_BETA = 0.99
HEDGE_SMOOTHING = 0.2


@dataclass(eq=False)
class ExpertTrace:
    """Per-instance snapshot of the gate (mean over frames per layer) and
    the current layer-mix vector."""

    gate: np.ndarray
    alpha: np.ndarray


def _check_block(block: np.ndarray) -> int:
    """The layer count of an (N, L, T, P, D) block."""
    if block.ndim != 5:
        raise DimensionError(f"need an (N, L, T, P, D) block of layer outputs, got {block.shape}")
    if block.shape[1] == 0:
        raise ContractError("need at least one intermediate output")
    return block.shape[1]


def ea_output(block: np.ndarray, theta: np.ndarray, bias: np.ndarray, alpha: np.ndarray):
    """Gated, alpha-weighted sum over the (N, L, T, P, D) block of layer
    outputs.

    For each frame f, the gate of layer l is the mean over agents of
    tanh(M[l][:, f] theta + bias), with ``theta`` of shape (D, 1) and
    ``bias`` a scalar; each layer is multiplied by its gate (broadcast
    over agents and features) and the layers are summed with the
    trainable mix alpha, of shape (L,). Other shapes raise DimensionError.
    Returns the (N, T, P, D) output, a trace for reporting, and ``back``,
    giving ``(grad block, grad theta, grad bias, grad alpha)``.

    The forward repeats the arithmetic of the chain of tape primitives
    this stage replaced (matmul, add, tanh, mean, reshape, mul, mul,
    sum), and the backward computes partial gradients in that chain's
    order. Every sum runs over its operands in the same memory order as
    in that chain, since numpy's summation order follows the memory
    order, so output and gradients are bit-identical to the chain's;
    ``tests/oracles.py`` keeps it.
    """
    n_layers = _check_block(block)
    if alpha.shape != (n_layers,):
        raise DimensionError(f"alpha must be ({n_layers},), got {alpha.shape}")
    if theta.shape != (block.shape[-1], 1) or bias.size != 1:
        raise DimensionError(f"need a ({block.shape[-1]}, 1) theta and a scalar bias, "
                             f"got {theta.shape} and {bias.shape}")
    z = np.matmul(block, theta) + bias
    scores = np.tanh(z)
    # np.add.reduce, then a divide by the count, is what the mean and sum
    # methods run, without their Python wrappers.
    gate = np.add.reduce(scores, axis=3, keepdims=True) / scores.shape[3]
    mix = alpha.reshape(1, n_layers, 1, 1, 1)
    # The elementwise work runs on (N, L, P, T, D) views, which
    # stack_forward's block stores contiguously.
    rows = block.transpose(0, 1, 3, 2, 4)
    gate_rows = gate.transpose(0, 1, 3, 2, 4)
    gated = rows * gate_rows
    out = np.add.reduce(gated * mix, axis=1).transpose(0, 2, 1, 3)

    # The backward sums each gradient over the axes its operand was
    # broadcast along, as the chain's unbroadcasting sums did.
    def back(g):
        g_mixed = g.transpose(0, 2, 1, 3)[:, None]
        g_gated = g_mixed * mix
        g_alpha = np.add.reduce(g_mixed * gated, axis=(0, 2, 3, 4))
        g_gate = np.add.reduce(g_gated * rows, axis=(2, 4), keepdims=True).transpose(0, 1, 3, 2, 4)
        g_z = (g_gate / block.shape[3]) * (1.0 - scores * scores)
        g_bias = np.add.reduce(g_z, axis=None)
        g_theta = np.add.reduce(np.matmul(block.swapaxes(-1, -2), g_z), axis=(0, 1, 2))
        # The matmul of g_z with theta's transpose multiplies single
        # pairs, which an elementwise product repeats exactly.
        g_rows = g_gated * gate_rows + g_z.transpose(0, 1, 3, 2, 4) * theta[:, 0]
        return g_rows.transpose(0, 1, 3, 2, 4), g_theta, g_bias, g_alpha

    gate_mean = np.add.reduce(gate, axis=(0, 2)).reshape(n_layers) / (gate.shape[0] * gate.shape[2])
    return out, ExpertTrace(gate=gate_mean, alpha=alpha.reshape(-1).copy()), back


def plain_output(block: np.ndarray):
    """The deepest layer, untouched, and its ``back``, which hands the
    stack the deepest layer's gradient alone, as (N, 1, T, P, D). The
    output is a copy, so a kept prediction does not hold the block's
    allocation (in `temporal.stack_forward` it also holds every layer's
    input, conv output and mask) alive."""
    _check_block(block)
    return block[:, -1].copy(), lambda g: (g[:, None],)


@dataclass(eq=False)
class HedgeState:
    """Multiplicative-weights mixture over the L layers.

    Parameters
    ----------
    w : probability vector over layers, kept on the simplex.
    beta : per-unit-loss discount in (0, 1).
    smoothing : floor budget s. Each update floors the weights at s/L and
        then renormalises, so no weight ends an update below s/(L(1+s)).
    """

    w: np.ndarray
    beta: float = HEDGE_BETA
    smoothing: float = HEDGE_SMOOTHING

    @classmethod
    def uniform(cls, n_layers: int, beta: float = HEDGE_BETA,
                smoothing: float = HEDGE_SMOOTHING) -> "HedgeState":
        if n_layers < 1:
            raise ConfigError("hedge needs at least one layer")
        state = cls(w=np.full(n_layers, 1.0 / n_layers), beta=beta, smoothing=smoothing)
        state.validate()
        return state

    def validate(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("hedge beta must be in (0, 1)")
        if not 0.0 < self.smoothing < 1.0:
            raise ConfigError("hedge smoothing must be in (0, 1)")
        self.w = np.asarray(self.w, dtype=np.float64)
        if (self.w.ndim != 1 or not np.all(np.isfinite(self.w) & (self.w >= 0))
                or abs(self.w.sum() - 1.0) > 1e-9):
            raise ConfigError("hedge weights must be a probability vector")


def hedge_output(block: np.ndarray, state: HedgeState):
    """Weighted sum over the (N, L, T, P, D) block with the current
    (constant) weights, and its ``back``, which maps the output's gradient
    to ``(grad block,)``; a weight count other than L raises
    DimensionError."""
    n_layers = _check_block(block)
    if state.w.size != n_layers:
        raise DimensionError(f"hedge has {state.w.size} weights for {n_layers} layers")
    mix = state.w.reshape(1, n_layers, 1, 1, 1)
    return np.add.reduce(block * mix, axis=1), lambda g: (g[:, None] * mix,)


def hedge_update(state: HedgeState, losses) -> HedgeState:
    """Discount weights by beta raised to the min-max-normalised losses.

    After the multiplicative step every weight is floored at s/L and the
    vector is renormalised. The floored vector sums to at most 1 + s, so
    no weight ends below s/(L(1+s)); renormalising can take a weight
    below s/L itself. Non-finite losses leave the weights untouched
    (the caller records the health event). Finite losses whose spread
    overflows are normalised from their halves, so the weights stay
    finite there too.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != state.w.shape:
        raise DimensionError(f"got {losses.shape} losses for {state.w.shape} weights")
    if not np.all(np.isfinite(losses)):
        return HedgeState(w=state.w.copy(), beta=state.beta, smoothing=state.smoothing)
    # The reductions the min, max and sum methods run, without their
    # Python wrappers, and the minimum taken once. The spread is a Python
    # float difference, which overflows to inf without a warning.
    low, high = float(np.minimum.reduce(losses)), float(np.maximum.reduce(losses))
    spread = high - low
    if spread == np.inf:
        # Halving is exact for normal values and keeps every difference finite.
        normalised = (losses * 0.5 - low * 0.5) / (high * 0.5 - low * 0.5)
    elif spread > 0:
        normalised = (losses - low) / spread
    else:
        normalised = np.zeros_like(losses)
    w = state.w * np.power(state.beta, normalised)
    w = np.maximum(w, state.smoothing / w.size)
    w = w / np.add.reduce(w)
    return HedgeState(w=w, beta=state.beta, smoothing=state.smoothing)
