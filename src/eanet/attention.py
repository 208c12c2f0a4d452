"""Output strategies over the stacked intermediate outputs.

Three ways to turn the (N, L, T, P, D) block of layer outputs that
`temporal.stack_forward` returns into one (N, T, P, D) prediction, each
one tape record:

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
from .temporal import LayerBlock

# The default discount and floor budget of a `HedgeState`.
HEDGE_BETA = 0.99
HEDGE_SMOOTHING = 0.2


@dataclass(eq=False)
class ExpertTrace:
    """Per-instance snapshot of the gate (mean over frames per layer) and
    the current layer-mix vector."""

    gate: np.ndarray
    alpha: np.ndarray


def _check_block(block: T.Tensor) -> int:
    """The layer count of an (N, L, T, P, D) block."""
    if block.ndim != 5:
        raise DimensionError(f"need an (N, L, T, P, D) block of layer outputs, got {block.shape}")
    if block.shape[1] == 0:
        raise ContractError("need at least one intermediate output")
    return block.shape[1]


def ea_output(block: T.Tensor, theta: T.Tensor, bias: T.Tensor,
              alpha: T.Tensor) -> tuple[T.Tensor, ExpertTrace]:
    """Gated, alpha-weighted sum over the (N, L, T, P, D) block of layer
    outputs, as one tape record.

    For each frame f, the gate of layer l is the mean over agents of
    tanh(M[l][:, f] theta + bias), with ``theta`` of shape (D, 1) and
    ``bias`` a scalar; each layer is multiplied by its gate (broadcast
    over agents and features) and the layers are summed with the
    trainable mix alpha, of shape (L,). Other shapes raise DimensionError.
    ``tests/test_attention.py::test_ea_output_matches_per_frame_recombination``
    checks it against a frame-by-frame oracle. Returns the (N, T, P, D)
    output plus a trace for reporting.

    The forward repeats the arithmetic of the chain of tape primitives
    this record replaced (matmul, add, tanh, mean, reshape, mul, mul,
    sum), and the backward adds partial gradients in that chain's order.
    Every sum runs over its operands in the same memory order as in that
    chain, since numpy's summation order follows the memory order, so
    output and gradients are bit-identical to the chain's;
    ``tests/oracles.py`` keeps it.
    """
    n_layers = _check_block(block)
    theta, bias, alpha = T.as_tensor(theta), T.as_tensor(bias), T.as_tensor(alpha)
    if alpha.shape != (n_layers,):
        raise DimensionError(f"alpha must be ({n_layers},), got {alpha.shape}")
    if theta.shape != (block.shape[-1], 1) or bias.data.size != 1:
        raise DimensionError(f"need a ({block.shape[-1]}, 1) theta and a scalar bias, "
                             f"got {theta.shape} and {bias.shape}")
    stacked = block.data
    z = np.matmul(stacked, theta.data) + bias.data
    scores = np.tanh(z)
    # np.add.reduce, then a divide by the count, is what the mean and sum
    # methods run, without their Python wrappers.
    gate = np.add.reduce(scores, axis=3, keepdims=True) / scores.shape[3]
    mix = alpha.data.reshape(1, n_layers, 1, 1, 1)
    # The elementwise work runs on (N, L, P, T, D) views, which
    # stack_forward's block stores contiguously.
    rows = stacked.transpose(0, 1, 3, 2, 4)
    gate_rows = gate.transpose(0, 1, 3, 2, 4)
    gated = rows * gate_rows
    out_data = np.add.reduce(gated * mix, axis=1).transpose(0, 2, 1, 3)

    # The backward sums each gradient over the axes its operand was
    # broadcast along, as the chain's unbroadcasting sums did.
    def back(g):
        g_mixed = g.transpose(0, 2, 1, 3)[:, None]
        g_gated = g_mixed * mix
        if alpha.requires_grad:
            T._accumulate(alpha, np.add.reduce(g_mixed * gated, axis=(0, 2, 3, 4)))
        g_gate = np.add.reduce(g_gated * rows, axis=(2, 4), keepdims=True).transpose(0, 1, 3, 2, 4)
        g_z = (g_gate / block.shape[3]) * (1.0 - scores * scores)
        T._accumulate(bias, np.add.reduce(g_z, axis=None))
        if theta.requires_grad:
            g_theta = np.matmul(stacked.swapaxes(-1, -2), g_z)
            T._accumulate(theta, np.add.reduce(g_theta, axis=(0, 1, 2)))
        if block.requires_grad:
            # The matmul of g_z with theta's transpose multiplies single
            # pairs, which an elementwise product repeats exactly.
            g_rows = g_gated * gate_rows + g_z.transpose(0, 1, 3, 2, 4) * theta.data[:, 0]
            T._accumulate(block, g_rows.transpose(0, 1, 3, 2, 4))

    out = T._make(out_data, (block, theta, bias, alpha), back)
    gate_mean = np.add.reduce(gate, axis=(0, 2)).reshape(n_layers) / (gate.shape[0] * gate.shape[2])
    return out, ExpertTrace(gate=gate_mean, alpha=alpha.data.reshape(-1).copy())


def plain_output(block: T.Tensor) -> T.Tensor:
    """The deepest layer, untouched, as one tape record. The output owns a
    copy of it, so a kept prediction does not hold the block's allocation
    (in `temporal.stack_forward` it also holds every layer's input, conv
    output and mask) alive. Its backward hands a `temporal.LayerBlock` the
    deepest layer's gradient alone, and the stack's backward starts from
    it. Any other block gets the gradient scattered into a zero block,
    bit-identical to the ``getitem`` of ``tests/oracles.py``."""
    _check_block(block)

    def back(g):
        if isinstance(block, LayerBlock):
            block.add_deepest_grad(g)
            return
        full = np.zeros_like(block.data)
        full[:, -1] += g
        T._accumulate(block, full)

    return T._make(block.data[:, -1].copy(), (block,), back)


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


def hedge_output(block: T.Tensor, state: HedgeState) -> T.Tensor:
    """Weighted sum over the (N, L, T, P, D) block with the current
    (constant) weights, as one tape record; a weight count other than L
    raises DimensionError."""
    n_layers = _check_block(block)
    if state.w.size != n_layers:
        raise DimensionError(f"hedge has {state.w.size} weights for {n_layers} layers")
    mix = state.w.reshape(1, n_layers, 1, 1, 1)
    out_data = np.add.reduce(block.data * mix, axis=1)

    def back(g):
        T._accumulate(block, g[:, None] * mix)

    return T._make(out_data, (block,), back)


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
