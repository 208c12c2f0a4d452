"""Output strategies over the stacked intermediate outputs.

Three ways to turn the L per-layer tensors into one prediction:

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


@dataclass
class ExpertTrace:
    """Per-instance snapshot of the gate (mean over frames per layer) and
    the current layer-mix vector."""

    gate: np.ndarray
    alpha: np.ndarray


def _stack_layers(m_list) -> T.Tensor:
    if not m_list:
        raise ContractError("need at least one intermediate output")
    shape = m_list[0].shape
    for m in m_list[1:]:
        if m.shape != shape:
            raise DimensionError(f"intermediate outputs disagree: {shape} vs {m.shape}")
    return T.stack(m_list, axis=1)


def ea_output(m_list: list[T.Tensor], theta: T.Tensor, bias: T.Tensor,
              alpha: T.Tensor) -> tuple[T.Tensor, ExpertTrace]:
    """Gated, alpha-weighted sum of the intermediate outputs.

    For each frame f, the gate of layer l is the mean over agents of
    tanh(M[l][:, f] theta + bias), with ``theta`` of shape (D, 1); each
    layer is multiplied by its gate (broadcast over agents and features)
    and the layers are summed with the trainable mix alpha. Computed on
    the whole (N, L, T, P, D) block at once;
    ``tests/test_attention.py::test_ea_output_matches_per_frame_recombination``
    checks it against a frame-by-frame oracle. Returns the (N, T, P, D)
    output plus a trace for reporting.
    """
    stacked = _stack_layers(m_list)
    n_layers = stacked.shape[1]
    alpha = T.as_tensor(alpha)
    if alpha.data.size != n_layers:
        raise DimensionError(f"alpha must have {n_layers} entries, got {alpha.shape}")
    scores = T.tanh(T.add(T.matmul(stacked, theta), bias))
    gate = T.tensor_mean(scores, axis=3, keepdims=True)
    mix = T.reshape(alpha, (1, n_layers, 1, 1, 1))
    out = T.tensor_sum(T.mul(T.mul(stacked, gate), mix), axis=1)
    gate_mean = gate.data.mean(axis=(0, 2)).reshape(n_layers)
    trace = ExpertTrace(gate=gate_mean.copy(), alpha=alpha.data.reshape(-1).copy())
    return out, trace


def plain_output(m_list: list[T.Tensor]) -> T.Tensor:
    """The deepest layer, untouched."""
    if not m_list:
        raise ContractError("need at least one intermediate output")
    return m_list[-1]


@dataclass
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
    beta: float = 0.99
    smoothing: float = 0.2

    @classmethod
    def uniform(cls, n_layers: int, beta: float = 0.99, smoothing: float = 0.2) -> "HedgeState":
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
        if self.w.ndim != 1 or np.any(self.w < 0) or abs(self.w.sum() - 1.0) > 1e-9:
            raise ConfigError("hedge weights must be a probability vector")


def hedge_output(m_list: list[T.Tensor], state: HedgeState) -> T.Tensor:
    """Weighted sum of the layers with the current (constant) weights."""
    stacked = _stack_layers(m_list)
    n_layers = stacked.shape[1]
    if state.w.size != n_layers:
        raise DimensionError(f"hedge has {state.w.size} weights for {n_layers} layers")
    mix = T.Tensor(state.w.reshape(1, n_layers, 1, 1, 1))
    return T.tensor_sum(T.mul(stacked, mix), axis=1)


def hedge_update(state: HedgeState, losses) -> HedgeState:
    """Discount weights by beta raised to the min-max-normalised losses.

    After the multiplicative step every weight is floored at s/L and the
    vector is renormalised. The floored vector sums to at most 1 + s, so
    no weight ends below s/(L(1+s)); renormalising can take a weight
    below s/L itself. Non-finite losses leave the weights untouched
    (the caller records the health event).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != state.w.shape:
        raise DimensionError(f"got {losses.shape} losses for {state.w.shape} weights")
    if not np.all(np.isfinite(losses)):
        return HedgeState(w=state.w.copy(), beta=state.beta, smoothing=state.smoothing)
    spread = losses.max() - losses.min()
    if spread > 0:
        normalised = (losses - losses.min()) / spread
    else:
        normalised = np.zeros_like(losses)
    w = state.w * np.power(state.beta, normalised)
    w = np.maximum(w, state.smoothing / w.size)
    w = w / w.sum()
    return HedgeState(w=w, beta=state.beta, smoothing=state.smoothing)
