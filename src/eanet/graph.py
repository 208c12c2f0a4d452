"""Frame-level interaction graphs and the graph convolution.

Each observed frame becomes a weighted P x P adjacency over the agents
present. The default kernel weighs a pair by the inverse of the sum of
their motion difference and position difference, so agents that are close
AND moving alike couple strongly; three ablation kernels (plain inverse
distance, raw L2 distance, exponential radial basis) share the same
coincident-position guard. The adjacency is symmetrically normalised with
self-loops before the convolution, `gcn_forward`, the first stage of the
model's static chain: a function on arrays that returns its output and a
``back`` closure giving the weight's gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError

KERNEL_KINDS = ("motion_trend", "inv_dist", "l2", "rbf")


def _pair_distances(points: np.ndarray) -> np.ndarray:
    """|p_i - p_j| as (..., P, P) for (..., P, 2) points."""
    x, y = points[..., 0], points[..., 1]
    dx = x[..., :, None] - x[..., None, :]
    dy = y[..., :, None] - y[..., None, :]
    return np.sqrt(dx * dx + dy * dy)


def build_adjacency(kind: str, positions: np.ndarray, motions: np.ndarray,
                    rbf_sigma: float = 1.0) -> np.ndarray:
    """Dense symmetric adjacencies (..., P, P) of frames given as
    (..., P, 2) positions and motions. The diagonal is zero, and so is
    the weight of a pair at coincident positions, which keeps every
    kernel finite.

    Leading axes are any stack of frames. A frame's graph is bit-identical
    whether it is built alone or in a batch: each weight is computed
    elementwise from its own pair. Pair distances are
    ``sqrt(dx*dx + dy*dy)`` on the two coordinate planes, the operations
    ``np.linalg.norm(..., axis=-1)`` runs on a length-2 axis, so they
    have its bits (``tests/oracles.py`` keeps that form) without its
    per-call overhead.
    """
    positions = np.asarray(positions, dtype=np.float64)
    motions = np.asarray(motions, dtype=np.float64)
    if positions.shape != motions.shape or positions.ndim < 2 or positions.shape[-1] != 2:
        raise DimensionError(
            f"positions {positions.shape} and motions {motions.shape} must both be (..., P, 2)"
        )
    if kind not in KERNEL_KINDS:
        raise ConfigError(f"unknown kernel kind {kind!r}")
    if kind == "rbf" and rbf_sigma <= 0:
        raise ConfigError("rbf kernel needs sigma > 0")
    dv = _pair_distances(positions)
    # x - x is exactly 0 (or NaN), so `apart` is false on the diagonal.
    apart = dv > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "motion_trend":
            dr = _pair_distances(motions)
            weights = 1.0 / (dr + dv)
        elif kind == "inv_dist":
            weights = 1.0 / dv
        elif kind == "l2":
            weights = dv
        else:
            weights = np.exp(-dv) / rbf_sigma
    return np.where(apart, weights, 0.0)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric normalisation with self-loops, per (P, P) frame of a
    (..., P, P) stack.

    With A' = A + I and D the diagonal of A' row sums, returns
    D^(-1/2) A' D^(-1/2). Row sums of A' are strictly positive because of
    the self-loops, so the inverse square root always exists. A frame's
    result is bit-identical whether it is normalised alone or in a batch.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim < 2 or adjacency.shape[-1] != adjacency.shape[-2]:
        raise DimensionError(f"adjacency must be (..., P, P), got {adjacency.shape}")
    # In C order every row sums as one contiguous run, as a lone frame's
    # does; a strided batch would sum in another order and, for P >= 8,
    # round differently.
    with_loops = np.ascontiguousarray(adjacency) + np.eye(adjacency.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(with_loops.sum(axis=-1))
    return inv_sqrt[..., :, None] * with_loops * inv_sqrt[..., None, :]


def instance_graphs(positions: np.ndarray, motions: np.ndarray, kind: str = "motion_trend",
                    rbf_sigma: float = 1.0) -> np.ndarray:
    """Normalised adjacencies (..., T_obs, P, P) of the observed frames of
    one or more instances, given as (..., T_obs, P, 2) absolute positions
    and relative motions, built in one call over all frames; each frame is
    bit-identical to its graph built alone.

    The motion at the first observed frame is zero by the relative-array
    convention, so the default kernel degrades to inverse distance there.
    """
    return normalize_adjacency(build_adjacency(kind, positions, motions, rbf_sigma))


def gcn_forward(ahat_seq: np.ndarray, features: np.ndarray, weight: np.ndarray):
    """Per-frame graph convolution sigmoid(A_hat X W); returns the output
    and ``back``, which maps the output's gradient to ``(grad weight,)``.

    ``ahat_seq`` is (T, P, P), or (N, T, P, P) for a batch of instances;
    ``features`` matches it as (..., T, P, D_in); ``weight`` is
    (D_in, D_out). Returns a (..., T, P, D_out) output. Permuting the
    agents permutes the output to within rounding, not bit for bit: each
    row sums over its neighbours in storage order. Graphs and features are
    inputs of the network, so neither gets a gradient.

    The forward and backward repeat the numpy expressions of the
    matmul, matmul, sigmoid chain this stage replaced, operand for
    operand, so output and gradient are bit-identical to the chain's;
    ``tests/oracles.py`` keeps it. The weight gradient of every frame is
    summed over the leading (N, T) axes.
    """
    if ahat_seq.ndim not in (3, 4) or ahat_seq.shape[-1] != ahat_seq.shape[-2]:
        raise DimensionError(f"ahat_seq must be (..., T, P, P), got {ahat_seq.shape}")
    if features.ndim != ahat_seq.ndim or features.shape[:-1] != ahat_seq.shape[:-1]:
        raise DimensionError(
            f"features {features.shape} inconsistent with graphs {ahat_seq.shape}"
        )
    if weight.ndim != 2 or weight.shape[0] != features.shape[-1]:
        raise DimensionError(f"weight {weight.shape} does not map features {features.shape}")
    mixed = np.matmul(ahat_seq, features)
    out = 1.0 / (1.0 + np.exp(-np.matmul(mixed, weight)))

    def back(g):
        g_pre = g * out * (1.0 - out)
        g_weight = np.matmul(mixed.swapaxes(-1, -2), g_pre)
        return (np.add.reduce(g_weight, axis=tuple(range(g_weight.ndim - 2))),)

    return out, back
