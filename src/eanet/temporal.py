"""Trajectory representation: time expansion plus a stack of convolutions.

The time axis plays the role of the channel axis, so a convolution with a
(T_pred, T_obs, 1, 3) kernel mixes the feature columns of each agent's
row on the (agent, feature) plane and remaps T_obs observed frames onto
T_pred predicted frames. Agent rows never mix here: cross-agent coupling
belongs to the graph convolution, and keeping the rows independent means
a prediction cannot depend on the arbitrary order agents are stored in.
``tensor.conv2d`` runs every row through the same arithmetic wherever it
is stored, so permuting the agents permutes the outputs of
``time_expand`` and ``stack_forward`` bit for bit. The full model is
equivariant only to within rounding, because the graph convolution sums
over neighbours in storage order.
The stacked layers that follow keep the frame count fixed and each
returns its activation, because the attention head consumes every
intermediate output, not just the deepest one.
"""

from __future__ import annotations

from . import tensor as T
from .errors import ConfigError


def time_expand(features: T.Tensor, kernel: T.Tensor) -> T.Tensor:
    """Map (N, T_obs, P, D) features to (N, T_pred, P, D) with a
    (T_pred, T_obs, 1, 3) kernel; shape mismatches raise DimensionError.

    Bit-exactly equivariant under a permutation of the agent axis P.
    """
    return T.conv2d(features, kernel)


def stack_forward(x0: T.Tensor, kernels: list[T.Tensor], slopes: list[T.Tensor]) -> list[T.Tensor]:
    """Run the stacked layers and return every intermediate output.

    M[0] = prelu(conv(x0)); deeper layers are residual:
    M[l] = prelu(conv(M[l-1])) + M[l-1]. The activation sits before the
    add. All outputs share x0's shape. Permuting x0's agent axis permutes
    every output bit for bit.
    """
    if not kernels or len(kernels) != len(slopes):
        raise ConfigError(f"need one kernel and one slope per layer, got {len(kernels)} and {len(slopes)}")
    outputs: list[T.Tensor] = []
    current = T.as_tensor(x0)
    for idx, (kernel, slope) in enumerate(zip(kernels, slopes)):
        convolved = T.prelu(T.conv2d(current, kernel), slope)
        current = convolved if idx == 0 else T.add(convolved, current)
        outputs.append(current)
    return outputs
