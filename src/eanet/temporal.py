"""Trajectory representation: time expansion plus a stack of convolutions.

The time axis plays the role of the channel axis, so a convolution with a
(T_pred, T_obs, 1, 3) kernel mixes the feature columns of each agent's
row on the (agent, feature) plane and remaps T_obs observed frames onto
T_pred predicted frames. Agent rows never mix here: cross-agent coupling
belongs to the graph convolution, and keeping the rows independent means
a prediction cannot depend on the arbitrary order agents are stored in.
Every row goes through the same arithmetic wherever it is stored, so
permuting the agents permutes the outputs of ``time_expand`` and
``stack_forward`` bit for bit. The full model is equivariant only to
within rounding, because the graph convolution sums over neighbours in
storage order.

The stacked layers that follow keep the frame count fixed, and
``stack_forward`` returns all of their outputs as one (N, L, T, P, D)
block, because the attention head consumes every intermediate output,
not just the deepest one. Both are stages of the model's static chain,
functions on arrays that return their output and a ``back`` closure;
the stack's takes the deepest layer's gradient alone from a plain head,
which then never builds a block-sized gradient of zeros.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError


def time_expand(features: np.ndarray, kernel: np.ndarray):
    """Map (N, T_obs, P, D) features to (N, T_pred, P, D) with a
    (T_pred, T_obs, 1, 3) kernel; shape mismatches raise DimensionError.
    Returns the output and ``back``, as ``tensor.conv2d`` does.

    Bit-exactly equivariant under a permutation of the agent axis P.
    """
    return T.conv2d(features, kernel)


# Parameters never change shape, so a stack sees a handful of signatures
# (one per batch and agent count); each is validated once. A signature
# that fails raises every time, since lru_cache keeps no exceptions.
@functools.lru_cache(maxsize=128)
def _check_stack(x_shape: tuple[int, ...], kernel_shapes: tuple[tuple[int, ...], ...],
                 slope_shapes: tuple[tuple[int, ...], ...]) -> None:
    if not kernel_shapes or len(kernel_shapes) != len(slope_shapes):
        raise ConfigError(f"need one kernel and one slope per layer, got {len(kernel_shapes)} "
                          f"and {len(slope_shapes)}")
    for idx, shape in enumerate(kernel_shapes):
        T.check_conv(x_shape, shape, f"stack layer {idx}")
        if shape[0] != shape[1]:
            raise DimensionError(f"stack layer {idx}: the residual needs a square kernel, got {shape}")
    for idx, shape in enumerate(slope_shapes):
        if math.prod(shape) != 1:
            raise DimensionError(f"stack layer {idx}: slope must be a scalar, got {shape}")


class StackStore:
    """A float64 buffer that `stack_forward` lays its arrays in, for a
    caller that keeps nothing of one forward once the next starts, as
    offline training does. It grows when a forward needs more and never
    shrinks.
    """

    def __init__(self):
        self._buf = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        """The first ``size`` entries, growing the buffer if it is shorter."""
        if self._buf.size < size:
            self._buf = np.empty(size)
        return self._buf[:size]


def stack_forward(x0: np.ndarray, kernels: list[np.ndarray], slopes: list[np.ndarray],
                  store: StackStore | None = None):
    """Run the stacked layers; return the (N, L, C, H, W) block of every
    layer's output and its ``back``.

    M[0] = prelu(conv(x0)); deeper layers are residual:
    M[l] = prelu(conv(M[l-1])) + M[l-1]. The activation sits before the
    add. Every kernel is (C, C, 1, 3) for x0 of shape (N, C, H, W), and
    every slope a scalar array; the checks ``tensor.conv2d`` makes raise
    DimensionError, and a kernel/slope count mismatch ConfigError.
    Permuting x0's agent axis permutes the block bit for bit. ``back``
    takes the whole block's gradient, or the deepest layer's alone as
    (N, 1, C, H, W), and returns ``(grad x0, grad kernels, grad slopes)``:
    (N, C, H, W) and (L, C, C, 1, 3) arrays and a list of L scalars.

    Between layers the activations stay in conv2d's (N, H, 1, C·W) row
    layout, and each layer runs conv2d's banded matmul with its operand
    shapes and layouts. The backward adds partial gradients in the order
    of the per-layer conv2d/prelu/add chain this stage replaced:
    ``grad M[l-1] = (head piece + grad M[l]) + conv grad``, or, from the
    deepest layer's gradient alone, ``grad M[l] + conv grad``, which
    differs from adding zero pieces in the sign of a zero at most. The
    slope gradient is summed over the rows in (N, H, C, W) order, the
    memory order of that chain's arrays. Outputs and gradients are
    therefore bit-identical to the chain's. The block is laid out in
    memory as (N, L, H, C, W), as ``np.stack`` laid out that chain's
    layers.

    The block and the arrays ``back`` reads share one allocation, a
    fresh one unless ``store`` lends its buffer; then the next forward
    from that store overwrites this one's block and arrays. ``back``
    works in the conv outputs' memory, so it runs once per forward.
    """
    _check_stack(x0.shape, tuple([kernel.shape for kernel in kernels]),
                 tuple([slope.shape for slope in slopes]))
    n, c, h, w = x0.shape
    k = c * w
    n_layers = len(kernels)
    weights = T.banded_weights(kernels, w)
    # ins[l] holds layer l's input rows and convs[l] its conv output, each
    # one contiguous (N, H, 1, C·W) array, as conv2d's were. One allocation
    # holds them, the block and the conv > 0 masks: the allocator then
    # reuses it from call to call, where separate large arrays were handed
    # back to the system and their pages faulted in again on every
    # training batch.
    size = n_layers * n * h * k
    total = 3 * size + -(-size // 8)
    mem = np.empty(total) if store is None else store.take(total)
    ins, convs = mem[:2 * size].reshape(2, n_layers, n, h, 1, k)
    buf = mem[2 * size:3 * size].reshape(n, n_layers, h, 1, k)
    masks = mem[3 * size:].view(bool)[:size].reshape(n_layers, n, h, 1, k)
    # The prelu's factor per entry is 1 where conv is positive, else the
    # slope: np.where(conv > 0, 1.0, slope), picked from a two-entry table
    # by the mask, because np.where is several times slower. The factors
    # are picked straight into the array that then takes the product
    # (mode="clip" lets take write into a contiguous out without a buffer),
    # and the backward picks them again from the masks kept here.
    tables = [np.array([slope.item(), 1.0]) for slope in slopes]
    ins[0] = x0.transpose(0, 2, 1, 3).reshape(n, h, 1, k)
    for idx in range(n_layers):
        conv = np.matmul(ins[idx], weights[idx], out=convs[idx])
        positive = np.greater(conv, 0.0, out=masks[idx]).view(np.uint8)
        out = ins[idx + 1] if idx + 1 < n_layers else buf[:, -1]
        np.multiply(tables[idx].take(positive, mode="clip", out=out), conv, out=out)
        if idx:
            out += ins[idx]
    buf[:, :-1] = ins[1:].swapaxes(0, 1)

    def back(g):
        full = g.shape[1] > 1
        pieces = g.transpose(0, 1, 3, 2, 4).reshape(n, g.shape[1], h, 1, k)
        g_m = pieces[:, -1]
        g_slopes = [None] * n_layers
        for idx in reversed(range(n_layers)):
            conv = convs[idx]
            # min(conv, 0) is np.where(conv > 0, 0, conv) up to the sign of
            # a zero term, which no sum of these terms can show. The slope's
            # terms, then the factors and the conv gradient, take the place
            # of conv.
            g_slope = np.multiply(g_m, np.minimum(conv, 0.0, out=conv), out=conv)
            g_slopes[idx] = np.add.reduce(g_slope, axis=None)
            factor = tables[idx].take(masks[idx].view(np.uint8), mode="clip", out=conv)
            g_conv = np.multiply(g_m, factor, out=conv)
            if idx:
                g_in = np.matmul(g_conv, weights[idx].T)
                g_m = np.add(pieces[:, idx - 1] + g_m if full else g_m, g_in, out=g_in)
        g_kernels = T.banded_kernel_grads(ins, convs, c, w)
        gx_rows = np.matmul(convs[0], weights[0].T)
        return gx_rows.reshape(n, h, c, w).transpose(0, 2, 1, 3), g_kernels, g_slopes

    return buf.reshape(n, n_layers, h, c, w).transpose(0, 1, 3, 2, 4), back
