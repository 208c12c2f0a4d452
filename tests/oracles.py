"""The backbone and heads as chains of tape primitives, kept as oracles.

`temporal.stack_forward`, `attention.ea_output` and
`attention.hedge_output` are single tape records with hand-written
backward passes. The functions here are the per-layer chains those
records replaced, op for op, so tests can require the fused records to
give the same outputs and gradients under ``np.array_equal``.
"""

import numpy as np

from eanet import tensor as T
from eanet.attention import ExpertTrace


def stack_forward(x0, kernels, slopes):
    """The L layer outputs as separate tensors: M[0] = prelu(conv(x0)) and
    M[l] = prelu(conv(M[l-1])) + M[l-1]."""
    outputs = []
    current = T.as_tensor(x0)
    for idx, (kernel, slope) in enumerate(zip(kernels, slopes)):
        convolved = T.prelu(T.conv2d(current, kernel), slope)
        current = convolved if idx == 0 else T.add(convolved, current)
        outputs.append(current)
    return outputs


def ea_output(m_list, theta, bias, alpha):
    """The gated, alpha-weighted layer sum over ``T.stack(m_list, axis=1)``;
    returns the output and the trace."""
    stacked = T.stack(m_list, axis=1)
    n_layers = stacked.shape[1]
    scores = T.tanh(T.add(T.matmul(stacked, theta), bias))
    gate = T.tensor_mean(scores, axis=3, keepdims=True)
    mix = T.reshape(T.as_tensor(alpha), (1, n_layers, 1, 1, 1))
    out = T.tensor_sum(T.mul(T.mul(stacked, gate), mix), axis=1)
    gate_mean = gate.data.mean(axis=(0, 2)).reshape(n_layers)
    return out, ExpertTrace(gate=gate_mean, alpha=alpha.data.reshape(-1).copy())


def hedge_output(m_list, w):
    """The layer sum weighted by the constant probability vector ``w``."""
    stacked = T.stack(m_list, axis=1)
    mix = T.Tensor(np.asarray(w).reshape(1, stacked.shape[1], 1, 1, 1))
    return T.tensor_sum(T.mul(stacked, mix), axis=1)
