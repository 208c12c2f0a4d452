"""Dense float64 tensors with reverse-mode automatic differentiation.

A small tape: every record that touches a tensor with ``requires_grad``
appends an ``(out, backward_fn)`` pair to the module's tape, a plain
list. ``backward(out, grad)`` seeds ``out``'s gradient with ``grad``
(with one, for a scalar loss and no seed), walks the tape in reverse
creation order, accumulates gradients into ``.grad``, and clears the
tape. Leaf tensors keep their gradients across backward calls, so
offline training runs one seeded backward per group of same-sized
instances. A free tensor's gradient is None until its first write, which
stores ``g + 0.0`` in a new array; a `Parameter`'s gradient is a zeroed
view into its arena's gradient buffer, and ``0.0 + g`` written into it
has the same bits, -0.0 included. Tensors recorded on a tape must not be
mutated in place before backward runs.

A package step puts two records on the tape: the model's forward, a
fixed chain of stages on plain arrays differentiated in one static
reverse pass (`model.TrajectoryModel.forward`), and the NLL. Besides the
tape and its record helpers ``_make`` and ``_accumulate``, the module
holds the row-local ``conv2d`` stage of ``temporal.time_expand``, the
banded-weight helpers it shares with ``temporal``'s fused stack, the
`ParameterArena` of a model's parameters, and the gradient norm of the
update step. ``tests/test_tensor.py`` requires every function here to
have a package caller (for an underscore helper, possibly this module);
ops only tests call live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractError, DimensionError

_tape: list = []  # (out, backward_fn) records in creation order
_grad_enabled = True


def tape() -> list:
    """The process-wide tape. Single threaded by design."""
    return _tape


def backward(out: Tensor, grad=None) -> None:
    """Backpropagate from ``out`` seeded with ``grad``, and clear the tape.

    ``grad`` must have ``out``'s shape; None seeds a 0-d ``out`` with one.
    Anything else raises ContractError. The tape is cleared either way."""
    try:
        if grad is None:
            if out.data.ndim != 0:
                raise ContractError(f"backward needs a seed for an output of shape {out.shape}")
            seed = np.ones(())
        else:
            seed = np.array(grad, dtype=np.float64)
            if seed.shape != out.shape:
                raise ContractError(f"backward seed of shape {seed.shape} for output {out.shape}")
        out.grad = seed
        for rec_out, fn in reversed(_tape):
            if rec_out.grad is not None:
                fn(rec_out.grad)
    finally:
        _tape.clear()


class no_grad:
    """Context manager that evaluates ops without recording them."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None


class Parameter(Tensor):
    """A tensor whose ``data`` and ``grad`` are views into the buffers of a
    `ParameterArena`. Its gradient is never None: it starts at zero and
    `zero_grad` zeroes it in place. Write into both views; rebinding
    either would detach the parameter from its arena."""

    __slots__ = ()

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class ParameterArena:
    """Named parameters laid end to end, in registry order, in one flat
    float64 buffer of values, ``data``, and one of gradients, ``grad``.

    ``params`` maps each name to a `Parameter` viewing its span of both
    buffers, so an SGD step, a clip or zeroing every gradient is one array
    op on a buffer. Copies (``copy.deepcopy``, pickle) copy the two buffers
    and bind fresh views to the copies.
    """

    def __init__(self, values: dict[str, np.ndarray]):
        self.shapes = {name: np.shape(value) for name, value in values.items()}
        self.data = np.concatenate([np.ravel(v) for v in values.values()] + [np.zeros(0)])
        self.grad = np.zeros_like(self.data)
        self._bind()

    def _bind(self) -> None:
        self.params: dict[str, Parameter] = {}
        by_size: dict[int, list[tuple[int, int]]] = {}
        offset = 0
        for pos, (name, shape) in enumerate(self.shapes.items()):
            size = math.prod(shape)
            end = offset + size
            param = Parameter(self.data[offset:end].reshape(shape), requires_grad=True)
            param.grad = self.grad[offset:end].reshape(shape)
            self.params[name] = param
            by_size.setdefault(size, []).append((pos, offset))
            offset = end
        # global_grad_norm's plan: per size, the registry positions of the
        # parameters of that size and the (count, size) index of their spans.
        self.norm_rows = [([pos for pos, _ in spans],
                           np.array([start for _, start in spans])[:, None] + np.arange(size))
                          for size, spans in by_size.items()]

    def __getstate__(self) -> dict:
        return {"shapes": self.shapes, "data": self.data, "grad": self.grad}

    def __setstate__(self, state: dict) -> None:
        self.shapes, self.data, self.grad = state["shapes"], state["data"], state["grad"]
        self._bind()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # g + 0 is 0 + g, in one pass and in the layout of t.data.
        out = np.empty(t.data.shape) if t.data.flags.c_contiguous else np.empty_like(t.data)
        t.grad = np.add(g, 0.0, out=out)
    else:
        t.grad += g


def _make(out_data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                _tape.append((out, backward_fn))
                break
    return out


# ---------------------------------------------------------------------------
# the row-local time convolution


@functools.lru_cache(maxsize=16)
def _band(c_out: int, c_in: int, w: int, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of ``count`` (c_out, c_in, 1, 3) kernels on rows of
    width ``w``, where input column v feeds output column u through tap
    v - u + 1:

    * ``gather``, (count, c_in·w, c_out·w): for each banded-weight entry,
      its tap's position in the kernels' taps laid end to end, or the
      position just past them (a zero) off the band;
    * ``entries``, (nnz·c_in·c_out,): the on-band entries of one flat
      weight in (band entry, c_in, c_out) order;
    * ``taps``, (3, nnz): which tap each band entry is.

    Cached and shared between calls, so read-only."""
    tap, v, u = np.nonzero(np.stack([np.eye(w, k=1 - j, dtype=bool) for j in range(3)]))
    size = c_out * c_in * 3
    gather = np.full((count, c_in, w, c_out, w), count * size)
    taps = np.arange(count * size).reshape(count, c_out, c_in, 3)[..., tap]
    gather[:, :, v, :, u] = taps.transpose(3, 0, 2, 1)
    entries = np.arange(c_in * w * c_out * w).reshape(c_in, w, c_out, w)[:, v, :, u]
    index = (gather.reshape(count, c_in * w, c_out * w), entries.reshape(-1), np.eye(3)[tap].T)
    for a in index:
        a.flags.writeable = False
    return index


def banded_weights(kernels: list[np.ndarray], w: int) -> np.ndarray:
    """The (L, C_in·W, C_out·W) banded weights of L (C_out, C_in, 1, 3)
    kernels on rows of width ``w``: entry (c·W + v, o·W + u) of weight l
    holds tap v - u + 1 of kernel l's (o, c) and every entry off the band
    is zero."""
    c_out, c_in = kernels[0].shape[:2]
    taps = np.concatenate([k.reshape(-1) for k in kernels] + [np.zeros(1)])
    return taps[_band(c_out, c_in, w, len(kernels))[0]]


# Output columns per block of the kernel-gradient product; see
# banded_kernel_grads.
_GRAD_COLUMNS = 20


def banded_kernel_grads(rows: np.ndarray, g_rows: np.ndarray, c_out: int, w: int) -> np.ndarray:
    """The (L, C_out, C_in, 1, 3) kernel gradients of L banded matmuls, from
    their (L, ..., C_in·W) input rows and the (L, ..., C_out·W) gradients of
    their output rows.

    Each layer's weight gradient is a ``rows.T @ g_rows`` product, and its
    band entries are summed per tap by one matmul with the 0/1 tap matrix:
    the same operand shapes and layouts, layer by layer, as a single
    layer's, so a layer's gradient does not depend on the others.

    The weight-gradient product is taken as fixed blocks of
    ``_GRAD_COLUMNS`` output columns written into one array (three for the
    package's 60-wide C_out·W), because the blocks' bits do not depend on
    the BLAS thread count. Checked with scipy-openblas 0.3.31, a build
    that targets Haswell, running its SkylakeX kernels (the core it picks
    on an AVX-512 CPU) on a 2-core host: the full 60-column product at
    inner sizes N·H of 384, 768 and 1536 gives other bits at 2-4 threads
    than at 1; the blocks give the same bits at 1, 2, 3 and 4 threads and
    the default, for inner sizes from 6 to 128·12, on 5 layers of 60-wide
    rows and on 1 layer of 40- or 60-wide rows. ``tests/test_golden.py``
    holds trained, replayed and evaluated bytes to that at 1, 2 and 4
    threads and the default. The blocks need not give the full product's
    bits (at an inner size of 768 they do not). The rule is the kernels':
    with the Haswell kernels forced (``OPENBLAS_CORETYPE=Haswell``), 1
    thread still gives other trained and replayed bits than 2 and 4.
    """
    count, k_in = rows.shape[0], rows.shape[-1]
    c_in, k_out = k_in // w, c_out * w
    _, entries, taps = _band(c_out, c_in, w, 1)
    rows_t = rows.reshape(count, -1, k_in).swapaxes(1, 2)
    g_rows = g_rows.reshape(count, -1, k_out)
    g_weight = np.empty((count, k_in, k_out))
    for lo in range(0, k_out, _GRAD_COLUMNS):
        cols = slice(lo, lo + _GRAD_COLUMNS)
        np.matmul(rows_t, g_rows[..., cols], out=g_weight[..., cols])
    per_entry = g_weight.reshape(count, -1).take(entries, axis=1).reshape(count, taps.shape[1], -1)
    g_taps = np.matmul(taps, per_entry)  # summed per tap
    return g_taps.reshape(count, 3, c_in, c_out).transpose(0, 3, 2, 1)[:, :, :, None, :]


def check_conv(x_shape: tuple[int, ...], kernel_shape: tuple[int, ...], opname: str) -> None:
    """The shape rules of a row-local 1x3 convolution: x and kernel of rank
    4, a 1x3 window, and as many kernel input channels as x has channels."""
    if len(x_shape) != 4 or len(kernel_shape) != 4:
        raise DimensionError(f"{opname}: need x and kernel of rank 4, got {x_shape} and {kernel_shape}")
    if kernel_shape[-2:] != (1, 3):
        raise DimensionError(f"{opname}: kernel window must be 1x3, got {kernel_shape}")
    if kernel_shape[1] != x_shape[1]:
        raise DimensionError(
            f"{opname}: input channels differ, x {x_shape} vs kernel {kernel_shape}"
        )


def conv2d(x: np.ndarray, kernel: np.ndarray):
    """Row-local time convolution: the 2-D cross-correlation with a 1x3
    window and zero padding of one along the width.

    ``x`` has shape (N, C_in, H, W) and ``kernel`` (C_out, C_in, 1, 3);
    the output is (N, C_out, H, W). In this package the channel axis
    carries time and (H, W) is the (agent, feature) plane, so output row
    h is the three-tap correlation of input row h alone along the
    feature axis, summed over input channels.

    As a linear map, each row's (C_in·W) values go to (C_out·W) through
    one banded weight built from the kernel, and every row of the batch
    runs its own, identical matmul: permuting the rows or the batch
    permutes the output bit for bit.

    Returns the output and ``back``, which maps the output's gradient to
    ``(grad x, grad kernel)``.
    """
    check_conv(x.shape, kernel.shape, "conv2d")
    n, c_in, h, w = x.shape
    c_out = kernel.shape[0]
    k_in, k_out = c_in * w, c_out * w
    weight = banded_weights([kernel], w)[0]
    rows = x.transpose(0, 2, 1, 3).reshape(n, h, 1, k_in)
    out = np.matmul(rows, weight).reshape(n, h, c_out, w).transpose(0, 2, 1, 3)

    def back(g):
        g_rows = g.transpose(0, 2, 1, 3).reshape(n, h, 1, k_out)
        g_kernel = banded_kernel_grads(rows[None], g_rows[None], c_out, w)[0]
        gx_rows = np.matmul(g_rows, weight.T)
        return gx_rows.reshape(n, h, c_in, w).transpose(0, 2, 1, 3), g_kernel

    return out, back


def global_grad_norm(arena: ParameterArena) -> float:
    """Euclidean norm of the arena's gradient buffer.

    Each parameter's squares are summed on their own, by the pairwise
    reduce ``np.sum`` reaches through its wrapper, and the sums are added
    up as Python floats in registry order: the result is bit for bit
    ``sqrt`` of the in-order sum of ``float(np.sum(g * g))`` over the
    parameters' gradients. Same-sized parameters are reduced together,
    one row each of a 2-D reduce, which sums every row as the 1-D reduce
    of that row alone would.
    """
    squares = np.multiply(arena.grad, arena.grad)
    sums = [0.0] * len(arena.shapes)
    for positions, rows in arena.norm_rows:
        for pos, square_sum in zip(positions, np.add.reduce(squares[rows], axis=1).tolist()):
            sums[pos] = square_sum
    total = 0.0
    for value in sums:
        total += value
    return math.sqrt(total)
