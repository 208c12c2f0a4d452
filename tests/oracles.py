"""Earlier, plainer forms of fused or vectorised code, kept as oracles.

`graph.gcn_forward`, `tensor.conv2d`, `temporal.stack_forward` and the
heads of `attention` are stages of the model's static chain: plain
functions on arrays that return their output and a ``back`` closure.
The first functions here are the chains of taped ops those stages
replaced, op for op, so tests can require the stages to give the same
outputs and gradients under ``np.array_equal``.

Two kinds of adapter join the two forms. ``taped_*`` runs a package
stage as one tape record whose backward adds ``back``'s gradients into
the input tensors, so a test can compare it with a chain on the tape or
check it with `gradcheck.check_gradients`. ``staged_*`` runs an oracle
chain in the stage form, for a test that puts the chains in the model's
place: the chain records on a tape of its own, and ``back`` walks that
tape, so no nested `tensor.backward` runs inside the model's record.

The taped ops those chains and the tests' other oracles call, which no
package path runs, live here too, in the forms they are called with.
Each is written on ``T._make``/``T._accumulate`` and this module's
`_unbroadcast`, with the numpy expressions of the package op it was, so
every oracle's arithmetic is the same as before the ops left the
package. `_unbroadcast`, the generic sum of a gradient down to an
operand's shape, lives here because every package stage names the axes
each of its gradients sums over.

`build_adjacency` is the graph kernel with its pair distances from
``np.linalg.norm``, which `graph.build_adjacency` must match bit for bit.
`generate_synthetic` and `window_instances` are the per-agent, per-frame
loops that `eanet.data` replaced with whole-array numpy work, over plain
``(frame, agent, x, y)`` observation tuples; tests require the data
module's `Scene` and instances to give the same values bit for bit.
`instance_arrays` prepares one window's network inputs and target from
its own views, one graph call over its own frames, which every
preparation of `eanet.model` must match bit for bit.
`next_u64` and `uniform` are the scalar xorshift64* stream, one word or
uniform per call, that defines `Xorshift64Star.uniforms` and its words.
`normal_pair` is the scalar Box-Muller draw that
`Xorshift64Star.normal_pairs` and `gaussian.sample_trajectories` are
checked against, and `shuffle` the one-draw-per-swap loop that
`Xorshift64Star.shuffle` must match in order and final state.

`math_map` is the map of a `math` function over an array that
`rng.logs` and `rng.unit_vectors` replaced with numpy loops calling the
same C library, and `assert_equals_math_map` is the one parity check
that holds them to it bit for bit.
"""

import math

import numpy as np

from eanet import attention, graph, temporal
from eanet import tensor as T
from eanet.attention import ExpertTrace
from eanet.data import TrajectoryInstance
from eanet.errors import ConfigError, DimensionError
from eanet.rng import _INV_2_53, _MASK64, _MULTIPLIER, Xorshift64Star, _xorshift


def gcn_forward(ahat_seq, features, weight):
    """sigmoid((A_hat X) W) as two matmuls and a sigmoid, the constant
    graphs wrapped in a tensor of their own."""
    mixed = matmul(T.Tensor(ahat_seq), as_tensor(features))
    return sigmoid(matmul(mixed, weight))


def stack_forward(x0, kernels, slopes, store=None):
    """The L layer outputs as separate tensors: M[0] = prelu(conv(x0)) and
    M[l] = prelu(conv(M[l-1])) + M[l-1]. ``store`` is taken and unused:
    each op allocates its own output."""
    outputs = []
    current = as_tensor(x0)
    for idx, (kernel, slope) in enumerate(zip(kernels, slopes)):
        convolved = prelu(taped_conv2d(current, kernel), slope)
        current = convolved if idx == 0 else add(convolved, current)
        outputs.append(current)
    return outputs


def build_adjacency(kind, positions, motions, rbf_sigma=1.0):
    """`graph.build_adjacency` with its pair distances from
    ``np.linalg.norm`` over the coordinate axis."""
    positions = np.asarray(positions, dtype=np.float64)
    motions = np.asarray(motions, dtype=np.float64)
    dv = np.linalg.norm(positions[..., :, None, :] - positions[..., None, :, :], axis=-1)
    apart = dv > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "motion_trend":
            dr = np.linalg.norm(motions[..., :, None, :] - motions[..., None, :, :], axis=-1)
            weights = 1.0 / (dr + dv)
        elif kind == "inv_dist":
            weights = 1.0 / dv
        elif kind == "l2":
            weights = dv
        else:
            weights = np.exp(-dv) / rbf_sigma
    return np.where(apart, weights, 0.0)


def ea_output(stacked, theta, bias, alpha):
    """The gated, alpha-weighted layer sum over the (N, L, T, P, D)
    ``stacked`` tensor of layers; returns the output and the trace."""
    n_layers = stacked.shape[1]
    scores = tanh(add(matmul(stacked, theta), bias))
    gate = mean(scores, axis=3)
    mix = reshape(as_tensor(alpha), (1, n_layers, 1, 1, 1))
    out = sum_axis(mul(mul(stacked, gate), mix), axis=1)
    gate_mean = gate.data.mean(axis=(0, 2)).reshape(n_layers)
    return out, ExpertTrace(gate=gate_mean, alpha=alpha.data.reshape(-1).copy())


def hedge_output(stacked, w):
    """The layer sum weighted by the constant probability vector ``w``."""
    mix = T.Tensor(np.asarray(w).reshape(1, stacked.shape[1], 1, 1, 1))
    return sum_axis(mul(stacked, mix), axis=1)


# ---------------------------------------------------------------------------
# package stages as tape records


def _record(out, back, inputs):
    """``out`` as a tape record whose backward adds ``back(g)``'s
    gradients into ``inputs``, in order; a list among them takes a
    sequence of gradients."""
    def fn(g):
        for t, grad in zip(inputs, back(g)):
            for leaf, leaf_grad in zip(t, grad) if isinstance(t, list) else [(t, grad)]:
                T._accumulate(leaf, leaf_grad)

    flat = [leaf for t in inputs for leaf in (t if isinstance(t, list) else [t])]
    return T._make(out, flat, fn)


def taped_conv2d(x, kernel):
    x, kernel = as_tensor(x), as_tensor(kernel)
    return _record(*T.conv2d(x.data, kernel.data), (x, kernel))


def taped_gcn(ahat_seq, features, weight):
    """`graph.gcn_forward`; only ``weight`` gets a gradient."""
    return _record(*graph.gcn_forward(ahat_seq, as_tensor(features).data, weight.data),
                   (weight,))


def taped_stack(x0, kernels, slopes):
    x0 = as_tensor(x0)
    block, back = temporal.stack_forward(x0.data, [k.data for k in kernels],
                                         [s.data for s in slopes])
    return _record(block, back, (x0, list(kernels), list(slopes)))


def taped_ea(block, theta, bias, alpha):
    """`attention.ea_output`: the output record and the trace."""
    out, trace, back = attention.ea_output(block.data, theta.data, bias.data, alpha.data)
    return _record(out, back, (block, theta, bias, alpha)), trace


def taped_hedge(block, w):
    return _record(*attention.hedge_output(block.data, attention.HedgeState(w=w)), (block,))


def taped_plain(block):
    """`attention.plain_output`. Its backward hands ``block`` the deepest
    layer's gradient alone, as (N, 1, T, P, D), which `taped_stack`'s
    backward passes on to the stack as it is, so the block may have no
    other reader."""
    out, back = attention.plain_output(block.data)

    def fn(g):
        (block.grad,) = back(g)

    return T._make(out, (block,), fn)


# ---------------------------------------------------------------------------
# oracle chains in the stage form


def staged(chain, *arrays):
    """The stage form of ``chain``, a function of tensors that records on
    the tape: ``(out, back)``, where ``back(g)`` gives the gradients of
    ``arrays`` in order. The chain records on a tape of its own, which
    ``back`` walks as `tensor.backward` walks the package's."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    outer, T._tape = T._tape, []
    try:
        out = chain(*leaves)
    finally:
        own, T._tape = T._tape, outer

    def back(g):
        out.grad = g
        for rec_out, fn in reversed(own):
            if rec_out.grad is not None:
                fn(rec_out.grad)
        return tuple(leaf.grad for leaf in leaves)

    return out.data, back


def staged_gcn(ahat_seq, features, weight):
    return staged(lambda w: gcn_forward(ahat_seq, features, w), weight)


def staged_stack(x0, kernels, slopes, store=None):
    """`stack_forward` stacked into one block; ``back`` takes the whole
    block's gradient."""
    n = len(kernels)
    block, back = staged(lambda x, *p: stack(stack_forward(x, p[:n], p[n:])),
                         x0, *kernels, *slopes)

    def stage_back(g):
        g_x0, *rest = back(g)
        return g_x0, rest[:n], rest[n:]

    return block, stage_back


def staged_ea(block, theta, bias, alpha):
    traces = []

    def chain(*leaves):
        out, trace = ea_output(*leaves)
        traces.append(trace)
        return out

    out, back = staged(chain, block, theta, bias, alpha)
    return out, traces[0], back


def staged_hedge(block, state):
    return staged(lambda b: hedge_output(b, state.w), block)


def staged_plain(block):
    """The deepest layer by ``getitem``, whose backward scatters its
    gradient into a block of zeros."""
    return staged(lambda b: getitem(b, np.s_[:, -1]), block)


# ---------------------------------------------------------------------------
# taped ops that only oracles call


def as_tensor(x):
    return x if isinstance(x, T.Tensor) else T.Tensor(x)


def _unbroadcast(g, shape):
    """Sum a gradient down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        T._accumulate(a, _unbroadcast(g, a.shape))
        T._accumulate(b, _unbroadcast(g, b.shape))

    return T._make(a.data + b.data, (a, b), back)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        T._accumulate(a, _unbroadcast(g * b.data, a.shape))
        T._accumulate(b, _unbroadcast(g * a.data, b.shape))

    return T._make(a.data * b.data, (a, b), back)


def tensor_sum(a):
    """The sum of every entry, a 0-d tensor."""

    def back(g):
        T._accumulate(a, np.broadcast_to(g, a.shape).copy())

    return T._make(a.data.sum(), (a,), back)


def sub(a, b):
    a = as_tensor(a)  # the NLL chain's 1 - rho^2 passes a float

    def back(g):
        T._accumulate(a, _unbroadcast(g, a.shape))
        T._accumulate(b, _unbroadcast(-g, b.shape))

    return T._make(a.data - b.data, (a, b), back)


def div(a, b):
    def back(g):
        T._accumulate(a, _unbroadcast(g / b.data, a.shape))
        T._accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return T._make(a.data / b.data, (a, b), back)


def exp(a):
    out_data = np.exp(a.data)
    return T._make(out_data, (a,), lambda g: T._accumulate(a, g * out_data))


def log(a):
    return T._make(np.log(a.data), (a,), lambda g: T._accumulate(a, g / a.data))


def sigmoid(a):
    out_data = 1.0 / (1.0 + np.exp(-a.data))
    return T._make(out_data, (a,), lambda g: T._accumulate(a, g * out_data * (1.0 - out_data)))


def tanh(a):
    out_data = np.tanh(a.data)
    return T._make(out_data, (a,), lambda g: T._accumulate(a, g * (1.0 - out_data * out_data)))


def prelu(a, slope):
    """x for x > 0, slope * x otherwise, with a learnable scalar slope."""
    positive = a.data > 0

    def back(g):
        T._accumulate(a, g * np.where(positive, 1.0, slope.data))
        T._accumulate(slope, _unbroadcast(g * np.where(positive, 0.0, a.data), slope.shape))

    return T._make(np.where(positive, a.data, slope.data * a.data), (a, slope), back)


def matmul(a, b):
    """Matrix product with numpy batching rules on the leading axes."""
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} x {b.shape}")

    def back(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            T._accumulate(a, _unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            T._accumulate(b, _unbroadcast(gb, b.shape))

    return T._make(np.matmul(a.data, b.data), (a, b), back)


def getitem(a, key):
    """Basic (slice/integer) indexing; the backward scatters into zeros."""

    def back(g):
        full = np.zeros_like(a.data)
        full[key] += g
        T._accumulate(a, full)

    return T._make(a.data[key], (a,), back)


def sum_axis(a, axis):
    """The sum over ``axis``, which the result drops."""

    def back(g):
        T._accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    return T._make(a.data.sum(axis=axis), (a,), back)


def mean(a, axis=None):
    """The mean of every entry, or over ``axis`` kept as a unit axis."""
    if axis is None:
        n, out_data = a.data.size, a.data.mean()
    else:
        n, out_data = a.shape[axis], a.data.mean(axis=axis, keepdims=True)
    return T._make(out_data, (a,),
                   lambda g: T._accumulate(a, np.broadcast_to(g / n, a.shape).copy()))


def reshape(a, shape):
    return T._make(a.data.reshape(shape), (a,), lambda g: T._accumulate(a, g.reshape(a.shape)))


def stack(tensors):
    """Same-shaped tensors stacked along a new axis 1."""

    def back(g):
        for i, t in enumerate(tensors):
            T._accumulate(t, g[:, i])

    return T._make(np.stack([t.data for t in tensors], axis=1), tuple(tensors), back)


def next_u64(rng):
    """The next 64-bit word of the `Xorshift64Star` ``rng``: step its
    state, then multiply the new state modulo 2^64."""
    rng.state = x = _xorshift(rng.state)
    return (x * _MULTIPLIER) & _MASK64


def uniform(rng):
    """The next uniform float of ``rng`` in [0, 1), with 53 bits of
    resolution: the top 53 bits of `next_u64`, scaled by 2^-53."""
    return (next_u64(rng) >> 11) * _INV_2_53


def normal_pair(rng):
    """Two independent standard normals from two `uniform` draws of
    ``rng`` via Box-Muller; a first uniform of 0 is raised to 2^-53."""
    u1 = uniform(rng)
    if u1 <= 0.0:
        u1 = _INV_2_53
    u2 = uniform(rng)
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    return r * math.cos(theta), r * math.sin(theta)


def shuffle(rng, items):
    """The scalar Fisher-Yates shuffle: for i from len(items) - 1 down to
    1, swap items i and ``next_u64(rng) % (i + 1)``, one draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = next_u64(rng) % (i + 1)
        items[i], items[j] = items[j], items[i]


def math_map(fn, values):
    """Flat float64 array of the one-argument `math` function ``fn``
    called on every entry of ``values`` in turn."""
    flat = np.asarray(values, dtype=np.float64).ravel().tolist()
    return np.fromiter(map(fn, flat), np.float64, len(flat))


def assert_equals_math_map(got, values, fn, fallback):
    """Fail unless ``got`` equals ``math_map(fn, values)`` bit for bit. The
    message gives the numpy version, the count that differ, the first
    differing input with both results in `float.hex`, and ``fallback``,
    the form the package must go back to, so that a platform whose numpy
    or C library rounds differently can be diagnosed from one log."""
    values = np.asarray(values, dtype=np.float64).ravel()
    got = np.asarray(got, dtype=np.float64).ravel()
    want = math_map(fn, values)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    if differ.size:
        i = differ[0]
        raise AssertionError(
            f"numpy {np.__version__}: {fn.__name__} differs from math.{fn.__name__} on "
            f"{differ.size} of {values.size} inputs; first at {float(values[i]).hex()}: "
            f"numpy {float(got[i]).hex()}, math {float(want[i]).hex()}; {fallback}")


# ---------------------------------------------------------------------------
# scene generation and windowing


def generate_synthetic(spec, frames):
    """(frame, agent, x, y) observations of ``frames`` frames, drawn one
    agent and one frame at a time."""
    spec.validate()
    if frames < 1:
        raise ConfigError("frames must be >= 1")
    rng = Xorshift64Star(spec.seed)
    n = spec.agents
    noisy = spec.noise_std > 0

    positions = np.zeros((n, 2))
    headings = np.zeros(n)
    phases = np.zeros(n)
    directions = np.ones(n)
    if spec.kind == "circle":
        radius = spec.extent / 2.0
        omega = spec.speed / radius
        for i in range(n):
            phases[i] = uniform(rng) * 2.0 * math.pi
            directions[i] = 1.0 if uniform(rng) < 0.5 else -1.0
    else:
        for i in range(n):
            positions[i, 0] = uniform(rng) * spec.extent
            positions[i, 1] = uniform(rng) * spec.extent
            if spec.kind == "stagger":
                headings[i] = uniform(rng) * 2.0 * math.pi

    rows = []
    for t in range(frames):
        for i in range(n):
            if t > 0:
                if spec.kind == "circle":
                    angle = phases[i] + directions[i] * omega * t
                    positions[i] = radius * np.array([math.cos(angle), math.sin(angle)])
                elif spec.kind == "oneway":
                    positions[i] = positions[i] + np.array([spec.speed, 0.0])
                else:
                    if t % spec.period == 0:
                        sign = 1.0 if uniform(rng) < 0.5 else -1.0
                        headings[i] += sign * (math.pi / 4.0 + uniform(rng) * math.pi / 4.0)
                    positions[i] = positions[i] + spec.speed * np.array(
                        [math.cos(headings[i]), math.sin(headings[i])])
                if noisy:
                    nx, ny = normal_pair(rng)
                    positions[i] = positions[i] + spec.noise_std * np.array([nx, ny])
            elif spec.kind == "circle":
                positions[i] = radius * np.array([math.cos(phases[i]), math.sin(phases[i])])
            rows.append((t, i + 1, float(positions[i, 0]), float(positions[i, 1])))
    return rows


def window_instances(rows, t_obs, t_pred, scene_id=""):
    """Instances of every window over the sorted unique frame ids of
    (frame, agent, x, y) observations, found by scanning each agent's
    frames for each window."""
    if t_obs < 1 or t_pred < 1:
        raise ConfigError("t_obs and t_pred must be positive")
    frames = sorted({frame for frame, _, _, _ in rows})
    span = t_obs + t_pred
    by_agent = {}
    for frame, agent, x, y in rows:
        by_agent.setdefault(agent, {})[frame] = (x, y)
    instances = []
    for start in range(len(frames) - span + 1):
        window = frames[start:start + span]
        complete = [a for a in sorted(by_agent)
                    if all(f in by_agent[a] for f in window)]
        if not complete:
            continue
        coords = np.array([[by_agent[a][f] for f in window] for a in complete])
        instances.append(TrajectoryInstance(
            scene_id=scene_id, agent_ids=complete, start_frame=window[0],
            obs_abs=coords[:, :t_obs], fut_abs=coords[:, t_obs:]))
    return instances


def synthetic_instances(spec, count, t_obs, t_pred):
    """The first ``count`` windows of an oracle scene just long enough for them."""
    rows = generate_synthetic(spec, count - 1 + t_obs + t_pred)
    return window_instances(rows, t_obs, t_pred, scene_id=f"{spec.kind}:{spec.seed}")[:count]


def instance_arrays(inst, config):
    """One instance's network inputs and target, prepared alone from its
    own views: displacements (T_obs, P, 2) from ``inst.obs_rel``, graphs
    (T_obs, P, P) from one `graph.instance_graphs` call on the window's
    own observed frames, and ``inst.fut_rel`` as it is. `model.FrameTables`
    must give each instance these bits, and the target these strides."""
    x_seq = np.ascontiguousarray(inst.obs_rel.transpose(1, 0, 2))
    ahat = graph.instance_graphs(inst.obs_abs.transpose(1, 0, 2), x_seq, config.kernel,
                                 config.rbf_sigma)
    return x_seq, ahat, inst.fut_rel
