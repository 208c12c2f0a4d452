import tracemalloc

import numpy as np
import pytest
from scipy.signal import correlate2d

import oracles
from eanet import tensor as T
from eanet.attention import plain_output
from eanet.errors import ConfigError, DimensionError
from eanet.gradcheck import check_gradients
from eanet.temporal import stack_forward, time_expand


def scipy_conv_oracle(x, k):
    """Independent reference: each agent row is its own (1, W) plane, so a
    row only ever sees zero padding above and below itself. The
    (C_out, C_in, 1, 3) kernel enters as row 1 of a zero 3x3 window."""
    c_out = k.shape[0]
    window = np.zeros(k.shape[:2] + (3, 3))
    window[:, :, 1] = k[:, :, 0]
    out = np.zeros((c_out,) + x.shape[1:])
    for o in range(c_out):
        for c in range(x.shape[0]):
            for h in range(x.shape[1]):
                out[o, h] += correlate2d(x[c, h:h + 1, :], window[o, c],
                                         mode="same", boundary="fill")[0]
    return out


def test_time_expand_zero_kernel():
    feats = np.random.default_rng(0).normal(size=(1, 8, 4, 5))
    kernel = np.zeros((12, 8, 1, 3))
    out, _ = time_expand(feats, kernel)
    assert out.shape == (1, 12, 4, 5)
    assert np.array_equal(out, np.zeros((1, 12, 4, 5)))


def test_time_expand_identity_kernel():
    feats = np.random.default_rng(1).normal(size=(1, 1, 4, 5))
    kernel = np.zeros((1, 1, 1, 3))
    kernel[0, 0, 0, 1] = 1.0
    out, _ = time_expand(feats, kernel)
    assert np.allclose(out, feats, atol=1e-15)


def test_time_expand_matches_scipy_oracle():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(2, 8, 4, 5))
    kernel = rng.normal(size=(12, 8, 1, 3))
    out, _ = time_expand(feats, kernel)
    for n in range(2):
        assert np.allclose(out[n], scipy_conv_oracle(feats[n], kernel), atol=1e-12)


def test_time_expand_shape_mismatch():
    with pytest.raises(DimensionError):
        time_expand(np.zeros((1, 8, 4, 5)), np.zeros((12, 7, 1, 3)))


def test_stack_zero_kernels_stay_zero():
    x0 = np.random.default_rng(3).normal(size=(1, 12, 3, 5))
    kernels = [np.zeros((12, 12, 1, 3)) for _ in range(3)]
    slopes = [np.array(0.25) for _ in range(3)]
    block, _ = stack_forward(x0, kernels, slopes)
    assert block.shape == (1, 3, 12, 3, 5)
    assert np.array_equal(block, np.zeros((1, 3, 12, 3, 5)))


def test_stack_residual_identity_after_first_layer():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(1, 12, 3, 5))
    kernels = [rng.normal(size=(12, 12, 1, 3)) * 0.1]
    kernels += [np.zeros((12, 12, 1, 3)) for _ in range(2)]
    slopes = [np.array(0.25) for _ in range(3)]
    block, _ = stack_forward(x0, kernels, slopes)
    assert np.array_equal(block[:, 1], block[:, 0])
    assert np.array_equal(block[:, 2], block[:, 0])


def test_stack_two_layers_match_hand_composition():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(1, 12, 3, 5))
    k0 = rng.normal(size=(12, 12, 1, 3)) * 0.2
    k1 = rng.normal(size=(12, 12, 1, 3)) * 0.2
    s0, s1 = 0.3, 0.1

    def prelu(v, s):
        return np.where(v > 0, v, s * v)

    m0 = prelu(scipy_conv_oracle(x0[0], k0), s0)[None]
    m1 = prelu(scipy_conv_oracle(m0[0], k1), s1)[None] + m0
    block, _ = stack_forward(x0, [k0, k1], [np.array(s0), np.array(s1)])
    assert np.allclose(block[:, 0], m0, atol=1e-12)
    assert np.allclose(block[:, 1], m1, atol=1e-12)


def test_stack_rows_never_mix():
    # Reordering the agent rows of the input reorders the outputs exactly,
    # nothing else changes: each row's convolution reads only that row.
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(1, 6, 5, 5))
    kernels = [rng.normal(size=(6, 6, 1, 3)) for _ in range(2)]
    slopes = [np.array(0.25), np.array(0.25)]
    perm = np.array([3, 0, 4, 1, 2])
    block, _ = stack_forward(x0, kernels, slopes)
    block_perm, _ = stack_forward(x0[:, :, perm, :], kernels, slopes)
    assert np.array_equal(block[:, :, :, perm, :], block_perm)


def test_stack_shape_contract_single_agent():
    x0 = np.random.default_rng(6).normal(size=(1, 12, 1, 5))
    kernels = [np.random.default_rng(7).normal(size=(12, 12, 1, 3)) for _ in range(2)]
    slopes = [np.array(0.25), np.array(0.25)]
    assert stack_forward(x0, kernels, slopes)[0].shape == (1, 2, 12, 1, 5)


def test_stack_param_count_mismatch():
    x0 = np.zeros((1, 12, 3, 5))
    with pytest.raises(ConfigError):
        stack_forward(x0, [np.zeros((12, 12, 1, 3))], [])
    with pytest.raises(ConfigError):
        stack_forward(x0, [], [])


def test_stack_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    x0 = T.Tensor(rng.normal(size=(1, 4, 3, 5)), requires_grad=True)
    kernels = [T.Tensor(rng.normal(size=(4, 4, 1, 3)) * 0.3, requires_grad=True)
               for _ in range(2)]
    slopes = [T.Tensor(0.25, requires_grad=True), T.Tensor(0.4, requires_grad=True)]

    def build():
        block = oracles.taped_stack(x0, kernels, slopes)
        return oracles.tensor_sum(oracles.tanh(block))

    params = {"x0": x0, "k0": kernels[0], "k1": kernels[1],
              "s0": slopes[0], "s1": slopes[1]}
    errors = check_gradients(build, params)
    assert max(errors.values()) < 1e-4


def test_stack_shape_checks_raise_what_conv2d_raised():
    x0 = np.zeros((1, 12, 3, 5))
    slopes = [np.array(0.25), np.array(0.25)]

    def kernels(*deeper):
        return [np.zeros((12, 12, 1, 3))] + [np.zeros(s) for s in deeper]

    # Twice: shapes are validated once per signature, and a signature that
    # fails must fail again.
    for _ in range(2):
        with pytest.raises(DimensionError, match="rank 4"):
            stack_forward(np.zeros((12, 3, 5)), kernels((12, 12, 1, 3)), slopes)
        with pytest.raises(DimensionError, match="rank 4"):
            stack_forward(x0, kernels((12, 12, 3)), slopes)
        with pytest.raises(DimensionError, match="1x3"):
            stack_forward(x0, kernels((12, 12, 3, 3)), slopes)
        with pytest.raises(DimensionError, match="input channels"):
            stack_forward(x0, kernels((12, 11, 1, 3)), slopes)
        with pytest.raises(DimensionError, match="square"):
            stack_forward(np.zeros((1, 11, 3, 5)), [np.zeros((12, 11, 1, 3))], slopes[:1])
        with pytest.raises(DimensionError, match="scalar"):
            stack_forward(x0, kernels(), [np.full(12, 0.25)])
        with pytest.raises(ConfigError):
            stack_forward(x0, kernels((12, 12, 1, 3)), slopes[:1])


def _stack_case(n, p, n_layers, seed, grad_x0=True):
    rng = np.random.default_rng(seed)
    x0 = T.Tensor(rng.normal(size=(n, 12, p, 5)), requires_grad=grad_x0)
    kernels = [T.Tensor(rng.normal(size=(12, 12, 1, 3)) * 0.3, requires_grad=True)
               for _ in range(n_layers)]
    slopes = [T.Tensor(rng.uniform(0.1, 0.4), requires_grad=True) for _ in range(n_layers)]
    return x0, kernels, slopes


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("p", [1, 6, 12])
@pytest.mark.parametrize("n_layers", [1, 5])
def test_fused_stack_matches_the_per_layer_chain_bit_for_bit(n, p, n_layers):
    # The loss weighs every layer differently, as a head does, so each
    # layer's output receives its own gradient piece.
    x0, kernels, slopes = _stack_case(n, p, n_layers, seed=100 * n + 10 * p + n_layers)
    weights = np.random.default_rng(1).normal(size=(n_layers, 12, p, 5))
    params = [x0, *kernels, *slopes]

    def run(forward):
        block = forward(x0, kernels, slopes)
        loss = oracles.tensor_sum(oracles.mul(oracles.tanh(block), weights[None]))
        T.backward(loss)
        grads = [t.grad for t in params]
        for t in params:
            t.zero_grad()
        return block.data, grads

    def chain(x0, kernels, slopes):
        return oracles.stack(oracles.stack_forward(x0, kernels, slopes))

    got, got_grads = run(oracles.taped_stack)
    want, want_grads = run(chain)
    assert np.array_equal(got, want)
    # Same memory order; a unit axis's stride means nothing.
    assert [st for st, d in zip(got.strides, got.shape) if d > 1] == \
        [st for st, d in zip(want.strides, want.shape) if d > 1]
    for g, w in zip(got_grads, want_grads):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [1, 64])
def test_fused_stack_deepest_layer_trains_like_the_chain(n):
    # The plain head and training read the deepest layer only; the NLL's
    # sums depend on its memory layout, so that must be the chain's too.
    from eanet.gaussian import decode_gaussian, nll_loss
    x0, kernels, slopes = _stack_case(n, 6, 5, seed=7, grad_x0=False)
    target = np.random.default_rng(2).normal(size=(n, 6, 12, 2))
    params = [*kernels, *slopes]

    def run(deepest):
        loss = nll_loss(decode_gaussian(deepest()), target)
        T.backward(loss)
        grads = [t.grad for t in params]
        for t in params:
            t.zero_grad()
        return loss.data, grads

    got, got_grads = run(lambda: oracles.taped_plain(oracles.taped_stack(x0, kernels, slopes)))
    want, want_grads = run(lambda: oracles.stack_forward(x0, kernels, slopes)[-1])
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert np.array_equal(g, w)


def test_plain_head_hands_the_stack_its_deepest_gradient_alone():
    # Ten layers at batch 64: a block-sized gradient of zeros, or a copy
    # of one, would take the backward's peak past the block's own size.
    x0, kernels, slopes = _stack_case(64, 6, 10, seed=11, grad_x0=False)
    seed = np.random.default_rng(3).normal(size=(64, 12, 6, 5))
    params = [*kernels, *slopes]

    block, stack_back = stack_forward(x0.data, [k.data for k in kernels],
                                      [s.data for s in slopes])
    _, plain_back = plain_output(block)
    tracemalloc.start()
    try:
        (deepest,) = plain_back(seed)
        _, got_kernels, got_slopes = stack_back(deepest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deepest.shape == (64, 1, 12, 6, 5)
    assert peak < block.nbytes
    # The chain's deepest layer is read off its block by getitem, whose
    # backward scatters the gradient into a block of zeros.
    chain_block = oracles.stack(oracles.stack_forward(x0, kernels, slopes))
    T.backward(oracles.getitem(chain_block, np.s_[:, -1]), seed)
    assert chain_block.grad.shape == chain_block.shape
    for g, t in zip([*got_kernels, *got_slopes], params):
        assert np.array_equal(g, t.grad)


@pytest.mark.parametrize("n_layers", [1, 2, 5])
def test_stack_back_takes_the_deepest_gradient_or_the_whole_blocks(n_layers):
    # The deepest layer's gradient alone is the whole block's with zeros
    # in the other layers.
    x0, kernels, slopes = _stack_case(3, 6, n_layers, seed=20 + n_layers)
    deepest = np.random.default_rng(4).normal(size=(3, 1, 12, 6, 5))
    whole = np.zeros((3, n_layers, 12, 6, 5))
    whole[:, -1:] = deepest

    def grads(g):
        _, back = stack_forward(x0.data, [k.data for k in kernels], [s.data for s in slopes])
        g_x0, g_kernels, g_slopes = back(g)
        return [g_x0, *g_kernels, *g_slopes]

    for got, want in zip(grads(deepest), grads(whole), strict=True):
        assert np.array_equal(got, want)
