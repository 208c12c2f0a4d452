import math
import warnings

import numpy as np
import pytest

import oracles
from eanet import tensor as T
from eanet.attention import (ExpertTrace, HedgeState, ea_output, hedge_output, hedge_update,
                             plain_output)
from eanet.errors import ConfigError, ContractError, DimensionError
from eanet.gradcheck import check_gradients


def recombine_by_frame(block):
    """Per-frame oracle for ``ea_output``: reindex the (N, L, T, P, D)
    block into T tensors of shape (N, L, P, D), so
    R_f[n][l][p][d] == M[l][n][f][p][d]."""
    block = T.Tensor(block)
    return [oracles.getitem(block, np.s_[:, :, f]) for f in range(block.shape[2])]


def expert_weights(r_f, theta, bias):
    """Gate scores for one frame: mean over agents of tanh(R_f Theta + b),
    (N, L, P, D) with a (D, 1) theta to (N, L, 1, 1)."""
    scores = oracles.tanh(oracles.add(oracles.matmul(r_f, theta), bias))
    return oracles.mean(scores, axis=2)


def random_layers(n_layers=3, n=1, t=4, p=3, d=5, seed=0):
    """An (N, L, T, P, D) block of L independently drawn layers."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.normal(size=(n, t, p, d)) for _ in range(n_layers)], axis=1)


def test_recombine_single_layer():
    layers = random_layers(n_layers=1)
    frames = recombine_by_frame(layers)
    assert len(frames) == 4
    for f, r in enumerate(frames):
        assert r.shape == (1, 1, 3, 5)
        assert np.array_equal(r.data[:, 0], layers[:, 0, f])


def test_recombine_round_trip_and_direct_indexing():
    layers = random_layers(n_layers=3, seed=1)
    frames = recombine_by_frame(layers)
    for l in range(3):
        rebuilt = np.stack([frames[f].data[:, l] for f in range(4)], axis=1)
        assert np.array_equal(rebuilt, layers[:, l])
    for f in (0, 2):
        for l in range(3):
            for p in range(3):
                for d in range(5):
                    assert frames[f].data[0, l, p, d] == layers[0, l, f, p, d]


def test_heads_reject_a_block_of_the_wrong_rank_or_no_layers():
    head = (np.zeros((5, 1)), np.array(0.0), np.ones(3))
    for bad in (np.zeros((1, 4, 3, 5)), np.zeros((1, 3, 1, 4, 3, 5))):
        with pytest.raises(DimensionError):
            ea_output(bad, *head)
        with pytest.raises(DimensionError):
            hedge_output(bad, HedgeState.uniform(3))
        with pytest.raises(DimensionError):
            plain_output(bad)
    empty = np.zeros((1, 0, 4, 3, 5))
    with pytest.raises(ContractError):
        ea_output(empty, head[0], head[1], np.ones(0))
    with pytest.raises(ContractError):
        plain_output(empty)


def test_expert_weights_zero_theta_zero_bias():
    frames = recombine_by_frame(random_layers(seed=2))
    e = expert_weights(frames[0], T.Tensor(np.zeros((5, 1))), T.Tensor(0.0))
    assert e.shape == (1, 3, 1, 1)
    assert np.array_equal(e.data, np.zeros((1, 3, 1, 1)))


def test_expert_weights_zero_theta_unit_bias():
    frames = recombine_by_frame(random_layers(seed=3))
    e = expert_weights(frames[1], T.Tensor(np.zeros((5, 1))), T.Tensor(1.0))
    assert np.allclose(e.data, math.tanh(1.0), atol=1e-12)
    assert abs(math.tanh(1.0) - 0.761594) < 1e-6


def test_expert_weights_agent_permutation_invariant():
    rng = np.random.default_rng(4)
    r = rng.normal(size=(1, 3, 6, 5))
    theta = T.Tensor(rng.normal(size=(5, 1)))
    bias = T.Tensor(0.3)
    e0 = expert_weights(T.Tensor(r), theta, bias)
    perm = rng.permutation(6)
    e1 = expert_weights(T.Tensor(r[:, :, perm]), theta, bias)
    assert np.allclose(e0.data, e1.data, atol=1e-12)
    assert np.all(np.abs(e0.data) < 1.0)


def test_expert_weights_theta_shape_error():
    layers = random_layers(seed=5)
    with pytest.raises(DimensionError):
        ea_output(layers, np.zeros((4, 1)), np.array(0.0), np.ones(3))
    # The gate's bias is one scalar; its gradient is summed over every axis.
    with pytest.raises(DimensionError):
        ea_output(layers, np.zeros((5, 1)), np.zeros(3), np.ones(3))


def test_ea_output_zero_gate_zeroes_everything():
    layers = random_layers(seed=6)
    out, trace, _ = ea_output(layers, np.zeros((5, 1)), np.array(0.0), np.ones(3))
    assert np.array_equal(out, np.zeros((1, 4, 3, 5)))
    assert isinstance(trace, ExpertTrace)
    assert np.array_equal(trace.gate, np.zeros(3))


def test_ea_output_half_gate_double_alpha_is_identity():
    layers = random_layers(n_layers=1, seed=7)
    out, trace, _ = ea_output(layers, np.zeros((5, 1)), np.array(math.atanh(0.5)),
                              np.array([2.0]))
    assert np.allclose(out, layers[:, 0], atol=1e-12)
    assert np.allclose(trace.gate, [0.5], atol=1e-12)
    assert np.array_equal(trace.alpha, [2.0])


def test_ea_output_linear_in_alpha():
    layers = random_layers(seed=8)
    rng = np.random.default_rng(9)
    theta = rng.normal(size=(5, 1))
    bias = np.array(0.2)
    a1 = rng.normal(size=3)
    a2 = rng.normal(size=3)
    out1 = ea_output(layers, theta, bias, a1)[0]
    out2 = ea_output(layers, theta, bias, a2)[0]
    both = ea_output(layers, theta, bias, a1 + a2)[0]
    assert np.allclose(both, out1 + out2, atol=1e-12)
    scaled = ea_output(layers, theta, bias, 3.0 * a1)[0]
    assert np.allclose(scaled, 3.0 * out1, atol=1e-12)


def test_ea_output_agent_permutation_equivariant():
    rng = np.random.default_rng(10)
    layers = random_layers(seed=11, p=6)
    theta = rng.normal(size=(5, 1))
    bias = np.array(-0.1)
    alpha = rng.normal(size=3)
    out = ea_output(layers, theta, bias, alpha)[0]
    perm = rng.permutation(6)
    out_p = ea_output(layers[:, :, :, perm], theta, bias, alpha)[0]
    assert np.allclose(out_p, out[:, :, perm], atol=1e-12)


def test_ea_output_matches_per_frame_recombination():
    rng = np.random.default_rng(12)
    layers = random_layers(seed=13)
    theta = rng.normal(size=(5, 1))
    bias = np.array(0.4)
    alpha = rng.normal(size=3)
    out = ea_output(layers, theta, bias, alpha)[0]
    frames = recombine_by_frame(layers)
    for f, r_f in enumerate(frames):
        e_f = expert_weights(r_f, T.Tensor(theta), bias)
        want = np.zeros((1, 3, 5))
        for l in range(3):
            want += alpha[l] * r_f.data[:, l] * e_f.data[:, l]
        assert np.allclose(out[:, f], want, atol=1e-12)


def test_ea_output_alpha_length_check():
    layers = random_layers(seed=14)
    with pytest.raises(DimensionError):
        ea_output(layers, np.zeros((5, 1)), np.array(0.0), np.ones(2))


def test_ea_gradients_wrt_head_parameters():
    layers = T.Tensor(random_layers(seed=15))
    rng = np.random.default_rng(16)
    theta = T.Tensor(rng.normal(size=(5, 1)) * 0.3, requires_grad=True)
    bias = T.Tensor(0.5, requires_grad=True)
    alpha = T.Tensor(rng.normal(size=3), requires_grad=True)

    def build():
        out, _ = oracles.taped_ea(layers, theta, bias, alpha)
        return oracles.tensor_sum(oracles.mul(out, out))

    errors = check_gradients(build, {"theta": theta, "bias": bias, "alpha": alpha})
    assert max(errors.values()) < 1e-4


def test_plain_output_is_deepest_layer():
    layers = random_layers(seed=17)
    assert np.array_equal(plain_output(layers)[0], layers[:, -1])
    assert np.array_equal(plain_output(layers[:, :1])[0], layers[:, 0])


def test_plain_equals_ea_with_saturated_gate():
    layers = random_layers(seed=18)
    alpha = np.zeros(3)
    alpha[-1] = 1.0
    out = ea_output(layers, np.zeros((5, 1)), np.array(20.0), alpha)[0]
    assert np.allclose(out, plain_output(layers)[0], atol=1e-12)


def test_hedge_state_validation():
    state = HedgeState.uniform(4)
    assert np.allclose(state.w, 0.25)
    with pytest.raises(ConfigError):
        HedgeState.uniform(0)
    with pytest.raises(ConfigError):
        HedgeState(w=np.array([0.5, 0.5]), beta=1.0).validate()
    with pytest.raises(ConfigError):
        HedgeState(w=np.array([0.7, 0.7]), beta=0.9).validate()
    for w in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ConfigError):
            HedgeState(w=np.array(w)).validate()


def test_hedge_output_weighted_sum():
    layers = random_layers(seed=19)
    state = HedgeState(w=np.array([0.2, 0.3, 0.5]))
    out, _ = hedge_output(layers, state)
    want = 0.2 * layers[:, 0] + 0.3 * layers[:, 1] + 0.5 * layers[:, 2]
    assert np.allclose(out, want, atol=1e-12)
    with pytest.raises(DimensionError):
        hedge_output(layers[:, :2], state)


def test_hedge_update_worked_example():
    state = HedgeState(w=np.array([0.5, 0.5]), beta=0.5, smoothing=0.2)
    updated = hedge_update(state, [0.0, 1.0])
    assert np.allclose(updated.w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_hedge_update_equal_losses_is_identity():
    state = HedgeState(w=np.array([0.1, 0.3, 0.6]), beta=0.9, smoothing=0.2)
    updated = hedge_update(state, [7.0, 7.0, 7.0])
    assert np.allclose(updated.w, state.w, atol=1e-12)


def hedge_update_by_methods(state, losses):
    """`hedge_update`'s weights written with the ndarray min, max and sum
    methods, as the update was first written."""
    losses = np.asarray(losses, dtype=np.float64)
    if not np.all(np.isfinite(losses)):
        return state.w.copy()
    spread = losses.max() - losses.min()
    normalised = (losses - losses.min()) / spread if spread > 0 else np.zeros_like(losses)
    w = np.maximum(state.w * np.power(state.beta, normalised), state.smoothing / state.w.size)
    return w / w.sum()


def test_hedge_update_equals_the_method_expressions_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = [rng.uniform(0.0, 10.0, 5) for _ in range(300)]
    cases += [rng.integers(0, 3, 5).astype(float) for _ in range(50)]  # ties
    cases += [np.full(5, 2.5), np.array([0.0, 0.0, 0.0, 0.0, 5e-324]),
              np.array([1.0, math.nan, 2.0, 3.0, 4.0]), np.array([1.0, 2.0, math.inf, 3.0, 4.0]),
              np.array([-math.inf, 2.0, 1.0, 3.0, 4.0]), np.array([-1e307, 1e307, 0.0, 1.0, 2.0])]
    state = HedgeState(w=rng.dirichlet(np.ones(5)), beta=0.7, smoothing=0.05)
    for losses in cases:
        want = hedge_update_by_methods(state, losses)
        state = hedge_update(state, losses)
        assert np.array_equal(state.w.view(np.int64), want.view(np.int64))


def test_hedge_update_keeps_finite_weights_when_the_loss_spread_overflows():
    state = HedgeState.uniform(5, beta=0.7, smoothing=0.2)
    floor = 0.2 / (5 * (1 + 0.2))
    cases = [[-1e308, 1e308, 0.0, 0.0, 0.0], [1.7976931348623157e308, -1.7976931348623157e308,
             5e-324, 1.0, -1.0], [1e308, 1e308, -1e308, 2.0, 1e307]]
    for losses in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            updated = hedge_update(state, losses)
        assert np.all(np.isfinite(updated.w)) and np.all(updated.w >= floor)
        assert math.isclose(updated.w.sum(), 1.0, abs_tol=1e-12)
        # The largest loss is discounted by beta itself, the smallest not at all.
        assert updated.w[np.argmax(losses)] == updated.w.min()
        assert updated.w[np.argmin(losses)] == updated.w.max()


def test_hedge_update_nonfinite_losses_leave_weights():
    state = HedgeState.uniform(3)
    updated = hedge_update(state, [0.1, float("nan"), 0.3])
    assert np.array_equal(updated.w, state.w)
    updated = hedge_update(state, [0.1, float("inf"), 0.3])
    assert np.array_equal(updated.w, state.w)


def test_hedge_simplex_and_floor_after_many_updates():
    rng = np.random.default_rng(20)
    state = HedgeState.uniform(5, beta=0.7, smoothing=0.2)
    floor = 0.2 / 5 / (1 + 0.2)
    for i in range(1000):
        if i % 50 == 0:
            losses = np.zeros(5)
        elif i % 51 == 0:
            losses = rng.uniform(0, 1e6, size=5)
        else:
            losses = rng.uniform(0, 10, size=5)
        state = hedge_update(state, losses)
        assert abs(state.w.sum() - 1.0) < 1e-12
        assert np.all(state.w >= floor - 1e-15)
        assert np.all(state.w >= 0.2 / 5 / (1 + 0.2) - 1e-12)


def test_hedge_update_shape_check():
    state = HedgeState.uniform(3)
    with pytest.raises(DimensionError):
        hedge_update(state, [0.1, 0.2])


# n = 64 is the training batch, where the head's sums over the batch axis
# run longest.
@pytest.mark.parametrize("p, n", [(1, 1), (1, 3), (6, 1), (6, 3), (12, 1), (12, 3),
                                  (6, 64), (12, 64)])
@pytest.mark.parametrize("n_layers", [1, 5])
@pytest.mark.parametrize("head", ["ea", "hedge", "plain"])
def test_fused_heads_match_the_primitive_chain_bit_for_bit(n, p, n_layers, head):
    # Stack plus head plus NLL against the per-layer chain: every output,
    # every parameter gradient and the input gradient must be equal.
    from eanet.gaussian import decode_gaussian, nll_loss
    rng = np.random.default_rng(1000 * n + 10 * p + n_layers)
    x0 = T.Tensor(rng.normal(size=(n, 12, p, 5)), requires_grad=True)
    kernels = [T.Tensor(rng.normal(size=(12, 12, 1, 3)) * 0.3, requires_grad=True)
               for _ in range(n_layers)]
    slopes = [T.Tensor(rng.uniform(0.1, 0.4), requires_grad=True) for _ in range(n_layers)]
    theta = T.Tensor(rng.normal(size=(5, 1)) * 0.3, requires_grad=True)
    bias = T.Tensor(0.5, requires_grad=True)
    alpha = T.Tensor(rng.normal(size=n_layers), requires_grad=True)
    w = rng.dirichlet(np.ones(n_layers))
    target = rng.normal(size=(n, p, 12, 2))
    params = [x0, *kernels, *slopes, theta, bias, alpha]

    def fused():
        block = oracles.taped_stack(x0, kernels, slopes)
        if head == "ea":
            out, trace = oracles.taped_ea(block, theta, bias, alpha)
            return out, trace.gate
        if head == "hedge":
            return oracles.taped_hedge(block, w), None
        return oracles.taped_plain(block), None

    def chain():
        layers = oracles.stack_forward(x0, kernels, slopes)
        if head == "ea":
            out, trace = oracles.ea_output(oracles.stack(layers), theta, bias, alpha)
            return out, trace.gate
        if head == "hedge":
            return oracles.hedge_output(oracles.stack(layers), w), None
        return layers[-1], None

    def run(forward):
        out, gate = forward()
        loss = nll_loss(decode_gaussian(out), target)
        T.backward(loss)
        grads = [t.grad for t in params]
        for t in params:
            t.zero_grad()
        return out.data, gate, loss.data, grads

    got, want = run(fused), run(chain)
    for g, w_ in zip(got[:3], want[:3]):
        assert (g is None and w_ is None) or np.array_equal(g, w_)
    for name, g, w_ in zip(range(len(params)), got[3], want[3]):
        assert (g is None and w_ is None) or np.array_equal(g, w_), name
