import math

import numpy as np
import pytest

from eanet import tensor as T
from eanet.attention import (ExpertTrace, HedgeState, ea_output, hedge_output, hedge_update,
                             plain_output)
from eanet.errors import ConfigError, ContractError, DimensionError
from eanet.gradcheck import check_gradients


def recombine_by_frame(m_list):
    """Per-frame oracle for ``ea_output``: reindex L tensors of shape
    (N, T, P, D) into T tensors of shape (N, L, P, D), so
    R_f[n][l][p][d] == M[l][n][f][p][d]."""
    stacked = T.stack(m_list, axis=1)
    return [stacked[:, :, f] for f in range(stacked.shape[2])]


def expert_weights(r_f, theta, bias):
    """Gate scores for one frame: mean over agents of tanh(R_f Theta + b),
    (N, L, P, D) with a (D, 1) theta to (N, L, 1, 1)."""
    scores = T.tanh(T.add(T.matmul(r_f, theta), bias))
    return T.tensor_mean(scores, axis=2, keepdims=True)


def random_layers(n_layers=3, n=1, t=4, p=3, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return [T.Tensor(rng.normal(size=(n, t, p, d))) for _ in range(n_layers)]


def test_recombine_single_layer():
    layers = random_layers(n_layers=1)
    frames = recombine_by_frame(layers)
    assert len(frames) == 4
    for f, r in enumerate(frames):
        assert r.shape == (1, 1, 3, 5)
        assert np.array_equal(r.data[:, 0], layers[0].data[:, f])


def test_recombine_round_trip_and_direct_indexing():
    layers = random_layers(n_layers=3, seed=1)
    frames = recombine_by_frame(layers)
    for l in range(3):
        rebuilt = np.stack([frames[f].data[:, l] for f in range(4)], axis=1)
        assert np.array_equal(rebuilt, layers[l].data)
    for f in (0, 2):
        for l in range(3):
            for p in range(3):
                for d in range(5):
                    assert frames[f].data[0, l, p, d] == layers[l].data[0, f, p, d]


def test_recombine_rejects_mixed_shapes():
    layers = random_layers(n_layers=2)
    layers.append(T.Tensor(np.zeros((1, 4, 2, 5))))
    head = (T.Tensor(np.zeros((5, 1))), T.Tensor(0.0), T.Tensor(np.ones(3)))
    with pytest.raises(DimensionError):
        recombine_by_frame(layers)
    with pytest.raises(DimensionError):
        ea_output(layers, *head)
    with pytest.raises(ContractError):
        recombine_by_frame([])
    with pytest.raises(ContractError):
        ea_output([], *head)


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
        ea_output(layers, T.Tensor(np.zeros((4, 1))), T.Tensor(0.0), T.Tensor(np.ones(3)))


def test_ea_output_zero_gate_zeroes_everything():
    layers = random_layers(seed=6)
    out, trace = ea_output(layers, T.Tensor(np.zeros((5, 1))), T.Tensor(0.0),
                           T.Tensor(np.ones(3)))
    assert np.array_equal(out.data, np.zeros((1, 4, 3, 5)))
    assert isinstance(trace, ExpertTrace)
    assert np.array_equal(trace.gate, np.zeros(3))


def test_ea_output_half_gate_double_alpha_is_identity():
    layers = random_layers(n_layers=1, seed=7)
    out, trace = ea_output(layers, T.Tensor(np.zeros((5, 1))),
                           T.Tensor(math.atanh(0.5)), T.Tensor([2.0]))
    assert np.allclose(out.data, layers[0].data, atol=1e-12)
    assert np.allclose(trace.gate, [0.5], atol=1e-12)
    assert np.array_equal(trace.alpha, [2.0])


def test_ea_output_linear_in_alpha():
    layers = random_layers(seed=8)
    rng = np.random.default_rng(9)
    theta = T.Tensor(rng.normal(size=(5, 1)))
    bias = T.Tensor(0.2)
    a1 = rng.normal(size=3)
    a2 = rng.normal(size=3)
    out1, _ = ea_output(layers, theta, bias, T.Tensor(a1))
    out2, _ = ea_output(layers, theta, bias, T.Tensor(a2))
    both, _ = ea_output(layers, theta, bias, T.Tensor(a1 + a2))
    assert np.allclose(both.data, out1.data + out2.data, atol=1e-12)
    scaled, _ = ea_output(layers, theta, bias, T.Tensor(3.0 * a1))
    assert np.allclose(scaled.data, 3.0 * out1.data, atol=1e-12)


def test_ea_output_agent_permutation_equivariant():
    rng = np.random.default_rng(10)
    layers = random_layers(seed=11, p=6)
    theta = T.Tensor(rng.normal(size=(5, 1)))
    bias = T.Tensor(-0.1)
    alpha = T.Tensor(rng.normal(size=3))
    out, _ = ea_output(layers, theta, bias, alpha)
    perm = rng.permutation(6)
    permuted = [T.Tensor(m.data[:, :, perm]) for m in layers]
    out_p, _ = ea_output(permuted, theta, bias, alpha)
    assert np.allclose(out_p.data, out.data[:, :, perm], atol=1e-12)


def test_ea_output_matches_per_frame_recombination():
    rng = np.random.default_rng(12)
    layers = random_layers(seed=13)
    theta = T.Tensor(rng.normal(size=(5, 1)))
    bias = T.Tensor(0.4)
    alpha = rng.normal(size=3)
    out, _ = ea_output(layers, theta, bias, T.Tensor(alpha))
    frames = recombine_by_frame(layers)
    for f, r_f in enumerate(frames):
        e_f = expert_weights(r_f, theta, bias)
        want = np.zeros((1, 3, 5))
        for l in range(3):
            want += alpha[l] * r_f.data[:, l] * e_f.data[:, l]
        assert np.allclose(out.data[:, f], want, atol=1e-12)


def test_ea_output_alpha_length_check():
    layers = random_layers(seed=14)
    with pytest.raises(DimensionError):
        ea_output(layers, T.Tensor(np.zeros((5, 1))), T.Tensor(0.0), T.Tensor(np.ones(2)))


def test_ea_gradients_wrt_head_parameters():
    layers = random_layers(seed=15)
    rng = np.random.default_rng(16)
    theta = T.Tensor(rng.normal(size=(5, 1)) * 0.3, requires_grad=True)
    bias = T.Tensor(0.5, requires_grad=True)
    alpha = T.Tensor(rng.normal(size=3), requires_grad=True)

    def build():
        out, _ = ea_output(layers, theta, bias, alpha)
        return T.tensor_sum(T.mul(out, out))

    errors = check_gradients(build, {"theta": theta, "bias": bias, "alpha": alpha})
    assert max(errors.values()) < 1e-4


def test_plain_output_is_deepest_layer():
    layers = random_layers(seed=17)
    assert plain_output(layers) is layers[-1]
    assert plain_output(layers[:1]) is layers[0]
    with pytest.raises(ContractError):
        plain_output([])


def test_plain_equals_ea_with_saturated_gate():
    layers = random_layers(seed=18)
    alpha = np.zeros(3)
    alpha[-1] = 1.0
    out, _ = ea_output(layers, T.Tensor(np.zeros((5, 1))), T.Tensor(20.0),
                       T.Tensor(alpha))
    assert np.allclose(out.data, plain_output(layers).data, atol=1e-12)


def test_hedge_state_validation():
    state = HedgeState.uniform(4)
    assert np.allclose(state.w, 0.25)
    with pytest.raises(ConfigError):
        HedgeState.uniform(0)
    with pytest.raises(ConfigError):
        HedgeState(w=np.array([0.5, 0.5]), beta=1.0).validate()
    with pytest.raises(ConfigError):
        HedgeState(w=np.array([0.7, 0.7]), beta=0.9).validate()


def test_hedge_output_weighted_sum():
    layers = random_layers(seed=19)
    state = HedgeState(w=np.array([0.2, 0.3, 0.5]))
    out = hedge_output(layers, state)
    want = 0.2 * layers[0].data + 0.3 * layers[1].data + 0.5 * layers[2].data
    assert np.allclose(out.data, want, atol=1e-12)
    with pytest.raises(DimensionError):
        hedge_output(layers[:2], state)


def test_hedge_update_worked_example():
    state = HedgeState(w=np.array([0.5, 0.5]), beta=0.5, smoothing=0.2)
    updated = hedge_update(state, [0.0, 1.0])
    assert np.allclose(updated.w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_hedge_update_equal_losses_is_identity():
    state = HedgeState(w=np.array([0.1, 0.3, 0.6]), beta=0.9, smoothing=0.2)
    updated = hedge_update(state, [7.0, 7.0, 7.0])
    assert np.allclose(updated.w, state.w, atol=1e-12)


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
