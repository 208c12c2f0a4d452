import math

import numpy as np
import pytest

import oracles
from eanet import tensor as T
from eanet.data import SyntheticScenarioSpec, synthetic_instances
from eanet.errors import ConfigError, DimensionError
from eanet.gradcheck import check_gradients
from eanet.graph import (KERNEL_KINDS, build_adjacency, gcn_forward,
                         instance_graphs, normalize_adjacency)


def pair_weights(kind, v_i, v_j, r_i, r_j, rbf_sigma=1.0):
    """(w_ij, w_ji) of the two-agent frame with positions v and motions r."""
    adjacency = build_adjacency(kind, np.array([v_i, v_j], dtype=float),
                                np.array([r_i, r_j], dtype=float), rbf_sigma)
    return adjacency[0, 1], adjacency[1, 0]


def frame_graphs(inst, kind="motion_trend"):
    """The (T_obs, P, P) graphs of one instance."""
    return instance_graphs(inst.obs_abs.transpose(1, 0, 2), inst.obs_rel.transpose(1, 0, 2), kind)


def test_kernel_coincident_positions_zero_for_every_kind():
    for kind in KERNEL_KINDS:
        assert pair_weights(kind, (1.0, 2.0), (1.0, 2.0), (0.3, 0.1), (-0.2, 0.5)) == (0.0, 0.0)


def test_motion_trend_hand_values():
    assert pair_weights("motion_trend", (0, 0), (3, 4), (0.1, 0.2), (0.1, 0.2))[0] == \
        pytest.approx(0.2, abs=1e-15)
    got = pair_weights("motion_trend", (0, 0), (3, 4), (1, 0), (0, 1))[0]
    assert got == pytest.approx(1.0 / (math.sqrt(2) + 5.0), abs=1e-12)
    assert got == pytest.approx(0.1559, abs=1e-4)


def test_ablation_kernel_values():
    assert pair_weights("inv_dist", (0, 0), (3, 4), (9, 9), (0, 0))[0] == pytest.approx(0.2)
    assert pair_weights("l2", (0, 0), (3, 4), (9, 9), (0, 0))[0] == pytest.approx(5.0)
    assert pair_weights("rbf", (0, 0), (3, 4), (9, 9), (0, 0))[0] == \
        pytest.approx(math.exp(-5.0))
    assert pair_weights("rbf", (0, 0), (3, 4), (9, 9), (0, 0), rbf_sigma=2.0)[0] == \
        pytest.approx(math.exp(-5.0) / 2.0)
    with pytest.raises(ConfigError):
        pair_weights("rbf", (0, 0), (1, 0), (0, 0), (0, 0), rbf_sigma=0.0)
    with pytest.raises(ConfigError):
        pair_weights("cosine", (0, 0), (1, 0), (0, 0), (0, 0))


def test_adjacency_trivial_cases():
    assert np.array_equal(build_adjacency("motion_trend", np.zeros((1, 2)), np.zeros((1, 2))),
                          np.zeros((1, 1)))
    coincident = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(build_adjacency("motion_trend", coincident, np.zeros((2, 2))),
                          np.zeros((2, 2)))


def test_adjacency_three_agent_hand_case():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    adjacency = build_adjacency("motion_trend", positions, np.zeros((3, 2)))
    assert adjacency[0, 1] == pytest.approx(1.0)
    assert adjacency[0, 2] == pytest.approx(0.5)
    assert adjacency[1, 2] == pytest.approx(1.0 / math.sqrt(5.0))
    assert np.array_equal(adjacency, adjacency.T)
    assert np.array_equal(np.diag(adjacency), np.zeros(3))


def test_kernel_symmetry_and_nonnegativity_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v_i, v_j = rng.normal(size=2), rng.normal(size=2)
        r_i, r_j = rng.normal(size=2), rng.normal(size=2)
        for kind in KERNEL_KINDS:
            w_ij, w_ji = pair_weights(kind, v_i, v_j, r_i, r_j)
            assert w_ij == w_ji
            assert w_ij >= 0.0


def test_motion_trend_monotone_in_motion_difference():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v_i, v_j = rng.normal(size=2), rng.normal(size=2) + 3.0
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        small, big = sorted(rng.uniform(0.01, 5.0, size=2))
        if small == big:
            continue
        w_small = pair_weights("motion_trend", v_i, v_j, small * direction, np.zeros(2))[0]
        w_big = pair_weights("motion_trend", v_i, v_j, big * direction, np.zeros(2))[0]
        assert w_big < w_small


def _stacked_frames(agents: int, count: int = 5):
    """Positions and motions of ``count`` instances as (N, T_obs, P, 2),
    transposed from the stacked (N, P, T_obs, 2) instance arrays, so for
    P > 1 neither is C-contiguous. Instance 0 has agents 0 and 1
    coincident."""
    spec = SyntheticScenarioSpec(kind="circle" if agents > 6 else "stagger",
                                 agents=agents, seed=agents)
    instances = synthetic_instances(spec, count)
    obs_abs = np.stack([inst.obs_abs for inst in instances])
    if agents > 1:
        obs_abs[0, 1] = obs_abs[0, 0]
    obs_rel = np.stack([inst.obs_rel for inst in instances])
    return obs_abs.transpose(0, 2, 1, 3), obs_rel.transpose(0, 2, 1, 3)


@pytest.mark.parametrize("agents", [1, 2, 6, 12])
@pytest.mark.parametrize("kind,sigma", [(kind, 1.0) for kind in KERNEL_KINDS] + [("rbf", 0.7)])
def test_batched_graphs_equal_per_frame_graphs_bit_for_bit(kind, sigma, agents):
    positions, motions = _stacked_frames(agents)
    assert agents == 1 or not (positions.flags.c_contiguous or motions.flags.c_contiguous)
    adjacency = build_adjacency(kind, positions, motions, sigma)
    ahat = normalize_adjacency(adjacency)
    assert ahat.shape == positions.shape[:-1] + (agents,)
    for n in range(positions.shape[0]):
        for t in range(positions.shape[1]):
            frame = build_adjacency(kind, positions[n, t], motions[n, t], sigma)
            assert np.array_equal(adjacency[n, t], frame)
            assert np.array_equal(ahat[n, t], normalize_adjacency(frame))
    if agents > 1:
        assert np.array_equal(adjacency[0, :, 0, 1], np.zeros(positions.shape[1]))


@pytest.mark.parametrize("kind,sigma", [(kind, 1.0) for kind in KERNEL_KINDS] + [("rbf", 0.7)])
def test_adjacency_equals_the_linalg_norm_form_bit_for_bit(kind, sigma):
    # Circle scenes with agents 0 and 1 at the same spot, plus random
    # frames over a wide range of scales with one agent doubled.
    positions, motions = _stacked_frames(12)
    assert np.array_equal(build_adjacency(kind, positions, motions, sigma),
                          oracles.build_adjacency(kind, positions, motions, sigma))
    rng = np.random.default_rng(21)
    points = rng.normal(size=(2, 40, 7, 2)) * 10.0 ** rng.integers(-6, 7, size=(2, 40, 1, 1))
    points[:, :, 3] = points[:, :, 5]
    assert np.array_equal(build_adjacency(kind, points[0], points[1], sigma),
                          oracles.build_adjacency(kind, points[0], points[1], sigma))


def test_zero_agents_give_empty_graphs():
    for kind in KERNEL_KINDS:
        assert build_adjacency(kind, np.zeros((0, 2)), np.zeros((0, 2))).shape == (0, 0)
        batched = build_adjacency(kind, np.zeros((3, 8, 0, 2)), np.zeros((3, 8, 0, 2)))
        assert batched.shape == (3, 8, 0, 0)
    assert normalize_adjacency(np.zeros((0, 0))).shape == (0, 0)
    assert normalize_adjacency(np.zeros((3, 8, 0, 0))).shape == (3, 8, 0, 0)


def test_graph_shape_errors():
    bad_pairs = [
        (np.zeros((4, 3)), np.zeros((4, 3))),
        (np.zeros((2, 8, 4, 3)), np.zeros((2, 8, 4, 3))),
        (np.zeros((8, 4, 2)), np.zeros((8, 5, 2))),
        (np.zeros(2), np.zeros(2)),
    ]
    for positions, motions in bad_pairs:
        with pytest.raises(DimensionError, match=r"\(\.\.\., P, 2\)"):
            build_adjacency("motion_trend", positions, motions)
    for adjacency in (np.zeros((2, 3)), np.zeros((8, 4, 3)), np.zeros((2, 8, 3, 4)),
                      np.zeros(4)):
        with pytest.raises(DimensionError, match=r"\(\.\.\., P, P\)"):
            normalize_adjacency(adjacency)


def test_normalize_trivial_and_hand_cases():
    assert np.allclose(normalize_adjacency(np.zeros((4, 4))), np.eye(4), atol=1e-15)
    got = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.max(np.abs(got - 0.5)) < 1e-12


def test_normalize_preserves_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.integers(2, 7)
        raw = rng.uniform(0, 2, size=(p, p))
        adjacency = (raw + raw.T) / 2
        np.fill_diagonal(adjacency, 0.0)
        ahat = normalize_adjacency(adjacency)
        assert np.max(np.abs(ahat - ahat.T)) < 1e-12
        assert np.all(np.isfinite(ahat)) and np.all(ahat >= 0)
    with pytest.raises(DimensionError):
        normalize_adjacency(np.zeros((2, 3)))


def test_frame_graph_invariants():
    rng = np.random.default_rng(3)
    adjacency = build_adjacency("motion_trend", rng.normal(size=(5, 2)),
                                rng.normal(size=(5, 2)))
    normalized = normalize_adjacency(adjacency)
    assert np.array_equal(adjacency, adjacency.T)
    assert np.all(adjacency >= 0)
    assert np.max(np.abs(normalized - normalized.T)) < 1e-12


def test_gcn_zero_weight_gives_half():
    ahat = np.stack([np.eye(3)] * 4)
    x = np.random.default_rng(4).normal(size=(4, 3, 2))
    w = np.zeros((2, 5))
    out, _ = gcn_forward(ahat, x, w)
    assert out.shape == (4, 3, 5)
    assert np.allclose(out, 0.5)


def test_gcn_single_agent_is_dense_layer():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 1, 2))
    w = rng.normal(size=(2, 5))
    ahat = np.ones((2, 1, 1))
    out, _ = gcn_forward(ahat, x, w)
    want = 1.0 / (1.0 + np.exp(-(x @ w)))
    assert np.allclose(out, want, atol=1e-12)


def test_gcn_hand_matrix_chain():
    ahat = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    x = np.array([[[1.0, 0.0], [0.0, 2.0]]])
    w = np.array([[1.0, -1.0], [0.5, 0.25]])
    out, _ = gcn_forward(ahat, x, w)
    pre = ahat[0] @ x[0] @ w
    assert np.allclose(out[0], 1.0 / (1.0 + np.exp(-pre)), atol=1e-12)


def test_gcn_shape_errors():
    w = np.zeros((2, 5))
    with pytest.raises(DimensionError):
        gcn_forward(np.zeros((4, 3, 2)), np.zeros((4, 3, 2)), w)
    with pytest.raises(DimensionError):
        gcn_forward(np.zeros((4, 3, 3)), np.zeros((4, 2, 2)), w)
    with pytest.raises(DimensionError):
        gcn_forward(np.zeros((4, 3, 3)), np.zeros((4, 3, 3)), w)
    with pytest.raises(DimensionError):
        gcn_forward(np.zeros((4, 3, 3)), np.zeros((4, 3, 2)), np.zeros((1, 2, 5)))


@pytest.mark.parametrize("batch", [(), (1,), (3,)])
@pytest.mark.parametrize("features_grad", [False, True])
def test_gcn_matches_the_matmul_sigmoid_chain_bit_for_bit(batch, features_grad):
    # Features are network inputs, so the stage gives them no gradient;
    # the weight's must not depend on whether the chain computes theirs.
    rng = np.random.default_rng(len(batch) * 10 + sum(batch) + features_grad)
    positions = rng.normal(size=batch + (8, 6, 2))
    x = T.Tensor(rng.normal(size=batch + (8, 6, 2)), requires_grad=features_grad)
    ahat = instance_graphs(positions, x.data)
    w = T.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    g = rng.normal(size=batch + (8, 6, 5))

    def run(gcn):
        out = gcn(ahat, x, w)
        T.backward(out, g)
        grads = w.grad, x.grad
        w.zero_grad()
        x.zero_grad()
        return out.data, grads

    (got, got_grads), (want, want_grads) = run(oracles.taped_gcn), run(oracles.gcn_forward)
    assert np.array_equal(got, want)
    assert np.array_equal(got_grads[0], want_grads[0])
    assert got_grads[1] is None and (want_grads[1] is not None) == features_grad


def test_gcn_gradient_wrt_weight():
    rng = np.random.default_rng(6)
    ahat = frame_graphs(synthetic_instances(
        SyntheticScenarioSpec(kind="stagger", agents=4, seed=3), 1)[0])
    x = rng.normal(size=(8, 4, 2))
    w = T.Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    errors = check_gradients(lambda: oracles.tensor_sum(oracles.mul(oracles.taped_gcn(ahat, x, w),
                                                                    oracles.taped_gcn(ahat, x, w))),
                             {"w": w})
    assert max(errors.values()) < 1e-6


def test_translation_invariance():
    # Exact bit equality is out of reach: (x+c)-(y+c) rounds differently
    # than x-y, so the check is at 1e-12 on the weights themselves.
    rng = np.random.default_rng(7)
    positions = rng.normal(size=(5, 2))
    motions = rng.normal(size=(5, 2))
    offset = np.array([123.0, -45.0])
    for kind in KERNEL_KINDS:
        a0 = build_adjacency(kind, positions, motions)
        a1 = build_adjacency(kind, positions + offset, motions)
        assert np.max(np.abs(a0 - a1)) < 1e-12
        assert np.max(np.abs(normalize_adjacency(a0) - normalize_adjacency(a1))) < 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    positions = rng.normal(size=(6, 2))
    motions = rng.normal(size=(6, 2))
    perm = rng.permutation(6)
    for kind in KERNEL_KINDS:
        a = build_adjacency(kind, positions, motions)
        a_perm = build_adjacency(kind, positions[perm], motions[perm])
        assert np.max(np.abs(a_perm - a[np.ix_(perm, perm)])) < 1e-12
        ahat = normalize_adjacency(a)
        ahat_perm = normalize_adjacency(a_perm)
        assert np.max(np.abs(ahat_perm - ahat[np.ix_(perm, perm)])) < 1e-12


def test_instance_graphs_first_frame_has_zero_motion():
    inst = synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=5, seed=4), 1)[0]
    trend = frame_graphs(inst, "motion_trend")
    inv = frame_graphs(inst, "inv_dist")
    assert trend.shape == (8, 5, 5)
    # With zero motions the trend kernel reduces to inverse distance.
    assert np.allclose(trend[0], inv[0], atol=1e-15)
    assert not np.allclose(trend[1], inv[1])
