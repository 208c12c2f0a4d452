import dataclasses
import functools
import math
import operator

import numpy as np
import pytest

from eanet import gaussian, runtime
from eanet import tensor as T
from eanet.data import SyntheticScenarioSpec, frames_for_instances, synthetic_instances
from eanet.errors import ContractError, DimensionError
from eanet.gaussian import (LOG_TWO_PI, RHO_GUARD, ade_fde, best_of_k, decode_gaussian,
                            layer_nll, mu_trajectory, nll_loss, restore_ratio,
                            sample_trajectories)
from eanet.model import ModelConfig, TrajectoryModel
from eanet.runtime import STRATEGIES, OnlineConfig, TrainConfig, run_online, train_offline
from eanet.rng import (_BLOCK, _BLOCK_TABLES, _CHUNK, _LANE, _LANE_TABLES, _MASK64, _MULTIPLIER,
                       _INV_2_53, _ZERO_SEED_STATE, Xorshift64Star, _lookup, logs,
                       unit_vectors)
from oracles import (add, assert_equals_math_map, div, exp, getitem, log, mean, mul, next_u64,
                     normal_pair, shuffle, sub, sum_axis, tanh, uniform)


def field_from_raw(raw):
    return decode_gaussian(T.Tensor(raw))


def random_field(n=1, t=4, p=3, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return field_from_raw(rng.normal(size=(n, t, p, 5)) * scale), rng


def field_like(samples):
    """A field whose draws have the (K, P, T, 2) shape of ``samples``, for
    tests that patch in hand-built samples."""
    _, p, t, _ = samples.shape
    return field_from_raw(np.zeros((1, t, p, 5)))


def test_decode_trivial():
    field = field_from_raw(np.zeros((1, 2, 3, 5)))
    assert np.array_equal(field.mu, np.zeros((1, 2, 3, 2)))
    assert np.array_equal(field.sigma, np.ones((1, 2, 3, 2)))
    assert np.array_equal(field.rho, np.zeros((1, 2, 3, 1)))


def test_decode_log_two_sigma():
    raw = np.zeros((1, 1, 1, 5))
    raw[..., 2] = math.log(2.0)
    field = field_from_raw(raw)
    assert field.sigma[0, 0, 0, 0] == pytest.approx(2.0, abs=1e-12)


def test_decode_always_valid_covariance():
    rng = np.random.default_rng(1)
    field = field_from_raw(rng.normal(size=(1, 5, 4, 5)) * 3)
    assert np.all(field.sigma > 0)
    assert np.all(np.abs(field.rho) < 1.0)
    det = (field.sigma[..., 0] ** 2 * field.sigma[..., 1] ** 2
           * (1 - field.rho[..., 0] ** 2))
    assert np.all(det > 0)
    # tanh saturates to exactly 1.0 in f64 for very large inputs; the NLL
    # clamp on 1 - rho^2 is what keeps that case finite.
    extreme = field_from_raw(np.full((1, 1, 1, 5), 100.0))
    assert abs(extreme.rho[0, 0, 0, 0]) <= 1.0


def test_decode_shape_check():
    with pytest.raises(DimensionError):
        decode_gaussian(T.Tensor(np.zeros((1, 2, 3, 4))))


def test_nll_standard_normal_anchor():
    field = field_from_raw(np.zeros((1, 12, 3, 5)))
    loss = nll_loss(field, np.zeros((3, 12, 2)))
    assert abs(loss.item() - 12.0 * math.log(2.0 * math.pi)) < 1e-9
    assert loss.item() == pytest.approx(22.0545, abs=1e-4)


def test_nll_doubling_sigma_adds_log4_per_frame():
    raw = np.zeros((1, 12, 2, 5))
    base = nll_loss(field_from_raw(raw), np.zeros((2, 12, 2))).item()
    raw2 = raw.copy()
    raw2[..., 2] = math.log(2.0)
    raw2[..., 3] = math.log(2.0)
    doubled = nll_loss(field_from_raw(raw2), np.zeros((2, 12, 2))).item()
    assert doubled - base == pytest.approx(12.0 * math.log(4.0), abs=1e-9)


def test_nll_gradient_zero_at_target():
    raw = T.Tensor(np.zeros((1, 4, 2, 5)), requires_grad=True)
    field = decode_gaussian(raw)
    loss = nll_loss(field, np.zeros((2, 4, 2)))
    T.backward(loss)
    assert np.allclose(raw.grad[..., 0:2], 0.0, atol=1e-12)


def test_nll_matches_direct_density_evaluation():
    field, rng = random_field(seed=2)
    target = rng.normal(size=(3, 4, 2))
    got = nll_loss(field, target).item()

    mu = field.mu[0]
    sigma = field.sigma[0]
    rho = field.rho[0][..., 0]
    total = 0.0
    for a in range(3):
        agent_sum = 0.0
        for f in range(4):
            sx, sy = sigma[f, a]
            r = rho[f, a]
            dx = target[a, f, 0] - mu[f, a, 0]
            dy = target[a, f, 1] - mu[f, a, 1]
            z = (dx / sx) ** 2 + (dy / sy) ** 2 - 2 * r * dx * dy / (sx * sy)
            density = math.exp(-z / (2 * (1 - r * r))) / (
                2 * math.pi * sx * sy * math.sqrt(1 - r * r))
            agent_sum += -math.log(density)
        total += agent_sum
    assert abs(got - total / 3.0) < 1e-9


def test_nll_target_shape_check():
    field = field_from_raw(np.zeros((1, 4, 2, 5)))
    with pytest.raises(DimensionError):
        nll_loss(field, np.zeros((2, 5, 2)))


def test_nll_finite_at_extreme_rho():
    raw = np.zeros((1, 2, 1, 5))
    raw[..., 4] = 50.0
    field = field_from_raw(raw)
    loss = nll_loss(field, np.ones((1, 2, 2)))
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# `nll_loss` against the chain of elementwise tape primitives it replaced


def taped_clamp_below(a, lo):
    """Clip from below on the tape: gradient 1 where the value passed
    through, 0 where it was clipped."""
    mask = np.ones_like(a.data) * (a.data >= lo)
    return T._make(np.clip(a.data, lo, None), (a,), lambda g: T._accumulate(a, g * mask))


def taped_nll(raw, target_rel):
    """Oracle for ``nll_loss(decode_gaussian(raw), target_rel)``: the
    taped decode (5 records) and NLL (30 records) it fused."""
    mu = getitem(raw, np.s_[..., 0:2])
    sigma = exp(getitem(raw, np.s_[..., 2:4]))
    rho = tanh(getitem(raw, np.s_[..., 4:5]))
    target_rel = np.asarray(target_rel, dtype=np.float64)
    n, t, p = raw.shape[:3]
    if target_rel.shape == (p, t, 2):
        target_rel = np.broadcast_to(target_rel[None], (n, p, t, 2))
    target = T.Tensor(np.ascontiguousarray(target_rel.transpose(0, 2, 1, 3)))

    dx = sub(getitem(target, np.s_[..., 0:1]), getitem(mu, np.s_[..., 0:1]))
    dy = sub(getitem(target, np.s_[..., 1:2]), getitem(mu, np.s_[..., 1:2]))
    sx = getitem(sigma, np.s_[..., 0:1])
    sy = getitem(sigma, np.s_[..., 1:2])
    zx = div(dx, sx)
    zy = div(dy, sy)
    z = sub(add(mul(zx, zx), mul(zy, zy)),
            mul(mul(rho, 2.0), mul(zx, zy)))
    one_minus = taped_clamp_below(sub(1.0, mul(rho, rho)), RHO_GUARD)
    log_norm = add(add(log(sx), log(sy)),
                   add(mul(log(one_minus), 0.5), LOG_TWO_PI))
    per_frame = add(log_norm, div(z, mul(one_minus, 2.0)))
    return mean(sum_axis(per_frame, axis=1))


def random_raw(rng, n, t, p):
    """Raws over a wide range, with about one rho in four where RHO_GUARD
    binds: |raw| in [15, 18], where 1 - rho^2 is below the guard but
    not 0, so the clamp alone stops the gradient, or |raw| >= 20, where
    tanh rounds to +-1."""
    raw = rng.normal(size=(n, t, p, 5)) * rng.choice([0.3, 1.0, 3.0], size=(n, t, p, 5))
    pinned = rng.random(size=(n, t, p)) < 0.25
    size = int(pinned.sum())
    magnitude = np.where(rng.random(size) < 0.5, rng.uniform(15, 18, size),
                         rng.uniform(20, 40, size))
    raw[..., 4][pinned] = rng.choice([-1.0, 1.0], size=size) * magnitude
    return raw


def test_nll_loss_is_one_record_bit_identical_to_the_taped_chain():
    rng = np.random.default_rng(21)
    guarded = saturated = 0
    for n in (1, 3):
        for p in (1, 6, 12):
            for batch_target in (False, True):
                raw = random_raw(rng, n, 12, p)
                target = rng.normal(size=(n, p, 12, 2) if batch_target else (p, 12, 2))
                weight = rng.uniform(0.1, 2.0)
                fused = T.Tensor(raw.copy(), requires_grad=True)
                oracle = T.Tensor(raw.copy(), requires_grad=True)
                got = nll_loss(decode_gaussian(fused), target)
                assert len(T.tape()) == 1
                T.backward(got, weight)
                want = taped_nll(oracle, target)
                assert len(T.tape()) == 35
                T.backward(want, weight)
                assert np.array_equal(got.data, want.data)
                assert np.array_equal(fused.grad, oracle.grad)
                rho = np.tanh(raw[..., 4])
                guarded += int(np.sum((1.0 - rho * rho < RHO_GUARD) & (np.abs(rho) < 1.0)))
                saturated += int(np.sum(np.abs(rho) == 1.0))
    assert guarded > 0 and saturated > 0


def test_per_item_nll_is_each_items_loss_bit_for_bit():
    rng = np.random.default_rng(23)
    for p in (1, 6, 12):
        for batch_target in (False, True):
            raw = random_raw(rng, 3, 12, p)
            target = rng.normal(size=(3, p, 12, 2) if batch_target else (p, 12, 2))
            weight = rng.uniform(-2.0, 2.0, size=3)
            fused = T.Tensor(raw.copy(), requires_grad=True)
            got = nll_loss(decode_gaussian(fused), target, per_item=True)
            T.backward(got, weight)
            for i in range(3):
                item = T.Tensor(raw[i:i + 1].copy(), requires_grad=True)
                want = taped_nll(item, target[i] if batch_target else target)
                T.backward(want, weight[i])
                assert got.data[i] == want.item()
                assert np.array_equal(fused.grad[i], item.grad[0])


def test_layer_nll_equals_a_loop_of_nll_loss():
    # In C order and in the (N, L, P, T, D) memory order of a
    # stack_forward block; each layer is scored as the block's slice.
    rng = np.random.default_rng(22)
    for p in (1, 6, 12):
        stacked = np.stack([random_raw(rng, 1, 12, p) for _ in range(5)], axis=1)
        rows = np.ascontiguousarray(stacked.transpose(0, 1, 3, 2, 4)).transpose(0, 1, 3, 2, 4)
        target = rng.normal(size=(p, 12, 2))
        for data in (stacked, rows):
            with T.no_grad():
                want = [nll_loss(decode_gaussian(T.Tensor(data[:, l])), target).item()
                        for l in range(5)]
            got = layer_nll(data, target)
            assert got.shape == (5,) and np.array_equal(got, want)
            assert len(T.tape()) == 0
    with pytest.raises(DimensionError):
        layer_nll(np.zeros((2, 5, 12, 3, 5)), target)


def oracle_layer_nll(block, target_rel):
    with T.no_grad():
        return [taped_nll(T.Tensor(block[:, l]), target_rel).item()
                for l in range(block.shape[1])]


def test_online_replay_is_bit_identical_to_the_taped_chain(monkeypatch):
    stream = synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=4, seed=3), 20)

    def replay(strategy):
        model = TrajectoryModel(ModelConfig(), seed=2)
        result = run_online(model, stream, OnlineConfig(strategy=strategy, seed=1,
                                                        updates_per_instance=2))
        return ([dataclasses.astuple(r) for r in result.records], result.health,
                {name: p.data.copy() for name, p in model.params.items()})

    fused = {strategy: replay(strategy) for strategy in STRATEGIES}
    monkeypatch.setattr(runtime, "nll_loss", lambda field, target: taped_nll(field.raw, target))
    monkeypatch.setattr(runtime, "layer_nll", oracle_layer_nll)
    for strategy in STRATEGIES:
        records, health, params = replay(strategy)
        assert records == fused[strategy][0], strategy
        assert health == fused[strategy][1], strategy
        for name, data in params.items():
            assert np.array_equal(data, fused[strategy][2][name]), (strategy, name)


def test_training_is_bit_identical_to_the_taped_chain(monkeypatch):
    # Two agent counts: each batch sums two weighted group losses.
    data = [inst for agents in (3, 5) for inst in synthetic_instances(
        SyntheticScenarioSpec(kind="oneway", agents=agents, seed=agents), 12)]
    config = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=4)
    fused = train_offline(data, config, ModelConfig(stack_layers=2))
    monkeypatch.setattr(runtime, "nll_loss", lambda field, target: taped_nll(field.raw, target))
    oracle = train_offline(data, config, ModelConfig(stack_layers=2))
    assert fused.loss_log == oracle.loss_log
    for name, p in fused.model.params.items():
        assert np.array_equal(p.data, oracle.model.params[name].data), name


def test_mu_trajectory_cumsum():
    raw = np.zeros((1, 3, 2, 5))
    raw[0, :, 0, 0] = 1.0
    raw[0, :, 1, 1] = -2.0
    field = field_from_raw(raw)
    origin = np.array([[10.0, 0.0], [0.0, 5.0]])
    pred = mu_trajectory(field, origin)
    assert np.allclose(pred[0], [[11, 0], [12, 0], [13, 0]])
    assert np.allclose(pred[1], [[0, 3], [0, 1], [0, -1]])


def test_mu_trajectory_refuses_a_batch_as_sampling_does():
    # A second sequence used to be dropped: the result was sequence 0's.
    field, _ = random_field(n=2, seed=7)
    origin = np.zeros((3, 2))
    with pytest.raises(ContractError, match="N = 2"):
        mu_trajectory(field, origin)
    with pytest.raises(ContractError, match="N = 2"):
        sample_trajectories(field, 1, seed=0, origin_abs=origin)


def loop_sample_trajectories(field, k, seed, origin_abs):
    """Scalar oracle for `sample_trajectories`: one `normal_pair` per
    draw, sample-major, then agent, then frame."""
    mu = field.mu[0].transpose(1, 0, 2)
    sigma = field.sigma[0].transpose(1, 0, 2)
    rho = field.rho[0].transpose(1, 0, 2)[..., 0]
    p, t = mu.shape[0], mu.shape[1]
    origin = np.asarray(origin_abs, dtype=np.float64).reshape(p, 1, 2)
    rng = Xorshift64Star(seed)
    out = np.empty((k, p, t, 2))
    for s in range(k):
        rel = np.empty((p, t, 2))
        for a in range(p):
            for f in range(t):
                z0, z1 = normal_pair(rng)
                sx, sy = sigma[a, f]
                r = rho[a, f]
                tail = sy * math.sqrt(max(1.0 - r * r, RHO_GUARD))
                rel[a, f, 0] = mu[a, f, 0] + sx * z0
                rel[a, f, 1] = mu[a, f, 1] + r * sy * z0 + tail * z1
        out[s] = origin + np.cumsum(rel, axis=1)
    return out


def loop_best_of_k(samples, truth):
    """Scalar oracle for `best_of_k`: keep a sample only when its ADE is
    strictly below the best so far."""
    best = None
    for s in range(len(samples)):
        ade, fde = ade_fde(samples[s], truth)
        if best is None or ade < best[0]:
            best = (ade, fde)
    return best


def _unshift(y, shift):
    """Inverse of x -> x ^ (x >> shift) (shift > 0) or x ^ (x << -shift)."""
    x = y
    for _ in range(64):
        x = y ^ ((x >> shift) if shift > 0 else ((x << -shift) & _MASK64))
    return x


# States per block-table lookup in `uniforms`.
_SPAN = _LANE * _BLOCK

# 2n states just below, at and just above one lane and one anchor block,
# and just above two of each; the block edges as pair counts too; then the
# eval shape (20 samples x 12 agents x 12 frames) and a long chain.
_PAIR_COUNTS = (0, 1, 2, _LANE // 2 - 1, _LANE // 2, _LANE // 2 + 1, _LANE + 1,
                _SPAN // 2 - 1, _SPAN // 2, _SPAN // 2 + 1, _SPAN - 1, _SPAN, _SPAN + 1,
                2 * _SPAN + 1, 1000, 2880, 40000)


def test_normal_pairs_equal_scalar_draws_and_leave_the_same_state():
    for seed in (0, 1, 9, 2**64 - 1):
        for n in _PAIR_COUNTS:
            scalar, batch = Xorshift64Star(seed), Xorshift64Star(seed)
            want = np.array([normal_pair(scalar) for _ in range(n)]).reshape(n, 2)
            got = batch.normal_pairs(n)
            assert np.array_equal(got, want)
            # The transpose view of box_muller's (2, n) planes.
            assert got.T.flags.c_contiguous
            assert batch.state == scalar.state


@pytest.mark.parametrize("n", [0, 1, 2, _LANE - 1, _LANE, _LANE + 1,
                               2 * _LANE - 1, 2 * _LANE, 2 * _LANE + 1,
                               _SPAN - 1, _SPAN, _SPAN + 1, 2 * _SPAN + 1,
                               _CHUNK * _LANE, _CHUNK * _LANE + 1])
def test_uniforms_equal_scalar_draws_and_leave_the_same_state(n):
    for seed in (0, 1, 9, 2**64 - 1):
        scalar, batch = Xorshift64Star(seed), Xorshift64Star(seed)
        want = np.array([uniform(scalar) for _ in range(n)], dtype=np.float64)
        got = batch.uniforms(n)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert batch.state == scalar.state


@pytest.mark.parametrize("n", [0, 1, 2, 3, 33, 2000])
def test_shuffle_equals_the_scalar_fisher_yates_and_leaves_the_same_state(n):
    for seed in (0, 1, 9, 2**64 - 1):
        scalar, batch = Xorshift64Star(seed), Xorshift64Star(seed)
        want, got = list(range(n)), list(range(n))
        shuffle(scalar, want)
        batch.shuffle(got)
        assert got == want
        assert batch.state == scalar.state
        # The next draws agree too, so a second epoch's shuffle does.
        assert next_u64(batch) == next_u64(scalar)


def test_uniforms_reject_a_negative_count_and_keep_the_state():
    rng = Xorshift64Star(5)
    with pytest.raises(ValueError, match="non-negative count"):
        rng.uniforms(-1)
    assert rng.state == Xorshift64Star(5).state


def test_table_columns_equal_that_many_single_steps():
    """Column k of the lane tables is k + 1 steps on, and column j of the
    block tables (j + 1) * _LANE steps on. Beside fixed and seeded states,
    the states with every byte equal to v reach every table entry."""
    seeded = Xorshift64Star(2024)
    states = ([1, 2**64 - 1, _ZERO_SEED_STATE, 1 << 63] + [next_u64(seeded) for _ in range(4)]
              + [v * 0x0101010101010101 for v in range(1, 256)])
    words = np.array(states, dtype=np.uint64)
    lanes, blocks = _lookup(_LANE_TABLES, words), _lookup(_BLOCK_TABLES, words)
    assert lanes.shape == (len(states), _LANE) and blocks.shape == (len(states), _BLOCK)
    rng = Xorshift64Star()
    for row, state in enumerate(states):
        rng.state = state
        steps = []
        for _ in range(_SPAN):
            next_u64(rng)
            steps.append(rng.state)
        assert lanes[row].tolist() == steps[:_LANE]
        assert blocks[row].tolist() == steps[_LANE - 1::_LANE]


def test_unit_vectors_equal_math_cos_and_sin_bit_for_bit():
    """`unit_vectors` uses numpy's float64 cos and sin because they call
    the same C library as `math`. This holds them to the `math` map they
    replaced on 1.6e6 angles: Box-Muller's 2 pi u, circle-scene angles, and
    stagger headings that turn either way or only clockwise, over as many
    frames as the longest scene the tests and the benchmark generate."""
    frames = frames_for_instances(2000)
    spec = SyntheticScenarioSpec(kind="circle")
    u = Xorshift64Star(31).uniforms(4 * 400_000).reshape(4, 400_000)
    sign = np.where(u[2] < 0.5, 1.0, -1.0)
    omega = spec.speed / (spec.extent / 2.0)
    circle = 2.0 * math.pi * u[1] + sign * omega * (np.arange(400_000) % frames)
    turns = frames // spec.period
    agents = 400_000 // turns
    start = 2.0 * math.pi * u[0, None, :agents]
    deltas = (math.pi / 4.0 + u[3, :turns * agents] * math.pi / 4.0).reshape(turns, agents)
    turning = np.cumsum(np.concatenate([start, sign[:deltas.size].reshape(deltas.shape) * deltas]), axis=0)
    clockwise = np.cumsum(np.concatenate([start, -deltas]), axis=0)
    assert clockwise.min() < -turns
    for angles in (2.0 * math.pi * u[0], circle.reshape(-1, 16), turning, clockwise):
        got = unit_vectors(angles)
        for column, fn in enumerate((math.cos, math.sin)):
            assert_equals_math_map(got[..., column], angles, fn,
                                   "unit_vectors must go back to math.cos and math.sin")


# The zero-uniform guard, the top uniform, glibc's switch to its near-1
# branch at 1 - 1/16 and 1 + 1/16 with the values on either side, the
# smallest normal and subnormal inputs, and a dense walk through the
# near-1 band.
_LOG_EDGES = np.concatenate([
    [_INV_2_53, 1.0 - _INV_2_53, 0.5, 1.0, 1.0 + 2.0 ** -52, 2.0 ** -1022, 2.0 ** -1074,
     3 * 2.0 ** -1074, 1e-310, 1e300, 1.7976931348623157e308],
    [np.nextafter(edge, towards) for edge in (0.9375, 1.0625) for towards in (0.0, 2.0)],
    [0.9375, 1.0625],
    np.linspace(0.9375 - 2.0 ** -20, 1.0625 + 2.0 ** -20, 200_001),
])


def test_box_muller_log_equals_math_log_bit_for_bit():
    """`box_muller` takes its log from `logs`, numpy's scalar loop, because
    it calls the same C library as `math.log`. This holds it to the
    `math.log` map it replaced on 4.2e6 uniforms from three seeds, in the
    two layouts the package passes (every other entry of a fresh
    `uniforms` array, as `normal_pairs` does, and of a gathered copy, as
    `data._scene` does), and on the edge table, on its own and
    interleaved."""
    fallback = "box_muller must go back to mapping math.log"
    for seed in (1, 2, 3):
        u = Xorshift64Star(seed).uniforms(1_400_000)
        assert_equals_math_map(logs(u[0::2]), u[0::2], math.log, fallback)
        gathered = u[np.arange(2, len(u) - 1, 4)[:, None] + np.arange(2)].ravel()
        assert_equals_math_map(logs(gathered[0::2]), gathered[0::2], math.log, fallback)
    interleaved = np.repeat(_LOG_EDGES, 2)
    assert_equals_math_map(logs(_LOG_EDGES), _LOG_EDGES, math.log, fallback)
    assert_equals_math_map(logs(interleaved[0::2]), _LOG_EDGES, math.log, fallback)


def test_best_of_k_and_synthetic_instances_never_call_math_log(monkeypatch):
    calls = []
    math_log = math.log

    def counted(*args):
        calls.append(args)
        return math_log(*args)

    monkeypatch.setattr(math, "log", counted)
    field, rng = random_field(t=12, p=12, seed=20)
    truth = rng.normal(size=(12, 12, 2))
    best_of_k(field, truth, 20, seed=3, origin_abs=np.zeros((12, 2)))
    for kind in ("oneway", "stagger", "circle"):
        synthetic_instances(SyntheticScenarioSpec(kind=kind, seed=4), 30)
    assert calls == []
    # The counter sees the scalar draw.
    normal_pair(Xorshift64Star(1))
    assert len(calls) == 1


def test_normal_pairs_reject_a_negative_count_and_keep_the_state():
    rng = Xorshift64Star(5)
    with pytest.raises(ValueError, match="non-negative count"):
        rng.normal_pairs(-1)
    assert rng.state == Xorshift64Star(5).state


def test_normal_pairs_keep_the_zero_uniform_guard():
    # A state whose output word is 1 gives u1 = 0; step back once so that
    # the first draw lands on it.
    target = pow(_MULTIPLIER, -1, 1 << 64)
    assert (target * _MULTIPLIER) & _MASK64 == 1
    before = _unshift(_unshift(_unshift(target, 27), -25), 12)
    scalar, batch = Xorshift64Star(), Xorshift64Star()
    scalar.state = before
    batch.state = before
    want = np.array([normal_pair(scalar) for _ in range(3)])
    got = batch.normal_pairs(3)
    assert np.array_equal(got, want) and np.all(np.isfinite(got))
    radius = math.sqrt(-2.0 * math.log(2.0 ** -53))
    assert math.hypot(*want[0]) == pytest.approx(radius, rel=1e-12)
    assert batch.state == scalar.state


def test_sampling_is_bit_identical_to_the_scalar_loop():
    rng = np.random.default_rng(12)
    shapes = [(1, 1, 1), (1, 3, 4), (5, 1, 6), (4, 3, 1), (20, 12, 12)]
    shapes += [tuple(int(v) for v in rng.integers(1, 9, size=3)) for _ in range(15)]
    for i, (k, p, t) in enumerate(shapes):
        raw = rng.normal(size=(1, t, p, 5)) * (0.5, 2.0, 8.0)[i % 3]
        if i % 4 == 3:
            raw[..., 4] = 40.0  # |rho| rounds to 1: the RHO_GUARD branch
        field = field_from_raw(raw)
        origin = rng.normal(size=(p, 2)) * 5.0
        seed = 0 if i == 0 else int(rng.integers(0, 2**63))
        got = sample_trajectories(field, k, seed=seed, origin_abs=origin)
        assert got.shape == (k, p, t, 2)
        assert got.transpose(3, 0, 1, 2).flags.c_contiguous
        assert np.array_equal(got, loop_sample_trajectories(field, k, seed, origin))


def test_sampling_degenerate_sigma_hits_mu():
    raw = np.random.default_rng(3).normal(size=(1, 4, 2, 5)) * 0.3
    raw[..., 2:4] = math.log(1e-9)
    raw[..., 4] = 0.0
    field = field_from_raw(raw)
    origin = np.zeros((2, 2))
    samples = sample_trajectories(field, 5, seed=1, origin_abs=origin)
    want = mu_trajectory(field, origin)
    assert samples.shape == (5, 2, 4, 2)
    for s in range(5):
        assert np.allclose(samples[s], want, atol=1e-6)


def test_sampling_same_seed_identical():
    field, _ = random_field(seed=4)
    origin = np.zeros((3, 2))
    a = sample_trajectories(field, 7, seed=9, origin_abs=origin)
    b = sample_trajectories(field, 7, seed=9, origin_abs=origin)
    assert np.array_equal(a, b)
    c = sample_trajectories(field, 7, seed=10, origin_abs=origin)
    assert not np.array_equal(a, c)


def test_sampling_nested_streams():
    field, _ = random_field(seed=5)
    origin = np.zeros((3, 2))
    k = sample_trajectories(field, 6, seed=2, origin_abs=origin)
    k_plus = sample_trajectories(field, 7, seed=2, origin_abs=origin)
    assert np.array_equal(k, k_plus[:6])


def test_sampling_monte_carlo_mean():
    raw = np.zeros((1, 1, 1, 5))
    raw[0, 0, 0, 0] = 0.7
    raw[0, 0, 0, 1] = -0.4
    raw[..., 4] = 0.5
    field = field_from_raw(raw)
    k = 100_000
    samples = sample_trajectories(field, k, seed=3, origin_abs=np.zeros((1, 2)))
    mean = samples[:, 0, 0, :].mean(axis=0)
    bound = 3.0 / math.sqrt(k)
    assert abs(mean[0] - 0.7) < bound
    assert abs(mean[1] + 0.4) < bound


def test_sampling_correlation_structure():
    raw = np.zeros((1, 1, 1, 5))
    raw[..., 4] = 2.0
    want_rho = math.tanh(2.0)
    field = field_from_raw(raw)
    samples = sample_trajectories(field, 50_000, seed=4, origin_abs=np.zeros((1, 2)))
    xy = samples[:, 0, 0, :]
    got = np.corrcoef(xy[:, 0], xy[:, 1])[0, 1]
    assert abs(got - want_rho) < 0.02


def test_ade_fde_zero_and_offset():
    rng = np.random.default_rng(6)
    truth = rng.normal(size=(4, 12, 2))
    assert ade_fde(truth, truth) == (0.0, 0.0)
    pred = truth + np.array([3.0, 4.0])
    ade, fde = ade_fde(pred, truth)
    assert ade == 5.0 and fde == 5.0


def test_ade_fde_matches_double_loop_exactly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, t = rng.integers(1, 6), rng.integers(1, 14)
        pred = rng.normal(size=(p, t, 2))
        truth = rng.normal(size=(p, t, 2))
        got_ade, got_fde = ade_fde(pred, truth)
        total = 0.0
        last = 0.0
        for a in range(p):
            for f in range(t):
                d = math.hypot(pred[a, f, 0] - truth[a, f, 0],
                               pred[a, f, 1] - truth[a, f, 1])
                total += d
                if f == t - 1:
                    last += d
        assert got_ade == total / (p * t)
        assert got_fde == last / p


def test_ade_fde_point_errors_are_math_hypot():
    # np.hypot rounds about one input in 200 differently from math.hypot;
    # single-point trajectories expose that where long sums can absorb it.
    pred, truth = np.random.default_rng(14).normal(size=(2, 4000, 1, 1, 2))
    for a, b in zip(pred, truth):
        want = math.hypot(a[0, 0, 0] - b[0, 0, 0], a[0, 0, 1] - b[0, 0, 1])
        assert ade_fde(a, b) == (want, want)


def counted_hypot(monkeypatch):
    """The list that every later `math.hypot` call appends its arguments to."""
    calls = []
    hypot = math.hypot

    def counted(x, y):
        calls.append((x, y))
        return hypot(x, y)

    monkeypatch.setattr(math, "hypot", counted)
    return calls


def test_best_of_k_on_finite_samples_calls_math_hypot_once_per_candidate_point(monkeypatch):
    calls = counted_hypot(monkeypatch)
    field, rng = random_field(t=12, p=12, seed=20)
    truth = rng.normal(size=(12, 12, 2))
    best_of_k(field, truth, 20, seed=3, origin_abs=np.zeros((12, 2)))
    # One candidate of 20 samples: one sample's 144 points.
    assert len(calls) == 144
    # The scalar metric, and a NaN point that makes both samples exact.
    ade_fde(truth + 1.0, truth)
    assert len(calls) == 2 * 144
    samples = sample_trajectories(field, 2, seed=3, origin_abs=np.zeros((12, 2)))
    samples[1, 4, 7, 0] = np.nan
    monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: samples)
    best_of_k(field, truth, 2, seed=3, origin_abs=None)
    assert len(calls) == 4 * 144


def test_ade_fde_translation_invariant():
    rng = np.random.default_rng(8)
    pred = rng.normal(size=(3, 5, 2))
    truth = rng.normal(size=(3, 5, 2))
    base = ade_fde(pred, truth)
    moved = ade_fde(pred + [17.0, -6.0], truth + [17.0, -6.0])
    assert base[0] == pytest.approx(moved[0], abs=1e-9)
    assert base[1] == pytest.approx(moved[1], abs=1e-9)


def test_ade_fde_shape_check():
    with pytest.raises(DimensionError):
        ade_fde(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))
    for empty in ((0, 3, 2), (2, 0, 2)):
        with pytest.raises(DimensionError):
            ade_fde(np.zeros(empty), np.zeros(empty))
    field, _ = random_field(seed=15)
    with pytest.raises(DimensionError):
        best_of_k(field, np.zeros((3, 5, 2)), 2, seed=0, origin_abs=np.zeros((3, 2)))


def test_best_of_k_single_sample():
    field, rng = random_field(seed=9)
    origin = np.zeros((3, 2))
    truth = rng.normal(size=(3, 4, 2))
    report = best_of_k(field, truth, 1, seed=5, origin_abs=origin)
    sample = sample_trajectories(field, 1, seed=5, origin_abs=origin)[0]
    ade, fde = ade_fde(sample, truth)
    assert report.ade == ade and report.fde == fde


def test_best_of_k_min_property_and_monotonicity():
    field, rng = random_field(seed=10)
    origin = np.zeros((3, 2))
    truth = rng.normal(size=(3, 4, 2))
    samples = sample_trajectories(field, 8, seed=6, origin_abs=origin)
    report = best_of_k(field, truth, 8, seed=6, origin_abs=origin)
    for s in range(8):
        assert report.ade <= ade_fde(samples[s], truth)[0]
    previous = math.inf
    for k in (1, 2, 4, 8):
        r = best_of_k(field, truth, k, seed=6, origin_abs=origin)
        assert r.ade <= previous + 1e-15
        previous = r.ade


def test_best_of_k_matches_the_first_minimum_loop():
    rng = np.random.default_rng(13)
    for i in range(12):
        k, p, t = (int(v) for v in rng.integers(1, 9, size=3))
        if i % 3 == 2:
            k, p, t = 8, 1, 2
        raw = rng.normal(size=(1, t, p, 5))
        if i % 3 == 2:
            # Infinite sigma: a sample's ADE is inf, or NaN where opposite
            # infinities meet in the running sum.
            raw[..., 2:4] = 800.0
        origin = rng.normal(size=(p, 2))
        truth = rng.normal(size=(p, t, 2))
        with np.errstate(all="ignore"):
            field = field_from_raw(raw)
            report = best_of_k(field, truth, k, seed=i, origin_abs=origin)
            samples = sample_trajectories(field, k, seed=i, origin_abs=origin)
            want = loop_best_of_k(samples, truth)
        assert np.array_equal([report.ade, report.fde], want, equal_nan=True)


def test_best_of_k_takes_the_first_minimum_and_skips_nan(monkeypatch):
    truth = np.zeros((1, 2, 2))
    # Per-frame errors (1, 2) and (2, 1): tied ADE 1.5, FDE 2 and 1.
    late = np.array([[[1.0, 0.0], [2.0, 0.0]]])
    early = np.array([[[2.0, 0.0], [1.0, 0.0]]])
    nan = np.full((1, 2, 2), np.nan)
    cases = [
        ([2.0 * late, late, early], (1.5, 2.0)),
        ([early, late, late], (1.5, 1.0)),
        ([late, nan, early], (1.5, 2.0)),
        ([nan, late, early], (math.nan, math.nan)),
    ]
    for samples, want in cases:
        samples = np.stack(samples)
        monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: samples)
        report = best_of_k(field_like(samples), truth, len(samples), seed=0, origin_abs=None)
        assert np.array_equal([report.ade, report.fde], want, equal_nan=True)
        assert np.array_equal(want, loop_best_of_k(samples, truth), equal_nan=True)


# Below half an ulp of 1.0, so adding one to a running sum of 1.0 rounds
# back to 1.0: an in-order sum of [1.0] + [_STUCK] * m stays 1.0, while
# the true sum, and so any accurate filter, grows by m * _STUCK.
_STUCK = 2.0 ** -53 - 2.0 ** -63


def near_tie_samples(k, p, t, order):
    """(k, p, t, 2) x-only point errors against a zero truth: sample
    ``order[0]`` has an exact sum of 1.0 and a true sum of
    1 + (p t - 1) _STUCK; sample ``order[1]`` has an exact sum 4 ulps
    above 1.0 and a true sum barely above that; the rest lie far away."""
    samples = np.zeros((k, p * t, 2))
    samples[:, :, 0] = 2.0
    stuck, sharp = order
    samples[stuck, :, 0] = _STUCK
    samples[stuck, 0, 0] = 1.0
    samples[sharp, :, 0] = 2.0 ** -60
    samples[sharp, 0, 0] = 1.0 + 4 * 2.0 ** -52
    return samples.reshape(k, p, t, 2)


def exact_and_true_sums(sample):
    """The in-order sum of a sample's `math.hypot` point errors, as the
    ADE takes it, and their correctly rounded sum."""
    err = list(map(math.hypot, sample[..., 0].ravel().tolist(), sample[..., 1].ravel().tolist()))
    return functools.reduce(operator.add, err), math.fsum(err)


def test_best_of_k_lets_the_exact_order_decide_near_ties(monkeypatch):
    # At the eval shape the true lengths put one sample first and the
    # exact in-order sums the other; the exact order is what the scan
    # reports, in either position, and an exact tie goes to the first.
    truth = np.zeros((12, 12, 2))
    for order in ((7, 3), (3, 7)):
        samples = near_tie_samples(20, 12, 12, order)
        stuck_exact, stuck_true = exact_and_true_sums(samples[order[0]])
        sharp_exact, sharp_true = exact_and_true_sums(samples[order[1]])
        assert stuck_exact < sharp_exact and stuck_true > sharp_true
        monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: samples)
        report = best_of_k(field_like(samples), truth, 20, seed=0, origin_abs=None)
        want = loop_best_of_k(samples, truth)
        assert (report.ade, report.fde) == want == ade_fde(samples[order[0]], truth)
    tie = near_tie_samples(2, 12, 12, (0, 1))
    tie[1, 0, 0, 0] = 1.0
    assert exact_and_true_sums(tie[0])[0] == exact_and_true_sums(tie[1])[0]
    monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: tie)
    report = best_of_k(field_like(tie), truth, 2, seed=0, origin_abs=None)
    assert (report.ade, report.fde) == ade_fde(tie[0], truth) != ade_fde(tie[1], truth)


def test_best_of_k_keeps_the_exact_minimum_on_a_long_horizon(monkeypatch):
    # P T = 12000: the two samples' ADEs are 4 ulps apart, but their true
    # sums differ by more than 1e-12 the other way, so a margin fixed at
    # 1e-12 would drop the exact minimum.
    samples = near_tie_samples(2, 12, 1000, (1, 0))
    truth = np.zeros((12, 1000, 2))
    (stuck_exact, stuck_true), (sharp_exact, sharp_true) = map(exact_and_true_sums, samples[::-1])
    assert stuck_exact < sharp_exact and stuck_true / sharp_true - 1.0 > 1e-12
    monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: samples)
    report = best_of_k(field_like(samples), truth, 2, seed=0, origin_abs=None)
    assert (report.ade, report.fde) == ade_fde(samples[1], truth) == loop_best_of_k(samples, truth)


def test_best_of_k_scores_only_the_candidates_exactly(monkeypatch):
    calls = counted_hypot(monkeypatch)
    field, rng = random_field(t=12, p=12, seed=20)
    truth = rng.normal(size=(12, 12, 2))
    origin = np.zeros((12, 2))
    best_of_k(field, truth, 20, seed=3, origin_abs=origin)
    assert len(calls) == 12 * 12
    best_of_k(field, truth, 1, seed=3, origin_abs=origin)
    assert len(calls) == 2 * 12 * 12
    # The fallback: a point with no error, a NaN, an infinity, and squared
    # lengths just outside [2**-1000, 2**1000] each make every sample exact.
    drawn = sample_trajectories(field, 20, seed=3, origin_abs=origin)
    for point in ([truth[4, 7, 0], truth[4, 7, 1]], [np.nan, 0.0], [np.inf, 0.0],
                  [truth[4, 7, 0] + 2.0 ** 501, 0.0], [2.0 ** -501, -(2.0 ** -502)]):
        samples, target = drawn.copy(), truth.copy()
        if point[0] == 2.0 ** -501:
            target[4, 7] = 0.0
        samples[5, 4, 7] = point
        monkeypatch.setattr(gaussian, "sample_trajectories", lambda *args: samples)
        calls.clear()
        report = best_of_k(field, target, 20, seed=3, origin_abs=None)
        assert len(calls) == 20 * 12 * 12
        assert np.array_equal([report.ade, report.fde], loop_best_of_k(samples, target),
                              equal_nan=True)


def test_best_of_k_equals_the_loop_byte_for_byte_at_the_eval_shape():
    for seed in range(200):
        field, rng = random_field(t=12, p=12, seed=1000 + seed)
        origin = rng.normal(size=(12, 2))
        truth = origin[:, None] + np.cumsum(rng.normal(size=(12, 12, 2)) * 0.5, axis=1)
        report = best_of_k(field, truth, 20, seed=seed, origin_abs=origin)
        want = loop_best_of_k(sample_trajectories(field, 20, seed, origin), truth)
        assert np.array([report.ade, report.fde]).tobytes() == np.array(want).tobytes()


def test_a_mismatched_origin_or_truth_raises_before_any_draw(monkeypatch):
    field, _ = random_field(seed=11)
    draws = []
    monkeypatch.setattr(Xorshift64Star, "normal_pairs", lambda self, n: draws.append(n))
    for origin in (np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(5)):
        with pytest.raises(DimensionError, match="origin"):
            sample_trajectories(field, 2, seed=1, origin_abs=origin)
        with pytest.raises(DimensionError, match="origin"):
            best_of_k(field, np.zeros((3, 4, 2)), 2, seed=1, origin_abs=origin)
        with pytest.raises(DimensionError, match="origin"):
            mu_trajectory(field, origin)
    for truth in (np.zeros((3, 5, 2)), np.zeros((4, 4, 2)), np.zeros((3, 4, 3)), np.zeros((3, 4))):
        with pytest.raises(DimensionError):
            best_of_k(field, truth, 2, seed=1, origin_abs=np.zeros((3, 2)))
    assert draws == []


def test_restore_ratio_hand_cases():
    assert restore_ratio(0.4, 0.8, 0.4, 0.8) == 0.0
    want = 0.5 * ((0.5 - 0.4) / 0.4 + (1.0 - 0.8) / 0.8)
    assert restore_ratio(0.5, 1.0, 0.4, 0.8) == want
    assert want == pytest.approx(0.25, abs=1e-12)
    assert restore_ratio(0.2, 0.4, 0.4, 0.8) < 0
    with pytest.raises(ContractError):
        restore_ratio(0.5, 1.0, 0.0, 0.8)
    with pytest.raises(ContractError):
        restore_ratio(0.5, 1.0, 0.4, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            restore_ratio(0.5, 1.0, bad, 0.8)
        with pytest.raises(ContractError):
            restore_ratio(0.5, 1.0, 0.4, bad)


def test_sampling_contract_errors():
    field, _ = random_field(seed=11)
    with pytest.raises(ContractError):
        sample_trajectories(field, 0, seed=1, origin_abs=np.zeros((3, 2)))
