"""Assembled-model tests: registry layout, strategy dispatch, invariances,
and the parameter arena."""

import copy
import pickle

import numpy as np
import pytest

from eanet import cli
from eanet import model as model_module
from eanet import tensor as T
from eanet.attention import HedgeState
from eanet.checkpoint import load_checkpoint, save_checkpoint
from eanet.data import SyntheticScenarioSpec, synthetic_instances
from eanet.errors import ConfigError
from eanet.gaussian import nll_loss
from eanet.model import GAUSS_CHANNELS, ModelConfig, TrajectoryModel, chunked_arrays, toy_instance
from eanet.rng import Xorshift64Star


def small_model(layers=2, seed=3):
    return TrajectoryModel(ModelConfig(stack_layers=layers), seed=seed)


def forward_one(model, inst, strategy="plain", hedge_state=None):
    """`TrajectoryModel.forward` on a chunk of one instance."""
    [(_, (x_seq, ahat, _))] = chunked_arrays([inst], model.config, 1)
    return model.forward(x_seq, ahat, strategy, hedge_state)


def test_parameter_registry_names_and_shapes():
    cfg = ModelConfig(stack_layers=3)
    model = TrajectoryModel(cfg, seed=0)
    expected = {
        "gcn/w": (2, 5),
        "expand/k": (12, 8, 1, 3),
        "stack/0/k": (12, 12, 1, 3),
        "stack/0/s": (),
        "stack/1/k": (12, 12, 1, 3),
        "stack/1/s": (),
        "stack/2/k": (12, 12, 1, 3),
        "stack/2/s": (),
        "ea/theta": (5, 1),
        "ea/bias": (),
        "ea/alpha": (3,),
    }
    assert list(model.params.keys()) == list(expected.keys())
    for name, shape in expected.items():
        assert model.params[name].shape == shape
        assert model.params[name].requires_grad


def test_same_seed_same_parameters():
    a = small_model(seed=9)
    b = small_model(seed=9)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_different_seed_differs():
    a = small_model(seed=9)
    b = small_model(seed=10)
    assert not np.array_equal(a.params["gcn/w"].data, b.params["gcn/w"].data)


def test_expert_head_init_values():
    model = small_model(layers=4)
    assert model.params["ea/bias"].item() == pytest.approx(np.arctanh(0.5))
    assert np.array_equal(model.params["ea/alpha"].data, [0.0, 0.0, 0.0, 2.0])
    assert np.all(np.abs(model.params["ea/theta"].data) <= 0.01)


def test_forward_block_shape():
    model = small_model(layers=2)
    inst = toy_instance(agents=4, config=model.config, seed=1)
    _, block, _ = forward_one(model, inst)
    assert block.shape == (1, 2, 12, 4, GAUSS_CHANNELS)


def test_span_mismatch_rejected():
    model = small_model()
    spec = SyntheticScenarioSpec(kind="oneway", agents=2, seed=0)
    short = synthetic_instances(spec, 1, t_obs=4, t_pred=12)[0]
    with pytest.raises(ConfigError):
        model.predict_field(short)


def test_plain_is_deepest_layer():
    model = small_model(layers=3)
    inst = toy_instance(agents=3, config=model.config, seed=2)
    field, block, trace = forward_one(model, inst, "plain")
    assert trace is None
    assert np.array_equal(field.raw.data, block[:, -1])


def test_ea_matches_plain_at_init():
    # Gate starts at tanh(theta . m + atanh(0.5)) with |theta| <= 0.01 and
    # the mix one-hot 2.0 on the deepest layer, so the gated output tracks
    # the plain output until the head has been trained.
    model = small_model(layers=3, seed=4)
    inst = toy_instance(agents=3, config=model.config, seed=2)
    ea_field, _, trace = forward_one(model, inst, "ea")
    plain_field, _, _ = forward_one(model, inst, "plain")
    assert trace is not None
    assert np.allclose(ea_field.raw.data, plain_field.raw.data, atol=0.15)
    # With theta forced to zero the match is exact.
    model.params["ea/theta"].data[:] = 0.0
    ea_field, _, _ = forward_one(model, inst, "ea")
    assert np.allclose(ea_field.raw.data, plain_field.raw.data, atol=1e-12)


def test_hedge_needs_state():
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=2)
    with pytest.raises(ConfigError):
        forward_one(model, inst, "hedge")
    field, _, trace = forward_one(model, inst, "hedge", HedgeState.uniform(2))
    assert trace is None
    assert field.raw.shape == (1, 12, 3, GAUSS_CHANNELS)


def test_unknown_strategy_rejected():
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=2)
    with pytest.raises(ConfigError):
        forward_one(model, inst, "softmax")


def test_rejected_strategy_leaves_the_tape_empty():
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=2)
    T.tape().clear()
    for strategy in ("hedge", "softmax"):
        for run in (lambda: model.predict_field(inst, strategy),
                    lambda: forward_one(model, inst, strategy)):
            with pytest.raises(ConfigError):
                run()
            assert len(T.tape()) == 0


def test_predict_shape_and_determinism():
    model = small_model(layers=2)
    inst = toy_instance(agents=5, config=model.config, seed=6)
    out1 = model.predict(inst)
    out2 = model.predict(inst)
    assert out1.shape == (5, 12, 2)
    assert np.array_equal(out1, out2)


def test_predict_leaves_no_tape_state():
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=6)
    T.tape().clear()
    model.predict(inst)
    assert len(T.tape()) == 0
    assert not np.any(model.arena.grad)


def test_predict_field_calls_leave_no_tape_records():
    # A taped record holds its inputs and the stack's whole allocation, so
    # records left by forward-only calls would pile up without bound.
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=6)
    T.tape().clear()
    for strategy in ("plain", "ea"):
        for _ in range(500):
            model.predict_field(inst, strategy)
    assert len(T.tape()) == 0
    assert not np.any(model.arena.grad)


def test_predict_field_is_valid_distribution():
    model = small_model(layers=2)
    inst = toy_instance(agents=3, config=model.config, seed=6)
    field = model.predict_field(inst, strategy="ea")
    assert np.all(field.sigma > 0.0)
    assert np.all(np.abs(field.rho) < 1.0)


def test_predict_fields_stay_distinct_after_later_forwards():
    # The eval loop keeps every field it predicts, so no forward may
    # write into an earlier one's memory.
    model = small_model(layers=2)
    first = model.predict_field(toy_instance(agents=4, config=model.config, seed=7))
    kept = first.raw.data.copy()
    second = model.predict_field(toy_instance(agents=4, config=model.config, seed=8))
    forward_one(model, toy_instance(agents=4, config=model.config, seed=9))
    assert np.array_equal(first.raw.data, kept)
    assert not np.shares_memory(first.raw.data, second.raw.data)


def allocation_bytes(array):
    """The size of the allocation that ``array`` views, or owns."""
    while array.base is not None:
        array = array.base
    return array.nbytes


@pytest.mark.parametrize("strategy", ["plain", "ea", "hedge"])
def test_a_kept_field_does_not_hold_the_stack_alive(strategy):
    # Each field that eval keeps would otherwise pin the whole stack
    # allocation: every layer's output, input, conv output and mask.
    model = small_model(layers=3)
    hedge = HedgeState.uniform(3) if strategy == "hedge" else None
    with T.no_grad():
        field = model.predict_field(toy_instance(agents=4, config=model.config, seed=7),
                                    strategy, hedge)
    assert field.raw.shape == (1, 12, 4, GAUSS_CHANNELS)
    for array in (field.raw.data, field.mu, field.sigma, field.rho):
        assert allocation_bytes(array) <= field.raw.data.nbytes


def test_plain_output_owns_its_copy_of_the_deepest_layer():
    model = small_model(layers=3)
    with T.no_grad():
        field, block, _ = forward_one(model, toy_instance(agents=4, config=model.config, seed=7))
    assert np.array_equal(field.raw.data, block[:, -1])
    assert not np.shares_memory(field.raw.data, block)
    assert allocation_bytes(field.raw.data) == field.raw.data.nbytes < allocation_bytes(block)


def test_loss_is_finite_at_init():
    for seed in range(5):
        model = small_model(layers=2, seed=seed)
        inst = toy_instance(agents=3, config=model.config, seed=seed + 50)
        field, _, _ = forward_one(model, inst, "ea")
        loss = nll_loss(field, inst.fut_rel)
        assert np.isfinite(loss.item())
        T.backward(loss)
        model.zero_grad()


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(stack_layers=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(kernel="cosine").validate()
    with pytest.raises(ConfigError):
        ModelConfig(t_obs=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(rbf_sigma=0.0).validate()


def test_full_pipeline_translation_invariance():
    model = small_model(layers=2, seed=8)
    inst = toy_instance(agents=4, config=model.config, seed=3)
    moved = inst.translated(np.array([250.0, -40.0]))
    base = model.predict(inst) - inst.obs_abs[:, -1][:, None, :]
    shifted = model.predict(moved) - moved.obs_abs[:, -1][:, None, :]
    assert np.allclose(base, shifted, atol=1e-10)


def test_full_pipeline_permutation_equivariance():
    model = small_model(layers=2, seed=8)
    inst = toy_instance(agents=4, config=model.config, seed=3)
    perm = np.array([2, 0, 3, 1])
    permuted = type(inst)(
        scene_id=inst.scene_id,
        agent_ids=[inst.agent_ids[i] for i in perm],
        start_frame=inst.start_frame,
        obs_abs=inst.obs_abs[perm],
        fut_abs=inst.fut_abs[perm],
    )
    out = model.predict(inst)
    out_perm = model.predict(permuted)
    assert np.allclose(out[perm], out_perm, atol=1e-10)


def test_toy_instance_spans_follow_config():
    cfg = ModelConfig(t_obs=6, t_pred=10, stack_layers=1)
    inst = toy_instance(agents=2, config=cfg, seed=0)
    assert inst.obs_abs.shape == (2, 6, 2)
    assert inst.fut_abs.shape == (2, 10, 2)


# ---------------------------------------------------------------------------
# the parameter arena


def assert_views_bound(model):
    """Every parameter's value and gradient read their span of the arena's
    two buffers, laid end to end in registry order."""
    for attr in ("data", "grad"):
        buf = getattr(model.arena, attr)
        saved = buf.copy()
        buf[...] = np.arange(buf.size)
        views = [getattr(p, attr).reshape(-1) for p in model.params.values()]
        assert np.array_equal(np.concatenate(views), buf), attr
        buf[...] = saved


def test_fresh_model_views_are_bound_and_gradients_zero():
    model = small_model(layers=3)
    assert_views_bound(model)
    assert all(isinstance(p, T.Parameter) for p in model.params.values())
    assert not np.any(model.arena.grad)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
def test_a_copy_binds_its_views_to_its_own_buffers(clone):
    # A naive deep copy copies each view on its own, detached from the
    # copied buffers; the benchmark deep-copies its model for every pass.
    model = small_model()
    model.params["gcn/w"].grad[...] = 1.5
    twin = clone(model)
    assert_views_bound(twin)
    for attr in ("data", "grad"):
        mine, theirs = getattr(model.arena, attr), getattr(twin.arena, attr)
        assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
    twin.arena.data += 1.0
    twin.zero_grad()
    assert np.array_equal(model.params["gcn/w"].grad, np.full((2, 5), 1.5))
    assert not np.array_equal(model.arena.data, twin.arena.data)


def test_save_and_load_keep_the_views_bound(tmp_path):
    model = small_model()
    model.params["gcn/w"].data[0, 0] = 0.1  # rounded to f32 in place
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    assert_views_bound(model)
    assert model.arena.data[0] == float(np.float32(0.1))
    loaded, _ = load_checkpoint(path)
    assert_views_bound(loaded)
    assert np.array_equal(loaded.arena.data, model.arena.data)


def test_init_expert_head_rewrites_the_head_in_place():
    model = small_model()
    model.arena.grad.fill(1.0)
    fresh = model_module._expert_head(model.config, Xorshift64Star(5))
    body = slice(0, model.arena.data.size - sum(v.size for v in fresh.values()))
    values = model.arena.data[body].copy()
    model.init_expert_head(Xorshift64Star(5))
    assert_views_bound(model)
    assert np.array_equal(model.arena.data[body], values)
    assert np.all(model.arena.grad[body] == 1.0)
    for name, value in fresh.items():
        assert np.array_equal(model.params[name].data, value), name
        assert not np.any(model.params[name].grad), name


def test_gradcheck_keeps_the_views_bound(monkeypatch, capsys):
    built = []
    init = TrajectoryModel.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TrajectoryModel, "__init__", recorded)
    assert cli.main(["gradcheck"]) == 0
    capsys.readouterr()
    assert built
    for model in built:
        assert_views_bound(model)
        assert not np.any(model.arena.grad)
