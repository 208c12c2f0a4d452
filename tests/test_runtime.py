import collections
import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from eanet import model as model_module
from eanet import runtime
from eanet import temporal
from eanet import tensor as T
from eanet.checkpoint import checkpoint_bytes
from eanet.data import (Scene, SyntheticScenarioSpec, _steps, synthetic_instances,
                        window_instances)
from eanet.errors import ConfigError, DataError, TrainingDiverged
from eanet.gaussian import best_of_k, decode_gaussian, nll_loss, restore_ratio
from eanet.graph import instance_graphs
from eanet.model import (GRAPH_FRAMES, FrameTables, ModelConfig, TrajectoryModel,
                         chunked_arrays, frame_tables, toy_instance)
from eanet.rng import Xorshift64Star
from eanet.runtime import (BaseMetrics, HealthMonitor, OnlineConfig, TrainConfig,
                           compute_base, run_online, train_offline)

SMALL = ModelConfig(stack_layers=2)


def small_model(seed=0):
    return TrajectoryModel(SMALL, seed=seed)


def toy_set(count, seed0=0, agents=3):
    return [toy_instance(agents=agents, config=SMALL, seed=seed0 + i) for i in range(count)]


def plain_loss(model, inst):
    with T.no_grad():
        return nll_loss(model.predict_field(inst), inst.fut_rel).item()


def per_instance_arrays(instances, config, chunk):
    """The one-instance-at-a-time oracle of `chunked_arrays`: each
    instance's `oracles.instance_arrays` as a batch of one."""
    for inst in instances:
        yield inst, tuple(array[None] for array in oracles.instance_arrays(inst, config))


def per_instance_stacks(dataset, config):
    """`runtime.frame_tables` with every instance prepared alone: a
    group's arrays are `np.stack` over its instances'
    `oracles.instance_arrays`."""
    prepared = [oracles.instance_arrays(inst, config) for inst in dataset]

    class Stacks:
        def __init__(self):
            self.members = []

        def gather(self, rows):
            members = [self.members[row] for row in rows]
            return tuple(np.stack([prepared[i][k] for i in members]) for k in range(3))

    tables = collections.defaultdict(Stacks)
    where = []
    for i, inst in enumerate(dataset):
        where.append((inst.n_agents, len(tables[inst.n_agents].members)))
        tables[inst.n_agents].members.append(i)
    return tables, where


# ---------------------------------------------------------------------------
# config validation


def test_train_config_rejects_bad_values():
    for bad in (TrainConfig(epochs=0), TrainConfig(batch_size=0),
                TrainConfig(lr=0.0), TrainConfig(lr_after=-1.0),
                TrainConfig(lr_drop_epoch=-1)):
        with pytest.raises(ConfigError):
            bad.validate()


def test_online_config_rejects_bad_values():
    for bad in (OnlineConfig(lr=0.0), OnlineConfig(clip_norm=0.0),
                OnlineConfig(updates_per_instance=0), OnlineConfig(max_instances=0),
                OnlineConfig(alignment="center"), OnlineConfig(strategy="mix"),
                OnlineConfig(rr_checkpoints=(-1,))):
        with pytest.raises(ConfigError):
            bad.validate()
    OnlineConfig(clip_norm=None).validate()


def test_train_rejects_empty_dataset():
    with pytest.raises(DataError):
        train_offline([], TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# offline training


def test_single_step_descent_for_small_lr():
    inst = toy_set(1, seed0=4)[0]
    before = plain_loss(small_model(seed=4), inst)
    result = train_offline([inst], TrainConfig(epochs=1, batch_size=1, lr=1e-4, seed=4), SMALL)
    after = plain_loss(result.model, inst)
    # The logged epoch loss is measured before the step, so it must equal
    # the hand-computed pre-step loss.
    assert result.loss_log[0] == pytest.approx(before, abs=1e-12)
    assert after <= before


def test_one_epoch_one_instance_is_one_sgd_step():
    inst = toy_set(1, seed0=7)[0]
    reference = small_model(seed=7)
    [(_, (x_seq, ahat, fut))] = chunked_arrays([inst], SMALL, 1)
    gfield, _, _ = reference.forward(x_seq, ahat)
    T.backward(nll_loss(gfield, fut), 1.0)
    lr = 0.05
    expected = {name: p.data - lr * p.grad
                for name, p in reference.params.items() if p.grad is not None}
    reference.zero_grad()

    trained = train_offline([inst], TrainConfig(epochs=1, batch_size=1, lr=lr, seed=7),
                            SMALL).model
    for name, want in expected.items():
        assert np.array_equal(trained.params[name].data, want), name


def test_group_backwards_equal_one_weighted_tape_bit_for_bit():
    # Four agent counts in one batch of nine, so every group weight
    # rounds. The reference is one tape over the whole batch: the weighted
    # group losses added up first group first, and one backward from
    # their sum. On these seeds the order of those adds shows in the loss.
    dataset = [toy_instance(agents=3 + i % 4, config=SMALL, seed=140 + i) for i in range(9)]
    config = TrainConfig(epochs=1, batch_size=9, lr=0.05, seed=3)
    trained = train_offline(dataset, config, SMALL)

    model = TrajectoryModel(SMALL, seed=config.seed)
    prepared = [arrays for _, arrays in chunked_arrays(dataset, SMALL, config.batch_size)]
    order = list(range(len(dataset)))
    Xorshift64Star(config.seed ^ runtime._SHUFFLE_SALT).shuffle(order)
    groups = {}
    for idx in order:
        groups.setdefault(prepared[idx][0].shape[2], []).append(idx)
    assert len(groups) == 4
    batch_loss = None
    for members in groups.values():
        x_seq, ahat, fut = (np.concatenate([prepared[i][k] for i in members]) for k in range(3))
        gfield, _, _ = model.forward(x_seq, ahat)
        weighted = oracles.mul(nll_loss(gfield, fut), len(members) / len(order))
        batch_loss = weighted if batch_loss is None else oracles.add(batch_loss, weighted)
    T.backward(batch_loss)
    runtime.sgd_step(model.arena, config.lr)
    assert np.array_equal(trained.model.arena.data, model.arena.data)
    assert trained.loss_log == [(0.0 + batch_loss.item() * len(order)) / len(order)]


def test_training_regrows_its_stack_store_and_keeps_its_parameters(monkeypatch):
    # Agent counts 2..5 in batches of three: the groups change size from
    # batch to batch, so the one store of the run grows more than once.
    dataset = [toy_instance(agents=2 + i % 4, config=SMALL, seed=60 + i) for i in range(10)]
    config = TrainConfig(epochs=2, batch_size=3, lr=0.05, seed=5)
    sizes = []
    take = temporal.StackStore.take

    def spied(store, size):
        out = take(store, size)
        sizes.append(store._buf.size)
        return out

    monkeypatch.setattr(temporal.StackStore, "take", spied)
    shared = train_offline(dataset, config, SMALL)
    assert sizes == sorted(sizes) and len(set(sizes)) > 1
    # Against arrays of their own for every forward.
    monkeypatch.setattr(runtime, "StackStore", lambda: None)
    fresh = train_offline(dataset, config, SMALL)
    assert shared.loss_log == fresh.loss_log
    assert np.array_equal(shared.model.arena.data, fresh.model.arena.data)


@pytest.mark.parametrize("chunk", (1, 4, 11))
def test_chunked_preparation_equals_per_instance_arrays(chunk):
    # Two agent counts interleaved, 11 instances: chunks of 4 leave a
    # partial chunk for both sizes, and one chunk of 11 holds them all.
    dataset = [toy_instance(agents=4 if i % 2 else 7, config=SMALL, seed=30 + i)
               for i in range(11)]
    for config in (SMALL, dataclasses.replace(SMALL, kernel="rbf", rbf_sigma=0.7)):
        prepared = list(chunked_arrays(dataset, config, chunk))
        assert [inst for inst, _ in prepared] == dataset
        for (_, arrays), (_, want) in zip(prepared, per_instance_arrays(dataset, config, 1)):
            assert len(arrays) == len(want)
            for got, expected in zip(arrays, want):
                assert np.array_equal(got, expected)
    with pytest.raises(ConfigError):
        list(chunked_arrays(dataset, dataclasses.replace(SMALL, t_obs=6), chunk))


def test_a_group_is_sliced_from_one_stack_like_each_instance_s_steps():
    # 4- and 7-agent instances interleaved in one chunk: each group's
    # displacements and target are slices of one step array, and must
    # equal the instance's own steps in dtype, shape and bytes.
    part = [toy_instance(agents=4 if i % 3 else 7, config=SMALL, seed=60 + i) for i in range(8)]
    prepared = chunked_arrays(part, SMALL, len(part))
    assert {inst.n_agents for inst in part} == {4, 7}
    for inst, (x_seq, _, fut_rel) in prepared:
        for got, want in ((x_seq, inst.obs_rel.transpose(1, 0, 2)[None]),
                          (fut_rel, inst.fut_rel[None])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert fut_rel.strides[1:] == inst.fut_rel.strides


def test_chunked_training_equals_per_instance_preparation(monkeypatch):
    # 4- and 7-agent instances interleaved, batches of 4, the last one
    # short: every batch holds both sizes.
    dataset = [toy_instance(agents=4 if i % 2 else 7, config=SMALL, seed=240 + i)
               for i in range(11)]
    config = TrainConfig(epochs=2, batch_size=4, lr=0.05, seed=6)
    chunked = train_offline(dataset, config, SMALL)
    monkeypatch.setattr(runtime, "frame_tables", per_instance_stacks)
    one_at_a_time = train_offline(dataset, config, SMALL)
    assert chunked.loss_log == one_at_a_time.loss_log
    assert chunked.model.arena.data.tobytes() == one_at_a_time.model.arena.data.tobytes()


def test_training_gathers_each_group_like_np_stack_of_its_instances(monkeypatch):
    # 3- and 5-agent windows interleaved, 13 instances in batches of 5:
    # most batches hold both sizes, and the last one is short.
    dataset = [toy_instance(agents=5 if i % 3 else 3, config=SMALL, seed=300 + i)
               for i in range(13)]
    config = TrainConfig(epochs=2, batch_size=5, lr=1e-3, seed=8)
    seen = []
    forward, loss = TrajectoryModel.forward, runtime.nll_loss

    def spied_forward(model, x_seq, ahat, *args, **kwargs):
        seen.append([x_seq, ahat])
        return forward(model, x_seq, ahat, *args, **kwargs)

    def spied_loss(field, target):
        seen[-1].append(target)
        return loss(field, target)

    monkeypatch.setattr(TrajectoryModel, "forward", spied_forward)
    monkeypatch.setattr(runtime, "nll_loss", spied_loss)
    train_offline(dataset, config, SMALL)

    prepared = [oracles.instance_arrays(inst, SMALL) for inst in dataset]
    rng, order, want = Xorshift64Star(config.seed ^ runtime._SHUFFLE_SALT), list(range(13)), []
    for _ in range(config.epochs):
        oracles.shuffle(rng, order)
        for start in range(0, len(order), config.batch_size):
            groups = {}
            for idx in order[start:start + config.batch_size]:
                groups.setdefault(dataset[idx].n_agents, []).append(idx)
            # Last group first. The target is the last frames of the
            # group's stacked steps, which `nll_loss` reads in place.
            want.extend([*(np.stack([prepared[i][k] for i in members]) for k in range(2)),
                         np.stack([_steps(dataset[i].track) for i in members])[:, :, SMALL.t_obs:]]
                        for members in reversed(groups.values()))
    # Six batches, so more forwards than that means some held both sizes.
    assert len(seen) == len(want) > 2 * 3
    for got_arrays, want_arrays in zip(seen, want):
        for got, expected in zip(got_arrays, want_arrays):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.strides == expected.strides
            assert got.tobytes() == expected.tobytes()


def test_training_is_deterministic_for_a_seed():
    dataset = toy_set(10, seed0=20)
    config = TrainConfig(epochs=2, batch_size=4, lr=0.01, seed=5)
    a = train_offline(dataset, config, SMALL)
    b = train_offline(dataset, config, SMALL)
    assert a.loss_log == b.loss_log
    assert checkpoint_bytes(a.model) == checkpoint_bytes(b.model)
    c = train_offline(dataset, TrainConfig(epochs=2, batch_size=4, lr=0.01, seed=6), SMALL)
    assert a.loss_log != c.loss_log


def test_lr_drop_epoch_zero_trains_at_the_after_rate():
    dataset = toy_set(4, seed0=1)
    dropped = train_offline(dataset, TrainConfig(epochs=1, batch_size=2, lr=999.0,
                                                 lr_after=0.003, lr_drop_epoch=0,
                                                 seed=2), SMALL)
    direct = train_offline(dataset, TrainConfig(epochs=1, batch_size=2, lr=0.003,
                                                lr_after=0.003, lr_drop_epoch=150,
                                                seed=2), SMALL)
    assert checkpoint_bytes(dropped.model) == checkpoint_bytes(direct.model)


def test_loss_log_has_one_row_per_epoch():
    result = train_offline(toy_set(3), TrainConfig(epochs=4, batch_size=2), SMALL)
    assert len(result.loss_log) == 4
    assert all(math.isfinite(v) for v in result.loss_log)


def test_diverged_training_reports_epoch_and_step():
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train_offline(toy_set(2), TrainConfig(epochs=5, batch_size=1, lr=1e12), SMALL)
    assert err.value.epoch is not None and err.value.step is not None
    assert len(T.tape()) == 0


def test_diverged_training_keeps_the_loss_log_of_the_finished_epochs():
    dataset = toy_set(4, seed0=1)
    finished = train_offline(dataset, TrainConfig(epochs=2, batch_size=2, seed=2), SMALL)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDiverged) as err:
            train_offline(dataset, TrainConfig(epochs=6, batch_size=2, lr_after=1e12,
                                               lr_drop_epoch=2, seed=2), SMALL)
    assert caught == []
    assert err.value.epoch >= 2
    assert err.value.loss_log == finished.loss_log + err.value.loss_log[2:]
    assert len(err.value.loss_log) == err.value.epoch
    assert f"at epoch {err.value.epoch}, step {err.value.step}" in str(err.value)


# ---------------------------------------------------------------------------
# health classification


def observe_all(grad_norms, losses):
    """One update per index through a fresh HealthMonitor: the verdicts
    and the run's status."""
    monitor = HealthMonitor()
    verdicts = [monitor.observe(g, l, i) for i, (g, l) in enumerate(zip(grad_norms, losses))]
    return verdicts, monitor.status


def test_health_normal_for_moderate_gradients():
    verdicts, status = observe_all([1e-2] * 10, [1.0] * 10)
    assert verdicts == ["normal"] * 10
    assert status.status == "normal" and status.first_trigger_instance is None


def test_health_nan_loss_is_explosion_at_that_index():
    losses = [1.0, 1.0, 1.0, float("nan"), 1.0]
    verdicts, status = observe_all([0.1] * 5, losses)
    assert verdicts == ["normal"] * 3 + ["exploded", "normal"]
    assert status.status == "exploded" and status.first_trigger_instance == 3


def test_health_huge_or_nonfinite_gradient_is_explosion():
    verdicts, status = observe_all([0.1, 2e3, 0.1], [1.0] * 3)
    assert verdicts == ["normal", "exploded", "normal"] and status.status == "exploded"
    verdicts, status = observe_all([0.1, float("inf"), 0.1], [1.0] * 3)
    assert verdicts[1] == "exploded" and status.first_trigger_instance == 1


def test_health_fifty_consecutive_tiny_gradients_vanish():
    verdicts, status = observe_all([1e-12] * 50, [1.0] * 50)
    assert verdicts == ["normal"] * 49 + ["vanished"]
    assert status.status == "vanished" and status.first_trigger_instance == 49


def test_health_vanish_counter_resets():
    grads = [1e-12] * 49 + [0.1] + [1e-12] * 49
    verdicts, status = observe_all(grads, [1.0] * len(grads))
    assert verdicts == ["normal"] * len(grads) and status.status == "normal"


def test_health_exploded_update_resets_the_vanish_run():
    grads = [1e-12] * 49 + [2e3, 1e-12]
    verdicts, status = observe_all(grads, [1.0] * len(grads))
    assert verdicts[-3:] == ["normal", "exploded", "normal"]
    assert status.status == "exploded" and status.first_trigger_instance == 49


def test_health_first_trigger_wins():
    grads = [1e-12] * 30 + [float("nan")] + [1e-12] * 60
    _, status = observe_all(grads, [1.0] * len(grads))
    assert status.status == "exploded" and status.first_trigger_instance == 30
    verdicts, status = observe_all([1e-12] * 50 + [float("nan")], [1.0] * 51)
    assert verdicts[-1] == "exploded"
    assert status.status == "vanished" and status.first_trigger_instance == 49


def test_health_thresholds_are_the_module_constants():
    above = np.nextafter(runtime.EXPLODE_NORM, np.inf)
    verdicts, _ = observe_all([runtime.EXPLODE_NORM, above], [1.0, 1.0])
    assert verdicts == ["normal", "exploded"]
    run = runtime.VANISH_RUN
    below = np.nextafter(runtime.VANISH_NORM, 0.0)
    verdicts, _ = observe_all([below] * run, [1.0] * run)
    assert verdicts == ["normal"] * (run - 1) + ["vanished"]
    verdicts, _ = observe_all([runtime.VANISH_NORM] * run, [1.0] * run)
    assert verdicts == ["normal"] * run


# ---------------------------------------------------------------------------
# online loop


def test_empty_stream_is_normal_and_empty():
    result = run_online(small_model(), [], OnlineConfig())
    assert result.records == [] and result.health.status == "normal"
    assert result.rr_at == {}


def test_prequential_first_record_ignores_the_update():
    stream = toy_set(3, seed0=40)
    heavy = run_online(small_model(seed=1), stream,
                       OnlineConfig(strategy="plain", lr=0.1, seed=0))
    light = run_online(small_model(seed=1), stream,
                       OnlineConfig(strategy="plain", lr=1e-9, seed=0))
    first_h, first_l = heavy.records[0], light.records[0]
    assert (first_h.ade, first_h.fde, first_h.loss) == (first_l.ade, first_l.fde, first_l.loss)
    assert heavy.records[1].loss != light.records[1].loss


def test_clip_contract_bounds_recorded_norms():
    stream = toy_set(15, seed0=60)
    clipped = run_online(small_model(seed=2), stream,
                         OnlineConfig(strategy="plain", clip_norm=1.0, seed=0))
    norms = [r.grad_norm for r in clipped.records]
    assert all(n is not None and n <= 1.0 + 1e-9 for n in norms)
    free = run_online(small_model(seed=2), stream,
                      OnlineConfig(strategy="plain", clip_norm=None, seed=0))
    assert max(r.grad_norm for r in free.records) > 1.0


def test_unclipped_gradient_passes_through():
    stream = toy_set(5, seed0=60)
    loose = run_online(small_model(seed=2), stream,
                       OnlineConfig(strategy="plain", clip_norm=1e9, seed=0))
    free = run_online(small_model(seed=2), stream,
                      OnlineConfig(strategy="plain", clip_norm=None, seed=0))
    assert [r.grad_norm for r in loose.records] == [r.grad_norm for r in free.records]


def test_online_replay_is_deterministic():
    stream = toy_set(8, seed0=80)
    base = BaseMetrics(ade=0.4, fde=0.7, n_train=0, n_test=0)
    a = run_online(small_model(seed=3), stream, OnlineConfig(seed=9), base=base)
    b = run_online(small_model(seed=3), stream, OnlineConfig(seed=9), base=base)
    assert a.records == b.records
    assert a.rr_at == b.rr_at


def test_replay_ignores_gradients_the_model_carries_in():
    # train_offline leaves its last batch's gradient on every parameter,
    # and a deep copy carries it along.
    trained = train_offline(toy_set(4, seed0=90), TrainConfig(epochs=1, batch_size=2),
                            model_config=SMALL).model
    clean = copy.deepcopy(trained)
    clean.zero_grad()
    for strategy in runtime.STRATEGIES:
        config = OnlineConfig(strategy=strategy, seed=2)
        stream = toy_set(4, seed0=95)
        carried = run_online(copy.deepcopy(trained), stream, config)
        assert carried.records == run_online(copy.deepcopy(clean), stream, config).records


def test_max_instances_truncates_the_stream():
    stream = toy_set(6)
    result = run_online(small_model(), stream, OnlineConfig(max_instances=4))
    assert len(result.records) == 4
    assert [r.instance_idx for r in result.records] == [0, 1, 2, 3]


def test_rr_checkpoints_read_off_recorded_rows():
    stream = toy_set(5)
    base = BaseMetrics(ade=0.4, fde=0.7, n_train=0, n_test=0)
    result = run_online(small_model(), stream,
                        OnlineConfig(rr_checkpoints=(0, 3, 100), seed=0), base=base)
    assert set(result.rr_at) == {0, 3}
    assert result.rr_at[0] == result.records[0].rr


def test_rr_matches_the_definition_and_sign():
    stream = toy_set(2)
    base = BaseMetrics(ade=1e-3, fde=1e-3, n_train=0, n_test=0)
    result = run_online(small_model(), stream, OnlineConfig(seed=0), base=base)
    rec = result.records[0]
    assert rec.rr == restore_ratio(rec.ade, rec.fde, base.ade, base.fde)
    # An untrained model is far worse than a tiny base, so rr is positive.
    assert rec.rr > 0


def test_nonfinite_forward_skips_update_and_continues():
    model = small_model(seed=0)
    model.params["stack/0/k"].data[:] = 1e200
    stream = toy_set(3)
    frozen = {k: v.data.copy() for k, v in model.params.items()
              if not k.startswith("ea/")}
    with np.errstate(all="ignore"):
        result = run_online(model, stream, OnlineConfig(strategy="plain", seed=0))
    assert [r.health for r in result.records] == ["exploded"] * 3
    assert result.health.status == "exploded"
    assert result.health.first_trigger_instance == 0
    assert result.counters == runtime.UpdateCounters(updates=3, clipped=0, skipped=3)
    for name, data in frozen.items():
        assert np.array_equal(model.params[name].data, data)
    assert len(T.tape()) == 0


def test_recentre_alignment_preserves_metrics():
    stream = toy_set(4, seed0=100)
    plain = run_online(small_model(seed=5), stream,
                       OnlineConfig(alignment="none", strategy="plain", seed=0))
    moved = run_online(small_model(seed=5), stream,
                       OnlineConfig(alignment="recentre", strategy="plain", seed=0))
    for a, b in zip(plain.records, moved.records):
        assert a.ade == pytest.approx(b.ade, abs=1e-9)
        assert a.fde == pytest.approx(b.fde, abs=1e-9)


def test_hedge_weights_stay_on_the_simplex():
    stream = toy_set(30, seed0=120)
    result = run_online(small_model(seed=1), stream,
                        OnlineConfig(strategy="hedge", seed=0))
    for rec in result.records:
        assert rec.alpha is None
        assert all(w >= 0 for w in rec.expert)
        assert sum(rec.expert) == pytest.approx(1.0, abs=1e-9)
    assert result.records[-1].expert != result.records[0].expert


def test_strategy_columns_match_their_semantics():
    stream = toy_set(2)
    ea = run_online(small_model(seed=1), stream, OnlineConfig(strategy="ea", seed=0))
    assert ea.records[0].expert is not None and ea.records[0].alpha is not None
    assert len(ea.records[0].expert) == SMALL.stack_layers
    plain = run_online(small_model(seed=1), stream, OnlineConfig(strategy="plain", seed=0))
    assert plain.records[0].expert is None and plain.records[0].alpha is None


def test_extra_updates_per_instance_move_parameters_further():
    stream = toy_set(3, seed0=140)
    single = run_online(small_model(seed=4), stream,
                        OnlineConfig(strategy="plain", updates_per_instance=1, seed=0))
    double = run_online(small_model(seed=4), stream,
                        OnlineConfig(strategy="plain", updates_per_instance=2, seed=0))
    assert len(single.records) == len(double.records) == 3
    assert single.records[1].loss != double.records[1].loss


def test_extra_updates_reuse_the_instance_arrays(monkeypatch):
    built = []

    def counted_tables(dataset, config):
        built.extend(dataset)
        return frame_tables(dataset, config)

    monkeypatch.setattr(model_module, "frame_tables", counted_tables)
    stream = toy_set(3, seed0=140)
    result = run_online(small_model(seed=4), stream,
                        OnlineConfig(strategy="plain", updates_per_instance=3, seed=0))
    assert result.counters.updates == 9
    assert [id(inst) for inst in built] == [id(inst) for inst in stream]


def test_online_prepares_the_stream_one_chunk_at_a_time(monkeypatch):
    # 40 instances: two full chunks and a short last one, each prepared
    # only once the loop has recorded every instance before it.
    calls, recorded = [], []

    def counted_tables(dataset, config):
        calls.append((len(dataset), len(recorded)))
        return frame_tables(dataset, config)

    monkeypatch.setattr(model_module, "frame_tables", counted_tables)
    count, chunk = 40, runtime.PREP_CHUNK
    run_online(small_model(), toy_set(count, seed0=160), OnlineConfig(max_instances=count),
               progress=lambda idx, rec: recorded.append(idx))
    assert calls == [(min(chunk, count - start), start) for start in range(0, count, chunk)]


def assert_same_replay(got, want):
    (got_model, got_result), (want_model, want_result) = got, want
    assert len(got_result.records) == len(want_result.records)
    for row, expected in zip(got_result.records, want_result.records):
        for field in dataclasses.fields(row):
            assert np.array_equal(getattr(row, field.name), getattr(expected, field.name)), \
                (row.instance_idx, field.name)
    assert got_result.rr_at.keys() == want_result.rr_at.keys()
    for key, value in want_result.rr_at.items():
        assert np.array_equal(got_result.rr_at[key], value), key
    assert got_result.counters == want_result.counters
    assert got_result.health == want_result.health
    for name, p in want_model.params.items():
        assert np.array_equal(got_model.params[name].data, p.data), name


@pytest.mark.parametrize("alignment", runtime.ALIGNMENTS)
@pytest.mark.parametrize("strategy", runtime.STRATEGIES)
def test_chunked_replay_equals_one_instance_at_a_time(monkeypatch, strategy, alignment):
    # Agent counts 3, 5 and 4 in turn, so every chunk mixes three sizes;
    # 37 of 41 instances end the run five into its third chunk.
    stream = [toy_instance(agents=(3, 5, 4)[i % 3], config=SMALL, seed=170 + i)
              for i in range(41)]
    config = OnlineConfig(strategy=strategy, alignment=alignment, updates_per_instance=2,
                          max_instances=37, rr_checkpoints=(0, 16, 36, 40), seed=1)
    base = BaseMetrics(ade=0.5, fde=0.9, n_train=0, n_test=0)

    def replay(instances, config):
        model = small_model(seed=6)
        return model, run_online(model, instances, config, base=base)

    chunked = replay(stream, config)
    assert len(chunked[1].records) == 37 and chunked[1].rr_at.keys() == {0, 16, 36}
    if alignment == "recentre":
        # The graphs are built from the recentred positions.
        assert_same_replay(chunked, replay([inst.recentred() for inst in stream],
                                           dataclasses.replace(config, alignment="none")))
    monkeypatch.setattr(runtime, "chunked_arrays", per_instance_arrays)
    assert_same_replay(chunked, replay(stream, config))


@pytest.mark.parametrize("step", [*runtime.STRATEGIES, "train"])
def test_one_step_puts_two_records_on_the_tape(monkeypatch, step):
    # The model's forward, then the NLL.
    seen = []
    backward = T.backward

    def counted(out, grad=None):
        seen.append(len(T.tape()))
        return backward(out, grad)

    monkeypatch.setattr(T, "backward", counted)
    if step == "train":
        # One epoch of one batch of one agent count: one group.
        train_offline(toy_set(4), TrainConfig(epochs=1, batch_size=4, seed=0), SMALL)
        assert seen == [2]
    else:
        run_online(TrajectoryModel(ModelConfig(), seed=0), toy_set(2, seed0=150),
                   OnlineConfig(strategy=step, updates_per_instance=2, seed=0))
        assert seen == [2, 2, 2, 2]
    assert len(T.tape()) == 0


def test_an_interrupted_online_run_leaves_the_tape_empty(monkeypatch):
    # Cut between the forward and the backward of the fifth update.
    updates = []
    apply_update = runtime._apply_update

    def interrupted(*args):
        updates.append(len(T.tape()))
        if len(updates) == 5:
            raise KeyboardInterrupt
        return apply_update(*args)

    monkeypatch.setattr(runtime, "_apply_update", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_online(small_model(), toy_set(6), OnlineConfig(strategy="ea", seed=0))
    assert updates == [2] * 5
    assert len(T.tape()) == 0


def test_a_training_step_that_raises_leaves_the_tape_empty(monkeypatch):
    # The loss raises after the forward has put its record on the tape.
    def failing(field, target):
        assert len(T.tape()) == 1
        raise RuntimeError("loss failed")

    monkeypatch.setattr(runtime, "nll_loss", failing)
    with pytest.raises(RuntimeError, match="loss failed"):
        train_offline(toy_set(4), TrainConfig(epochs=1, batch_size=4, seed=0), SMALL)
    assert len(T.tape()) == 0


def test_replay_and_training_match_the_per_layer_chain(monkeypatch):
    stream = synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=6, seed=3), 12)
    data = [inst for agents in (3, 5) for inst in synthetic_instances(
        SyntheticScenarioSpec(kind="oneway", agents=agents, seed=agents), 12)]

    def run_all():
        out = {}
        for strategy in runtime.STRATEGIES:
            model = TrajectoryModel(ModelConfig(stack_layers=3), seed=2)
            result = run_online(model, stream, OnlineConfig(strategy=strategy, seed=1,
                                                            updates_per_instance=2))
            out[strategy] = ([dataclasses.astuple(r) for r in result.records],
                             checkpoint_bytes(model))
        trained = train_offline(data, TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=4),
                                ModelConfig(stack_layers=3))
        out["train"] = (trained.loss_log, checkpoint_bytes(trained.model))
        return out

    fused = run_all()
    # The graph convolution's matmul/matmul/sigmoid chain, the per-layer
    # conv/prelu/add chain and the heads of tape primitives that the fused
    # stages replaced, each run in the stage form.
    monkeypatch.setattr(model_module, "gcn_forward", oracles.staged_gcn)
    monkeypatch.setattr(model_module, "stack_forward", oracles.staged_stack)
    monkeypatch.setattr(model_module, "ea_output", oracles.staged_ea)
    monkeypatch.setattr(model_module, "hedge_output", oracles.staged_hedge)
    monkeypatch.setattr(model_module, "plain_output", oracles.staged_plain)
    assert run_all() == fused


def test_exploding_extra_update_counts_towards_health():
    # The first update's norm is about 9; the step at lr=1 sends the
    # second update's norm past the explosion threshold.
    stream = toy_set(1)
    result = run_online(small_model(), stream,
                        OnlineConfig(strategy="plain", lr=1.0, clip_norm=None,
                                     updates_per_instance=2, seed=0))
    assert result.records[0].health == "exploded"
    assert result.health.status == "exploded"
    assert result.health.first_trigger_instance == 0
    assert result.records[0].grad_norm < 1e3
    assert result.counters == runtime.UpdateCounters(updates=2, clipped=0, skipped=0)


def test_counters_of_an_exploding_run(monkeypatch):
    # At lr=50 the run explodes: some updates are clipped, later ones have
    # a non-finite loss or norm and are skipped. A skipped update ends its
    # instance, so fewer than two updates per instance run.
    config = OnlineConfig(strategy="ea", lr=50.0, clip_norm=1.0, updates_per_instance=2, seed=0)
    norms = []
    apply_update = runtime._apply_update

    def spied(*args):
        pre, applied = apply_update(*args)
        norms.append((pre, applied))
        return pre, applied

    monkeypatch.setattr(runtime, "_apply_update", spied)
    with np.errstate(all="ignore"):
        result = run_online(small_model(), toy_set(6), config)
    counters = result.counters
    assert result.health.status == "exploded"
    assert counters.updates == len(norms) < 12
    assert counters.clipped == sum(a is not None and a < p for p, a in norms) > 0
    assert counters.skipped == sum(a is None for _, a in norms) > 0


def test_nonfinite_extra_loss_flags_the_row_and_stops(monkeypatch):
    stream = toy_set(1)
    config = OnlineConfig(strategy="plain", lr=1e3, clip_norm=None, seed=0)
    one_step = small_model()
    run_online(one_step, stream, config)

    losses = []

    def counted_nll(*args, **kwargs):
        out = nll_loss(*args, **kwargs)
        losses.append(out.item())
        return out

    monkeypatch.setattr(runtime, "nll_loss", counted_nll)
    model = small_model()
    with np.errstate(all="ignore"):
        result = run_online(model, stream,
                            dataclasses.replace(config, updates_per_instance=3))
    # The record's forward, then one extra update whose loss is not finite;
    # the third update never runs.
    assert len(losses) == 2 and math.isfinite(losses[0]) and not math.isfinite(losses[1])
    assert result.records[0].health == "exploded"
    assert result.health.status == "exploded"
    assert result.health.first_trigger_instance == 0
    assert len(T.tape()) == 0
    for name, p in model.params.items():
        assert np.array_equal(p.data, one_step.params[name].data), name


def test_stationary_stream_keeps_or_improves_accuracy():
    spec = SyntheticScenarioSpec(kind="oneway", agents=4, speed=0.4,
                                 noise_std=0.02, seed=3)
    warmup = synthetic_instances(SyntheticScenarioSpec(kind="oneway", agents=4,
                                                       speed=0.4, noise_std=0.02,
                                                       seed=11), 100)
    pre = train_offline(warmup, TrainConfig(epochs=5, batch_size=32, lr=0.01, seed=0),
                        SMALL)
    stream = synthetic_instances(spec, 1000)
    result = run_online(pre.model, stream, OnlineConfig(strategy="plain", seed=0))
    early = float(np.median([r.ade for r in result.records[:100]]))
    late = float(np.median([r.ade for r in result.records[900:1000]]))
    assert late <= early


# ---------------------------------------------------------------------------
# base metrics


def test_base_degenerate_single_instance():
    inst = toy_set(1)[0]
    base = compute_base([inst], TrainConfig(epochs=1, batch_size=1), SMALL, samples=3)
    assert base.n_train == 1 and base.n_test == 1
    assert base.ade > 0 and base.fde > 0


def test_base_split_is_eighty_twenty_by_order():
    dataset = toy_set(10)
    base = compute_base(dataset, TrainConfig(epochs=1, batch_size=4), SMALL, samples=2)
    assert base.n_train == 8 and base.n_test == 2


def test_mean_best_of_k_equals_per_instance_prediction():
    dataset = [toy_instance(agents=(4, 2)[i % 2], config=SMALL, seed=210 + i)
               for i in range(runtime.PREP_CHUNK + 3)]
    model = small_model(seed=8)
    ades, fdes = [], []
    with T.no_grad():
        for i, inst in enumerate(dataset):
            report = best_of_k(model.predict_field(inst, strategy="plain"), inst.fut_abs, 4,
                               seed=7 + i, origin_abs=inst.obs_abs[:, -1])
            ades.append(report.ade)
            fdes.append(report.fde)
    got = runtime.mean_best_of_k(model, dataset, 4, seed=7)
    assert np.array_equal(got, (float(np.mean(ades)), float(np.mean(fdes))))


@pytest.mark.parametrize("samples", (0, -3))
def test_too_few_samples_are_rejected_before_any_work(monkeypatch, samples):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the sample count was checked")

    monkeypatch.setattr(runtime, "train_offline", fail)
    monkeypatch.setattr(runtime, "chunked_arrays", fail)
    with pytest.raises(ConfigError, match="need at least one sample"):
        compute_base(toy_set(2), TrainConfig(epochs=1), SMALL, samples=samples)
    with pytest.raises(ConfigError, match="need at least one sample"):
        runtime.mean_best_of_k(small_model(), toy_set(2), samples, seed=0)


def test_base_requires_data():
    with pytest.raises(DataError):
        compute_base([], TrainConfig(epochs=1))


def test_mean_best_of_k_of_no_instances_is_a_data_error(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work started on an empty dataset")

    monkeypatch.setattr(runtime, "chunked_arrays", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="at least one instance"):
            runtime.mean_best_of_k(small_model(), [], 3, seed=0)


# ---------------------------------------------------------------------------
# per-run preparation


def entering_and_leaving_scene(seed, spans):
    """A random-walk scene over 64 frames (ids 0, 10, ...) in which agent
    a is present on frames ``spans[a]`` only."""
    rng = np.random.default_rng(seed)
    walks = np.cumsum(rng.normal(0.0, 0.3, (64, len(spans), 2)), axis=0)
    walks += rng.uniform(-4.0, 4.0, (1, len(spans), 2))
    present = np.zeros((64, len(spans)), dtype=bool)
    for agent, (lo, hi) in enumerate(spans):
        present[lo:hi, agent] = True
    return Scene(np.arange(64, dtype=np.int64) * 10, np.arange(1, len(spans) + 1, dtype=np.int64),
                 np.where(present[..., None], walks, 0.0), present)


def mixed_windows():
    """Windows of two scenes where agents enter and leave, interleaved by
    start frame as `load_dataset` orders them: runs of 2 to 4 agents,
    three of scene a's one window long. Every fifth window is recentred,
    which gives it a private track, and one window is listed twice in a
    row."""
    a = window_instances(entering_and_leaving_scene(
        1, [(0, 64), (0, 31), (9, 64), (25, 45), (40, 60), (44, 64)]), scene_id="a")
    b = window_instances(entering_and_leaving_scene(
        2, [(0, 64), (3, 64), (0, 40), (20, 64)]), scene_id="b")
    windows = sorted(a + b, key=lambda inst: inst.start_frame)
    windows = [inst.recentred() if i % 5 == 3 else inst for i, inst in enumerate(windows)]
    return windows[:9] + windows[8:]


def test_mixed_windows_hold_one_window_runs_and_views_of_shared_blocks():
    windows = mixed_windows()
    shared = [inst for inst in windows if not inst.track.flags.owndata]
    assert {inst.scene_id for inst in shared} == {"a", "b"}
    assert {inst.n_agents for inst in windows} == {2, 3, 4}
    alone = [inst for inst in shared if inst.track.strides[0] == inst.track[0].nbytes]
    assert {inst.start_frame for inst in alone if inst.scene_id == "a"} == {250, 400}
    assert windows[8] is windows[9]
    assert sum(inst.track.flags.owndata for inst in windows) >= len(windows) // 5


@pytest.mark.parametrize("chunk", (1, 4, 16, 200))
def test_runs_of_windows_prepare_like_each_window_alone(chunk):
    windows = mixed_windows()
    for config in (SMALL, dataclasses.replace(SMALL, kernel="rbf", rbf_sigma=0.7)):
        prepared = list(chunked_arrays(windows, config, chunk))
        assert [inst for inst, _ in prepared] == windows
        for (inst, arrays), (_, want) in zip(prepared, per_instance_arrays(windows, config, 1)):
            for got, expected in zip(arrays, want):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            assert arrays[2].strides[1:] == want[2].strides[1:] == inst.fut_rel.strides
            # The graphs of the window's own frames, built as one call.
            graphs = instance_graphs(inst.obs_abs.transpose(1, 0, 2),
                                     inst.obs_rel.transpose(1, 0, 2), config.kernel,
                                     config.rbf_sigma)
            assert arrays[1].tobytes() == graphs.tobytes()


def test_runs_of_windows_train_like_each_window_prepared_alone(monkeypatch):
    windows = mixed_windows()
    config = TrainConfig(epochs=2, batch_size=7, lr=1e-3, lr_after=1e-3, seed=4)
    for model_config in (SMALL, dataclasses.replace(SMALL, kernel="rbf", rbf_sigma=0.7)):
        with monkeypatch.context() as patch:
            patch.setattr(runtime, "frame_tables", per_instance_stacks)
            alone = train_offline(windows, config, model_config)
        runs = train_offline(windows, config, model_config)
        assert runs.loss_log == alone.loss_log
        assert runs.model.arena.data.tobytes() == alone.model.arena.data.tobytes()


@pytest.mark.parametrize("kernel", ("motion_trend", "rbf"))
@pytest.mark.parametrize("strategy", ("ea", "hedge"))
def test_runs_of_windows_replay_like_each_window_prepared_alone(monkeypatch, strategy, kernel):
    windows = mixed_windows()
    config = OnlineConfig(strategy=strategy, updates_per_instance=2, max_instances=len(windows),
                          rr_checkpoints=(0, 16, 40), seed=2)
    base = BaseMetrics(ade=0.5, fde=0.9, n_train=0, n_test=0)

    def replay():
        model = TrajectoryModel(dataclasses.replace(SMALL, kernel=kernel, rbf_sigma=0.7), seed=3)
        return model, run_online(model, windows, config, base=base)

    runs = replay()
    monkeypatch.setattr(runtime, "chunked_arrays", per_instance_arrays)
    assert_same_replay(runs, replay())


def test_a_run_of_windows_builds_two_graphs_per_window(monkeypatch):
    built = []

    def counted(positions, motions, *args):
        built.append(len(positions))
        return instance_graphs(positions, motions, *args)

    monkeypatch.setattr(model_module, "instance_graphs", counted)
    t_obs = SMALL.t_obs
    windows = synthetic_instances(SyntheticScenarioSpec(kind="oneway", seed=3), 100)
    # A chunk of n windows of one run: n zero-motion graphs, one per start,
    # and the n + T_obs - 2 frames observed after some window's first.
    list(chunked_arrays(windows, SMALL, 16))
    assert built[:6] == [16 + 16 + t_obs - 2] * 6 and built[6:] == [4 + 4 + t_obs - 2]
    # Training prepares the whole run at once, GRAPH_FRAMES graphs a call.
    built.clear()
    run = synthetic_instances(SyntheticScenarioSpec(kind="oneway", seed=3), 300)
    frame_tables(run, SMALL)
    assert built == [GRAPH_FRAMES, 2 * 300 + t_obs - 2 - GRAPH_FRAMES]
    # A window alone, or a private track, builds its T_obs graphs.
    built.clear()
    list(chunked_arrays([windows[0], windows[0].recentred(), windows[50]], SMALL, 3))
    assert built == [3 * t_obs]


def test_runs_are_cut_where_windows_start_a_span_apart():
    # A table holds each frame of a run once, and no frame between runs.
    span = SMALL.t_obs + SMALL.t_pred
    windows = synthetic_instances(SyntheticScenarioSpec(kind="oneway", seed=3), 120)
    for picked, frames in ((windows[::span - 1], 6 * (span - 1) + span),
                           (windows[::span], 6 * span),
                           (windows[:3] + windows[:3][::-1], 2 + span),
                           ([w.recentred() for w in windows[:3]], 3 * span)):
        [table] = frame_tables(picked, SMALL)[0].values()
        assert len(table.steps) == frames
    # Runs of one window each: the table is their steps, window after window.
    assert table.steps.tobytes() == np.concatenate(
        [_steps(w.track).transpose(1, 0, 2) for w in picked]).tobytes()
    # Scene a's one-window runs share their agent count and strides.
    alone = [inst for inst in mixed_windows()
             if inst.scene_id == "a" and inst.start_frame in (250, 400)]
    [table] = frame_tables(alone, SMALL)[0].values()
    assert len(table.steps) == 2 * span


def test_training_preparation_holds_its_frame_tables_and_little_else():
    # One oneway run of 2000 windows over 2019 frames of 6 agents: a step
    # per frame and about two graphs per window, where a copy of every
    # window's arrays would hold 8.4 MB. Graphs are built GRAPH_FRAMES
    # at a time, so the peak stays within a few (GRAPH_FRAMES, 6, 6)
    # temporaries of what is held.
    windows = synthetic_instances(SyntheticScenarioSpec(kind="oneway"), 2000)
    config = ModelConfig()
    frame_tables(windows[:64], config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables, where = frame_tables(windows, config)
        held, peak = (b - before for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    steps = 2019 * 6 * 2 * 8
    graphs = (2 * 2000 + config.t_obs - 2) * 6 * 6 * 8
    assert held <= steps + graphs + 512 * len(windows)
    assert peak <= held + 2 * steps + 8 * (GRAPH_FRAMES * 6 * 6 * 8)
    assert tables[6].steps.nbytes == steps and tables[6].graphs.nbytes == graphs
    assert where == [(6, row) for row in range(2000)]


def test_preparation_does_not_depend_on_the_batch_size(monkeypatch):
    # One oneway run of 1100 windows needs 2206 graphs, so every batch
    # size below makes more than one call's worth; at 1000, graphs built
    # a batch at a time would be 8000 frames a call.
    windows = synthetic_instances(SyntheticScenarioSpec(kind="oneway", seed=5), 1100)
    built, made = [], []

    def counted(positions, motions, *args):
        built.append(len(positions))
        return instance_graphs(positions, motions, *args)

    def kept(dataset, config):
        made.append(frame_tables(dataset, config))
        return made[-1]

    monkeypatch.setattr(model_module, "instance_graphs", counted)
    monkeypatch.setattr(runtime, "frame_tables", kept)
    for batch_size in (1, 7, 1000):
        train_offline(windows, TrainConfig(epochs=1, batch_size=batch_size, lr=1e-4), SMALL)
    made.append(frame_tables(windows, SMALL))
    assert len(made) == 4 and max(built) == GRAPH_FRAMES
    assert sum(built) == 4 * (2 * 1100 + SMALL.t_obs - 2)
    (tables, where), rest = made[0], made[1:]
    for other_tables, other_where in rest:
        assert other_where == where and other_tables.keys() == tables.keys() == {6}
        for name in FrameTables.__slots__:
            want, got = getattr(tables[6], name), getattr(other_tables[6], name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want
