"""End-to-end acceptance checks.

Each test prints a single ``criterion NN name: PASS/FAIL (...)`` line to
the real stderr, so a full run doubles as the sign-off report even under
pytest's output capture. Criteria 1-6 and 9-11 are fast property or
oracle checks. Criteria 7 and 8 train models and run online streams. In
one run of the full test suite on a 2-vCPU Intel Xeon host (Python
3.11.7, numpy 2.4.6), the shared pretraining fixture took 15 s,
criterion 7 23 s and criterion 8 10 s, of 49 s for this file.

Run just this file with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest

from eanet import tensor as T
from eanet.attention import HedgeState, hedge_update
from eanet.checkpoint import load_checkpoint, save_checkpoint
from eanet.data import SyntheticScenarioSpec, synthetic_instances
from eanet.gaussian import ade_fde, decode_gaussian, nll_loss, restore_ratio
from eanet.gradcheck import run_gradient_checks
from eanet.graph import KERNEL_KINDS, build_adjacency, normalize_adjacency
from eanet.model import ModelConfig, TrajectoryModel, toy_instance
from eanet.runtime import OnlineConfig, TrainConfig, compute_base, run_online, train_offline

# Desk-scale online-recovery recipe (criteria 7 and 8). The pretraining
# scenario and optimiser are free choices; the stagger stream parameters
# and the 100-epoch budget are fixed by the experiment definition. The
# learning-rate staircase warms up below the early plateau's stability
# ceiling before raising the rate once the scale channels have settled.
# Online runs in criterion 7 use one shared, slightly raised rate so the
# freshly seeded gating head finishes re-fitting well before the
# instance-300 checkpoint; criterion 8 sticks to config defaults.
PRETRAIN_NOISE = 0.2
PRETRAIN_LR = 5e-4
PRETRAIN_LR_AFTER = 2e-3
PRETRAIN_WARMUP_EPOCHS = 20
PRETRAIN_BATCH = 64
BASE_EPOCHS = 60
RECOVERY_ONLINE_LR = 0.005
STREAM_SEEDS = (1, 2, 3, 4, 5)
CENSUS_SEEDS = tuple(range(1, 11))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})\n"
    sys.__stderr__.write(line)
    sys.__stderr__.flush()


def test_01_gradient_integrity():
    t0 = time.time()
    results = run_gradient_checks()
    elapsed = time.time() - t0
    composed = [r for r in results if r[0] == "composed_model"]
    assert len(composed) == 1
    _, worst, passed = composed[0]
    ok = passed and worst < 1e-4 and elapsed < 60.0
    _report(1, "gradient-integrity", ok,
            f"composed max rel err {worst:.3e}, suite {elapsed:.1f}s")
    assert ok, (worst, elapsed)


def _pair_weights(kind, v_i, v_j, r_i, r_j, rbf_sigma=1.0):
    """(w_ij, w_ji) from `build_adjacency` on the two-agent frame."""
    adjacency = build_adjacency(kind, np.stack([v_i, v_j]), np.stack([r_i, r_j]), rbf_sigma)
    return adjacency[0, 1], adjacency[1, 0]


def test_02_kernel_suite():
    rng = np.random.default_rng(20)
    failures = []
    for kind in KERNEL_KINDS:
        for case in range(1000):
            v_i, v_j = rng.normal(size=2) * 4.0, rng.normal(size=2) * 4.0
            r_i, r_j = rng.normal(size=2) * 0.5, rng.normal(size=2) * 0.5
            w_ij, w_ji = _pair_weights(kind, v_i, v_j, r_i, r_j, rbf_sigma=1.3)
            if w_ij != w_ji:
                failures.append((kind, case, "symmetry"))
            if not w_ij >= 0.0:
                failures.append((kind, case, "nonnegative"))
            if _pair_weights(kind, v_i, v_i, r_i, r_j, rbf_sigma=1.3) != (0.0, 0.0):
                failures.append((kind, case, "coincident"))
    # Motion-trend weight must fall strictly as the motion gap widens at
    # fixed positions.
    monotone = 0
    for case in range(1000):
        v_i, v_j = rng.normal(size=2) * 4.0, rng.normal(size=2) * 4.0
        if np.array_equal(v_i, v_j):
            continue
        r_i = rng.normal(size=2) * 0.5
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        near = _pair_weights("motion_trend", v_i, v_j, r_i, r_i + 0.3 * direction)[0]
        far = _pair_weights("motion_trend", v_i, v_j, r_i, r_i + 1.1 * direction)[0]
        if near > far:
            monotone += 1
    ok = not failures and monotone == 1000
    _report(2, "kernel-suite", ok,
            f"{len(failures)} property failures, monotone {monotone}/1000")
    assert ok, failures[:5]


def test_03_normalization_oracle():
    got = normalize_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle_ok = np.max(np.abs(got - 0.5)) <= 1e-12
    rng = np.random.default_rng(3)
    worst_asym = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.0, 2.0, size=(n, n))
        adj = np.triu(raw, 1)
        adj = adj + adj.T
        norm = normalize_adjacency(adj)
        worst_asym = max(worst_asym, float(np.max(np.abs(norm - norm.T))))
    ok = oracle_ok and worst_asym <= 1e-12
    _report(3, "normalization-oracle", ok,
            f"2x2 max dev {np.max(np.abs(got - 0.5)):.2e}, worst asym {worst_asym:.2e}")
    assert ok


def test_04_nll_anchor():
    field = decode_gaussian(T.Tensor(np.zeros((1, 12, 3, 5))))
    value = nll_loss(field, np.zeros((3, 12, 2))).item()
    err = abs(value - 12.0 * math.log(2.0 * math.pi))
    ok = err <= 1e-9
    _report(4, "nll-anchor", ok, f"|nll - 12 log 2pi| = {err:.2e}")
    assert ok


def test_05_metric_oracles():
    rng = np.random.default_rng(5)
    exact = 0
    for _ in range(1000):
        p, t = int(rng.integers(1, 6)), int(rng.integers(1, 14))
        pred = rng.normal(size=(p, t, 2))
        truth = rng.normal(size=(p, t, 2))
        got_ade, got_fde = ade_fde(pred, truth)
        total, last = 0.0, 0.0
        for a in range(p):
            for f in range(t):
                d = math.hypot(pred[a, f, 0] - truth[a, f, 0],
                               pred[a, f, 1] - truth[a, f, 1])
                total += d
                if f == t - 1:
                    last += d
        if got_ade == total / (p * t) and got_fde == last / p:
            exact += 1
    truth = rng.normal(size=(4, 12, 2))
    offset = ade_fde(truth + np.array([3.0, 4.0]), truth)
    offset_ok = offset == (5.0, 5.0)
    rr_zero = restore_ratio(0.4, 0.8, 0.4, 0.8)
    rr_quarter = restore_ratio(0.5, 1.0, 0.4, 0.8)
    rr_ok = (rr_zero == 0.0
             and rr_quarter == 0.5 * ((0.5 - 0.4) / 0.4 + (1.0 - 0.8) / 0.8)
             and abs(rr_quarter - 0.25) <= 1e-12)
    ok = exact == 1000 and offset_ok and rr_ok
    _report(5, "metric-oracles", ok,
            f"brute force {exact}/1000, offset {offset}, rr {rr_zero}/{rr_quarter:.4f}")
    assert ok


def test_06_equivariance_invariance():
    model = TrajectoryModel(ModelConfig(), seed=6)
    rng = np.random.default_rng(60)
    worst_perm, worst_shift = 0.0, 0.0
    for i in range(50):
        agents = int(rng.integers(2, 7))
        inst = toy_instance(agents=agents, config=model.config, seed=1000 + i)
        perm = rng.permutation(agents)
        permuted = type(inst)(
            scene_id=inst.scene_id,
            agent_ids=[inst.agent_ids[j] for j in perm],
            start_frame=inst.start_frame,
            obs_abs=inst.obs_abs[perm],
            fut_abs=inst.fut_abs[perm],
        )
        out = model.predict(inst)
        out_perm = model.predict(permuted)
        worst_perm = max(worst_perm, float(np.max(np.abs(out[perm] - out_perm))))

        shift = rng.uniform(-200.0, 200.0, size=2)
        moved = inst.translated(shift)
        rel = model.predict(inst) - inst.obs_abs[:, -1][:, None, :]
        rel_moved = model.predict(moved) - moved.obs_abs[:, -1][:, None, :]
        worst_shift = max(worst_shift, float(np.max(np.abs(rel - rel_moved))))
    ok = worst_perm <= 1e-10 and worst_shift <= 1e-10
    _report(6, "equivariance-invariance", ok,
            f"worst permutation dev {worst_perm:.2e}, worst translation dev {worst_shift:.2e}")
    assert ok


def _stagger_stream(seed: int):
    return synthetic_instances(
        SyntheticScenarioSpec(kind="stagger", agents=6, speed=0.4,
                              noise_std=0.02, seed=seed), 1000)


def _staircase(epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=PRETRAIN_BATCH,
                       lr=PRETRAIN_LR, lr_after=PRETRAIN_LR_AFTER,
                       lr_drop_epoch=PRETRAIN_WARMUP_EPOCHS, seed=seed)


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """100-epoch offline model for the oneway scene, saved once per session.

    Training took 15 s in one run on a 2-vCPU Intel Xeon host; the
    checkpoint is reloaded for every online run so each starts from
    identical parameters.
    """
    dataset = synthetic_instances(
        SyntheticScenarioSpec(kind="oneway", agents=6, speed=0.4,
                              noise_std=PRETRAIN_NOISE, seed=0), 2000)
    start = time.time()
    result = train_offline(dataset, _staircase(100, seed=0))
    elapsed = time.time() - start
    path = tmp_path_factory.mktemp("recovery") / "pretrained.ckpt"
    save_checkpoint(result.model, str(path))
    return str(path), elapsed


def test_07_online_recovery(pretrained):
    path, pretrain_seconds = pretrained
    start = time.time()
    rr0, rr300, plain300 = [], [], []
    for seed in STREAM_SEEDS:
        stream = _stagger_stream(seed)
        base = compute_base(stream, _staircase(BASE_EPOCHS, seed=seed))
        runs = {}
        for strategy in ("ea", "plain"):
            model, _ = load_checkpoint(path)
            cfg = OnlineConfig(strategy=strategy, lr=RECOVERY_ONLINE_LR,
                               seed=seed, rr_checkpoints=(0, 300))
            runs[strategy] = run_online(model, stream, cfg, base=base)
        rr0.append(runs["ea"].rr_at[0])
        rr300.append(runs["ea"].rr_at[300])
        plain300.append(runs["plain"].rr_at[300])
    elapsed = pretrain_seconds + (time.time() - start)
    wins = sum(e < p for e, p in zip(rr300, plain300))
    degraded_ok = min(rr0) > 0.3
    recovered_ok = float(np.median(rr300)) <= 0.5 * float(np.median(rr0))
    wins_ok = wins >= 4
    time_ok = elapsed < 1800.0
    ok = degraded_ok and recovered_ok and wins_ok and time_ok
    _report(7, "online-recovery", ok,
            f"rr0 min {min(rr0):.2f}, median rr300 {float(np.median(rr300)):.2f} "
            f"vs half rr0 {0.5 * float(np.median(rr0)):.2f}, ea wins {wins}/5, "
            f"{elapsed / 60:.1f} min")
    assert ok, (rr0, rr300, plain300, elapsed)


def test_08_health_census(pretrained):
    # Both arms keep every config default except the two hygiene knobs
    # under test (step size and clipping), so the exploded/normal contrast
    # is attributable to those knobs alone.
    path, _ = pretrained
    exploded, normal, triggers = 0, 0, []
    for seed in CENSUS_SEEDS:
        stream = _stagger_stream(seed)
        model, _ = load_checkpoint(path)
        unstable = OnlineConfig(lr=0.05, clip_norm=None,
                                seed=seed, rr_checkpoints=())
        with np.errstate(all="ignore"):
            hot = run_online(model, stream, unstable).health
        model, _ = load_checkpoint(path)
        calm = run_online(model, stream,
                          OnlineConfig(seed=seed, rr_checkpoints=())).health
        exploded += hot.status == "exploded"
        normal += calm.status == "normal"
        triggers.append(hot.first_trigger_instance)
    ok = exploded >= 1 and normal == len(CENSUS_SEEDS)
    _report(8, "health-census", ok,
            f"unclipped lr=0.05 exploded {exploded}/10 "
            f"(first triggers {sorted(set(triggers))}), defaults normal {normal}/10")
    assert ok, (exploded, normal, triggers)


def test_09_hedge_baseline():
    rng = np.random.default_rng(9)
    state = HedgeState.uniform(5)
    worst = 0.0
    for _ in range(10000):
        losses = rng.uniform(0.0, 50.0, size=5)
        state = hedge_update(state, losses)
        worst = max(worst, abs(float(state.w.sum()) - 1.0))
    simplex_ok = worst <= 1e-12
    worked = hedge_update(HedgeState(w=np.array([0.5, 0.5]), beta=0.5, smoothing=0.2),
                          [0.0, 1.0])
    worked_ok = bool(np.allclose(worked.w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12))
    ok = simplex_ok and worked_ok
    _report(9, "hedge-baseline", ok,
            f"worst |sum-1| {worst:.2e} over 10000 updates, worked example {worked.w}")
    assert ok


def test_10_throughput():
    model = TrajectoryModel(ModelConfig(), seed=10)
    inst = toy_instance(agents=8, config=model.config, seed=10)
    for _ in range(3):
        model.predict(inst)
    t0 = time.time()
    n = 50
    for _ in range(n):
        model.predict(inst)
    rate = n / (time.time() - t0)
    ok = rate >= 10.0
    _report(10, "throughput", ok, f"{rate:.0f} predictions/s at P=8, L=5")
    assert ok


def test_11_checkpoint_round_trip(tmp_path):
    model = TrajectoryModel(ModelConfig(), seed=11)
    inst = toy_instance(agents=4, config=model.config, seed=11)
    first = tmp_path / "first.ckpt"
    second = tmp_path / "second.ckpt"
    save_checkpoint(model, str(first))
    before = model.predict(inst)
    loaded, _ = load_checkpoint(str(first))
    save_checkpoint(loaded, str(second))
    bytes_ok = first.read_bytes() == second.read_bytes()
    after = loaded.predict(inst)
    predict_ok = np.array_equal(before, after)
    ok = bytes_ok and predict_ok
    _report(11, "checkpoint-round-trip", ok,
            f"byte-identical {bytes_ok}, predict max dev "
            f"{float(np.max(np.abs(before - after))):.1e}")
    assert ok
