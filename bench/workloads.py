"""The benchmark's four workloads and the checks on their outputs.

Each workload makes its inputs from a seed in `setup`, runs one timed
pass in `run`, calling `tick` after every step (a training epoch, an
online instance, an evaluated instance), and turns the pass result into
`Outputs` in `outputs`, outside the timed region. Why each workload
exists is written down in `README.md` next to this file.

Seeds: the oneway data and the offline model use `seed`, the stagger
stream and the online head use `seed + 1`, the circle scene uses
`seed + 2`, and best-of-K sampling uses `seed + i` for instance `i`.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eanet import (OnlineConfig, SyntheticScenarioSpec, TrainConfig, TrainingDiverged,
                   load_checkpoint, run_online, save_checkpoint, synthetic_instances,
                   train_offline)
from eanet import gaussian
from eanet import tensor as T


@dataclass(frozen=True)
class Sizes:
    train: int = 2000          # oneway instances in one train_oneway pass
    epochs: int = 3            # epochs in one train_oneway pass
    pretrain: int = 256        # oneway instances behind the checkpoint
    pretrain_epochs: int = 4
    stream: int = 1000         # stagger instances in one online replay
    eval: int = 100            # circle instances in one eval pass
    quality: int = 64          # training instances, evenly spaced, the trained model is scored on


FULL = Sizes()
# The default-seed run whose outputs are stored in references/: the same
# code paths and array shapes as FULL, on fewer instances.
REFERENCE = Sizes(train=256, epochs=2, stream=100, eval=10, quality=16)
REFERENCE_SEED = 0
# Scaling every conv2d output by a random 1 +- 1e-10 moves these outputs by
# at most 6e-12 relative (so re-associated sums, at about 1e-14, pass);
# 1 +- 1e-7 moves them by 5e-9 and fails, as does any change to what is
# computed.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

BATCH = 64
AGENTS = 6
EVAL_AGENTS = 12
SAMPLES = 20


@dataclass
class Prepared:
    seed: int
    sizes: Sizes
    instances: list
    model: object | None
    phases: dict[str, float]
    fingerprint: str


@dataclass
class Outputs:
    steps: int
    failures: list[str]
    values: dict[str, np.ndarray]
    health: str
    quality: dict[str, float]


@contextlib.contextmanager
def _timed(phases: dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def _digest(instances, blob: bytes = b"") -> str:
    h = hashlib.sha256(blob)
    for inst in instances:
        h.update(inst.obs_abs.tobytes())
        h.update(inst.fut_abs.tobytes())
    return h.hexdigest()


def _oneway(seed: int) -> SyntheticScenarioSpec:
    return SyntheticScenarioSpec(kind="oneway", agents=AGENTS, noise_std=0.2, seed=seed)


def _staircase(epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=BATCH, lr=5e-4, lr_after=2e-3,
                       lr_drop_epoch=max(1, epochs // 2), seed=seed)


def _pretrained(seed: int, sizes: Sizes, workdir: str, phases: dict[str, float]):
    """Offline model on oneway data, saved and reloaded as a checkpoint."""
    with _timed(phases, "data.gen_s"):
        data = synthetic_instances(_oneway(seed), sizes.pretrain)
    with _timed(phases, "pretrain_s"):
        trained = train_offline(data, _staircase(sizes.pretrain_epochs, seed)).model
    path = os.path.join(workdir, "pretrained.ckpt")
    with _timed(phases, "checkpoint.save_s"):
        save_checkpoint(trained, path)
    with _timed(phases, "checkpoint.load_s"):
        model, _ = load_checkpoint(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    os.remove(path)
    return model, blob


def _trajectory_values(ade, fde, **extra) -> dict[str, np.ndarray]:
    return {"ade": np.asarray(ade, dtype=np.float64), "fde": np.asarray(fde, dtype=np.float64),
            **{k: np.asarray(v, dtype=np.float64) for k, v in extra.items()}}


def _nonfinite(values: dict[str, np.ndarray]) -> list[str]:
    return [f"non-finite {key}" for key, arr in values.items() if not np.all(np.isfinite(arr))]


class TrainOneway:
    name = "train_oneway"
    skip_first_step = True  # the first epoch of a pass also builds every graph

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Prepared:
        phases: dict[str, float] = {}
        with _timed(phases, "data.gen_s"):
            data = synthetic_instances(_oneway(seed), sizes.train)
        return Prepared(seed, sizes, data, None, phases, _digest(data))

    def work(self, prep: Prepared) -> int:
        return len(prep.instances) * prep.sizes.epochs

    def fresh(self, prep: Prepared):
        return None

    def run(self, prep: Prepared, _, tick):
        try:
            return train_offline(prep.instances, _staircase(prep.sizes.epochs, prep.seed),
                                 progress=lambda epoch, loss: tick())
        except TrainingDiverged as exc:
            return exc

    def outputs(self, prep: Prepared, result) -> Outputs:
        epochs = prep.sizes.epochs
        if isinstance(result, TrainingDiverged):
            return Outputs(epochs, [f"training diverged: {result}"], {}, "diverged", {})
        # Spread over the whole scene: neighbouring windows share most frames.
        scored = prep.instances[::len(prep.instances) // prep.sizes.quality][:prep.sizes.quality]
        ade, fde = zip(*(gaussian.ade_fde(result.model.predict(inst), inst.fut_abs)
                         for inst in scored))
        values = _trajectory_values(ade, fde, loss_log=result.loss_log)
        quality = {"ade_mean": float(np.mean(ade)), "fde_mean": float(np.mean(fde)),
                   "loss_final": float(result.loss_log[-1])}
        return Outputs(epochs, _nonfinite(values), values, "normal", quality)


class OnlineStagger:
    skip_first_step = False

    def __init__(self, strategy: str):
        self.strategy = strategy
        self.name = f"online_{strategy}_stagger"

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Prepared:
        phases: dict[str, float] = {}
        model, blob = _pretrained(seed, sizes, workdir, phases)
        with _timed(phases, "data.gen_s"):
            stream = synthetic_instances(
                SyntheticScenarioSpec(kind="stagger", agents=AGENTS, seed=seed + 1), sizes.stream)
        return Prepared(seed, sizes, stream, model, phases, _digest(stream, blob))

    def work(self, prep: Prepared) -> int:
        return len(prep.instances)

    def fresh(self, prep: Prepared):
        return copy.deepcopy(prep.model)

    def run(self, prep: Prepared, model, tick):
        config = OnlineConfig(strategy=self.strategy, seed=prep.seed + 1,
                              max_instances=len(prep.instances))
        return run_online(model, prep.instances, config, progress=lambda idx, rec: tick())

    def outputs(self, prep: Prepared, result) -> Outputs:
        records = result.records
        loss = np.array([r.loss for r in records])
        values = _trajectory_values([r.ade for r in records], [r.fde for r in records], loss=loss)
        failures = _nonfinite(values)
        failures += [f"instance {r.instance_idx}: update skipped ({r.health})"
                     for r in records if r.grad_norm is None or r.health != "normal"]
        if result.health.status != "normal":
            failures.append(f"run health {result.health.status}")
        quality = {"ade_mean": float(values["ade"].mean()), "fde_mean": float(values["fde"].mean()),
                   "loss_final": float(loss[len(loss) // 2:].mean())}
        return Outputs(len(prep.instances), failures, values, result.health.status, quality)


class EvalBokCircle:
    name = "eval_bok_circle"
    skip_first_step = False

    def setup(self, seed: int, sizes: Sizes, workdir: str) -> Prepared:
        phases: dict[str, float] = {}
        model, blob = _pretrained(seed, sizes, workdir, phases)
        with _timed(phases, "data.gen_s"):
            data = synthetic_instances(
                SyntheticScenarioSpec(kind="circle", agents=EVAL_AGENTS, seed=seed + 2), sizes.eval)
        return Prepared(seed, sizes, data, model, phases, _digest(data, blob))

    def work(self, prep: Prepared) -> int:
        return len(prep.instances)

    def fresh(self, prep: Prepared):
        return prep.model

    def run(self, prep: Prepared, model, tick):
        """The `eanet eval` loop: plain head off the tape, then best of K."""
        fields, reports = [], []
        with T.no_grad():
            for i, inst in enumerate(prep.instances):
                gfield = model.predict_field(inst, strategy="plain")
                reports.append(gaussian.best_of_k(gfield, inst.fut_abs, SAMPLES,
                                                  seed=prep.seed + i,
                                                  origin_abs=inst.obs_abs[:, -1]))
                fields.append(gfield)
                tick()
        return fields, reports

    def outputs(self, prep: Prepared, result) -> Outputs:
        fields, reports = result
        values = _trajectory_values([r.ade for r in reports], [r.fde for r in reports])
        with T.no_grad():
            nll = [gaussian.nll_loss(f, inst.fut_rel).item()
                   for f, inst in zip(fields, prep.instances)]
        quality = {"ade_mean": float(values["ade"].mean()), "fde_mean": float(values["fde"].mean()),
                   "loss_final": float(np.mean(nll))}
        return Outputs(len(prep.instances), _nonfinite(values), values, "normal", quality)


WORKLOADS = {w.name: w for w in (TrainOneway(), OnlineStagger("ea"), OnlineStagger("hedge"),
                                 EvalBokCircle())}


def same_outputs(a: Outputs, b: Outputs) -> bool:
    """Bit-for-bit equality of two passes over the same inputs."""
    return (a.health == b.health and a.values.keys() == b.values.keys()
            and all(np.array_equal(a.values[k], b.values[k], equal_nan=True) for k in a.values))


def reference_path(workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def reference_outputs(workload, workdir: str) -> Outputs:
    prep = workload.setup(REFERENCE_SEED, REFERENCE, workdir)
    return workload.outputs(prep, workload.run(prep, workload.fresh(prep), lambda: None))


def write_reference(workload, workdir: str) -> None:
    out = reference_outputs(workload, workdir)
    doc = {"workload": workload.name, "seed": REFERENCE_SEED, "sizes": vars(REFERENCE),
           "health": out.health, "values": {k: v.tolist() for k, v in out.values.items()}}
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def compare_reference(out: Outputs, doc: dict) -> list[str]:
    """Mismatches between a pass's outputs and a stored reference."""
    problems = []
    if out.health != doc["health"]:
        problems.append(f"health {out.health!r}, reference {doc['health']!r}")
    for key, expected in doc["values"].items():
        expected = np.asarray(expected, dtype=np.float64)
        actual = out.values.get(key)
        if actual is None or actual.shape != expected.shape:
            problems.append(f"{key}: shape {None if actual is None else actual.shape}, "
                            f"reference {expected.shape}")
            continue
        bad = ~np.isclose(actual, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
        if bad.any():
            i = int(np.argmax(bad))
            problems.append(f"{key}: {int(bad.sum())} of {bad.size} differ, first at {i}: "
                            f"{actual.flat[i]!r} vs reference {expected.flat[i]!r}")
    return problems


def check_reference(workload, workdir: str) -> list[str]:
    doc = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    return compare_reference(reference_outputs(workload, workdir), doc)
