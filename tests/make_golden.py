"""The golden corpus: sha256 digests of what seeded runs produce.

    PYTHONPATH=src python tests/make_golden.py

rewrites ``tests/data/golden.json`` and prints which digests it added,
removed or changed against the file it overwrote; ``tests/test_golden.py``
recomputes every digest and compares exactly. Regenerate the file only in
a change that means to alter the numbers, and say so in CHANGES.md.

The file holds one digest set, which every BLAS thread count must give.
Each set is computed in a fresh interpreter started with its
``OPENBLAS_NUM_THREADS``, which BLAS reads only at start-up: this script
computes it with the variable at 1 and unset (the BLAS default), and if
any digest differs between the two it writes nothing, prints the names of
the digests that differ and exits 1. The test recomputes the set at
several thread counts.

The set was made, and its thread independence checked, on OpenBLAS's
SkylakeX kernels with numpy dispatching up to AVX512_SPR (the
``blas_core`` and ``simd`` the file records). The bits depend on both.
With the Haswell kernels forced (``OPENBLAS_CORETYPE=Haswell``), 7
digests move (``pretrain/params`` and the six ``online/*`` replays), and
the thread-independence rule fails there: 1 thread gives other training
and replay bits than 2 and 4. With numpy at its baseline dispatch
(``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3"``)
those 7 move and so does ``hedge/updates``, which makes no BLAS call.

    PYTHONPATH=src python tests/make_golden.py --kernels

is a report, not a test, and writes nothing: it recomputes the set in
fresh interpreters under each OpenBLAS kernel family that
``OPENBLAS_CORETYPE`` reaches on this host (`CORETYPES` are tried, and
each kernel the library reports is run once) and under numpy's baseline
dispatch, and prints which recorded digests move under each.

The corpus covers:

* ``pretrain/*``: the checkpoint bytes and loss log of the benchmark's
  pretrain recipe (256 oneway instances, 4 epochs, batch 64, seed 0),
  and the float64 bytes of its parameters, which the float32 checkpoint
  and the four-epoch loss log can hold still through a change of a few
  ulps;
* ``online/<strategy>/u<n>``: a 200-instance stagger replay of a deep
  copy of that trained float64 model, as training left it in memory (not
  of its checkpoint), for each strategy at 1 and 3 updates per instance,
  over the float64 records, the per-row and run health, and ``rr_at``;
* ``cli/eval`` and ``cli/base``: the JSON that ``eanet eval`` and
  ``eanet base`` print for a small circle scene;
* ``hedge/updates``: 1000 seeded `hedge_update` steps, long enough for
  the weight floor to bind, which the 200-instance hedge replay never does;
* ``v1_resaved``: the version 1 checkpoint fixture re-saved as version 2;
* ``data/<kind>/noise<std>/period<p>``: the float64 tracks of a 30-frame,
  3-agent synthetic scene and its 11 windowed instances (every array,
  agent id, start frame and scene id), for each kind with and without
  noise, and for stagger at turn periods 1 and 3.

The file also records the environment the set was made in, since other
BLAS builds and CPUs may round differently: `environment`, which carries
``blas_core`` and ``simd`` from the manifests' environment.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from eanet import (BaseMetrics, HedgeState, OnlineConfig, SyntheticScenarioSpec, TrainConfig,
                   cli, generate_synthetic, hedge_update, run_online, synthetic_instances,
                   train_offline)
from eanet.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from eanet.data import SCENARIO_KINDS

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = DATA / "golden.json"
V1_FILE = DATA / "checkpoint_v1.ckpt"

PRETRAIN = 256
STREAM = 200
STRATEGIES = ("ea", "plain", "hedge")
UPDATES = (1, 3)
# Fixed base metrics, so every row carries a restore ratio.
BASE = BaseMetrics(ade=0.5, fde=0.9, n_train=0, n_test=0)
# (kind, noise_std, period) of the data/* scenes.
SCENES = [(kind, noise, period) for kind in SCENARIO_KINDS for noise in (0.0, 0.2)
          for period in ((1, 3) if kind == "stagger" else (10,))]
# x86-64 kernel families that `--kernels` asks OpenBLAS for, oldest first.
# A build falls back to the nearest kernel it has and the CPU can run.
CORETYPES = ("Prescott", "Core2", "Nehalem", "Sandybridge", "Haswell", "SkylakeX",
             "Cooperlake", "SapphireRapids")


def environment() -> dict:
    """What every ``eanet`` manifest records (the BLAS runtime kernel
    ``blas_core`` and numpy's dispatch targets ``simd`` among it), plus
    the CPU architecture and the BLAS build configuration, which can also
    change how floats round."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {**cli._environment(), "machine": platform.machine(),
            "blas_config": str(blas.get("openblas configuration"))}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _floats(values) -> bytes:
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64).tobytes()


def _pretrained():
    data = synthetic_instances(SyntheticScenarioSpec(kind="oneway", agents=6, noise_std=0.2,
                                                     seed=0), PRETRAIN)
    config = TrainConfig(epochs=4, batch_size=64, lr=5e-4, lr_after=2e-3, lr_drop_epoch=2,
                         seed=0)
    return train_offline(data, config)


def _replay_digest(model, stream, strategy: str, updates: int) -> str:
    config = OnlineConfig(strategy=strategy, updates_per_instance=updates, seed=1,
                          max_instances=len(stream))
    result = run_online(copy.deepcopy(model), stream, config, base=BASE)
    records = result.records
    arrays = [_floats(getattr(r, key) for r in records)
              for key in ("ade", "fde", "rr", "loss", "grad_norm")]
    arrays += [_floats(v for r in records for v in (getattr(r, key) or ()))
               for key in ("expert", "alpha")]
    text = json.dumps({"health": [r.health for r in records],
                       "run": [result.health.status, result.health.first_trigger_instance],
                       "rr_at": {str(k): v for k, v in sorted(result.rr_at.items())}})
    return _sha(*arrays, text.encode())


def _hedge_digest() -> str:
    rng = np.random.default_rng(0)
    state = HedgeState.uniform(5, beta=0.7)
    weights = []
    for _ in range(1000):
        state = hedge_update(state, rng.uniform(0.0, 10.0, size=5))
        weights.append(state.w)
    return _sha(np.array(weights).tobytes())


def _scene_digest(kind: str, noise_std: float, period: int) -> str:
    spec = SyntheticScenarioSpec(kind=kind, agents=3, noise_std=noise_std, period=period,
                                 seed=SCENARIO_KINDS.index(kind) + 1)
    scene = generate_synthetic(spec, 30)
    # (frame, agent, x, y) as float64, frames in order, agents ascending.
    frames, agents = np.nonzero(scene.present)
    rows = np.column_stack([scene.frame_ids[frames], scene.agent_ids[agents],
                            scene.coords[frames, agents]]).astype(np.float64)
    instances = synthetic_instances(spec, 11)
    arrays = [getattr(inst, key).tobytes() for inst in instances
              for key in ("obs_abs", "fut_abs", "obs_rel", "fut_rel")]
    text = json.dumps([[inst.scene_id, inst.agent_ids, inst.start_frame] for inst in instances])
    return _sha(rows.tobytes(), *arrays, text.encode())


def _cli_json(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"eanet {argv[0]} exited with {code}")
    return _sha(out.getvalue().encode())


def compute() -> dict[str, str]:
    """Every digest of the corpus, by name."""
    trained = _pretrained()
    digests = {"pretrain/checkpoint": _sha(checkpoint_bytes(trained.model)),
               "pretrain/loss_log": _sha(_floats(trained.loss_log)),
               "pretrain/params": _sha(*(p.data.tobytes() for p in trained.model.params.values()))}
    stream = synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=6, seed=1), STREAM)
    for strategy in STRATEGIES:
        for updates in UPDATES:
            digests[f"online/{strategy}/u{updates}"] = _replay_digest(
                trained.model, stream, strategy, updates)
    with tempfile.TemporaryDirectory() as tmp:
        scene, ckpt = f"{tmp}/circle.txt", f"{tmp}/model.ckpt"
        save_checkpoint(trained.model, ckpt)
        _cli_json(["gen", "--kind", "circle", "--agents", "4", "--frames", "40",
                   "--seed", "4", "--out", scene])
        digests["cli/eval"] = _cli_json(["eval", "--ckpt", ckpt, "--data", scene,
                                         "--seed", "11"])
        digests["cli/base"] = _cli_json(["base", "--data", scene, "--epochs", "3",
                                         "--batch-size", "8", "--seed", "5"])
    digests["hedge/updates"] = _hedge_digest()
    digests["v1_resaved"] = _sha(checkpoint_bytes(load_checkpoint(str(V1_FILE))[0]))
    for scene in SCENES:
        digests["data/{}/noise{}/period{}".format(*scene)] = _scene_digest(*scene)
    return digests


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The names of the digests that ``a`` and ``b`` do not share."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def run_at(threads: str, call: str = "make_golden.compute", **variables: str) -> dict:
    """The environment and the result of ``call``, a ``module.function`` of
    this directory, from a fresh interpreter whose OPENBLAS_NUM_THREADS is
    ``threads`` (removed for ``unset``) and whose environment also holds
    ``variables``; BLAS and numpy read them only at start-up."""
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS" and k not in variables}
    if threads != "unset":
        env["OPENBLAS_NUM_THREADS"] = threads
    env.update(variables)
    module, function = call.rsplit(".", 1)
    code = (f"import json, sys; sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]; "
            f"import make_golden as g, {module} as m; "
            f"print(json.dumps({{'environment': g.environment(), 'digests': m.{function}()}}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def kernels() -> int:
    """Print which recorded digests move under each BLAS kernel that
    ``OPENBLAS_CORETYPE`` reaches here and under numpy's baseline
    dispatch, each computed in a fresh interpreter at one BLAS thread."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    here = environment()
    print(f"this host runs {here['blas_core']} kernels, simd {' '.join(here['simd'])}")
    reached: dict[str, str] = {}
    for name in CORETYPES:
        try:
            forced = run_at("1", "make_golden.environment", OPENBLAS_CORETYPE=name)
        except subprocess.CalledProcessError:
            print(f"OPENBLAS_CORETYPE={name}: the interpreter did not start")
            continue
        reached.setdefault(forced["environment"]["blas_core"], name)
    settings = [({"OPENBLAS_CORETYPE": name}, f"OPENBLAS_CORETYPE={name} ({core} kernels)")
                for core, name in reached.items()]
    if here["simd"]:
        baseline = " ".join(reversed(here["simd"]))
        settings.append(({"NPY_DISABLE_CPU_FEATURES": baseline},
                         f'NPY_DISABLE_CPU_FEATURES="{baseline}" (baseline dispatch)'))
    for variables, label in settings:
        moved = differing(recorded, run_at("1", **variables)["digests"])
        print(f"{label}: {len(moved)} of {len(recorded)} digests move"
              + "".join(f"\n  {name}" for name in moved))
    return 0


def main(argv: list[str] = ()) -> int:
    parser = argparse.ArgumentParser(description="Rewrite tests/data/golden.json.")
    parser.add_argument("--kernels", action="store_true",
                        help="report which digests move under other BLAS kernels and "
                             "numpy's baseline dispatch; write nothing")
    if parser.parse_args(argv).kernels:
        return kernels()
    doc, unset = run_at("1"), run_at("unset")
    differ = differing(doc["digests"], unset["digests"])
    if differ:
        print(f"digests differ between OPENBLAS_NUM_THREADS=1 and unset, so {GOLDEN} was not "
              f"written: {', '.join(differ)}", file=sys.stderr)
        return 1
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    new, was = doc["digests"], old.get("digests", {})
    print(f"wrote {len(new)} digests to {GOLDEN}", file=sys.stderr)
    for label, names in (("added", new.keys() - was.keys()),
                         ("removed", was.keys() - new.keys()),
                         ("changed", {k for k in new.keys() & was.keys() if new[k] != was[k]})):
        print(f"  {label}: {', '.join(sorted(names)) or 'none'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
