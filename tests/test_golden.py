"""Seeded runs give the exact bytes recorded in tests/data/golden.json, at
every BLAS thread count.

The file holds one digest set. This test recomputes it in fresh
interpreters started with OPENBLAS_NUM_THREADS at 1, 2, 4 and unset (the
BLAS default), whatever setting it runs under, and compares each exactly.
The corpus trains at batch 64 on 6 agents; ``thread_probe`` reaches the
larger products of training at batch 128 on 6 and 12 agents. See
tests/make_golden.py for what each digest covers and how to regenerate
the file.

The set and the thread independence were checked on OpenBLAS's SkylakeX
kernels with numpy dispatching up to AVX512_SPR. Forced Haswell kernels
move 7 digests, and there 1 thread gives other bits than 2 and 4, so
both tests fail; numpy's baseline dispatch moves those 7 and
``hedge/updates``. A failure prints the ``blas_core`` and ``simd`` the
file records beside the ones it ran on; ``make_golden.py --kernels``
reports which digests each kernel this host can force moves.
"""

import copy
import json

import make_golden
from eanet import (OnlineConfig, SyntheticScenarioSpec, TrainConfig, run_online,
                   synthetic_instances, train_offline)
from eanet.runtime import mean_best_of_k
from make_golden import _floats, _sha

def test_golden_corpus_digests_are_unchanged():
    recorded = json.loads(make_golden.GOLDEN.read_text(encoding="utf-8"))
    failures = []
    for threads in ("1", "2", "4", "unset"):
        got = make_golden.run_at(threads)
        differ = make_golden.differing(recorded["digests"], got["digests"])
        if differ:
            failures.append(f"OPENBLAS_NUM_THREADS={threads}: golden digests differ: {differ}\n"
                            f"  recorded in: {recorded['environment']}\n"
                            f"  running in:  {got['environment']}"
                            + "".join(f"\n  {key}: recorded {recorded['environment'].get(key)}, "
                                      f"running {got['environment'].get(key)}"
                                      for key in ("blas_core", "simd")))
    assert not failures, "\n".join(failures)


def thread_probe() -> dict[str, str]:
    """Digests of the arena, losses and metrics of training at batch 128
    (inner sizes N·H of 1536 on 12 circle agents and 768 on 6 oneway
    agents), then of 60 ``ea`` updates and best-of-K on 20 windows."""
    digests = {}
    config = TrainConfig(epochs=2, batch_size=128, seed=0)
    for kind, agents in (("circle", 12), ("oneway", 6)):
        data = synthetic_instances(SyntheticScenarioSpec(kind=kind, agents=agents, seed=2), 300)
        trained = train_offline(data, config)
        digests[f"train/{kind}"] = _sha(trained.model.arena.data.tobytes(),
                                        _floats(trained.loss_log))
    model = copy.deepcopy(trained.model)
    stream = synthetic_instances(SyntheticScenarioSpec(kind="stagger", agents=6, seed=3), 20)
    result = run_online(model, stream, OnlineConfig(strategy="ea", updates_per_instance=3,
                                                    max_instances=20))
    digests["online/ea"] = _sha(model.arena.data.tobytes(),
                                *(_floats(getattr(r, key) for r in result.records)
                                  for key in ("loss", "ade", "fde")))
    digests["eval"] = _sha(_floats(mean_best_of_k(model, stream, 20, seed=4)))
    return digests


def test_training_replay_and_eval_bytes_do_not_depend_on_the_thread_count():
    runs = {threads: make_golden.run_at(threads, "test_golden.thread_probe")["digests"]
            for threads in ("1", "2", "4")}
    assert runs["1"] == runs["2"] == runs["4"], {
        threads: make_golden.differing(runs["1"], got) for threads, got in runs.items()}


def test_make_golden_writes_nothing_when_the_thread_count_moves_a_digest(monkeypatch, tmp_path,
                                                                          capsys):
    golden = tmp_path / "golden.json"
    sets = {"1": {"environment": {"threads": "1"}, "digests": {"a": "0", "b": "1", "c": "2"}},
            "unset": {"environment": {"threads": None}, "digests": {"a": "0", "b": "3"}}}
    monkeypatch.setattr(make_golden, "GOLDEN", golden)
    monkeypatch.setattr(make_golden, "run_at", lambda threads: sets[threads])
    assert make_golden.main() == 1
    assert not golden.exists()
    assert capsys.readouterr().err.rstrip().endswith(": b, c")

    sets["unset"] = {"environment": {"threads": None}, "digests": dict(sets["1"]["digests"])}
    assert make_golden.main() == 0
    assert json.loads(golden.read_text(encoding="utf-8")) == sets["1"]
