"""Self-tests of the benchmark harness itself, on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json

import pytest

import run

run._import_package()

import tracing  # noqa: E402
import workloads as W  # noqa: E402

TINY = W.Sizes(train=64, epochs=1, pretrain=64, pretrain_epochs=1, stream=8, eval=2, quality=4)


def _package_callables() -> dict:
    return {(m.__name__, attr): value for m in tracing._package_modules()
            for attr, value in vars(m).items() if callable(value)}


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Per workload: its inputs, an untraced pass, a traced pass, and what
    the package namespaces held before and after the traced pass."""
    workdir = str(tmp_path_factory.mktemp("bench"))
    out = {}
    for name, workload in W.WORKLOADS.items():
        prep = workload.setup(0, TINY, workdir)
        plain = run.timed_pass(workload, prep)
        before = _package_callables()
        traced = run.timed_pass(workload, prep, tracing.Tracer())
        out[name] = (prep, plain, traced, before, _package_callables())
    return out


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_pass_removes_every_wrapper(passes, name):
    _, _, traced, before, after = passes[name]
    assert traced.tracer.spans, "the traced pass recorded nothing"
    assert tracing.installed_wrappers() == []
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(passes, name):
    _, plain, traced, _, _ = passes[name]
    assert plain.outputs.health == traced.outputs.health
    assert plain.outputs.values.keys() == traced.outputs.values.keys()
    for key, value in plain.outputs.values.items():
        assert value.tobytes() == traced.outputs.values[key].tobytes(), key


def test_every_listed_per_layer_metric_is_measured(passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"] for m in spec["per_layer"]}
    nonzero = set()
    for prep, plain, traced, _, _ in passes.values():
        values, detail = run.per_layer([plain], [traced], [prep])
        assert detail["absent"] == [] and detail["broken"] == []
        assert "trace.overhead_frac" in values
        nonzero |= {key for key, value in values.items() if value != 0}
    assert listed - {"trace.overhead_frac"} <= nonzero


def test_self_time_subtracts_time_covered_by_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 2.0, 3.0, 1, 0),
        S("a", 5.0, 6.0, 0, 1),
        S("c", 7.0, 9.5, 0, 1),
        # overlapping children cover their union, once
        S("d", 20.0, 24.0, None, 2),
        S("e", 21.0, 23.0, 5, 2),
        S("e", 22.0, 25.0, 5, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"root": 10.0 - 3.0 - 1.0 - 2.5, "a": 2.0 + 1.0, "b": 1.0, "c": 2.5,
         "d": 4.0 - 3.0, "e": 2.0 + 3.0})


def test_missing_layers_and_broken_counters_are_reported_not_raised(passes):
    prep = passes["eval_bok_circle"][0]
    hooks = tracing.HOOKS + (
        tracing.Hook("tensor", "no_such_op"),
        tracing.Hook("no_such_module", "f"),
        tracing.Hook("graph", "normalize_adjacency", counts=lambda args, *_: {"x": args[9]}),
    )
    tracer = tracing.Tracer(hooks)
    traced = run.timed_pass(W.WORKLOADS["eval_bok_circle"], prep, tracer)
    assert tracer.absent == {"tensor.no_such_op", "no_such_module.f"}
    assert tracer.broken == {"graph.normalize_adjacency"}
    assert tracer.calls["graph.normalize_adjacency"] > 0
    assert traced.outputs.failures == []
    assert tracing.installed_wrappers() == []
