"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload online_ea_stagger --seed 0 --seconds 20 --trace 0

Run from a checkout: the package is imported from `src/` next to this
directory, never from an installed copy. The run sets up its inputs
`SETUP_REPEATS` times, then repeats whole passes of the workload for
about `--seconds`, checks every pass, replays the default-seed
reference, and prints two JSON lines: a detail record (environment,
sample counts, failures) and, last, the result:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics of untraced passes. `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (medians per pass) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
YARDSTICK_EVERY_S = 0.1
SETUP_YARDSTICKS = 5          # samples before and after each set-up
# Timings are reported at the machine speed where one yardstick takes this
# long, about its time on a quiet 2-vCPU Xeon KVM guest.
REFERENCE_YARDSTICK_S = 0.003
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
MIN_BEYOND_TAIL = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Pass:
    wall: float
    step_ms: list[float]
    yard_s: list[float]
    work: int
    outputs: object
    tracer: object | None


def _import_package():
    """Put the checkout's `src/` first on the path and import from it."""
    if not (SRC / "eanet" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'eanet'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import eanet
    if Path(eanet.__file__).resolve().parent != SRC / "eanet":
        sys.exit(f"bench: imported eanet from {eanet.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def yardstick() -> float:
    """Seconds for a fixed piece of work that never touches the package:
    Python integer and float arithmetic with small numpy reductions, the
    same mix an online step runs."""
    import numpy as np

    a = np.arange(32.0)
    x, acc = 12345, 0.0
    start = time.perf_counter()
    for i in range(5000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        acc += math.sqrt((x >> 11) * 2.0 ** -53 + 1.0)
        if i % 40 == 0:
            acc += float(np.sum(a * 0.5))
    return time.perf_counter() - start


def timed_pass(workload, prep, tracer=None) -> Pass:
    """One pass. An untraced pass also runs the yardstick between steps,
    once per YARDSTICK_EVERY_S of work; its time is left out of the pass's
    wall time and step times."""
    from tracing import ROOT_SPAN

    step_ms: list[float] = []
    yard_s: list[float] = []
    resume = last_yard = 0.0

    def tick():
        nonlocal resume, last_yard
        now = time.perf_counter()
        step_ms.append((now - resume) * 1e3)
        if tracer is not None:
            tracer.step = len(step_ms)
        elif now - last_yard >= YARDSTICK_EVERY_S:
            # One sample per YARDSTICK_EVERY_S of work, also when steps are
            # longer than that (a training epoch takes about a second).
            yard_s.extend(yardstick() for _ in range(int((now - last_yard) / YARDSTICK_EVERY_S)))
            last_yard = now
        resume = time.perf_counter()

    job = workload.fresh(prep)
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.callback(tracer.remove)
            tracer.install()
            stack.enter_context(tracer.span(ROOT_SPAN))
        start = resume = last_yard = time.perf_counter()
        result = workload.run(prep, job, tick)
        wall = time.perf_counter() - start - sum(yard_s)
    if workload.skip_first_step:
        step_ms = step_ms[1:]
    return Pass(wall, step_ms, yard_s, workload.work(prep), workload.outputs(prep, result),
                tracer)


def measure(workload, prep, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Whole passes for about `seconds`: another pass starts only if it is
    expected to end less than half a pass after the deadline, so a run
    does not overshoot by a whole pass when the host is slow. With `trace`,
    untraced and traced passes alternate and at least one of each runs."""
    from tracing import Tracer

    untraced: list[Pass] = []
    traced: list[Pass] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if untraced and (traced or not trace) and \
                now - start + statistics.fmean(cycles) / 2 > seconds:
            return untraced, traced
        if trace and len(traced) < len(untraced):
            traced.append(timed_pass(workload, prep, Tracer()))
        else:
            untraced.append(timed_pass(workload, prep))
        cycles.append(time.perf_counter() - now)


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with MIN_BEYOND_TAIL samples above
    it, else the lowest of them."""
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND_TAIL:
            return q
    return TAIL_PERCENTILES[-1]


def throughput(passes: list[Pass]) -> float:
    return sum(p.work for p in passes) / sum(p.wall for p in passes)


def end_to_end(passes: list[Pass], setups: list[tuple[float, float]],
               ok_frac: float) -> tuple[dict, dict]:
    """Metrics of the untraced passes and of the (wall, yardstick) set-ups.

    The host is shared and its speed drifts by up to a third between
    runs a minute apart, so set-up time and throughput are scaled to the
    reference machine speed by the yardstick timed around each set-up and
    within the passes. The raw figures, and the step-time median and
    tail, go to the detail line."""
    import numpy as np

    steps = np.array([ms for p in passes for ms in p.step_ms])
    q = tail_percentile(steps.size)
    tail = float(np.percentile(steps, q))
    yard = [y for p in passes for y in p.yard_s] or [yardstick()]
    quality = passes[0].outputs.quality
    values = {
        "setup_s": statistics.median(w * REFERENCE_YARDSTICK_S / y for w, y in setups),
        "throughput_norm": throughput(passes) * statistics.fmean(yard) / REFERENCE_YARDSTICK_S,
        "ok_frac": ok_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ade_mean": quality.get("ade_mean", float("nan")),
        "fde_mean": quality.get("fde_mean", float("nan")),
        "loss_final": quality.get("loss_final", float("nan")),
    }
    detail = {"setup_wall_s": statistics.median(w for w, _ in setups),
              "throughput_ips": throughput(passes), "yardstick_ms": statistics.fmean(yard) * 1e3,
              "yardstick_samples": len(yard), "step_ms_p50": float(np.median(steps)),
              "step_ms_tail": tail, "step_ms_tail_percentile": q,
              "step_samples": int(steps.size),
              "step_samples_beyond_tail": int(np.sum(steps > tail))}
    return values, detail


def per_layer(untraced: list[Pass], traced: list[Pass], preps) -> tuple[dict, dict]:
    """Per-pass medians over the traced passes, in the names BENCHMARK.json lists."""
    from tracing import HOOKS, ROOT_SPAN

    rows = []
    for p in traced:
        tr = p.tracer
        self_s = tr.self_times()
        row = {"runtime.other_s": self_s.get(ROOT_SPAN, 0.0)}
        for hook in HOOKS:
            row[f"{hook.name}.calls"] = tr.calls.get(hook.name, 0)
            if hook.timed:
                row[f"{hook.name}.self_s"] = self_s.get(hook.name, 0.0)
        row.update(tr.counters)
        taps = tr.counters.get("tensor.conv2d.taps", 0)
        live = tr.counters.get("tensor.conv2d.live_taps", 0)
        row["tensor.conv2d.live_tap_frac"] = live / taps if taps else 0.0
        rows.append(row)
    keys = sorted({k for row in rows for k in row})
    values = {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}
    for phase in ("checkpoint.load_s", "checkpoint.save_s", "data.gen_s"):
        values[phase] = statistics.median(prep.phases.get(phase, 0.0) for prep in preps)
    values["trace.overhead_frac"] = throughput(untraced) / throughput(traced) - 1.0
    detail = {"absent": sorted(set().union(*(p.tracer.absent for p in traced))),
              "broken": sorted(set().union(*(p.tracer.broken for p in traced))),
              "traced_passes": len(traced), "spans_per_pass": len(traced[0].tracer.spans)}
    return values, detail


def main(argv=None) -> int:
    # One BLAS thread: threaded BLAS on a small shared box is slower and far
    # noisier. This module imports numpy only after this line.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    env["loadavg_start"] = os.getloadavg()[0]

    failures: list[str] = []
    attempted = 0
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        setups, preps = [], []
        for _ in range(SETUP_REPEATS):
            yard = [yardstick() for _ in range(SETUP_YARDSTICKS)]
            start = time.perf_counter()
            preps.append(workload.setup(args.seed, W.FULL, workdir))
            wall = time.perf_counter() - start
            yard += [yardstick() for _ in range(SETUP_YARDSTICKS)]
            setups.append((wall, statistics.fmean(yard)))
        attempted += 1
        if len({p.fingerprint for p in preps}) != 1:
            failures.append("set-up is not deterministic: inputs or checkpoint differ")
        prep = preps[0]

        untraced, traced = measure(workload, prep, args.seconds, bool(args.trace))
        passes = untraced + traced
        first = passes[0].outputs
        for i, p in enumerate(passes):
            attempted += p.outputs.steps
            failures += [f"pass {i}: {msg}" for msg in p.outputs.failures]
            if i:
                attempted += 1
                if not W.same_outputs(p.outputs, first):
                    failures.append(f"pass {i}: outputs differ from pass 0")

        attempted += 1
        failures += [f"reference: {msg}" for msg in W.check_reference(workload, workdir)]

    env["loadavg_end"] = os.getloadavg()[0]
    ok_frac = 1.0 - len(failures) / attempted
    if args.trace:
        values, detail = per_layer(untraced, traced, preps)
        # A counter of a layer this workload never calls reads zero.
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values, detail = end_to_end(untraced, setups, ok_frac)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    detail.update({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "passes": len(passes),
        "setup_phases": {k: statistics.median(p.phases[k] for p in preps) for k in prep.phases},
        "failures": failures[:20],
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
