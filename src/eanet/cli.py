"""Command-line entry points.

Single-threaded orchestrator around the library: generate synthetic
scenes, train offline, replay a stream online, evaluate best-of-K
metrics, compute the base error pair, plot reports, and run the
gradient-check suite. Long runs print progress to standard error.

Exit codes: 0 on success, 1 for runtime and IO failures, 2 for usage
errors, 130 when interrupted (a KeyboardInterrupt, as from Ctrl-C),
which prints one error line and no traceback. Every command is
deterministic for a fixed --seed; the seed resolves as flag, then config
file, then EANET_SEED, then 0. `train`, `online`, `eval` and `base` exit
1 before they write anything when their data holds no complete t_obs +
t_pred window. `gen`, `train`, `online` and `plot` write a small JSON
manifest next to their primary output, `eval` and `base` only with
--out, `gradcheck` never. It records the subcommand name, the resolved
configuration digest, the seed, the inputs (the --config file among
them), the outputs and the environment (Python, numpy and BLAS versions,
the BLAS kernels and numpy SIMD targets in use, and BLAS thread settings); `online` adds its update `counters` and its
`health` verdict, and `train` the seconds of each finished epoch,
`epoch_s`, the first of which includes preparing the inputs. A diverged
or interrupted `train` writes no checkpoint, but still writes its loss
CSV for the epochs that finished and a manifest that records where it
diverged (`diverged`: epoch and step) or in which epoch it was
interrupted (`interrupted`: epoch and reason). An interrupted `online`
writes the report rows of the instances that finished, the bytes an
uninterrupted run writes for them, and a manifest that records the
instance it stopped at (`interrupted`: instance and reason).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import sys
import time

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

from . import config as C
from .checkpoint import load_checkpoint, save_checkpoint
from .data import SCENARIO_KINDS, SyntheticScenarioSpec, generate_synthetic, load_dataset, write_scene
from .errors import ConfigError, DataError, EanetError, TrainingDiverged
from .gradcheck import run_gradient_checks
from .graph import KERNEL_KINDS
from .model import ModelConfig
from .plots import plot_curves, plot_expert_strip
from .report import write_loss_csv, write_stream_csv, read_stream_csv
from .runtime import (ALIGNMENTS, DEFAULT_SAMPLES, STRATEGIES, BaseMetrics, OnlineConfig,
                      TrainConfig, check_samples, compute_base, mean_best_of_k, run_online,
                      train_offline)

ARTIFACT_VERSION = 1
# The flags that override config-file settings. Each dest names a field of
# the config its command builds, which `config.config_from` reads by name.
SETTINGS = "run settings"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Where numpy's wheels bundle scipy-openblas, relative to the numpy package,
# and the function that names the kernels it chose for this CPU.
BLAS_LIBS = ("../numpy.libs/*openblas*", ".dylibs/*openblas*")
BLAS_CORE_SYMBOL = "scipy_openblas_get_corename64_"


class _UsageError(Exception):
    """Flag combinations argparse cannot express; exits with code 2."""


def _environment() -> dict:
    """The interpreter, numpy and BLAS versions, the BLAS kernels and
    numpy SIMD targets in use, and the BLAS thread settings: what decides
    how the run's floats round. ``blas_core`` is the kernel family that
    OpenBLAS picked for this CPU, which need not be its build target, and
    ``simd`` lists numpy's enabled dispatch targets. The golden corpus was
    recorded on ``SkylakeX`` kernels, where the thread count does not
    change the bits. Forcing the Haswell kernels (``OPENBLAS_CORETYPE``)
    moves trained and replayed digests, and then 1 thread gives other
    bits than 2 and 4; disabling dispatch targets
    (``NPY_DISABLE_CPU_FEATURES``) moves digests too."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_core": _blas_core(),
        "simd": [target for target in _umath.__cpu_dispatch__
                 if _umath.__cpu_features__.get(target)],
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _blas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, read through ctypes, or
    ``"unknown"`` when the library or `BLAS_CORE_SYMBOL` is missing."""
    root = os.path.dirname(np.__file__)
    for path in sorted(p for pattern in BLAS_LIBS for p in glob.glob(os.path.join(root, pattern))):
        try:
            corename = getattr(ctypes.CDLL(path), BLAS_CORE_SYMBOL)
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _write_manifest(args, primary_output: str, digest: str, seed: int, inputs: list[str],
                    outputs: list[str], **extra) -> None:
    """Write ``<primary_output>.manifest.json``; ``extra`` keys (``counters``,
    ``health``, ``epoch_s``, ``diverged``, ``interrupted``) are recorded
    beside the common ones."""
    manifest = {
        "command": args.command,
        "config_digest": digest,
        "seed": seed,
        "inputs": inputs + ([args.config] if getattr(args, "config", None) else []),
        "outputs": outputs,
        "wall_clock_s": round(time.monotonic() - args.started, 3),
        "artifact_version": ARTIFACT_VERSION,
        "environment": _environment(),
        **extra,
    }
    with open(primary_output + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _settings(args) -> tuple[dict[str, str], int]:
    """The --config file's settings (none without one) and the resolved seed."""
    mapping = C.load_config_file(args.config) if args.config else {}
    return mapping, C.resolve_seed(args.seed, mapping)


def _windows(paths: list[str], config: ModelConfig, what: str):
    """``(files, instances)``: files stay files and directories expand to
    their sorted *.txt scenes, which are windowed for ``config``. Data with
    no complete window is an error before any output."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(n for n in os.listdir(path) if n.endswith(".txt"))
            if not names:
                raise DataError(f"no *.txt scene files in directory {path}")
            files.extend(os.path.join(path, n) for n in names)
        else:
            files.append(path)
    dataset = load_dataset(files, config.t_obs, config.t_pred)
    if not dataset:
        raise DataError(f"no trajectory windows in the {what}")
    return files, dataset


def _report_json(args, summary: dict, digest: str, seed: int, inputs: list[str]) -> int:
    """Print ``summary`` as JSON; with --out also write it and its manifest."""
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(args, args.out, digest, seed, inputs, [args.out])
    sys.stdout.write(text)
    return 0


def _progress(every: int, line):
    """A progress callback that prints ``line(step, value)`` to stderr at
    every ``every``-th step."""
    def callback(step, value):
        if step % every == 0:
            print(line(step, value), file=sys.stderr)
    return callback


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    _, seed = _settings(args)
    spec = SyntheticScenarioSpec(kind=args.kind, agents=args.agents, speed=args.speed,
                                 noise_std=args.noise, period=args.period,
                                 extent=args.extent, seed=seed)
    scene = generate_synthetic(spec, args.frames)
    write_scene(scene, args.out)
    digest = C.config_digest({**dataclasses.asdict(spec), "frames": args.frames})
    _write_manifest(args, args.out, digest, seed, [], [args.out])
    print(f"wrote {int(scene.present.sum())} observations to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    mapping, seed = _settings(args)
    model_config = C.config_from(ModelConfig, mapping, overrides=args)
    train_config = C.config_from(TrainConfig, mapping, seed, overrides=args)
    data_paths, dataset = _windows(args.data, model_config, "training data")
    print(f"training on {len(dataset)} instances for {train_config.epochs} epochs",
          file=sys.stderr)
    show = _progress(max(1, train_config.epochs // 10),
                     lambda epoch, loss: f"epoch {epoch}: {loss}")
    losses, epoch_s = [], []
    last = time.monotonic()

    def progress(epoch, loss):
        nonlocal last
        now = time.monotonic()
        epoch_s.append(round(now - last, 6))
        last = now
        losses.append(loss)
        show(epoch, loss)

    loss_path = args.loss_log or args.ckpt_out + ".loss.csv"
    digest = C.config_digest({**dataclasses.asdict(model_config),
                              **dataclasses.asdict(train_config)})
    try:
        result = train_offline(dataset, train_config, model_config, progress=progress)
    except (TrainingDiverged, KeyboardInterrupt) as exc:
        # No checkpoint: the finished epochs' losses and where the run stopped.
        write_loss_csv(losses, loss_path)
        stopped = ({"diverged": {"epoch": exc.epoch, "step": exc.step}}
                   if isinstance(exc, TrainingDiverged) else
                   {"interrupted": {"epoch": len(losses), "reason": "keyboard interrupt"}})
        _write_manifest(args, args.ckpt_out, digest, seed, data_paths, [loss_path],
                        epoch_s=epoch_s, **stopped)
        raise
    save_checkpoint(result.model, args.ckpt_out)
    write_loss_csv(result.loss_log, loss_path)
    _write_manifest(args, args.ckpt_out, digest, seed, data_paths, [args.ckpt_out, loss_path],
                    epoch_s=epoch_s)
    print(f"final loss {result.loss_log[-1]:.6f}", file=sys.stderr)
    return 0


def _base_from_flags(parser_name: str, base_ade, base_fde) -> BaseMetrics | None:
    for flag, value in (("--base-ade", base_ade), ("--base-fde", base_fde)):
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{parser_name}: {flag} must be finite and positive, got {value!r}")
    if base_ade is None and base_fde is None:
        return None
    if base_ade is None or base_fde is None:
        raise _UsageError(f"{parser_name}: --base-ade and --base-fde must be given together")
    return BaseMetrics(ade=base_ade, fde=base_fde, n_train=0, n_test=0)


def cmd_online(args) -> int:
    mapping, seed = _settings(args)
    online_config = C.config_from(OnlineConfig, mapping, seed, overrides=args)
    base = _base_from_flags("online", args.base_ade, args.base_fde)
    model, _ = load_checkpoint(args.ckpt)
    stream_paths, stream = _windows(args.stream, model.config, "stream data")
    replayed = min(len(stream), online_config.max_instances)
    print(f"replaying {replayed} of {len(stream)} stream instances, "
          f"strategy={online_config.strategy}", file=sys.stderr)
    show = _progress(max(1, replayed // 10), lambda idx, record: (
        f"instance {idx}: loss={record.loss:.4f} ade={record.ade:.4f} health={record.health}"))
    rows = []

    def progress(idx, record):
        rows.append(record)
        show(idx, record)

    layers = model.config.stack_layers
    digest = C.config_digest(dataclasses.asdict(online_config))
    inputs = [args.ckpt] + stream_paths
    try:
        result = run_online(model, stream, online_config, base=base, progress=progress)
    except KeyboardInterrupt:
        # The finished rows and where the replay stopped.
        write_stream_csv(rows, args.report, layers=layers)
        _write_manifest(args, args.report, digest, seed, inputs, [args.report],
                        interrupted={"instance": len(rows), "reason": "keyboard interrupt"})
        raise
    write_stream_csv(rows, args.report, layers=layers)
    health = result.health
    _write_manifest(args, args.report, digest, seed, inputs, [args.report],
                    counters=dataclasses.asdict(result.counters),
                    health=dataclasses.asdict(health))
    summary = health.status
    if health.first_trigger_instance is not None:
        summary += f" (first trigger at instance {health.first_trigger_instance})"
    print(f"health: {summary}")
    for mark in sorted(result.rr_at):
        value = result.rr_at[mark]
        if value is not None:
            print(f"rr@{mark}: {value:.6f}")
    return 0


def cmd_eval(args) -> int:
    check_samples(args.samples)
    _, seed = _settings(args)
    model, _ = load_checkpoint(args.ckpt)
    data_paths, dataset = _windows(args.data, model.config, "evaluation data")
    ade, fde = mean_best_of_k(model, dataset, args.samples, seed)
    summary = {"ade": ade, "fde": fde, "k": args.samples, "instances": len(dataset)}
    digest = C.config_digest({"samples": args.samples, "seed": seed})
    return _report_json(args, summary, digest, seed, [args.ckpt] + data_paths)


def cmd_base(args) -> int:
    check_samples(args.samples)
    mapping, seed = _settings(args)
    model_config = C.config_from(ModelConfig, mapping, overrides=args)
    train_config = C.config_from(TrainConfig, mapping, seed, overrides=args)
    data_paths, dataset = _windows(args.data, model_config, "base data")
    print(f"base split over {len(dataset)} instances", file=sys.stderr)
    base = compute_base(dataset, train_config, model_config, samples=args.samples)
    summary = {"ade_base": base.ade, "fde_base": base.fde,
               "n_train": base.n_train, "n_test": base.n_test}
    digest = C.config_digest({**dataclasses.asdict(model_config),
                              **dataclasses.asdict(train_config), "samples": args.samples})
    return _report_json(args, summary, digest, seed, data_paths)


def cmd_plot(args) -> int:
    records = read_stream_csv(args.report)
    base = _base_from_flags("plot", args.base_ade, args.base_fde)
    curves_path = args.out + ".curves.svg"
    experts_path = args.out + ".experts.svg"
    plot_curves(records, curves_path, base=base)
    plot_expert_strip(records, experts_path)
    digest = C.config_digest({"report": args.report})
    _write_manifest(args, curves_path, digest, 0, [args.report], [curves_path, experts_path])
    print(f"wrote {curves_path} and {experts_path}", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_checks()
    failures = 0
    for name, error, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: max relative error {error:.3e}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} gradient checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="seed; falls back to config file, EANET_SEED, then 0")


def _add_config(parser):
    parser.add_argument("--config", default=None, help="flat key = value config file")


def _add_train_flags(parser):
    group = parser.add_argument_group(SETTINGS)
    group.add_argument("--epochs", type=int, default=None)
    group.add_argument("--batch-size", type=int, default=None)
    group.add_argument("--lr", type=float, default=None)
    group.add_argument("--lr-after", type=float, default=None)
    group.add_argument("--lr-drop-epoch", type=int, default=None)
    group.add_argument("--t-obs", type=int, default=None)
    group.add_argument("--t-pred", type=int, default=None)
    group.add_argument("--stack-layers", type=int, default=None)
    group.add_argument("--kernel", default=None, choices=KERNEL_KINDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eanet",
                                     description="online trajectory prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    spec = SyntheticScenarioSpec()
    p = sub.add_parser("gen", help="generate a synthetic scene file")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--agents", type=int, default=spec.agents)
    p.add_argument("--speed", type=float, default=spec.speed)
    p.add_argument("--noise", type=float, default=spec.noise_std)
    p.add_argument("--period", type=int, default=spec.period)
    p.add_argument("--extent", type=float, default=spec.extent)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_config(p)
    _add_seed(p)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("train", help="offline training run")
    p.add_argument("--data", nargs="+", required=True,
                   help="scene files or directories of *.txt scenes")
    p.add_argument("--ckpt-out", required=True)
    p.add_argument("--loss-log", default=None,
                   help="loss CSV path (default: <ckpt-out>.loss.csv)")
    _add_config(p)
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("online", help="prequential online replay")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--stream", nargs="+", required=True)
    p.add_argument("--report", required=True, help="stream report CSV path")
    group = p.add_argument_group(SETTINGS)
    group.add_argument("--strategy", default=None, choices=STRATEGIES)
    group.add_argument("--alignment", default=None, choices=ALIGNMENTS)
    group.add_argument("--lr", type=float, default=None)
    group.add_argument("--clip-norm", default=None,
                       help="gradient clip threshold, or 'none' to disable")
    group.add_argument("--max-instances", type=int, default=None)
    group.add_argument("--updates-per-instance", type=int, default=None)
    p.add_argument("--base-ade", type=float, default=None)
    p.add_argument("--base-fde", type=float, default=None)
    _add_config(p)
    _add_seed(p)
    p.set_defaults(handler=cmd_online)

    p = sub.add_parser("eval", help="best-of-K metrics for a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--out", default=None, help="JSON summary path (default: stdout only)")
    _add_config(p)
    _add_seed(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("base", help="scene-native base error pair")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--out", default=None)
    _add_config(p)
    _add_train_flags(p)
    _add_seed(p)
    p.set_defaults(handler=cmd_base)

    p = sub.add_parser("plot", help="render report SVGs")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.curves.svg and <out>.experts.svg")
    p.add_argument("--base-ade", type=float, default=None)
    p.add_argument("--base-fde", type=float, default=None)
    p.set_defaults(handler=cmd_plot)

    p = sub.add_parser("gradcheck", help="run the analytic-vs-numeric gradient suite")
    p.set_defaults(handler=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.monotonic()
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EanetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"error: {args.command} interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
