"""Command-line entry points.

Single-threaded orchestrator around the library: generate synthetic
scenes, train offline, replay a stream online, evaluate best-of-K
metrics, compute the base error pair, plot reports, and run the
gradient-check suite. Long runs print progress to standard error.

Exit codes: 0 on success, 1 for runtime and IO failures, 2 for usage
errors. Every command is deterministic for a fixed --seed; the seed
resolves as flag, then config file, then EANET_SEED, then 0. Each
command writes a small JSON manifest next to its primary output listing
the resolved configuration digest, inputs, outputs, and the environment
(Python, numpy and BLAS versions and BLAS thread settings). A diverged
`train` writes no checkpoint, but still writes its loss CSV for the
epochs that finished and a manifest that records where it diverged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np

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


class _UsageError(Exception):
    """Flag combinations argparse cannot express; exits with code 2."""


def _expand_data_paths(paths: list[str]) -> list[str]:
    """Files stay files; directories expand to their sorted *.txt scenes."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            names = sorted(n for n in os.listdir(path) if n.endswith(".txt"))
            if not names:
                raise DataError(f"no *.txt scene files in directory {path}")
            out.extend(os.path.join(path, n) for n in names)
        else:
            out.append(path)
    return out


def _environment() -> dict:
    """The interpreter, numpy and BLAS versions and the BLAS thread
    settings, which decide how the run's floats round: numpy's loops
    choose the log, cos and sin bits, and BLAS the matmul sums."""
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
    }


def _write_manifest(primary_output: str, command: str, digest: str, seed: int,
                    inputs: list[str], outputs: list[str], started: float,
                    counters: dict | None = None, diverged: dict | None = None) -> str:
    manifest = {
        "command": command,
        "config_digest": digest,
        "seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "wall_clock_s": round(time.monotonic() - started, 3),
        "artifact_version": ARTIFACT_VERSION,
        "environment": _environment(),
    }
    if counters is not None:
        manifest["counters"] = counters
    if diverged is not None:
        manifest["diverged"] = diverged
    path = primary_output + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_mapping(args) -> dict[str, str]:
    if getattr(args, "config", None):
        return C.load_config_file(args.config)
    return {}


def _progress(stream_name: str, every: int):
    def callback(step, value):
        if step % every == 0:
            print(f"{stream_name} {step}: {value}", file=sys.stderr)
    return callback


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args) -> int:
    started = time.monotonic()
    mapping = _load_mapping(args)
    seed = C.resolve_seed(args.seed, mapping)
    spec = SyntheticScenarioSpec(kind=args.kind, agents=args.agents, speed=args.speed,
                                 noise_std=args.noise, period=args.period,
                                 extent=args.extent, seed=seed)
    tracks = generate_synthetic(spec, args.frames)
    write_scene(tracks, args.out)
    digest = C.config_digest({**dataclasses.asdict(spec), "frames": args.frames})
    _write_manifest(args.out, "gen", digest, seed, [], [args.out], started)
    print(f"wrote {len(tracks)} observations to {args.out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    mapping = _load_mapping(args)
    seed = C.resolve_seed(args.seed, mapping)
    model_config = C.config_from(ModelConfig, mapping, overrides=args)
    train_config = C.config_from(TrainConfig, mapping, seed, overrides=args)
    data_paths = _expand_data_paths(args.data)
    dataset = load_dataset(data_paths, model_config.t_obs, model_config.t_pred)
    if not dataset:
        raise DataError("no trajectory windows in the training data")
    print(f"training on {len(dataset)} instances for {train_config.epochs} epochs",
          file=sys.stderr)
    every = max(1, train_config.epochs // 10)
    loss_path = args.loss_log or args.ckpt_out + ".loss.csv"
    digest = C.config_digest({**dataclasses.asdict(model_config),
                              **dataclasses.asdict(train_config)})
    inputs = data_paths + ([args.config] if args.config else [])
    try:
        result = train_offline(dataset, train_config, model_config,
                               progress=_progress("epoch", every))
    except TrainingDiverged as exc:
        # No checkpoint: the finished epochs' losses and where it diverged.
        write_loss_csv(exc.loss_log, loss_path)
        _write_manifest(args.ckpt_out, "train", digest, seed, inputs, [loss_path], started,
                        diverged={"epoch": exc.epoch, "step": exc.step})
        raise
    save_checkpoint(result.model, args.ckpt_out)
    write_loss_csv(result.loss_log, loss_path)
    _write_manifest(args.ckpt_out, "train", digest, seed, inputs,
                    [args.ckpt_out, loss_path], started)
    print(f"final loss {result.loss_log[-1]:.6f}" if result.loss_log else "no epochs run",
          file=sys.stderr)
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
    started = time.monotonic()
    mapping = _load_mapping(args)
    seed = C.resolve_seed(args.seed, mapping)
    online_config = C.config_from(OnlineConfig, mapping, seed, overrides=args)
    base = _base_from_flags("online", args.base_ade, args.base_fde)
    model, _ = load_checkpoint(args.ckpt)
    stream_paths = _expand_data_paths(args.stream)
    stream = load_dataset(stream_paths, model.config.t_obs, model.config.t_pred)
    print(f"replaying {min(len(stream), online_config.max_instances)} of "
          f"{len(stream)} stream instances, strategy={online_config.strategy}",
          file=sys.stderr)
    every = max(1, min(len(stream), online_config.max_instances) // 10 or 1)

    def progress(idx, record):
        if idx % every == 0:
            print(f"instance {idx}: loss={record.loss:.4f} ade={record.ade:.4f} "
                  f"health={record.health}", file=sys.stderr)

    result = run_online(model, stream, online_config, base=base, progress=progress)
    write_stream_csv(result.records, args.report, layers=model.config.stack_layers)
    digest = C.config_digest(dataclasses.asdict(online_config))
    _write_manifest(args.report, "online", digest, seed,
                    [args.ckpt] + stream_paths + ([args.config] if args.config else []),
                    [args.report], started, counters=dataclasses.asdict(result.counters))
    health = result.health
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
    started = time.monotonic()
    check_samples(args.samples)
    mapping = _load_mapping(args)
    seed = C.resolve_seed(args.seed, mapping)
    model, _ = load_checkpoint(args.ckpt)
    data_paths = _expand_data_paths(args.data)
    dataset = load_dataset(data_paths, model.config.t_obs, model.config.t_pred)
    if not dataset:
        raise DataError("no trajectory windows in the evaluation data")
    ade, fde = mean_best_of_k(model, dataset, args.samples, seed)
    summary = {
        "ade": ade,
        "fde": fde,
        "k": args.samples,
        "instances": len(dataset),
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = C.config_digest({"samples": args.samples, "seed": seed})
        _write_manifest(args.out, "eval", digest, seed,
                        [args.ckpt] + data_paths, [args.out], started)
    sys.stdout.write(text)
    return 0


def cmd_base(args) -> int:
    started = time.monotonic()
    check_samples(args.samples)
    mapping = _load_mapping(args)
    seed = C.resolve_seed(args.seed, mapping)
    model_config = C.config_from(ModelConfig, mapping, overrides=args)
    train_config = C.config_from(TrainConfig, mapping, seed, overrides=args)
    data_paths = _expand_data_paths(args.data)
    dataset = load_dataset(data_paths, model_config.t_obs, model_config.t_pred)
    print(f"base split over {len(dataset)} instances", file=sys.stderr)
    base = compute_base(dataset, train_config, model_config, samples=args.samples)
    summary = {"ade_base": base.ade, "fde_base": base.fde,
               "n_train": base.n_train, "n_test": base.n_test}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = C.config_digest({**dataclasses.asdict(model_config),
                                  **dataclasses.asdict(train_config), "samples": args.samples})
        _write_manifest(args.out, "base", digest, seed, data_paths, [args.out], started)
    sys.stdout.write(text)
    return 0


def cmd_plot(args) -> int:
    started = time.monotonic()
    records = read_stream_csv(args.report)
    base = _base_from_flags("plot", args.base_ade, args.base_fde)
    curves_path = args.out + ".curves.svg"
    experts_path = args.out + ".experts.svg"
    plot_curves(records, curves_path, base=base)
    plot_expert_strip(records, experts_path)
    digest = C.config_digest({"report": args.report})
    _write_manifest(curves_path, "plot", digest, 0, [args.report],
                    [curves_path, experts_path], started)
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
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EanetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
