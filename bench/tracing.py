"""Per-layer tracing for the benchmark, applied from outside the package.

A `Tracer` replaces named functions of the `eanet` modules with wrappers
that record a span (name, start, end, parent span, step id) and per-call
counters, and puts the originals back on `remove()`. Nothing in `src/` is
edited: a function is found by module and attribute name, and every
`eanet` module namespace that bound the same function object (for
example through `from .gaussian import nll_loss`) is patched too, so the
wrapper sees every call the package makes.

A hook whose module or function no longer exists is reported `absent`
instead of failing, so the benchmark keeps running after a refactor
deletes a layer. A counter that cannot read the arguments it expects is
reported `broken` the same way.

Spans nest strictly, because the package is single threaded. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "eanet"


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


def _conv2d_counts(args, kwargs, result, tape_at_entry, tape_delta):
    x, kernel = _array(args[0]), _array(args[1])
    n = x.shape[0] if x.ndim == 4 else 1
    c_out, c_in, kh, kw = kernel.shape
    h, w = x.shape[-2:]
    live = int(np.count_nonzero(np.any(kernel != 0, axis=(0, 1))))
    return {"macs": n * c_out * c_in * h * w * kh * kw, "live_taps": live, "taps": kh * kw}


def _backward_counts(args, kwargs, result, tape_at_entry, tape_delta):
    return {"tape_records": tape_at_entry}


def _nll_counts(args, kwargs, result, tape_at_entry, tape_delta):
    # A call that leaves the tape as it was ran under no_grad.
    return {"nograd_calls": int(tape_delta == 0)}


def _sample_counts(args, kwargs, result, tape_at_entry, tape_delta):
    k, p, t = np.shape(result)[:3]
    return {"draws": k * p * t}


@dataclass(frozen=True)
class Hook:
    """One wrapped function. `timed` hooks record spans; the others only
    count calls. `counts` maps (args, kwargs, result, tape length at
    entry, tape growth) to named per-call counters; `tape` says whether
    it reads the two tape lengths."""

    module: str
    function: str
    timed: bool = True
    counts: Callable | None = None
    tape: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


HOOKS = (
    Hook("tensor", "conv2d", counts=_conv2d_counts),
    Hook("tensor", "backward", counts=_backward_counts, tape=True),
    Hook("tensor", "global_grad_norm"),
    Hook("graph", "instance_graphs"),
    Hook("graph", "build_adjacency", timed=False),
    Hook("graph", "gcn_forward"),
    Hook("temporal", "time_expand"),
    Hook("temporal", "stack_forward"),
    Hook("attention", "ea_output"),
    Hook("attention", "hedge_output"),
    Hook("attention", "hedge_update"),
    Hook("gaussian", "decode_gaussian"),
    Hook("gaussian", "nll_loss", counts=_nll_counts, tape=True),
    Hook("gaussian", "sample_trajectories", counts=_sample_counts),
    Hook("gaussian", "ade_fde"),
    Hook("runtime", "sgd_step"),
)

ROOT_SPAN = "root"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: int


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name: each span's duration minus the
    union of its children's intervals, clipped to the span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    totals: dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[idx], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans and counters for one traced pass. Install, run, remove."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[Span | None] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self.broken: set[str] = set()
        self.step = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tape_len: Callable[[], int] | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        start, step = time.perf_counter(), self.step
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = Span(name, start, time.perf_counter(), parent, step)

    def self_times(self) -> dict[str, float]:
        """Self times of a finished pass, when every span is closed."""
        return self_times(self.spans)

    # ------------------------------------------------------------ hooks

    def _wrap(self, hook: Hook, fn):
        tracer = self
        name = hook.name
        tape_len = self._tape_len if hook.tape else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            before = tape_len() if tape_len is not None else 0
            if hook.timed:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook.counts is not None and name not in tracer.broken:
                after = tape_len() if tape_len is not None else 0
                try:
                    extra = hook.counts(args, kwargs, result, before, after - before)
                except (AttributeError, IndexError, TypeError, ValueError):
                    tracer.broken.add(name)
                else:
                    for key, value in extra.items():
                        tracer.counters[f"{name}.{key}"] += value
            return result

        wrapper.__bench_hook__ = name
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            tensor = importlib.import_module(f"{PACKAGE}.tensor")
            self._tape_len = lambda: len(tensor.tape())
            self._tape_len()
        except (ImportError, AttributeError, TypeError):
            self._tape_len = None
        found = {}
        for name in {hook.module for hook in self.hooks}:
            try:
                found[name] = importlib.import_module(f"{PACKAGE}.{name}")
            except ImportError:
                pass
        # Listed after the imports above, so every module that can bind a
        # hooked function is patched.
        modules = _package_modules()
        for hook in self.hooks:
            fn = getattr(found.get(hook.module), hook.function, None)
            if not callable(fn):
                self.absent.add(hook.name)
                continue
            if hook.tape and self._tape_len is None:
                self.broken.add(hook.name)
            wrapper = self._wrap(hook, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


def installed_wrappers() -> list[str]:
    """Every `module.attr` of the package that still holds a wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if hasattr(value, "__bench_hook__")]
