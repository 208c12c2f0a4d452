"""Offline batch training, the prequential online loop, and run health.

The offline loop accumulates gradients over a shuffled minibatch and
takes one averaged SGD step; instances that share an agent count are
stacked and pushed through the network in a single batched forward, which
is arithmetically the same as summing per-instance losses but an order of
magnitude faster. Training keeps the dataset's per-run tables of frame
steps and graphs from `model.frame_tables`, not a copy of every
instance's arrays, and each group gathers its inputs from them. The
online loop and best-of-K evaluation take each instance's inputs from
`model.chunked_arrays` as a batch of one, which `forward` runs as it
comes. The online loop is prequential: every instance is predicted and
scored with the parameters as they stood *before* that instance
contributed a single gradient.

Health follows the gradient history, and every online update counts,
the extra ones of ``updates_per_instance > 1`` included. An update is
`exploded` when its loss or pre-clip gradient norm is non-finite or the
pre-clip norm exceeds 1e3, and `vanished` once the pre-clip norm has
stayed below 1e-8 for 50 consecutive updates. A run takes the first such
verdict in time, and `normal` if there is none. Clipping is applied after
the explosion probe, so a clipped run can be flagged exploded while still
training on. `HealthMonitor` is the one place that rule lives.

Both loops update through the model's parameter arena: the gradient norm
is one pass over the gradient buffer, and a clip, an SGD step and
zeroing the gradients are one array op each on a whole buffer. Both
leave the tape empty when they end by an exception.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import HedgeState, hedge_update
from .data import TrajectoryInstance
from .errors import ConfigError, DataError, TrainingDiverged, require_finite
from .gaussian import ade_fde, best_of_k, layer_nll, mu_trajectory, nll_loss, restore_ratio
from .model import STRATEGIES, ModelConfig, TrajectoryModel, chunked_arrays, frame_tables
from .rng import Xorshift64Star
from .temporal import StackStore

EXPLODE_NORM = 1e3
VANISH_NORM = 1e-8
VANISH_RUN = 50

# Instances the online loop and best-of-K evaluation prepare per chunk
# of `chunked_arrays`. Larger chunks save little more per instance but
# make a longer pause at every chunk boundary of the stream.
PREP_CHUNK = 16

# Best-of-K samples per instance when the caller names no count.
DEFAULT_SAMPLES = 20

ALIGNMENTS = ("none", "recentre")

# Keeps the shuffle stream distinct from the parameter-init stream even
# though both configs carry one seed field.
_SHUFFLE_SALT = 0x9E3779B97F4A7C15


@dataclass
class TrainConfig:
    epochs: int = 250
    batch_size: int = 128
    lr: float = 0.01
    lr_after: float = 0.002
    lr_drop_epoch: int = 150
    seed: int = 0

    def validate(self) -> None:
        require_finite(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0 or self.lr_after <= 0:
            raise ConfigError("learning rates must be positive")
        if self.lr_drop_epoch < 0:
            raise ConfigError("lr_drop_epoch must be >= 0")


@dataclass
class OnlineConfig:
    lr: float = 0.002
    clip_norm: float | None = 1.0
    updates_per_instance: int = 1
    max_instances: int = 1000
    alignment: str = "none"
    strategy: str = "ea"
    rr_checkpoints: tuple[int, ...] = (0, 100, 1000)
    seed: int = 0

    def validate(self) -> None:
        require_finite(self)
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ConfigError("clip_norm must be positive (or None to disable)")
        if self.updates_per_instance < 1:
            raise ConfigError("updates_per_instance must be >= 1")
        if self.max_instances < 1:
            raise ConfigError("max_instances must be >= 1")
        if self.alignment not in ALIGNMENTS:
            raise ConfigError(f"alignment must be one of {ALIGNMENTS}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if any(c < 0 for c in self.rr_checkpoints):
            raise ConfigError("rr checkpoints must be non-negative")


@dataclass
class HealthStatus:
    """A run's verdict; ``first_trigger_instance`` is the index of the
    instance whose update first triggered it, or None for `normal`."""

    status: str = "normal"
    first_trigger_instance: int | None = None


@dataclass
class StreamRecord:
    """One prequential step: metrics of the pre-update prediction plus the
    updates' bookkeeping. ``grad_norm`` is the post-clip norm the first
    update applied (None when its loss or norm was not finite); ``health``
    is the first non-normal verdict among the instance's updates, or
    `normal`; ``expert`` and ``alpha`` are per-layer gate means and mix
    weights for the strategies that have them. ``pre_norm`` is the first
    update's pre-clip norm, which drives health (NaN when its loss was not
    finite), and ``clipped`` says whether that update's gradient was
    scaled down; both are None in a report written before they were
    recorded."""

    instance_idx: int
    ade: float
    fde: float
    rr: float | None
    loss: float
    grad_norm: float | None
    health: str
    expert: tuple[float, ...] | None
    alpha: tuple[float, ...] | None
    pre_norm: float | None = None
    clipped: bool | None = None


@dataclass
class TrainResult:
    model: TrajectoryModel
    loss_log: list[float]


@dataclass
class UpdateCounters:
    """A run's online updates: every one run, the ones whose gradient was
    clipped, and the ones skipped because their loss or pre-clip norm was
    not finite."""

    updates: int = 0
    clipped: int = 0
    skipped: int = 0


@dataclass
class OnlineResult:
    records: list[StreamRecord]
    health: HealthStatus
    rr_at: dict[int, float | None] = field(default_factory=dict)
    counters: UpdateCounters = field(default_factory=UpdateCounters)


@dataclass
class BaseMetrics:
    ade: float
    fde: float
    n_train: int
    n_test: int


def sgd_step(arena: T.ParameterArena, lr: float) -> None:
    """In-place plain SGD on every parameter, as one op on the arena's
    buffers. A parameter that got no gradient steps by ``p - lr * 0.0``,
    which leaves its bits as they were."""
    arena.data -= lr * arena.grad


@contextlib.contextmanager
def _tape_cleared_on_error():
    """Clear the tape if the block raises between a forward and its backward."""
    try:
        yield
    except BaseException:
        T.tape().clear()
        raise


def train_offline(dataset: list[TrajectoryInstance], config: TrainConfig,
                  model_config: ModelConfig | None = None, progress=None) -> TrainResult:
    """Minimise the plain-output NLL with minibatch SGD.

    A batch is one averaged gradient step over ``batch_size`` shuffled
    instances; same-sized instances inside the batch share one stacked
    forward pass, and each group's backward is seeded with its share of the
    batch, so the result equals per-instance accumulation. The groups are
    visited last to first, which adds up the parameter gradients in the
    order one reverse pass over the whole batch would. Before the first
    epoch, `model.frame_tables` prepares the dataset's frames once, as
    per-run tables of steps and graphs, the same whatever
    ``batch_size``: windows of one recorded block less than a span
    apart are a run, and share the step and graphs of each frame they
    hold. Each group then gathers its inputs and target from
    those tables, with the bytes and shapes of ``np.stack`` over its
    instances' arrays prepared alone; `nll_loss` reads the target in
    the strides it is gathered in. The learning rate drops from
    ``lr`` to ``lr_after`` at ``lr_drop_epoch``. ``progress``, if given,
    is called with the epoch and its mean loss after every epoch. A
    non-finite batch loss aborts, before the step is taken, with
    `TrainingDiverged`, which records the epoch, the step and the loss log
    of the finished epochs. Every forward of the call lays the stack's
    arrays in one `temporal.StackStore`, grown to the largest group, so
    each forward overwrites the last one's arrays instead of allocating
    its own beside them. Each group's backward takes the two records of
    its forward and NLL off the tape, and so does an exception.
    """
    config.validate()
    if not dataset:
        raise DataError("training needs at least one instance")
    model = TrajectoryModel(model_config or ModelConfig(), seed=config.seed)

    tables, where = frame_tables(dataset, model.config)
    rng = Xorshift64Star(config.seed ^ _SHUFFLE_SALT)
    order = list(range(len(dataset)))
    loss_log: list[float] = []
    store = StackStore()

    for epoch in range(config.epochs):
        lr = config.lr if epoch < config.lr_drop_epoch else config.lr_after
        rng.shuffle(order)
        epoch_sum = 0.0
        for step, start in enumerate(range(0, len(order), config.batch_size)):
            batch = order[start:start + config.batch_size]
            groups: dict[int, list[int]] = {}
            for idx in batch:
                agents, row = where[idx]
                groups.setdefault(agents, []).append(row)
            model.zero_grad()
            # Last group first: the order in which one reverse pass over
            # the whole batch would add up the parameter gradients. A
            # diverging batch overflows, divides by zero or makes NaN on
            # its way to a non-finite loss, which is raised below, so
            # numpy's warnings about it are not printed.
            terms = []
            with np.errstate(all="ignore"), _tape_cleared_on_error():
                for agents, rows in reversed(groups.items()):
                    x_seq, ahat, fut = tables[agents].gather(rows)
                    group_loss = nll_loss(model.forward(x_seq, ahat, store=store)[0], fut)
                    weight = len(rows) / len(batch)
                    terms.append(group_loss.item() * weight)
                    T.backward(group_loss, weight)
            value = terms.pop()  # the batch loss, added up first group first
            while terms:
                value += terms.pop()
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, step {step}",
                    epoch=epoch, step=step, loss_log=loss_log)
            sgd_step(model.arena, lr)
            epoch_sum += value * len(batch)
        loss_log.append(epoch_sum / len(order))
        if progress is not None:
            progress(epoch, loss_log[-1])
    return TrainResult(model=model, loss_log=loss_log)


class HealthMonitor:
    """The health rule, fed one update at a time.

    ``observe`` takes an update's pre-clip norm and loss and returns that
    update's verdict. Non-finite values on either side, or a norm above
    ``EXPLODE_NORM``, are `exploded`; a norm below ``VANISH_NORM`` is
    `vanished` once ``VANISH_RUN`` such updates come in a row, and every
    other update, an exploded one included, resets that count.
    ``status`` keeps the first non-normal verdict and the instance it
    came from, and ``counters`` counts the updates observed, those flagged
    ``clipped`` and those with a non-finite loss or norm (no step is taken
    on them).
    """

    def __init__(self):
        self.status = HealthStatus()
        self.counters = UpdateCounters()
        self._run = 0

    def observe(self, pre: float, loss: float, instance_idx: int, clipped: bool = False) -> str:
        finite = math.isfinite(loss) and math.isfinite(pre)
        self.counters.updates += 1
        self.counters.clipped += int(clipped)
        self.counters.skipped += int(not finite)
        if not finite or pre > EXPLODE_NORM:
            self._run = 0
            verdict = "exploded"
        elif pre < VANISH_NORM:
            self._run += 1
            verdict = "vanished" if self._run >= VANISH_RUN else "normal"
        else:
            self._run = 0
            verdict = "normal"
        if verdict != "normal" and self.status.first_trigger_instance is None:
            self.status = HealthStatus(status=verdict, first_trigger_instance=instance_idx)
        return verdict


def _apply_update(model: TrajectoryModel, loss_tensor: T.Tensor, loss: float,
                  config: OnlineConfig) -> tuple[float, float | None]:
    """One online update: backward, clip, SGD step, zero the gradients,
    each of the last three one op on an arena buffer.

    Returns the pre-clip norm and the norm applied. A non-finite loss
    clears the tape and returns (nan, None); a non-finite norm takes no
    step and returns (norm, None).
    """
    if not math.isfinite(loss):
        T.tape().clear()
        model.zero_grad()
        return float("nan"), None
    T.backward(loss_tensor)
    pre = T.global_grad_norm(model.arena)
    applied = None
    if math.isfinite(pre):
        applied = pre
        if config.clip_norm is not None and pre > config.clip_norm:
            model.arena.grad *= config.clip_norm / pre
            applied = config.clip_norm
        sgd_step(model.arena, config.lr)
    model.zero_grad()
    return pre, applied


def run_online(model: TrajectoryModel, stream: list[TrajectoryInstance],
               config: OnlineConfig, base: BaseMetrics | None = None,
               progress=None) -> OnlineResult:
    """Prequential predict-then-update over an ordered instance stream.

    Every step reuses one taped forward: the mu-trajectory metrics are read
    off before the backward pass, so the recorded errors always describe a
    model that has not yet seen the instance. The EA head is re-initialised
    from ``config.seed`` when the run starts, matching a deployment that
    attaches a fresh gate to a pretrained network. With ``strategy=hedge``
    the simplex weights move by multiplicative update on the per-layer
    losses while the network itself trains on the mixed output's NLL.

    Inputs, graphs and the ``fut_rel`` target are prepared ``PREP_CHUNK``
    instances of the (aligned) stream at a time by `chunked_arrays`, when
    the loop reaches that chunk, which takes each frame's step and builds
    its graphs once however many of the chunk's windows hold it (about
    40 graphs for 16 stride-1 windows, not 128); an instance whose spans
    differ from the model's raises ConfigError then. The arrays come as a
    batch of one, which `forward` takes as it is, have the bits a chunk
    of that instance alone gives, and serve all of its
    ``updates_per_instance`` updates; the loop reads no steps off the
    instance itself.
    Each update runs the same `TrajectoryModel.forward`, NLL and
    backward/clip/step, and counts towards health; the first also yields
    the row's metrics, trace and hedge layer losses. An update whose loss
    or gradient norm is not finite takes no step, flags the row and ends
    that instance's updates, with no numpy warning; the run keeps going
    with the next instance. Gradients the model carries in, such as the
    last batch's of `train_offline`, are zeroed before the first update, so
    every update steps on its own instance's gradient alone. Each update's
    backward takes the two records of its forward and NLL off the tape,
    and so does an exception.
    """
    config.validate()
    model.zero_grad()
    head_rng = Xorshift64Star(config.seed)
    if config.strategy == "ea":
        model.init_expert_head(head_rng)
    hedge = HedgeState.uniform(model.config.stack_layers) if config.strategy == "hedge" else None
    monitor = HealthMonitor()
    records: list[StreamRecord] = []

    window = stream[:config.max_instances]
    if config.alignment == "recentre":
        window = (inst.recentred() for inst in window)
    prepared = chunked_arrays(window, model.config, PREP_CHUNK)
    for idx, (inst, (x_seq, ahat, fut_rel)) in enumerate(prepared):
        row_health = "normal"
        # Health records an exploding update, so numpy need not warn about it.
        with np.errstate(all="ignore"), _tape_cleared_on_error():
            for update in range(config.updates_per_instance):
                gfield, block, trace = model.forward(x_seq, ahat, config.strategy, hedge)
                if update == 0:
                    pred_abs = mu_trajectory(gfield, inst.obs_abs[:, -1])
                    ade, fde = ade_fde(pred_abs, inst.fut_abs)
                    rr = restore_ratio(ade, fde, base.ade, base.fde) if base is not None else None
                    expert = tuple(trace.gate.tolist()) if trace is not None else (
                        tuple(hedge.w.tolist()) if hedge is not None else None)
                    alpha = tuple(trace.alpha.tolist()) if trace is not None else None
                    if hedge is not None:
                        layer_losses = layer_nll(block, fut_rel[0])
                loss_tensor = nll_loss(gfield, fut_rel)
                update_loss = loss_tensor.item()
                pre, applied = _apply_update(model, loss_tensor, update_loss, config)
                clipped = applied is not None and applied < pre
                verdict = monitor.observe(pre, update_loss, idx, clipped=clipped)
                if update == 0:
                    loss, grad_norm, pre_norm, first_clipped = update_loss, applied, pre, clipped
                if row_health == "normal":
                    row_health = verdict
                if applied is None:
                    break

        if hedge is not None:
            hedge = hedge_update(hedge, layer_losses)

        records.append(StreamRecord(
            instance_idx=idx, ade=ade, fde=fde, rr=rr, loss=loss,
            grad_norm=grad_norm, health=row_health, expert=expert, alpha=alpha,
            pre_norm=pre_norm, clipped=first_clipped))
        if progress is not None:
            progress(idx, records[-1])

    rr_at = {c: records[c].rr for c in config.rr_checkpoints if c < len(records)}
    return OnlineResult(records=records, health=monitor.status, rr_at=rr_at,
                        counters=monitor.counters)


def check_samples(samples: int) -> None:
    """Raise ConfigError unless best-of-K gets at least one sample."""
    if samples < 1:
        raise ConfigError(f"need at least one sample, got {samples}")


def compute_base(dataset: list[TrajectoryInstance], config: TrainConfig,
                 model_config: ModelConfig | None = None,
                 samples: int = DEFAULT_SAMPLES) -> BaseMetrics:
    """Scene-native baseline: train on the first 80% of windows, report
    mean best-of-K metrics on the held-out 20%.

    A single-instance dataset degenerates to training and evaluating on
    that instance. The returned numbers anchor every restore-ratio column.
    A sample count below one raises ConfigError before training starts.
    """
    check_samples(samples)
    if not dataset:
        raise DataError("base computation needs at least one instance")
    if len(dataset) == 1:
        train, test = dataset, dataset
    else:
        cut = min(max(1, int(len(dataset) * 0.8)), len(dataset) - 1)
        train, test = dataset[:cut], dataset[cut:]
    result = train_offline(train, config, model_config)
    ade, fde = mean_best_of_k(result.model, test, samples, config.seed)
    return BaseMetrics(ade=ade, fde=fde, n_train=len(train), n_test=len(test))


def mean_best_of_k(model: TrajectoryModel, dataset: list[TrajectoryInstance], samples: int,
                   seed: int) -> tuple[float, float]:
    """Mean best-of-K (ADE, FDE) of the plain head over ``dataset``.

    Instance i draws its K samples with seed ``seed + i``. Inputs and
    graphs are prepared as in `run_online`, ``PREP_CHUNK`` at a time,
    and each instance's batch of one is run as it comes. A
    sample count below one raises ConfigError, and an empty ``dataset``
    DataError, before any of that.
    """
    check_samples(samples)
    if not dataset:
        raise DataError("best-of-K evaluation needs at least one instance")
    ades, fdes = [], []
    with T.no_grad():
        prepared = chunked_arrays(dataset, model.config, PREP_CHUNK)
        for i, (inst, (x_seq, ahat, _)) in enumerate(prepared):
            gfield, _, _ = model.forward(x_seq, ahat)
            report = best_of_k(gfield, inst.fut_abs, samples,
                               seed=seed + i, origin_abs=inst.obs_abs[:, -1])
            ades.append(report.ade)
            fdes.append(report.fde)
    return float(np.mean(ades)), float(np.mean(fdes))
