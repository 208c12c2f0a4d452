"""Bivariate-Gaussian output heads, the NLL loss, and displacement metrics.

The network emits five channels per agent per predicted frame:
(mu_x, mu_y, raw_sigma_x, raw_sigma_y, raw_rho). Exponentiating the sigma
channels and squashing rho through tanh guarantees a valid covariance for
any finite input. Everything predicted is a relative displacement; metrics
rebuild absolute positions by cumulative sum from the last observed
position.

Decoding happens off the tape: a `GaussianField` holds the raw
(N, T, P, 5) output tensor beside numpy mu, sigma and rho. `nll_loss` is
one tape primitive with a hand-written backward whose parent is that raw
tensor, and `layer_nll` scores the hedge head's block of layers in one
forward-only call of it.

Displacement errors take `math.hypot` of every point and sum the results
in order as Python floats, one scalar loop that `ade_fde` and
`best_of_k` share. `best_of_k` runs it only on the samples that a cheap
whole-array filter, with a margin proven from P·T, cannot rule out as
the best, so its pick and its bits are those of scoring every sample.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .rng import Xorshift64Star

LOG_TWO_PI = math.log(2.0 * math.pi)
RHO_GUARD = 1e-12


@dataclass(eq=False)
class GaussianField:
    """A decoded network output.

    ``raw`` is the (N, T, P, 5) output tensor, the one `nll_loss`
    differentiates through. mu and sigma, (N, T, P, 2), and rho,
    (N, T, P, 1), are numpy arrays decoded from ``raw.data`` off the tape.
    """

    raw: T.Tensor
    mu: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray


@dataclass
class MetricReport:
    ade: float
    fde: float


def decode_gaussian(raw: T.Tensor) -> GaussianField:
    """Split the 5-channel output into mu, sigma and rho, off the tape."""
    if raw.ndim != 4 or raw.shape[-1] != 5:
        raise DimensionError(f"decode_gaussian wants (N, T, P, 5), got {raw.shape}")
    data = raw.data
    return GaussianField(raw, data[..., 0:2], np.exp(data[..., 2:4]), np.tanh(data[..., 4:5]))


def nll_loss(field: GaussianField, target_rel: np.ndarray, per_item: bool = False) -> T.Tensor:
    """Mean over agents of the summed per-frame negative log density.

    ``target_rel`` holds ground-truth displacements, (P, T, 2) for one
    instance or (N, P, T, 2) for a batch; a batch averages agents across
    all of its instances, or with ``per_item`` returns the (N,) means of
    each instance. Computed in the log domain; 1 - rho^2 is clamped at
    1e-12 so the loss stays finite as |rho| approaches 1 (no gradient
    flows through the clamped entries).

    One tape record whose parent is ``field.raw``, with decode and loss
    differentiated by hand. x and y run as one: target, mu, sigma and the
    standardised offsets ``zxy`` are (2, N, T, P) arrays of x and y planes,
    and each operation applies to every entry the IEEE operation of the
    chain of elementwise tape primitives this replaced. Every forward line
    keeps that chain's operand grouping, and the backward adds partial
    gradients in its order: a tape runs its records in reverse, so a value
    used twice gets the gradient of its later use first, e.g.
    ``g_zxy = (g_c * zxy[::-1] + g_z * zxy) + g_z * zxy``, ``zxy[::-1]``
    being (zy, zx), for ``z = (zx*zx + zy*zy) - (2 rho)(zx*zy)``. Loss and
    gradient are therefore bit-identical to that chain's. The five
    raw-channel gradients are written as planes of one array and
    accumulated into ``raw`` once.
    """
    raw = field.raw
    n, t, p = raw.shape[:3]
    target_rel = np.asarray(target_rel, dtype=np.float64)
    if target_rel.shape == (p, t, 2):
        target_rel = target_rel[None]
    elif target_rel.shape != (n, p, t, 2):
        raise DimensionError(f"target {target_rel.shape} does not match field ({p}, {t}, 2)")
    # x and y as (2, N, T, P) planes: numpy then runs each operation along
    # whole planes, where (..., 2) pairs would make it loop over pairs.
    target = np.ascontiguousarray(target_rel.transpose(3, 0, 2, 1))
    mu, sigma = field.mu.transpose(3, 0, 1, 2), field.sigma.transpose(3, 0, 1, 2)
    rho = field.rho[..., 0]
    delta = target - mu
    zxy = delta / sigma
    sq = zxy * zxy
    r2, c = rho * 2.0, zxy[0] * zxy[1]
    z = (sq[0] + sq[1]) - r2 * c
    om0 = 1.0 - rho * rho
    om = np.maximum(om0, RHO_GUARD)
    log_sigma = np.log(sigma)
    log_norm = (log_sigma[0] + log_sigma[1]) + (np.log(om) * 0.5 + LOG_TWO_PI)
    d = om * 2.0
    per_agent = np.add.reduce(log_norm + z / d, axis=1)

    def back(g):
        g_frame = (g / p).reshape(n, 1, 1) if per_item else g / per_agent.size
        g_z = g_frame / d
        g_om = ((-g_frame * z) / (d * d)) * 2.0 + (g_frame * 0.5) / om
        g_rr = -(g_om * (om0 >= RHO_GUARD))
        g_b = -g_z
        g_c = g_b * r2
        g_zz = g_z * zxy
        g_zxy = (g_c * zxy[::-1] + g_zz) + g_zz
        g_rho = (g_rr * rho + g_rr * rho) + (g_b * c) * 2.0
        full = np.empty(raw.shape)
        planes = full.transpose(3, 0, 1, 2)
        np.negative(g_zxy / sigma, out=planes[0:2])
        g_sigma = -g_zxy * delta
        g_sigma /= sigma * sigma
        np.multiply(np.add(g_frame / sigma, g_sigma, out=g_sigma), sigma, out=planes[2:4])
        np.multiply(g_rho, om0, out=planes[4])
        T._accumulate(raw, full)

    # np.add.reduce, then a divide by the count, is what the mean and sum
    # methods run, without their Python wrappers.
    if per_item:
        loss = np.add.reduce(per_agent, axis=1) / p
    else:
        loss = np.add.reduce(per_agent, axis=None) / per_agent.size
    return T._make(loss, (raw,), back)


def layer_nll(block: np.ndarray, target_rel: np.ndarray) -> np.ndarray:
    """Per-layer losses, (L,), of a (1, L, T, P, 5) array of layer outputs:
    ``nll_loss(decode_gaussian(m), target_rel)`` for each (1, T, P, 5)
    layer ``m``, bit for bit, from one forward-only `nll_loss` over the
    block's (L, T, P, 5) values. ``target_rel`` is (P, T, 2)."""
    if block.ndim != 5 or block.shape[0] != 1:
        raise DimensionError(f"layer_nll wants a (1, L, T, P, 5) block, got {block.shape}")
    return nll_loss(decode_gaussian(T.Tensor(block[0])), target_rel, per_item=True).data


def mu_trajectory(field: GaussianField, origin_abs: np.ndarray) -> np.ndarray:
    """Deterministic prediction: cumulative sum of mu from the last
    observed absolute position. Returns (P, T, 2). A field of more than
    one sequence raises ContractError."""
    _require_single(field)
    mu = field.mu[0].transpose(1, 0, 2)
    origin = _origin(origin_abs, mu.shape[0])
    return origin[:, None] + np.add.accumulate(mu, axis=1)


def _require_single(field: GaussianField) -> None:
    if field.mu.shape[0] != 1:
        raise ContractError(f"a single-sequence field (N == 1) is expected, "
                            f"got N = {field.mu.shape[0]}")


def _origin(origin_abs: np.ndarray, p: int) -> np.ndarray:
    """The (P, 2) last observed positions, or DimensionError."""
    origin = np.asarray(origin_abs, dtype=np.float64)
    if origin.size != 2 * p:
        raise DimensionError(f"origin has {origin.size} coordinates, field {p} agents")
    return origin.reshape(p, 2)


def sample_trajectories(field: GaussianField, k: int, seed: int,
                        origin_abs: np.ndarray) -> np.ndarray:
    """Draw K absolute trajectories, (K, P, T, 2), deterministically.

    Each frame's displacement is mu + L z with L the Cholesky factor of
    the 2x2 covariance and z a standard normal pair. Draws are ordered
    sample-major, then agent, then frame, so the first K samples of a
    K+1 run coincide with the K run (nested seed streams).

    The result is bit-identical to a scalar loop that draws each pair
    with `normal_pair` of `tests/oracles.py` in that order, forms
    (mu_x + sx z0, mu_y + rho sy z0 + sy sqrt(max(1 - rho^2, RHO_GUARD)) z1)
    and takes the running sum over frames from the origin.

    The samples are built on the (2, K, P, T) x and y planes of the
    draws, `normal_pairs`' planes reshaped, in place: y first, as
    ``(mu_y + (rho sy) z0) + tail z1`` while z0 still holds its draws,
    then x. So every operation and the running sum over frames run along
    contiguous rows; the result is the planes' (K, P, T, 2) view.
    An origin that is not one (x, y) per agent raises DimensionError
    before any draw.
    """
    if k < 1:
        raise ContractError("need at least one sample")
    _require_single(field)
    mu = field.mu[0].transpose(2, 1, 0)
    sigma = field.sigma[0].transpose(2, 1, 0)
    rho = field.rho[0, :, :, 0].T
    p, t = rho.shape
    origin = _origin(origin_abs, p)
    planes = Xorshift64Star(seed).normal_pairs(k * p * t).T.reshape(2, k, p, t)
    z0, z1 = planes
    tail = sigma[1] * np.sqrt(np.maximum(1.0 - rho * rho, RHO_GUARD))
    # IEEE addition and multiplication commute, so the in-place forms
    # keep the grouping, and the bits, of mu + (s z).
    shear = np.multiply(rho * sigma[1], z0)
    shear += mu[1]
    z1 *= tail
    z1 += shear
    z0 *= sigma[0]
    z0 += mu[0]
    np.add.accumulate(planes, axis=3, out=planes)
    planes += origin.T[:, None, :, None]
    return planes.transpose(1, 2, 3, 0)


# `best_of_k`'s filter certifies its candidates where every point's
# dx*dx + dy*dy lies in this range and a sample has at most this many
# points; its docstring derives the bound.
_FILTER_RANGE = (2.0 ** -1000, 2.0 ** 1000)
_CERTIFIED_POINTS = 2 ** 26
_UNIT_ROUNDOFF = 2.0 ** -53


def _check_trajectories(pred_shape: tuple[int, ...], truth_shape: tuple[int, ...]) -> None:
    if (pred_shape != truth_shape or len(truth_shape) != 3 or truth_shape[-1] != 2
            or 0 in truth_shape):
        raise DimensionError(f"ADE/FDE want non-empty (P, T, 2) trajectories that match, "
                             f"got {pred_shape} and {truth_shape}")


def _scores(dx: np.ndarray, dy: np.ndarray) -> tuple[float, float]:
    """ADE and FDE of one prediction from the (P, T) x and y planes of its
    point errors: `math.hypot` of each point, summed as Python floats
    agent-major, then frame, in sequence."""
    p, t = dx.shape
    err = list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))
    return (functools.reduce(operator.add, err) / (p * t),
            functools.reduce(operator.add, err[t - 1::t]) / p)


def _candidates(dist: np.ndarray) -> np.ndarray | None:
    """The samples, in order, whose filter sums certify that they hold the
    first smallest ADE of the (2, K, P, T) point errors ``dist``, or None
    where the certificate does not apply (see `best_of_k`)."""
    k, p, t = dist.shape[1:]
    n = p * t
    if k == 1 or n > _CERTIFIED_POINTS:
        return None
    filt = np.square(dist[0])
    filt += np.square(dist[1])
    low, high = _FILTER_RANGE
    if not (low <= filt.min() and filt.max() <= high):
        return None
    sums = np.add.reduce(np.sqrt(filt, out=filt).reshape(k, n), axis=1)
    return np.flatnonzero(sums <= sums.min() * (1.0 + (4 * n + 16) * _UNIT_ROUNDOFF))


def ade_fde(pred_abs: np.ndarray, truth_abs: np.ndarray) -> tuple[float, float]:
    """Average and final displacement errors over (P, T, 2) trajectories.

    The scalar double loop: `math.hypot` of each point's error, summed as
    Python floats agent-major, then frame, in sequence. `best_of_k` scores
    its samples with the same loop.
    """
    pred_abs = np.asarray(pred_abs, dtype=np.float64)
    truth_abs = np.asarray(truth_abs, dtype=np.float64)
    _check_trajectories(pred_abs.shape, truth_abs.shape)
    diff = pred_abs - truth_abs
    return _scores(diff[..., 0], diff[..., 1])


def best_of_k(field: GaussianField, truth_abs: np.ndarray, k: int, seed: int,
              origin_abs: np.ndarray) -> MetricReport:
    """Metrics of the sample whose ADE is smallest (its FDE reported jointly).

    Bit-identical to scanning `ade_fde(samples[s], truth_abs)` for
    s = 0..K-1 and keeping a sample only when its ADE is strictly smaller
    than the best so far: ties go to the first sample, a NaN ADE is never
    taken after sample 0, and a NaN at sample 0 is never replaced. The
    pick is Python's `min` over the scored ADEs, which runs that scan.

    The exact scorer, `ade_fde`'s loop (`math.hypot` per point, then the
    in-order sum), runs only on the samples a cheap filter cannot rule
    out. The filter sums each sample's
    plain ``sqrt(dx*dx + dy*dy)`` distances into F, and the candidates
    are the samples with F <= min(F) (1 + (4n + 16)u), n = P T and
    u = 2**-53. They hold the scan's pick s:

    - Point. Where a point's computed dx*dx + dy*dy lies in [2**-1000,
      2**1000], the larger square is normal, as it is at least half of
      that, and the smaller loses at most 2**-74 of it to underflow; so
      the filter's distance is within 2.5u of the true length.
      `math.hypot` is within one ulp, 2u.
    - Sum. A sum of n non-negative terms, in any order, carries at most
      (n - 1)u relative error to first order. So F = S (1 + f) and the
      exact sum E = S (1 + e), S the true sum, |f| <= (n + 1.5)u and
      |e| <= (n + 1)u.
    - Pick. ADE is the rounded E / n, monotone in E. For j with the
      smallest F, ADE_s <= ADE_j gives E_s <= E_j (1 + 2u), as equal
      roundings lie within an ulp; exact ties are the case of equality.
      Then F_s <= F_j (1 + 2u)(1 + f)(1 + e) / ((1 - f)(1 - e)), which is
      F_j (1 + (4n + 7)u) to first order. Rounding 1 + margin and its
      product with F_j costs 2u more, and the 7u left over bounds the
      second-order terms while n <= 2**26.

    So the first smallest exact ADE among the candidates is the scan's.
    A fixed margin would not hold: 1e-12 is below (4n + 16)u once n
    passes about 2250. Every sample is scored exactly, as the scan does,
    when K is 1, n exceeds 2**26, or a point's dx*dx + dy*dy is zero,
    non-finite or outside that range; so NaN and inf keep their meaning.
    The errors are taken once, as the sample planes minus the truth's,
    and the range check, the filter and the exact scorer all read them.
    A truth that does not match the field raises DimensionError before
    any draw.
    """
    truth = np.asarray(truth_abs, dtype=np.float64)
    t, p = field.mu.shape[1:3]
    _check_trajectories((p, t, 2), truth.shape)
    samples = sample_trajectories(field, k, seed, origin_abs)
    dist = samples.transpose(3, 0, 1, 2) - truth.transpose(2, 0, 1)[:, None]
    rows = _candidates(dist)
    if rows is None:
        rows = range(len(samples))
    ade, fde = min((_scores(dist[0, s], dist[1, s]) for s in rows), key=operator.itemgetter(0))
    return MetricReport(ade=ade, fde=fde)


def restore_ratio(ade_n: float, fde_n: float, ade_base: float, fde_base: float) -> float:
    """Mean relative excess error over the scene-trained baseline.

    Zero means the online model matches the baseline; negative means it
    beats it. Base metrics that are not finite and positive raise
    ContractError.
    """
    if not (0.0 < ade_base < math.inf and 0.0 < fde_base < math.inf):
        raise ContractError("restore_ratio needs finite, positive base metrics")
    return 0.5 * ((ade_n - ade_base) / ade_base + (fde_n - fde_base) / fde_base)
