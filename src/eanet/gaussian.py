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


@dataclass
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
    raw = T.as_tensor(raw)
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


def layer_nll(block: T.Tensor, target_rel: np.ndarray) -> np.ndarray:
    """Per-layer losses, (L,), of a (1, L, T, P, 5) block of layer outputs:
    ``nll_loss(decode_gaussian(m), target_rel)`` for each (1, T, P, 5)
    layer ``m``, bit for bit, from one forward-only `nll_loss` over the
    block's (L, T, P, 5) data. ``target_rel`` is (P, T, 2)."""
    if block.ndim != 5 or block.shape[0] != 1:
        raise DimensionError(f"layer_nll wants a (1, L, T, P, 5) block, got {block.shape}")
    return nll_loss(decode_gaussian(T.Tensor(block.data[0])), target_rel, per_item=True).data


def mu_trajectory(field: GaussianField, origin_abs: np.ndarray) -> np.ndarray:
    """Deterministic prediction: cumulative sum of mu from the last
    observed absolute position. Returns (P, T, 2)."""
    mu = field.mu[0].transpose(1, 0, 2)
    origin = np.asarray(origin_abs, dtype=np.float64).reshape(-1, 1, 2)
    if origin.shape[0] != mu.shape[0]:
        raise DimensionError(f"origin has {origin.shape[0]} agents, field {mu.shape[0]}")
    return origin + np.add.accumulate(mu, axis=1)


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
    """
    if k < 1:
        raise ContractError("need at least one sample")
    if field.mu.shape[0] != 1:
        raise ContractError("sampling expects a single-sequence field (N == 1)")
    mu = field.mu[0].transpose(1, 0, 2)
    sigma = field.sigma[0].transpose(1, 0, 2)
    rho = field.rho[0].transpose(1, 0, 2)[..., 0]
    p, t = mu.shape[0], mu.shape[1]
    origin = np.asarray(origin_abs, dtype=np.float64).reshape(p, 1, 2)
    z = Xorshift64Star(seed).normal_pairs(k * p * t).reshape(k, p, t, 2)
    z0, z1 = z[..., 0], z[..., 1]
    sx, sy = sigma[..., 0], sigma[..., 1]
    tail = sy * np.sqrt(np.maximum(1.0 - rho * rho, RHO_GUARD))
    rel = np.empty((k, p, t, 2))
    rel[..., 0] = mu[..., 0] + sx * z0
    rel[..., 1] = mu[..., 1] + rho * sy * z0 + tail * z1
    return origin + np.cumsum(rel, axis=2)


# 2**27 + 1: splitting with it leaves halves whose products are exact.
_VELTKAMP = 134217729.0
# The larger magnitudes `_hypot` scales by a power of two without loss;
# 0, subnormals, the top of the range, inf and NaN go to math.hypot.
_HYPOT_RANGE = (2.0 ** -1021, 1e300)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hi + lo == x, hi holding the top 26 bits (Veltkamp)."""
    t = x * _VELTKAMP
    hi = t - (t - x)
    return hi, x - hi


def _two_sum(total: np.ndarray, frac: np.ndarray, x: np.ndarray):
    """total + x, with its rounding error added into frac."""
    new = total + x
    return new, frac + ((total - new) + x)


def _hypot(planes: np.ndarray) -> np.ndarray:
    """``math.hypot(x, y)`` of every pair of the (2, ...) coordinate
    planes, bit for bit; ``planes`` is overwritten.

    CPython's two-coordinate ``vector_norm`` (3.10 to 3.13) run on whole
    arrays: scale both magnitudes by ``2**-e``, ``e`` the `frexp`
    exponent of the larger; split each, add the exact pieces into a sum
    from 1.0 with three compensated error terms (Dekker, Numer. Math. 18,
    1971); take the square root; subtract its split square the same way
    for one differential correction; unscale. Each step is one IEEE
    double operation, which numpy rounds as C does. Pairs whose larger
    magnitude is NaN or outside `_HYPOT_RANGE` go to math.hypot.
    """
    a = np.abs(planes, out=planes)
    big = np.maximum(a[0], a[1])
    low, high = _HYPOT_RANGE
    slow = None
    if not (low <= big.min() and big.max() <= high):
        slow = ~((big >= low) & (big <= high))
        slow_values = list(map(math.hypot, a[0][slow].tolist(), a[1][slow].tolist()))
        a[:, slow] = 0.5
        big[slow] = 0.5
    scale = np.ldexp(1.0, -np.frexp(big)[1])
    hi, lo = _split(a * scale)
    sq, cross = hi * hi, 2.0 * hi * lo
    csum, frac1 = _two_sum(1.0, 0.0, sq[0])
    csum, frac2 = _two_sum(csum, 0.0, cross[0])
    csum, frac1 = _two_sum(csum, frac1, sq[1])
    csum, frac2 = _two_sum(csum, frac2, cross[1])
    frac3 = lo[0] * lo[0] + lo[1] * lo[1]
    h = np.sqrt((csum - 1.0) + ((frac1 + frac2) + frac3))
    hi, lo = _split(h)
    csum, frac1 = _two_sum(csum, frac1, -hi * hi)
    csum, frac2 = _two_sum(csum, frac2, -2.0 * hi * lo)
    csum, frac3 = _two_sum(csum, frac3, -lo * lo)
    x = (csum - 1.0) + ((frac1 + frac2) + frac3)
    out = (h + x / (2.0 * h)) / scale
    if slow is not None:
        out[slow] = slow_values
    return out


def _check_trajectories(pred_shape: tuple[int, ...], truth_shape: tuple[int, ...]) -> None:
    if (pred_shape != truth_shape or len(truth_shape) != 3 or truth_shape[-1] != 2
            or 0 in truth_shape):
        raise DimensionError(f"ADE/FDE want non-empty (P, T, 2) trajectories that match, "
                             f"got {pred_shape} and {truth_shape}")


def _displacement_errors(pred_abs: np.ndarray,
                         truth_abs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ADE and FDE, each of shape (K,), of K (P, T, 2) predictions against
    one (P, T, 2) truth.

    Per-point errors are `_hypot`'s, which are `math.hypot`'s bit for bit
    (numpy's own hypot rounds some inputs differently), and are summed
    agent-major, then frame, in sequence (`np.cumsum` adds in order), so
    each sample's pair equals `ade_fde` of it.
    """
    _check_trajectories(pred_abs.shape[1:], truth_abs.shape)
    k, p, t = pred_abs.shape[:3]
    planes = np.empty((2, k, p, t))
    np.subtract(pred_abs[..., 0], truth_abs[..., 0], out=planes[0])
    np.subtract(pred_abs[..., 1], truth_abs[..., 1], out=planes[1])
    err = _hypot(planes)
    ade = np.cumsum(err.reshape(k, p * t), axis=1)[:, -1] / (p * t)
    fde = np.cumsum(err[:, :, -1], axis=1)[:, -1] / p
    return ade, fde


def ade_fde(pred_abs: np.ndarray, truth_abs: np.ndarray) -> tuple[float, float]:
    """Average and final displacement errors over (P, T, 2) trajectories.

    The scalar double loop: `math.hypot` of each point's error, summed as
    Python floats agent-major, then frame, in sequence, so the pair
    equals `_displacement_errors` of the one prediction bit for bit. For
    one prediction, as an online step scores, this is cheaper than
    `_hypot`, whose few dozen numpy calls cost about the same at any size.
    """
    pred_abs = np.asarray(pred_abs, dtype=np.float64)
    truth_abs = np.asarray(truth_abs, dtype=np.float64)
    _check_trajectories(pred_abs.shape, truth_abs.shape)
    p, t = truth_abs.shape[:2]
    diff = pred_abs - truth_abs
    err = list(map(math.hypot, diff[..., 0].ravel().tolist(), diff[..., 1].ravel().tolist()))
    return (functools.reduce(operator.add, err) / (p * t),
            functools.reduce(operator.add, err[t - 1::t]) / p)


def best_of_k(field: GaussianField, truth_abs: np.ndarray, k: int, seed: int,
              origin_abs: np.ndarray) -> MetricReport:
    """Metrics of the sample whose ADE is smallest (its FDE reported jointly).

    Bit-identical to scanning `ade_fde(samples[s], truth_abs)` for
    s = 0..K-1 and keeping a sample only when its ADE is strictly smaller
    than the best so far: ties go to the first sample, a NaN ADE is never
    taken after sample 0, and a NaN at sample 0 is never replaced. The
    K x P x T point errors come from one `_hypot` call, and the pick is
    `argmin` with NaN read as +inf, which is what `nanargmin` runs.
    """
    samples = sample_trajectories(field, k, seed, origin_abs)
    ade, fde = _displacement_errors(samples, np.asarray(truth_abs, dtype=np.float64))
    nan = np.isnan(ade)
    best = 0 if nan[0] else int(np.argmin(np.where(nan, np.inf, ade)))
    return MetricReport(ade=float(ade[best]), fde=float(fde[best]))


def restore_ratio(ade_n: float, fde_n: float, ade_base: float, fde_base: float) -> float:
    """Mean relative excess error over the scene-trained baseline.

    Zero means the online model matches the baseline; negative means it
    beats it. Base metrics that are not finite and positive raise
    ContractError.
    """
    if not (0.0 < ade_base < math.inf and 0.0 < fde_base < math.inf):
        raise ContractError("restore_ratio needs finite, positive base metrics")
    return 0.5 * ((ade_n - ade_base) / ade_base + (fde_n - fde_base) / fde_base)
