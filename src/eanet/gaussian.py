"""Bivariate-Gaussian output heads, the NLL loss, and displacement metrics.

The network emits five channels per agent per predicted frame:
(mu_x, mu_y, raw_sigma_x, raw_sigma_y, raw_rho). Exponentiating the sigma
channels and squashing rho through tanh guarantees a valid covariance for
any finite input. Everything predicted is a relative displacement; metrics
rebuild absolute positions by cumulative sum from the last observed
position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .rng import Xorshift64Star

LOG_TWO_PI = math.log(2.0 * math.pi)
RHO_GUARD = 1e-12


@dataclass
class GaussianField:
    """Decoded distribution parameters, each a tensor on the tape.

    mu and sigma are (N, T, P, 2); rho is (N, T, P, 1).
    """

    mu: T.Tensor
    sigma: T.Tensor
    rho: T.Tensor

    @property
    def n_frames(self) -> int:
        return self.mu.shape[1]

    @property
    def n_agents(self) -> int:
        return self.mu.shape[2]


@dataclass
class MetricReport:
    ade: float
    fde: float
    n_agents: int
    n_frames: int
    sample_count: int


def decode_gaussian(raw: T.Tensor) -> GaussianField:
    """Split the 5-channel output into (mu, sigma, rho) tensors."""
    raw = T.as_tensor(raw)
    if raw.ndim != 4 or raw.shape[-1] != 5:
        raise DimensionError(f"decode_gaussian wants (N, T, P, 5), got {raw.shape}")
    return GaussianField(
        mu=raw[..., 0:2],
        sigma=T.exp(raw[..., 2:4]),
        rho=T.tanh(raw[..., 4:5]),
    )


def nll_loss(field: GaussianField, target_rel: np.ndarray) -> T.Tensor:
    """Mean over agents of the summed per-frame negative log density.

    ``target_rel`` holds ground-truth displacements, (P, T, 2) for one
    instance or (N, P, T, 2) for a batch; a batch averages agents across
    all of its instances. Computed in the log domain; 1 - rho^2 is clamped
    at 1e-12 so the loss stays finite as |rho| approaches 1.
    """
    target_rel = np.asarray(target_rel, dtype=np.float64)
    n, t, p = field.mu.shape[0], field.mu.shape[1], field.mu.shape[2]
    if target_rel.shape == (p, t, 2):
        target_rel = np.broadcast_to(target_rel[None], (n, p, t, 2))
    elif target_rel.shape != (n, p, t, 2):
        raise DimensionError(
            f"target {target_rel.shape} does not match field ({p}, {t}, 2)"
        )
    target = T.Tensor(np.ascontiguousarray(target_rel.transpose(0, 2, 1, 3)))

    dx = T.sub(target[..., 0:1], field.mu[..., 0:1])
    dy = T.sub(target[..., 1:2], field.mu[..., 1:2])
    sx = field.sigma[..., 0:1]
    sy = field.sigma[..., 1:2]
    rho = field.rho

    zx = T.div(dx, sx)
    zy = T.div(dy, sy)
    z = T.sub(T.add(T.mul(zx, zx), T.mul(zy, zy)),
              T.mul(T.mul(rho, 2.0), T.mul(zx, zy)))
    one_minus = T.clamp(T.sub(1.0, T.mul(rho, rho)), RHO_GUARD, None)
    log_norm = T.add(T.add(T.log(sx), T.log(sy)),
                     T.add(T.mul(T.log(one_minus), 0.5), LOG_TWO_PI))
    per_frame = T.add(log_norm, T.div(z, T.mul(one_minus, 2.0)))
    per_agent = T.tensor_sum(per_frame, axis=1)
    return T.tensor_mean(per_agent)


def mu_trajectory(field: GaussianField, origin_abs: np.ndarray) -> np.ndarray:
    """Deterministic prediction: cumulative sum of mu from the last
    observed absolute position. Returns (P, T, 2)."""
    mu = field.mu.data[0].transpose(1, 0, 2)
    origin = np.asarray(origin_abs, dtype=np.float64).reshape(-1, 1, 2)
    if origin.shape[0] != mu.shape[0]:
        raise DimensionError(f"origin has {origin.shape[0]} agents, field {mu.shape[0]}")
    return origin + np.cumsum(mu, axis=1)


def sample_trajectories(field: GaussianField, k: int, seed: int,
                        origin_abs: np.ndarray) -> np.ndarray:
    """Draw K absolute trajectories, (K, P, T, 2), deterministically.

    Each frame's displacement is mu + L z with L the Cholesky factor of
    the 2x2 covariance and z a standard normal pair. Draws are ordered
    sample-major, then agent, then frame, so the first K samples of a
    K+1 run coincide with the K run (nested seed streams).

    The result is bit-identical to a scalar loop that draws each pair
    with `Xorshift64Star.normal_pair()` in that order, forms
    (mu_x + sx z0, mu_y + rho sy z0 + sy sqrt(max(1 - rho^2, RHO_GUARD)) z1)
    and takes the running sum over frames from the origin.
    """
    if k < 1:
        raise ContractError("need at least one sample")
    if field.mu.shape[0] != 1:
        raise ContractError("sampling expects a single-sequence field (N == 1)")
    mu = field.mu.data[0].transpose(1, 0, 2)
    sigma = field.sigma.data[0].transpose(1, 0, 2)
    rho = field.rho.data[0].transpose(1, 0, 2)[..., 0]
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


def _displacement_errors(pred_abs: np.ndarray,
                         truth_abs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ADE and FDE, each of shape (K,), of K (P, T, 2) predictions against
    one (P, T, 2) truth.

    Per-point errors come from `math.hypot` and are summed agent-major,
    then frame, in sequence (`np.cumsum` adds in order), so a scalar
    double loop reproduces every value bit for bit.
    """
    if (pred_abs.shape[1:] != truth_abs.shape or truth_abs.ndim != 3
            or truth_abs.shape[-1] != 2 or 0 in truth_abs.shape):
        raise DimensionError(
            f"ADE/FDE want non-empty (P, T, 2) trajectories that match, got "
            f"{pred_abs.shape[1:]} and {truth_abs.shape}"
        )
    k, p, t = pred_abs.shape[:3]
    diff = pred_abs - truth_abs
    err = np.fromiter(map(math.hypot, diff[..., 0].ravel().tolist(),
                          diff[..., 1].ravel().tolist()), np.float64, k * p * t)
    err = err.reshape(k, p, t)
    ade = np.cumsum(err.reshape(k, p * t), axis=1)[:, -1] / (p * t)
    fde = np.cumsum(err[:, :, -1], axis=1)[:, -1] / p
    return ade, fde


def ade_fde(pred_abs: np.ndarray, truth_abs: np.ndarray) -> tuple[float, float]:
    """Average and final displacement errors over (P, T, 2) trajectories.

    Accumulation is sequential, so an independent double-loop oracle
    reproduces the result bit for bit.
    """
    ade, fde = _displacement_errors(np.asarray(pred_abs, dtype=np.float64)[None],
                                    np.asarray(truth_abs, dtype=np.float64))
    return float(ade[0]), float(fde[0])


def best_of_k(field: GaussianField, truth_abs: np.ndarray, k: int, seed: int,
              origin_abs: np.ndarray) -> MetricReport:
    """Metrics of the sample whose ADE is smallest (its FDE reported jointly).

    Bit-identical to scanning `ade_fde(samples[s], truth_abs)` for
    s = 0..K-1 and keeping a sample only when its ADE is strictly smaller
    than the best so far: ties go to the first sample, a NaN ADE is never
    taken after sample 0, and a NaN at sample 0 is never replaced.
    """
    samples = sample_trajectories(field, k, seed, origin_abs)
    ade, fde = _displacement_errors(samples, np.asarray(truth_abs, dtype=np.float64))
    best = 0 if np.isnan(ade[0]) else int(np.nanargmin(ade))
    return MetricReport(ade=float(ade[best]), fde=float(fde[best]),
                        n_agents=samples.shape[1], n_frames=samples.shape[2],
                        sample_count=k)


def restore_ratio(ade_n: float, fde_n: float, ade_base: float, fde_base: float) -> float:
    """Mean relative excess error over the scene-trained baseline.

    Zero means the online model matches the baseline; negative means it
    beats it.
    """
    if ade_base <= 0 or fde_base <= 0:
        raise ContractError("restore_ratio needs positive base metrics")
    return 0.5 * ((ade_n - ade_base) / ade_base + (fde_n - fde_base) / fde_base)
