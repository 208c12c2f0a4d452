"""Finite-difference verification of the analytic gradients.

``numeric_gradient`` recomputes a scalar function under elementwise
perturbations of one array and is the reference every analytic gradient
is compared against, in the test suite and in the ``gradcheck`` CLI
command: through ``tensor.backward`` in ``check_gradients``, through a
stage's ``back`` in ``check_stage``. The comparison uses a symmetric
relative error with an absolute floor so near-zero gradients do not
blow the ratio up.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import HedgeState, ea_output, hedge_output, plain_output
from .gaussian import decode_gaussian, nll_loss
from .graph import gcn_forward, instance_graphs
from .model import ModelConfig, TrajectoryModel, chunked_arrays, toy_instance
from .temporal import stack_forward

DEFAULT_STEP = 1e-5
PRIMITIVE_TOLERANCE = 1e-6
COMPOSED_TOLERANCE = 1e-4


def numeric_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences, with step ``DEFAULT_STEP``, of scalar
    ``fn()`` w.r.t. the entries of the array ``x``, perturbed in place.

    ``fn`` must recompute the loss from scratch using ``x``; it is
    evaluated 2 * x.size times, off the tape.
    """
    grad = np.zeros_like(x)
    flat_data = x.ravel()
    flat_grad = grad.ravel()
    with T.no_grad():
        for i in range(flat_data.size):
            saved = flat_data[i]
            flat_data[i] = saved + DEFAULT_STEP
            f_plus = fn()
            flat_data[i] = saved - DEFAULT_STEP
            f_minus = fn()
            flat_data[i] = saved
            flat_grad[i] = (f_plus - f_minus) / (2.0 * DEFAULT_STEP)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-8) over all entries."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss, params: dict[str, T.Tensor], weight=None) -> dict[str, float]:
    """Compare analytic and numeric gradients for every named parameter.

    ``build_loss`` takes no arguments and returns a Tensor freshly computed
    from the current parameter values. Without ``weight`` it must be a
    scalar loss; with one, the loss is ``sum(out * weight)``, whose
    analytic gradient is the backward seeded with ``weight``. Returns the
    max relative error per parameter name.
    """
    for p in params.values():
        p.zero_grad()
    T.backward(build_loss(), weight)
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for name, p in params.items()}

    def value():
        out = build_loss()
        return out.item() if weight is None else float(np.sum(out.data * weight))

    errors = {}
    for name, p in params.items():
        numeric = numeric_gradient(value, p.data)
        errors[name] = max_relative_error(analytic[name], numeric)
    for p in params.values():
        p.zero_grad()
    return errors


def check_stage(stage, inputs: dict[str, np.ndarray], weight) -> dict[str, float]:
    """Compare a stage's analytic and numeric gradients of the loss
    ``sum(out * weight)``.

    ``stage()`` runs the stage on the current values of the arrays in
    ``inputs`` and returns its output first and its ``back`` last;
    ``back(weight)`` gives those arrays' gradients, in order. Returns the
    max relative error per input name.
    """
    analytic = stage()[-1](weight)

    def value():
        return float(np.sum(stage()[0] * weight))

    return {name: max_relative_error(np.reshape(grad, x.shape),
                                     numeric_gradient(value, x))
            for (name, x), grad in zip(inputs.items(), analytic)}


def run_gradient_checks() -> list[tuple[str, float, bool]]:
    """The built-in suite: one case per stage of the model's chain (graph
    convolution, time convolution, residual stack, the three heads), the
    NLL, and the composed model. A stage's or record's output that is not
    a scalar is checked through a fixed random weighting of it.

    Returns (name, max_relative_error, passed) triples. Used by the CLI.
    """
    rng = np.random.default_rng(7)
    results = []

    def case(name, errors, tol=PRIMITIVE_TOLERANCE):
        worst = max(errors.values())
        results.append((name, worst, worst < tol))

    # Drawn and dropped, so that every case below keeps the inputs that
    # its tolerance was checked on.
    rng.normal(size=28)
    # Two frames of four agents: (2, 4, 3) features, a (3, 5) weight, and
    # motion-trend graphs whose positions are read off the (4, 3) draw.
    points = rng.normal(size=(4, 3))
    gw = rng.normal(size=(3, 5))
    gx = rng.normal(size=(2, 4, 3))
    gahat = instance_graphs(np.stack([points[:, :2], points[:, 1:]]), gx[..., :2])
    cx = rng.normal(size=(2, 4, 3, 5))
    ck = rng.normal(size=(3, 4, 1, 3)) * 0.3
    # Small raws keep |rho| far from 1, where the clamp on 1 - rho^2 would
    # put a kink inside the finite-difference step.
    nraw = T.Tensor(rng.normal(size=(2, 4, 3, 5)) * 0.5, requires_grad=True)
    ntarget = rng.normal(size=(2, 3, 4, 2)) * 0.5
    nweight = np.array([0.7, -1.3])
    block = rng.normal(size=(2, 3, 4, 3, 5))
    hweight = rng.normal(size=(2, 4, 3, 5))
    gweight = rng.normal(size=(2, 4, 5))
    cweight = rng.normal(size=(2, 3, 3, 5))
    # Central differences straddle the prelu kink whenever a pre-activation
    # sits within the step size of zero, which inflates the reported error
    # even though the analytic gradient is the correct one-sided derivative.
    # These draws keep every stack pre-activation at least 1e-3 from zero,
    # two orders of magnitude above the step.
    sx = rng.normal(size=(2, 4, 3, 5))
    sk = rng.normal(size=(2, 4, 4, 1, 3)) * 0.3
    ss = np.array([0.25, 0.4])
    sweight = rng.normal(size=(2, 2, 4, 3, 5))
    theta = rng.normal(size=(5, 1)) * 0.3
    bias = np.array(0.5)
    alpha = rng.normal(size=3)

    case("gcn_forward", check_stage(lambda: gcn_forward(gahat, gx, gw), {"w": gw}, gweight))
    case("conv2d", check_stage(lambda: T.conv2d(cx, ck), {"x": cx, "k": ck}, cweight))
    case("stack_forward", check_stage(lambda: stack_forward(sx, list(sk), list(ss)),
                                      {"x0": sx, "kernels": sk, "slopes": ss}, sweight))
    case("ea_output", check_stage(lambda: ea_output(block, theta, bias, alpha),
                                  {"block": block, "theta": theta, "bias": bias, "alpha": alpha},
                                  hweight))
    hedge = HedgeState(w=np.array([0.2, 0.3, 0.5]))
    case("hedge_output", check_stage(lambda: hedge_output(block, hedge), {"block": block},
                                     hweight))

    def plain_on_stack():
        # The plain head hands the stack its deepest layer's gradient alone.
        layers, stack_back = stack_forward(sx, list(sk), list(ss))
        out, plain_back = plain_output(layers)
        return out, lambda g: stack_back(*plain_back(g))

    case("plain_output", check_stage(plain_on_stack, {"x0": sx, "kernels": sk, "slopes": ss},
                                     hweight))
    case("nll_loss", check_gradients(lambda: nll_loss(decode_gaussian(nraw), ntarget),
                                     {"raw": nraw}))
    case("nll_loss_per_item", check_gradients(
        lambda: nll_loss(decode_gaussian(nraw), ntarget, per_item=True), {"raw": nraw},
        weight=nweight))

    # The same margin from the prelu kink holds on this seed pair.
    config = ModelConfig(stack_layers=2)
    model = TrajectoryModel(config, seed=31)
    instance = toy_instance(agents=3, config=config, seed=5)
    [(_, (x_seq, ahat, fut_rel))] = chunked_arrays([instance], config, 1)

    def full_loss():
        field, _, _ = model.forward(x_seq, ahat, "ea")
        return nll_loss(field, fut_rel)

    case("composed_model", check_gradients(full_loss, model.params), COMPOSED_TOLERANCE)
    return results
