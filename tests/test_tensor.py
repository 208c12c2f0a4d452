import ast
import importlib
import inspect
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from eanet import gradcheck
from eanet import tensor as T
from eanet.errors import ContractError, DimensionError
from eanet.gradcheck import check_gradients, max_relative_error, numeric_gradient


def conv2d_loop_oracle(x, k):
    """A general 3x3 convolution of one (C_in, H, W) plane in six nested
    loops, written independently of the banded-matmul implementation."""
    c_in, h, w = x.shape
    c_out = k.shape[0]
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for row in range(h):
            for col in range(w):
                acc = 0.0
                for c in range(c_in):
                    for i in range(3):
                        for j in range(3):
                            rr = row + i - 1
                            cc = col + j - 1
                            if 0 <= rr < h and 0 <= cc < w:
                                acc += x[c, rr, cc] * k[o, c, i, j]
                out[o, row, col] = acc
    return out


def as_3x3(k):
    """A (C_out, C_in, 1, 3) kernel as row 1 of a zero 3x3 window, the
    form the general loop oracle takes."""
    full = np.zeros(k.shape[:2] + (3, 3))
    full[:, :, 1] = k[:, :, 0]
    return full


def test_tensor_is_float64_row_major():
    t = T.Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)
    assert t.grad is None and not t.requires_grad


def test_matmul_identity_and_values():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor(np.eye(2))
    assert np.array_equal(oracles.matmul(a, eye).data, a.data)
    b = T.Tensor([[5.0], [6.0]])
    assert np.array_equal(oracles.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_inner_mismatch_names_both_shapes():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((4, 2)))
    with pytest.raises(DimensionError) as err:
        oracles.matmul(a, b)
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_batched_matches_per_slice():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    got = oracles.matmul(T.Tensor(a), T.Tensor(b)).data
    for i in range(5):
        assert np.allclose(got[i], a[i] @ b[i])


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=(2, 4, 5, 6))
        k = rng.normal(size=(3, 4, 1, 3))
        got = T.conv2d(x, k)[0]
        for n in range(2):
            want = conv2d_loop_oracle(x[n], as_3x3(k))
            assert np.allclose(got[n], want, rtol=0, atol=1e-12)


def test_conv2d_single_row_plane():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 2, 1, 5))
    k = rng.normal(size=(2, 2, 1, 3))
    got = T.conv2d(x, k)[0]
    assert np.allclose(got[0], conv2d_loop_oracle(x[0], as_3x3(k)), atol=1e-12)


def test_conv2d_batched_matches_per_element():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3, 5, 6))
    k = rng.normal(size=(2, 3, 1, 3))
    got = T.conv2d(x, k)[0]
    assert got.shape == (4, 2, 5, 6)
    for n in range(4):
        single = T.conv2d(x[n:n + 1], k)[0][0]
        assert np.allclose(got[n], single, atol=1e-12)
        assert np.allclose(single, conv2d_loop_oracle(x[n], as_3x3(k)), atol=1e-12)


def test_conv2d_batched_gradients_sum_over_batch():
    # The kernel gradient of a batched call equals the sum of per-element
    # kernel gradients; the input gradient matches elementwise.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 2, 4, 5))
    k_batch = T.Tensor(rng.normal(size=(2, 2, 1, 3)), requires_grad=True)
    xb = T.Tensor(x.copy(), requires_grad=True)
    T.backward(oracles.tensor_sum(oracles.taped_conv2d(xb, k_batch)))

    k_single = T.Tensor(k_batch.data.copy(), requires_grad=True)
    gx = np.zeros_like(x)
    for n in range(3):
        xs = T.Tensor(x[n:n + 1].copy(), requires_grad=True)
        T.backward(oracles.tensor_sum(oracles.taped_conv2d(xs, k_single)))
        gx[n] = xs.grad[0]
    assert np.allclose(k_batch.grad, k_single.grad, atol=1e-10)
    assert np.allclose(xb.grad, gx, atol=1e-12)


def test_conv2d_shape_errors():
    with pytest.raises(DimensionError):
        T.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 5, 5)))
    with pytest.raises(DimensionError):
        T.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 2, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 9, 1, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(np.zeros((2, 4, 4)), np.zeros((3, 2, 1, 3)))


def test_conv2d_row_local_kernel_matches_loop_oracle():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4, 5, 6))
    k = rng.normal(size=(2, 4, 1, 3))
    got = T.conv2d(x, k)[0]
    for n in range(3):
        assert np.allclose(got[n], conv2d_loop_oracle(x[n], as_3x3(k)), rtol=0, atol=1e-12)


def test_conv2d_row_local_kernel_is_bit_exact_under_row_and_batch_order():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(7, 12, 6, 5))
    k = rng.normal(size=(12, 12, 1, 3))
    out = T.conv2d(x, k)[0]
    rows = rng.permutation(6)
    batch = rng.permutation(7)
    assert np.array_equal(T.conv2d(x[:, :, rows], k)[0], out[:, :, rows])
    assert np.array_equal(T.conv2d(x[batch], k)[0], out[batch])


def test_conv2d_is_bit_exact_under_batch_order():
    rng = np.random.default_rng(16)
    for n in (9, 17, 33, 64):
        x = rng.normal(size=(n, 12, 6, 5))
        k = rng.normal(size=(12, 12, 1, 3))
        batch = rng.permutation(n)
        out = T.conv2d(x, k)[0]
        assert np.array_equal(T.conv2d(x[batch], k)[0], out[batch])


@pytest.mark.parametrize("name", ["tensor", "data", "graph", "temporal", "attention", "model"])
def test_every_public_function_has_a_package_caller(name):
    # An op, helper or scene builder that only tests call belongs beside the
    # oracles or in the tests, not here. A public function needs a caller in
    # another module; an underscore helper may also be called from this one.
    module = importlib.import_module(f"eanet.{name}")
    functions = {key for key, obj in vars(module).items()
                 if inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__}
    used = set()
    for path in Path(module.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == f"{name}.py":
            used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                     and node.id.startswith("_")}
            continue
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name == name}
                elif node.module == name:
                    used |= {a.name for a in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in aliases}
    assert functions - used == set()


def test_only_the_model_and_gradcheck_call_the_chain_stages():
    # `TrajectoryModel.forward` is the one place the chain is built, so a
    # change to how the stages run touches one method.
    stages = {"gcn_forward", "time_expand", "stack_forward",
              "ea_output", "hedge_output", "plain_output"}
    calls = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in stages:
                    calls.add((path.name, node.lineno, name))
    assert {call for call in calls if call[0] not in ("model.py", "gradcheck.py")} == set()
    assert {name for _, _, name in calls} == stages


def test_elementwise_broadcast_singleton_axes():
    gate = T.Tensor(np.full((2, 3, 1, 1), 0.5), requires_grad=True)
    x = T.Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
    out = oracles.mul(x, gate)
    assert out.shape == (2, 3, 4, 5)
    T.backward(oracles.tensor_sum(out))
    assert np.allclose(gate.grad, np.full((2, 3, 1, 1), 20.0))
    assert np.allclose(x.grad, 0.5)


def test_activation_values():
    x = T.Tensor([0.0, 1.0, -1.0])
    assert np.allclose(oracles.tanh(x).data, np.tanh(x.data))
    assert np.allclose(oracles.sigmoid(x).data, [0.5, 1 / (1 + np.exp(-1)), 1 / (1 + np.exp(1))])
    assert np.allclose(oracles.exp(x).data, np.exp(x.data))


def test_prelu_values_and_slope_grad():
    slope = T.Tensor(0.25, requires_grad=True)
    x = T.Tensor([-2.0, 3.0], requires_grad=True)
    out = oracles.prelu(x, slope)
    assert np.allclose(out.data, [-0.5, 3.0])
    T.backward(oracles.tensor_sum(out))
    assert np.allclose(x.grad, [0.25, 1.0])
    assert np.allclose(slope.grad, -2.0)


def test_reductions():
    x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert oracles.tensor_sum(x).item() == 10.0
    assert np.array_equal(oracles.sum_axis(x, axis=0).data, [4.0, 6.0])
    assert oracles.mean(x).item() == 2.5
    assert np.array_equal(oracles.mean(x, axis=1).data, [[1.5], [3.5]])


def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(oracles.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_fanout_accumulates():
    x = T.Tensor([2.0], requires_grad=True)
    y = oracles.add(oracles.mul(x, x), x)
    T.backward(oracles.tensor_sum(y))
    assert np.allclose(x.grad, [5.0])


def test_backward_accumulates_across_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(oracles.tensor_sum(oracles.mul(x, x)))
    first = x.grad.copy()
    T.backward(oracles.tensor_sum(oracles.mul(x, x)))
    assert np.allclose(x.grad, 2 * first)


def test_backward_rejects_non_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(oracles.mul(x, x))


def test_backward_seed_must_have_the_output_shape():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    for build, seed in ((lambda: oracles.mul(x, x), None),
                        (lambda: oracles.mul(x, x), np.ones(3)),
                        (lambda: oracles.mul(x, x), 1.0),
                        (lambda: oracles.tensor_sum(x), np.ones(1))):
        out = build()
        with pytest.raises(ContractError):
            T.backward(out, seed)
        assert len(T.tape()) == 0 and x.grad is None
    T.backward(oracles.mul(x, x), np.full((2, 3), 0.5))
    assert np.array_equal(x.grad, np.ones((2, 3)))
    assert len(T.tape()) == 0


def test_tape_cleared_after_backward():
    x = T.Tensor([1.0], requires_grad=True)
    T.backward(oracles.tensor_sum(oracles.mul(x, x)))
    assert len(T.tape()) == 0


def test_no_grad_records_nothing():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = oracles.mul(x, x)
    assert not out.requires_grad
    assert len(T.tape()) == 0


def test_getitem_backward_scatters():
    x = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    T.backward(oracles.tensor_sum(oracles.getitem(x, np.s_[1:, :2])))
    want = np.zeros((3, 4))
    want[1:, :2] = 1.0
    assert np.array_equal(x.grad, want)


# The ops of tests/oracles.py are checked beside the package's: the
# per-layer chains built from them are what the fused records must equal.
PRIMITIVE_CASES = [
    ("add", lambda a, b: oracles.tensor_sum(oracles.mul(oracles.add(a, b), b))),
    ("sub", lambda a, b: oracles.tensor_sum(oracles.mul(oracles.sub(a, b), a))),
    ("mul", lambda a, b: oracles.tensor_sum(oracles.mul(oracles.mul(a, b), a))),
    ("div", lambda a, b: oracles.tensor_sum(oracles.div(a, oracles.add(oracles.mul(b, b), 1.0)))),
    ("exp", lambda a, b: oracles.tensor_sum(oracles.exp(oracles.mul(a, 0.3)))),
    ("log", lambda a, b: oracles.tensor_sum(oracles.log(oracles.add(oracles.mul(a, a), 0.7)))),
    ("tanh", lambda a, b: oracles.tensor_sum(oracles.tanh(a))),
    ("sigmoid", lambda a, b: oracles.tensor_sum(oracles.sigmoid(a))),
    ("matmul", lambda a, b: oracles.tensor_sum(
        oracles.tanh(oracles.matmul(a, oracles.reshape(b, (4, 3)))))),
    ("mean", lambda a, b: oracles.tensor_sum(
        oracles.mul(oracles.mean(a, axis=0), oracles.mean(b, axis=0)))),
]


@pytest.mark.parametrize("name,build", PRIMITIVE_CASES)
def test_primitive_gradients_match_finite_differences(name, build):
    # str hash() is salted per process; crc32 draws the same inputs every run.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    a = T.Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    b = T.Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    errors = check_gradients(lambda: build(a, b), {"a": a, "b": b})
    assert max(errors.values()) < 1e-6


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    x = T.Tensor(rng.normal(size=(1, 3, 4, 5)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(2, 3, 1, 3)) * 0.4, requires_grad=True)
    errors = check_gradients(lambda: oracles.tensor_sum(oracles.tanh(oracles.taped_conv2d(x, k))),
                             {"x": x, "k": k})
    assert max(errors.values()) < 1e-6


def test_conv2d_batched_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    k = T.Tensor(rng.normal(size=(2, 3, 1, 3)) * 0.4, requires_grad=True)
    errors = check_gradients(lambda: oracles.tensor_sum(oracles.tanh(oracles.taped_conv2d(x, k))),
                             {"x": x, "k": k})
    assert max(errors.values()) < 1e-6


def test_prelu_getitem_gradients():
    rng = np.random.default_rng(10)
    x = T.Tensor(rng.normal(size=(4, 4)) + 0.2, requires_grad=True)
    slope = T.Tensor(0.3, requires_grad=True)

    def build():
        h = oracles.prelu(x, slope)
        return oracles.tensor_sum(oracles.getitem(oracles.mul(h, h), np.s_[1:, 1:]))

    errors = check_gradients(build, {"x": x, "slope": slope})
    assert max(errors.values()) < 1e-6


def test_numeric_gradient_detects_a_wrong_gradient(monkeypatch):
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    monkeypatch.setattr(gradcheck, "numeric_gradient",
                        lambda *a, **kw: numeric_gradient(*a, **kw) + 0.5)
    errors = check_gradients(lambda: oracles.tensor_sum(oracles.mul(x, x)), {"x": x})
    assert errors["x"] > 1e-3


def test_determinism_same_ops_same_bits():
    def run():
        rng = np.random.default_rng(42)
        a = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        out = oracles.tensor_sum(oracles.sigmoid(oracles.matmul(a, a)))
        T.backward(out)
        return out.item(), a.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_max_relative_error_floor():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert max_relative_error(np.array([1e-12]), np.array([0.0])) < 1e-3


def test_numeric_gradient_simple_quadratic():
    x = np.array([3.0])
    g = numeric_gradient(lambda: float(x[0] ** 2), x)
    assert abs(g[0] - 6.0) < 1e-6


def arena_of(*grads):
    """An arena with one parameter per gradient, the gradient written into
    its view; None leaves that parameter's gradient at zero."""
    arena = T.ParameterArena({f"p{i}": np.zeros(np.shape(g)) for i, g in enumerate(grads)})
    for p, g in zip(arena.params.values(), grads):
        if g is not None:
            p.grad[...] = g
    return arena


def in_order_norm(arena):
    total = 0.0
    for t in arena.params.values():
        total += float(np.sum(t.grad * t.grad))
    return float(np.sqrt(total))


def test_global_grad_norm_is_the_in_order_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    for trial in range(50):
        # Magnitudes spread over many decades, so the order of the adds
        # shows. Same-sized gradients sit apart in the registry (sizes 1,
        # 13 and 15 twice or more), so the rows of one 2-D reduce come from
        # spans far apart and are added back in registry order.
        scale = 10.0 ** rng.integers(-8, 8, size=6)
        wide = rng.normal(size=(7, 12)) * scale[3]
        arena = arena_of(np.array(rng.normal() * scale[0]), rng.normal(size=13) * scale[1],
                         None, rng.normal(size=(5, 1, 3)) * scale[2], wide.T, wide[:, ::3],
                         rng.normal(size=(3, 5)) * scale[4], np.array(rng.normal() * scale[5]),
                         rng.normal(size=13) * scale[5], np.array(rng.normal() * scale[1]))
        got, want = T.global_grad_norm(arena), in_order_norm(arena)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), trial
    assert T.global_grad_norm(arena_of(None, None)) == 0.0
    assert T.global_grad_norm(arena_of()) == 0.0


def test_global_grad_norm_propagates_nan_and_inf():
    finite = np.arange(4.0)
    assert math.isnan(T.global_grad_norm(arena_of(finite, np.array([1.0, np.nan]))))
    assert T.global_grad_norm(arena_of(finite, np.array(-np.inf))) == math.inf
    assert math.isnan(T.global_grad_norm(arena_of(np.array([np.inf]), None,
                                                  np.array([[np.nan]]).T)))
    # Squares that overflow are infinite, as np.sum's are.
    with np.errstate(over="ignore"):
        assert T.global_grad_norm(arena_of(np.full(2, 1e200))) == math.inf
