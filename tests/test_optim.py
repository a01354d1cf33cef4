"""Optimizer freeze contract, Adam arithmetic, and the gradient check harness."""

import numpy as np
import pytest

from navprompt.errors import CheckError, ContractError, ParameterError
from navprompt.optim import (
    ADAM_EPS,
    FiniteDifferenceReport,
    Optimizer,
    ParamStore,
    backward,
    finite_difference_check,
)
from navprompt.tensor import Tensor


def _store_with(name="p", value=1.0, trainable=True):
    store = ParamStore()
    store.add(name, np.array([value]), trainable=trainable)
    return store


def _reference_adam(learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-name Adam loop that ``Optimizer`` replaced, kept as its bitwise reference.

    It took a dict of gradients each step, kept moments and a step count per
    name, and built fresh moment arrays on every update.
    """
    moments, steps = {}, {}

    def step(params, grads):
        for name, g in grads.items():
            p = params[name]
            m, v = moments.get(name, (np.zeros_like(p), np.zeros_like(p)))
            t = steps.get(name, 0) + 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * (g * g)
            moments[name] = (m, v)
            steps[name] = t
            mhat = m / (1 - beta1 ** t)
            vhat = v / (1 - beta2 ** t)
            p -= learning_rate * mhat / (np.sqrt(vhat) + eps)

    return step


class TestOptimizerStep:
    def test_frozen_untouched_bitwise(self):
        store = ParamStore()
        store.add("p", np.array([1.0]))
        store.add("q", np.array([np.pi]))
        store.set_frozen({"q"})
        before = store["q"].data.tobytes()
        opt = Optimizer(store, 0.5)
        store["p"].grad = np.array([1.0])
        store["q"].grad = np.array([100.0])
        opt.step()
        assert store["q"].data.tobytes() == before
        assert "q" not in opt.params and "q" not in opt.moments
        # the trainable entry took Adam's first step, lr / (1 + eps) for g = 1
        np.testing.assert_allclose(store["p"].data, [1.0 - opt.learning_rate / (1.0 + ADAM_EPS)], atol=0)

    def test_adam_first_step_formula(self):
        # Oracle: with g=1 the bias-corrected ratio is exactly 1, so the step
        # is lr / (1 + eps) regardless of the betas.
        store = _store_with(value=1.0)
        store["p"].grad = np.array([1.0])
        Optimizer(store, 1e-3).step()
        expected = 1.0 - 1e-3 * 1.0 / (1.0 + ADAM_EPS)
        np.testing.assert_allclose(store["p"].data, [expected], atol=0)
        assert store["p"].data[0] < 1.0

    def test_adam_moments_persist(self):
        store = _store_with(value=1.0)
        opt = Optimizer(store, 1e-3)
        store["p"].grad = np.array([1.0])
        opt.step()
        first = store["p"].data[0]
        opt.step()
        # Constant gradient: second bias-corrected step is the same size.
        np.testing.assert_allclose(store["p"].data[0], first - (1.0 - first), rtol=1e-9)

        # An optimizer without memory would differ: fresh moments restart the
        # bias correction, which only matters once betas differ from step one.
        m1, v1 = opt.moments["p"]
        assert m1.shape == (1,) and v1.shape == (1,)
        assert opt.t == 2

    def test_missing_gradient_names_the_tensor(self):
        # every bound tensor needs a gradient; none moves when one lacks it
        store = _store_with()
        store.add("q", np.array([2.0]))
        opt = Optimizer(store, 1e-3)
        store["p"].grad = np.array([1.0])
        with pytest.raises(ContractError, match=r"^trainable parameter 'q' has no gradient$"):
            opt.step()
        assert store["p"].data.tolist() == [1.0] and opt.t == 0

    def test_config_validation(self):
        for learning_rate in (-1.0, 0.0):
            with pytest.raises(ParameterError):
                Optimizer(_store_with(), learning_rate)

    def test_matches_the_per_name_loop_bitwise(self):
        # five steps of random gradients, of scales from 1e-6 to 1e2, on three
        # tensors beside a frozen one; every step equals the old loop's bits
        rng = np.random.default_rng(20)
        store = ParamStore()
        for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 2, 3))):
            store.add(name, rng.normal(size=shape))
        store.add("frozen", rng.normal(size=(2,)), trainable=False)
        reference = {name: store[name].data.copy() for name in store.trainable_names()}
        opt, ref_step = Optimizer(store, 1e-2), _reference_adam(1e-2)
        for _ in range(5):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2) for name, p in reference.items()}
            grads["b"][0] = 0.0
            for name, g in grads.items():
                store[name].grad = g.copy()
            opt.step()
            ref_step(reference, grads)
            for name, p in reference.items():
                assert store[name].data.tobytes() == p.tobytes(), name
        assert opt.t == 5


class TestParamStore:
    def test_freeze_subset_of_entries(self):
        store = _store_with()
        with pytest.raises(ContractError):
            store.set_frozen({"ghost"})

    def test_duplicate_name(self):
        store = _store_with()
        with pytest.raises(ContractError):
            store.add("p", np.zeros(2))

    def test_frozen_drops_requires_grad(self):
        store = ParamStore()
        store.add("w", np.ones(3))
        store.set_frozen({"w"})
        assert not store["w"].requires_grad
        store.set_frozen(set())
        assert store["w"].requires_grad


class TestBackwardHelper:
    def test_grad_map_keys(self):
        store = ParamStore()
        store.add("a", np.array([1.0, 2.0]))
        store.add("b", np.array([3.0]))
        store.set_frozen({"b"})
        loss = (store["a"] * store["a"]).sum() + store["b"].sum()
        grads = backward(loss, store)
        assert set(grads) == {"a"}
        np.testing.assert_allclose(grads["a"], [2.0, 4.0])

    def test_second_backward_on_one_loss_raises(self):
        # the first backward consumed the graph; a second one must not
        # return an empty gradient map as if the loss had no parameters
        store = ParamStore()
        store.add("a", np.array([1.0, 2.0]))
        loss = (store["a"] * store["a"]).sum()
        np.testing.assert_allclose(backward(loss, store)["a"], [2.0, 4.0])
        with pytest.raises(ContractError, match="consumed"):
            backward(loss, store)


class TestFiniteDifferenceCheck:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(0)
        store = ParamStore()
        store.add("p", rng.uniform(-2, 2, 6))

        report = finite_difference_check(lambda s: (s["p"] * s["p"]).sum(), store, eps=1e-5)
        assert isinstance(report, FiniteDifferenceReport)
        assert report.max_rel_error < 1e-6

    def test_constant_function(self):
        store = _store_with(value=2.0)
        report = finite_difference_check(lambda s: s["p"].sum() * 0.0, store, eps=1e-5)
        assert report.per_param == {"p": 0.0}

    @pytest.mark.parametrize("factor", [0.0, 2.0], ids=["dropped", "doubled"])
    def test_wrong_gradient_fails_at_small_scale(self, factor):
        # the true gradient is about 1e-5, the size of the stage-1 prompt
        # gradients; every absolute error here is below 1e-4, but an analytic
        # gradient that is dropped or doubled must still fail the check
        def small_sin(t):
            node, x = t._node, t.data
            return Tensor._result(1e-5 * np.sin(x), (t,), lambda g: node._accumulate(factor * 1e-5 * np.cos(x) * g))

        store = ParamStore()
        store.add("p", np.array([0.3, -1.2, 0.7]))
        report = finite_difference_check(lambda s: small_sin(s["p"]).sum(), store, eps=1e-5)
        assert report.per_param["p"] >= 1e-4
        assert report.per_param["p"] == pytest.approx(1.0 if factor == 0.0 else 0.5, rel=1e-6)

    def test_non_deterministic_rejected(self):
        store = _store_with(value=1.0)
        counter = {"n": 0}

        def f(s):
            counter["n"] += 1
            return s["p"].sum() * float(counter["n"])

        with pytest.raises(CheckError):
            finite_difference_check(f, store, eps=1e-5)

    def test_eps_domain(self):
        store = _store_with()
        with pytest.raises(ParameterError):
            finite_difference_check(lambda s: s["p"].sum(), store, eps=1e-2)

    def test_skips_frozen(self):
        store = ParamStore()
        store.add("a", np.array([1.0]))
        store.add("b", np.array([1.0]))
        store.set_frozen({"b"})
        report = finite_difference_check(lambda s: (s["a"] * s["a"]).sum() + s["b"].sum() * 5.0, store)
        assert set(report.per_param) == {"a"}
