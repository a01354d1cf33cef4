"""Optimizer freeze contract, Adam arithmetic, and the gradient check harness."""

import numpy as np
import pytest

from navprompt.errors import CheckError, ContractError, ParameterError
from navprompt.optim import (
    FiniteDifferenceReport,
    OptimConfig,
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


class TestOptimizerStep:
    def test_frozen_untouched_bitwise(self):
        store = ParamStore()
        store.add("p", np.array([1.0]))
        store.add("q", np.array([np.pi]))
        store.set_frozen({"q"})
        before = store["q"].data.tobytes()
        cfg = OptimConfig(learning_rate=0.5)
        opt = Optimizer(cfg)
        opt.step(store, {"p": np.array([1.0]), "q": np.array([100.0])})
        assert store["q"].data.tobytes() == before
        assert "q" not in opt._moments and "q" not in opt._steps
        # the trainable entry took Adam's first step, lr / (1 + eps) for g = 1
        np.testing.assert_allclose(store["p"].data, [1.0 - cfg.learning_rate / (1.0 + cfg.adam_eps)], atol=0)

    def test_adam_first_step_formula(self):
        # Oracle: with g=1 the bias-corrected ratio is exactly 1, so the step
        # is lr / (1 + eps) regardless of the betas.
        cfg = OptimConfig(learning_rate=1e-3)
        store = _store_with(value=1.0)
        Optimizer(cfg).step(store, {"p": np.array([1.0])})
        expected = 1.0 - cfg.learning_rate * 1.0 / (1.0 + cfg.adam_eps)
        np.testing.assert_allclose(store["p"].data, [expected], atol=0)
        assert store["p"].data[0] < 1.0

    def test_adam_moments_persist(self):
        cfg = OptimConfig(learning_rate=1e-3)
        opt = Optimizer(cfg)
        store = _store_with(value=1.0)
        opt.step(store, {"p": np.array([1.0])})
        first = store["p"].data[0]
        opt.step(store, {"p": np.array([1.0])})
        # Constant gradient: second bias-corrected step is the same size.
        np.testing.assert_allclose(store["p"].data[0], first - (1.0 - first), rtol=1e-9)

        # An optimizer without memory would differ: fresh moments restart the
        # bias correction, which only matters once betas differ from step one.
        m1, v1 = opt._moments["p"]
        assert m1.shape == (1,) and v1.shape == (1,)
        assert opt._steps["p"] == 2

    def test_unknown_gradient_name(self):
        store = _store_with()
        with pytest.raises(ContractError):
            Optimizer(OptimConfig()).step(store, {"nope": np.array([1.0])})

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            OptimConfig(learning_rate=-1.0).validate()
        with pytest.raises(ParameterError):
            OptimConfig(adam_beta1=1.0).validate()
        with pytest.raises(ParameterError):
            OptimConfig(adam_eps=0.0).validate()


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
            return Tensor._result(1e-5 * np.sin(t.data), (t,), lambda g: t._accumulate(factor * 1e-5 * np.cos(t.data) * g))

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
