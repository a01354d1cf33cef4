"""Named parameter store with a freeze mask, the Adam optimizer, and gradient checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import CheckError, ContractError, ParameterError
from .tensor import Tensor


class ParamStore:
    """Named tensors partitioned into trainable and frozen sets.

    Frozen entries are guaranteed bitwise unchanged by ``Optimizer.step``;
    they also drop out of gradient computation entirely (``requires_grad``
    is cleared), so backpropagation through a frozen backbone only pays for
    the paths that can reach trainable parameters.
    """

    def __init__(self) -> None:
        self.entries: dict[str, Tensor] = {}
        self.frozen: set[str] = set()

    def add(self, name: str, data, trainable: bool = True) -> Tensor:
        if name in self.entries:
            raise ContractError(f"parameter {name!r} already exists")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=trainable)
        self.entries[name] = t
        if not trainable:
            self.frozen.add(name)
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self.entries[name]
        except KeyError:
            raise ContractError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self) -> list[str]:
        return list(self.entries)

    def set_frozen(self, names: Iterable[str]) -> None:
        names = set(names)
        unknown = names - set(self.entries)
        if unknown:
            raise ContractError(f"cannot freeze unknown parameters: {sorted(unknown)}")
        self.frozen = names
        for name, t in self.entries.items():
            t.requires_grad = name not in names
            t.grad = None

    def trainable_names(self) -> list[str]:
        return [n for n in self.entries if n not in self.frozen]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Collect populated gradients for trainable entries."""
        return {
            name: t.grad
            for name, t in self.entries.items()
            if name not in self.frozen and t.grad is not None
        }


def backward(loss: Tensor, store: ParamStore) -> dict[str, np.ndarray]:
    """Run reverse-mode differentiation and return grads keyed by store name."""
    store.zero_grads()
    loss.backward()
    return store.gradients()


@dataclass
class OptimConfig:
    """Adam's learning rate, moment decay rates and denominator epsilon."""

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ParameterError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ParameterError("adam_eps must be positive")


class Optimizer:
    """Adam update that never touches frozen entries.

    First/second moments and step counts persist per parameter name across steps.
    """

    def __init__(self, cfg: OptimConfig):
        cfg.validate()
        self.cfg = cfg
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._steps: dict[str, int] = {}

    def step(self, store: ParamStore, grads: dict[str, np.ndarray]) -> None:
        cfg = self.cfg
        for name, g in grads.items():
            if name not in store.entries:
                raise ContractError(f"gradient for unknown parameter {name!r}")
            if name in store.frozen:
                continue
            p = store.entries[name]
            if g.shape != p.data.shape:
                raise ContractError(f"gradient shape {g.shape} does not match parameter {name!r} {p.data.shape}")
            m, v = self._moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
            t = self._steps.get(name, 0) + 1
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * (g * g)
            self._moments[name] = (m, v)
            self._steps[name] = t
            mhat = m / (1 - cfg.adam_beta1 ** t)
            vhat = v / (1 - cfg.adam_beta2 ** t)
            p.data -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.adam_eps)


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    eps: float = 1e-5


def finite_difference_check(
    f: Callable[[ParamStore], Tensor],
    store: ParamStore,
    eps: float = 1e-5,
) -> FiniteDifferenceReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must be a deterministic scalar function of the store's trainable
    entries; determinism is verified by evaluating it twice.  Each trainable
    tensor scores ``max|a - n| / max(max|a|, max|n|)`` over its entries, the
    worst error relative to that tensor's own gradient scale, so a tensor
    with tiny true gradients cannot pass with a wrong or zero analytic one.
    A tensor scores 0 only when both gradients are exactly zero.  Scores are
    reported per tensor and as a global maximum.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ParameterError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    first = f(store).item()
    second = f(store).item()
    if first != second:
        raise CheckError(f"f is not deterministic: {first!r} vs {second!r}")

    analytic = backward(f(store), store)
    report = FiniteDifferenceReport(max_rel_error=0.0, eps=eps)
    for name in store.trainable_names():
        flat = store.entries[name].data.reshape(-1)
        a = analytic.get(name, np.zeros(flat.size)).reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = f(store).item()
            flat[i] = keep - eps
            lo = f(store).item()
            flat[i] = keep
            numeric[i] = (hi - lo) / (2.0 * eps)
        scale = max(np.abs(a).max(initial=0.0), np.abs(numeric).max(initial=0.0))
        score = float(np.abs(a - numeric).max(initial=0.0) / scale) if scale > 0 else 0.0
        report.per_param[name] = score
        report.max_rel_error = max(report.max_rel_error, score)
    return report
