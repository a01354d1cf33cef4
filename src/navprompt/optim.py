"""Named parameter store with a freeze mask, the Adam optimizer, and gradient checking."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import CheckError, ContractError, ParameterError
from .tensor import Tensor


class ParamStore:
    """Named tensors partitioned into trainable and frozen sets.

    The freeze mask is each tensor's ``requires_grad``: a frozen entry drops
    out of gradient computation entirely, so backpropagation through a frozen
    backbone only pays for the paths that can reach trainable parameters, and
    an ``Optimizer`` never binds it.
    """

    def __init__(self) -> None:
        self.entries: dict[str, Tensor] = {}

    def add(self, name: str, data, trainable: bool = True) -> Tensor:
        if name in self.entries:
            raise ContractError(f"parameter {name!r} already exists")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=trainable)
        self.entries[name] = t
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

    @property
    def frozen(self) -> set[str]:
        return {name for name, t in self.entries.items() if not t.requires_grad}

    def set_frozen(self, names: Iterable[str]) -> None:
        names = set(names)
        unknown = names - set(self.entries)
        if unknown:
            raise ContractError(f"cannot freeze unknown parameters: {sorted(unknown)}")
        for name, t in self.entries.items():
            t.requires_grad = name not in names
            t.grad = None

    def trainable_names(self) -> list[str]:
        return [name for name, t in self.entries.items() if t.requires_grad]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad = None

    def gradients(self) -> dict[str, np.ndarray]:
        """Collect populated gradients for trainable entries."""
        return {name: t.grad for name, t in self.entries.items() if t.requires_grad and t.grad is not None}


def backward(loss: Tensor, store: ParamStore) -> dict[str, np.ndarray]:
    """Run reverse-mode differentiation and return grads keyed by store name."""
    store.zero_grads()
    loss.backward()
    return store.gradients()


DEFAULT_LEARNING_RATE = 1e-3
# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Optimizer:
    """Adam over the tensors a store marks trainable when the optimizer is built.

    Frozen entries are never bound, so ``step`` cannot touch them.  Each bound
    tensor's two moment arrays are allocated once, and one step count serves
    them all: every step reads every bound tensor's ``.grad``.
    """

    def __init__(self, store: ParamStore, learning_rate: float):
        if not learning_rate > 0:
            raise ParameterError(f"learning_rate must be above 0, got {learning_rate}")
        self.learning_rate = learning_rate
        self.params = {name: store[name] for name in store.trainable_names()}
        self.moments = {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in self.params.items()}
        self.t = 0

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"trainable parameter {name!r} has no gradient")
        self.t += 1
        c1 = 1 - ADAM_BETA1 ** self.t
        c2 = 1 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m, v = self.moments[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            p.data -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


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
