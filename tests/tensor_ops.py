"""The differentiable ops ``tensor.py`` defines, for the tests that every op has a case."""

import inspect

import navprompt.tensor as tensor_mod
from navprompt.tensor import Tensor

# Tensor methods and tensor.py functions that build no graph node
NOT_OPS = {"__init__", "__repr__", "item", "backward", "no_grad"}


def differentiable_ops() -> set[str]:
    """The public functions of ``tensor.py`` and the plain methods of ``Tensor``, less ``NOT_OPS``."""
    methods = {name for name, obj in vars(Tensor).items() if inspect.isfunction(obj)}
    functions = {
        name for name, obj in vars(tensor_mod).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor_mod.__name__ and not name.startswith("_")
    }
    return (methods | functions) - NOT_OPS
