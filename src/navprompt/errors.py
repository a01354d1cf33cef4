"""Exception types shared across the package."""


class NavPromptError(Exception):
    """Base class for all package errors; the CLI maps these to exit codes."""


class ShapeError(NavPromptError):
    """Operand shapes are incompatible with the requested operation."""


class ParameterError(NavPromptError):
    """An argument is outside its documented range."""


class ContractError(NavPromptError):
    """A caller violated an API contract (e.g. non-scalar loss, unknown name)."""


class CheckError(NavPromptError):
    """The gradient verification harness could not run (e.g. non-deterministic f)."""


class ParseError(NavPromptError):
    """Instruction text could not be segmented."""


class AlignmentError(NavPromptError):
    """Sub-path ranges do not line up with the trajectory or prompt set."""


class ValidationError(NavPromptError):
    """A record or explicit chunk list is malformed."""


class DatasetError(NavPromptError):
    """A dataset is empty or unusable as a whole."""


class ConfigurationError(NavPromptError):
    """Model parameters and configuration disagree."""


class InputError(NavPromptError):
    """An input value (e.g. token id) is outside the supported domain."""


class DivergenceError(NavPromptError):
    """KL divergence is undefined for the given pair of matrices."""


class NumericError(NavPromptError):
    """A non-finite value reached a place that requires finite numbers."""


class FreezeViolationError(NavPromptError):
    """A frozen parameter changed during training; indicates a bug, never caught."""


class CheckpointError(NavPromptError):
    """A checkpoint file is unreadable, truncated, or inconsistent with the config."""
