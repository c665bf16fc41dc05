"""Exception hierarchy shared across the package."""


class FuselabError(Exception):
    """Base class for all package-specific errors."""


class ContractError(FuselabError):
    """A documented precondition or invariant was violated by the caller."""


class DimensionError(ContractError):
    """Operand shapes are incompatible."""


class ConfigError(FuselabError):
    """A run configuration is malformed, inconsistent, or mismatched."""


class NumericError(FuselabError):
    """A computation produced a non-finite value."""


class TrainingDivergedError(NumericError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"loss became non-finite at step {step}")


class ResourceLimitError(FuselabError):
    """An operation exceeded a configured resource cap."""


class UndefinedSimilarityError(ContractError):
    """Cosine similarity requested for a zero-norm vector."""
