"""Exception types shared across pipeline stages, and the config sections' base."""


class GraphSynthError(Exception):
    """Base class for all pipeline errors."""


class IngestError(GraphSynthError):
    """Malformed corpus input record (message names the offending line)."""


class DuplicateIdError(IngestError):
    """An identifier that must be unique within the corpus appeared twice."""


class FormatError(GraphSynthError):
    """A backend reply or an artifact file does not match the expected format."""

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


class BackendError(GraphSynthError):
    """A backend call failed. ``retryable`` marks transient faults."""

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class IntegrityError(GraphSynthError):
    """Cross-artifact references or cached state are inconsistent."""


class ConfigurationError(GraphSynthError):
    """Configuration values that violate a stage precondition, one per ``problems`` item."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


class ConfigSection:
    """Base of the config section dataclasses: each is valid by construction."""

    def __post_init__(self) -> None:
        if problems := self._problems():
            raise ConfigurationError(*problems)
