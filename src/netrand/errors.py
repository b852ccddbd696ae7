"""Exception types shared across the package, one meaning each."""


class ParameterError(ValueError):
    """A caller's argument, flag or size is outside its documented domain (the CLI exits 2)."""


class EdgeListParseError(ValueError):
    """Malformed edge-list input (the CLI exits 1); carries the offending line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ContractError(RuntimeError):
    """The engine broke its own rule, such as a read outside the revealed prefix: a bug, not a bad input."""
