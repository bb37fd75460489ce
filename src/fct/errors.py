"""Exception types shared across the library."""


class FctError(Exception):
    """Base class for all library errors."""


class InvalidScheduleError(FctError):
    """Concept schedule is empty or structurally invalid."""


class InvalidParamsError(FctError):
    """Generator parameters outside their valid range."""


class UnsupportedDatasetError(FctError):
    """Input dataset cannot be handled (e.g. more than two class values)."""


class RowParseError(FctError):
    """A data file row could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SchemaError(FctError):
    """Operands belong to different schemas (attribute count mismatch)."""


class InvalidModelError(FctError):
    """Model is in a state the operation cannot accept (e.g. no paths)."""


class NotReadyError(FctError):
    """Requested statistic has no observations yet."""


class ConfigError(FctError):
    """Invalid run configuration; carries the offending key name, and
    ``where`` it was read (a config file and line) when it came from a file."""

    def __init__(self, key: str, message: str, where: str = ""):
        super().__init__(f"{where}: {key}: {message}" if where
                         else f"{key}: {message}")
        self.key = key
        self.message = message
