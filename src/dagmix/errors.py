"""Exception hierarchy shared across the package.

Every error carries a stable ``category`` string (the class name) so the
command line can emit machine-parseable one-line failures, and an
``exit_code`` distinguishing data problems (2) from numerical failures (3).
"""

from __future__ import annotations


class DagmixError(Exception):
    exit_code = 3

    @property
    def category(self) -> str:
        return type(self).__name__


class DataError(DagmixError):
    """Problems with user-supplied structures, files, or arguments."""

    exit_code = 2


class NumericalError(DagmixError):
    """Failures of the numerical machinery (singularities, empty support)."""

    exit_code = 3


# --- structure / model construction ---------------------------------------

class CycleDetected(DataError):
    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"cycle: {' -> '.join(map(str, self.cycle))}")


class BadParentIndex(DataError):
    pass


class DimensionMismatch(DataError):
    pass


# --- statistics / conjugate machinery --------------------------------------

class AllComponentsZeroDensity(NumericalError):
    pass


class NonPsdScatter(NumericalError):
    pass


class NumericalOverflow(NumericalError):
    """Statistics or a prior scale beyond the float range."""


class SingularParentBlock(NumericalError):
    pass


class InsufficientData(DataError):
    pass


# --- scoring / engine -------------------------------------------------------

class EmptyTestSet(DataError):
    pass


class BadSchedule(DataError):
    pass


class NonNumericValue(DataError):
    """A data cell that is neither a finite number nor NaN (missing)."""


# --- files / CLI ------------------------------------------------------------

class RaggedRow(DataError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"row at line {line} has the wrong number of cells")


class NonNumericCell(DataError):
    def __init__(self, line: int, column: str):
        self.line = line
        self.column = column
        super().__init__(f"non-numeric value at line {line}, column {column!r}")


class EmptyFile(DataError):
    pass


class VersionMismatch(DataError):
    pass


class CorruptFile(DataError):
    pass


class UnknownConfigKey(DataError):
    pass
