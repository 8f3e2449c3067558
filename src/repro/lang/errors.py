"""Error types for the MiniPar language front end.

The harness distinguishes *compile-time* failures (lexing, parsing, type
checking) from *runtime* failures (wrong answer, race, deadlock, timeout).
All compile-time failures derive from :class:`CompileError` so the harness
can record a single ``build failed`` status, mirroring how the paper's
harness records the compile status of generated C++.
"""

from __future__ import annotations


class MiniParError(Exception):
    """Base class for all MiniPar errors."""


class CompileError(MiniParError):
    """A failure while turning source text into an executable program."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self.__str__())

    def __str__(self) -> str:  # pragma: no cover - trivial
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class LexError(CompileError):
    """An invalid character or malformed literal in the source text."""


class ParseError(CompileError):
    """The token stream does not match the MiniPar grammar."""


class TypeError_(CompileError):
    """A type error found by the static checker.

    Named with a trailing underscore to avoid shadowing the Python builtin.
    """


class RuntimeFailure(MiniParError):
    """Base class for failures raised while executing a program."""


class TrapError(RuntimeFailure):
    """A runtime trap: out-of-bounds index, division by zero, bad cast."""


class FuelExhausted(RuntimeFailure):
    """The interpreter's work budget (fuel) ran out: the harness' only
    timeout, standing in for the paper's kill timer on hung samples."""


class MemoryExhausted(RuntimeFailure):
    """An allocation exceeded the execution context's memory budget
    (models a node OOM-killing the evaluation process)."""


class DataRaceError(RuntimeFailure):
    """The shared-memory runtime detected a data race in a parallel loop."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(message)


class DeadlockError(RuntimeFailure):
    """The MPI runtime detected that all ranks are blocked."""


class MPIUsageError(RuntimeFailure):
    """An MPI primitive was misused (bad rank, mismatched collective...)."""


class GPUFault(RuntimeFailure):
    """A GPU-side fault (e.g. out-of-range atomic, bad launch config)."""
