"""MiniPar: the small parallel language that PCGBench samples are written in.

The front end mirrors a real compiler pipeline:

    source text --lex--> tokens --parse--> AST --typecheck--> CheckedProgram

:func:`compile_source` is the harness' "compiler invocation": any
:class:`~repro.lang.errors.CompileError` it raises is recorded as a build
failure, mirroring how the paper's harness records GCC compile status.
"""

from __future__ import annotations

from . import ast, builtins, types
from .errors import (
    CompileError,
    DataRaceError,
    DeadlockError,
    FuelExhausted,
    GPUFault,
    LexError,
    MiniParError,
    MPIUsageError,
    ParseError,
    RuntimeFailure,
    TrapError,
    TypeError_,
)
from .lexer import lex
from .parser import parse
from .typecheck import CheckedProgram, KernelSig, typecheck
from .unparse import unparse, unparse_expr

__all__ = [
    "ast",
    "builtins",
    "types",
    "lex",
    "parse",
    "typecheck",
    "compile_source",
    "unparse",
    "unparse_expr",
    "CheckedProgram",
    "KernelSig",
    "MiniParError",
    "CompileError",
    "LexError",
    "ParseError",
    "TypeError_",
    "RuntimeFailure",
    "TrapError",
    "FuelExhausted",
    "DataRaceError",
    "DeadlockError",
    "MPIUsageError",
    "GPUFault",
]


def compile_source(source: str) -> CheckedProgram:
    """Lex, parse and type-check MiniPar source text.

    Raises :class:`CompileError` (or a subclass) on any front-end failure.
    """
    return typecheck(parse(source))
