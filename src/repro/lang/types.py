"""The MiniPar type system.

Scalar types: ``int``, ``float``, ``bool``.
Aggregates:   ``array<T>`` (1-D) and ``array2d<T>`` (2-D) of scalars.
Internal:     ``unit`` (statement-valued calls), ``str`` (operator-name
              literals passed to builtins), and function types for lambdas.

Types are interned singletons so identity comparison works and the type
checker stays allocation-free on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Type:
    """Base class; concrete types are the frozen dataclasses below."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "type"


@dataclass(frozen=True)
class ScalarType(Type):
    name: str  # "int" | "float" | "bool"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayType(Type):
    elem: ScalarType
    ndim: int  # 1 or 2

    def __str__(self) -> str:
        return f"array<{self.elem}>" if self.ndim == 1 else f"array2d<{self.elem}>"


@dataclass(frozen=True)
class UnitType(Type):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class StrType(Type):
    """Type of string literals used as operator names for builtins."""

    def __str__(self) -> str:
        return "str"


@dataclass(frozen=True)
class FuncType(Type):
    """Type of a lambda: parameter types and result type."""

    params: Tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        ps = ", ".join(str(p) for p in self.params)
        return f"({ps}) => {self.result}"


# Interned singletons -------------------------------------------------------

INT = ScalarType("int")
FLOAT = ScalarType("float")
BOOL = ScalarType("bool")
UNIT = UnitType()
STR = StrType()

ARRAY_INT = ArrayType(INT, 1)
ARRAY_FLOAT = ArrayType(FLOAT, 1)
ARRAY_BOOL = ArrayType(BOOL, 1)
ARRAY2D_INT = ArrayType(INT, 2)
ARRAY2D_FLOAT = ArrayType(FLOAT, 2)

_BY_NAME: Dict[str, Type] = {
    "int": INT,
    "float": FLOAT,
    "bool": BOOL,
    "array<int>": ARRAY_INT,
    "array<float>": ARRAY_FLOAT,
    "array<bool>": ARRAY_BOOL,
    "array2d<int>": ARRAY2D_INT,
    "array2d<float>": ARRAY2D_FLOAT,
}


def type_from_name(name: str) -> Optional[Type]:
    """Resolve a type spelling (as written in source) to its singleton."""
    return _BY_NAME.get(name)


def is_numeric(t: Type) -> bool:
    return t is INT or t is FLOAT


def unify_numeric(a: Type, b: Type) -> Optional[Type]:
    """Result type of an arithmetic op on ``a`` and ``b``.

    ``int op int -> int``; any mix with float promotes to float; anything
    else is a type error (returns None).
    """
    if a is INT and b is INT:
        return INT
    if (a is INT or a is FLOAT) and (b is INT or b is FLOAT):
        return FLOAT
    return None
