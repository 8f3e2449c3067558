"""Status classification: every MiniPar failure maps to a harness status;
non-MiniPar exceptions (harness bugs) must propagate, never be recorded
as a model failure."""

import pytest

from repro.harness.runner import _classify
from repro.lang.errors import (
    DataRaceError,
    DeadlockError,
    FuelExhausted,
    MemoryExhausted,
    MiniParError,
    MPIUsageError,
    RuntimeFailure,
    TrapError,
)


@pytest.mark.parametrize("exc,status", [
    (FuelExhausted("x"), "timeout"),
    (MemoryExhausted("x"), "runtime_error"),
    (DataRaceError("x"), "runtime_error"),
    (DeadlockError("x"), "runtime_error"),
    (MPIUsageError("x"), "runtime_error"),
    (TrapError("x"), "runtime_error"),
    (RuntimeFailure("x"), "runtime_error"),
    (MiniParError("x"), "runtime_error"),
])
def test_minipar_failures_classified(exc, status):
    assert _classify(exc) == status


@pytest.mark.parametrize("exc", [
    KeyError("harness bug"),
    AttributeError("harness bug"),
    ZeroDivisionError(),
])
def test_harness_bugs_propagate(exc):
    with pytest.raises(type(exc)):
        _classify(exc)
