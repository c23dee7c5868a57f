"""``select_backend``: the one place that turns ``EngineFlags`` into a backend.

A flag left ``None`` reads its environment variable (``REPRO_QUOTIENT``,
``REPRO_VECTOR``), an explicit value beats the variable, and quotient
beats vector.  Every case sets or clears both variables, so an outer
setting (CI runs the suite once under ``REPRO_VECTOR=1``) cannot leak in.
"""

import itertools

import pytest

from repro.algorithms import GossipAlgorithm
from repro.core.engine import (
    EngineFlags,
    QuotientExecution,
    VectorExecution,
    select_backend,
)
from repro.core.execution import Execution
from repro.graphs.builders import bidirectional_ring

VARIABLES = (None, "1")  # unset, set
FLAGS = (None, True, False)


def _resolved(flag, variable):
    """An explicit flag wins; ``None`` reads the variable."""
    return variable == "1" if flag is None else flag


@pytest.mark.parametrize(
    "env_quotient, env_vector, quotient, vector",
    list(itertools.product(VARIABLES, VARIABLES, FLAGS, FLAGS)),
)
def test_truth_table(monkeypatch, env_quotient, env_vector, quotient, vector):
    for name, value in (("REPRO_QUOTIENT", env_quotient), ("REPRO_VECTOR", env_vector)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    if _resolved(quotient, env_quotient):
        expected = QuotientExecution
    elif _resolved(vector, env_vector):
        expected = VectorExecution
    else:
        expected = Execution
    assert select_backend(EngineFlags(quotient=quotient, vector=vector)) is expected


@pytest.mark.parametrize("backend", [Execution, QuotientExecution, VectorExecution])
@pytest.mark.parametrize("flag", ["quotient", "vector", "quotient_ratio"])
def test_constructors_take_no_engine_flag(backend, flag):
    with pytest.raises(TypeError):
        backend(GossipAlgorithm(max), bidirectional_ring(4), inputs=[1] * 4, **{flag: True})
