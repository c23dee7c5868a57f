"""docs/API.md must track the actual public API, and every exported
name must resolve."""

import importlib
from pathlib import Path

import pytest

import repro

API_MD = (Path(__file__).resolve().parents[2] / "docs" / "API.md").read_text()


class TestApiReference:
    def test_every_documented_name_exists(self):
        import re

        for name in re.findall(r"`(\w+)`", API_MD):
            if name in ("repro", "help", "SIMPLE_BROADCAST", "OUTDEGREE_AWARE",
                        "SYMMETRIC", "OUTPUT_PORT_AWARE", "ONE_BIT_BROADCAST",
                        "NONE", "BOUND_N",
                        "EXACT_N", "LEADER", "SET_BASED", "FREQUENCY_BASED",
                        "MULTISET_BASED"):
                continue
            assert hasattr(repro, name) or _is_submodule_path(name), name

    def test_headline_exports_are_documented(self):
        for name in (
            "Execution",
            "StaticFunctionAlgorithm",
            "PushSumAlgorithm",
            "HistoryTreeAlgorithm",
            "minimum_base",
            "ring_collapse",
            "reproduce_table1",
            "computable_class",
        ):
            assert f"`{name}`" in API_MD, f"{name} missing from API.md"


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.store", "repro.service", "repro.fibrations", "repro.core.engine"],
)
def test_every_exported_name_resolves(package):
    # repro.store and repro.service resolve names lazily (PEP 562): a
    # name whose module is gone fails only when someone reads it.
    module = importlib.import_module(package)
    unresolved = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []


def _is_submodule_path(name: str) -> bool:
    try:
        importlib.import_module(f"repro.{name}")
        return True
    except ImportError:
        return False
