"""Importing ``repro`` loads only what a run calls.

Each check runs a fresh interpreter, since this one has long since
imported every layer.  The child's environment drops the variables that
choose a backend or a store: ``REPRO_VECTOR`` or ``REPRO_QUOTIENT``
would make a table run load numpy, and ``REPRO_STORE`` the store.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: What a table run never calls: the vector backend, the tracer's ring
#: buffer (numpy), the job queue and the service (asyncio).
NEVER_IN_A_TABLE_RUN = {
    "numpy",
    "asyncio",
    "repro.service",
    "repro.store.scheduler",
    "repro.store.orchestrator",
    "repro.core.engine.vector",
}


def _modules_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_VECTOR", "REPRO_QUOTIENT", "REPRO_STORE")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_table_run_loads_no_unused_layer():
    loaded = _modules_after(
        "import repro, repro.scenarios\n"
        "doc = repro.scenarios.run_scenario("
        "repro.scenarios.load_scenario('configs/table1.json'))\n"
        "assert doc['summary']['verdict'] == 'PASS'"
    )
    assert "repro.analysis.tables" in loaded  # the run did happen
    assert NEVER_IN_A_TABLE_RUN & loaded == set()


def test_cli_help_loads_no_harness():
    loaded = _modules_after(
        "from repro.__main__ import main\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0"
    )
    assert {"numpy", "asyncio", "repro.analysis"} & loaded == set()


def test_subpackages_resolve_after_a_bare_import():
    loaded = _modules_after(
        "import repro\n"
        "assert callable(repro.analysis.tables.paper_table_document)"
    )
    assert "repro.analysis.tables" in loaded
