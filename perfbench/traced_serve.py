"""Start ``python -m repro serve`` with the layer wrappers installed.

    python3 perfbench/traced_serve.py SPAN_DIR SERVE_ARGS...

The serve process keeps its spans in memory and writes them under
SPAN_DIR when it shuts down (SIGTERM is a clean shutdown).  Its pool
child is forked with the wrappers in place and writes its own spans
there at the end of every job.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spans  # noqa: E402


def main(argv) -> int:
    span_dir, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder(flush_dir=span_dir)
    spans.install(recorder, spans.TARGETS)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", *serve_args])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
