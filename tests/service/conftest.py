"""Fixtures for the experiment-service tests.

The service is asyncio; the tests (and :class:`ServiceClient`) are
blocking.  :class:`ServiceThread` runs one service on its own event loop
in a daemon thread — bound to port 0, so suites parallelize — and gives
tests a threadsafe window into that loop (``pending_tasks`` is how the
SSE-disconnect test proves a vanished client leaves nothing behind).
Given ``orchestrator=`` keyword arguments it also embeds an
:class:`~repro.store.orchestrator.Orchestrator` on that loop, wired the
way ``python -m repro serve --pools N`` wires it.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.app import ExperimentService
from repro.service.client import ServiceClient
from repro.store.orchestrator import Orchestrator


class ServiceThread:
    """One :class:`ExperimentService` on a dedicated loop + thread."""

    def __init__(self, root, orchestrator=None, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.service = ExperimentService(root, **kwargs)
        self.orchestrator = None
        self.orchestrator_task = None
        if orchestrator is not None:
            self.orchestrator = Orchestrator(root, idle_exit=False, **orchestrator)
            self.service.embed(self.orchestrator)
        started = threading.Event()

        def runner():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start(port=0))
            if self.orchestrator is not None:
                self.orchestrator_task = self.loop.create_task(self.orchestrator.run())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=runner, daemon=True, name="service")
        self.thread.start()
        assert started.wait(10), "service failed to start"

    @property
    def host(self):
        return self.service.host

    @property
    def port(self):
        return self.service.port

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient(self.host, self.port, timeout=timeout)

    # -- loop introspection --------------------------------------------- #

    async def _pending(self):
        current = asyncio.current_task()
        return [t for t in asyncio.all_tasks() if t is not current and not t.done()]

    def pending_tasks(self):
        """Unfinished tasks on the service loop (connection handlers)."""
        future = asyncio.run_coroutine_threadsafe(self._pending(), self.loop)
        return future.result(10)

    def call(self, fn, *args):
        """Run ``fn(*args)`` on the service loop; returns its result."""

        async def on_loop():
            return fn(*args)

        return asyncio.run_coroutine_threadsafe(on_loop(), self.loop).result(10)

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """True once no connection-handler tasks remain on the loop."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.pending_tasks():
                return True
            time.sleep(0.02)
        return False

    async def _shutdown(self):
        await self.service.close()
        if self.orchestrator_task is not None:
            # As serve does: cancelling lets run() drain in-flight
            # dispatches and shut its pools down.
            self.orchestrator_task.cancel()
            await asyncio.gather(self.orchestrator_task, return_exceptions=True)

    def stop(self):
        asyncio.run_coroutine_threadsafe(self._shutdown(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture
def service_thread(tmp_path):
    """A running service over a fresh scheduler root."""
    thread = ServiceThread(tmp_path / "root", poll_interval=0.05)
    yield thread
    thread.stop()
