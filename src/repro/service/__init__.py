"""``repro.service`` — the experiment service over the sharded store.

Three modules, stdlib only:

* :mod:`repro.service.http` — the HTTP/1.1 layer: an incremental,
  segment-agnostic request parser, response framing, SSE framing;
* :mod:`repro.service.app` — :class:`ExperimentService` (the routes)
  and :func:`serve_async` (the orchestrator-embedding run mode behind
  ``python -m repro serve``);
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  ``http.client`` counterpart tests, CI, and benchmarks drive.

Attributes resolve lazily (PEP 562), matching :mod:`repro.store`.
"""

from repro import _lazy

_EXPORTS = {
    "repro.service.http": (
        "DEFAULT_MAX_BODY", "DEFAULT_MAX_HEAD", "HttpError", "Request",
        "RequestReader", "error_response", "json_response", "response_bytes",
        "sse_comment", "sse_event", "sse_headers",
    ),
    "repro.service.app": (
        "DEFAULT_BACKLOG", "DEFAULT_PORT", "SERVICE_BACKLOG_ENV", "SERVICE_PORT_ENV",
        "ExperimentService", "publish_service_metrics", "serve", "serve_async",
        "service_backlog", "service_port",
    ),
    "repro.service.client": ("ServiceClient", "ServiceError"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = _lazy.lazy_exports(globals(), _EXPORTS)
