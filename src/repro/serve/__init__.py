"""repro.serve — async batched evaluation service.

The serving layer turns the batch evaluation pipeline into a long-lived
service: clients submit evaluation requests (model, benchmark slice,
samples, seed), concurrent requests are micro-batched into one shared
job graph with cross-request content deduplication, the merged task set
runs on one worker pool (restarted on fresh workers after a pool-loop
death, keeping every task already settled), and each request's result
is reassembled byte-identical to what a direct ``evaluate_model`` call
would have produced.  See ``docs/serving.md``.
"""

from .batcher import (
    plan_batch,
    plan_request,
    union_tasks,
)
from .client import HttpClient, RequestFailed, ServiceClient, http_request
from .http import HttpServer, serve_forever
from .metrics import Histogram, ServiceMetrics
from .service import (
    EvalRequest,
    EvalService,
    Overloaded,
    RequestTicket,
    ServiceClosed,
)

__all__ = [
    "EvalRequest",
    "EvalService",
    "Histogram",
    "HttpClient",
    "HttpServer",
    "Overloaded",
    "RequestFailed",
    "RequestTicket",
    "ServiceClient",
    "ServiceClosed",
    "ServiceMetrics",
    "http_request",
    "plan_batch",
    "plan_request",
    "serve_forever",
    "union_tasks",
]
