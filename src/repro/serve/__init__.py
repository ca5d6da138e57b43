"""The admission-control query service (``repro serve``).

The paper's core question — *do all flows meet their deadlines on this
network?* — is exactly an admission-control query, and this package
turns the analysis into a long-lived query engine:

* :class:`~repro.serve.engine.AdmissionEngine` — the incremental
  analysis core.  Admitting or removing one flow re-derives only the
  per-class aggregates it touches; the resulting bounds are
  **bit-identical** to a from-scratch recompute (a property the engine
  can assert about itself via :meth:`~repro.serve.engine.
  AdmissionEngine.verify`).
* :class:`~repro.serve.journal.AdmissionJournal` — crash safety: an
  append-only admission journal plus atomic ``os.replace`` checkpoints,
  so a SIGKILL mid-stream recovers to a byte-identical flow table.
* :class:`~repro.serve.server.AdmissionServer` — the HTTP/JSON front
  end with per-request deadline budgets (degrading to the last
  committed bound instead of hanging), a bounded admission queue with
  load shedding (503 + ``Retry-After``) and a graceful SIGTERM drain.
* :class:`~repro.serve.client.ServeClient` — a stdlib keep-alive
  client (one persistent connection per thread) used by the tests, the
  benchmarks and the CI smoke storm.
* :mod:`repro.serve.wire` — the HTTP/1.1 framing both ends share: a
  head reader with the stdlib's limits and a one-buffer encoder.

See DESIGN.md §14 and the ``repro serve`` section of README.md.
"""

from repro.serve.client import ServeClient
from repro.serve.engine import (
    AdmissionDecision,
    AdmissionEngine,
    EngineSnapshot,
    message_from_payload,
    message_to_payload,
)
from repro.serve.journal import AdmissionJournal, JournalState
from repro.serve.server import AdmissionServer, ServeConfig

__all__ = [
    "AdmissionDecision",
    "AdmissionEngine",
    "AdmissionJournal",
    "AdmissionServer",
    "EngineSnapshot",
    "JournalState",
    "ServeClient",
    "ServeConfig",
    "message_from_payload",
    "message_to_payload",
]
