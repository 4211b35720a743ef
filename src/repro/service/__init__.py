"""Sweep query service: tables and progress over HTTP, from warm stores.

**Ownership.**  This subsystem owns the *serving* half of the sharded
sweep stack: everything between a filled result store and a reader on
another host.  Computation stays in :mod:`repro.sweep`; persistence
stays in :mod:`repro.perf.store` / :mod:`repro.perf.backends`; this
package only reads — it renders tables, answers design-point lookups,
and streams in-flight sweep progress, for many concurrent clients,
without ever touching a cell kernel.

**Public surface.**

* :class:`repro.service.server.SweepService` — the asyncio HTTP
  service over one (store backend, grid) pair;
* :func:`repro.service.server.start_service` /
  :func:`repro.service.server.run_service` — bind-and-return (tests)
  and serve-until-interrupted (the ``python -m repro.sweep serve``
  subcommand);
* :class:`repro.service.server.BackgroundService` — the same server on
  a daemon thread, for in-process tests, benchmarks and doctests;
* :class:`repro.service.client.ServiceClient` — the stdlib client, one
  method per endpoint over one persistent connection per thread, with
  ``progress()`` as a generator over the chunked stream.

``docs/sweep-service.md`` documents the endpoint contract with
request/response examples and the multi-host walkthrough;
``tests/test_service.py`` and the CI ``sweep-service`` job hold the
behaviour (byte-identical tables across backends, concurrent readers,
live progress streaming).
"""

from .client import ServiceClient, ServiceError
from .server import (
    BackgroundService,
    SweepService,
    run_service,
    start_service,
)

__all__ = [
    "BackgroundService",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "run_service",
    "start_service",
]
