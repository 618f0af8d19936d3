"""The engine-backend contract.

Two engine implementations share one interface (the paper's Fig. 3 plant
seen from the control loop's side): the full discrete-event
:class:`~repro.dsms.engine.Engine` and the scalar single-FIFO
:class:`~repro.dsms.fluid.VirtualQueueEngine` (Eq. 2's virtual queue).
:class:`EngineProtocol` writes that contract down so monitors, actuators,
control loops, shards and sweep drivers can be checked against it instead
of against a concrete class.

The contract deliberately covers only what the control stack consumes:

* **input side** — :meth:`~EngineProtocol.submit` /
  :meth:`~EngineProtocol.submit_many` buffer time-ordered arrivals; a
  timestamp behind the engine clock is rewritten to "now", counted in
  ``late_arrivals`` and warned about once per run;
* **execution** — :meth:`~EngineProtocol.run_until` advances the virtual
  clock, :meth:`~EngineProtocol.consume_cpu` charges non-query work,
  :meth:`~EngineProtocol.flush` forces buffered operator state out;
* **observability** — the cumulative counters (``admitted_total``,
  ``departed_total``, ``shed_total``, ``late_arrivals``, ``cpu_used``), the
  derived ``outstanding`` virtual queue length, and per-tuple
  :meth:`~EngineProtocol.drain_departures`.

In-network shedding (``shed_queue_count``) exists on the full engine only:
the single-FIFO abstraction has no operator queues to cull, which is why
the fluid backend supports only entry actuation.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple, runtime_checkable

from .engine import Departure


@runtime_checkable
class EngineProtocol(Protocol):
    """Structural interface every engine backend implements.

    ``runtime_checkable`` makes ``isinstance(obj, EngineProtocol)`` verify
    the method surface (not signatures); ``tests/dsms/test_backends.py``
    does exactly that for every name in the factory's table.
    """

    #: virtual clock, seconds
    now: float
    #: fraction of the CPU available to query processing (paper's H)
    headroom: float
    #: cumulative source tuples that entered the (virtual) network
    admitted_total: int
    #: cumulative source tuples that fully departed
    departed_total: int
    #: departures lost to shedding
    shed_total: int
    #: submissions whose timestamp was behind the engine clock
    late_arrivals: int
    #: CPU seconds consumed
    cpu_used: float

    def submit(self, time: float, values: Tuple = (), source: str = "in") -> None:
        """Buffer one arrival; timestamps must be non-decreasing."""
        ...

    def submit_many(self, arrivals: Sequence[Tuple[float, Tuple, str]]) -> None:
        """Buffer a time-ordered batch of arrivals."""
        ...

    def run_until(self, t_end: float) -> None:
        """Advance the virtual clock to ``t_end``, processing due work."""
        ...

    def flush(self) -> None:
        """Force buffered operator state (open windows) out of the network."""
        ...

    def consume_cpu(self, seconds: float) -> None:
        """Charge non-query CPU work (monitoring/shedding overhead)."""
        ...

    def drain_departures(self) -> List[Departure]:
        """Return and clear the departures recorded since the last call."""
        ...

    @property
    def outstanding(self) -> int:
        """The paper's virtual queue length q: admitted minus departed."""
        ...
