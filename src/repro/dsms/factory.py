"""The engine-backend table and factory.

Every layer that needs an engine — the control loop, the service shards,
the sweep drivers — goes through :func:`make_engine` instead of naming an
engine class, so the backend becomes configuration:

``"full"``
    the discrete-event :class:`~repro.dsms.engine.Engine` over a real query
    network (highest fidelity; needs a ``network=`` keyword);
``"fluid"``
    the scalar :class:`~repro.dsms.fluid.VirtualQueueEngine` (the paper's
    Eq. 2 virtual queue, served tuple by tuple).

:data:`BACKENDS` is the one place those names are declared; config
validation (:class:`repro.service.ServiceConfig`) reads it too.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import BackendError
from .engine import Engine
from .fluid import VirtualQueueEngine

BACKENDS: Dict[str, Callable[..., object]] = {
    "full": Engine,
    "fluid": VirtualQueueEngine,
}


def make_engine(backend: str = "full", **kwargs):
    """Construct the engine named ``backend`` in :data:`BACKENDS`.

    ``kwargs`` are forwarded to the engine's constructor (``network=``/
    ``scheduler=`` for ``"full"``, ``cost=``/``headroom=`` for
    ``"fluid"``). Unknown names raise :class:`~repro.errors.BackendError`
    listing the accepted ones.
    """
    try:
        builder = BACKENDS[backend]
    except KeyError:
        raise BackendError(
            f"unknown engine backend {backend!r}; accepted backends: "
            f"{', '.join(sorted(BACKENDS))}"
        ) from None
    return builder(**kwargs)
