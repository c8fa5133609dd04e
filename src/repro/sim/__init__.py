"""Deterministic simulation utilities.

Neither simulator in the package runs on an event queue: the flit-level
networks (:mod:`repro.noc`) advance one cycle per ``step()``, and the
transaction-level cache model books per-resource reservations
(:class:`Resource`, :class:`FloorClock`). The discrete-event kernel
(:class:`Event`, :class:`EventQueue`, :class:`Simulator`) is a
standalone utility; :class:`repro.sim.kernel.DeadlineQueue` times the
fault-recovery retries.
"""

from repro.sim.kernel import Event, EventQueue, Simulator
from repro.sim.resource import FloorClock, OccupancyTracker, Resource

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "Resource",
    "OccupancyTracker",
    "FloorClock",
]
