"""Occupancy-based resources for the transaction-level simulator.

The transaction-level cache simulator does not simulate individual flits;
instead every contended component (a cache bank, a network channel, a spike
issue queue, the memory controller) is a :class:`Resource` that hands out
time intervals. A request wanting the resource at time ``t`` for ``d``
cycles is granted the earliest gap of length ``d`` starting at or after
``t`` -- so a tag-match arriving *before* a far-future replacement-chain
reservation correctly slips in front of it, exactly as the hardware would
serve it first.

Reservations already granted are never displaced (no preemption), which
keeps the model causal and deterministic.

The busy list is kept as two parallel sorted lists (interval starts and
ends) plus ``horizon``, the end of the latest reservation. Almost every
request is *uncontended*: it arrives at or after ``horizon``, so it lands
after every reservation and starts at its own time. That grant is a plain
append (``Resource.acquire`` checks for it first, and the hot loops of
``repro.core`` inline the same check and append). Only a request arriving
before ``horizon`` runs the earliest-fit search: a binary search plus a
short forward scan from the first candidate gap.

Intervals ending at or before the shared :class:`FloorClock` can never
matter to a request at or after the floor, so they are pruned -- lazily.
The search path prunes before it searches, and the append path prunes once
a list grows past :data:`PRUNE_CAP`, which bounds the lists. Lazy pruning
grants exactly what pruning on every call would:

* an uncontended grant lands after every reservation, so it starts at the
  same time whether or not old intervals were pruned;
* the search path removes every interval ending at or before the floor, so
  it searches exactly the list eager pruning would have left (the floor
  only rises, so eager pruning never removed anything else).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import SimulationError

#: Busy-list length at which an uncontended grant prunes past intervals.
PRUNE_CAP = 32


@dataclass
class FloorClock:
    """Shared monotone lower bound on all future request times.

    One clock is shared by every resource of a geometry so the driver can
    advance it once per access instead of touching hundreds of resources.
    """

    time: int = 0

    def advance(self, time: int) -> None:
        if time > self.time:
            self.time = time

    def reset(self) -> None:
        self.time = 0


class Resource:
    """A single-server resource granting earliest-fit time intervals.

    A *floor_clock* promises that no future request starts before its
    time, which lets intervals ending at or before it be pruned so the
    busy list stays short over long runs.

    Callers may inline the uncontended grant of :meth:`acquire` for
    ``duration > 0`` and ``time >= 0``: when ``horizon <= time``, append
    ``time`` to ``starts`` and ``time + duration`` to ``ends``, set
    ``horizon`` to that end, add one to ``grants`` and *duration* to
    ``busy_cycles``, and call :meth:`prune` once ``len(ends) > PRUNE_CAP``.
    The grant starts at ``time``.
    """

    __slots__ = (
        "name",
        "busy_cycles",
        "grants",
        "queued_cycles",
        "waits",
        "floor_clock",
        "horizon",
        "starts",
        "ends",
    )

    def __init__(
        self, name: str = "resource", floor_clock: FloorClock | None = None
    ) -> None:
        self.name = name
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        #: Number of grants that could not start at their requested time --
        #: the transaction-level analogue of a failed same-cycle allocation.
        self.waits = 0
        self.floor_clock = floor_clock
        #: End of the latest reservation granted since the last reset (0
        #: when none). Pruning never moves it.
        self.horizon = 0
        #: Busy intervals as parallel sorted lists of starts and ends.
        self.starts: list[int] = []
        self.ends: list[int] = []

    @property
    def _intervals(self) -> list[tuple[int, int]]:
        """Busy intervals as (start, end) pairs (for tests/debugging)."""
        return list(zip(self.starts, self.ends))

    def acquire(self, time: int, duration: int) -> int:
        """Reserve *duration* cycles at the earliest gap at/after *time*.

        Returns the start of the granted interval.
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        start = time if time > 0 else 0
        if duration == 0:
            self.grants += 1
            return start
        starts = self.starts
        ends = self.ends
        end = start + duration
        if self.horizon <= start:
            # Uncontended: lands after every reservation.
            starts.append(start)
            ends.append(end)
            self.horizon = end
            if len(ends) > PRUNE_CAP:
                self.prune()
        else:
            self.prune()
            # All reservations starting at or before `start` are behind us;
            # only the latest of them can still be busy (intervals are
            # disjoint).
            i = bisect_right(starts, start)
            if i and ends[i - 1] > start:
                start = ends[i - 1]
            n = len(starts)
            while i < n and starts[i] - start < duration:
                start = ends[i]
                i += 1
            end = start + duration
            starts.insert(i, start)
            ends.insert(i, end)
            if end > self.horizon:
                self.horizon = end
        if start > time:
            self.queued_cycles += start - time
            self.waits += 1
        self.busy_cycles += duration
        self.grants += 1
        return start

    def prune(self) -> None:
        """Drop every interval ending at or before the floor clock."""
        clock = self.floor_clock
        if clock is None or clock.time <= 0:
            return
        ends = self.ends
        keep_from = bisect_right(ends, clock.time)
        if keep_from:
            del self.starts[:keep_from]
            del ends[:keep_from]

    def is_free_at(self, time: int) -> bool:
        """True if an acquire of length 1 at *time* would start immediately."""
        i = bisect_right(self.starts, time)
        return not i or self.ends[i - 1] <= time

    def utilization(self, horizon: int) -> float:
        """Fraction of ``[0, horizon)`` the resource was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / horizon)

    def reset(self) -> None:
        """Return the resource to its initial idle state, keeping its name."""
        self.starts.clear()
        self.ends.clear()
        self.horizon = 0
        self.busy_cycles = 0
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource(name={self.name!r}, reservations={len(self.starts)})"


class OccupancyTracker:
    """A k-server resource (e.g. the 2-entry spike issue queue of a halo).

    Models *k* identical servers: each acquire is granted the earliest
    finishing server. Used where the paper provides small queues that allow
    limited concurrency rather than strict single occupancy.
    """

    __slots__ = ("servers", "name", "_free_at", "grants", "queued_cycles",
                 "waits")

    def __init__(self, servers: int, name: str = "tracker") -> None:
        if servers <= 0:
            raise SimulationError(f"{name}: servers must be positive")
        self.servers = servers
        self.name = name
        self._free_at = [0] * servers
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0

    def acquire(self, time: int, duration: int) -> int:
        """Reserve one server for *duration* cycles at or after *time*."""
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        free_at = self._free_at
        best = min(range(self.servers), key=free_at.__getitem__)
        start = max(time, free_at[best])
        if start > time:
            self.queued_cycles += start - time
            self.waits += 1
        free_at[best] = start + duration
        self.grants += 1
        return start

    def reset(self) -> None:
        """Return all servers to idle."""
        self._free_at = [0] * self.servers
        self.grants = 0
        self.queued_cycles = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OccupancyTracker(servers={self.servers}, name={self.name!r})"
