"""Faults scheduled on the simulated timeline.

One heap of ``(at, sequence, label, method, args, shard)`` events behind both
chaos injectors — the serving tier's ``ChaosInjector`` and distributed
training's ``StragglerInjector`` add only their event vocabularies.
Events are scheduled at simulated instants and fired by whichever loop
owns the clock as it passes them.  A worker or store event names a
method on the target the loop hands in; a replica event names a
:class:`~repro.kv.replicated.ReplicaGroup` verb (``fail`` / ``revive``
/ ``slow``) and acts on the group serving one shard of the store, so
the schedule knows no trainer and no store class.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.errors import ConfigError
from repro.obs.trace import instant as obs_instant


class FaultSchedule:
    """Time-ordered fault events; equal times fire in scheduling order."""

    def __init__(self) -> None:
        self._events: list[tuple[float, int, str, str, tuple, Optional[int]]] = []
        self._sequence = 0
        self.fired: list[dict] = []

    def _schedule(
        self, at: float, label: str, method: str, args: tuple, shard: Optional[int] = None
    ) -> None:
        """Queue ``method(*args)``: on the target, or with ``shard`` set on
        the replica group serving that shard."""
        if at < 0:
            raise ConfigError(f"chaos events need non-negative times, got {at}")
        heapq.heappush(self._events, (at, self._sequence, label, method, args, shard))
        self._sequence += 1

    def pending(self) -> int:
        """Scheduled events not yet fired."""
        return len(self._events)

    def peek_time(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None``."""
        return self._events[0][0] if self._events else None

    def fire_due(self, now: float, target, store=None) -> int:
        """Apply every event scheduled at or before ``now``.

        A replica event acts on ``store.shards[shard]`` (``store``
        defaults to ``target``) and records a ``chaos.fail_replica`` /
        ``chaos.revive_replica`` instant naming the shard and replica;
        every other event calls its method on ``target``.  An event whose
        receiver lacks the method — a store with no shards, a shard that
        is not a replica group — raises at fire time, not silently.  Each
        fired event is appended to :attr:`fired`.  Returns the number
        fired.
        """
        count = 0
        while self._events and self._events[0][0] <= now:
            at, _, label, method, args, shard = heapq.heappop(self._events)
            receiver = target
            if shard is not None:
                host = target if store is None else store
                shards = getattr(host, "shards", None)
                if shards is None:
                    raise ConfigError(
                        f"chaos event {label!r} needs a sharded store; "
                        f"{type(host).__name__} has no shards"
                    )
                receiver = shards[shard]
            action = getattr(receiver, method, None)
            if action is None:
                raise ConfigError(
                    f"chaos event {label!r} needs a target with {method}(); "
                    f"{type(receiver).__name__} has none"
                )
            result = action(*args)
            if shard is not None and method != "slow":
                fields = {"replayed": result} if method == "revive" else {}
                obs_instant(
                    f"chaos.{method}_replica",
                    clock=receiver.clock,
                    shard=shard,
                    replica=args[0],
                    **fields,
                )
            self.fired.append({"label": label, "scheduled_at": at, "fired_at": now})
            count += 1
        return count
