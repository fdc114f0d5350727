"""Telemetry-driven autoscaling: closing the elasticity loop under load.

The storage layer has one live rescaling *primitive* — the shard
router's incremental ``begin_split`` with copy-then-cutover.  This
module adds the *policy* that drives it while requests are in flight:
the :class:`~repro.serve.loop.ServingLoop` feeds every served batch's
latencies into the :class:`Autoscaler` and ticks it between
micro-batches (the only points simulated time advances), and the
autoscaler reacts to a sustained latency-window breach by **splitting
the hottest shard** — ``begin_split`` on the engine with the most routed
operations, then *one bounded copy step per tick* so the copy
interleaves with live serving exactly as a production rescale would,
then ``cutover`` (which replays the dual-logged write deltas, so zero
requests and zero writes are lost), until ``max_shards``.

Every decision lands in an auditable log (:attr:`Autoscaler.decisions`)
and as an obs instant on the simulated timeline; when a telemetry
object is attached, scale actions flip its phase so one run yields
before/during/after latency percentiles — the ``p99_during_rescale``
the multi-tenant bench gates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.kv import ShardedKVStore
from repro.obs.trace import instant as obs_instant
from repro.serve.telemetry import LatencyHistogram, ServingTelemetry


@dataclass(frozen=True)
class AutoscalerConfig:
    """Policy knobs for the :class:`Autoscaler`.

    Parameters
    ----------
    check_interval:
        Simulated seconds between policy evaluations; between checks the
        autoscaler only advances an in-flight split.
    p99_threshold:
        Scale *out* when the latency window's p99 exceeds this
        (``None`` disables the latency trigger).
    depth_threshold:
        Scale out when the queue depth at a check exceeds this
        (``None`` disables the depth trigger).
    cooldown:
        Minimum simulated seconds between completed scale actions.
    copy_batch:
        Keys copied per split step — the knob trading rescale speed
        against per-batch latency impact on live traffic.
    max_shards:
        Shard-count ceiling for splits; at it a hot window changes
        nothing.
    min_window:
        Completed requests a window needs before its p99 is trusted.
    """

    check_interval: float = 2e-3
    p99_threshold: Optional[float] = 1e-3
    depth_threshold: Optional[int] = None
    cooldown: float = 4e-3
    copy_batch: int = 512
    max_shards: int = 8
    min_window: int = 64

    def __post_init__(self) -> None:
        if self.check_interval <= 0:
            raise ConfigError(
                f"check_interval must be positive, got {self.check_interval}"
            )
        if self.cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.copy_batch < 1:
            raise ConfigError(f"copy_batch must be >= 1, got {self.copy_batch}")
        if self.max_shards < 1:
            raise ConfigError(f"max_shards must be >= 1, got {self.max_shards}")


class Autoscaler:
    """Watches a latency window and drives live rescaling primitives.

    Parameters
    ----------
    store:
        The shared store: a :class:`~repro.kv.ShardedKVStore` (any
        router has the split / deferred-cleanup surface;
        anything else is a ``ConfigError``).
    factory:
        Builds a fresh child for splits, in the shape of
        the store's own constructor factory: ``factory(engine_index)``
        (a replica group, on a router of groups).
    config:
        The :class:`AutoscalerConfig` policy knobs.
    telemetry:
        Optional :class:`~repro.serve.telemetry.ServingTelemetry` whose
        phase is flipped at scale-action start and completion, so the
        run's report segments latencies into before/during/after.
    """

    def __init__(
        self,
        store,
        factory: Callable[[int], object],
        config: Optional[AutoscalerConfig] = None,
        telemetry: Optional[ServingTelemetry] = None,
    ) -> None:
        if not isinstance(store, ShardedKVStore):
            raise ConfigError(
                "Autoscaler drives a ShardedKVStore's split surface; "
                f"{type(store).__name__} is not a router"
            )
        self.store = store
        self.factory = factory
        self.config = config or AutoscalerConfig()
        self.telemetry = telemetry
        self.decisions: list[dict] = []
        self._migration = None
        self._window = LatencyHistogram()
        self._last_check: Optional[float] = None
        self._last_action: Optional[float] = None
        self.splits_completed = 0

    # ------------------------------------------------------------------
    # signal intake
    # ------------------------------------------------------------------
    def observe_requests(self, latencies) -> None:
        """Feed one served batch's latencies into the current window."""
        self._window.record_many(latencies)

    @property
    def rescaling(self) -> bool:
        """Whether a split's copy is currently in flight."""
        return self._migration is not None

    # ------------------------------------------------------------------
    # the tick — called by the serving loop between batches
    # ------------------------------------------------------------------
    def tick(self, now: float, queue_depth: int = 0) -> None:
        """Advance an in-flight split or evaluate the policy.

        An in-flight split gets exactly one ``copy_step`` per tick
        (cutover when the snapshot drains), so rescale work is spread
        across batch boundaries instead of stalling the loop.  Policy
        evaluation runs at most every ``check_interval`` simulated
        seconds and respects the action ``cooldown``.
        """
        if self._migration is not None:
            self._advance_migration(now)
            return
        if self._drain_cleanup():
            return
        if self._last_check is not None and now - self._last_check < self.config.check_interval:
            return
        window_p99 = self._window.percentile(99)
        window_count = self._window.count
        self._last_check = now
        self._window = LatencyHistogram()
        if self._in_cooldown(now):
            return
        config = self.config
        hot = window_count >= config.min_window and (
            (config.p99_threshold is not None and window_p99 > config.p99_threshold)
            or (
                config.depth_threshold is not None
                and queue_depth > config.depth_threshold
            )
        )
        if hot and self.store.num_shards < config.max_shards:
            self._begin_split(now, window_p99, queue_depth)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_action is not None
            and now - self._last_action < self.config.cooldown
        )

    def _begin_split(self, now: float, window_p99: float, queue_depth: int) -> None:
        hottest = self._hottest_shard()
        self._migration = self.store.begin_split(hottest, self.factory)
        self._record(
            now,
            action="split_begin",
            shard=hottest,
            window_p99=window_p99,
            queue_depth=queue_depth,
            remaining=self._migration.remaining,
        )
        self._set_phase("rescale:split", now)

    def _drain_cleanup(self) -> bool:
        """One bounded post-cutover cleanup step, when any is pending.

        A cutover made with ``defer_cleanup=True`` leaves the moved keys'
        physical deletes queued on the store; draining them one
        ``copy_batch``-sized chunk per tick keeps the *after* side of a
        rescale as smooth as the copy side.
        """
        if not self.store.cleanup_pending():
            return False
        self.store.cleanup_step(self.config.copy_batch)
        return True

    def _advance_migration(self, now: float) -> None:
        migration = self._migration
        if migration.copy_step(self.config.copy_batch) == 0:
            index = migration.cutover(defer_cleanup=True)
            self._migration = None
            self._last_action = now
            self.splits_completed += 1
            self._record(
                now,
                action="split_cutover",
                engine=index,
                keys_copied=migration.keys_copied,
                delta_replayed=migration.delta_replayed,
            )
            self._set_phase("after:split", now)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _hottest_shard(self) -> int:
        """The engine with the most routed operations (ties → lowest)."""
        balance = self.store.balance()
        hottest = 0
        for shard, ops in enumerate(balance):
            if ops > balance[hottest]:
                hottest = shard
        return hottest

    def _record(self, now: float, action: str, **fields) -> None:
        decision = {"at": now, "action": action}
        decision.update(fields)
        self.decisions.append(decision)
        obs_instant(f"autoscale.{action}", clock=None, at=now, **fields)

    def _set_phase(self, name: str, now: float) -> None:
        if self.telemetry is not None:
            self.telemetry.set_phase(name, at=now)

    def summary(self) -> dict:
        """The decision log plus completion counters, for reports."""
        return {
            "decisions": list(self.decisions),
            "splits_completed": self.splits_completed,
            "rescaling": self.rescaling,
        }
