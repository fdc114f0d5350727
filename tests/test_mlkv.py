"""MLKV: the vector-clock protocol, stall handling, lookahead, modes."""

import numpy as np
import pytest

from repro.core import MLKV, ASP_BOUND, ConsistencyMode, mode_for_bound
from repro.core.mlkv import CLOCK_OVERHEAD_SECONDS
from repro.device import SimClock, SSDModel
from repro.errors import StalenessViolation
from repro.kv.faster import FasterKV


def make_store(path, bound=ASP_BOUND, **kwargs):
    defaults = {"memory_budget_bytes": 1 << 14, "page_bytes": 1 << 12}
    defaults.update(kwargs)
    return MLKV(str(path), staleness_bound=bound, **defaults)


class TestModes:
    def test_mode_for_bound(self):
        assert mode_for_bound(0) == ConsistencyMode.BSP
        assert mode_for_bound(5) == ConsistencyMode.SSP
        assert mode_for_bound(ASP_BOUND) == ConsistencyMode.ASP

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            mode_for_bound(-1)
        with pytest.raises(ValueError):
            MLKV("unused", staleness_bound=-1)

    def test_store_exposes_mode(self, tmp_path):
        with make_store(tmp_path, bound=3) as store:
            assert store.mode == ConsistencyMode.SSP


class TestVectorClock:
    def test_get_increments_staleness(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put(1, b"v")
            assert store.staleness_of(1) == 0
            store.get(1)
            assert store.staleness_of(1) == 1
            store.get(1)
            assert store.staleness_of(1) == 2

    def test_put_decrements_staleness(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put(1, b"v")
            store.get(1)
            store.get(1)
            store.put(1, b"w")
            assert store.staleness_of(1) == 1
            assert store.get(1) == b"w"

    def test_staleness_floors_at_zero(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put(1, b"a")
            store.put(1, b"b")
            store.put(1, b"c")
            assert store.staleness_of(1) == 0

    def test_rmw_leaves_clock_unchanged(self, tmp_path):
        with make_store(tmp_path, bound=5) as store:
            store.put(1, b"a")
            store.rmw(1, lambda v: v + b"b")
            assert store.staleness_of(1) == 0
            assert store.get(1) == b"ab"

    def test_staleness_survives_rcu_append(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put(1, b"aaaa")
            store.get(1)
            store.put(1, b"longer-value")  # length change → RCU
            # Put settles one outstanding get: 1 - 1 = 0
            assert store.staleness_of(1) == 0
            store.get(1)
            store.get(1)
            store.put(1, b"even-longer-value!")
            assert store.staleness_of(1) == 1

    def test_clock_costs_exactly_its_overhead_over_faster(self, tmp_path):
        """§IV-E: with the clock off MLKV is FASTER, so an in-memory run
        on MLKV returns what FASTER returns, counts what it counts, and
        takes ``CLOCK_OVERHEAD_SECONDS`` more per key — no more, no less."""
        stores = [
            engine(str(tmp_path / engine.__name__), ssd=SSDModel(SimClock()),
                   memory_budget_bytes=1 << 20)
            for engine in (MLKV, FasterKV)
        ]
        rows = np.arange(64 * 8, dtype=np.uint8).reshape(64, 8)
        results = []
        for store in stores:
            out = np.zeros_like(rows)
            store.put_rows(np.arange(64), rows)
            found = store.get_rows(np.arange(64)[::-1], out)
            for key in range(100, 108):
                store.put(key, bytes([key]) * 8)
            scalars = [store.get(key) for key in range(100, 108)]
            store.multi_put(range(200, 232), [bytes([key]) * 8 for key in range(32)])
            results.append((out.tobytes(), found.tolist(), scalars,
                            store.multi_get(range(200, 232))))
        keys = 64 + 64 + 8 + 8 + 32 + 32
        mlkv, faster = stores
        assert results[0] == results[1]
        counters = ("gets", "puts", "hits", "misses")
        assert [getattr(mlkv.stats, name) for name in counters] == [
            getattr(faster.stats, name) for name in counters
        ]
        assert mlkv.clock.now - faster.clock.now == pytest.approx(
            keys * CLOCK_OVERHEAD_SECONDS
        )
        for store in stores:
            store.close()


class TestBoundEnforcement:
    def test_get_blocks_beyond_bound_without_handler(self, tmp_path):
        with make_store(tmp_path, bound=1) as store:
            store.put(1, b"v")
            store.get(1)
            store.get(1)  # staleness 1 == bound, still admitted
            with pytest.raises(StalenessViolation):
                store.get(1)  # staleness 2 > bound

    def test_bsp_bound_zero_requires_settled_key(self, tmp_path):
        with make_store(tmp_path, bound=0) as store:
            store.put(1, b"v")
            store.get(1)
            with pytest.raises(StalenessViolation):
                store.get(1)

    def test_stall_handler_resolves_block(self, tmp_path):
        with make_store(tmp_path, bound=1) as store:
            store.put(1, b"v")
            store.get(1)
            store.get(1)
            calls = []

            def handler(key):
                calls.append(key)
                store.put(1, b"settled")
                return True

            store.set_stall_handler(handler)
            assert store.get(1) == b"settled"
            assert calls == [1]
            assert store.mlkv_stats.stall_events >= 1

    def test_handler_returning_false_aborts(self, tmp_path):
        with make_store(tmp_path, bound=0) as store:
            store.put(1, b"v")
            store.get(1)
            store.set_stall_handler(lambda key: False)
            with pytest.raises(StalenessViolation):
                store.get(1)

    def test_asp_never_blocks(self, tmp_path):
        with make_store(tmp_path, bound=ASP_BOUND) as store:
            store.put(1, b"v")
            for _ in range(100):
                store.get(1)
            assert store.staleness_of(1) == 100
            assert store.mlkv_stats.stall_events == 0


class TestDiskResidentStaleness:
    def _spill(self, store, count=600):
        for i in range(count):
            store.put(i, bytes([i % 251]) * 48)

    def test_overflow_table_tracks_disk_keys(self, tmp_path):
        with make_store(tmp_path) as store:
            self._spill(store)
            assert not store.log.in_memory(store.index.find(0))
            store.get(0)
            assert store.staleness_of(0) == 1
            store.put(0, bytes(48))
            assert store.staleness_of(0) == 0

    def test_disk_key_bound_enforced(self, tmp_path):
        with make_store(tmp_path, bound=0) as store:
            self._spill(store)
            store.get(0)
            with pytest.raises(StalenessViolation):
                store.get(0)

    def test_put_on_disk_record_does_not_leak_staleness(self, tmp_path):
        """Gets served from disk are settled by as many Puts, however often
        the record is evicted in between: the first Put moves the residue
        from the overflow table into the new copy's word, and only there."""
        store = MLKV(str(tmp_path), staleness_bound=8,
                     memory_budget_bytes=1 << 15, page_bytes=1 << 12)
        value = bytes(128)

        def evict():  # push key 0 below the in-memory head
            for filler in range(1000, 1400):
                store.put(filler, value)

        store.put(0, value)
        evict()
        for _ in range(4):
            store.get(0)
            store.get(0)  # two Gets served from disk
            store.put(0, value)
            store.put(0, value)  # two Puts settle both
            evict()
        assert store.staleness_of(0) == 0
        store.close()

    def test_rcu_put_whose_append_evicts_the_old_copy(self, tmp_path):
        """The old copy is the first record of the head page, the tail page
        is full, the window is full: the append opens a page in the very
        frame the old copy sat in, at the very offset.  Releasing the old
        copy's latch must not land on the new copy."""
        page, width = 1 << 10, 40  # 60-byte records: 17 and 4 bytes of padding to a page
        store = MLKV(str(tmp_path), staleness_bound=4, memory_budget_bytes=4 * page,
                     page_bytes=page, mutable_fraction=0.5)
        for key in range(4 * 17):  # four pages, the whole window, tail page full
            store.put(key, bytes([key]) * width)
        assert store.log.head_address == store.index.find(0) == 0
        assert not store.log.in_mutable(0) and page - store.log.tail_address % page < 60
        store.get(0)
        store.put(0, b"n" * width)  # read-only: appended on a new page, page 0 evicted
        assert store.index.find(0) == 4 * page and store.log.head_address == page
        assert store.get(0) == b"n" * width
        assert store.staleness_of(0) == 1
        store.close()

    def test_bounded_staleness_disabled_bypasses_protocol(self, tmp_path):
        """§IV-E's clock-off configuration is FasterKV over the same log:
        the Gets a BSP bound blocks go straight through."""
        options = {"memory_budget_bytes": 1 << 14, "page_bytes": 1 << 12}
        bsp = MLKV(str(tmp_path / "bsp"), staleness_bound=0, **options)
        off = FasterKV(str(tmp_path / "off"), **options)
        for store in (bsp, off):
            store.put(1, b"v")
        assert bsp.get(1) == b"v"
        with pytest.raises(StalenessViolation):
            bsp.get(1)
        for _ in range(10):
            assert off.get(1) == b"v"  # no admission, no violation
        for store in (bsp, off):
            store.close()


class TestLookahead:
    def test_copies_disk_records_into_memory(self, tmp_path):
        with make_store(tmp_path) as store:
            for i in range(600):
                store.put(i, bytes([i % 251]) * 48)
            cold = [k for k in range(600) if not store.log.in_memory(store.index.find(k))]
            assert cold
            copied = store.lookahead(cold[:20])
            assert copied == 20
            for key in cold[:20]:
                assert store.log.in_memory(store.index.find(key))

    @pytest.mark.parametrize("form", [list, np.array, iter])
    def test_takes_a_list_an_array_or_an_iterator(self, tmp_path, form):
        """A long batch (the array path) and a short one (per key)."""
        with make_store(tmp_path) as store:
            for i in range(600):
                store.put(i, bytes([i % 251]) * 48)
            cold = [k for k in range(600) if not store.log.in_memory(store.index.find(k))]
            assert len(cold) > 40
            assert store.lookahead(form(cold[:40])) == 40
            assert store.lookahead(form(cold[40:43] + [cold[0]])) == 3
            assert store.mlkv_stats.lookahead_requests == 44
            assert all(store.log.in_memory(store.index.find(key)) for key in cold[:43])

    def test_skips_memory_resident_records(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put(1, b"v")
            assert store.lookahead([1]) == 0
            assert store.mlkv_stats.lookahead_skipped_memory == 1

    def test_missing_keys_ignored(self, tmp_path):
        with make_store(tmp_path) as store:
            assert store.lookahead([42, 43]) == 0

    def test_preserves_staleness_through_copy(self, tmp_path):
        with make_store(tmp_path) as store:
            for i in range(600):
                store.put(i, bytes(48))
            cold = next(k for k in range(600)
                        if not store.log.in_memory(store.index.find(k)))
            store.get(cold)  # staleness 1 in the overflow table
            store.lookahead([cold])
            # Overflow entry remains authoritative until the next put; the
            # copied record word carries the original (0) staleness.
            assert store.staleness_of(cold) in (0, 1)

    def test_staging_folds_overflow_staleness_back(self, tmp_path):
        """Regression: Gets served from disk must not leak clock counts.

        A key read while disk-resident accumulates staleness in the
        overflow table; staging it back into memory must fold that delta
        into the record word and clear the table entry, or repeated
        evict/stage cycles inflate the clock until every Get blocks.
        """
        with make_store(tmp_path, bound=4) as store:
            for i in range(600):
                store.put(i, bytes(48))
            cold = next(k for k in range(600)
                        if not store.log.in_memory(store.index.find(k)))
            store.get(cold)  # overflow staleness 1
            store.lookahead([cold])
            assert cold not in store._overflow_staleness
            assert store.staleness_of(cold) == 1  # now carried by the word
            store.put(cold, bytes(48))  # settles through the word path
            assert store.staleness_of(cold) == 0

    def test_lookahead_cost_is_background(self, tmp_path):
        ssd = SSDModel(SimClock())
        with make_store(tmp_path, ssd=ssd) as store:
            for i in range(600):
                store.put(i, bytes(48))
            cold = [k for k in range(600) if not store.log.in_memory(store.index.find(k))]
            now_before = ssd.clock.now
            store.lookahead(cold[:50])
            assert ssd.clock.now == now_before  # nothing blocked
            assert ssd.clock.busy_seconds("ssd") > 0


class TestSnapshotRead:
    def test_reads_do_not_touch_the_clock(self, tmp_path):
        with make_store(tmp_path, bound=0) as store:
            store.put(1, b"v")
            store.get(1)
            assert store.snapshot_read(1) == b"v"
            assert store.staleness_of(1) == 1  # unchanged


class TestRecovery:
    def test_checkpoint_and_recover_via_faster_machinery(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(100):
            store.put(i, bytes([i]) * 16)
        store.checkpoint()
        store.close()
        from repro.kv.faster import FasterKV

        recovered = FasterKV.recover(str(tmp_path))
        assert recovered.get(42) == bytes([42]) * 16
        recovered.close()
