"""Hybrid log: regions, padding, eviction, in-place updates, prefetch."""

import os

import numpy as np
import pytest

from repro.device import SimClock, SSDModel
from repro.errors import StorageError
from repro.kv.faster.hybridlog import TOMBSTONE_LEN, HybridLog
from repro.kv.faster.record import RECORD_HEADER_BYTES, pack_word, unpack_word


def make_log(tmp_path, pages=4, page_bytes=1024, mutable_fraction=0.9):
    ssd = SSDModel(SimClock())
    log = HybridLog(
        str(tmp_path / "log.bin"), ssd,
        memory_budget_bytes=pages * page_bytes,
        page_bytes=page_bytes,
        mutable_fraction=mutable_fraction,
    )
    return log, ssd


WORD = pack_word(False, False, 1, 0)


class TestAppendRead:
    def test_roundtrip(self, tmp_path):
        log, _ = make_log(tmp_path)
        address = log.append(1, b"value", WORD)
        word, key, value, in_memory = log.read_record(address)
        assert (key, value, in_memory) == (1, b"value", True)
        assert unpack_word(word)[2] == 1

    def test_addresses_monotonic(self, tmp_path):
        log, _ = make_log(tmp_path)
        first = log.append(1, b"a", WORD)
        second = log.append(2, b"b", WORD)
        assert second > first

    def test_record_never_straddles_pages(self, tmp_path):
        log, _ = make_log(tmp_path, page_bytes=128)
        addresses = [log.append(i, bytes(40), WORD) for i in range(10)]
        for address in addresses:
            assert address % 128 + 20 + 40 <= 128

    def test_oversized_record_rejected(self, tmp_path):
        log, _ = make_log(tmp_path, page_bytes=128)
        with pytest.raises(StorageError):
            log.append(1, bytes(200), WORD)

    def test_read_beyond_tail_rejected(self, tmp_path):
        log, _ = make_log(tmp_path)
        with pytest.raises(StorageError):
            log.read_record(10_000)

    def test_tombstone_roundtrip(self, tmp_path):
        log, _ = make_log(tmp_path)
        address = log.append_tombstone(9, WORD)
        _, key, value, _ = log.read_record(address)
        assert key == 9 and value is None


class TestRegions:
    def test_read_only_boundary_advances(self, tmp_path):
        log, _ = make_log(tmp_path, pages=8, page_bytes=256, mutable_fraction=0.25)
        for i in range(40):
            log.append(i, bytes(50), WORD)
        assert log.read_only_address > 0
        assert log.read_only_address <= log.tail_address

    def test_eviction_moves_head_and_flushes(self, tmp_path):
        log, ssd = make_log(tmp_path, pages=2, page_bytes=256)
        for i in range(30):
            log.append(i, bytes(50), WORD)
        assert log.head_address > 0
        assert ssd.writes > 0
        assert log.memory_bytes_used() <= 2 * 256

    def test_evicted_records_read_from_disk(self, tmp_path):
        log, ssd = make_log(tmp_path, pages=2, page_bytes=256)
        first = log.append(0, bytes([7]) * 50, WORD)
        for i in range(1, 30):
            log.append(i, bytes(50), WORD)
        assert not log.in_memory(first)
        reads_before = ssd.reads
        word, key, value, in_memory = log.read_record(first)
        assert key == 0 and value == bytes([7]) * 50
        assert not in_memory
        assert ssd.reads == reads_before + 1

    def test_in_memory_and_in_mutable_classification(self, tmp_path):
        log, _ = make_log(tmp_path, pages=2, page_bytes=256, mutable_fraction=0.5)
        addresses = [log.append(i, bytes(50), WORD) for i in range(30)]
        assert log.in_memory(addresses[-1])
        assert log.in_mutable(addresses[-1])
        assert not log.in_memory(addresses[0])
        assert not log.in_mutable(addresses[0])


class TestInPlaceUpdate:
    def test_value_overwritten(self, tmp_path):
        log, _ = make_log(tmp_path)
        address = log.append(1, b"aaaa", WORD)
        log.write_value_in_place(address, b"bbbb")
        assert log.read_record(address)[2] == b"bbbb"

    def test_length_change_rejected(self, tmp_path):
        log, _ = make_log(tmp_path)
        address = log.append(1, b"aaaa", WORD)
        with pytest.raises(StorageError):
            log.write_value_in_place(address, b"toolong")

    def test_outside_mutable_region_rejected(self, tmp_path):
        log, _ = make_log(tmp_path, pages=2, page_bytes=256)
        address = log.append(0, bytes(50), WORD)
        for i in range(1, 30):
            log.append(i, bytes(50), WORD)
        with pytest.raises(StorageError):
            log.write_value_in_place(address, bytes(50))

    def test_record_word_handle_mutates_in_page(self, tmp_path):
        log, _ = make_log(tmp_path)
        address = log.append(1, b"v", WORD)
        handle = log.record_word(address)
        handle.store(pack_word(True, False, 2, 5))
        assert unpack_word(log.read_record(address)[0]) == (True, False, 2, 5)


class TestPrefetch:
    def test_prefetch_read_returns_record(self, tmp_path):
        log, ssd = make_log(tmp_path, pages=2, page_bytes=256)
        first = log.append(0, bytes([9]) * 50, WORD)
        for i in range(1, 30):
            log.append(i, bytes(50), WORD)
        clock_before = ssd.clock.now
        word, key, value = log.prefetch_read(first)
        assert key == 0 and value == bytes([9]) * 50
        assert ssd.clock.now == clock_before  # background charge only

    def test_charge_prefetch_pages_dedupes(self, tmp_path):
        log, ssd = make_log(tmp_path, page_bytes=256)
        # Addresses sharing a 4 KiB device block are charged once.
        from repro.device.ssd import PAGE_BYTES

        blocks = log.charge_prefetch_pages([0, 100, PAGE_BYTES + 5])
        assert blocks == 2
        assert ssd.bytes_read == 2 * PAGE_BYTES

    def test_charge_prefetch_pages_empty(self, tmp_path):
        log, ssd = make_log(tmp_path)
        assert log.charge_prefetch_pages([]) == 0


def log_state(log, ssd) -> dict:
    """Everything an append leaves behind that someone can see."""
    log._file.flush()
    with open(log.path, "rb") as f:
        file_bytes = f.read()
    return {
        "arena": bytes(log._arena),
        "file": file_bytes,
        "regions": (log.tail_address, log.read_only_address, log.head_address),
        "ssd": ssd.stats(),
        "clock": (ssd.clock.now, ssd.clock.components()),
    }


class TestAppendMany:
    """``append_many`` ≡ one ``append`` per record."""

    # 1024-byte pages: 44-byte values fill a page exactly (16 records of
    # 64 bytes), 24-byte values leave a remainder that is zero-padded.
    @pytest.mark.parametrize("width", [44, 24, 0, 300])
    @pytest.mark.parametrize("chunks", [[1000], [1, 15, 1, 16, 17, 300, 2, 648], [7] * 140])
    def test_equals_looped_append(self, tmp_path, width, chunks):
        for side in ("looped", "batched"):
            (tmp_path / side).mkdir()
        looped, looped_ssd = make_log(tmp_path / "looped", pages=4, mutable_fraction=0.5)
        batched, batched_ssd = make_log(tmp_path / "batched", pages=4, mutable_fraction=0.5)
        rng = np.random.default_rng(width)
        count = sum(chunks)
        keys = rng.permutation(count).astype(np.uint64)
        rows = rng.integers(0, 256, (count, width), dtype=np.uint8)
        words = np.array(
            [pack_word(False, bool(i % 5 == 0), 1 + i % 7, i % 3) for i in range(count)],
            dtype=np.uint64,
        )
        expected = [
            looped.append(int(key), row.tobytes(), int(word))
            for key, row, word in zip(keys, rows, words)
        ]
        got, start = [], 0
        for chunk in chunks:
            stop = start + chunk
            got += batched.append_many(keys[start:stop], rows[start:stop], words[start:stop]).tolist()
            start = stop
            # Region boundaries are where the last append left them.
            assert batched.read_only_address == max(
                batched.head_address, batched.tail_address - batched.mutable_bytes
            )
        assert got == expected
        assert looped.head_address > 0  # pages were evicted on the way
        assert log_state(batched, batched_ssd) == log_state(looped, looped_ssd)
        looped.flush_all()
        batched.flush_all()
        assert log_state(batched, batched_ssd) == log_state(looped, looped_ssd)

    def test_room_excludes_the_record_that_fills_the_page(self, tmp_path):
        log, _ = make_log(tmp_path)
        assert log.append_room(64) == 15  # the 16th would fill page 0
        log.append_many(
            np.arange(15, dtype=np.uint64), np.zeros((15, 44), dtype=np.uint8),
            np.full(15, WORD, dtype=np.uint64),
        )
        assert log.append_room(64) == 0
        log.append(15, bytes(44), WORD)  # fills it: the tail is a page not opened yet
        assert log.tail_address == 1024 and log.append_room(64) == 0
        log.append(16, bytes(44), WORD)
        assert log.append_room(64) == 14

    def test_oversized_record_rejected(self, tmp_path):
        log, _ = make_log(tmp_path, page_bytes=128)
        with pytest.raises(StorageError):
            log.append_many(
                np.arange(2, dtype=np.uint64), np.zeros((2, 200), dtype=np.uint8),
                np.full(2, WORD, dtype=np.uint64),
            )

    def test_empty_run(self, tmp_path):
        log, _ = make_log(tmp_path)
        addresses = log.append_many(
            np.empty(0, dtype=np.uint64), np.empty((0, 8), dtype=np.uint8),
            np.empty(0, dtype=np.uint64),
        )
        assert addresses.tolist() == [] and log.tail_address == 0


class TestResidentBatches:
    """The batched reads and writes of resident records (one ``np.void``
    item per record) ≡ one record at a time, wherever a record sits: at
    odd arena offsets, and flush against the end of the arena's last
    frame."""

    PAGE = 1024

    def filled(self, tmp_path, width: int, layout: str):
        """Six pages of ``width``-byte records, the last four resident, each
        page led by one record of another width: ``(log, addresses, keys,
        values)`` of the resident ``width``-byte records.  The lead is as
        long as makes the page's last record end on its last byte
        (``"flush"``), or one byte shorter (``"odd"``: the records then
        sit one byte earlier, at odd offsets where the record length is
        even)."""
        log, _ = make_log(tmp_path, pages=4, page_bytes=self.PAGE)
        record_len = RECORD_HEADER_BYTES + width
        per_page = (self.PAGE - RECORD_HEADER_BYTES - 1) // record_len
        lead = self.PAGE - per_page * record_len - RECORD_HEADER_BYTES - (layout == "odd")
        rng = np.random.default_rng(width)
        addresses, values = [], []
        for page in range(6):
            assert log.append(100_000 + page, bytes(lead), WORD) == page * self.PAGE
            for _ in range(per_page):
                values.append(rng.integers(0, 256, width, dtype=np.uint8).tobytes())
                addresses.append(log.append(len(addresses), values[-1], WORD))
        resident = [i for i, address in enumerate(addresses) if log.in_memory(address)]
        return log, np.array(addresses)[resident], resident, [values[i] for i in resident]

    @pytest.mark.parametrize("width", [8, 16, 129])
    @pytest.mark.parametrize("layout", ["flush", "odd"])
    def test_batched_reads_equal_record_reads(self, tmp_path, width, layout):
        log, addresses, keys, values = self.filled(tmp_path, width, layout)
        offsets = log.arena_offsets(addresses)
        ends = offsets + RECORD_HEADER_BYTES + width
        if layout == "flush":
            assert (ends == log.memory_pages * self.PAGE).sum() == 1
        else:
            assert (offsets % 2).any()
        order = np.random.default_rng(1).permutation(len(offsets))  # no order assumed
        headers = log.read_headers(offsets[order])
        rows = log.read_rows(offsets[order], width)
        assert rows.shape == (len(order), width) and rows.dtype == np.uint8
        for position, header, row in zip(order.tolist(), headers, rows):
            word, key, value, in_memory = log.read_record(int(addresses[position]))
            assert in_memory and value == values[position] == row.tobytes()
            assert (int(header["word"]), int(header["key"]), int(header["value_len"])) == (
                word, keys[position], width,
            )

    @pytest.mark.parametrize("width", [8, 16, 129])
    @pytest.mark.parametrize("layout", ["flush", "odd"])
    def test_batched_writes_read_back(self, tmp_path, width, layout):
        log, addresses, keys, values = self.filled(tmp_path, width, layout)
        offsets = log.arena_offsets(addresses)
        rng = np.random.default_rng(width)
        picked = rng.permutation(len(offsets))[: len(offsets) // 2]
        words = np.array([pack_word(False, True, 1 + i, i % 5) for i in range(len(picked))],
                         dtype=np.uint64)
        wide = rng.integers(0, 256, (len(picked), width + 3), dtype=np.uint8)
        log.write_words(offsets[picked], words)
        log.write_values(offsets[picked], wide[:, 1 : width + 1])  # rows not contiguous
        written = dict(zip(picked.tolist(), zip(words.tolist(), wide[:, 1 : width + 1])))
        for position, address in enumerate(addresses.tolist()):
            word, key, value, _ = log.read_record(address)
            assert key == keys[position]
            if position in written:
                assert (word, value) == (written[position][0], written[position][1].tobytes())
            else:
                assert (word, value) == (WORD, values[position])
        # Words taken straight from a header field (a strided view) store alike.
        log.write_words(offsets[picked], log.read_headers(offsets[picked[::-1]])["word"])
        reversed_words = words[::-1].tolist()
        assert [log.read_record(int(addresses[i]))[0] for i in picked.tolist()] == reversed_words


class TestDiskReads:
    def filled(self, tmp_path):
        log, ssd = make_log(tmp_path, pages=2, page_bytes=256)
        addresses = [log.append(i, bytes([i]) * 50, pack_word(False, False, 1, i)) for i in range(30)]
        addresses.append(log.append_tombstone(99, WORD))
        for i in range(31, 45):
            log.append(i, bytes(50), WORD)
        return log, ssd, addresses

    def test_batched_read_equals_single_reads_and_charges_nothing(self, tmp_path):
        log, ssd, addresses = self.filled(tmp_path)
        cold = np.array([a for a in addresses[:30] if not log.in_memory(a)], dtype=np.int64)[::-1]
        assert len(cold) > 20
        before = (ssd.stats(), ssd.clock.now)
        headers, rows, complete = log.read_disk_records(cold, 50)
        assert (ssd.stats(), ssd.clock.now) == before
        assert complete.all()
        for header, row, address in zip(headers, rows, cold.tolist()):
            word, key, value = log.read_disk_record(address)
            assert (int(header["word"]), int(header["key"])) == (word, key)
            assert row.tobytes() == value
            assert int(header["value_len"]) == 50 == log.disk_value_len(address)

    def test_single_read_charges_one_random_read(self, tmp_path):
        log, ssd, addresses = self.filled(tmp_path)
        reads, now = ssd.reads, ssd.clock.now
        assert log.read_record(addresses[3])[1:] == (3, bytes([3]) * 50, False)
        assert ssd.reads == reads + 1 and ssd.clock.now > now

    def test_tombstone_on_disk(self, tmp_path):
        log, ssd, addresses = self.filled(tmp_path)
        assert not log.in_memory(addresses[30])
        assert log.read_disk_record(addresses[30])[1:] == (99, None)
        assert log.disk_value_len(addresses[30]) == 0  # no batch has this width
        headers, _, complete = log.read_disk_records(np.array(addresses[29:31]), 50)
        assert complete.all() and headers["value_len"].tolist() == [50, TOMBSTONE_LEN]

    def test_file_ending_inside_a_record(self, tmp_path):
        """The batched read marks the record incomplete and goes on; the
        single read — where callers send such a record — says why."""
        log, _, addresses = self.filled(tmp_path)
        log._file.flush()
        os.truncate(log.path, addresses[5] + 30)
        headers, rows, complete = log.read_disk_records(np.array(addresses[3:7]), 50)
        assert complete.tolist() == [True, True, False, False]
        assert headers["key"].tolist()[:3] == [3, 4, 5] and rows[1].tobytes() == bytes([4]) * 50
        with pytest.raises(StorageError, match="log truncated"):
            log.read_disk_record(addresses[5])
        with pytest.raises(StorageError, match="log truncated"):
            log.read_record(addresses[6])
        with pytest.raises(StorageError, match="log truncated"):
            log.prefetch_read(addresses[6])


class TestScanAndLifecycle:
    def test_scan_addresses_skips_padding(self, tmp_path):
        log, _ = make_log(tmp_path, page_bytes=128)
        expected = []
        for i in range(10):
            log.append(i, bytes(40), WORD)
            expected.append(i)
        keys = [key for _, _, key, _ in log.scan_addresses()]
        assert keys == expected

    def test_scan_includes_tombstones(self, tmp_path):
        log, _ = make_log(tmp_path)
        log.append(1, b"x", WORD)
        log.append_tombstone(1, WORD)
        entries = list(log.scan_addresses())
        assert entries[-1][3] == TOMBSTONE_LEN

    def test_flush_all_persists_every_page(self, tmp_path):
        log, _ = make_log(tmp_path, page_bytes=256)
        for i in range(5):
            log.append(i, bytes(30), WORD)
        log.flush_all()
        assert os.path.getsize(log.path) >= log.tail_address

    def test_closed_log_rejects_operations(self, tmp_path):
        log, _ = make_log(tmp_path)
        log.close()
        with pytest.raises(StorageError):
            log.append(1, b"x", WORD)

    def test_invalid_configuration(self, tmp_path):
        ssd = SSDModel(SimClock())
        with pytest.raises(ValueError):
            HybridLog(str(tmp_path / "a"), ssd, memory_budget_bytes=16, page_bytes=64)
        with pytest.raises(ValueError):
            HybridLog(str(tmp_path / "b"), ssd, page_bytes=8)
        with pytest.raises(ValueError):
            HybridLog(str(tmp_path / "c"), ssd, mutable_fraction=0.0)
