"""Hash index mapping keys to hybrid-log addresses.

FASTER's index is a flat array of slots probed from the key's hash; this
reproduction keeps that organization as open addressing with linear
probing over two parallel NumPy arrays — one of keys, one of log
addresses — so a whole batch of keys resolves with a handful of array
operations (:meth:`HashIndex.find_many`) instead of one Python probe per
key.  Full keys are stored (no tag compression).  Scalar operations walk
the same slots through ``memoryview`` s of the arrays, which index to
plain Python ints; so do a short batch, from home slots hashed as one
array (``WALK_KEYS``), the last keys of a long one (``_TAIL_KEYS``), and
a batch of fresh keys (:meth:`HashIndex.insert_absent_many`), whose
slots depend on the order they come in.

The index never stores values: it maps each key to the log address of its
newest record, which is the invariant the store and recovery rely on.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.kv.common.bloom import _mix64, _mix64_many

_INITIAL_SLOTS = 1024
#: Fraction of slots that may be in use (live or removed) before a rebuild.
_MAX_LOAD = 0.5

#: Address-array markers: a slot never used, and one whose key was removed
#: (probes continue past it).  Real log addresses are non-negative.
_EMPTY = -1
_REMOVED = -2

#: Batches shorter than this are resolved by :meth:`HashIndex.find_many`
#: walking each key's probe chain in Python from its home slot; longer
#: ones advance all chains together, one array pass per chain step (some
#: fifteen NumPy calls a pass, as many passes as the batch's longest
#: chain).  Measured on the 2-vCPU benchmark host, the two alternated in
#: one loop over 64k-slot tables ~38% full: walking costs ~17 us plus
#: ~0.4 us a key, the array passes ~70 us at 8 keys, and the two cross
#: near 300 keys when every key is present and near 450 when a quarter
#: are absent (an absent key's chain runs to an empty slot).
WALK_KEYS = 384

#: :meth:`HashIndex._slots_of` walks the chains of the keys still probing
#: in Python, from the slots the array passes reached, once this few are
#: left.  A long batch's passes thin out fast and then crawl: a 3,700-key
#: lookup in a 262,144-slot table 40% full took 19 passes, the last nine
#: for one key.  On the 2-vCPU benchmark host, best of 300 lookups,
#: walking the tail cut it from 214 to 173 us (medians 227 and 186);
#: thresholds 16 and 128 measured no better, 800 worse.
_TAIL_KEYS = 64

#: Long lookups (:meth:`HashIndex._slots_of`) whose slots the index keeps,
#: matched by the keys looked up.  A training step's keys are looked up by
#: the look-ahead that stages them, by their Get ``lookahead_distance``
#: steps later and by their Put ``pipeline_depth`` steps after that; each
#: step adds one lookup, so the count covers the look-ahead window plus
#: the pipeline depth (4 + 2 on the benchmark's DLRM) with room to spare.
#: Eight 3,700-key lookups hold ~0.5 MB.
_REMEMBERED = 8


class HashIndex:
    """Open-addressing hash index from int keys to log addresses."""

    def __init__(self, initial_slots: int = _INITIAL_SLOTS) -> None:
        if initial_slots <= 0 or initial_slots & (initial_slots - 1):
            raise ValueError("initial_slots must be a positive power of two")
        self._size = 0  # live entries
        self._used = 0  # slots no longer _EMPTY: live + removed
        #: Times the table has been rebuilt: slots found before the last
        #: rebuild (:meth:`locate_many`) no longer hold their keys.
        self.rebuilds = 0
        self._allocate(initial_slots)

    def _allocate(self, slots: int) -> None:
        #: ``(keys, slots)`` of recent long lookups, the latest used last;
        #: forgotten whenever a key takes or leaves a slot.
        self._remembered: list[tuple[np.ndarray, np.ndarray]] = []
        self._keys = np.zeros(slots, dtype=np.uint64)
        self._addresses = np.full(slots, _EMPTY, dtype=np.int64)
        self._key_view = memoryview(self._keys)
        self._address_view = memoryview(self._addresses)
        self._mask = slots - 1

    def __len__(self) -> int:
        return self._size

    @property
    def slot_count(self) -> int:
        """Number of slots in the table."""
        return self._mask + 1

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def find(self, key: int) -> Optional[int]:
        """Return the log address of ``key``'s newest record, or ``None``."""
        addresses, keys, mask = self._address_view, self._key_view, self._mask
        slot = _mix64(key) & mask
        while True:
            address = addresses[slot]
            if address == _EMPTY:
                return None
            if address >= 0 and keys[slot] == key:
                return address
            slot = (slot + 1) & mask

    def _probe(self, key: int) -> tuple[int, bool]:
        """``(slot, True)`` holding ``key``, else ``(slot to insert at, False)``."""
        addresses, keys, mask = self._address_view, self._key_view, self._mask
        slot = _mix64(key) & mask
        reusable = -1
        while True:
            address = addresses[slot]
            if address == _EMPTY:
                return (slot if reusable < 0 else reusable), False
            if address == _REMOVED:
                if reusable < 0:
                    reusable = slot
            elif keys[slot] == key:
                return slot, True
            slot = (slot + 1) & mask

    def upsert(self, key: int, address: int) -> None:
        """Point ``key`` at ``address`` (insert or overwrite)."""
        slot, present = self._probe(key)
        if not present:
            if self._address_view[slot] == _EMPTY:
                self._used += 1
            self._key_view[slot] = key
            self._size += 1
            self._remembered.clear()
        self._address_view[slot] = address
        if self._used > _MAX_LOAD * (self._mask + 1):
            self._rebuild(self._size)

    def compare_exchange(self, key: int, expected: Optional[int], address: int) -> bool:
        """Install ``address`` only if the entry still holds ``expected``.

        This is the index-level CAS FASTER uses to linearize concurrent
        read-copy-update appends: the loser of the race observes a changed
        address and retries.
        """
        current = self.find(key)
        if current != expected:
            return False
        self.upsert(key, address)
        return True

    def remove(self, key: int) -> bool:
        """Drop the key's entry; returns whether it was present."""
        slot, present = self._probe(key)
        if present:
            self._address_view[slot] = _REMOVED
            self._size -= 1
            self._remembered.clear()
        return present

    # ------------------------------------------------------------------
    # batched operations
    # ------------------------------------------------------------------
    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """The slot holding each key of a ``uint64`` array; ``-1`` where
        absent.  Read-only: the slots of a lookup of the same keys since
        the last key took or left a slot, or of a new probe
        (:meth:`_probe_slots`), which is remembered in its place."""
        remembered = self._remembered
        for position, (seen, slots) in enumerate(remembered):
            if len(seen) == len(keys) and np.array_equal(seen, keys):
                remembered.append(remembered.pop(position))
                return slots
        slots = self._probe_slots(keys)
        slots.flags.writeable = False
        remembered.append((keys.copy(), slots))
        if len(remembered) > _REMEMBERED:
            del remembered[0]
        return slots

    def _probe_slots(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_slots_of` probed afresh.

        Every key probes its home slot in one pass; the (few) keys that
        met another key or a removed slot there advance together, one pass
        a step, until no more than ``_TAIL_KEYS`` are left, whose chains
        are then walked in Python as :meth:`find` walks them.
        """
        located = np.full(keys.shape, -1, dtype=np.intp)
        slots = (_mix64_many(keys) & np.uint64(self._mask)).astype(np.intp)
        pending = None  # positions still probing; None = all of them
        while True:
            addresses = self._addresses[slots]
            hit = (addresses >= 0) & (self._keys[slots] == keys)
            if pending is None:
                located[hit] = slots[hit]
            else:
                located[pending[hit]] = slots[hit]
            probing = ~hit & (addresses != _EMPTY)
            if not probing.any():
                return located
            pending = np.flatnonzero(probing) if pending is None else pending[probing]
            keys = keys[probing]
            slots = (slots[probing] + 1) & self._mask
            if len(pending) <= _TAIL_KEYS:
                break
        ends = np.array(self._chain_ends(keys.tolist(), slots.tolist()), dtype=np.intp)
        located[pending] = np.where(self._addresses[ends] >= 0, ends, -1)
        return located

    def _chain_ends(self, keys: list, slots: list) -> list:
        """Walk each key's chain from its slot as :meth:`find` does: the
        slot holding the key, or the empty slot that ends the chain."""
        addresses, stored, mask = self._address_view, self._key_view, self._mask
        ends = []
        for key, slot in zip(keys, slots):
            while True:
                address = addresses[slot]
                if address == _EMPTY or (address >= 0 and stored[slot] == key):
                    break
                slot = (slot + 1) & mask
            ends.append(slot)
        return ends

    def find_many(self, keys: np.ndarray) -> np.ndarray:
        """Log addresses of a ``uint64`` key array; ``-1`` where absent.

        Below ``WALK_KEYS`` keys each probe chain is walked as
        :meth:`find` walks it; longer batches advance every chain at once,
        or gather at the slots a lookup of the same keys found
        (:meth:`_slots_of`).
        """
        if len(keys) >= WALK_KEYS:
            slots = self._slots_of(keys)
            return np.where(slots >= 0, self._addresses[slots], _EMPTY)
        homes = (_mix64_many(keys) & np.uint64(self._mask)).tolist()
        return self._addresses[self._chain_ends(keys.tolist(), homes)]

    def locate_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, addresses)`` of a ``uint64`` key array: the slot
        holding each key and its log address, ``-1`` where absent.

        :meth:`find_many` with the slots kept, for a caller that goes on
        to :meth:`swing_many` some of the keys; they stay where they are
        until the table is next rebuilt (``rebuilds``).
        """
        if len(keys) >= WALK_KEYS:
            slots = self._slots_of(keys)
            return slots, np.where(slots >= 0, self._addresses[slots], _EMPTY)
        homes = (_mix64_many(keys) & np.uint64(self._mask)).tolist()
        ends = np.array(self._chain_ends(keys.tolist(), homes), dtype=np.intp)
        addresses = self._addresses[ends]
        return np.where(addresses >= 0, ends, -1), addresses

    def swing_many(
        self, keys: np.ndarray, addresses: np.ndarray, slots: np.ndarray, rebuilds: int
    ) -> None:
        """Point distinct keys that are *all present* at new addresses.

        The batched form of the read-copy-update swing.  ``slots`` are
        where :meth:`locate_many` found the keys when the table had been
        rebuilt ``rebuilds`` times; the keys are probed again only if it
        has been rebuilt since.  It only rewrites address slots: no entry
        moves, the load accounting does not change and the table is never
        rebuilt, so the slot order :meth:`entries` exposes is what a run
        of scalar :meth:`upsert` calls leaves.
        """
        if rebuilds != self.rebuilds:
            slots = self._slots_of(keys)
        if slots.size and slots.min() < 0:
            raise KeyError("swing_many requires every key to be present")
        self._addresses[slots] = addresses

    def upsert_many(self, keys: np.ndarray, addresses: np.ndarray) -> None:
        """Point each of ``keys`` (``uint64``) at its address, in one batch.

        Equals a sequential application: of duplicate keys the last wins.
        """
        if keys.size == 0:
            return
        # np.unique keeps the first occurrence; over the reversed batch
        # that is the last one written.
        unique, last = np.unique(keys[::-1], return_index=True)
        if unique.size != keys.size:
            keep = np.sort(keys.size - 1 - last)
            keys, addresses = keys[keep], addresses[keep]
        if self._used + keys.size > _MAX_LOAD * (self._mask + 1):
            self._rebuild(self._size + keys.size)
        self._place(keys, addresses)

    def insert_absent_many(self, keys: np.ndarray, addresses: np.ndarray) -> None:
        """Insert distinct ``uint64`` keys the index does not hold.

        Equals a looped :meth:`upsert`, slot for slot: each key takes the
        first slot on its chain that is not live (a removed slot before a
        later empty one, as :meth:`_probe` picks), in batch order, and the
        table is rebuilt at the key whose insert crosses the load limit,
        after which the keys left are hashed for the new table.
        """
        key_list, address_list = keys.tolist(), addresses.tolist()
        if key_list:
            self._remembered.clear()
        start = 0
        while start < len(key_list):
            mask = self._mask
            limit = _MAX_LOAD * (mask + 1)
            stored, slot_addresses = self._key_view, self._address_view
            homes = (_mix64_many(keys[start:]) & np.uint64(mask)).tolist()
            used, size = self._used, self._size
            for key, address, slot in zip(key_list[start:], address_list[start:], homes):
                current = slot_addresses[slot]
                while current >= 0:
                    slot = (slot + 1) & mask
                    current = slot_addresses[slot]
                if current == _EMPTY:
                    used += 1
                stored[slot] = key
                slot_addresses[slot] = address
                size += 1
                if used > limit:
                    break
            start += size - self._size
            self._used, self._size = used, size
            if used > limit:
                self._rebuild(size)

    def _place(self, keys: np.ndarray, addresses: np.ndarray) -> None:
        """Insert or overwrite distinct ``keys``; capacity already ensured."""
        slots = (_mix64_many(keys) & np.uint64(self._mask)).astype(np.intp)
        while keys.size:
            current = self._addresses[slots]
            present = (current >= 0) & (self._keys[slots] == keys)
            self._addresses[slots[present]] = addresses[present]
            # Several keys may want one empty slot: all write their key,
            # the slot keeps one, and reading it back names the winner.
            vacant = current == _EMPTY
            self._keys[slots[vacant]] = keys[vacant]
            placed = vacant & (self._keys[slots] == keys)
            self._addresses[slots[placed]] = addresses[placed]
            inserted = int(placed.sum())
            if inserted:
                self._remembered.clear()
            self._size += inserted
            self._used += inserted
            probing = ~(present | placed)
            keys, addresses = keys[probing], addresses[probing]
            slots = (slots[probing] + 1) & self._mask

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Live ``(keys, addresses)`` as two arrays, in slot order."""
        live = np.flatnonzero(self._addresses >= 0)
        return self._keys[live], self._addresses[live]

    def items(self) -> Iterator[tuple[int, int]]:
        """All ``(key, log address)`` entries, in slot order."""
        keys, addresses = self.entries()
        return zip(keys.tolist(), addresses.tolist())

    def _rebuild(self, entries: int) -> None:
        """Re-place the live entries, dropping removed slots; grows the
        table until ``entries`` fill at most a third of it."""
        keys, addresses = self.entries()
        self.rebuilds += 1
        slots = self._mask + 1
        while entries * 3 > slots:
            slots *= 2
        self._allocate(slots)
        self._size = self._used = 0
        self._place(keys, addresses)
