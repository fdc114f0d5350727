"""Optimizers: dense (Adam) and sparse-row (RowAdagrad / RowAdam).

The dense optimizer steps over ``Module.parameters()``.  ``RowAdagrad``
implements the per-row adaptive update embedding tables need: the trainer
hands it ``(keys, rows, grads)`` for just the rows touched by a batch,
and it returns the updated rows to ``Put`` back into the store — the
paper's Figure 3 line 17 (``emb_optimizer``) pattern; its per-key state
lives in a ``_RowArena`` (keys map to rows through arrays, not a ``dict``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Adam:
    """Adam (Kingma & Ba 2015)."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * param.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * param.grad * param.grad
            param.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def state_dict(self) -> dict:
        """Moments and step count, for resumable training checkpoints."""
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        if len(state["m"]) != len(self.parameters):
            raise ValueError(
                f"optimizer state covers {len(state['m'])} parameters, "
                f"model has {len(self.parameters)}"
            )
        self._t = state["t"]
        self._m = [np.array(m, copy=True) for m in state["m"]]
        self._v = [np.array(v, copy=True) for v in state["v"]]


#: New keys go into a small sorted run of :class:`_RowArena`, which merges
#: into the main run once it holds more than a ``1 / _MERGE_SHARE`` of it.
_MERGE_SHARE = 8


class _RowArena:
    """Contiguous float32 row state keyed by embedding id.

    All per-key state sits in growing ``(capacity, width)`` matrices, one per
    name in ``columns`` (e.g. ``("acc",)`` or ``("m", "v")``), plus an optional
    int64 ``counts`` column of per-key step counters; a batch gathers and
    scatters with two fancy-indexing operations.  ``keys`` maps slot -> key
    (slots handed out in order of first appearance, the order ``state_dict``
    lists them in) and grows by doubling with the matrices.  Keys map to
    slots through two sorted runs, each a key array ascending with the slot
    of each key beside it: a batch resolves with one ``searchsorted`` into
    the main run and one, for the keys it misses, into the recent run.  New
    keys are inserted into the recent run, which merges into the main one
    once it outgrows ``1 / _MERGE_SHARE`` of it — so a step's new keys cost
    what the batch and the recent run hold, not the whole table, and the
    main run is rewritten once per that many new keys.
    """

    def __init__(self, width: int, columns: tuple[str, ...], counts: bool = False) -> None:
        self.width = width
        self._count = 0
        self._slot_keys = np.zeros(0, dtype=np.int64)  # grown with the matrices
        # Replaced, not written in place, when keys arrive.
        self._sorted_keys = self._sorted_slots = np.zeros(0, dtype=np.int64)
        self._recent_keys = self._recent_slots = np.zeros(0, dtype=np.int64)
        self.columns: dict[str, np.ndarray] = {
            name: np.zeros((0, width), dtype=np.float32) for name in columns
        }
        self.counts: Optional[np.ndarray] = (
            np.zeros(0, dtype=np.int64) if counts else None
        )

    def __len__(self) -> int:
        return self._count

    @property
    def keys(self) -> np.ndarray:
        """The key of each slot handed out, slot by slot."""
        return self._slot_keys[: self._count]

    def _ensure_capacity(self, needed: int) -> None:
        capacity = next(iter(self.columns.values())).shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, max(16, capacity * 2))
        for name, data in self.columns.items():
            grown = np.zeros((new_capacity, self.width), dtype=np.float32)
            grown[:capacity] = data
            self.columns[name] = grown
        slot_keys = np.zeros(new_capacity, dtype=np.int64)
        slot_keys[:capacity] = self._slot_keys
        self._slot_keys = slot_keys
        if self.counts is not None:
            counts = np.zeros(new_capacity, dtype=np.int64)
            counts[: len(self.counts)] = self.counts
            self.counts = counts

    @staticmethod
    def _find(
        run_keys: np.ndarray, run_slots: np.ndarray, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, found)`` of ``keys`` in a non-empty sorted run: the slot
        of each key the run holds, and which those are."""
        at = np.searchsorted(run_keys, keys)
        found = np.take(run_keys, at, mode="clip") == keys
        return np.take(run_slots, at, mode="clip"), found

    def resolve(self, keys: np.ndarray) -> np.ndarray:
        """Slot indices for ``keys``, allocating zeroed rows for new keys."""
        if len(self._sorted_keys):
            idx, known = self._find(self._sorted_keys, self._sorted_slots, keys)
            new = ~known
        else:
            idx, new = np.empty(len(keys), dtype=np.int64), np.ones(len(keys), dtype=bool)
        if len(self._recent_keys) and new.any():
            missed = np.flatnonzero(new)
            slots, found = self._find(self._recent_keys, self._recent_slots, keys[missed])
            idx[missed[found]] = slots[found]
            new[missed[found]] = False
        if new.any():
            self._add(keys[new], idx, new)
        return idx

    def _add(self, fresh: np.ndarray, idx: np.ndarray, new: np.ndarray) -> None:
        """Hand out slots to the keys ``fresh`` (``keys[new]`` of a batch,
        known to neither run) in order of first appearance, and store
        them at ``idx[new]``."""
        start = self._count
        if (fresh[1:] > fresh[:-1]).all():
            # Ascending and distinct: first appearance is sorted order.
            new_keys = appearing = fresh
            new_slots = np.arange(start, start + len(fresh))
            idx[new] = new_slots
        else:
            new_keys, first, inverse = np.unique(fresh, return_index=True, return_inverse=True)
            appearance = np.argsort(first)  # sorted new keys -> first-appearance order
            new_slots = np.empty_like(appearance)
            new_slots[appearance] = np.arange(start, start + len(new_keys))
            idx[new] = new_slots[inverse]
            appearing = new_keys[appearance]
        at = np.searchsorted(self._recent_keys, new_keys)
        self._recent_keys = np.insert(self._recent_keys, at, new_keys)
        self._recent_slots = np.insert(self._recent_slots, at, new_slots)
        if len(self._recent_keys) * _MERGE_SHARE > len(self._sorted_keys):
            at = np.searchsorted(self._sorted_keys, self._recent_keys)
            self._sorted_keys = np.insert(self._sorted_keys, at, self._recent_keys)
            self._sorted_slots = np.insert(self._sorted_slots, at, self._recent_slots)
            self._recent_keys = self._recent_slots = np.zeros(0, dtype=np.int64)
        self._count = start + len(appearing)
        self._ensure_capacity(self._count)
        self._slot_keys[start : self._count] = appearing


def _stack_rows(rows: Sequence) -> np.ndarray:
    """Saved per-key rows as one ``(n, dim)`` block; ``ValueError`` on mixed widths."""
    return np.array(rows, dtype=np.float32).reshape(len(rows), -1)


def _no_rows(grads, arena: Optional[_RowArena]) -> np.ndarray:
    """What a row optimizer returns for no keys: ``(0, dim)``, its state untouched."""
    width = np.shape(grads)[-1] if np.ndim(grads) > 1 else 0 if arena is None else arena.width
    return np.zeros((0, width), dtype=np.float32)


class RowAdagrad:
    """Adagrad over sparse embedding rows fetched from the KV store.

    Accumulator state lives in host memory in a contiguous per-row arena
    (the specialized frameworks keep the same state in their
    parameter-server shards); only the embedding *values* round-trip
    through storage.

    Updates are batched numpy over the whole ``(n_keys, dim)`` block and
    bit-identical to the per-key reference loop: every elementwise op
    (``acc += g*g``; ``row - lr*g/(sqrt(acc)+eps)``) runs in float32 in
    the same order per element.
    """

    def __init__(self, lr: float = 0.05, eps: float = 1e-10) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.eps = eps
        self._arena: Optional[_RowArena] = None

    def _arena_for(self, dim: int) -> _RowArena:
        if self._arena is None:
            self._arena = _RowArena(dim, ("acc",))
        elif self._arena.width != dim:
            raise ValueError(
                f"optimizer state has dim {self._arena.width}, got grads of dim {dim}"
            )
        return self._arena

    def _step(self, keys: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """``lr * g / (sqrt(acc) + eps)`` per row, ``g**2`` folded into ``acc`` first.

        Duplicate keys must be pre-aggregated by the caller (the trainers
        sum gradients per unique key first) — the batched scatter writes
        each row once.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if not len(keys):
            return _no_rows(grads, self._arena)
        grads = np.asarray(grads, dtype=np.float32).reshape(len(keys), -1)
        arena = self._arena_for(grads.shape[1])
        idx = arena.resolve(keys)
        acc = arena.columns["acc"][idx]
        acc += grads * grads
        arena.columns["acc"][idx] = acc
        return self.lr * grads / (np.sqrt(acc) + self.eps)

    def updated_rows(
        self, keys: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> np.ndarray:
        """Return new row values for ``keys`` given gradients ``grads``.

        Duplicate keys must be pre-aggregated by the caller (the trainers
        sum gradients per unique key first).
        """
        step = self._step(keys, grads)
        return np.asarray(rows, dtype=np.float32).reshape(step.shape) - step

    def delta_rows(self, keys: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Row *deltas* for ``grads``: ``new_row = row + delta``.

        The Adagrad update never reads the row value, so its delta form
        is exact: a parameter server can keep the accumulator state,
        turn pushed gradients into deltas, and apply them through a
        read-modify-write without ever shipping rows back from workers —
        and ``rows + delta_rows(...)`` is bit-identical to
        ``updated_rows(...)`` (IEEE ``a + (-x) == a - x``).  Like
        :meth:`updated_rows`, this *advances* the accumulator state;
        call exactly one of the two per gradient batch.
        """
        return -self._step(keys, grads)

    def state_dict(self) -> dict:
        """Per-row accumulators, for resumable training checkpoints.

        The on-disk format predates the arena and is kept: a plain
        ``key -> float32 row`` mapping, so old checkpoints load and the
        parameter-server shard merge keeps working unchanged.
        """
        if self._arena is None:
            return {"accumulators": {}}
        acc = self._arena.columns["acc"]
        return {
            "accumulators": {
                key: acc[slot].copy() for slot, key in enumerate(self._arena.keys.tolist())
            }
        }

    def load_state_dict(self, state: dict) -> None:
        self._arena = None
        accumulators = state["accumulators"]
        if accumulators:
            acc = _stack_rows(list(accumulators.values()))
            arena = self._arena_for(acc.shape[1])
            idx = arena.resolve(np.fromiter(accumulators, np.int64, len(accumulators)))
            arena.columns["acc"][idx] = acc


class RowAdam:
    """Adam over sparse embedding rows, in delta form.

    Per-key first/second moments and step counts live in host memory
    (parameter-server side), mirroring :class:`RowAdagrad`.  Each key
    keeps its *own* Adam timestep — the standard sparse-Adam choice, so
    a rarely touched row's bias correction matches how often it actually
    received gradients.

    Like Adagrad, the Adam update never reads the row value, so the
    delta form is exact.  Unlike Adagrad, interleaved delta batches for
    the *same* key do not commute beyond float rounding: the moments are
    exponential moving averages, so gradient order genuinely matters —
    the divergence is bounded by ``O(lr · |g1 − g2|)`` per overlapping
    push (tested in ``tests/test_distributed.py``).  Batches touching
    disjoint keys commute bit-exactly.
    """

    def __init__(
        self,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._arena: Optional[_RowArena] = None
        # step count -> (float32 1-beta1**t, float32 1-beta2**t); the pow is
        # computed with Python floats exactly as the per-key reference did,
        # then rounded to float32 once so the batched division stays a
        # float32 op (a float64 bias column would silently promote it).
        self._bias_cache: dict[int, tuple[np.float32, np.float32]] = {}

    def _arena_for(self, dim: int) -> _RowArena:
        if self._arena is None:
            self._arena = _RowArena(dim, ("m", "v"), counts=True)
        elif self._arena.width != dim:
            raise ValueError(
                f"optimizer state has dim {self._arena.width}, got grads of dim {dim}"
            )
        return self._arena

    def _bias_columns(self, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-key ``(1 - beta**t)`` correction columns, shaped ``(n, 1)``."""
        cache = self._bias_cache
        unique_steps, inverse = np.unique(steps, return_inverse=True)
        for t in unique_steps.tolist():
            if t not in cache:
                cache[t] = (
                    np.float32(1.0 - self.beta1 ** t),
                    np.float32(1.0 - self.beta2 ** t),
                )
        bias1 = np.array([cache[t][0] for t in unique_steps.tolist()], dtype=np.float32)
        bias2 = np.array([cache[t][1] for t in unique_steps.tolist()], dtype=np.float32)
        return bias1[inverse][:, None], bias2[inverse][:, None]

    def delta_rows(self, keys: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Row deltas (``new_row = row + delta``); advances moment state.

        One fused batched update: gather the ``(n, dim)`` moment blocks,
        advance them with elementwise float32 ops identical to the
        per-key reference, scatter back, and apply the per-key bias
        correction as float32 columns.  Duplicate keys must be
        pre-aggregated by the caller.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if not len(keys):
            return _no_rows(grads, self._arena)
        grads = np.asarray(grads, dtype=np.float32).reshape(len(keys), -1)
        arena = self._arena_for(grads.shape[1])
        idx = arena.resolve(keys)
        assert arena.counts is not None
        arena.counts[idx] += 1
        steps = arena.counts[idx]
        m = arena.columns["m"][idx]
        v = arena.columns["v"][idx]
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        v += (1.0 - self.beta2) * grads * grads
        arena.columns["m"][idx] = m
        arena.columns["v"][idx] = v
        bias1, bias2 = self._bias_columns(steps)
        return -(self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps))

    def updated_rows(
        self, keys: np.ndarray, rows: np.ndarray, grads: np.ndarray
    ) -> np.ndarray:
        """Row form of :meth:`delta_rows` (same state advance)."""
        delta = self.delta_rows(keys, grads)
        return np.asarray(rows, dtype=np.float32).reshape(delta.shape) + delta

    def state_dict(self) -> dict:
        """Per-row moments + steps, for resumable training checkpoints.

        Format kept from before the arena: ``key -> (m, v, t)`` tuples,
        so old checkpoints load unchanged.
        """
        if self._arena is None:
            return {"state": {}}
        m = self._arena.columns["m"]
        v = self._arena.columns["v"]
        assert self._arena.counts is not None
        counts = self._arena.counts
        return {
            "state": {
                key: (m[slot].copy(), v[slot].copy(), int(counts[slot]))
                for slot, key in enumerate(self._arena.keys.tolist())
            }
        }

    def load_state_dict(self, state: dict) -> None:
        self._arena = None
        saved = state["state"]
        if saved:
            m, v, steps = zip(*saved.values())
            m, v = _stack_rows(m), _stack_rows(v)
            arena = self._arena_for(m.shape[1])
            idx = arena.resolve(np.fromiter(saved, np.int64, len(saved)))
            arena.columns["m"][idx] = m
            arena.columns["v"][idx] = v
            assert arena.counts is not None
            arena.counts[idx] = steps
