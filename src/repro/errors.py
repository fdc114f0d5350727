"""Exception hierarchy shared across the repro package."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class StorageError(ReproError):
    """A key-value store failed an operation (I/O, corruption, closed)."""


class StalenessViolation(ReproError):
    """A Get could not be admitted within the configured staleness bound."""


class CheckpointError(StorageError):
    """Checkpoint or recovery failed."""


def load_checkpoint_json(path: str) -> dict:
    """A JSON checkpoint file (engine sidecar or meta, router or epoch
    manifest) as a ``dict``; torn — cut short, not an object — it is a
    :class:`CheckpointError`."""
    try:
        with open(path) as f:
            loaded = json.load(f)
    except ValueError as exc:  # JSONDecodeError, bad UTF-8
        raise CheckpointError(f"checkpoint file {path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise CheckpointError(f"checkpoint file {path} is not a JSON object")
    return loaded


def write_checkpoint_json(path: str, obj: dict) -> None:
    """Write ``obj`` as the JSON file :func:`load_checkpoint_json` reads,
    through a temporary file and ``os.replace``: a crash leaves the old file
    or the new one, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


@contextmanager
def checkpoint_fields(path: str) -> Iterator[None]:
    """Report a missing or mis-shaped field of such a file as a
    :class:`CheckpointError`, not the lookup error it causes.  Wrap only the
    code that picks fields apart, never code that opens a child store."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"checkpoint file {path} is malformed: {exc!r}") from exc


class ConfigError(ReproError):
    """Invalid configuration supplied by the caller."""


class ServingError(ReproError):
    """The online serving tier could not satisfy a request or bootstrap."""


class SanitizerError(ReproError):
    """A runtime invariant check (``repro.analysis.sanitize``) failed.

    Carries the sanitizer's ring-buffer event trace — the most recent
    clock/routing/ledger events leading up to the violation — so the
    report localizes the offending transition, not just its symptom.
    """

    def __init__(self, message: str, trace: list | None = None) -> None:
        self.trace = list(trace) if trace else []
        if self.trace:
            tail = "\n".join(f"  {event}" for event in self.trace[-8:])
            message = f"{message}\nmost recent sanitizer events:\n{tail}"
        super().__init__(message)
