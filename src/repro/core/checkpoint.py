"""Periodic checkpointing to cloud-native storage (paper §II-B).

"By periodically checkpointing to cloud-native storage, MLKV can leverage
the high performance of local NVMe SSDs while ensuring data persistence."
The cloud object store is simulated as a directory plus a bandwidth/
latency charge far below the local SSD's, so checkpoint cost is visible
in the energy/time accounting without requiring a network.

Bucket layout (content-addressed, like every real incremental uploader)::

    bucket/
      objects/<sha256>              # deduplicated file contents
      manifests/epoch_000001.json   # epoch -> {relpath: {sha256, bytes}}

Each :meth:`CloudCheckpointer.checkpoint` produces one *epoch*: the store
writes a crash-consistent local image, the uploader diffs its file set
against the objects already in the bucket, copies **only new or changed
files**, and commits the epoch by writing its manifest (atomically) last.
Files that disappeared since the previous epoch are tombstoned in the
manifest's ``deleted`` list — restore materializes exactly the epoch's
file set, never resurrecting them.  A crash mid-upload leaves orphan
objects but no manifest, so the previous epoch remains the restorable
truth.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Optional

from repro.errors import CheckpointError, checkpoint_fields
from repro.errors import load_checkpoint_json, write_checkpoint_json
from repro.kv.api import KVStore, store_class


def _sha256_file(path: str) -> tuple[str, int]:
    """Content digest and size of ``path`` (streamed, not slurped)."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while True:
            chunk = f.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


class CloudCheckpointer:
    """Incremental checkpoint uploads (and restores) for any durable store.

    Works over every store implementing the
    :class:`~repro.kv.api.CheckpointManager` contract — FASTER, MLKV,
    LSM, B+tree, replica groups and coordinated
    :class:`~repro.kv.sharded.ShardedKVStore` images alike.

    Parameters
    ----------
    store:
        The store to checkpoint; ``None`` builds a restore-only client
        (a serving node downloading epochs someone else uploaded).
    cloud_dir:
        Destination directory standing in for the object store.
    upload_bandwidth:
        Sustained transfer rate in bytes/second (default 200 MB/s — a
        typical same-region S3 multipart rate); also used for restores.
    request_latency:
        Per-object round-trip latency.
    every_n_steps:
        Checkpoint cadence used by :meth:`maybe_checkpoint`.
    """

    def __init__(
        self,
        store: Optional[KVStore],
        cloud_dir: str,
        upload_bandwidth: float = 200e6,
        request_latency: float = 30e-3,
        every_n_steps: int = 1000,
    ) -> None:
        if upload_bandwidth <= 0:
            raise CheckpointError("upload_bandwidth must be positive")
        self.store = store
        self.cloud_dir = cloud_dir
        self.upload_bandwidth = upload_bandwidth
        self.request_latency = request_latency
        self.every_n_steps = max(1, every_n_steps)
        self.uploads = 0
        self.epoch = 0
        self.objects_uploaded = 0
        self.bytes_uploaded = 0
        self.objects_skipped = 0
        self.bytes_skipped = 0
        self._objects_dir = os.path.join(cloud_dir, "objects")
        self._manifests_dir = os.path.join(cloud_dir, "manifests")
        os.makedirs(self._objects_dir, exist_ok=True)
        os.makedirs(self._manifests_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # upload path
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, step: int) -> bool:
        """Checkpoint when ``step`` hits the cadence; returns whether it did."""
        if step == 0 or step % self.every_n_steps:
            return False
        self.checkpoint()
        return True

    def checkpoint(self) -> Optional[int]:
        """Local store checkpoint, then an incremental epoch upload.

        Returns the committed epoch number.  Only files whose content is
        not already in the bucket are copied and charged; unchanged files
        cost nothing beyond the digest.
        """
        self.store.checkpoint()
        root = self.store.checkpoint_root()
        uploaded_bytes = 0
        uploaded_objects = 0
        files: dict[str, dict] = {}
        for rel in self.store.checkpoint_files():
            digest, size = _sha256_file(os.path.join(root, rel))
            files[rel] = {"sha256": digest, "bytes": size}
            if os.path.exists(os.path.join(self._objects_dir, digest)):
                self.objects_skipped += 1
                self.bytes_skipped += size
                continue
            self._upload_object(os.path.join(root, rel), digest)
            uploaded_objects += 1
            uploaded_bytes += size
        previous = self._load_manifest(self.latest_epoch())
        deleted = sorted(
            set(previous["files"]) - set(files)
        ) if previous is not None else []
        epoch = (previous["epoch"] if previous is not None else 0) + 1
        manifest = {
            "epoch": epoch,
            "files": files,
            "deleted": deleted,
            "store_type": f"{type(self.store).__module__}."
                          f"{type(self.store).__qualname__}",
        }
        manifest_path = self._manifest_path(epoch)
        write_checkpoint_json(manifest_path, manifest)
        clock = self.store.clock
        if clock is not None:
            # Uploads overlap training; only device busy time is recorded.
            # The manifest counts as one more (tiny) object.
            clock.charge_background(
                (uploaded_objects + 1) * self.request_latency
                + (uploaded_bytes + os.path.getsize(manifest_path))
                / self.upload_bandwidth,
                component="network",
            )
        self.uploads += 1
        self.epoch = epoch
        self.objects_uploaded += uploaded_objects
        self.bytes_uploaded += uploaded_bytes
        return epoch

    def _upload_object(self, source: str, digest: str) -> None:
        """Copy one file into the content-addressed object area.

        Staged through a temporary name so a crash mid-copy never leaves
        a truncated object under its final digest.
        """
        target = os.path.join(self._objects_dir, digest)
        tmp = target + ".tmp"
        shutil.copy2(source, tmp)
        os.replace(tmp, target)

    # ------------------------------------------------------------------
    # restore path
    # ------------------------------------------------------------------
    def list_epochs(self) -> list[int]:
        """Committed epoch numbers available in the bucket, ascending."""
        epochs = []
        for name in os.listdir(self._manifests_dir):
            if name.startswith("epoch_") and name.endswith(".json"):
                epochs.append(int(name[len("epoch_"):-len(".json")]))
        return sorted(epochs)

    def latest_epoch(self) -> Optional[int]:
        """Highest committed epoch, or ``None`` for an empty bucket."""
        epochs = self.list_epochs()
        return epochs[-1] if epochs else None

    def restore_to(
        self, directory: str, epoch: Optional[int] = None, overwrite: bool = False
    ) -> int:
        """Download checkpoint ``epoch`` (default: latest) into ``directory``.

        Materializes exactly the epoch's file set — files tombstoned in
        later epochs are absent, torn uploads (objects without a
        manifest) are invisible.  To guarantee that, the target must be
        empty (or new); pass ``overwrite=True`` to wipe an existing
        directory first, so leftovers from another epoch (a stale
        sidecar, an old trainer state) cannot leak into the reopened
        store.  Returns the epoch restored.
        """
        manifest = self._require_manifest(epoch)
        if os.path.isdir(directory) and os.listdir(directory):
            if not overwrite:
                raise CheckpointError(
                    f"restore target {directory} is not empty; pass "
                    "overwrite=True to replace its contents with the epoch"
                )
            shutil.rmtree(directory)
        os.makedirs(directory, exist_ok=True)
        downloaded_bytes = 0
        for rel, entry in manifest["files"].items():
            source = os.path.join(self._objects_dir, entry["sha256"])
            if not os.path.exists(source):
                raise CheckpointError(
                    f"epoch {manifest['epoch']} references missing object "
                    f"{entry['sha256']} for {rel}"
                )
            target = os.path.join(directory, rel)
            os.makedirs(os.path.dirname(target) or directory, exist_ok=True)
            shutil.copy2(source, target)
            downloaded_bytes += entry["bytes"]
        clock = None if self.store is None else self.store.clock
        if clock is not None:
            # Restore is downtime: the download blocks recovery.
            clock.advance(
                len(manifest["files"]) * self.request_latency
                + downloaded_bytes / self.upload_bandwidth,
                component="network",
            )
        return manifest["epoch"]

    def restore(
        self,
        directory: str,
        epoch: Optional[int] = None,
        store_cls: Optional[type] = None,
        overwrite: bool = False,
        read_only: bool = False,
        **kwargs,
    ) -> KVStore:
        """Download an epoch and reopen the store from it.

        The store class recorded in the manifest is used unless
        ``store_cls`` overrides it; ``kwargs`` are forwarded to its
        ``restore`` classmethod (e.g. ``ssd=``, ``staleness_bound=``, or a
        sharded ``factory=``).  ``read_only=True`` freezes the reopened
        store — the serving tier's guarantee that a restored epoch is
        never mutated.  Returns the reopened store.

        A read-side client (a serving node that never uploads) may build
        the checkpointer with ``store=None``: every restore method works
        without a source store.
        """
        manifest = self._require_manifest(epoch)
        self.restore_to(directory, epoch=manifest["epoch"], overwrite=overwrite)
        if store_cls is None:
            store_cls = store_class(manifest["store_type"])
        store = store_cls.restore(directory, **kwargs)
        if read_only:
            store.freeze()
        return store

    # ------------------------------------------------------------------
    def _manifest_path(self, epoch: int) -> str:
        return os.path.join(self._manifests_dir, f"epoch_{epoch:06d}.json")

    def _load_manifest(self, epoch: Optional[int]) -> Optional[dict]:
        """Epoch ``epoch``'s manifest, ``None`` when it was never committed;
        a torn or malformed one is a :class:`CheckpointError`."""
        if epoch is None:
            return None
        path = self._manifest_path(epoch)
        if not os.path.exists(path):
            return None
        manifest = load_checkpoint_json(path)
        with checkpoint_fields(path):
            return {
                "epoch": int(manifest["epoch"]),
                "files": {
                    rel: {"sha256": str(entry["sha256"]), "bytes": int(entry["bytes"])}
                    for rel, entry in manifest["files"].items()
                },
                "deleted": list(manifest["deleted"]),
                "store_type": str(manifest["store_type"]),
            }

    def _require_manifest(self, epoch: Optional[int]) -> dict:
        manifest = self._load_manifest(
            epoch if epoch is not None else self.latest_epoch()
        )
        if manifest is None:
            raise CheckpointError(
                f"no committed checkpoint epoch "
                f"{'' if epoch is None else f'{epoch} '}in {self.cloud_dir}"
            )
        return manifest
