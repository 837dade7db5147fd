"""Durable run checkpoints: pickled summaries + stream offsets.

The mergeable-summary layer makes durable progress cheap: a run's
entire recoverable state is each processor's summary (including a
windowed processor's buckets and RNG state — all instance-held and
picklable) plus the offset into the persisted stream file.
:class:`CheckpointStore` snapshots exactly that, under a two-file
protocol that survives being killed at any instruction:

* the **payload** — ``{tag}.{chunk_index}.pkl``, the pickled state —
  is written first, atomically (same-directory temp file +
  ``os.replace``);
* the **manifest** — ``{tag}.manifest.json`` — is then atomically
  replaced to point at the new payload, carrying its SHA-256 digest,
  the stream offset, and a format version.

Because the manifest only ever references a payload that is already
durable, and payload filenames are unique per chunk index, every crash
window leaves either the new checkpoint or the previous one loadable —
never a torn hybrid.  Superseded payloads are unlinked only after the
manifest swap.  :meth:`CheckpointStore.load` verifies the digest and
version and raises :class:`CheckpointError` on any inconsistency: a
damaged checkpoint is rejected, not half-loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bumped whenever the manifest/payload layout changes incompatibly.
#: Version 2: Algorithm 1 runs pickle as slot and witness columns.
#: Version 3: fast ℓ₀ banks pickle as a seed word and an optional
#: generator (``FastL0Bank``), not as a mode-tagged ``L0SamplerBank``.
CHECKPOINT_FORMAT_VERSION = 3

#: Default number of source chunks between snapshots.
DEFAULT_CHECKPOINT_EVERY = 64

_TAG_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")

_MANIFEST_KEYS = (
    "format_version", "tag", "chunk_index", "position", "complete",
    "payload", "sha256",
)


def checkpoint_interval(
    checkpoint_dir: Optional[Union[str, Path]], checkpoint_every: Optional[int]
) -> Optional[int]:
    """A runner's validated snapshot interval in chunks: ``None``
    without a directory, :data:`DEFAULT_CHECKPOINT_EVERY` if unset."""
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        return checkpoint_every
    return None if checkpoint_dir is None else DEFAULT_CHECKPOINT_EVERY


class CheckpointError(RuntimeError):
    """A checkpoint is missing, torn, or from an incompatible format."""


@dataclass(frozen=True)
class Checkpoint:
    """One loaded snapshot.

    Attributes:
        tag: the snapshot series this belongs to (e.g. ``"shard-2"``).
        chunk_index: chunks fully absorbed when it was taken.
        position: stream updates fully absorbed (the resume offset).
        complete: True for the final snapshot of a finished run.
        state: the unpickled payload (processor summaries etc.).
        meta: caller-supplied JSON metadata from the manifest.
    """

    tag: str
    chunk_index: int
    position: int
    complete: bool
    state: Any
    meta: Dict[str, Any] = field(default_factory=dict)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Same-directory temp file + ``os.replace``; fsynced so the bytes
    are durable before the name is."""
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


class CheckpointStore:
    """Atomic, versioned snapshots keyed by tag in one directory.

    Each tag is an independent series (a sharded run uses ``"run"``
    for the job manifest plus ``"shard-0"`` .. ``"shard-W-1"``); saving
    a tag supersedes its previous snapshot.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def _check_tag(self, tag: str) -> None:
        if not _TAG_PATTERN.match(tag):
            raise ValueError(
                f"checkpoint tag must match {_TAG_PATTERN.pattern}, "
                f"got {tag!r}"
            )

    def _manifest_path(self, tag: str) -> Path:
        return self.directory / f"{tag}.manifest.json"

    def _payload_name(self, tag: str, chunk_index: int) -> str:
        return f"{tag}.{chunk_index:012d}.pkl"

    # ------------------------------------------------------------------

    def save(
        self,
        tag: str,
        state: Any,
        *,
        chunk_index: int,
        position: int,
        complete: bool = False,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Snapshot ``state`` at the given stream offset; returns the
        manifest path.  Payload first, manifest second — see the module
        docstring for why that order is crash-safe."""
        self._check_tag(tag)
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        payload_name = self._payload_name(tag, chunk_index)
        _atomic_write_bytes(self.directory / payload_name, payload)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "tag": tag,
            "chunk_index": int(chunk_index),
            "position": int(position),
            "complete": bool(complete),
            "payload": payload_name,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "meta": dict(meta) if meta else {},
        }
        manifest_path = self._manifest_path(tag)
        _atomic_write_bytes(
            manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
        )
        for old in self.directory.glob(f"{tag}.*.pkl"):
            if old.name != payload_name:
                with suppress(OSError):
                    old.unlink()
        return manifest_path

    # ------------------------------------------------------------------

    def has(self, tag: str) -> bool:
        """Whether a manifest for ``tag`` exists (it may still be torn)."""
        self._check_tag(tag)
        return self._manifest_path(tag).exists()

    def tags(self) -> List[str]:
        return sorted(
            path.name[: -len(".manifest.json")]
            for path in self.directory.glob("*.manifest.json")
        )

    def load(self, tag: str) -> Checkpoint:
        """Load and verify the latest snapshot for ``tag``.

        Raises:
            CheckpointError: no manifest, unparsable/incomplete
                manifest, unsupported format version, missing payload,
                or payload digest mismatch.
        """
        self._check_tag(tag)
        manifest_path = self._manifest_path(tag)
        try:
            text = manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint manifest for tag {tag!r} in {self.directory}"
            ) from None
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint manifest {manifest_path}: {error}"
            ) from error
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"torn or corrupt checkpoint manifest {manifest_path}: {error}"
            ) from None
        if not isinstance(data, dict) or any(
            key not in data for key in _MANIFEST_KEYS
        ):
            raise CheckpointError(
                f"torn or corrupt checkpoint manifest {manifest_path}: "
                f"missing required fields"
            )
        if data["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {manifest_path} has format version "
                f"{data['format_version']!r}; this build reads version "
                f"{CHECKPOINT_FORMAT_VERSION}"
            )
        payload_path = self.directory / str(data["payload"])
        try:
            payload = payload_path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                f"checkpoint payload {payload_path} unreadable: {error}"
            ) from None
        digest = hashlib.sha256(payload).hexdigest()
        if digest != data["sha256"]:
            raise CheckpointError(
                f"checkpoint payload {payload_path} digest mismatch "
                f"(torn write or corruption): {digest} != {data['sha256']}"
            )
        try:
            state = pickle.loads(payload)
        except Exception as error:
            raise CheckpointError(
                f"checkpoint payload {payload_path} failed to unpickle: "
                f"{error}"
            ) from error
        meta = data.get("meta")
        return Checkpoint(
            tag=tag,
            chunk_index=int(data["chunk_index"]),
            position=int(data["position"]),
            complete=bool(data["complete"]),
            state=state,
            meta=dict(meta) if isinstance(meta, dict) else {},
        )

    def try_load(self, tag: str) -> Optional[Checkpoint]:
        """Like :meth:`load`, but None when no manifest exists yet.

        A *present but damaged* checkpoint still raises — silently
        restarting from zero would mask corruption.
        """
        if not self.has(tag):
            return None
        return self.load(tag)
