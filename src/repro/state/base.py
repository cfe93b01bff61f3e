"""Base protocol for state elements (SEs).

A state element encapsulates the mutable state of an SDG computation
(§3.1). Every predefined SE routes its mutations through a small
key/value core provided here, which gives all of them, uniformly:

* the **dirty-state checkpoint protocol** of §5 — ``begin_checkpoint``
  freezes the main structure, subsequent writes land in a
  :class:`~repro.state.dirty.DirtyOverlay`, a consistent snapshot is read
  with :meth:`snapshot_items`, and ``consolidate`` folds the overlay back;
* **dynamic partitioning** — ``extract_partition`` / ``merge_partitions``
  split and re-join SE instances for partitioned state and for restoring a
  failed instance onto *n* new nodes;
* **chunked serialisation** — ``to_chunks`` / ``load_chunk`` implement the
  m-to-n backup pattern of Fig. 4, and ``to_delta_chunks`` /
  ``load_delta_chunk`` its incremental variant: only the keys mutated
  since the last checkpoint (read from the backend's journal) are
  emitted, as changed values plus deletion tombstones;
* **size accounting** — a byte estimate used by the allocation logic and
  by the cluster simulator's checkpoint cost model.

Since the storage-subsystem refactor the *physical* representation lives
in a pluggable :class:`~repro.state.backend.StateBackend`; the SE class
itself is a pure domain API. Subclasses normally pick their store by
overriding :meth:`StateElement._make_backend` and never touch the
``_store_*`` hooks; overriding the hooks directly remains supported for
legacy custom SEs, at the cost of delta-checkpoint support (see
:attr:`StateElement.delta_capable`).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.errors import StateError
from repro.state.backend import DictBackend, MutationJournal, StateBackend
from repro.state.dirty import DirtyOverlay, TOMBSTONE

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_MISSING = object()


@dataclass(frozen=True)
class StateChunk:
    """One fragment of a serialised SE checkpoint.

    Checkpoints are hash-partitioned into chunks so that they can be
    streamed to ``total`` backup nodes in parallel and later restored to
    any number of recovering instances (Fig. 4, steps B1-B3 / R1-R2).
    """

    index: int
    total: int
    items: tuple[tuple[Hashable, Any], ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def size_bytes(self, bytes_per_entry: int) -> int:
        """Modelled size of this chunk on disk or on the wire."""
        return len(self.items) * bytes_per_entry

    def entry_count(self) -> int:
        """Logical entries carried by this chunk (items only)."""
        return len(self.items)


@dataclass(frozen=True)
class DeltaChunk(StateChunk):
    """One fragment of an *incremental* SE checkpoint.

    Carries only the keys mutated since the previous checkpoint in the
    chain: ``items`` holds changed/new values, ``deleted`` holds
    tombstones. ``(version, base_version)`` records the lineage — this
    delta applies on top of checkpoint ``base_version`` and produces
    the state of checkpoint ``version``. The restore path folds a full
    base plus its ordered deltas; a broken or corrupt link surfaces as
    a :class:`~repro.errors.BackupIntegrityError`, never a silently
    truncated restore.
    """

    version: int = 0
    base_version: int = 0
    deleted: tuple[Hashable, ...] = ()

    def size_bytes(self, bytes_per_entry: int) -> int:
        """Tombstones travel too: a key costs an entry either way."""
        return (len(self.items) + len(self.deleted)) * bytes_per_entry

    def entry_count(self) -> int:
        return len(self.items) + len(self.deleted)


class StateElement(abc.ABC):
    """Abstract base class for all SE data structures.

    Subclasses provide a physical store via :meth:`_make_backend` and
    expose a domain API (``get_row``, ``multiply``, ``put`` ...) built
    on the protected ``_get``/``_set``/``_delete`` helpers, which
    transparently apply the dirty-state redirection.
    """

    #: Modelled cost of one stored entry; used for state-size accounting.
    BYTES_PER_ENTRY = 64

    def __init__(self, backend: StateBackend | None = None) -> None:
        self._backend = backend if backend is not None \
            else self._make_backend()
        self._dirty: DirtyOverlay | None = None
        self._update_count = 0

    # ------------------------------------------------------------------
    # Physical storage
    # ------------------------------------------------------------------

    def _make_backend(self) -> StateBackend:
        """Build this SE's physical store; subclasses override to pick
        a different layout (dense list, grid, indexed sparse map...)."""
        return DictBackend()

    @property
    def backend(self) -> StateBackend:
        """The physical store behind this SE instance."""
        return self._backend

    # The ``_store_*`` hooks delegate to the backend. Legacy custom SEs
    # may still override them wholesale; doing so bypasses the mutation
    # journal, which :attr:`delta_capable` detects.

    def _store_get(self, key: Hashable) -> Any:
        """Return the value for ``key`` from the main structure.

        Raises :class:`KeyError` when absent.
        """
        return self._backend.get(key)

    def _store_set(self, key: Hashable, value: Any) -> None:
        """Write ``value`` for ``key`` into the main structure."""
        self._backend.set(key, value)

    def _store_delete(self, key: Hashable) -> None:
        """Remove ``key`` from the main structure (KeyError if absent)."""
        self._backend.delete(key)

    def _store_contains(self, key: Hashable) -> bool:
        """Membership against the main structure only."""
        return self._backend.contains(key)

    def _store_items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate over all ``(key, value)`` pairs of the main structure."""
        return self._backend.items()

    def _store_clear(self) -> None:
        """Empty the main structure."""
        self._backend.clear()

    @abc.abstractmethod
    def spawn_empty(self) -> "StateElement":
        """Return a new, empty SE with the same shape/configuration.

        Used when creating additional partial instances at runtime (§3.3)
        and when restoring a checkpoint onto fresh nodes.
        """

    # ------------------------------------------------------------------
    # Dirty-state aware access helpers
    # ------------------------------------------------------------------

    @property
    def checkpoint_active(self) -> bool:
        """Whether a checkpoint is in progress (writes go to dirty state)."""
        return self._dirty is not None

    @property
    def update_count(self) -> int:
        """Total number of mutations applied to this SE instance."""
        return self._update_count

    @property
    def dirty_size(self) -> int:
        """Number of entries currently buffered in the dirty overlay."""
        return 0 if self._dirty is None else len(self._dirty)

    def _get(self, key: Hashable, default: Any = _MISSING) -> Any:
        """Read ``key``, consulting the dirty overlay first (§5 step 2)."""
        if self._dirty is not None and key in self._dirty:
            value = self._dirty.get(key)
            if value is TOMBSTONE:
                if default is _MISSING:
                    raise KeyError(key)
                return default
            return value
        try:
            return self._store_get(key)
        except KeyError:
            if default is _MISSING:
                raise
            return default

    def _set(self, key: Hashable, value: Any) -> None:
        """Write ``key``; redirected to the dirty overlay mid-checkpoint."""
        self._update_count += 1
        if self._dirty is not None:
            self._dirty.set(key, value)
        else:
            self._store_set(key, value)

    def _delete(self, key: Hashable) -> None:
        """Delete ``key``; recorded as a tombstone mid-checkpoint."""
        self._update_count += 1
        if self._dirty is not None:
            if key not in self._dirty and not self._store_contains(key):
                raise KeyError(key)
            if key in self._dirty and self._dirty.get(key) is TOMBSTONE:
                raise KeyError(key)
            self._dirty.delete(key)
        else:
            self._store_delete(key)

    def _contains(self, key: Hashable) -> bool:
        if self._dirty is not None and key in self._dirty:
            return self._dirty.get(key) is not TOMBSTONE
        return self._store_contains(key)

    def _iter_items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate the *logical* contents: main structure + overlay."""
        if self._dirty is None:
            yield from self._store_items()
            return
        dirty = self._dirty
        seen = set()
        for key, value in self._store_items():
            seen.add(key)
            if key in dirty:
                overlaid = dirty.get(key)
                if overlaid is not TOMBSTONE:
                    yield key, overlaid
            else:
                yield key, value
        for key, value in dirty.items():
            if key not in seen and value is not TOMBSTONE:
                yield key, value

    # ------------------------------------------------------------------
    # Checkpoint protocol (§5)
    # ------------------------------------------------------------------

    def begin_checkpoint(self) -> None:
        """Flag the SE as dirty: freeze the main structure (step 1).

        After this call, the main structure is immutable and
        :meth:`snapshot_items` may be read concurrently with processing.
        """
        if self._dirty is not None:
            raise StateError("checkpoint already in progress for this SE")
        self._dirty = DirtyOverlay()

    def snapshot_items(self) -> list[tuple[Hashable, Any]]:
        """Materialise the consistent (pre-checkpoint) contents (step 3).

        Only meaningful while a checkpoint is active; calling it otherwise
        returns the current contents, which is still a consistent view.
        """
        return list(self._store_items())

    def consolidate(self) -> int:
        """Fold the dirty overlay back into the main structure (step 5).

        This is the only phase that requires exclusive access to the SE,
        so its cost is proportional to the number of updates made during
        the checkpoint, not to the state size. Returns the number of
        overlay entries applied.

        Consolidation routes through the journalled ``_store_*`` hooks,
        so every overlay entry lands in the mutation journal — i.e. it
        belongs to the *next* checkpoint's delta, exactly as the paper's
        protocol requires.
        """
        if self._dirty is None:
            raise StateError("no checkpoint in progress to consolidate")
        applied = 0
        for key, value in self._dirty.items():
            if value is TOMBSTONE:
                try:
                    self._store_delete(key)
                except KeyError:
                    pass
            else:
                self._store_set(key, value)
            applied += 1
        self._dirty = None
        return applied

    def abort_checkpoint(self) -> None:
        """Consolidate-and-discard used when a checkpoint fails midway."""
        if self._dirty is None:
            return
        self.consolidate()

    # ------------------------------------------------------------------
    # Mutation journal (incremental checkpoint support)
    # ------------------------------------------------------------------

    @property
    def delta_capable(self) -> bool:
        """Whether this SE's mutations are journalled by its backend.

        True for every SE whose ``_store_set``/``_store_delete``/
        ``_store_clear`` hooks are the backend-delegating base versions.
        A legacy custom SE that overrides the hooks against its own
        structure bypasses the journal; the checkpoint manager then
        falls back to full checkpoints for nodes hosting it rather than
        emit silently empty deltas.
        """
        cls = type(self)
        return (
            cls._store_set is StateElement._store_set
            and cls._store_delete is StateElement._store_delete
            and cls._store_clear is StateElement._store_clear
        )

    def journal(self) -> MutationJournal:
        """The keys mutated since the last :meth:`mark_clean`."""
        return self._backend.journal()

    def mark_clean(self) -> None:
        """Reset the mutation journal (a checkpoint has persisted)."""
        self._backend.mark_clean()

    def begin_rmw_batch(self) -> None:
        """Open a journal write batch (``BATCHABLE_RMW`` fast path).

        The engine brackets a drained run of certified non-escaping
        read-modify-writes with ``begin_rmw_batch``/``end_rmw_batch``:
        storage writes stay immediate (reads see every update), while
        per-key journal bookkeeping is deferred to one bulk fold at
        batch end. Safe only because the certificate proves the batch
        cannot observe its own journal mid-run — and the backend
        flushes pending ops on any journal read regardless.
        """
        self._backend.begin_batch()

    def end_rmw_batch(self) -> None:
        """Close the write batch, folding deferred ops into the journal."""
        self._backend.end_batch()

    # ------------------------------------------------------------------
    # Partitioning and merging (§3.2)
    # ------------------------------------------------------------------

    def partition_key(self, key: Hashable) -> Hashable:
        """Map a storage key to the key used for partitioning decisions.

        A matrix partitioned by row maps ``(row, col)`` to ``row``; the
        default is the identity, which suits vectors and maps.
        """
        return key

    def extract_partition(self, partitioner: "PartitionerProtocol",
                          index: int) -> "StateElement":
        """Return a new SE holding the subset owned by partition ``index``.

        The receiver is left untouched; callers re-scaling a live SE
        should build all partitions and then discard the original.
        """
        if self.checkpoint_active:
            raise StateError("cannot repartition while a checkpoint is active")
        part = self.spawn_empty()
        for key, value in self._store_items():
            if partitioner.partition(self.partition_key(key)) == index:
                part._store_set(key, value)
        return part

    @classmethod
    def merge_partitions(
        cls, parts: Sequence["StateElement"]
    ) -> "StateElement":
        """Union disjoint partitions back into a single SE instance.

        Used by recovery (reconstituting a checkpoint restored as chunks)
        and by scale-in. Partitions must be disjoint: a key present in
        more than one partition raises :class:`~repro.errors.StateError`
        — overlapping partitions mean routing or extraction went wrong,
        and silently letting a later partition win would corrupt state.
        """
        if not parts:
            raise StateError("merge_partitions requires at least one part")
        merged = parts[0].spawn_empty()
        seen: set[Hashable] = set()
        for part_index, part in enumerate(parts):
            for key, value in part._store_items():
                if key in seen:
                    raise StateError(
                        f"merge_partitions: key {key!r} appears in "
                        f"multiple partitions (again in partition "
                        f"{part_index}); partitions must be disjoint"
                    )
                seen.add(key)
                merged._store_set(key, value)
        return merged

    # ------------------------------------------------------------------
    # Chunked serialisation (Fig. 4)
    # ------------------------------------------------------------------

    def chunk_meta(self) -> dict[str, Any]:
        """Extra shape information replicated into every chunk.

        Subclasses override to carry sizes (e.g. vector length) that are
        not recoverable from the items alone.
        """
        return {}

    def apply_chunk_meta(self, meta: dict[str, Any]) -> None:
        """Re-apply :meth:`chunk_meta` information during restore."""

    def to_chunks(self, m: int) -> list[StateChunk]:
        """Split a consistent snapshot into ``m`` chunks (step B1).

        Items are hash-partitioned on the storage key so that chunk sizes
        are balanced and chunk membership is deterministic.
        """
        if m < 1:
            raise StateError(f"chunk count must be >= 1, got {m}")
        buckets: list[list[tuple[Hashable, Any]]] = [[] for _ in range(m)]
        for key, value in self.snapshot_items():
            buckets[stable_hash(key) % m].append((key, value))
        meta = self.chunk_meta()
        return [
            StateChunk(index=i, total=m, items=tuple(bucket), meta=dict(meta))
            for i, bucket in enumerate(buckets)
        ]

    def to_delta_chunks(self, m: int, version: int,
                        base_version: int) -> list[DeltaChunk]:
        """Serialise only the mutations since the last ``mark_clean``.

        The journal keys are read against the *frozen* main structure
        (mid-checkpoint writes sit in the dirty overlay and belong to
        the next delta), hash-bucketed with the same function as full
        chunks, and stamped with ``(version, base_version)`` lineage.
        The cost is O(|mutations|), independent of the state size —
        the paper's explicit-state claim (§5) applied to backup traffic.
        """
        if m < 1:
            raise StateError(f"chunk count must be >= 1, got {m}")
        if not self.delta_capable:
            raise StateError(
                f"{type(self).__name__} overrides the _store_* hooks and "
                f"bypasses the mutation journal; delta checkpoints would "
                f"be silently empty — take a full checkpoint instead"
            )
        journal = self._backend.journal()
        item_buckets: list[list[tuple[Hashable, Any]]] = \
            [[] for _ in range(m)]
        for key in journal.written:
            item_buckets[stable_hash(key) % m].append(
                (key, self._store_get(key))
            )
        deleted_buckets: list[list[Hashable]] = [[] for _ in range(m)]
        for key in journal.deleted:
            deleted_buckets[stable_hash(key) % m].append(key)
        meta = self.chunk_meta()
        return [
            DeltaChunk(
                index=i, total=m,
                items=tuple(sorted(bucket, key=lambda kv: stable_hash(kv[0]))),
                deleted=tuple(sorted(deleted_buckets[i], key=stable_hash)),
                meta=dict(meta), version=version, base_version=base_version,
            )
            for i, bucket in enumerate(item_buckets)
        ]

    def load_chunk(self, chunk: StateChunk) -> None:
        """Load one chunk's items into this (recovering) instance (R2)."""
        self.apply_chunk_meta(chunk.meta)
        for key, value in chunk.items:
            self._store_set(key, value)

    def load_delta_chunk(self, chunk: DeltaChunk) -> None:
        """Fold one delta chunk on top of previously restored state.

        Tombstones first, then writes: a key can only appear on one
        side of a single delta, so within a chunk the order is
        immaterial, but deleting first keeps the fold idempotent when a
        caller retries a chunk.
        """
        self.apply_chunk_meta(chunk.meta)
        for key in chunk.deleted:
            try:
                self._store_delete(key)
            except KeyError:
                pass  # deleted key never made it into the base: fine
        for key, value in chunk.items:
            self._store_set(key, value)

    @classmethod
    def from_chunks(
        cls, template: "StateElement", chunks: Iterable[StateChunk]
    ) -> "StateElement":
        """Reconstitute an SE from all of its chunks."""
        se = template.spawn_empty()
        for chunk in chunks:
            se.load_chunk(chunk)
        return se

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of logical entries currently stored (incl. overlay)."""
        return sum(1 for _ in self._iter_items())

    def estimated_size_bytes(self) -> int:
        """Modelled in-memory footprint, linear in the entry count."""
        return self.entry_count() * self.BYTES_PER_ENTRY


class PartitionerProtocol:
    """Structural protocol: anything with ``partition(key) -> int``."""

    n_partitions: int

    def partition(self, key: Hashable) -> int:  # pragma: no cover
        raise NotImplementedError


def stable_hash(key: Hashable) -> int:
    """A hash that is stable across interpreter runs.

    Python's built-in ``hash`` is randomised per process for strings,
    which would make chunk membership — and therefore recovery tests and
    the deterministic-execution requirement of §4.1 — non-reproducible.
    Integers hash to themselves; other keys hash via CRC-32 of their
    ``repr``.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key if key >= 0 else -key * 2 + 1
    if isinstance(key, tuple):
        result = 1469598103
        for part in key:
            result = (result * 1099511628211 + stable_hash(part)) % (2**61 - 1)
        return result
    return zlib.crc32(repr(key).encode("utf-8"))
