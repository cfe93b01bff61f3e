"""Physical TE and SE instances.

A *spec* (``TaskElementSpec``/``StateElementSpec``) is logical; at
deployment the runtime materialises it into one or more instances
(``tˆi,j`` / ``sˆi,j`` in the paper's notation, §3.1-3.2). Instances own
the per-stream bookkeeping that failure recovery relies on: consumer-side
``last_seen`` timestamps for duplicate filtering and producer-side output
buffers for replay (§5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.elements import StateElementSpec, TaskElementSpec
from repro.runtime.envelope import ChannelId, Envelope
from repro.state.base import StateElement

#: Consumer-side stream key: where an item came from, ignoring our own
#: instance index (which may change across recoveries).
StreamKey = tuple[int, str, int]  # (edge_index, src_te, src_instance)


def stream_key(channel: ChannelId) -> StreamKey:
    return (channel.edge_index, channel.src_te, channel.src_instance)


@dataclass
class GatherState:
    """Accumulates responses for one global-access request (§3.2).

    With a certified-foldable merge (``RuntimeConfig(optimize=True)``)
    the barrier folds each replica value into ``accumulator`` as it
    arrives instead of buffering it in ``payloads`` — the merge then
    completes out-of-order with respect to replica delivery, touching
    each value exactly once.
    """

    expected: int
    payloads: list[Any] = field(default_factory=list)
    received: int = 0
    #: Eager-fold accumulator (only used when the merge is foldable).
    accumulator: Any = None
    #: Whether at least one replica value was folded into it.
    folded: bool = False

    @property
    def complete(self) -> bool:
        return self.received >= self.expected


class SEInstance:
    """One physical instance of a state element (a partition or replica)."""

    def __init__(self, spec: StateElementSpec, index: int,
                 element: StateElement | None = None) -> None:
        self.spec = spec
        self.index = index
        self.element = element if element is not None else spec.factory()
        self.node_id: int | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def key(self) -> tuple[str, int]:
        return (self.spec.name, self.index)

    def __repr__(self) -> str:
        return f"SEInstance({self.spec.name}[{self.index}] @node{self.node_id})"


class TEInstance:
    """One physical instance of a task element.

    Holds the instance-local runtime state: the inbox of in-flight
    envelopes, consumer-side ``last_seen`` per input stream, producer-side
    output buffers and sequence counters per channel, and (for merge TEs)
    the gather barriers keyed by request id.
    """

    def __init__(self, spec: TaskElementSpec, index: int,
                 se_instance: SEInstance | None = None) -> None:
        self.spec = spec
        self.index = index
        self.se_instance = se_instance
        self.node_id: int | None = None
        self.inbox: deque[Envelope] = deque()
        #: Highest timestamp *processed* per input stream (not delivered:
        #: advancing on delivery would let a crash lose acknowledged items).
        self.last_seen: dict[StreamKey, int] = {}
        #: Producer-side sequence counter per outgoing *edge* (not per
        #: channel): timestamps must be unique within a stream so that a
        #: destination added later (scale-out, m-to-n recovery) never
        #: sees a timestamp that aliases an already-processed one. Each
        #: destination observes an increasing subsequence.
        self.out_seq: dict[int, int] = {}
        #: Producer-side retained envelopes per outgoing channel, replayed
        #: after a downstream failure and trimmed by downstream checkpoints.
        self.output_buffers: dict[ChannelId, deque[Envelope]] = {}
        #: Merge-TE barrier state per in-flight request id.
        self.pending_gathers: dict[int, GatherState] = {}
        self.processed_count = 0
        #: Chaos flag: when set, the next item this instance processes
        #: raises out of the task code (crash-mid-item fault injection).
        #: Deliberately not part of checkpointed bookkeeping.
        self.crash_next = False

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def key(self) -> tuple[str, int]:
        return (self.spec.name, self.index)

    # -- consumer side ---------------------------------------------------

    def is_duplicate(self, envelope: Envelope) -> bool:
        """Whether this envelope was already processed (replay dedup)."""
        return envelope.ts <= self.last_seen.get(stream_key(envelope.channel), 0)

    def mark_processed(self, envelope: Envelope) -> None:
        key = stream_key(envelope.channel)
        if envelope.ts > self.last_seen.get(key, 0):
            self.last_seen[key] = envelope.ts

    # -- producer side ---------------------------------------------------

    def next_seq(self, channel: ChannelId) -> int:
        seq = self.out_seq.get(channel.edge_index, 0) + 1
        self.out_seq[channel.edge_index] = seq
        return seq

    def record_output(self, envelope: Envelope) -> None:
        self.output_buffers.setdefault(envelope.channel, deque()).append(
            envelope
        )

    def trim_output_buffer(self, channel: ChannelId, up_to_ts: int) -> int:
        """Drop buffered envelopes with ``ts <= up_to_ts`` (§5 trimming).

        Returns the number of envelopes dropped.
        """
        buffer = self.output_buffers.get(channel)
        if not buffer:
            return 0
        dropped = 0
        while buffer and buffer[0].ts <= up_to_ts:
            buffer.popleft()
            dropped += 1
        return dropped

    def buffered_output_count(self) -> int:
        return sum(len(b) for b in self.output_buffers.values())

    def __repr__(self) -> str:
        return (
            f"TEInstance({self.spec.name}[{self.index}] @node{self.node_id}"
            f" inbox={len(self.inbox)})"
        )
