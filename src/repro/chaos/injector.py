"""The fault injector: executes a fault plan against a live runtime.

The :class:`FaultInjector` rides the engine's step hook, the same
mechanism that drives checkpoint scheduling and failure detection, so
faults land at exact logical steps and every run of (workload, plan,
seed) is bit-for-bit reproducible.

Faults are resolved at fire time: a plan says "kill the node hosting
partition 2 of ``table``", and the injector looks up whichever node
that is *now* — including replacement nodes installed by recovery.
Every action (or deliberate skip) is published to the runtime's event
bus (``runtime.events``, source ``"injector"``, kind
``"fault-injected"``); :attr:`injected` remains as a backward-
compatible view reconstructing :class:`InjectionRecord` entries from
the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.chaos.plan import (
    CorruptChunk,
    CorruptDeltaChunk,
    CrashTask,
    DropDeltaChunk,
    DropEnvelope,
    DuplicateEnvelope,
    FaultPlan,
    KillNode,
    ScaleUp,
    SlowNode,
    TargetOffline,
)
from repro.errors import ChaosError, RuntimeExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.recovery.backup import BackupStore
    from repro.runtime.engine import Runtime
    from repro.runtime.instances import TEInstance
    from repro.runtime.node import PhysicalNode

#: How many steps a refused ScaleUp waits before retrying, and how
#: often, before the injector gives up on it.
_SCALE_RETRY_AFTER = 5
_SCALE_MAX_RETRIES = 100


@dataclass(frozen=True)
class InjectionRecord:
    """One executed (or skipped) fault, as it actually landed."""

    step: int
    fault: object
    outcome: str  # fired | skipped | refused | rescheduled
    detail: str = ""


class FaultInjector:
    """Executes a :class:`~repro.chaos.plan.FaultPlan` via step hooks."""

    def __init__(self, runtime: "Runtime", plan: FaultPlan,
                 store: "BackupStore | None" = None) -> None:
        needs_store = (CorruptChunk, CorruptDeltaChunk, DropDeltaChunk,
                       TargetOffline)
        if store is None and any(isinstance(f, needs_store) for f in plan):
            raise ChaosError(
                "plan contains backup-store faults (CorruptChunk / "
                "CorruptDeltaChunk / DropDeltaChunk / TargetOffline) but "
                "no store was given to the injector"
            )
        self.runtime = runtime
        self.plan = plan
        self.store = store
        self._pending: list[tuple[int, object]] = [
            (fault.at_step, fault) for fault in plan
        ]
        self._scale_retries: dict[int, int] = {}
        self._installed = False
        self._c_armed = runtime.metrics.counter(
            "chaos_faults_armed_total",
            "faults armed at injector install, by fault type")
        self._c_fired = runtime.metrics.counter(
            "chaos_faults_fired_total",
            "faults that actually landed, by fault type")

    @property
    def injected(self) -> list[InjectionRecord]:
        """Everything the injector did, reconstructed from the event bus.

        Deprecated as a *private* log: actions are now published to
        ``runtime.events`` with source ``"injector"`` (one injector per
        runtime is the supported pattern); this property remains as a
        compatible read view.
        """
        return [
            InjectionRecord(
                step=e.step, fault=e.attrs.get("fault"),
                outcome=e.attrs.get("outcome", ""),
                detail=e.attrs.get("detail", ""),
            )
            for e in self.runtime.events.events(source="injector")
        ]

    # ------------------------------------------------------------------

    def install(self) -> "FaultInjector":
        if self._installed:
            return self
        for fault in self.plan:
            self._c_armed.labels(type=type(fault).__name__).inc()
        self.runtime.add_step_hook(self._on_step)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.runtime.remove_step_hook(self._on_step)
            self._installed = False

    @property
    def done(self) -> bool:
        """Every planned fault has fired, been skipped, or given up."""
        return not self._pending

    def pending_faults(self) -> list:
        """Faults not yet executed, in due order.

        Durable runs serialise these into the run manifest at each epoch
        commit so a resumed process re-arms exactly the faults the
        crashed incarnation still owed.
        """
        return [fault for _step, fault in
                sorted(self._pending, key=lambda pair: pair[0])]

    def fired(self, outcome: str = "fired") -> list[InjectionRecord]:
        return [r for r in self.injected if r.outcome == outcome]

    # ------------------------------------------------------------------

    def _on_step(self, runtime: "Runtime") -> None:
        now = runtime.total_steps
        due = [(step, f) for step, f in self._pending if step <= now]
        if not due:
            return
        self._pending = [(s, f) for s, f in self._pending if s > now]
        for _step, fault in due:
            self._fire(fault)

    def _log(self, fault: object, outcome: str, detail: str = "") -> None:
        if outcome == "fired":
            self._c_fired.labels(type=type(fault).__name__).inc()
        self.runtime.events.publish(
            "injector", "fault-injected", self.runtime.total_steps,
            fault=fault, outcome=outcome, detail=detail,
        )

    def _fire(self, fault: object) -> None:
        if isinstance(fault, KillNode):
            self._fire_kill(fault)
        elif isinstance(fault, CrashTask):
            self._fire_crash(fault)
        elif isinstance(fault, SlowNode):
            self._fire_slow(fault)
        elif isinstance(fault, DropEnvelope):
            self._fire_drop(fault)
        elif isinstance(fault, DuplicateEnvelope):
            self._fire_duplicate(fault)
        elif isinstance(fault, CorruptChunk):
            key = self.store.corrupt_chunk(fault.node_id)
            if key is None:
                self._log(fault, "skipped", "no stored chunk to corrupt")
            else:
                self._log(fault, "fired", f"corrupted chunk {key}")
        elif isinstance(fault, CorruptDeltaChunk):
            key = self.store.corrupt_chunk(fault.node_id, kind="delta")
            if key is None:
                self._log(fault, "skipped",
                          "no stored delta chunk to corrupt")
            else:
                self._log(fault, "fired", f"corrupted delta chunk {key}")
        elif isinstance(fault, DropDeltaChunk):
            key = self.store.drop_chunk(fault.node_id, kind="delta")
            if key is None:
                self._log(fault, "skipped", "no stored delta chunk to drop")
            else:
                self._log(fault, "fired", f"dropped delta chunk {key}")
        elif isinstance(fault, TargetOffline):
            self.store.set_target_offline(fault.target, fault.offline)
            state = "offline" if fault.offline else "online"
            self._log(fault, "fired", f"backup target {fault.target} "
                                      f"now {state}")
        elif isinstance(fault, ScaleUp):
            self._fire_scale(fault)
        else:
            raise ChaosError(f"unknown fault type: {fault!r}")

    # -- individual faults ----------------------------------------------

    def _node_for(self, fault) -> "PhysicalNode | None":
        """Resolve a node selector against the current topology."""
        if fault.node_id is not None:
            node = self.runtime.nodes.get(fault.node_id)
            return node if node is not None and node.alive else None
        live = self.runtime.se_instances(fault.se)
        if not live:
            return None
        instance = live[fault.index % len(live)]
        node = self.runtime.nodes[instance.node_id]
        return node if node.alive else None

    def _te_for(self, fault, *, with_inbox: bool) -> "TEInstance | None":
        live = self.runtime.te_instances(fault.te)
        live = [i for i in live if self.runtime.nodes[i.node_id].alive]
        if with_inbox:
            live = [i for i in live if i.inbox]
        if not live:
            return None
        return live[fault.index % len(live)]

    def _fire_kill(self, fault: KillNode) -> None:
        node = self._node_for(fault)
        if node is None:
            self._log(fault, "skipped", "no live node matches selector")
            return
        self.runtime.fail_node(node.node_id)
        self._log(fault, "fired", f"killed node {node.node_id}")

    def _fire_crash(self, fault: CrashTask) -> None:
        instance = self._te_for(fault, with_inbox=False)
        if instance is None:
            self._log(fault, "skipped",
                      f"no live instance of TE {fault.te!r}")
            return
        instance.crash_next = True
        self._log(fault, "fired",
                  f"armed crash on {fault.te}[{instance.index}] "
                  f"(node {instance.node_id})")

    def _fire_slow(self, fault: SlowNode) -> None:
        node = self._node_for(fault)
        if node is None:
            self._log(fault, "skipped", "no live node matches selector")
            return
        node.speed = fault.factor
        self._log(fault, "fired",
                  f"node {node.node_id} speed -> {fault.factor}")

    def _fire_drop(self, fault: DropEnvelope) -> None:
        """Lose one queued envelope *and* fail its destination node.

        The two go together by design (see
        :class:`~repro.chaos.plan.DropEnvelope`): the channels are
        reliable, so a lost item without a node failure would be
        unrecoverable. Failing the destination makes the loss part of a
        crash, and failure replay from the producer-side buffer — where
        the dropped envelope still lives — resurrects it.
        """
        instance = self._te_for(fault, with_inbox=True)
        if instance is None:
            self._log(fault, "skipped",
                      f"no queued envelope on TE {fault.te!r}")
            return
        envelope = instance.inbox.pop()
        self.runtime.transport.inbox_gauge(instance.name).dec()
        self.runtime.fail_node(instance.node_id)
        self._log(fault, "fired",
                  f"dropped ts={envelope.ts} bound for "
                  f"{fault.te}[{instance.index}] and killed node "
                  f"{instance.node_id}")

    def _fire_duplicate(self, fault: DuplicateEnvelope) -> None:
        instance = self._te_for(fault, with_inbox=True)
        if instance is None:
            self._log(fault, "skipped",
                      f"no queued envelope on TE {fault.te!r}")
            return
        envelope = instance.inbox[0]
        instance.inbox.append(envelope)
        self.runtime.transport.inbox_gauge(instance.name).inc()
        self._log(fault, "fired",
                  f"redelivered ts={envelope.ts} to "
                  f"{fault.te}[{instance.index}]")

    def _fire_scale(self, fault: ScaleUp) -> None:
        try:
            grew = self.runtime.scale_up(fault.te)
        except RuntimeExecutionError as exc:
            # Mid-checkpoint or a failed instance pending recovery:
            # retry a little later, bounded.
            retries = self._scale_retries.get(id(fault), 0) + 1
            if retries > _SCALE_MAX_RETRIES:
                self._log(fault, "refused",
                          f"gave up after {retries - 1} retries: {exc}")
                return
            self._scale_retries[id(fault)] = retries
            due = self.runtime.total_steps + _SCALE_RETRY_AFTER
            self._pending.append((due, fault))
            self._log(fault, "rescheduled", f"retry at step {due}: {exc}")
            return
        if grew:
            self._log(fault, "fired",
                      f"scaled {fault.te} to "
                      f"{self.runtime.te_slot_count(fault.te)} instances")
        else:
            self._log(fault, "refused",
                      f"{fault.te} cannot scale further")
