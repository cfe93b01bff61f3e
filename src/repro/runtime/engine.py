"""The pipelined SDG execution engine (§3.3).

The engine materialises a validated SDG and processes data items
cooperatively (single-threaded, deterministic): ``inject`` feeds
external input to entry TEs and ``run_until_idle`` drains the
pipeline. Since the layered refactor, :class:`Runtime` is a *facade*
over four subsystems, each a seam where a future policy or backend can
plug in:

* :mod:`repro.runtime.deployment` — the :class:`~repro.runtime
  .deployment.Topology` owns instances, nodes, partitioners, epochs;
* :mod:`repro.runtime.scheduler` — pluggable instance-selection
  policies plus the straggler-credit accounting;
* :mod:`repro.runtime.transport` — channels, inbox delivery, payload
  isolation, and backpressure reporting;
* :mod:`repro.runtime.dispatcher` — the four dispatch semantics over a
  deploy-time successor index.

The facade keeps the public API of the original monolithic engine:
``repro.recovery`` and ``repro.chaos`` drive it unchanged.

Determinism note: the paper requires translated programs to be
deterministic so that recovery can re-execute computation (§4.1); the
default :class:`~repro.runtime.scheduler.RoundRobinScheduler` honours
the same contract by processing instances in a fixed rotor order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.elements import AccessMode, StateKind, TaskContext
from repro.core.graph import SDG
from repro.errors import RuntimeExecutionError
from repro.obs.events import KIND, EventBus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileRegistry
from repro.obs.trace import Tracer
from repro.runtime.deployment import Topology
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.envelope import (
    INPUT_EDGE,
    NO_RESPONSE,
    ChannelId,
    Envelope,
)
from repro.runtime.instances import (
    GatherState,
    SEInstance,
    StreamKey,
    TEInstance,
    stream_key,
)
from repro.runtime.node import PhysicalNode
from repro.runtime.scaling import BottleneckDetector
from repro.runtime.scheduler import Scheduler, resolve_scheduler
from repro.runtime.substrate import (
    ExecutionSubstrate,
    resolve_substrate,
)
from repro.runtime.transport import Transport
from repro.state import HashPartitioner

#: Most envelopes one step serves from a ``COALESCIBLE_DISPATCH``
#: channel (drain-k serving, see :meth:`Runtime.step`).
DRAIN_MAX = 64

@dataclass
class RuntimeConfig:
    """Deployment-time knobs of the runtime."""

    #: Initial instance count per SE (partition or replica count).
    se_instances: dict[str, int] = field(default_factory=dict)
    #: Custom routing partitioner per partitioned SE (e.g. a
    #: RangePartitioner); defaults to hash partitioning. The
    #: partitioner's fan-out fixes the SE's instance count.
    partitioners: dict[str, Any] = field(default_factory=dict)
    #: Initial instance count per *stateless* TE.
    te_instances: dict[str, int] = field(default_factory=dict)
    #: Enable the reactive bottleneck detector (§3.3).
    auto_scale: bool = False
    #: Inbox backlog per instance that flags a TE as a bottleneck.
    scale_threshold: int = 64
    #: Upper bound on instances created by auto-scaling.
    max_instances: int = 8
    #: Steps between bottleneck checks when auto-scaling.
    scale_check_every: int = 256
    #: Deep-copy payloads at send time. On a real cluster every hop
    #: serialises (§4.1 location independence), so a producer can never
    #: observe a consumer's mutations; in-process, shared references
    #: could. Enable to get wire-faithful isolation at a CPU cost.
    copy_payloads: bool = False
    #: Instance-selection policy: a name from
    #: :data:`repro.runtime.scheduler.SCHEDULERS` (``"round_robin"``,
    #: ``"longest_queue"``) or a custom
    #: :class:`~repro.runtime.scheduler.Scheduler` object. The default
    #: preserves the seed engine's deterministic replay order.
    scheduler: str | Scheduler = "round_robin"
    #: Per-channel inbox bound for backpressure *reporting* (None =
    #: unbounded). Delivery never blocks or drops — recovery relies on
    #: reliable channels — but channels over this depth show up in
    #: :meth:`Runtime.blocked_channels` and feed the bottleneck
    #: detector as a second scaling signal.
    channel_capacity: int | None = None
    #: Full/delta checkpoint cadence: a
    #: :class:`repro.recovery.policy.CheckpointPolicy` (or anything
    #: with an int ``full_every >= 0``) picked up by every
    #: CheckpointManager built against this runtime. ``None`` keeps the
    #: default (a full checkpoint every cycle). Typed loosely because
    #: ``repro.recovery`` imports runtime modules, not the reverse.
    checkpoint_policy: Any = None
    #: Metrics sink: anything registry-shaped (``counter``/``gauge``/
    #: ``histogram`` factories — see :mod:`repro.obs.metrics`). ``None``
    #: gives each runtime a fresh private
    #: :class:`~repro.obs.metrics.MetricsRegistry`; pass
    #: :data:`~repro.obs.metrics.NULL_REGISTRY` to disable collection
    #: entirely, or ``repro.obs.metrics.default_registry()`` to share
    #: one process-wide sink.
    metrics: Any = None
    #: Enable per-envelope causal tracing (:mod:`repro.obs.trace`).
    #: Every injected item gets a trace id that survives dispatch
    #: fan-out, repartition and replay; hop/queue-wait spans are
    #: recorded on ``runtime.tracer``. Off by default — the disabled
    #: hot path is a single ``is None`` check. Works on every
    #: substrate: multiprocess workers record hops locally and the
    #: coordinator merges their shards into one causal view.
    trace: bool = False
    #: Enable wall-clock phase profiling (:mod:`repro.obs.profile`):
    #: process/dispatch/serialize/wire-wait/checkpoint/recovery timers
    #: on ``runtime.profiler``, merged across workers via
    #: :meth:`Runtime.merged_profile`. Off by default — the disabled
    #: hot path is a single ``is None`` check (the same bar as
    #: tracing; see ``benchmarks/test_obs_profile.py``).
    profile: bool = False
    #: Flight-recorder ring capacity (:mod:`repro.obs.flight`): keep
    #: the digests of the last N served envelopes per process for
    #: post-mortems (crash frames, durable-run dumps, ``repro top``).
    #: ``0`` (the default) disables recording entirely.
    flight_recorder: int = 0
    #: Fleet-restart budget for the multiprocess substrate: how many
    #: worker crashes are absorbed by re-forking the fleet from the
    #: last barrier (replaying the inputs delivered since) before one
    #: propagates as an error. ``0`` (the default) propagates the
    #: first crash. Requires ``substrate="multiprocess"``.
    worker_restarts: int = 0
    #: Execution substrate: ``"inprocess"`` (the deterministic
    #: single-threaded logical-time loop — the default and the
    #: testing/repro baseline), ``"multiprocess"`` (shared-nothing
    #: worker processes connected by OS pipes), or a custom
    #: :class:`~repro.runtime.substrate.ExecutionSubstrate` object.
    substrate: str | ExecutionSubstrate = "inprocess"
    #: Worker process count for the multiprocess substrate (``None``
    #: defaults to 2). Only meaningful with
    #: ``substrate="multiprocess"``; setting it for the in-process
    #: substrate is a deploy-time error.
    workers: int | None = None
    #: Deploy-time substrate-safety gate for payload-isolating
    #: substrates (multiprocess): run the SDG4xx static passes and
    #: ``"warn"`` about findings, ``"enforce"`` (refuse to deploy on
    #: any error-severity finding, with the offending call chain in
    #: the error), or ``"off"``. Ignored on the in-process substrate.
    substrate_check: str = "warn"
    #: Capability-driven optimization (the sdglint-as-optimizer seam).
    #: When on, the runtime consults a
    #: :class:`~repro.analysis.capabilities.ProgramCapabilities`
    #: certificate and arms three relaxed paths *only* where the
    #: analyzer produced a positive proof: drain-k serving on
    #: ``COALESCIBLE_DISPATCH`` channels (one scheduling decision
    #: serves up to :data:`DRAIN_MAX` consecutive same-channel
    #: envelopes, each still deduplicated, traced and recorded on its
    #: own), eager gather folds for ``COMMUTATIVE_MERGE`` TEs, and
    #: journal-batched RMWs on ``BATCHABLE_RMW`` state around a
    #: drained run. Uncertified programs take the exact baseline path
    #: even with this flag set.
    optimize: bool = False
    #: Pre-certified capabilities to deploy with (e.g. attached by
    #: ``SDGProgram.launch``). ``None`` with ``optimize=True`` makes
    #: the runtime certify its SDG itself at deploy time.
    capabilities: Any = None

    def validate(self, sdg: "SDG") -> None:
        """Reject malformed deployment knobs before they misbehave.

        Called by :meth:`Runtime.deploy`; raising here turns a typo'd SE
        name or a zero scaling interval into a clear deploy-time error
        instead of a silently ignored setting.
        """
        for knob in ("scale_threshold", "max_instances",
                     "scale_check_every"):
            value = getattr(self, knob)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.{knob} must be an integer >= 1, "
                    f"got {value!r}"
                )
        capacity = self.channel_capacity
        if capacity is not None:
            if not isinstance(capacity, int) or isinstance(capacity, bool) \
                    or capacity < 1:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.channel_capacity must be None or an "
                    f"integer >= 1, got {capacity!r}"
                )
        # Raises on unknown policy names / non-scheduler objects.
        resolve_scheduler(self.scheduler)
        if not isinstance(self.trace, bool):
            raise RuntimeExecutionError(
                f"RuntimeConfig.trace must be a bool, got {self.trace!r}"
            )
        if not isinstance(self.profile, bool):
            raise RuntimeExecutionError(
                f"RuntimeConfig.profile must be a bool, "
                f"got {self.profile!r}"
            )
        capacity_knob = self.flight_recorder
        if not isinstance(capacity_knob, int) \
                or isinstance(capacity_knob, bool) or capacity_knob < 0:
            raise RuntimeExecutionError(
                f"RuntimeConfig.flight_recorder must be an integer >= 0 "
                f"(ring capacity, 0 = off), got {capacity_knob!r}"
            )
        restarts = self.worker_restarts
        if not isinstance(restarts, int) or isinstance(restarts, bool) \
                or restarts < 0:
            raise RuntimeExecutionError(
                f"RuntimeConfig.worker_restarts must be an integer >= 0, "
                f"got {restarts!r}"
            )
        if restarts and self.substrate != "multiprocess":
            raise RuntimeExecutionError(
                "RuntimeConfig.worker_restarts requires "
                "substrate='multiprocess'; the in-process substrate has "
                "no worker fleet to restart"
            )
        workers = self.workers
        if workers is not None:
            if not isinstance(workers, int) or isinstance(workers, bool) \
                    or workers < 1:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.workers must be None or an integer "
                    f">= 1, got {workers!r}"
                )
            if self.substrate == "inprocess":
                raise RuntimeExecutionError(
                    "RuntimeConfig.workers requires "
                    "substrate='multiprocess'; the in-process substrate "
                    "is single-process by definition"
                )
        if self.substrate == "multiprocess":
            # Structural mutations (scale-out, repartition) are not yet
            # wired through the control plane; fail at deploy instead
            # of mid-run. (Tracing, metrics, profiling and the flight
            # recorder all work cross-process — workers ship shards the
            # coordinator merges.)
            if self.auto_scale:
                raise RuntimeExecutionError(
                    "auto_scale requires the in-process substrate: "
                    "reactive scale-out is not yet a multiprocess "
                    "control-plane action"
                )
        if not isinstance(self.optimize, bool):
            raise RuntimeExecutionError(
                f"RuntimeConfig.optimize must be a bool, "
                f"got {self.optimize!r}"
            )
        if self.substrate_check not in ("warn", "enforce", "off"):
            raise RuntimeExecutionError(
                f"RuntimeConfig.substrate_check must be 'warn', "
                f"'enforce' or 'off', got {self.substrate_check!r}"
            )
        # Raises on unknown substrate names / non-substrate objects.
        resolve_substrate(self.substrate, self)
        if self.metrics is not None:
            for factory in ("counter", "gauge", "histogram"):
                if not callable(getattr(self.metrics, factory, None)):
                    raise RuntimeExecutionError(
                        f"RuntimeConfig.metrics must be registry-shaped "
                        f"(callable counter/gauge/histogram), got "
                        f"{self.metrics!r}"
                    )
        policy = self.checkpoint_policy
        if policy is not None:
            cadence = getattr(policy, "full_every", None)
            if not isinstance(cadence, int) or isinstance(cadence, bool) \
                    or cadence < 0:
                raise RuntimeExecutionError(
                    f"RuntimeConfig.checkpoint_policy must expose an "
                    f"integer full_every >= 0 (e.g. a CheckpointPolicy), "
                    f"got {policy!r}"
                )
        known_ses = set(sdg.states)
        unknown_ses = sorted(set(self.se_instances) - known_ses)
        if unknown_ses:
            raise RuntimeExecutionError(
                f"se_instances names unknown SEs {unknown_ses}; this "
                f"SDG declares {sorted(known_ses)}"
            )
        unknown_parts = sorted(set(self.partitioners) - known_ses)
        if unknown_parts:
            raise RuntimeExecutionError(
                f"partitioners names unknown SEs {unknown_parts}; this "
                f"SDG declares {sorted(known_ses)}"
            )
        known_tes = set(sdg.tasks)
        unknown_tes = sorted(set(self.te_instances) - known_tes)
        if unknown_tes:
            raise RuntimeExecutionError(
                f"te_instances names unknown TEs {unknown_tes}; this "
                f"SDG declares {sorted(known_tes)}"
            )
        for mapping, what in ((self.se_instances, "se_instances"),
                              (self.te_instances, "te_instances")):
            for name, count in mapping.items():
                if not isinstance(count, int) or isinstance(count, bool) \
                        or count < 1:
                    raise RuntimeExecutionError(
                        f"{what}[{name!r}] must be an integer >= 1, "
                        f"got {count!r}"
                    )


class Runtime:
    """Deploys and executes one SDG in-process (the layer facade)."""

    def __init__(self, sdg: SDG, config: RuntimeConfig | None = None) -> None:
        self.sdg = sdg
        self.config = config or RuntimeConfig()
        #: The deployment layer: instances, nodes, partitioners, epochs.
        self.topology = Topology(sdg, self.config)
        #: The transport layer; built at deploy.
        self.transport: Transport | None = None
        #: The dispatch layer; built at deploy.
        self.dispatcher: Dispatcher | None = None
        #: The scheduling policy; resolved from the config at deploy.
        self.scheduler: Scheduler | None = None
        #: The execution substrate; resolved from the config at deploy.
        self.substrate: ExecutionSubstrate | None = None
        #: Metrics registry: fresh per runtime unless injected via the
        #: config, so tests never see each other's counts.
        self.metrics = (
            self.config.metrics if self.config.metrics is not None
            else MetricsRegistry()
        )
        #: Structured event bus all layers publish to (always on; an
        #: event is only created when something structural happens).
        self.events = EventBus()
        #: Causal tracer, or None when ``config.trace`` is off.
        self.tracer: Tracer | None = Tracer() if self.config.trace else None
        #: Wall-clock phase profiler, or None when ``config.profile``
        #: is off (:meth:`merged_profile` folds worker shards in).
        self.profiler: ProfileRegistry | None = (
            ProfileRegistry() if self.config.profile else None
        )
        #: Flight recorder, or None when ``config.flight_recorder`` is
        #: 0. Not pre-bound on the hot path (checked directly) so the
        #: durable runner can attach one to an already-built runtime.
        self.flight: FlightRecorder | None = (
            FlightRecorder(self.config.flight_recorder)
            if self.config.flight_recorder else None
        )
        #: Pre-bound phase timers (None when profiling is off): the
        #: per-item cost of disabled profiling is these `is None`
        #: checks, nothing more.
        self._p_process = (self.profiler.phase("process")
                           if self.profiler is not None else None)
        self._p_dispatch = (self.profiler.phase("dispatch")
                            if self.profiler is not None else None)
        #: Collected payloads of TEs without outgoing dataflows.
        self.results: dict[str, list[Any]] = {}
        self.total_steps = 0
        self._rr: dict[Any, int] = {}
        #: Per-entry global injection counter (see TEInstance.out_seq for
        #: why timestamps are per-stream, not per-channel).
        self._input_seq: dict[str, int] = {}
        self._input_buffers: dict[ChannelId, list[Envelope]] = {}
        self._terminal_seen: set = set()
        self._step_hooks: list = []
        self._crash_handlers: list = []
        self._deployed = False
        self._scale_events: list[tuple[int, str, int]] = []
        self._detector: BottleneckDetector | None = None
        #: Resolved ProgramCapabilities when ``config.optimize`` is on
        #: (``None`` otherwise — and every relaxed path stays off).
        self.capabilities: Any = None
        #: Merge TE name -> MergeFold for certified-foldable merges.
        self._merge_folds: dict[str, Any] = {}
        #: TEs licensed to journal-batch their state writes.
        self._batch_state_tes: frozenset[str] = frozenset()
        #: ``(edge_index, dst_te)`` of the channels certified
        #: ``COALESCIBLE_DISPATCH`` (``INPUT_EDGE`` for entry TEs):
        #: the only channels :meth:`step` drains more than one
        #: envelope from.
        self._drain_channels: frozenset[tuple[int, str]] = frozenset()

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self) -> "Runtime":
        """Validate, allocate and materialise the SDG. Returns self."""
        if self._deployed:
            raise RuntimeExecutionError("runtime already deployed")
        self.sdg.validate()
        self.config.validate(self.sdg)
        self.topology.materialise()
        # The substrate is resolved before the transport so its
        # isolation capability can switch off the defensive payload
        # deepcopy (the wire codec serialises every hand-off anyway).
        self.substrate = resolve_substrate(self.config.substrate,
                                           self.config)
        # Static substrate-safety gate: a payload-isolating substrate
        # refuses (or warns about) programs the SDG4xx passes prove
        # unsafe to fork, before any worker exists.
        self._check_substrate_safety()
        self.transport = Transport(
            self.topology,
            capacity=self.config.channel_capacity,
            copy_payloads=self.config.copy_payloads,
            payload_isolated=getattr(self.substrate,
                                     "isolates_payloads", False),
            metrics=self.metrics,
            tracer=self.tracer,
            clock=lambda: self.total_steps,
        )
        self.dispatcher = Dispatcher(self.sdg, self.topology, self.transport,
                                     metrics=self.metrics)
        self.scheduler = resolve_scheduler(self.config.scheduler)
        self._bind_metrics()
        # One detector for the runtime's lifetime, built from the
        # validated config (not per scale check).
        self._detector = BottleneckDetector(
            threshold=self.config.scale_threshold,
            max_instances=self.config.max_instances,
        )
        for te_name in self.sdg.tasks:
            if not self.dispatcher.successors(te_name):
                self.results.setdefault(te_name, [])
        if self.config.optimize:
            self._enable_optimizations()
        self._deployed = True
        self._refresh_instance_gauges()
        # Bind last: a distributed substrate forks its workers here and
        # they must inherit the fully deployed topology (including the
        # resolved capabilities — synthesised fold closures are not
        # picklable, so workers must get them through the fork).
        self.substrate.bind(self)
        return self

    def _check_substrate_safety(self) -> None:
        """Gate a payload-isolating deploy on the SDG4xx passes.

        Reuses the certificate's findings when the deploy carries
        pre-certified capabilities; otherwise runs the passes over the
        SDG (through the attached source program when the graph came
        from ``translate()``). ``"enforce"`` refuses on error-severity
        findings with the offending call chains rendered in the error;
        ``"warn"`` surfaces everything as a ``RuntimeWarning``.
        """
        mode = self.config.substrate_check
        if mode == "off":
            return
        if not getattr(self.substrate, "isolates_payloads", False):
            return
        caps = self.config.capabilities
        if caps is not None and hasattr(caps, "substrate_findings"):
            findings = list(caps.substrate_findings)
        else:
            from repro.analysis.substrate import deploy_findings

            findings = deploy_findings(self.sdg)
        if not findings:
            return
        from repro.analysis.diagnostics import Severity

        errors = [d for d in findings if d.severity is Severity.ERROR]
        rendered = "\n".join(
            "  " + d.render().replace("\n", "\n  ") for d in findings
        )
        if mode == "enforce" and errors:
            raise RuntimeExecutionError(
                f"substrate_check='enforce': refusing to deploy on the "
                f"{self.substrate.name!r} substrate — "
                f"{len(errors)} substrate-safety error(s):\n{rendered}"
            )
        import warnings

        warnings.warn(
            f"substrate-safety findings on the "
            f"{self.substrate.name!r} substrate "
            f"({len(findings)} finding(s)):\n{rendered}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _enable_optimizations(self) -> None:
        """Resolve the capability certificate and arm the relaxed paths.

        Certification is positive-only: a capability the analyzer could
        not prove simply is not in the certificate, and the matching
        relaxed path stays disarmed — an uncertified program runs the
        exact baseline even with ``optimize=True``.
        """
        caps = self.config.capabilities
        if caps is None:
            from repro.analysis.capabilities import certify
            caps = certify(self.sdg)
        self.capabilities = caps
        self.topology.capabilities = caps
        self._merge_folds = dict(getattr(caps, "merge_folds", None) or {})
        self._batch_state_tes = frozenset(
            getattr(caps, "batch_state_tes", None) or ())
        edge_pairs = set(getattr(caps, "coalescible_edges", None) or ())
        self._drain_channels = frozenset(
            [(INPUT_EDGE, te)
             for te in getattr(caps, "coalescible_entries", None) or ()]
            + [(i, edge.dst) for i, edge in enumerate(self.sdg.dataflows)
               if (edge.src, edge.dst) in edge_pairs]
        )

    def _bind_metrics(self) -> None:
        """Pre-bind metric children so hot-path updates skip label lookup."""
        m = self.metrics
        self._c_steps = m.counter(
            "engine_steps_total", "logical steps (ticks)").labels()
        self._c_stalls = m.counter(
            "engine_stall_ticks_total",
            "steps where all pending work sat on throttled nodes").labels()
        self._c_picks = m.counter(
            "scheduler_picks_total",
            "instance selections, by scheduling policy").labels(
                policy=getattr(self.scheduler, "name",
                               type(self.scheduler).__name__))
        self._c_node_failures = m.counter(
            "engine_node_failures_total", "nodes killed (fault or crash)"
        ).labels()
        self._c_scale_outs = m.counter(
            "engine_scale_outs_total", "reactive/explicit scale-up actions"
        ).labels()
        self._c_merge_early = m.counter(
            "merge_early_completions_total",
            "gather barriers completed via a certified eager fold"
        ).labels()
        self._c_rmw_batches = m.counter(
            "state_rmw_batches_total",
            "journal write batches applied under a BATCHABLE_RMW licence"
        ).labels()
        self._c_coalesced = m.counter(
            "dispatch_coalesced_total",
            "envelopes served in the step of an earlier envelope on a "
            "certified channel (drain-k)").labels()
        injected = m.counter(
            "engine_items_injected_total",
            "external items injected, by entry TE")
        processed = m.counter(
            "engine_items_processed_total", "items processed, by TE")
        instances_g = m.gauge(
            "runtime_te_instances", "live instances per TE")
        self._c_injected = {te: injected.labels(te=te)
                            for te in self.sdg.tasks}
        self._c_processed = {te: processed.labels(te=te)
                             for te in self.sdg.tasks}
        self._g_instances = {te: instances_g.labels(te=te)
                             for te in self.sdg.tasks}

    def _refresh_instance_gauges(self) -> None:
        """Re-read live instance counts after a structural change."""
        for te, child in self._g_instances.items():
            child.set(len(self.topology.te_instances(te)))

    # ------------------------------------------------------------------
    # Topology facade (instance and node accessors)
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> dict[int, PhysicalNode]:
        """All nodes ever created, dead ones included."""
        return self.topology.nodes

    @property
    def _partitioners(self) -> dict[str, HashPartitioner]:
        # Backwards-compatible peek used by tests and diagnostics.
        return self.topology._partitioners

    def te_instances(self, te: str) -> list[TEInstance]:
        """Live instances of TE ``te`` (failed slots omitted)."""
        return self.topology.te_instances(te)

    def te_instance(self, te: str, index: int) -> TEInstance | None:
        return self.topology.te_instance(te, index)

    def te_slot_count(self, te: str) -> int:
        return self.topology.te_slot_count(te)

    def se_instances(self, se: str) -> list[SEInstance]:
        return self.topology.se_instances(se)

    def se_instance(self, se: str, index: int) -> SEInstance | None:
        return self.topology.se_instance(se, index)

    def alive_nodes(self) -> list[PhysicalNode]:
        return self.topology.alive_nodes()

    def is_idle(self) -> bool:
        """Whether no envelope is waiting in any live inbox."""
        return self.topology.is_idle()

    def all_te_instances(self) -> Iterator[TEInstance]:
        return self.topology.all_te_instances()

    # ------------------------------------------------------------------
    # External input
    # ------------------------------------------------------------------

    def _require_deployed(self) -> None:
        if not self._deployed:
            raise RuntimeExecutionError(
                "runtime not deployed; call deploy() first"
            )

    def inject(self, entry: str, payload: Any) -> None:
        """Feed one external item to entry TE ``entry`` (§3.1 dataflows).

        Items are buffered source-side like any other dataflow so that a
        failed entry TE can be replayed from "upstream" (here: the
        client-side input log).
        """
        self._require_deployed()
        spec = self.sdg.task(entry)
        if not spec.is_entry:
            raise RuntimeExecutionError(f"TE {entry!r} is not an entry point")
        self._c_injected[entry].inc()
        # One trace per logical injection: a GLOBAL-access broadcast is
        # one item fanned out, so every slot shares the trace id.
        trace_id = (self.tracer.new_trace(self.total_steps)
                    if self.tracer is not None else None)
        if spec.entry_key_fn is not None:
            index = self._keyed_index(spec, spec.entry_key_fn(payload))
            self._inject_to(entry, index, payload, None, None, trace_id)
        elif spec.access is AccessMode.GLOBAL:
            request_id = self.dispatcher.next_request_id()
            slots = self.te_slot_count(entry)
            for index in range(slots):
                self._inject_to(entry, index, payload, request_id, slots,
                                trace_id)
        else:
            slots = self.te_slot_count(entry)
            rr = self._rr.get(("input", entry), 0)
            self._rr[("input", entry)] = rr + 1
            self._inject_to(entry, rr % slots, payload, None, None, trace_id)

    def _inject_to(self, entry: str, index: int, payload: Any,
                   request_id: int | None, expected: int | None,
                   trace_id: int | None = None) -> None:
        payload = self.transport.prepare_payload(payload)
        channel = ChannelId(INPUT_EDGE, "__input__", 0, entry, index)
        seq = self._input_seq.get(entry, 0) + 1
        self._input_seq[entry] = seq
        envelope = Envelope(payload=payload, ts=seq, channel=channel,
                            request_id=request_id,
                            expected_responses=expected,
                            trace_id=trace_id)
        self._input_buffers.setdefault(channel, []).append(envelope)
        self.substrate.deliver(envelope)

    def _keyed_index(self, spec, key: Any) -> int:
        """Partition index for keyed dispatch into TE ``spec``."""
        return self.topology.keyed_index(spec, key)

    # ------------------------------------------------------------------
    # Processing
    # ------------------------------------------------------------------

    def blocked_channels(self) -> list[ChannelId]:
        """Channels currently reporting backpressure.

        Empty when ``channel_capacity`` is unset. In-process this is
        the bounded transport's signal (consumed by the bottleneck
        detector alongside inbox depth); on the multiprocess substrate
        it additionally names congested coordinator->worker wire
        channels (``edge_index == WIRE_EDGE``).
        """
        if self.substrate is None:
            return []
        return self.substrate.blocked_channels()

    def step(self) -> bool:
        """Serve the head of one TE instance's inbox; False when idle.

        Instance selection is the scheduler's call; straggler-credit
        throttling (nodes with ``speed < 1``) lives there too. When
        every pending item sits on a throttled node the step still
        counts (a *stall tick*): logical time passes and hooks run,
        which is what lets the failure detector observe a stalled node.

        Drain-k: when the head's channel is certified
        ``COALESCIBLE_DISPATCH`` and it is not request-tagged, the same
        step keeps serving the inbox head while it continues that run
        (same channel, no request id), up to :data:`DRAIN_MAX`
        envelopes — one scheduling decision and one set of step hooks
        for the whole run.
        """
        self._require_deployed()
        nodes = self.topology.nodes
        instances = self.substrate.runnable([
            inst for inst in self.topology.all_te_instances()
            if nodes[inst.node_id].alive
        ])
        if not instances:
            return False
        instance, throttled = self.scheduler.select(instances, nodes)
        if instance is None:
            if throttled:
                self._c_stalls.inc()
                self._tick()
                return True
            return False
        self._c_picks.inc()
        envelope = instance.inbox.popleft()
        channel = envelope.channel
        if (
            self._drain_channels
            and envelope.request_id is None
            and (channel.edge_index, channel.dst_te) in self._drain_channels
        ):
            self._drain(instance, envelope)
        else:
            self._serve(instance, envelope)
        self._tick()
        return True

    def _serve(self, instance: TEInstance, envelope: Envelope) -> bool:
        """Serve one popped envelope; False when its task crashed.

        A crash propagates unless a crash handler is registered
        (supervised mode): then the host node is failed (the envelope
        survives upstream and is replayed during recovery) and every
        handler is told, instead of the whole pipeline aborting.
        """
        self.transport.inbox_gauge(instance.name).dec()
        if self.flight is not None:
            self.flight.record_envelope(self.total_steps, instance,
                                        envelope)
        t0 = (time.perf_counter()
              if self._p_process is not None else 0.0)
        try:
            self.substrate.process(instance, envelope)
        except RuntimeExecutionError as exc:
            if not self._crash_handlers:
                raise
            if self.topology.nodes[instance.node_id].alive:
                self.fail_node(instance.node_id)
            for handler in list(self._crash_handlers):
                handler(self, instance, envelope, exc)
            return False
        finally:
            if self._p_process is not None:
                self._p_process.add(time.perf_counter() - t0)
        return True

    def _extends(self, inbox, channel: ChannelId) -> bool:
        """Whether the inbox head continues a drained run on ``channel``."""
        if not inbox:
            return False
        head = inbox[0]
        return head.request_id is None and head.channel == channel

    def _drain(self, instance: TEInstance, envelope: Envelope) -> None:
        """Serve ``envelope`` and the run of inbox heads that extends it.

        Each envelope is popped only just before it is served, so a
        crash leaves the unserved tail queued and the crash handlers
        see the envelope that actually raised. When the TE holds a
        ``BATCHABLE_RMW`` licence and the run is longer than one, the
        state journal defers per-item bookkeeping to one flush at the
        end of the run; a mid-run crash still flushes the served prefix
        (its ``last_seen`` marks already advanced, so its state must be
        checkpointable).
        """
        inbox = instance.inbox
        channel = envelope.channel
        element = None
        if (
            instance.name in self._batch_state_tes
            and instance.se_instance is not None
            and self._extends(inbox, channel)
        ):
            element = instance.se_instance.element
            element.begin_rmw_batch()
        served = 1
        try:
            while (
                self._serve(instance, envelope)
                and served < DRAIN_MAX
                and self._extends(inbox, channel)
            ):
                envelope = inbox.popleft()
                served += 1
        finally:
            if element is not None:
                element.end_rmw_batch()
                self._c_rmw_batches.inc()
        if served > 1:
            self._c_coalesced.inc(served - 1)
            # One admitted step served ``served`` envelopes: charge the
            # straggler credit so draining cannot smuggle work past a
            # throttled node.
            charge = getattr(self.scheduler, "charge", None)
            if charge is not None:
                charge(self.topology.nodes[instance.node_id], served - 1)

    def _tick(self) -> None:
        """Advance logical time by one step and run the step hooks."""
        self.total_steps += 1
        self._c_steps.inc()
        for hook in list(self._step_hooks):
            hook(self)

    def add_step_hook(self, hook) -> None:
        """Register ``hook(runtime)`` to run after every processed item.

        Hooks drive cross-cutting machinery that must observe logical
        time: periodic checkpoint scheduling, monitors, fault injectors.
        """
        self._step_hooks.append(hook)

    def remove_step_hook(self, hook) -> None:
        self._step_hooks.remove(hook)

    def add_crash_handler(self, handler) -> None:
        """Register ``handler(runtime, instance, envelope, exc)``.

        While at least one handler is registered, a task-code exception
        no longer propagates out of :meth:`step`; the hosting node is
        failed (crash-stop semantics) and every handler is informed —
        the failure detector uses this as its immediate crash report.
        """
        self._crash_handlers.append(handler)

    def remove_crash_handler(self, handler) -> None:
        self._crash_handlers.remove(handler)

    def run_until_idle(self, max_steps: int = 10_000_000) -> int:
        """Drain all pending work; returns the number of items processed.

        Substrate-dispatched: in-process this is the deterministic
        step loop (auto-scale checks between steps); on the
        multiprocess substrate it pumps the coordinator's event loop
        until every worker reports quiescence, then merges worker
        state/results/metrics shards back (a barrier point).
        """
        self._require_deployed()
        return self.substrate.run_until_idle(max_steps)

    def close(self) -> None:
        """Release substrate resources (worker processes, pipes).

        Idempotent; a no-op on the in-process substrate. Distributed
        substrates also shut down automatically when the runtime is
        garbage-collected or the process exits, but tests and services
        should close deterministically.
        """
        if self.substrate is not None:
            self.substrate.shutdown()

    def merged_metrics(self):
        """The runtime's metrics with all substrate shards folded in.

        In-process this is ``self.metrics`` itself. On the multiprocess
        substrate each worker keeps its own registry shard; this
        returns a fresh registry merging the coordinator's series with
        every worker's, as of the last barrier — so observability
        output is substrate-agnostic.
        """
        shards = getattr(self.substrate, "metric_shards", None)
        if not shards:
            return self.metrics
        return self.metrics.merged_with(list(shards))

    def merged_profile(self) -> ProfileRegistry | None:
        """The wall-clock phase profile with worker shards folded in.

        ``None`` when profiling is off. On the multiprocess substrate
        each worker ships its phase shard beside the metrics shard;
        this merges the coordinator's (serialize / wire-wait /
        checkpoint) spans with every worker's (process / dispatch /
        ...) spans into one fresh registry.
        """
        if self.profiler is None:
            return None
        shards = getattr(self.substrate, "profile_shards", None)
        if not shards:
            return self.profiler
        return self.profiler.merged_with(list(shards))

    def poll_telemetry(self, timeout: float = 0.0) -> None:
        """Service substrate telemetry without waiting for a barrier.

        On the multiprocess substrate this pumps the coordinator's
        wire once, absorbing piggybacked metric/profile shards and
        trace shards from idle reports — which is what keeps
        :meth:`merged_metrics` fresh while work is still in flight
        (``repro top --watch`` calls this in its loop). A no-op on
        substrates without a ``poll`` hook (in-process telemetry is
        always current).
        """
        poll = getattr(self.substrate, "poll", None)
        if poll is not None:
            poll(timeout)

    def _process(self, instance: TEInstance, envelope: Envelope) -> None:
        if instance.is_duplicate(envelope):
            return
        # Tracing off costs exactly this `is None` check per item.
        if self.tracer is not None:
            hop = self.tracer.begin_hop(envelope, instance.name,
                                        str(instance.index),
                                        self.total_steps)
            try:
                self._process_item(instance, envelope)
            finally:
                if hop is not None:
                    # Serving one envelope consumes one logical step.
                    self.tracer.end_hop(hop, self.total_steps + 1)
            return
        self._process_item(instance, envelope)

    def _process_item(self, instance: TEInstance, envelope: Envelope) -> None:
        spec = instance.spec
        if spec.is_merge and envelope.request_id is not None:
            self._process_gather(instance, envelope)
            return
        outputs = self._invoke(instance, envelope.payload)
        instance.mark_processed(envelope)
        self._dispatch(instance, outputs, envelope)
        self.nodes[instance.node_id].items_processed += 1
        instance.processed_count += 1
        self._c_processed[instance.name].inc()

    def _process_gather(self, instance: TEInstance,
                        envelope: Envelope) -> None:
        """Accumulate responses behind the merge barrier (§3.2/§4.2)."""
        request_id = envelope.request_id
        expected = envelope.expected_responses or 1
        gather = instance.pending_gathers.setdefault(
            request_id, GatherState(expected=expected)
        )
        fold = self._merge_folds.get(instance.name)
        if envelope.payload is not NO_RESPONSE:
            if fold is not None:
                # Certified-foldable merge: fold each replica value in
                # as it arrives instead of buffering it behind the
                # barrier — the merge body then sees a single
                # pre-reduced value, in whatever order replicas landed.
                if not gather.folded:
                    gather.accumulator = fold.init()
                    gather.folded = True
                gather.accumulator = fold.step(gather.accumulator,
                                               envelope.payload)
            else:
                gather.payloads.append(envelope.payload)
        gather.received += 1
        instance.mark_processed(envelope)
        if not gather.complete:
            return
        del instance.pending_gathers[request_id]
        if fold is not None:
            self._c_merge_early.inc()
            outputs = self._invoke(
                instance, [gather.accumulator] if gather.folded else []
            )
        else:
            outputs = self._invoke(instance, gather.payloads)
        self._dispatch(instance, outputs, envelope)
        self.nodes[instance.node_id].items_processed += 1
        instance.processed_count += 1
        self._c_processed[instance.name].inc()

    def _invoke(self, instance: TEInstance, payload: Any) -> list[Any]:
        element = (
            instance.se_instance.element
            if instance.se_instance is not None
            else None
        )
        slots = self.te_slot_count(instance.name)
        ctx = TaskContext(state=element, instance_id=instance.index,
                          n_instances=slots)
        if instance.crash_next:
            instance.crash_next = False
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] crashed "
                f"mid-item on {payload!r} (injected fault)"
            )
        try:
            returned = instance.spec.fn(ctx, payload)
        except Exception as exc:
            raise RuntimeExecutionError(
                f"TE {instance.name!r}[{instance.index}] failed on "
                f"{payload!r}: {exc}"
            ) from exc
        outputs = ctx.drain()
        if returned is not None:
            outputs.append(returned)
        return outputs

    # ------------------------------------------------------------------
    # Dispatching (delegated to the dispatch layer, §4.2 semantics)
    # ------------------------------------------------------------------

    def _dispatch(self, instance: TEInstance, outputs: list[Any],
                  cause: Envelope) -> None:
        # The dispatch span nests inside the process span: "process"
        # is the whole per-item service, "dispatch" the routing slice.
        t0 = (time.perf_counter()
              if self._p_dispatch is not None else 0.0)
        try:
            if not self.dispatcher.successors(instance.name):
                self._collect_result(instance, outputs, cause)
                return
            self.dispatcher.dispatch(instance, outputs, cause)
        finally:
            if self._p_dispatch is not None:
                self._p_dispatch.add(time.perf_counter() - t0)

    def _collect_result(self, instance: TEInstance, outputs: list[Any],
                        cause: Envelope) -> None:
        """Terminal TE: collect outputs, discarding replay duplicates.

        The result consumer is the most-downstream party: it too
        discards duplicates regenerated by deterministic replay.
        """
        if cause.request_id is not None:
            seen_key = (instance.name, "req", cause.request_id,
                        instance.index)
        else:
            seen_key = (instance.name, stream_key(cause.channel),
                        cause.ts)
        if seen_key in self._terminal_seen:
            return
        self._terminal_seen.add(seen_key)
        bucket = self.results.setdefault(instance.name, [])
        bucket.extend(outputs)

    # ------------------------------------------------------------------
    # Failure injection and replay plumbing (used by repro.recovery)
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Kill a node: inboxes, SE contents and output buffers are lost."""
        node = self.topology.nodes[node_id]
        was_alive = node.alive
        lost = 0
        if was_alive:
            for inst in node.te_instances.values():
                depth = len(inst.inbox)
                if depth:
                    lost += depth
                    self.transport.inbox_gauge(inst.name).dec(depth)
        self.topology.fail_node(node_id)
        if was_alive:
            self._c_node_failures.inc()
            self._refresh_instance_gauges()
            self.events.publish(
                "engine", KIND.NODE_FAILED, self.total_steps,
                node_id=node_id, lost_envelopes=lost,
            )
            if self.flight is not None:
                self.flight.record(self.total_steps, "node_failed",
                                   node=node_id, lost=lost)

    def install_replacement(
        self,
        te_replacements: list[TEInstance],
        se_replacements: list[SEInstance],
    ) -> PhysicalNode:
        """Host replacement instances on a fresh node (recovery R-steps).

        Slot lists grow on demand so that m-to-n recovery can restore a
        single failed instance as several new partitioned instances.
        """
        node = self.topology.install_replacement(te_replacements,
                                                 se_replacements)
        self._refresh_instance_gauges()
        return node

    def set_partitioner(self, se_name: str,
                        partitioner: HashPartitioner) -> None:
        """Replace the routing partitioner of a partitioned SE.

        Used by m-to-n recovery when a failed SE instance is restored as
        ``n`` partitions, changing the partition count.
        """
        self.topology.set_partitioner(se_name, partitioner)
        self.events.publish(
            "engine", KIND.REPARTITION, self.total_steps,
            se=se_name, epoch=self.topology.se_epoch(se_name),
        )

    def se_epoch(self, se_name: str) -> int:
        """The SE's current partitioning epoch (0 until repartitioned)."""
        return self.topology.se_epoch(se_name)

    def replay_into(self, dst_te: str, dst_index: int) -> int:
        """Re-deliver every buffered envelope targeting one instance.

        Covers both upstream TE output buffers and the client-side input
        log. The receiving instance discards duplicates via ``last_seen``.
        Returns the number of envelopes re-delivered.
        """
        count = 0
        for channel, buffered in self._input_buffers.items():
            if channel.dst_te == dst_te and channel.dst_instance == dst_index:
                for envelope in buffered:
                    if self.transport.deliver(envelope):
                        count += 1
        for producer in self.all_te_instances():
            if not self.nodes[producer.node_id].alive:
                continue
            for channel, buffered in producer.output_buffers.items():
                if (
                    channel.dst_te == dst_te
                    and channel.dst_instance == dst_index
                ):
                    for envelope in buffered:
                        if self.transport.deliver(envelope):
                            count += 1
        return count

    def replay_rerouted(self, dst_te: str,
                        recovered: set[int]) -> int:
        """Replay all buffered envelopes towards recovered instances.

        Like :meth:`replay_into`, but recomputes keyed destinations under
        the *current* partitioner — required when a failed SE was
        restored onto a different number of instances (m-to-n recovery,
        Fig. 4). Envelopes whose recomputed destination is not in
        ``recovered`` are skipped (their instance never failed).
        """
        spec = self.sdg.task(dst_te)
        count = 0

        def route(envelope: Envelope) -> int:
            channel = envelope.channel
            if channel.edge_index == INPUT_EDGE:
                if spec.entry_key_fn is not None:
                    return self._keyed_index(
                        spec, spec.entry_key_fn(envelope.payload)
                    )
                return min(channel.dst_instance,
                           self.te_slot_count(dst_te) - 1)
            edge = self.sdg.dataflows[channel.edge_index]
            if edge.key_fn is not None:
                return self._keyed_index(spec, edge.key_fn(envelope.payload))
            return min(channel.dst_instance,
                       self.te_slot_count(dst_te) - 1)

        streams: list[Envelope] = []
        for channel, buffered in self._input_buffers.items():
            if channel.dst_te == dst_te:
                streams.extend(buffered)
        for producer in self.all_te_instances():
            if not self.nodes[producer.node_id].alive:
                continue
            for channel, buffered in producer.output_buffers.items():
                if channel.dst_te == dst_te:
                    streams.extend(buffered)
        # Deliver in per-stream timestamp order. One logical stream may
        # span several buffered channels after a repartition (the same
        # source injected to different destination indices across
        # epochs); since ``last_seen`` is per *stream*, out-of-order
        # delivery across those channels would make the dedup filter
        # drop genuinely unprocessed items during a full log replay.
        streams.sort(key=lambda e: (e.channel.edge_index,
                                    e.channel.src_te,
                                    e.channel.src_instance, e.ts))
        for envelope in streams:
            index = route(envelope)
            if index not in recovered:
                continue
            rerouted = envelope.with_channel(
                envelope.channel.reroute(index), envelope.ts
            )
            if self.transport.deliver(rerouted):
                count += 1
        return count

    def replay_from(self, instance: TEInstance) -> int:
        """Re-send a recovered instance's own output buffers downstream."""
        count = 0
        for buffered in instance.output_buffers.values():
            for envelope in buffered:
                if self.transport.deliver(envelope):
                    count += 1
        return count

    def trim_stream(self, stream: StreamKey, dst_te: str, dst_index: int,
                    up_to_ts: int) -> int:
        """Trim a producer's output buffer after a downstream checkpoint."""
        edge_index, src_te, src_index = stream
        channel = ChannelId(edge_index, src_te, src_index, dst_te, dst_index)
        if edge_index == INPUT_EDGE:
            buffered = self._input_buffers.get(channel)
            if buffered is None:
                return 0
            keep = [e for e in buffered if e.ts > up_to_ts]
            dropped = len(buffered) - len(keep)
            self._input_buffers[channel] = keep
            return dropped
        producer = self.te_instance(src_te, src_index)
        if producer is None:
            return 0
        return producer.trim_output_buffer(channel, up_to_ts)

    def input_buffers_snapshot(self) -> dict[ChannelId, list[Envelope]]:
        return {c: list(b) for c, b in self._input_buffers.items()}

    # ------------------------------------------------------------------
    # Runtime parallelism (§3.3)
    # ------------------------------------------------------------------

    @property
    def scale_events(self) -> list[tuple[int, str, int]]:
        """(step, te_name, new_instance_count) for each scale action."""
        return list(self._scale_events)

    def _maybe_scale(self) -> None:
        for te_name in self._detector.bottlenecks(self):
            try:
                self.scale_up(te_name)
            except RuntimeExecutionError:
                # E.g. a checkpoint is mid-flight on the SE: skip this
                # round; the detector will flag the TE again.
                continue

    def scale_up(self, te_name: str) -> bool:
        """Add one instance to TE ``te_name``, distributing its SE (§3.3).

        Partitioned SEs are re-split across the grown instance set;
        partial SEs gain a fresh replica. Stateless TEs simply gain an
        instance. Returns False when the TE cannot be scaled further.
        """
        spec = self.sdg.task(te_name)
        if spec.is_merge:
            return False
        current = self.te_slot_count(te_name)
        if current >= self.config.max_instances:
            return False
        if spec.state is None:
            self.topology.add_stateless_instance(te_name)
        else:
            se_spec = self.sdg.state(spec.state)
            if se_spec.kind is StateKind.PARTIAL:
                self.topology.add_partial_instance(spec.state)
            else:
                # Queued envelopes for the accessing TEs come back from
                # the topology and are re-routed under the new
                # partitioner so keyed items still meet their partition.
                pending = self.topology.repartition(spec.state, current + 1)
                for envelope in pending:
                    self.transport.inbox_gauge(
                        envelope.channel.dst_te).dec()
                    self._resend_after_reroute(envelope)
                self.events.publish(
                    "engine", KIND.REPARTITION, self.total_steps,
                    se=spec.state,
                    epoch=self.topology.se_epoch(spec.state),
                    drained=len(pending),
                )
        self._scale_events.append(
            (self.total_steps, te_name, self.te_slot_count(te_name))
        )
        self._c_scale_outs.inc()
        self._refresh_instance_gauges()
        self.events.publish(
            "engine", KIND.SCALE_OUT, self.total_steps,
            te=te_name, instances=self.te_slot_count(te_name),
        )
        return True

    def _resend_after_reroute(self, envelope: Envelope) -> None:
        """Re-address a queued envelope after a repartition.

        The envelope is re-*sent* (fresh sequence number on the new
        channel) rather than re-delivered with its old stamp: per-stream
        timestamps are only monotonic towards a fixed destination, so an
        old stamp arriving at a new destination could be mistaken for a
        duplicate. The stale copy is removed from the producer-side
        replay buffer to keep recovery consistent.
        """
        channel = envelope.channel
        spec = self.sdg.task(channel.dst_te)
        if channel.edge_index == INPUT_EDGE:
            buffered = self._input_buffers.get(channel)
            if buffered is not None and envelope in buffered:
                buffered.remove(envelope)
            if spec.entry_key_fn is not None:
                index = self._keyed_index(
                    spec, spec.entry_key_fn(envelope.payload)
                )
            else:
                index = channel.dst_instance
            self._inject_to(channel.dst_te, index, envelope.payload,
                            envelope.request_id,
                            envelope.expected_responses,
                            envelope.trace_id)
            return
        edge = self.sdg.dataflows[channel.edge_index]
        producer = self.te_instance(channel.src_te, channel.src_instance)
        if producer is not None:
            buffer = producer.output_buffers.get(channel)
            if buffer is not None and envelope in buffer:
                buffer.remove(envelope)
        if edge.key_fn is not None:
            index = self._keyed_index(spec, edge.key_fn(envelope.payload))
        else:
            index = min(channel.dst_instance,
                        self.te_slot_count(channel.dst_te) - 1)
        if producer is not None:
            self.transport.send(producer, channel.edge_index,
                                channel.dst_te, index, envelope.payload,
                                envelope.request_id,
                                envelope.expected_responses,
                                trace_id=envelope.trace_id)
        else:
            # Producer lost to a failure: deliver with the old stamp so
            # downstream dedup against a future replay still works.
            self.transport.deliver(
                envelope.with_channel(channel.reroute(index), envelope.ts)
            )
