"""Instrumented workload runner behind the ``repro obs`` CLI command.

``repro obs`` deploys one of the benchmark applications with the full
observability stack on — metrics registry, causal tracing, event bus —
plus scheduled checkpoints, failure detection and supervised recovery,
optionally injects a mid-run fault, and renders everything the run
produced: a Prometheus-text metrics dump spanning engine / transport /
state / recovery / chaos, the event-bus digest, and the tracer's
per-envelope hop lists with queue-wait breakdowns.

This module is deliberately *outside* the obs core (`metrics` /
`events` / `trace` never import the runtime); the runner is CLI glue
and imports both sides freely.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.injector import FaultInjector
from repro.chaos.plan import FaultPlan, KillNode
from repro.errors import SDGError
from repro.recovery.backup import BackupStore
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.manager import RecoveryManager
from repro.recovery.scheduler import CheckpointScheduler
from repro.recovery.supervisor import RecoverySupervisor
from repro.runtime.detector import FailureDetector
from repro.runtime.engine import Runtime, RuntimeConfig

#: Deterministic corpus the wordcount workload cycles through.
_CORPUS = (
    "the quick brown fox jumps over the lazy dog",
    "state is made explicit and managed by the runtime",
    "checkpoint restore replay repartition scale out",
    "every envelope carries a trace id across the dataflow",
    "big data processing with imperative programs",
)

#: Bounded keep-alive: how many extra pump rounds the runner allows for
#: detection + supervised recovery to settle after the fault fires.
_MAX_PUMP_ROUNDS = 200


@dataclass
class ObsRun:
    """Everything a finished instrumented run exposes to the renderer."""

    app: str
    items: int
    runtime: Runtime
    supervisor: RecoverySupervisor
    injector: FaultInjector | None
    scheduler: CheckpointScheduler


def _deploy(app: str, trace: bool, optimize: bool = False) -> Runtime:
    if app == "wordcount":
        from repro.apps.wordcount import build_wordcount_sdg

        sdg = build_wordcount_sdg(window_size=10)
        config = RuntimeConfig(se_instances={"counts": 2}, trace=trace,
                               optimize=optimize)
    elif app == "kvstore":
        from repro.testing import build_kv_sdg

        sdg = build_kv_sdg()
        config = RuntimeConfig(se_instances={"table": 2}, trace=trace,
                               optimize=optimize)
    else:
        raise SDGError(
            f"unknown obs app {app!r}; choose wordcount or kvstore"
        )
    runtime = Runtime(sdg, config)
    runtime.deploy()
    return runtime


def _feed(runtime: Runtime, app: str, start: int, count: int) -> None:
    if app == "wordcount":
        for i in range(start, start + count):
            runtime.inject("split", (i, _CORPUS[i % len(_CORPUS)]))
    else:
        for i in range(start, start + count):
            runtime.inject("serve", ("put", i % 40, i))


def _queries(runtime: Runtime, app: str, count: int) -> None:
    """Read-side traffic; also the keep-alive pump during recovery."""
    if app == "wordcount":
        for i in range(count):
            line = _CORPUS[i % len(_CORPUS)]
            runtime.inject("query", (i, line.split()[0]))
    else:
        for i in range(count):
            runtime.inject("serve", ("get", i % 40, None))


def run_workload(app: str = "wordcount", items: int = 120, *,
                 trace: bool = True, chaos: bool = True,
                 optimize: bool = False) -> ObsRun:
    """Run one fully instrumented, supervised, optionally chaotic pass.

    Injects ``items`` workload items in two halves; with ``chaos`` a
    :class:`KillNode` fault lands between them and the run keeps
    pumping until the supervisor has restored the victim. With
    ``optimize`` the runtime deploys capability-driven dispatch;
    drained runs keep one trace hop per envelope, so the digest's
    ``dispatch_coalesced_total`` counts them with or without ``trace``.
    """
    if items < 2:
        raise SDGError(f"obs run needs at least 2 items, got {items}")
    runtime = _deploy(app, trace, optimize)
    store = BackupStore(m_targets=2)
    # trim_input_log=False keeps the supervisor's log-replay rung sound.
    manager = CheckpointManager(runtime, store, trim_input_log=False)
    scheduler = CheckpointScheduler(manager, every_items=25,
                                    complete_after_steps=5).install()
    detector = FailureDetector(runtime, heartbeat_timeout=20,
                               check_every=5).install()
    supervisor = RecoverySupervisor(
        detector, RecoveryManager(runtime, store), backoff_steps=10,
    ).install()

    half = items // 2
    _feed(runtime, app, 0, half)
    runtime.run_until_idle()

    injector = None
    if chaos:
        se = "counts" if app == "wordcount" else "table"
        plan = FaultPlan([
            KillNode(at_step=runtime.total_steps + 5, se=se, index=0),
        ])
        injector = FaultInjector(runtime, plan, store=store).install()

    _feed(runtime, app, half, items - half)
    runtime.run_until_idle()

    # Keep the engine stepping until every fault fired and every
    # supervised recovery finished (bounded; raises on no-settle).
    rounds = 0
    while not (supervisor.settled
               and not detector.unreported_dead_nodes()
               and (injector is None or injector.done)):
        rounds += 1
        if rounds > _MAX_PUMP_ROUNDS:
            raise SDGError("obs run failed to settle after recovery")
        _queries(runtime, app, 2)
        runtime.run_until_idle()

    _queries(runtime, app, min(10, items))
    runtime.run_until_idle()
    scheduler.flush()
    runtime.run_until_idle()
    return ObsRun(app=app, items=items, runtime=runtime,
                  supervisor=supervisor, injector=injector,
                  scheduler=scheduler)


def render_report(run: ObsRun, *, trace_limit: int = 8) -> str:
    """The full ``repro obs`` report: metrics, events, traces."""
    runtime = run.runtime
    # Substrate-agnostic view: on the multiprocess substrate this folds
    # every worker's registry shard (as of the last barrier) into the
    # coordinator's series; in-process it is runtime.metrics itself.
    metrics = runtime.merged_metrics()
    names = metrics.names()
    lines = [
        f"== repro obs: app={run.app} items={run.items} "
        f"steps={runtime.total_steps} "
        f"chaos={'on' if run.injector is not None else 'off'} "
        f"trace={'on' if runtime.tracer is not None else 'off'} ==",
        "",
        f"-- metrics ({len(names)} series) --",
        metrics.to_prometheus_text().rstrip("\n"),
        "",
        "-- optimizer --",
    ]
    caps = runtime.capabilities
    lines.append(f"  capabilities: "
                 f"{', '.join(caps.flags) if caps and caps.flags else '(none)'}"
                 f"{'' if caps is not None else ' [optimize off]'}")
    for counter in ("dispatch_coalesced_total",
                    "merge_early_completions_total",
                    "state_rmw_batches_total"):
        lines.append(f"  {counter}: {metrics.total(counter):.0f}")
    lines.extend([
        "",
        f"-- events ({len(runtime.events)} published) --",
    ])
    for kind, count in sorted(runtime.events.counts_by_kind().items()):
        lines.append(f"  {kind}: {count}")
    cycles = run.supervisor.cycles()
    if cycles:
        lines.append("  recovery cycles:")
        for detection, outcome in cycles:
            resolution = (f"{outcome.kind} at step {outcome.step} "
                          f"({outcome.detail})"
                          if outcome is not None else "in flight")
            lines.append(
                f"    node {detection.node_id} {detection.detail} "
                f"at step {detection.step} -> {resolution}"
            )
    lines.append("")
    lines.append("-- traces --")
    if runtime.tracer is None:
        lines.append("tracing disabled (run without --no-trace)")
    else:
        lines.append(runtime.tracer.summary(limit=trace_limit))
    return "\n".join(lines)
