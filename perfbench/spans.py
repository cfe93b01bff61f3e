"""Benchmark-side span recording around each layer's public entry points.

The traced run wraps the calls into each layer from outside the
program: a wrapper records name, start, end, parent span and drain id,
and keeps every span in memory until :meth:`SpanRecorder.write`. A
span's *self time* is its duration minus the time its children cover.

Only the in-process side wraps the hot path. Forked workers inherit
patched classes but cannot return spans, so the multiprocess side wraps
only what runs in the coordinator and reads the workers' side from the
runtime's own ``profile=True`` phases and ``wire_*`` counters.
"""

from __future__ import annotations

import json
from time import perf_counter

import repro.analysis.capabilities as capabilities
import repro.analysis.substrate as substrate_analysis
from repro.recovery import CheckpointManager, RecoveryManager
from repro.runtime import Runtime
from repro.runtime.multiprocess import MultiprocessSubstrate
from repro.runtime.scheduler import SCHEDULERS
from repro.runtime.substrate import InProcessSubstrate
from repro.runtime.transport import Transport
from repro.state import KeyValueMap

#: Drain ids of spans recorded outside the timed drains.
SETUP, WARMUP, RECOVERY, PROBE = -1, -2, -3, -4

#: (owner, attribute, span name) wrapped in every traced process:
#: calls that only ever run in the coordinator.
COORDINATOR_POINTS = [
    (Runtime, "deploy", "deploy"),
    (capabilities, "certify", "certify"),
    (substrate_analysis, "deploy_findings", "certify"),
    (MultiprocessSubstrate, "bind", "fork"),
    (Runtime, "inject", "inject"),
    (Runtime, "run_until_idle", "run_until_idle"),
    (CheckpointManager, "checkpoint_all", "checkpoint_all"),
    (RecoveryManager, "recover_node", "recover_node"),
]

#: The in-process hot path: engine step, scheduling, task code,
#: dispatch, transport and the state backend. Dispatch is timed at the
#: engine's hand-off to the dispatch layer (routing to successors, or
#: collecting a terminal TE's results), the boundary of the runtime's
#: own ``dispatch`` profile phase that the multiprocess side reports.
INPROCESS_POINTS = [
    (Runtime, "step", "step"),
    (InProcessSubstrate, "process", "process"),
    (Runtime, "_dispatch", "dispatch"),
    (Transport, "deliver", "deliver"),
] + [
    (KeyValueMap, op, "state_op")
    for op in ("put", "get", "increment", "delete", "contains")
] + [
    (scheduler, "select", "select") for scheduler in SCHEDULERS.values()
]


class SpanRecorder:
    """Column-wise in-memory span store with class-level wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.drain: list[int] = []
        self.covered: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        #: Drain id stamped on new spans (the client loop sets it).
        self.current_drain = SETUP

    def install(self, points) -> None:
        for owner, attr, name in points:
            self._wrap(owner, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        rec = self
        names, starts, ends = self.name, self.start, self.end
        parents, drains, covered = self.parent, self.drain, self.covered
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            drains.append(rec.current_drain)
            covered.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            starts.append(t0)
            try:
                return original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ends[index] = t1
                if parent >= 0:
                    covered[parent] += t1 - t0

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    # -- aggregation -----------------------------------------------------

    def self_times(self, drains) -> dict[str, float]:
        """Summed self time per span name over spans in ``drains``."""
        wanted = set(drains)
        totals = dict.fromkeys(self.names, 0.0)
        names = self.names
        for name_id, t0, t1, cov, drain in zip(
                self.name, self.start, self.end, self.covered, self.drain):
            if drain in wanted:
                totals[names[name_id]] += t1 - t0 - cov
        return totals

    def durations(self, name: str, drains) -> list[float]:
        """Inclusive durations of the spans called ``name`` in ``drains``."""
        name_id = self._name_ids.get(name)
        wanted = set(drains)
        return [t1 - t0 for n, t0, t1, d in zip(
                    self.name, self.start, self.end, self.drain)
                if n == name_id and d in wanted]

    def write(self, path: str) -> None:
        """One JSON header line, then one ``[name, start, end, parent,
        drain]`` line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.drain):
                fh.write(json.dumps(row) + "\n")
