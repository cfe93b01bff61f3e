"""Run one substrate side of one workload and print its figures as JSON.

``run.py`` starts this module once per substrate, each in a fresh
interpreter, so that peak RSS and CPU time belong to one substrate.
The last line of standard output is one JSON object.

Untraced (``--trace 0``): deploy ``SETUPS`` times (the last deployment
serves the run), preload, warm up, then time the drains in slices;
in-process, a fail/recover cycle on a second deployment follows each
slice. Traced (``--trace 1``): the same drains once untraced and once
with spans on, for the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from collections import Counter
from time import perf_counter

from repro.durability.manifest import state_fingerprint
from repro.recovery import (BackupStore, CheckpointManager, CheckpointPolicy,
                            RecoveryManager)
from repro.runtime import Runtime

from spans import (COORDINATOR_POINTS, INPROCESS_POINTS, PROBE, RECOVERY,
                   SETUP, WARMUP, SpanRecorder)
from workloads import WORKLOADS

#: Deployments per side; setup time is their median.
SETUPS = 9
#: Untimed drains after the preload, before timing starts.
WARMUP_DRAINS = 100
#: Drains per throughput window; throughput is the median window.
WINDOW = 50
#: Fail/recover cycles of the traced run (in-process side); the
#: end-to-end run makes one after each timed slice.
RECOVERY_CYCLES = 5
#: Drains between a cycle's checkpoint and its node failure.
RECOVERY_OFFSET = 8
#: ``run_until_idle()`` calls on an idle runtime, to price the barrier.
BARRIER_PROBES = 20
#: ``checkpoint_all()`` calls after the traced drains.
CHECKPOINT_PROBES = 5
#: At least this many timed drains per side, so p99 has 10 beyond it.
MIN_DRAINS = 1000


class Client:
    """The closed-loop client: one drain at a time, checked on return."""

    def __init__(self, workload, runtime, manager=None) -> None:
        self.workload = workload
        self.runtime = runtime
        self.manager = manager
        self.oracle = workload.make_oracle()
        self.attempted = 0
        self.failed = 0
        self._bucket = None
        self._checked = 0
        self._expected = Counter()
        self._expected_hash = 0
        self._carried = 0

    def drain(self, items, checkpoint: bool = False) -> float:
        """Inject, optionally checkpoint, run to idle; returns wall s."""
        runtime = self.runtime
        inject, entry = runtime.inject, self.workload.entry
        t0 = perf_counter()
        for item in items:
            inject(entry, item)
        if checkpoint:
            self.manager.checkpoint_all()
        runtime.run_until_idle()
        elapsed = perf_counter() - t0
        self._check(items)
        return elapsed

    def _check(self, items) -> None:
        """Compare this drain's results with the oracle's, as multisets."""
        expected = self.oracle.apply(items)
        self.attempted += len(items)
        te = self.workload.result_te
        if te is None:
            return
        bucket = self.runtime.results.get(te, [])
        self._expected.update(expected)
        self._expected_hash += sum(map(hash, expected))
        if bucket is self._bucket:
            got = Counter(bucket[self._checked:])
            wrong = _mismatch(got, Counter(expected))
        elif sum(map(hash, bucket)) == self._expected_hash:
            # The multiprocess barrier rebuilds the result lists from the
            # workers' shards, so the cumulative multiset is compared,
            # first by a sum of element hashes (a multiset hash); only
            # discrepancies new since the last drain count against it.
            wrong = self._carried = 0
        else:
            cumulative = _mismatch(Counter(bucket), self._expected)
            wrong, self._carried = cumulative - self._carried, cumulative
        self._bucket, self._checked = bucket, len(bucket)
        self.failed += min(max(wrong, 0), len(items))

    def check_state(self) -> int:
        """Count entries where the SE differs from the oracle."""
        merged = {}
        for instance in self.runtime.se_instances(self.workload.state):
            merged.update(instance.element.items())
        want = self.oracle.state
        return sum(1 for key in set(merged) | set(want)
                   if merged.get(key) != want.get(key))


def _mismatch(got: Counter, want: Counter) -> int:
    """Items missing from ``got`` plus items it holds in excess."""
    return sum(((got - want) + (want - got)).values())


def deploy(workload, substrate: str, count: int, **extra):
    """Deploy ``count`` times; keep the last runtime, return setup times."""
    times = []
    runtime = None
    for _ in range(count):
        if runtime is not None:
            runtime.close()
        sdg = workload.build()
        t0 = perf_counter()
        runtime = Runtime(sdg, workload.config(substrate, **extra)).deploy()
        times.append(perf_counter() - t0)
    return runtime, times


def cpu_seconds() -> float:
    """CPU time of this process plus its live worker processes."""
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live worker processes."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def drain_stats(latencies, items_per_drain: int) -> dict:
    """Median-of-windows throughput plus per-drain latency percentiles."""
    windows = [
        WINDOW * items_per_drain / sum(latencies[i:i + WINDOW])
        for i in range(0, len(latencies) - WINDOW + 1, WINDOW)
    ]
    ordered = sorted(latencies)
    return {
        "drains": len(latencies),
        "throughput_items_s": statistics.median(windows),
        "latency_p50_ms": percentile(ordered, 50) * 1e3,
        "latency_p99_ms": percentile(ordered, 99) * 1e3,
        "drain_wall_s": sum(latencies),
    }


class Side:
    """One deployment of a workload on one substrate, driven to the end."""

    def __init__(self, workload, substrate: str, seed: int,
                 timed_drains: int, recorder: SpanRecorder | None = None,
                 setups: int = SETUPS, recovery_cycles: int = 0,
                 **extra) -> None:
        self.workload = workload
        self.substrate = substrate
        self.recorder = recorder
        preload, next_drain = workload.make_stream(seed,
                                                  workload.drain_items)
        # Every input exists before the first deployment.
        self.preload = preload
        self.warmup = [next_drain() for _ in range(WARMUP_DRAINS)]
        self.timed = [next_drain() for _ in range(timed_drains)]
        self.recovery_drains = [
            [next_drain() for _ in range(RECOVERY_OFFSET)]
            for _ in range(recovery_cycles)]
        self.mark(SETUP)
        self.runtime, self.setup_times = deploy(workload, substrate,
                                                setups, **extra)
        self.manager = CheckpointManager(self.runtime,
                                         BackupStore(m_targets=2))
        self.client = Client(workload, self.runtime, self.manager)
        self.mark(WARMUP)
        self.recovery = Recovery(self) if recovery_cycles else None

    def mark(self, drain: int) -> None:
        if self.recorder is not None:
            self.recorder.current_drain = drain

    def warm(self) -> None:
        self.mark(WARMUP)
        for items in self.preload + self.warmup:
            self.client.drain(items)

    def run_timed(self, start: int = 0, stop: int | None = None,
                  fingerprint_at: int = 0) -> list[float]:
        """Time drains ``start:stop``; fingerprint the state after the
        first ``fingerprint_at`` drains (the prefix both substrates run)."""
        every = self.workload.checkpoint_every
        latencies = []
        for index in range(start, len(self.timed) if stop is None else stop):
            self.mark(index)
            latencies.append(self.client.drain(
                self.timed[index],
                checkpoint=bool(every) and (index + 1) % every == 0))
            if index + 1 == fingerprint_at:
                self.fingerprint = state_fingerprint(self.runtime)
        self.mark(WARMUP)
        return latencies

    def bookkeeping(self) -> dict:
        runtime = self.runtime
        return {
            "input_buffer_entries": sum(
                len(buffered) for buffered in
                runtime.input_buffers_snapshot().values()),
            "results_entries": sum(len(items)
                                   for items in runtime.results.values()),
            "state_entries": sum(
                len(instance.element) for name in runtime.sdg.states
                for instance in runtime.se_instances(name)),
        }

    def close(self) -> None:
        self.runtime.close()
        if self.recovery is not None:
            self.recovery.runtime.close()

    @property
    def attempted(self) -> int:
        return self.client.attempted + (
            self.recovery.client.attempted if self.recovery else 0)

    @property
    def failed(self) -> int:
        return self.client.failed + (
            self.recovery.client.failed if self.recovery else 0)


class Recovery:
    """Fail/recover cycles on a deployment of their own.

    Its own deployment keeps the cycles out of the timed stream, so the
    end-to-end side can run one cycle after each timed slice and spread
    its samples over the run like the drains. A cycle takes a full
    checkpoint of every node, drains ``RECOVERY_OFFSET`` drains, then
    fails and recovers the node of every SE partition in turn: full
    checkpoints make the cycles cost alike (a delta chain, or input
    logs that only full cycles trim, would tie a cycle's cost to its
    place in the cadence), and failing every partition keeps the median
    from hinging on one partition's share of the hot keys. A sample
    runs from ``fail_node`` until the deployment is idle again; the
    state is checked after each cycle.
    """

    def __init__(self, side: Side) -> None:
        self.side = side
        self.runtime, _ = deploy(side.workload, side.substrate, 1)
        self.manager = CheckpointManager(self.runtime,
                                         BackupStore(m_targets=2),
                                         policy=CheckpointPolicy())
        self.recoverer = RecoveryManager(self.runtime, self.manager.store)
        self.client = Client(side.workload, self.runtime)
        for items in side.preload:
            self.client.drain(items)
        self._drains = iter(side.recovery_drains)

    def cycle(self) -> list[float]:
        side, runtime = self.side, self.runtime
        self.manager.checkpoint_all()
        for items in next(self._drains):
            self.client.drain(items)
        times = []
        for index in range(side.workload.partitions):
            node = runtime.se_instance(side.workload.state, index).node_id
            side.mark(RECOVERY)
            t0 = perf_counter()
            runtime.fail_node(node)
            self.recoverer.recover_node(node)
            runtime.run_until_idle()
            times.append(perf_counter() - t0)
            side.mark(WARMUP)
        self.client.failed += self.client.check_state()
        return times


def timed_drains(workload, substrate: str, seconds: float) -> int:
    rate = workload.drains_per_s[substrate == "multiprocess"]
    return max(MIN_DRAINS, round(rate * seconds / 2))


def run_untraced(workload, substrate: str, seed: int, seconds: float,
                 blocks: int) -> dict:
    """The end-to-end side, timed in ``blocks`` slices on command.

    The parent alternates the two substrates' slices, so both sides
    sample the same stretch of machine time. Protocol on stdin/stdout:
    ``ready`` after warm-up; each ``run`` line times the next slice and
    answers ``ok``; ``finish`` ends the run and is answered with the
    figures as one JSON line.
    """
    inprocess = substrate == "inprocess"
    side = Side(workload, substrate, seed,
                timed_drains(workload, substrate, seconds),
                recovery_cycles=blocks if inprocess else 0)
    common = min(timed_drains(workload, name, seconds)
                 for name in ("inprocess", "multiprocess"))
    try:
        side.warm()
        latencies, cpu, recovery = [], 0.0, []
        bounds = [len(side.timed) * k // blocks for k in range(blocks + 1)]
        say("ready")
        for start, stop in zip(bounds, bounds[1:]):
            await_command("run")
            cpu0 = cpu_seconds()
            latencies += side.run_timed(start, stop, fingerprint_at=common)
            cpu += cpu_seconds() - cpu0
            if inprocess:
                recovery += side.recovery.cycle()
            say("ok")
        await_command("finish")
        out = drain_stats(latencies, workload.drain_items)
        out["latencies_s"] = latencies
        out["peak_rss_mb"] = peak_rss_mb()
        out["cpu_s"] = cpu
        out["items"] = len(latencies) * workload.drain_items
        out["fingerprint"] = side.fingerprint
        out["setup_s"] = side.setup_times
        out["recovery_s"] = recovery
        side.client.failed += side.client.check_state()
        out["attempted"] = side.attempted
        out["failed"] = side.failed
    finally:
        side.close()
    return out


def say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def await_command(expected: str) -> None:
    line = sys.stdin.readline().strip()
    if line != expected:
        raise RuntimeError(f"expected {expected!r} from run.py, got {line!r}")


def _metric_totals(registry, names) -> dict:
    return {name: registry.total(name) for name in names}


COUNTERS = (
    "engine_steps_total", "transport_delivered_total",
    "dispatch_coalesced_total", "wire_frames_total", "wire_bytes_total",
    "recovery_checkpoint_entries_total", "recovery_checkpoint_bytes_total",
    "recovery_replayed_envelopes_total", "state_journal_mutations_total",
)


def _diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _profile(runtime) -> dict:
    profile = runtime.merged_profile()
    if profile is None:
        return {}
    return {name: seconds
            for name, (seconds, _count) in profile.snapshot().items()}


def run_traced(workload, substrate: str, seed: int, out_dir: str,
               tag: str) -> dict:
    """Untraced then traced pass over the same drains; per-layer figures."""
    # The traced pass keeps every span in memory: trace the minimum.
    drains = MIN_DRAINS
    multiprocess = substrate == "multiprocess"
    plain = Side(workload, substrate, seed, drains, setups=1)
    try:
        plain.warm()
        base = drain_stats(plain.run_timed(), workload.drain_items)
        plain.client.failed += plain.client.check_state()
    finally:
        plain.close()

    recorder = SpanRecorder()
    recorder.install(COORDINATOR_POINTS)
    if not multiprocess:
        recorder.install(INPROCESS_POINTS)
    side = Side(workload, substrate, seed, drains, recorder=recorder,
                recovery_cycles=0 if multiprocess else RECOVERY_CYCLES,
                profile=multiprocess)
    try:
        runtime = side.runtime
        side.warm()
        counters0 = _metric_totals(runtime.merged_metrics(), COUNTERS)
        profile0 = _profile(runtime)
        traced = drain_stats(side.run_timed(), workload.drain_items)
        counters = _diff(_metric_totals(runtime.merged_metrics(), COUNTERS),
                         counters0)
        profile = _diff(_profile(runtime), profile0)
        sizes = side.bookkeeping()
        barrier = {}
        if multiprocess:
            barrier = probe_barrier(runtime, recorder)
        # Price checkpoint_all() on every workload, not only on those
        # that checkpoint inside their timed drains.
        side.mark(PROBE)
        for _ in range(CHECKPOINT_PROBES):
            side.manager.checkpoint_all()
        side.mark(WARMUP)
        replayed = 0.0
        if side.recovery is not None:
            for _ in range(RECOVERY_CYCLES):
                side.recovery.cycle()
            replayed = side.recovery.runtime.metrics.total(
                "recovery_replayed_envelopes_total")
        totals = _metric_totals(runtime.merged_metrics(), COUNTERS)
        side.client.failed += side.client.check_state()
        attempted = plain.attempted + side.attempted
        failed = plain.failed + side.failed
    finally:
        recorder.uninstall()
        side.close()

    restores = recorder.durations("recover_node", [RECOVERY])
    checkpoints = recorder.durations("checkpoint_all",
                                     [PROBE, *range(drains)])
    deploys = recorder.durations("deploy", [SETUP])
    timed_self = recorder.self_times(range(drains))
    setup_self = recorder.self_times([SETUP])
    items = drains * workload.drain_items
    layers = {
        "engine.inject_s": timed_self.get("inject", 0.0),
        "engine.run_until_idle_s": timed_self.get("run_until_idle", 0.0),
        "engine.steps_per_item": counters["engine_steps_total"] / items,
        "transport.items_per_delivery": _ratio(
            counters["transport_delivered_total"],
            counters["transport_delivered_total"]
            - counters["dispatch_coalesced_total"]),
        "checkpoint.s": statistics.median(checkpoints),
        "checkpoint.entries": counters["recovery_checkpoint_entries_total"],
        "checkpoint.bytes": counters["recovery_checkpoint_bytes_total"],
        "state.journal_mutations": counters["state_journal_mutations_total"],
        "state.entries": sizes["state_entries"],
        "engine.input_buffer_entries": sizes["input_buffer_entries"],
        "engine.results_entries": sizes["results_entries"],
        "setup.deploy_s": statistics.median(deploys),
        "trace.coverage": sum(timed_self.values()) / traced["drain_wall_s"],
        "trace.overhead": (traced["throughput_items_s"]
                           / base["throughput_items_s"]),
    }
    for name in ("engine_steps_total", "transport_delivered_total",
                 "dispatch_coalesced_total",
                 "recovery_checkpoint_entries_total"):
        layers[f"count.{name}"] = totals[name]
    if multiprocess:
        layers.update({
            "dispatcher.dispatch_s": profile.get("dispatch", 0.0),
            "task.process_s": (profile.get("process", 0.0)
                               - profile.get("dispatch", 0.0)),
            "wire.frames_per_item": counters["wire_frames_total"] / items,
            "wire.bytes_per_item": counters["wire_bytes_total"] / items,
            "wire.serialize_s": profile.get("serialize", 0.0),
            "wire.wait_s": profile.get("wire_wait", 0.0),
            "barrier.s": barrier["s"],
            "barrier.bytes": barrier["bytes"],
            "setup.certify_s": setup_self.get("certify", 0.0) / SETUPS,
            "setup.fork_s": setup_self.get("fork", 0.0) / SETUPS,
            "count.wire_frames_total": totals["wire_frames_total"],
            "count.wire_bytes_total": totals["wire_bytes_total"],
        })
    else:
        layers.update({
            "engine.step_s": timed_self.get("step", 0.0),
            "scheduler.select_s": timed_self.get("select", 0.0),
            "dispatcher.dispatch_s": timed_self.get("dispatch", 0.0),
            "transport.deliver_s": timed_self.get("deliver", 0.0),
            "task.process_s": timed_self.get("process", 0.0),
            "state.op_s": timed_self.get("state_op", 0.0),
            "recovery.restore_s": statistics.median(restores),
            "recovery.replayed_envelopes": replayed / len(restores),
            "count.recovery_replayed_envelopes_total": replayed,
        })
    os.makedirs(out_dir, exist_ok=True)
    recorder.write(os.path.join(out_dir, f"spans-{tag}.jsonl"))
    return {
        "layers": layers,
        "counters": totals,
        "untraced": base,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe_barrier(runtime, recorder) -> dict:
    """Price one barrier: ``run_until_idle()`` on an idle deployment."""
    coordinator = runtime.metrics

    def wire_bytes() -> float:
        return sum(coordinator.value("wire_bytes_total", direction=d,
                                     role="coordinator")
                   for d in ("send", "recv"))

    recorder.current_drain = PROBE
    before = wire_bytes()
    times = []
    for _ in range(BARRIER_PROBES):
        t0 = perf_counter()
        runtime.run_until_idle()
        times.append(perf_counter() - t0)
    recorder.current_drain = WARMUP
    return {"s": statistics.median(times),
            "bytes": (wire_bytes() - before) / BARRIER_PROBES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--substrate", required=True,
                        choices=("inprocess", "multiprocess"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--blocks", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        tag = f"{args.workload}-{args.substrate}-seed{args.seed}"
        out = run_traced(workload, args.substrate, args.seed, args.out_dir,
                         tag)
    else:
        out = run_untraced(workload, args.substrate, args.seed,
                           args.seconds, args.blocks)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
