"""Tests for capability-driven dispatch (``RuntimeConfig(optimize=True)``).

The optimizer's contract has two halves, and the suite pins both:

*Soundness* — every relaxed path is gated on a certificate. Uncertified
programs deployed with ``optimize=True`` take the exact baseline path:
no step drains more than one envelope, no fold is installed, no
journal batch opens, and the differentials below prove
``state_fingerprint`` equality between optimized and baseline runs on
both substrates. Draining keeps every per-envelope guarantee: a crash
mid-run leaves the unserved tail queued, and traced runs keep one hop
per envelope.

*Liveness* — certified programs actually take the relaxed paths: one
engine step drains a run of same-channel envelopes and counts the
extras, the gather barrier folds replica values as they arrive, and
the backend batches RMW journal bookkeeping, each observable through
its counter.
"""

from collections import Counter

import pytest

from repro.analysis.capabilities import ProgramCapabilities
from repro.apps import CollaborativeFiltering, KeyValueStore
from repro.apps.wordcount import build_wordcount_sdg
from repro.core.elements import AccessMode, StateKind
from repro.core.graph import SDG
from repro.durability.manifest import state_fingerprint
from repro.errors import RuntimeExecutionError
from repro.recovery import (
    BackupStore,
    CheckpointManager,
    CheckpointScheduler,
    RecoveryManager,
    RecoverySupervisor,
)
from repro.runtime import FailureDetector, Runtime, RuntimeConfig
from repro.runtime.engine import DRAIN_MAX
from repro.state import KeyValueMap
from repro.testing import build_iterative_sdg, build_kv_sdg

CORPUS = (
    "state is made explicit and managed by the runtime",
    "the quick brown fox jumps over the lazy dog",
    "every envelope carries a trace id across the dataflow",
)


def feed(runtime, app, items):
    if app == "kvstore":
        for i in range(items):
            runtime.inject("serve", ("put", i % 7, i))
        for i in range(items // 4):
            runtime.inject("serve", ("get", i % 7, None))
    elif app == "wordcount":
        for i in range(items):
            runtime.inject("split", (i, CORPUS[i % len(CORPUS)]))
    else:  # loop
        for i in range(items):
            runtime.inject("stepA", 3 + i % 4)


BUILDERS = {
    "kvstore": (build_kv_sdg, {"table": 2}),
    "wordcount": (lambda: build_wordcount_sdg(window_size=8),
                  {"counts": 2}),
    "loop": (build_iterative_sdg, {"modelA": 2, "modelB": 2}),
}


def run_once(app, substrate, optimize, items=120):
    builder, se_instances = BUILDERS[app]
    config = RuntimeConfig(se_instances=se_instances, substrate=substrate,
                           workers=2 if substrate == "multiprocess" else None,
                           optimize=optimize)
    runtime = Runtime(builder(), config).deploy()
    try:
        feed(runtime, app, items)
        runtime.run_until_idle()
        fingerprint = state_fingerprint(runtime)
        metrics = runtime.merged_metrics()
        counters = {
            name: metrics.total(name)
            for name in ("dispatch_coalesced_total",
                         "merge_early_completions_total",
                         "state_rmw_batches_total",
                         "engine_items_processed_total")
        }
    finally:
        runtime.close()
    return fingerprint, counters


# ---------------------------------------------------------------------------
# Differentials: optimized state == baseline state, both substrates
# ---------------------------------------------------------------------------


class TestDifferentials:
    @pytest.mark.parametrize("substrate", ["inprocess", "multiprocess"])
    @pytest.mark.parametrize("app", sorted(BUILDERS))
    def test_optimized_state_matches_baseline(self, app, substrate):
        base_fp, base_counters = run_once(app, substrate, optimize=False)
        opt_fp, opt_counters = run_once(app, substrate, optimize=True)
        assert opt_fp == base_fp
        # Same logical work, independent of how deliveries were framed.
        assert (opt_counters["engine_items_processed_total"]
                == base_counters["engine_items_processed_total"])
        # Baseline never coalesces; the optimized certified runs do.
        assert base_counters["dispatch_coalesced_total"] == 0
        assert opt_counters["dispatch_coalesced_total"] > 0

    def test_wordcount_batches_rmw_journals(self):
        _, counters = run_once("wordcount", "inprocess", optimize=True)
        assert counters["state_rmw_batches_total"] > 0


# ---------------------------------------------------------------------------
# Soundness: uncertified programs never take a relaxed path
# ---------------------------------------------------------------------------


class TestUncertifiedNeverRelaxed:
    def test_kvstore_program_takes_the_exact_baseline_path(self):
        app = KeyValueStore.launch(RuntimeConfig(optimize=True), table=2)
        runtime = app.runtime
        # The certificate granted nothing the dispatch layer may use.
        assert "COALESCIBLE_DISPATCH" not in runtime.capabilities.flags
        assert runtime._drain_channels == frozenset()
        assert not runtime._merge_folds

        served_at = []
        original = runtime.substrate.process

        def watch(instance, envelope):
            served_at.append(runtime.total_steps)
            original(instance, envelope)

        runtime.substrate.process = watch
        for i in range(60):
            app.put(i % 9, i)
            app.bump(i % 9, 1)
        app.run()
        for i in range(9):
            app.get(i)
        app.run()
        # One envelope per step: no step ever drained a run.
        assert len(served_at) == len(set(served_at))
        metrics = runtime.merged_metrics()
        assert metrics.total("dispatch_coalesced_total") == 0
        assert metrics.total("merge_early_completions_total") == 0
        sequential = KeyValueStore()
        for i in range(60):
            sequential.put(i % 9, i)
            sequential.bump(i % 9, 1)
        expected = [sequential.get(i) for i in range(9)]
        assert app.results("get") == expected

    def test_uncertified_program_matches_unoptimized_run(self):
        def run(optimize):
            app = KeyValueStore.launch(
                RuntimeConfig(optimize=optimize), table=2)
            for i in range(40):
                app.put(i % 5, i)
                app.bump(i % 5, 1)
            app.run()
            return state_fingerprint(app.runtime)

        assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Liveness: certified paths really engage
# ---------------------------------------------------------------------------


class TestCertifiedPathsEngage:
    def test_steps_plus_drained_equal_served(self):
        def counters(optimize):
            config = RuntimeConfig(se_instances={"table": 2},
                                   optimize=optimize)
            runtime = Runtime(build_kv_sdg(), config).deploy()
            for i in range(50):
                runtime.inject("serve", ("put", i % 3, i))
            runtime.run_until_idle()
            metrics = runtime.merged_metrics()
            return (metrics.total("engine_items_processed_total"),
                    metrics.total("engine_steps_total"),
                    metrics.total("dispatch_coalesced_total"))

        for optimize in (False, True):
            served, steps, coalesced = counters(optimize)
            assert served == 50
            assert steps + coalesced == served
            assert (coalesced > 0) == optimize

    def test_one_step_drains_at_most_drain_max(self):
        config = RuntimeConfig(se_instances={"table": 1}, optimize=True)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        for i in range(200):
            runtime.inject("serve", ("put", i % 5, i))
        (instance,) = runtime.te_instances("serve")
        assert runtime.step()
        assert len(instance.inbox) == 200 - DRAIN_MAX
        runtime.run_until_idle()
        metrics = runtime.merged_metrics()
        steps = metrics.total("engine_steps_total")
        assert steps >= -(-200 // DRAIN_MAX)
        assert steps + metrics.total("dispatch_coalesced_total") == 200
        assert dict(runtime.se_instances("table")[0].element.items()) == {
            k: 195 + k for k in range(5)}

    def test_gather_folds_eagerly_and_counts_completions(self):
        def run(optimize):
            app = CollaborativeFiltering.launch(
                RuntimeConfig(optimize=optimize), user_item=2, co_occ=3)
            for user, item, rating in [(0, 1, 5), (0, 2, 3), (1, 1, 4),
                                       (1, 3, 2), (2, 2, 1)]:
                app.add_rating(user, item, rating)
            app.run()
            app.get_rec(0)
            app.run()
            folds = app.runtime.merged_metrics().total(
                "merge_early_completions_total")
            return app.results("get_rec")[0].to_list(), folds

        base_rec, base_folds = run(False)
        opt_rec, opt_folds = run(True)
        assert base_folds == 0
        assert opt_folds > 0
        assert opt_rec == base_rec


# ---------------------------------------------------------------------------
# Crash mid-drain: lazy popping keeps the per-envelope crash contract
# ---------------------------------------------------------------------------


def build_counter_sdg(fuse):
    """A keyed counter whose task raises once on the ``"boom"`` delta.

    ``fuse`` is a list; the task pops it when it raises, so a replayed
    boom envelope succeeds. The hand-built certificate licenses
    draining on the entry channel.
    """
    sdg = SDG("counter")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED,
                  partition_by="key")

    def add(ctx, request):
        key, delta = request
        if delta == "boom":
            if fuse:
                fuse.pop()
                raise ValueError("boom")
            delta = 100
        ctx.state.put(key, ctx.state.get(key, 0) + delta)

    sdg.add_task("add", add, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda req: req[0], entry_key_name="key")
    caps = ProgramCapabilities(target="counter",
                               coalescible_entries=frozenset({"add"}))
    return sdg, caps


#: One drained run on key "a" whose third envelope raises.
RUN = [("a", 1), ("a", 2), ("a", "boom"), ("a", 4), ("a", 5), ("a", 6)]


def deploy_counter(fuse, table):
    sdg, caps = build_counter_sdg(fuse)
    config = RuntimeConfig(se_instances={"table": table}, optimize=True,
                           capabilities=caps)
    return Runtime(sdg, config).deploy()


def counter_state(runtime):
    merged = {}
    for inst in runtime.se_instances("table"):
        merged.update(dict(inst.element.items()))
    return merged


class TestCrashMidDrain:
    def test_unsupervised_crash_leaves_the_unserved_tail_queued(self):
        runtime = deploy_counter(["armed"], table=1)
        for request in RUN:
            runtime.inject("add", request)
        (instance,) = runtime.te_instances("add")
        with pytest.raises(RuntimeExecutionError, match="boom"):
            runtime.step()
        # The served prefix applied; the three envelopes after the one
        # that raised are still queued, exactly as on the baseline path.
        assert [env.payload for env in instance.inbox] == RUN[3:]
        assert counter_state(runtime) == {"a": 3}

    def test_supervised_crash_reports_the_raising_envelope(self):
        fuse = ["armed"]
        runtime = deploy_counter(fuse, table=2)
        store = BackupStore(m_targets=2)
        manager = CheckpointManager(runtime, store, trim_input_log=False)
        scheduler = CheckpointScheduler(manager, every_items=10,
                                        complete_after_steps=3).install()
        detector = FailureDetector(runtime, heartbeat_timeout=20,
                                   check_every=5).install()
        supervisor = RecoverySupervisor(
            detector, RecoveryManager(runtime, store)).install()
        crashed = []
        runtime.add_crash_handler(
            lambda rt, inst, envelope, exc: crashed.append(envelope))

        oracle: dict = {}
        warmup = [(f"k{i % 7}", i) for i in range(40)]
        for request in warmup + RUN + warmup:
            delta = 100 if request[1] == "boom" else request[1]
            oracle[request[0]] = oracle.get(request[0], 0) + delta
        for request in warmup:
            runtime.inject("add", request)
        runtime.run_until_idle()
        for request in RUN:
            runtime.inject("add", request)
        runtime.run_until_idle()
        for request in warmup:
            runtime.inject("add", request)
        runtime.run_until_idle()
        while not (supervisor.settled
                   and not detector.unreported_dead_nodes()):
            runtime.run_until_idle()

        assert not fuse
        assert [env.payload for env in crashed] == [("a", "boom")]
        assert runtime.merged_metrics().total(
            "dispatch_coalesced_total") > 0
        scheduler.flush()
        runtime.run_until_idle()
        # Recovery replayed the crashed run without re-applying the
        # prefix served before the crash.
        assert counter_state(runtime) == oracle


# ---------------------------------------------------------------------------
# Gates: configuration and tracer interactions
# ---------------------------------------------------------------------------


class TestGates:
    def test_optimize_defaults_off(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        assert runtime.capabilities is None
        assert runtime._drain_channels == frozenset()

    def test_optimize_with_auto_scale_scales_out_mid_run(self):
        config = RuntimeConfig(se_instances={"table": 1}, optimize=True,
                               auto_scale=True, scale_threshold=16,
                               scale_check_every=1, max_instances=4)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        oracle = {}
        for i in range(600):
            runtime.inject("serve", ("put", i % 37, i))
            oracle[i % 37] = i
        runtime.run_until_idle()
        assert runtime.scale_events
        assert len(runtime.se_instances("table")) > 1
        assert runtime.merged_metrics().total(
            "dispatch_coalesced_total") > 0
        partitioner = runtime._partitioners["table"]
        merged = {}
        for inst in runtime.se_instances("table"):
            for key, value in inst.element.items():
                assert partitioner.partition(key) == inst.index
                merged[key] = value
        assert merged == oracle

    def test_traced_drain_keeps_one_hop_per_envelope(self):
        def hops(optimize):
            config = RuntimeConfig(se_instances={"table": 2},
                                   optimize=optimize, trace=True)
            runtime = Runtime(build_kv_sdg(), config).deploy()
            for i in range(30):
                runtime.inject("serve", ("put", i % 3, i))
            runtime.run_until_idle()
            coalesced = runtime.merged_metrics().total(
                "dispatch_coalesced_total")
            seen = Counter(
                (trace.trace_id, hop.te, hop.instance)
                for trace in runtime.tracer.traces() for hop in trace.hops
            )
            return seen, coalesced

        base_hops, base_coalesced = hops(False)
        opt_hops, opt_coalesced = hops(True)
        assert base_coalesced == 0
        assert opt_coalesced > 0
        assert opt_hops == base_hops
        assert sum(opt_hops.values()) == 30

    def test_explicit_capabilities_are_honoured_verbatim(self):
        caps = ProgramCapabilities(target="handmade")  # grants nothing
        config = RuntimeConfig(se_instances={"table": 2}, optimize=True,
                               capabilities=caps)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        assert runtime.capabilities is caps
        assert runtime._drain_channels == frozenset()
