"""The multiprocess barrier ships only what changed.

At every ``run_until_idle()`` barrier each worker ships one
:class:`~repro.state.base.DeltaChunk` per SE element its mutation
journal marks dirty, or the whole element for a legacy SE whose
overridden ``_store_*`` hooks bypass the journal, plus the results
produced since the previous barrier. The coordinator folds the deltas
into its own elements and appends the results.

Two kinds of tests live here:

* cross-substrate differentials for the delta shapes that can go
  wrong: the whole-element fallback, tombstones, shape metadata
  (``chunk_meta``) of vector and matrix state, and a delta folded into
  an element mid-checkpoint. The in-process runtime is the oracle, and
  ``state_fingerprint`` must match after *every* barrier, not only at
  the end;
* regressions pinning the barrier at O(change): its wire bytes, the
  coordinator's checkpoint entries, and the identity of the result
  lists.
"""

import random

import pytest

from repro.apps import LogisticRegression, MulticlassRegression
from repro.core import SDG
from repro.core.elements import AccessMode, StateKind
from repro.durability.manifest import state_fingerprint
from repro.recovery import BackupStore, CheckpointManager, CheckpointPolicy
from repro.runtime import Runtime, RuntimeConfig
from repro.state import KeyValueMap
from repro.testing import build_kv_sdg


class LegacyKV(KeyValueMap):
    """A KV SE that overrides the ``_store_*`` hooks against its own
    dict: its mutations bypass the journal, so it is not
    ``delta_capable`` and the barrier must ship it whole."""

    def __init__(self):
        super().__init__()
        self._own = {}

    def _store_set(self, key, value):
        self._own[key] = value

    def _store_get(self, key):
        return self._own[key]

    def _store_delete(self, key):
        del self._own[key]

    def _store_contains(self, key):
        return key in self._own

    def _store_items(self):
        return iter(self._own.items())

    def _store_clear(self):
        self._own.clear()

    def spawn_empty(self):
        return LegacyKV()


def build_ops_kv_sdg(factory=KeyValueMap):
    """``build_kv_sdg`` plus deletes: inject ``(op, key, value)`` with
    ``op`` one of ``put``/``del``/``get`` into ``serve``. One entry TE
    keeps every key's operations in injection order on both
    substrates."""
    sdg = SDG("kv_ops")
    sdg.add_state("table", factory, kind=StateKind.PARTITIONED,
                  partition_by="key")

    def serve(ctx, request):
        op, key, value = request
        if op == "put":
            ctx.state.put(key, value)
        elif op == "del":
            if ctx.state.contains(key):
                ctx.state.delete(key)
        else:
            return (key, ctx.state.get(key))
        return None

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda request: request[1],
                 entry_key_name="key")
    return sdg


def per_barrier(sdg, drains, substrate, workers=None, partitions=4):
    """Run ``drains`` (one barrier each); return the state fingerprint
    and the sorted results after every barrier."""
    config = RuntimeConfig(se_instances={"table": partitions},
                           substrate=substrate, workers=workers)
    runtime = Runtime(sdg, config).deploy()
    views = []
    try:
        for drain in drains:
            for request in drain:
                runtime.inject("serve", request)
            runtime.run_until_idle()
            views.append((state_fingerprint(runtime),
                          sorted(map(repr, runtime.results["serve"]))))
    finally:
        runtime.close()
    return views


def put(key, value):
    return ("put", f"k{key}", value)


def delete(key):
    return ("del", f"k{key}", None)


def get(key):
    return ("get", f"k{key}", None)


#: A put/delete stream whose barriers cover every journal shape:
#: plain tombstones, a tombstone revived by a later barrier,
#: delete-then-rewrite and write-then-delete inside one barrier (the
#: latter a tombstone for a key the coordinator never held), and a
#: partition emptied completely.
DELETE_DRAINS = [
    [put(i, i) for i in range(40)],
    [delete(i) for i in range(0, 40, 2)]
    + [put(i, 100 + i) for i in range(40, 50)]
    + [get(i) for i in range(6)],
    [put(0, "revived"), delete(41), put(41, "rewritten"),
     put(60, "fleeting"), delete(60)]
    + [get(i) for i in (0, 41, 60)],
    [delete(i) for i in range(70)] + [get(i) for i in range(3)],
    [put(i, -i) for i in range(5)],
]


class TestDeltaEdgeCases:
    """mp2 == in-process after every barrier, per delta shape."""

    def test_legacy_se_ships_whole(self):
        drains = [[put(i, i) for i in range(30)],
                  [put(i, 2 * i) for i in range(0, 30, 3)]
                  + [get(i) for i in range(5)],
                  [delete(i) for i in range(10)] + [get(i) for i in range(12)]]
        assert not LegacyKV().delta_capable
        multi = per_barrier(build_ops_kv_sdg(LegacyKV), drains,
                            "multiprocess", workers=2)
        assert multi == per_barrier(build_ops_kv_sdg(LegacyKV), drains,
                                    "inprocess")

    def test_deletes_between_barriers_ship_tombstones(self):
        multi = per_barrier(build_ops_kv_sdg(), DELETE_DRAINS,
                            "multiprocess", workers=2)
        inproc = per_barrier(build_ops_kv_sdg(), DELETE_DRAINS, "inprocess")
        assert multi == inproc
        # The stream really empties the store before refilling it.
        assert inproc[3][0] == per_barrier(build_ops_kv_sdg(), [[]],
                                           "inprocess")[0][0]

    @pytest.mark.parametrize("program, width, classes", [
        (LogisticRegression, 3, 2),      # Vector state
        (MulticlassRegression, 6, 3),    # DenseMatrix state
    ])
    def test_vector_and_matrix_state_carry_chunk_meta(self, program,
                                                      width, classes):
        def run(substrate, workers=None):
            config = RuntimeConfig(substrate=substrate, workers=workers)
            app = program.launch(config, weights=2)
            rng = random.Random(3)
            views = []
            try:
                for _ in range(3):
                    for _ in range(40):
                        features = [1.0] + [rng.uniform(-2, 2)
                                            for _ in range(width - 1)]
                        app.train(features, rng.randrange(classes), 0.1)
                    app.run()
                    views.append(state_fingerprint(app.runtime))
                app.get_model()
                app.run()
                return views, app.results("get_model")
            finally:
                app.runtime.close()

        assert run("multiprocess", workers=2) == run("inprocess")

    def test_checkpoint_pending_across_a_barrier(self):
        # Deltas folded in while a checkpoint is in progress land in
        # the dirty overlay: the checkpoint holds the pre-begin state
        # and the next delta carries the rest, as in-process.
        def checkpoints(substrate, workers=None):
            config = RuntimeConfig(
                se_instances={"table": 2}, substrate=substrate,
                workers=workers,
                checkpoint_policy=CheckpointPolicy(full_every=0))
            runtime = Runtime(build_kv_sdg(), config).deploy()
            manager = CheckpointManager(runtime, BackupStore(m_targets=2))
            try:
                for i in range(10):
                    runtime.inject("serve", ("put", i, i))
                runtime.run_until_idle()
                nodes = sorted({inst.node_id for inst
                                in runtime.se_instances("table")})
                pending = [manager.begin(node) for node in nodes]
                for i in range(5, 20):
                    runtime.inject("serve", ("put", i, -i))
                runtime.run_until_idle()
                taken = [manager.complete(p) for p in pending]
                taken += [manager.checkpoint(node) for node in nodes]
                return ([(c.node_id, c.kind,
                          sorted(item for chunks in c.se_chunks.values()
                                 for chunk in chunks
                                 for item in chunk.items))
                         for c in taken],
                        state_fingerprint(runtime))
            finally:
                runtime.close()

        assert checkpoints("multiprocess", workers=2) \
            == checkpoints("inprocess")


def recv_bytes(runtime):
    return runtime.metrics.value("wire_bytes_total", direction="recv",
                                 role="coordinator")


class TestBarrierIsOChange:
    """The barrier costs O(change), not O(state + history)."""

    def test_second_barrier_ships_only_the_change(self):
        # Each barrier also carries fixed telemetry (~3 kB of metrics
        # snapshot per worker frame); 64-byte values make the preloaded
        # state, not that telemetry, the bulk of the first barrier.
        config = RuntimeConfig(se_instances={"table": 4},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        try:
            for i in range(2000):
                runtime.inject("serve", ("put", i, f"{i:064d}"))
            start = recv_bytes(runtime)
            runtime.run_until_idle()
            first = recv_bytes(runtime) - start
            runtime.inject("serve", ("put", 7, "changed"))
            start = recv_bytes(runtime)
            runtime.run_until_idle()
            second = recv_bytes(runtime) - start
        finally:
            runtime.close()
        assert second < 0.25 * first

    def test_checkpoint_entries_match_inprocess(self):
        def entries(substrate, workers=None):
            config = RuntimeConfig(
                se_instances={"table": 4}, substrate=substrate,
                workers=workers,
                checkpoint_policy=CheckpointPolicy(full_every=4))
            runtime = Runtime(build_kv_sdg(), config).deploy()
            manager = CheckpointManager(runtime, BackupStore(m_targets=2))
            rng = random.Random(11)
            try:
                for drain in range(10):
                    for _ in range(50):
                        runtime.inject("serve",
                                       ("put", rng.randrange(300), drain))
                    runtime.run_until_idle()
                    manager.checkpoint_all()
                return (runtime.merged_metrics().total(
                    "recovery_checkpoint_entries_total"),
                    state_fingerprint(runtime))
            finally:
                runtime.close()

        inproc = entries("inprocess")
        assert entries("multiprocess", workers=2) == inproc

    def test_results_keep_their_identity_across_barriers(self):
        config = RuntimeConfig(se_instances={"table": 4},
                               substrate="multiprocess", workers=2)
        runtime = Runtime(build_kv_sdg(), config).deploy()
        try:
            results = runtime.results["serve"]
            for drain in range(3):
                runtime.inject("serve", ("put", drain, drain))
                runtime.inject("serve", ("get", drain, None))
                runtime.run_until_idle()
                assert runtime.results["serve"] is results
            assert sorted(results) == [(0, 0), (1, 1), (2, 2)]
        finally:
            runtime.close()
