"""Tests for runtime parallelism: scale-up and bottleneck detection."""

from repro.runtime import BottleneckDetector, Runtime, RuntimeConfig

from tests.helpers import build_cf_sdg, build_kv_sdg


class TestPartitionedScaleUp:
    def deploy(self, n=2):
        return Runtime(build_kv_sdg(),
                       RuntimeConfig(se_instances={"table": n},
                                     max_instances=8)).deploy()

    def test_scale_preserves_state(self):
        runtime = self.deploy(2)
        for i in range(50):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        assert runtime.scale_up("serve")
        assert len(runtime.se_instances("table")) == 3
        merged = {}
        for inst in runtime.se_instances("table"):
            merged.update(dict(inst.element.items()))
        assert merged == {f"k{i}": i for i in range(50)}

    def test_scale_rebalances_partitions(self):
        runtime = self.deploy(1)
        for i in range(60):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        runtime.scale_up("serve")
        runtime.scale_up("serve")
        sizes = [len(inst.element)
                 for inst in runtime.se_instances("table")]
        assert sum(sizes) == 60
        assert all(size > 0 for size in sizes)

    def test_reads_after_scale_hit_correct_partition(self):
        runtime = self.deploy(2)
        for i in range(30):
            runtime.inject("serve", ("put", f"k{i}", i))
        runtime.run_until_idle()
        runtime.scale_up("serve")
        for i in range(30):
            runtime.inject("serve", ("get", f"k{i}", None))
        runtime.run_until_idle()
        assert sorted(runtime.results["serve"]) == sorted(
            (f"k{i}", i) for i in range(30)
        )

    def test_queued_envelopes_rerouted_on_scale(self):
        runtime = self.deploy(1)
        for i in range(25):
            runtime.inject("serve", ("put", f"k{i}", i))
        # Scale while items are still queued: they must be re-routed to
        # the partition that owns them under the new partitioner.
        runtime.scale_up("serve")
        runtime.run_until_idle()
        partitioner = runtime._partitioners["table"]
        for inst in runtime.se_instances("table"):
            for key in inst.element.keys():
                assert partitioner.partition(key) == inst.index

    def test_max_instances_respected(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 2},
                                        max_instances=2)).deploy()
        assert not runtime.scale_up("serve")

    def test_scale_event_recorded(self):
        runtime = self.deploy(1)
        runtime.scale_up("serve")
        assert runtime.scale_events == [(0, "serve", 2)]


class TestPartialScaleUp:
    def test_new_replica_starts_empty_and_serves_reads(self):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"userItem": 1, "coOcc": 1}),
        ).deploy()
        ratings = [(0, 0, 5), (0, 1, 3), (1, 0, 4)]
        for rating in ratings:
            runtime.inject("updateUserItem", rating)
        runtime.run_until_idle()
        baseline = None
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        baseline = runtime.results["mergeRec"][-1][1]

        assert runtime.scale_up("updateCoOcc")
        assert len(runtime.se_instances("coOcc")) == 2
        # The new replica is empty; a global read now gathers from both,
        # and the merged sum equals the old single-replica answer.
        runtime.inject("getUserVec", 0)
        runtime.run_until_idle()
        after = runtime.results["mergeRec"][-1][1]
        assert after.to_list() == baseline.to_list()

    def test_scaling_one_te_scales_sibling_accessors(self):
        runtime = Runtime(
            build_cf_sdg(),
            RuntimeConfig(se_instances={"coOcc": 1}),
        ).deploy()
        runtime.scale_up("updateCoOcc")
        # getRecVec accesses the same partial SE, so it must have gained
        # an instance too (global access spans all replicas).
        assert len(runtime.te_instances("getRecVec")) == 2

    def test_merge_te_never_scaled(self):
        runtime = Runtime(build_cf_sdg()).deploy()
        assert not runtime.scale_up("mergeRec")


class TestBottleneckDetector:
    def test_backlogged_te_flagged(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 1})).deploy()
        for i in range(200):
            runtime.inject("serve", ("put", i, i))
        detector = BottleneckDetector(threshold=50, max_instances=4)
        assert detector.bottlenecks(runtime) == ["serve"]

    def test_drained_te_not_flagged(self):
        runtime = Runtime(build_kv_sdg()).deploy()
        runtime.inject("serve", ("put", 1, 1))
        runtime.run_until_idle()
        detector = BottleneckDetector(threshold=1)
        assert detector.bottlenecks(runtime) == []

    def test_straggler_instances_reported(self):
        runtime = Runtime(build_kv_sdg(),
                          RuntimeConfig(se_instances={"table": 2})).deploy()
        slow_instance = runtime.te_instances("serve")[1]
        runtime.nodes[slow_instance.node_id].speed = 0.4
        detector = BottleneckDetector()
        assert detector.straggling_instances(runtime, "serve") == [1]

    def test_auto_scale_adds_instances_under_load(self):
        runtime = Runtime(
            build_kv_sdg(),
            RuntimeConfig(se_instances={"table": 1}, auto_scale=True,
                          scale_threshold=20, max_instances=4,
                          scale_check_every=50),
        ).deploy()
        for i in range(400):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert len(runtime.te_instances("serve")) > 1
        merged = {}
        for inst in runtime.se_instances("table"):
            merged.update(dict(inst.element.items()))
        assert merged == {i: i for i in range(400)}
