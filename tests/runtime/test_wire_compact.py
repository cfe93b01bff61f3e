"""The multiprocess wire carries only what changed, in compact form.

Two things keep the pipe star small:

* workers ship metric *changes*, not registry snapshots: every
  ``MSG_IDLE`` progress report and every ``MSG_STATE`` barrier reply
  carries only the children that moved since the worker's previous
  report (``MetricsRegistry.changes_since``), and the coordinator folds
  them copy-on-write into its per-worker live shard;
* envelopes travel as ``Envelope.to_wire()`` tuples, not pickled
  dataclasses, and the coordinator relays a worker's ``MSG_OUT`` tuple
  without rebuilding an envelope.

These are byte budgets on the coordinator's own ``wire_bytes_total``
series plus an exactness check: the folded shards must still make
``merged_metrics()`` equal the in-process oracle across a fleet
restart.
"""

import os

from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.wire import MSG_SNAPSHOT, encode_frame
from repro.testing import build_kv_sdg
from tests.runtime.test_multiprocess_obs import BOOM, PUTS, build_crash_once_kv


def coordinator_bytes(runtime, direction):
    return runtime.metrics.value("wire_bytes_total", direction=direction,
                                 role="coordinator")


def kv_fleet():
    config = RuntimeConfig(se_instances={"table": 2},
                           substrate="multiprocess", workers=2)
    return Runtime(build_kv_sdg(), config).deploy()


class TestMetricShardsShipChanges:

    def test_idle_barrier_receives_under_two_kilobytes(self):
        # A full registry snapshot per worker reply came to ~10 kB here;
        # with nothing processed since the last report, the replies
        # carry little more than the wire counters that moved.
        runtime = kv_fleet()
        try:
            for i in range(40):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            before = coordinator_bytes(runtime, "recv")
            runtime.run_until_idle()
            received = coordinator_bytes(runtime, "recv") - before
        finally:
            runtime.close()
        assert received < 2000, received


class TestEnvelopesTravelAsTuples:

    def test_a_small_put_costs_under_150_sent_bytes(self):
        # A pickled Envelope dataclass (with its ChannelId) came to
        # ~277 B per frame; the to_wire() tuple is about a third.
        runtime = kv_fleet()
        n = 200
        try:
            runtime.inject("serve", ("put", "warm", 0))
            runtime.run_until_idle()
            before = coordinator_bytes(runtime, "send")
            for i in range(n):
                runtime.inject("serve", ("put", f"k{i}", i))
            runtime.run_until_idle()
            sent = coordinator_bytes(runtime, "send") - before
            processed = runtime.merged_metrics().total(
                "engine_items_processed_total")
        finally:
            runtime.close()
        assert processed == n + 1
        snapshots = 2 * len(encode_frame((MSG_SNAPSHOT,)))
        per_put = (sent - snapshots) / n
        assert per_put < 150, per_put


class TestRestartStaysExact:

    def merged_totals(self, sdg, substrate, drains, **extra):
        config = RuntimeConfig(se_instances={"table": 2},
                               substrate=substrate, **extra)
        runtime = Runtime(sdg, config).deploy()
        try:
            for drain in drains:
                for request in drain:
                    runtime.inject("serve", request)
                runtime.run_until_idle()
            merged = runtime.merged_metrics()
            return {name: merged.total(name) for name in merged.names()}
        finally:
            runtime.close()

    def test_totals_match_inprocess_after_a_crash_past_a_barrier(
            self, tmp_path):
        # Drain 1 completes a barrier (its shards are fenced); drain 2
        # crashes a worker once, so the fleet re-forks, retires the
        # fenced shards and replays drain 2; drain 3 runs on the new
        # fleet, whose workers start with an empty shipped book.
        drains = [
            PUTS + [("get", f"k{i}", None) for i in range(0, 24, 3)],
            [("put", f"k{i}", 100 + i) for i in range(0, 24, 2)] + [BOOM]
            + [("get", f"k{i}", None) for i in range(0, 24, 4)],
            [("put", f"k{i}", 200 + i) for i in range(0, 24, 5)],
        ]
        flag = str(tmp_path / "crashed.flag")
        crashed = self.merged_totals(build_crash_once_kv(flag),
                                     "multiprocess", drains, workers=2,
                                     worker_restarts=1)
        assert os.path.exists(flag), "the crash never happened"
        preset = str(tmp_path / "preset.flag")
        open(preset, "w").close()
        oracle = self.merged_totals(build_crash_once_kv(preset),
                                    "inprocess", drains)
        assert oracle["engine_items_processed_total"] > 0
        assert {name: crashed.get(name) for name in oracle} == oracle
