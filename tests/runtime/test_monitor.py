"""Tests for the TE monitoring signals of §3.3, read from the registry.

"Each TE is monitored to determine if it constitutes a processing
bottleneck." The engine maintains the signals as metric series —
``runtime_inbox_depth{te}`` (backlog), ``engine_items_processed_total{te}``
(cumulative items) and ``runtime_te_instances{te}`` (live instances) —
and a caller samples them with a step hook reading ``runtime.metrics``.
"""

from repro.runtime import Runtime, RuntimeConfig

from tests.helpers import build_kv_sdg


def deploy():
    runtime = Runtime(build_kv_sdg(),
                      RuntimeConfig(se_instances={"table": 2}))
    return runtime.deploy()


def read(runtime, te="serve"):
    """(backlog, processed, instances) of one TE, straight from metrics."""
    metrics = runtime.metrics
    return (int(metrics.value("runtime_inbox_depth", te=te)),
            int(metrics.value("engine_items_processed_total", te=te)),
            int(metrics.value("runtime_te_instances", te=te)))


def sample_every(runtime, every):
    """Install a step hook that records ``(step, read())`` tuples."""
    samples = []

    def hook(rt):
        if rt.total_steps % every == 0:
            samples.append((rt.total_steps, read(rt)))

    runtime.add_step_hook(hook)
    return samples, hook


class TestMonitor:
    def test_samples_taken_periodically(self):
        runtime = deploy()
        samples, _hook = sample_every(runtime, 10)
        for i in range(100):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert [step for step, _ in samples] == list(range(10, 101, 10))

    def test_baseline_sample_on_install(self):
        # Deploy publishes the gauges before the first step runs.
        runtime = deploy()
        assert runtime.total_steps == 0
        assert read(runtime) == (0, 0, 2)

    def test_backlog_series_drains_to_zero(self):
        runtime = deploy()
        samples, _hook = sample_every(runtime, 5)
        for i in range(50):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        backlog = [reading[0] for _step, reading in samples]
        assert max(backlog) > 0
        assert backlog[-1] == 0
        assert read(runtime)[0] == 0

    def test_throughput_series_steady_state(self):
        runtime = deploy()
        samples, _hook = sample_every(runtime, 10)
        for i in range(200):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        processed = [reading[1] for _step, reading in samples]
        # One TE, one item per step: ten more items every ten steps.
        assert processed == list(range(10, 201, 10))
        assert read(runtime)[1] == 200

    def test_peak_backlog(self):
        runtime = deploy()
        samples, _hook = sample_every(runtime, 1)
        for i in range(30):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert max(reading[0] for _step, reading in samples) >= 25

    def test_instances_tracked_through_scaling(self):
        runtime = deploy()
        for i in range(10):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert read(runtime)[2] == 2
        runtime.scale_up("serve")
        for i in range(10, 20):
            runtime.inject("serve", ("put", i, i))
        runtime.run_until_idle()
        assert read(runtime)[2] == 3
        assert read(runtime)[1] == 20

    def test_uninstall_stops_sampling(self):
        runtime = deploy()
        samples, hook = sample_every(runtime, 1)
        runtime.remove_step_hook(hook)
        runtime.inject("serve", ("put", 1, 1))
        runtime.run_until_idle()
        assert samples == []

    def test_manual_sample(self):
        # Injection alone moves the backlog gauge; no step needed.
        runtime = deploy()
        runtime.inject("serve", ("put", 1, 1))
        assert read(runtime)[0] == 1
