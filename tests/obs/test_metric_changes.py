"""Changes-only metric shards: ``changes_since`` + ``fold_changes``.

The contract: for *any* interleaving of counter increments, gauge sets
(including back to a value already shipped), histogram observations and
new label children or metrics, folding the successive change-sets a
caller ships rebuilds exactly :meth:`MetricsRegistry.snapshot`, and a
registry merged with the folded shard equals one merged with the full
snapshot. This is what lets multiprocess workers ship only what moved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.metrics import NULL_REGISTRY, fold_changes

COUNTERS = ("items_total", "bytes_total")
GAUGES = ("depth", "instances")
HISTOGRAMS = ("span_steps", "chunk_bytes")
LABELS = ("a", "b", "c")

label = st.one_of(st.none(), st.sampled_from(LABELS))
op = st.one_of(
    st.tuples(st.just("inc"), st.sampled_from(COUNTERS), label,
              st.sampled_from((0.0, 1.0, 2.5))),
    # A small value set makes "set back to an earlier value" common.
    st.tuples(st.just("set"), st.sampled_from(GAUGES), label,
              st.sampled_from((0.0, 1.0, 3.0))),
    st.tuples(st.just("observe"), st.sampled_from(HISTOGRAMS), label,
              st.integers(0, 3000)),
    st.tuples(st.just("ship"), st.none(), st.none(), st.none()),
)


def child(registry, kind, name, lab):
    if kind == "inc":
        metric = registry.counter(name, f"{name} help")
    elif kind == "set":
        metric = registry.gauge(name, f"{name} help")
    else:
        metric = registry.histogram(
            name, f"{name} help",
            buckets=(1, 10, 100) if name == "chunk_bytes" else None)
    return metric.labels(te=lab) if lab else metric.labels()


def apply(registry, kind, name, lab, value):
    cell = child(registry, kind, name, lab)
    if kind == "inc":
        cell.inc(value)
    elif kind == "set":
        cell.set(value)
    else:
        cell.observe(value)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(op, max_size=60))
def test_folded_changes_rebuild_the_snapshot(ops):
    registry = MetricsRegistry()
    shipped: dict = {}
    shard = None
    for kind, name, lab, value in ops:
        if kind == "ship":
            shard = fold_changes(shard, registry.changes_since(shipped))
            assert shard == registry.snapshot()
        else:
            apply(registry, kind, name, lab, value)
    shard = fold_changes(shard, registry.changes_since(shipped))
    assert shard == registry.snapshot()
    # Nothing moved since the last call: nothing to ship.
    assert registry.changes_since(shipped) == {}

    base = MetricsRegistry()
    base.counter("items_total", "items_total help").labels(te="a").inc(4)
    base.gauge("coordinator_only").set(2)
    assert (base.merged_with([shard]).snapshot()
            == base.merged_with([registry.snapshot()]).snapshot())


class TestChangesSince:
    def test_first_call_ships_kind_help_and_buckets_then_only_children(self):
        registry = MetricsRegistry()
        registry.histogram("lat", "latency", buckets=(1, 5)).observe(3)
        registry.counter("n", "count").inc()
        shipped: dict = {}
        first = registry.changes_since(shipped)
        assert first["lat"]["buckets"] == (1, 5)
        assert first["n"]["kind"] == "counter"
        registry.counter("n").inc()
        assert registry.changes_since(shipped) == {
            "n": {"children": {(): 2.0}}}

    def test_gauge_back_at_its_shipped_value_is_not_a_change(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth").labels()
        depth.set(5)
        shipped: dict = {}
        registry.changes_since(shipped)
        depth.set(9)
        depth.set(5)
        assert registry.changes_since(shipped) == {}

    def test_fold_is_copy_on_write(self):
        registry = MetricsRegistry()
        count = registry.counter("n").labels()
        count.inc()
        shipped: dict = {}
        fenced = fold_changes(None, registry.changes_since(shipped))
        count.inc()
        live = fold_changes(fenced, registry.changes_since(shipped))
        assert fenced["n"]["children"] == {(): 1.0}
        assert live["n"]["children"] == {(): 2.0}

    def test_null_registry_ships_nothing(self):
        assert NULL_REGISTRY.changes_since({}) == {}
