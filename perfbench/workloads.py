"""The benchmark's seeded workloads and their plain-Python oracles.

A workload is a deployment (SDG + ``RuntimeConfig``) plus a stream of
*drains*: lists of items the closed-loop client injects before calling
``run_until_idle()``. Every input is generated from the seed before any
timing starts; the runtime only ever sees the generated items. Each
workload carries an oracle that applies the same stream to plain Python
containers, so every drain's results and the final state can be
checked.

Why these three (the layer each stresses, and the one it bypasses):

* ``kv_serve`` — the serving shape: 32 partitions of a Zipf-keyed KV
  store with ``optimize=True`` and a delta ``checkpoint_all()`` every
  ``checkpoint_every`` drains. In-process the cost is engine, scheduler
  and state backend; on multiprocess it is coordinator sends plus a
  barrier per drain. It makes no relay hops.
* ``wordcount_relay`` — each line fans out 1->8 over a key-partitioned
  edge, so on multiprocess most words cross workers through the
  coordinator: dispatch, serialization and wire relay dominate. Its
  state is bounded by the vocabulary and it keeps no results, so the
  barrier stays cheap.
* ``kv_sleep`` — the latency-bound control: 4 partitions, ~1 ms of
  service time per request, default config. Runtime-overhead work
  should leave it flat.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.apps.wordcount import build_wordcount_sdg
from repro.core import SDG, AccessMode, StateKind
from repro.recovery.policy import CheckpointPolicy
from repro.runtime import RuntimeConfig
from repro.state import KeyValueMap
from repro.testing import build_kv_sdg
from repro.workloads.zipf import ZipfSampler

#: Share of KV requests that are puts (the rest are gets).
PUT_SHARE = 0.8
#: Words per wordcount line.
WORDS_PER_LINE = 8
#: Service time of one ``kv_sleep`` request.
SLEEP_S = 0.001


def build_sleepy_kv_sdg() -> SDG:
    """``build_kv_sdg``'s shape with a fixed service time per request."""
    sdg = SDG("kvstore_sleep")
    sdg.add_state("table", KeyValueMap, kind=StateKind.PARTITIONED,
                  partition_by="key")

    def serve(ctx, request):
        op, key, value = request
        time.sleep(SLEEP_S)
        if op == "put":
            ctx.state.put(key, value)
            return None
        return (key, ctx.state.get(key))

    sdg.add_task("serve", serve, state="table",
                 access=AccessMode.PARTITIONED, is_entry=True,
                 entry_key_fn=lambda req: req[1], entry_key_name="key")
    return sdg


class KVOracle:
    """A dict applying the KV op stream in injection order."""

    def __init__(self) -> None:
        self.state: dict = {}

    def apply(self, ops: list) -> list:
        """Apply one drain; returns the results it must produce."""
        results = []
        state = self.state
        for op, key, value in ops:
            if op == "put":
                state[key] = value
            else:
                results.append((key, state.get(key)))
        return results


class WordcountOracle:
    """A Counter over ``(window, word)``, as ``build_wordcount_sdg``."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.state: Counter = Counter()

    def apply(self, lines: list) -> list:
        state = self.state
        for ts, line in lines:
            window = ts // self.window
            for word in line.split():
                state[(window, word)] += 1
        return []


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: deployment, inputs and oracle."""

    #: Entry TE every item is injected into.
    entry: str
    #: The SE whose contents the oracle checks.
    state: str
    #: TE whose results are checked per drain (None: no results).
    result_te: str | None
    partitions: int
    #: Items per drain in the timed phase.
    drain_items: int
    #: Timed drains per second of ``--seconds`` on the reference box,
    #: per substrate (inprocess, multiprocess): fixes each side's work
    #: so every commit measures the same input stream.
    drains_per_s: tuple[float, float]
    #: Drains between two ``checkpoint_all()`` calls (0: none).
    checkpoint_every: int
    optimize: bool
    build: Callable[[], SDG]
    #: ``make_stream(seed, drain_items) -> (preload_drains, next_drain)``.
    make_stream: Callable
    make_oracle: Callable[[], object]
    #: Full/delta cadence of the timed-phase checkpoints.
    full_every: int = 1

    def config(self, substrate: str, **extra) -> RuntimeConfig:
        return RuntimeConfig(
            se_instances={self.state: self.partitions},
            optimize=self.optimize,
            checkpoint_policy=CheckpointPolicy(full_every=self.full_every),
            substrate=substrate,
            workers=2 if substrate == "multiprocess" else None,
            **extra,
        )


def _kv_stream(keys: int):
    """Preloaded key space, then Zipf(1.0) puts/gets over it.

    Key ``k`` has popularity rank ``k`` for every seed, so the hot keys,
    and with them the load on each partition and worker, do not change
    with the seed; the seed draws the request sequence.
    """

    def make(seed: int, drain_items: int):
        rng = random.Random(seed)
        zipf = ZipfSampler(keys, 1.0, seed=rng.randrange(1 << 32))
        preload = [[("put", key, -1) for key in range(i, min(i + 256, keys))]
                   for i in range(0, keys, 256)]
        seq = iter(range(1 << 62))

        def drain() -> list:
            ops = []
            for _ in range(drain_items):
                key = zipf.sample()
                if rng.random() < PUT_SHARE:
                    ops.append(("put", key, next(seq)))
                else:
                    ops.append(("get", key, None))
            return ops

        return preload, drain

    return make


def _wordcount_stream(vocabulary: int):
    """Lines of ``WORDS_PER_LINE`` Zipf(1.0) words, timestamped 0, 1, ...

    Word ``w<k>`` has popularity rank ``k`` for every seed (see
    ``_kv_stream``).
    """

    def make(seed: int, drain_items: int):
        words = [f"w{i}" for i in range(vocabulary)]
        zipf = ZipfSampler(vocabulary, 1.0, seed=seed)
        clock = iter(range(1 << 62))

        def drain() -> list:
            return [(next(clock),
                     " ".join(words[zipf.sample()]
                              for _ in range(WORDS_PER_LINE)))
                    for _ in range(drain_items)]

        return [], drain

    return make


#: Lines per wordcount window: a run spans a handful of windows, so the
#: counts SE stays bounded by (windows x vocabulary).
WORDCOUNT_WINDOW = 4096

WORKLOADS = {
    "kv_serve": Workload(
        entry="serve", state="table", result_te="serve",
        partitions=32, drain_items=16, drains_per_s=(2800.0, 190.0),
        checkpoint_every=32, full_every=8, optimize=True,
        build=build_kv_sdg, make_stream=_kv_stream(2048),
        make_oracle=KVOracle,
    ),
    "wordcount_relay": Workload(
        entry="split", state="counts",
        result_te=None, partitions=8, drain_items=4,
        drains_per_s=(1150.0, 270.0), checkpoint_every=0, optimize=False,
        build=lambda: build_wordcount_sdg(WORDCOUNT_WINDOW),
        make_stream=_wordcount_stream(1024),
        make_oracle=lambda: WordcountOracle(WORDCOUNT_WINDOW),
    ),
    "kv_sleep": Workload(
        entry="serve", state="table", result_te="serve",
        partitions=4, drain_items=8, drains_per_s=(105.0, 125.0),
        checkpoint_every=0, optimize=False,
        build=build_sleepy_kv_sdg, make_stream=_kv_stream(256),
        make_oracle=KVOracle,
    ),
}
