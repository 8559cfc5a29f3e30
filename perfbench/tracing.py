"""Per-layer attribution by wrapping the program's public functions.

The traced run replaces each function below, at the name its caller
actually looks up, with a wrapper that records a span (name, start,
end, parent) and a call count.  Nothing inside ``src/`` changes: the
wrappers live here and are removed again by :meth:`Tracer.uninstall`.
Spans stay in memory and are written out once, when the run ends.

A layer's self time is its span time minus the time of the wrapped
spans nested directly inside it (one thread, so children never
overlap).  The benchmark opens an ``op.*`` span around every request it
issues; the self time of those spans is the part of the end-to-end
time that no wrapped layer covers (``unattributed_ms``).

Every value covers the whole run — set-up, measured phase and restart —
so that the counts repeat exactly for a seed.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager, nullcontext

#: Wrapped callables: (module, attribute path, span name).
LAYERS = (
    ("repro.sp.protocol", "StorageProviderServer.handle", "protocol.handle"),
    ("repro.core.sp_frontend", "ShardedStorageProvider.process_query",
     "sp_frontend.process_query"),
    ("repro.core.sp_frontend", "compress_query_vo", "multiproof.compress"),
    ("repro.core.query.codec", "VOCodec.encode", "codec.encode"),
    ("repro.core.query.codec", "VOCodec.decode", "codec.decode"),
    ("repro.core.system", "HybridStorageSystem.chain_proof_system",
     "system.chain_proof_system"),
    ("repro.ethereum.chain", "Blockchain.call_view", "chain.call_view"),
    ("repro.sp.protocol", "verify_query", "verify.query"),
    ("repro.core.chameleon_index", "ChameleonProofSystem.verify_entry",
     "verify.entry"),
    ("repro.core.merkle_family", "MerkleProofSystem.verify_entry",
     "verify.entry"),
    ("repro.crypto.vc", "verify", "vc.verify"),
    ("repro.core.system", "HybridStorageSystem.__init__", "system.init"),
    ("repro.core.system", "HybridStorageSystem.add_object", "system.add_object"),
    ("repro.core.owner", "DataOwnerPipeline.insert", "owner.insert"),
    ("repro.ethereum.chain", "Blockchain.send_transaction",
     "chain.send_transaction"),
    ("repro.ethereum.chain", "Blockchain.mine_block", "chain.mine_block"),
    ("repro.core.suppressed", "build_updates", "suppressed.build_updates"),
    ("repro.core.sp_frontend", "ShardedStorageProvider.insert_entries",
     "sp_frontend.insert_entries"),
    ("repro.core.chameleon_index", "ChameleonDataOwner.insert",
     "chameleon_index.do_insert"),
    ("repro.crypto.vc", "open_slot", "vc.open"),
    ("repro.crypto.vc", "find_collision", "vc.collision"),
    ("repro.core.persistence", "load_system", "persistence.load_system"),
)

#: Per-layer metrics: name -> (unit, better, what it should move).
PER_LAYER = {
    "protocol.handle_ms": ("ms", "lower", "query_p50_ms on mi-twitter-mixed"),
    "sp_frontend.process_query_ms": ("ms", "lower",
                                     "query_p50_ms on mi-twitter-mixed"),
    "multiproof.compress_ms": ("ms", "lower", "query_p50_ms on mi-twitter-mixed"),
    "codec.encode_ms": ("ms", "lower", "query_p50_ms on cistar-twitter-read"),
    "codec.decode_ms": ("ms", "lower", "query_p50_ms on cistar-twitter-read"),
    "codec.vo_sp_bytes": ("bytes", "lower",
                          "vo_bytes_per_query on cistar-twitter-read"),
    "system.chain_proof_system_ms": ("ms", "lower",
                                     "query_p50_ms on cistar-twitter-read"),
    "chain.call_view_calls": ("count", "lower",
                              "query_p50_ms on cistar-twitter-read"),
    "verify.query_ms": ("ms", "lower", "query_p95_ms on cistar-twitter-read"),
    "verify.entry_calls": ("count", "lower", "ops_per_s on cistar-twitter-read"),
    "vc.verify_calls": ("count", "lower", "ops_per_s on cistar-twitter-read"),
    "vc.verify_ms": ("ms", "lower", "query_p95_ms on cistar-twitter-read"),
    "proofcache.lookups": ("count", "lower", "query_p95_ms on cistar-twitter-read"),
    "proofcache.hit_ratio": ("ratio", "higher",
                             "query_p50_ms on mi-twitter-mixed"),
    "system.add_object_ms": ("ms", "lower", "ingest_p50_ms on smi-dblp-ingest"),
    "owner.insert_ms": ("ms", "lower", "ingest_p50_ms on smi-dblp-ingest"),
    "chain.send_transaction_ms": ("ms", "lower",
                                  "ingest_p50_ms on smi-dblp-ingest"),
    "chain.tx_count": ("count", "lower", "ops_per_s on smi-dblp-ingest"),
    "chain.mine_block_ms": ("ms", "lower", "ingest_p50_ms on smi-dblp-ingest"),
    "suppressed.build_updates_ms": ("ms", "lower",
                                    "ingest_p50_ms on smi-dblp-ingest"),
    "sp_frontend.insert_entries_ms": ("ms", "lower",
                                      "ingest_p50_ms on smi-dblp-ingest"),
    "chameleon_index.do_insert_ms": ("ms", "lower",
                                     "setup_s on cistar-twitter-read"),
    "vc.open_calls": ("count", "lower", "setup_s on cistar-twitter-read"),
    "vc.open_ms": ("ms", "lower", "setup_s on cistar-twitter-read"),
    "vc.collision_calls": ("count", "lower", "setup_s on cistar-twitter-read"),
    "vc.collision_ms": ("ms", "lower", "restart_s on cistar-twitter-read"),
    "persistence.load_system_s": ("s", "lower", "restart_s on every workload"),
    "persistence.replayed_objects": ("count", "lower",
                                     "restart_s on every workload"),
    "system.init_ms": ("ms", "lower", "restart_s on cistar-twitter-read"),
    "unattributed_ms": ("ms", "lower", "every end-to-end timing"),
    "trace_overhead": ("ratio", "higher", "none: traced / untraced ops_per_s"),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class NullTracer:
    """The untraced run: ``op.*`` spans that record nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records spans around the wrapped layers and the benchmark's ops."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.cache_lookups = 0
        self.cache_hits = 0
        self.encoded_bytes = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, original, name: str):
        open_, close = self._open, self._close

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = open_(name)
            try:
                return original(*args, **kwargs)
            finally:
                close(index)

        return traced

    def install(self) -> None:
        """Wrap every layer, plus the proof-cache and codec counters."""
        for module_name, path, name in LAYERS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))

        from repro.core.proofcache import VerificationCache
        from repro.core.query.codec import VOCodec

        seen, encode = VerificationCache.seen, VOCodec.encode

        @functools.wraps(seen)
        def counted_seen(cache, key):
            hit = seen(cache, key)
            self.cache_lookups += 1
            self.cache_hits += bool(hit)
            return hit

        @functools.wraps(encode)
        def counted_encode(codec, vo):
            blob = encode(codec, vo)
            self.encoded_bytes += len(blob)
            return blob

        self._patch(VerificationCache, "seen", counted_seen)
        self._patch(VOCodec, "encode", counted_encode)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_metrics(
        self, seconds, traced_ops_per_s: float, untraced_ops_per_s: float
    ) -> dict:
        """Self times, call counts and ratios, keyed like :data:`PER_LAYER`.

        ``seconds(t0, t1)`` times a span, as the end-to-end metrics are.
        """
        durations = [seconds(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        self_ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        load_s, replayed, loading = 0.0, 0, set()
        for index, (name, _, _, parent) in enumerate(self.spans):
            duration = durations[index]
            self_ms[name] = self_ms.get(name, 0.0) + (
                duration - child_time[index]
            ) * 1e3
            calls[name] = calls.get(name, 0) + 1
            if name == "persistence.load_system":
                load_s += duration
                loading.add(index)
            elif name == "system.add_object" and parent in loading:
                replayed += 1
        values: dict[str, float] = {}
        for metric in PER_LAYER:
            layer, _, what = metric.rpartition("_")
            if what == "ms":
                values[metric] = self_ms.get(layer, 0.0)
            elif what == "calls":
                values[metric] = calls.get(layer, 0)
        encodes = calls.get("codec.encode", 0)
        values.update({
            "codec.vo_sp_bytes": self.encoded_bytes / encodes if encodes else 0.0,
            "chain.tx_count": calls.get("chain.send_transaction", 0),
            "proofcache.lookups": self.cache_lookups,
            "proofcache.hit_ratio": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
            ),
            "persistence.load_system_s": load_s,
            "persistence.replayed_objects": replayed,
            "unattributed_ms": sum(
                ms for name, ms in self_ms.items() if name.startswith("op.")
            ),
            "trace_overhead": traced_ops_per_s / untraced_ops_per_s,
        })
        return {
            metric: {"value": values[metric], "unit": PER_LAYER[metric][0]}
            for metric in PER_LAYER
        }

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")
