"""The benchmark's workloads: seeded inputs, the closed loop, the oracle.

Each workload is one closed loop driven by one client in one process:
the client sends its next request only after the previous answer came
back and was verified.  Requests travel the paper's Fig. 1 wire path —
:class:`~repro.sp.protocol.RemoteClient` over an in-process
:meth:`~repro.sp.protocol.StorageProviderServer.handle` transport — so
the SP answers in bytes and the client decodes the VO, reads
``VO_chain`` and verifies every answer.

Systems are built only through the knobs the ROADMAP keeps:
``HybridStorageSystem(scheme=, shards=, seed=)``, ``add_object`` (the
per-object path ``repro add`` uses) and ``save_system``/``load_system``
for restart.  No pool, executor, VO-version or witness knob is pinned.

The amount of work is fixed by ``--seed``, ``--seconds`` and ``--scale``
alone, never by how fast the host runs: ``--seconds`` sizes the
measured phase at a nominal rate per workload.  Gas, VO bytes and every
call count therefore repeat exactly for a seed, and a slower host shows
up as longer timings, not as a different amount of work.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import HybridStorageSystem
from repro.core import persistence
from repro.datasets.synthetic import dblp_like, twitter_like
from repro.datasets.workloads import DisjunctiveWorkload
from repro.errors import ReproError
from repro.sp.protocol import RemoteClient, StorageProviderServer

#: Key-material seed of every system.  Fixed so that ``--seed`` varies
#: only the inputs (objects and queries), not RSA prime search time.
SYSTEM_SEED = 7


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload and the reason it is in the benchmark."""

    name: str
    why: str
    scheme: str
    shards: int
    corpus: str  # "twitter" | "dblp"
    preload: int
    #: Measured-phase operations per second of ``--seconds``.
    ops_per_second: int
    #: Measured-phase shape: "read" (DNF queries only), "ingest" (inserts,
    #: with a two-keyword query every ``query_every`` inserts) or "mixed"
    #: (``query_every - 1`` inserts, then one DNF query).
    shape: str
    query_every: int = 0
    #: DNF queries draw from the ``pool_size`` most frequent keywords.
    pool_size: int = 12
    #: Ingest-shape queries draw from these keyword ranks: mid-frequency
    #: lists, long enough to join, without the head's heavy-tailed cost.
    query_ranks: tuple[int, int] = (25, 76)
    #: Verify every pool keyword once during set-up, so the measured
    #: phase starts with the proofs it will hit already cached.
    warm_pool: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cistar-twitter-read",
            why=(
                "CI* reads; the corpus's ~1.2k postings fit the 4096-entry "
                "proof cache, so VO decode, Bloom chain reads and cached CVC "
                "verification do the work while the chain and trees idle"
            ),
            scheme="ci*",
            shards=1,
            corpus="twitter",
            preload=200,
            ops_per_second=80,
            shape="read",
            pool_size=12,
            warm_pool=True,
        ),
        WorkloadSpec(
            name="smi-dblp-ingest",
            why=(
                "SMI (the default scheme) ingest: contract execution, gas "
                "metering, UpdVO generation and MB-tree inserts do the work; "
                "a two-keyword query every 6 inserts checks it"
            ),
            scheme="smi",
            shards=1,
            corpus="dblp",
            preload=1000,
            ops_per_second=300,
            shape="ingest",
            query_every=6,
        ),
        WorkloadSpec(
            name="mi-twitter-mixed",
            why=(
                "MI over 2 shards, 4 inserts then 1 DNF query: every insert "
                "moves the touched roots, so the proof cache almost never "
                "hits and SP query work plus multiproof compression dominate"
            ),
            scheme="mi",
            shards=2,
            corpus="twitter",
            preload=800,
            ops_per_second=125,
            shape="mixed",
            query_every=5,
            pool_size=24,
        ),
    )
}


def query_text(conjunctions: list[tuple[str, ...]]) -> str:
    """The wire text of a DNF query (keywords sorted per conjunction)."""
    parts = [" AND ".join(conj) for conj in conjunctions]
    if len(parts) == 1:
        return parts[0]
    return " OR ".join(f"({part})" for part in parts)


@dataclass
class Plan:
    """Everything one run does, generated from the seed up front."""

    spec: WorkloadSpec
    preload: list
    #: Warm-up queries issued in set-up (DNF conjunction lists).
    warmup: list
    #: Measured ops: ("ingest", DataObject) or ("query", conjunctions).
    ops: list
    #: The query re-asked across the restart: the last object's rarest
    #: keyword, so restart time is the replay plus one small cold answer.
    restart_query: list


def make_plan(spec: WorkloadSpec, seed: int, seconds: int, scale: float) -> Plan:
    """Generate the run's objects and queries from ``seed`` alone."""
    preload = max(1, round(spec.preload * scale))
    n_ops = max(spec.query_every or 1, round(spec.ops_per_second * seconds * scale))
    if spec.shape == "read":
        n_inserts, n_queries = 0, n_ops
    elif spec.shape == "ingest":
        n_inserts = n_ops
        n_queries = n_inserts // spec.query_every
    else:
        n_queries = n_ops // spec.query_every
        n_inserts = n_queries * (spec.query_every - 1)
    make = twitter_like if spec.corpus == "twitter" else dblp_like
    dataset = make(preload + n_inserts, seed=seed)
    objects = dataset.materialise()
    fresh = iter(objects[preload:])
    ops: list = []
    if spec.shape == "ingest":
        ranks = range(*spec.query_ranks)
        rng = np.random.default_rng(seed + 2)
        for i, obj in enumerate(fresh, start=1):
            ops.append(("ingest", obj))
            if i % spec.query_every == 0:
                picks = rng.choice(ranks, size=2, replace=False)
                ops.append(("query", [tuple(sorted(
                    dataset.keyword(int(rank)) for rank in picks
                ))]))
    else:
        for query in DisjunctiveWorkload(
            dataset, 2, 2, pool_size=spec.pool_size, seed=seed + 1
        ).queries(n_queries):
            conjunctions = [tuple(sorted(conj)) for conj in query.conjunctions]
            if spec.shape == "mixed":
                ops.extend(("ingest", next(fresh)) for _ in range(spec.query_every - 1))
            ops.append(("query", conjunctions))
    pool = dataset.top_keywords(spec.pool_size)
    return Plan(
        spec=spec,
        preload=objects[:preload],
        warmup=[[(kw,)] for kw in pool] if spec.warm_pool else [],
        ops=ops,
        restart_query=[(objects[-1].keywords[-1],)],
    )


class Oracle:
    """Plain set algebra over the objects ingested so far."""

    def __init__(self) -> None:
        self.postings: dict[str, set[int]] = {}
        self.objects: dict = {}

    def add(self, obj) -> None:
        self.objects[obj.object_id] = obj
        for keyword in obj.keywords:
            self.postings.setdefault(keyword, set()).add(obj.object_id)

    def answer(self, conjunctions) -> list[int]:
        """AND within a conjunction, OR across conjunctions."""
        ids: set[int] = set()
        for conj in conjunctions:
            ids |= set.intersection(*(self.postings.get(kw, set()) for kw in conj))
        return sorted(ids)

    def check(self, conjunctions, result) -> bool:
        """Whether a verified answer holds exactly the expected objects."""
        expected = self.answer(conjunctions)
        return result.result_ids == expected and all(
            result.objects.get(oid) == self.objects[oid] for oid in expected
        )


class _CapturingTransport:
    """The in-process ``bytes -> bytes`` transport; keeps the last reply."""

    def __init__(self, server: StorageProviderServer) -> None:
        self._server = server
        self.last_reply = b""

    def __call__(self, request: bytes) -> bytes:
        self.last_reply = self._server.handle(request)
        return self.last_reply


@dataclass
class RunResult:
    """What one run measured: wall intervals ``(t0, t1)`` and exact counts.

    Intervals stay raw here; :mod:`clock` turns them into reference
    seconds once the run's probes are all in.
    """

    setup: tuple[float, float] = (0.0, 0.0)
    restart: tuple[float, float] = (0.0, 0.0)
    queries: list[tuple[float, float]] = field(default_factory=list)
    ingests: list[tuple[float, float]] = field(default_factory=list)
    measured: list[tuple[float, float]] = field(default_factory=list)
    vo_bytes: list[int] = field(default_factory=list)
    gas_per_object: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


class Runner:
    """Drives one plan through set-up, the measured phase and a restart.

    Every operation is preceded by a probe of ``clock`` (alternation).
    ``tracer`` opens an ``op.*`` span around every operation the client
    issues; the untraced run passes a tracer whose spans cost nothing.
    """

    def __init__(self, plan: Plan, clock, tracer, workdir: Path) -> None:
        self.plan = plan
        self.clock = clock
        self.tracer = tracer
        self.workdir = workdir
        self.oracle = Oracle()
        self.result = RunResult()

    def _fail(self, message: str) -> None:
        self.result.failed += 1
        if len(self.result.errors) < 5:
            self.result.errors.append(message)

    def _connect(self, system) -> tuple[RemoteClient, _CapturingTransport]:
        transport = _CapturingTransport(StorageProviderServer(system))
        return RemoteClient(transport, system), transport

    def _ingest(self, system, obj) -> tuple[float, float]:
        self.result.attempted += 1
        start = self.clock.tick()
        try:
            with self.tracer.span("op.ingest"):
                system.add_object(obj)
        except ReproError as exc:
            self._fail(f"ingest {obj.object_id}: {exc}")
            return start, time.perf_counter()
        end = time.perf_counter()
        self.oracle.add(obj)
        return start, end

    def _query(self, client, conjunctions):
        """Ask, verify and check one query; returns ((t0, t1), result)."""
        self.result.attempted += 1
        text = query_text(conjunctions)
        start = self.clock.tick()
        try:
            with self.tracer.span("op.query"):
                result = client.query(text)
        except ReproError as exc:
            self._fail(f"query {text!r}: {exc}")
            return (start, time.perf_counter()), None
        interval = (start, time.perf_counter())
        if not self.oracle.check(conjunctions, result):
            self._fail(f"query {text!r}: verified ids differ from the oracle")
            return interval, None
        return interval, result

    def run(self) -> RunResult:
        plan, res = self.plan, self.result
        start = self.clock.tick()
        with self.tracer.span("op.init"):
            system = HybridStorageSystem(
                scheme=plan.spec.scheme, shards=plan.spec.shards, seed=SYSTEM_SEED
            )
        client, transport = self._connect(system)
        for obj in plan.preload:
            res.ingests.append(self._ingest(system, obj))
        for conjunctions in plan.warmup:
            self._query(client, conjunctions)
        res.setup = (start, time.perf_counter())

        gc.collect()
        for kind, payload in plan.ops:
            if kind == "ingest":
                interval = self._ingest(system, payload)
                res.ingests.append(interval)
            else:
                interval, result = self._query(client, payload)
                res.queries.append(interval)
                if result is not None:
                    res.vo_bytes.append(result.vo_sp_bytes + result.vo_chain_bytes)
            res.measured.append(interval)
        res.gas_per_object = system.average_gas_per_object()

        self._restart(system, client, transport)
        self.clock.tick()
        return res

    def _restart(self, system, client, transport) -> None:
        """Save, reload, and re-ask a query answered just before saving.

        The replay inside ``load_system`` is probed object by object, so
        a restart of several seconds is scaled as finely as the rest.
        """
        res, conjunctions = self.result, self.plan.restart_query
        _, before = self._query(client, conjunctions)
        before_reply = transport.last_reply
        directory = self.workdir / "store"
        persistence.save_system(system, directory, seed=SYSTEM_SEED)
        system.close()
        del system, client, transport
        gc.collect()
        try:
            res.attempted += 1
            start = self.clock.tick()
            try:
                with self.tracer.span("op.restart"), self.clock.ticking(
                    HybridStorageSystem, "add_object"
                ):
                    restored = persistence.load_system(directory)
                    client, transport = self._connect(restored)
                    after = client.query(query_text(conjunctions))
            except ReproError as exc:
                self._fail(f"restart: {exc}")
                return
            res.restart = (start, time.perf_counter())
            if before is None or not self.oracle.check(conjunctions, after):
                self._fail("restart: answer differs from the oracle")
            elif transport.last_reply != before_reply:
                self._fail("restart: reply bytes differ from before the restart")
            restored.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
