"""The three workloads and the layer functions their traced run wraps.

Each workload drives only public entry points of the program, generates
its inputs from the seed, runs *passes* over those inputs (a pass is the
timed unit; the runner repeats passes until ``--seconds`` have elapsed)
and checks every pass's outputs afterwards, outside the timed regions.

* ``mine-travel`` — serial ``OassisEngine.execute`` of the travel query at
  0.2, then the Section 6.3 sweep: ``engine.replay`` at 0.3/0.4/0.5 from
  the 0.2 run's cache.  Mining and lattice layers only; imports nothing
  from service, gateway or shard.
* ``serve-http`` — a journaled ``GatewayApp`` behind ``serve_in_thread``,
  driven over loopback HTTP by one closed-loop load-generator thread on one
  keep-alive connection that round-robins identical members.  Health
  mining is cheap, so gateway, service, queue and journal dominate.
* ``serve-shards`` — ``ShardCoordinator`` fleets of worker processes with
  100k members and shard WALs.  Coordinator, frame codec and workers do
  the work.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .inputs import (
    FIXED_CROWD_SEED, FIXED_FLEET_SEEDS, identical_crowd, msp_keys,
    pooled_transactions, shuffled,
)
from .layertrace import LayerTracer, Target
from .speed import Speedometer

clock = time.perf_counter

_DATASETS = {"travel": "repro.datasets.travel", "health": "repro.datasets.health"}


def build_dataset(domain: str) -> Any:
    return importlib.import_module(_DATASETS[domain]).build_dataset()


def rss_mb() -> float:
    """This process's peak resident memory so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured and produced."""

    setups: List[float] = field(default_factory=list)
    campaign_s: float = 0.0
    questions: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per input: the question count (exactness is checked across passes)
    item_questions: Dict[Any, int] = field(default_factory=dict)
    #: (input, session or threshold) -> MSP keys, checked by the oracle
    outputs: Dict[Tuple[Any, Any], List[str]] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def add_campaign(self, meter: Speedometer) -> None:
        """Count one timed campaign: reference seconds, and wall seconds
        without the probes in ``extras["campaign_wall_s"]``."""
        self.campaign_s += meter.reference_s
        self.extras["campaign_wall_s"] += meter.wall_s - meter.probe_s


def _campaign_window(tracer: Optional[LayerTracer]) -> float:
    return tracer.attributed_seconds() if tracer is not None else 0.0


# ------------------------------------------------------------- mine-travel


@dataclass(frozen=True)
class MineScale:
    domain: str = "travel"
    threshold: float = 0.2
    sweep: Tuple[float, ...] = (0.3, 0.4, 0.5)
    members: int = 6
    sample: int = 3
    #: cold set-ups per campaign (the last one's objects are used)
    setups: int = 5


class MineTravel:
    name = "mine-travel"
    layers = ("core",)
    #: run pinned to one CPU (see ``run.pin_to_one_cpu``)
    one_cpu = True

    def __init__(self, seed: int, scale: MineScale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale

    def inputs(self, limit: Optional[int] = None) -> List[Tuple[int, Any]]:
        """The fixed pooled crowd, its transactions in a seed-chosen order."""
        pooled = pooled_transactions(build_dataset(self.scale.domain), FIXED_CROWD_SEED)
        return [(self.seed, shuffled(pooled, self.seed))]

    def _setup(self, threshold: float) -> Tuple[Any, Any, Any]:
        """Dataset, engine, parse, SPARQL WHERE and lattice roots, cold."""
        from repro.engine.engine import OassisEngine

        dataset = build_dataset(self.scale.domain)
        engine = OassisEngine(dataset.ontology)
        query = engine.parse(dataset.query(threshold))
        engine.build_space(query).roots()
        return dataset, engine, query

    def run_pass(self, items: List[Tuple[int, Any]],
                 tracer: Optional[LayerTracer] = None) -> PassResult:
        from repro.crowd.cache import CrowdCache

        scale = self.scale
        result = PassResult(extras={
            "sweep_s": 0.0, "attributed_s": 0.0, "campaign_wall_s": 0.0,
        })
        for prototype, transactions in items:
            for _ in range(scale.setups):
                with Speedometer() as meter:
                    dataset, engine, query = self._setup(scale.threshold)
                result.setups.append(meter.reference_s)
            members = identical_crowd(
                transactions, dataset.ontology.vocabulary, scale.members
            )
            cache = CrowdCache()
            before = _campaign_window(tracer)
            with Speedometer() as meter:
                mined = engine.execute(
                    query, members, sample_size=scale.sample, cache=cache
                )
            result.add_campaign(meter)
            result.extras["attributed_s"] += _campaign_window(tracer) - before
            result.questions += mined.questions
            result.item_questions[prototype] = mined.questions
            result.outputs[(prototype, scale.threshold)] = msp_keys(mined.all_msps)
            member_ids = [member.member_id for member in members]
            with Speedometer() as meter:
                replays = [
                    engine.replay(
                        query, member_ids, cache, threshold=threshold,
                        sample_size=scale.sample,
                    )[0]
                    for threshold in scale.sweep
                ]
            result.extras["sweep_s"] += meter.reference_s
            for threshold, replayed in zip(scale.sweep, replays):
                result.outputs[(prototype, threshold)] = msp_keys(replayed.all_msps)
            result.attempted += 1 + len(scale.sweep)
        result.peak_rss_mb = rss_mb()
        return result

    def check(self, items: List[Tuple[int, Any]], passes: List[PassResult]) -> None:
        """Each replayed threshold must equal a fresh execute at it."""
        from repro.engine.engine import OassisEngine

        scale = self.scale
        dataset = build_dataset(scale.domain)
        engine = OassisEngine(dataset.ontology)
        for prototype, transactions in items:
            for threshold in scale.sweep:
                fresh = engine.execute(
                    dataset.query(threshold),
                    identical_crowd(
                        transactions, dataset.ontology.vocabulary, scale.members
                    ),
                    sample_size=scale.sample,
                )
                expected = msp_keys(fresh.all_msps)
                for result in passes:
                    if result.outputs.get((prototype, threshold)) != expected:
                        result.fail(
                            f"prototype {prototype}: replay at {threshold} "
                            f"differs from a fresh execute"
                        )
        _check_exact_questions(passes)


# -------------------------------------------------------------- serve-http


@dataclass(frozen=True)
class HttpScale:
    domain: str = "health"
    sessions: int = 24
    thresholds: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    members: int = 3
    sample: int = 3
    #: cold starts per campaign (the last one serves the campaign)
    setups: int = 3


class _LoadGenerator:
    """The closed-loop load generator's one keep-alive HTTP connection."""

    def __init__(self, host: str, port: int, result: PassResult,
                 tracer: Optional[LayerTracer]) -> None:
        import http.client

        self.connection = http.client.HTTPConnection(host, port, timeout=60)
        self.result = result
        self.tracer = tracer
        self.requests = 0
        self.waited = 0.0  # seconds spent inside HTTP round trips
        #: the active meter, whose probes are not charged to a round trip
        self.meter: Optional[Speedometer] = None

    def call(self, method: str, path: str, payload: Optional[Dict[str, Any]] = None,
             token: Optional[str] = None) -> Tuple[float, Optional[Dict[str, Any]]]:
        """One request; returns (round-trip seconds, body or None on error)."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        self.requests += 1
        self.result.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.requests
        probed = self.meter.probe_s if self.meter is not None else 0.0
        started = clock()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        elapsed = clock() - started
        if self.meter is not None:
            elapsed -= self.meter.probe_s - probed
        self.waited += elapsed
        if not 200 <= response.status < 300:
            self.result.fail(f"{method} {path}: HTTP {response.status} {raw[:200]!r}")
            return elapsed, None
        return elapsed, json.loads(raw)

    def close(self) -> None:
        self.connection.close()


def _stop(app: Any, handle: Any, client: _LoadGenerator) -> None:
    client.close()
    handle.stop()
    app.close()


class ServeHttp:
    name = "serve-http"
    layers = ("core", "service", "gateway")
    one_cpu = True

    def __init__(self, seed: int, scale: HttpScale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._starts = 0

    def inputs(self, limit: Optional[int] = None) -> List[Tuple[int, Any]]:
        """The fixed pooled crowd (the seed orders the sessions)."""
        dataset = build_dataset(self.scale.domain)
        return [(self.seed, pooled_transactions(dataset, FIXED_CROWD_SEED))]

    def _session_id(self, index: int) -> str:
        return f"{self.scale.domain}-{index}"

    def _start(self, result: PassResult, tracer: Optional[LayerTracer]) -> Tuple[
            Path, Any, Any, _LoadGenerator, List[str]]:
        """One cold start: journaled app, server thread, activate, pose, join."""
        from repro.gateway import GatewayApp, serve_in_thread
        from repro.gateway.schema import ActivateRequest, JoinRequest, QueryRequest

        scale = self.scale
        self._starts += 1
        journal = self.workdir / f"gateway-{self._starts}.wal"
        with Speedometer() as meter:
            app = GatewayApp(journal_path=journal)
            handle = serve_in_thread(app)
            client = _LoadGenerator(handle.host, handle.port, result, tracer)
            try:
                client.call("POST", "/datasets/activate",
                            ActivateRequest(scale.domain).to_wire())
                for index in shuffled(range(scale.sessions), self.seed):
                    client.call("POST", "/query", QueryRequest(
                        threshold=scale.thresholds[index % len(scale.thresholds)],
                        sample_size=scale.sample,
                        session_id=self._session_id(index),
                    ).to_wire())
                tokens = []
                for index in range(scale.members):
                    _, joined = client.call(
                        "POST", "/join", JoinRequest(f"m{index}").to_wire()
                    )
                    if joined is not None:
                        tokens.append(joined["token"])
            except BaseException:
                _stop(app, handle, client)
                raise
        result.setups.append(meter.reference_s)
        return journal, app, handle, client, tokens

    def run_pass(self, items: List[Tuple[int, Any]],
                 tracer: Optional[LayerTracer] = None) -> PassResult:
        scale = self.scale
        result = PassResult(extras={
            "next_ms": [], "answer_ms": [], "client_busy_s": 0.0,
            "attributed_s": 0.0, "next_requests": 0, "wal_bytes": 0, "answers": 0,
            "campaign_wall_s": 0.0,
        })
        for prototype, transactions in items:
            answerer = identical_crowd(
                transactions, build_dataset(scale.domain).ontology.vocabulary, 1
            )[0]
            for _ in range(scale.setups - 1):  # extra cold starts, then discarded
                journal, app, handle, client, _ = self._start(result, tracer)
                _stop(app, handle, client)
                journal.unlink()
            journal, app, handle, client, tokens = self._start(result, tracer)
            try:
                self._campaign(client, tokens, answerer, result, tracer)
                questions = 0
                for index in range(scale.sessions):
                    session_id = self._session_id(index)
                    _, body = client.call("GET", f"/result?session={session_id}")
                    if body is None:
                        continue
                    if not body["done"]:
                        result.fail(f"session {session_id} did not settle")
                    questions += int(body["questions_asked"])
                    result.outputs[(prototype, session_id)] = list(body["msps"])
            finally:
                _stop(app, handle, client)
            result.questions += questions
            result.item_questions[prototype] = questions
            result.extras["wal_bytes"] += journal.stat().st_size
            journal.unlink()
        result.peak_rss_mb = rss_mb()
        return result

    def _campaign(self, client: _LoadGenerator, tokens: List[str], answerer: Any,
                  result: PassResult, tracer: Optional[LayerTracer]) -> None:
        """Round-robin the members until a full round gets no question.

        Each member answers everything it was handed before its next
        ``/next``, so it never holds work in flight when it asks again and
        the gateway has no reason to answer 429.  Members are identical,
        so one memo per question's facts answers for all of them.
        """
        memo: Dict[Any, float] = {}
        before = _campaign_window(tracer)
        waited_before = client.waited
        with Speedometer() as meter:
            client.meter = meter
            try:
                self._rounds(client, tokens, answerer, memo, result)
            finally:
                client.meter = None
        result.add_campaign(meter)
        result.extras["client_busy_s"] += (
            meter.wall_s - meter.probe_s - (client.waited - waited_before)
        )
        result.extras["attributed_s"] += _campaign_window(tracer) - before

    def _rounds(self, client: _LoadGenerator, tokens: List[str], answerer: Any,
                memo: Dict[Any, float], result: PassResult) -> None:
        from repro.crowd.questions import ConcreteQuestion
        from repro.gateway.schema import AnswerRequest, facts_from_wire

        while True:
            handed = 0
            for token in tokens:
                elapsed, batch = client.call("GET", "/next?wait=0", token=token)
                result.extras["next_requests"] += 1
                result.extras["next_ms"].append(elapsed * 1000.0)
                if batch is None:
                    continue
                for question in batch["questions"]:
                    handed += 1
                    key = tuple(tuple(triple) for triple in question["facts"])
                    support = memo.get(key)
                    if support is None:
                        support = memo[key] = answerer.answer_concrete(
                            ConcreteQuestion(question["qid"],
                                             facts_from_wire(question["facts"]))
                        ).support
                    elapsed, _ = client.call(
                        "POST", "/answer",
                        AnswerRequest(question["qid"], support).to_wire(),
                        token=token,
                    )
                    result.extras["answer_ms"].append(elapsed * 1000.0)
                    result.extras["answers"] += 1
            if not handed:
                break

    def check(self, items: List[Tuple[int, Any]], passes: List[PassResult]) -> None:
        """Every session's MSPs must equal a serial execute of its query."""
        from repro.engine.engine import OassisEngine

        scale = self.scale
        dataset = build_dataset(scale.domain)
        engine = OassisEngine(dataset.ontology)
        for prototype, transactions in items:
            expected = {}
            for threshold in scale.thresholds:
                serial = engine.execute(
                    dataset.query(threshold),
                    identical_crowd(transactions, dataset.ontology.vocabulary,
                                    scale.members, prefix="serial-m"),
                    sample_size=scale.sample,
                )
                expected[threshold] = msp_keys(serial.all_msps)
            for index in range(scale.sessions):
                session_id = self._session_id(index)
                threshold = scale.thresholds[index % len(scale.thresholds)]
                for result in passes:
                    if result.outputs.get((prototype, session_id)) != expected[threshold]:
                        result.fail(f"session {session_id}: MSPs differ from serial")
        _check_exact_questions(passes)


# ------------------------------------------------------------ serve-shards


@dataclass(frozen=True)
class ShardScale:
    domain: str = "health"
    shards: int = 2
    #: fleets served per pass, the first of ``FIXED_FLEET_SEEDS``
    fleets: int = 4
    sessions: int = 64
    thresholds: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    members: int = 100_000
    sample: int = 25
    #: serial oracle crowd; identical members make the MSPs size-invariant
    verify_members: int = 25


#: the shard workers compete with the coordinator for the CPUs, so a probe
#: on the coordinator is timed in thread CPU time (see ``Speedometer``)
SHARD_PROBE_TIMER = time.thread_time


class ServeShards:
    name = "serve-shards"
    layers = ("core", "shard")
    #: the shard workers need every CPU
    one_cpu = False

    def __init__(self, seed: int, scale: ShardScale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self._fleets = 0

    def inputs(self, limit: Optional[int] = None) -> List[int]:
        """The fixed fleets' crowd seeds (the seed orders the sessions)."""
        return list(FIXED_FLEET_SEEDS[:self.scale.fleets][:limit])

    def _session_id(self, index: int) -> str:
        return f"{self.scale.domain}-{index}"

    def run_pass(self, items: List[int],
                 tracer: Optional[LayerTracer] = None) -> PassResult:
        from repro.service.shard.coordinator import ShardCoordinator

        scale = self.scale
        result = PassResult(extras={"attributed_s": 0.0, "campaign_wall_s": 0.0})
        for fleet_seed in items:
            self._fleets += 1
            durable = self.workdir / f"fleet-{self._fleets}"
            durable.mkdir()
            with Speedometer(timer=SHARD_PROBE_TIMER) as meter:
                dataset = build_dataset(scale.domain)
                coordinator = ShardCoordinator(
                    dataset, shards=scale.shards, crowd_size=scale.members,
                    sample_size=scale.sample, domain=scale.domain,
                    seed=fleet_seed, durable_dir=durable,
                )
                try:
                    coordinator.start()
                    for index in shuffled(range(scale.sessions), self.seed):
                        threshold = scale.thresholds[index % len(scale.thresholds)]
                        coordinator.create_session(
                            dataset.query(threshold), self._session_id(index)
                        )
                except BaseException:
                    coordinator.close()
                    raise
            result.setups.append(meter.reference_s)
            try:
                mark = tracer.install(codec_targets()) if tracer is not None else 0
                before = _campaign_window(tracer)
                try:
                    with Speedometer(timer=SHARD_PROBE_TIMER) as meter:
                        coordinator.serve()
                finally:
                    if tracer is not None:
                        result.extras["attributed_s"] += (
                            _campaign_window(tracer) - before
                        )
                        tracer.restore(mark)
                result.add_campaign(meter)
                shards_mb = sum(
                    vm_hwm_mb(child.pid) for child in multiprocessing.active_children()
                )
                result.peak_rss_mb = max(result.peak_rss_mb, rss_mb() + shards_mb)
            finally:
                coordinator.close()
            report = coordinator.report()
            result.questions += int(report["questions_answered"])
            result.item_questions[fleet_seed] = int(report["questions_answered"])
            for session in coordinator.sessions():
                result.attempted += 1
                if session.state != "completed":
                    result.fail(f"fleet {fleet_seed}: session "
                                f"{session.session_id} did not settle")
                result.outputs[(fleet_seed, session.session_id)] = msp_keys(
                    session.queue.current_msps()
                )
            shutil.rmtree(durable)
        return result

    def check(self, items: List[int], passes: List[PassResult]) -> None:
        from repro.engine.engine import OassisEngine
        from repro.service.simulation import build_identical_crowd

        scale = self.scale
        dataset = build_dataset(scale.domain)
        engine = OassisEngine(dataset.ontology)
        for fleet_seed in items:
            expected = {}
            for threshold in scale.thresholds:
                serial = engine.execute(
                    dataset.query(threshold),
                    build_identical_crowd(dataset, scale.verify_members,
                                          seed=fleet_seed, prefix="serial-m"),
                    sample_size=scale.sample,
                )
                expected[threshold] = msp_keys(serial.all_msps)
            for index in range(scale.sessions):
                session_id = self._session_id(index)
                threshold = scale.thresholds[index % len(scale.thresholds)]
                for result in passes:
                    if result.outputs.get((fleet_seed, session_id)) != expected[threshold]:
                        result.fail(f"fleet {fleet_seed}: session {session_id} "
                                    f"MSPs differ from serial")


def _check_exact_questions(passes: List[PassResult]) -> None:
    """Single-client workloads must charge the same questions every pass."""
    first = passes[0].item_questions
    for result in passes[1:]:
        for item, questions in result.item_questions.items():
            if questions != first.get(item):
                result.fail(f"input {item}: {questions} questions, "
                            f"first pass asked {first.get(item)}")


# ---------------------------------------------------------- traced layers


def layer_targets(layers: Tuple[str, ...]) -> List[Target]:
    """The public functions each layer is timed at (see README.md)."""
    import repro.engine.engine as engine_module
    from repro.assignments.generator import QueryAssignmentSpace
    from repro.crowd.personal_db import PersonalDatabase
    from repro.engine.engine import OassisEngine
    from repro.mining.state import ClassificationState
    from repro.mining.trace import MspTracker
    from repro.sparql.engine import SparqlEngine

    targets = [
        Target(OassisEngine, "parse", "oassisql.parse"),
        Target(SparqlEngine, "solutions", "sparql.solutions"),
        Target(QueryAssignmentSpace, "successors", "assignments.successors"),
        Target(QueryAssignmentSpace, "ordered_successors", "assignments.successors"),
        Target(QueryAssignmentSpace, "in_expansion", "assignments.in_expansion"),
        Target(QueryAssignmentSpace, "leq", "assignments.leq", mode="count"),
        Target(ClassificationState, "status", "mining.status", mode="aggregate"),
        Target(MspTracker, "refresh", "mining.refresh"),
        # the engine imports replay_from_cache by name
        Target(engine_module, "replay_from_cache", "mining.replay"),
        Target(PersonalDatabase, "support", "crowd.support"),
    ]
    if "service" in layers or "shard" in layers:
        from repro.engine.queue_manager import QueueManager

        targets += [
            Target(QueueManager, "next_batch", "engine.next_batch"),
            Target(QueueManager, "submit_support", "engine.submit"),
            Target(QueueManager, "preload", "engine.submit"),
        ]
    if "service" in layers:
        from repro.service.manager import SessionManager

        targets += [
            Target(SessionManager, "next_batch", "service.next_batch"),
            Target(SessionManager, "submit", "service.submit"),
        ]
    if "gateway" in layers:
        from repro.gateway.app import GatewayApp
        from repro.gateway.journal import GatewayJournal

        targets += [
            Target(GatewayApp, "next_questions", "gateway.app.next"),
            Target(GatewayApp, "submit_answer", "gateway.app.answer"),
            Target(GatewayJournal, "log_answer", "gateway.journal.append"),
            Target(GatewayJournal, "log_mint", "gateway.journal.append"),
        ]
    if "shard" in layers:
        from repro.service.shard.coordinator import ShardCoordinator
        from repro.service.shard.hashring import HashRing

        targets += [
            Target(HashRing, "partition", "shard.partition"),
            Target(ShardCoordinator, "start", "shard.start"),
            Target(ShardCoordinator, "serve", "shard.serve", container=True),
        ]
    return targets


def _frame_bytes(payload: Any) -> int:
    """Encoded size of one frame, as ``protocol.send_frame`` writes it."""
    from repro.service.shard.protocol import FRAME_HEADER

    return FRAME_HEADER.size + len(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    )


def _frame_qids(payload: Any) -> Any:
    if not isinstance(payload, dict):
        return None
    if "qid" in payload:
        return payload["qid"]
    asks = payload.get("asks")
    if asks:
        return [ask["qid"] for ask in asks]
    return None


def codec_targets() -> List[Target]:
    """Coordinator-side frame codec, wrapped during ``serve`` only.

    The coordinator imports ``send_frame``/``recv_frame`` by name, so they
    are patched in its module.  Outside ``serve`` a ``recv_frame`` mostly
    waits for a worker to boot or exit, which is not codec work.
    """
    import repro.service.shard.coordinator as coordinator_module

    return [
        Target(coordinator_module, "send_frame", "shard.codec.send",
               rid=lambda args, _: _frame_qids(args[1]),
               measure=lambda args, _: _frame_bytes(args[1])),
        Target(coordinator_module, "recv_frame", "shard.codec.recv",
               rid=lambda _, frame: _frame_qids(frame),
               measure=lambda _, frame: 0 if frame is None else _frame_bytes(frame)),
    ]


WORKLOADS = {
    MineTravel.name: (MineTravel, MineScale(), MineScale(domain="health", setups=2)),
    ServeHttp.name: (ServeHttp, HttpScale(), HttpScale(sessions=4)),
    ServeShards.name: (ServeShards, ShardScale(), ShardScale(
        fleets=1, sessions=4, members=200, sample=5, verify_members=5)),
}
