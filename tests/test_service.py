"""Concurrency suite for repro.service: sessions, deadlines, departures.

The unit tests drive a :class:`SessionManager` with an injectable fake
clock, so timeout / backoff / reassignment paths are exercised without
sleeping.  The integration tests run the simulation (and one threaded
drive of a shared manager) and assert the service layer's correctness
oracle: every session's MSP set equals a serial ``engine.execute`` of
the same query.
"""

import queue
import threading
import time

import pytest

from repro import OassisEngine
from repro.analysis import lockcheck
from repro.crowd.questions import ConcreteQuestion
from repro.engine import AnswerOutcome
from repro.observability import derive_service, tracing
from repro.service import (
    DEPART,
    DROP,
    MemberScript,
    ServiceConfig,
    ServiceRunner,
    SessionState,
    run_simulation,
)
from repro.service.simulation import DOMAINS, build_identical_crowd


#: the docs/SERVICE.md contract: these locks are never held together
_FORBIDDEN = [
    ("service.manager", "service.session"),
]


@pytest.fixture(autouse=True)
def lock_order_checker():
    """Run every service test under the dynamic lock-order checker.

    Locks created by SessionManager / QuerySession / CrowdCache while a
    checker is installed are tracked wrappers: any manager/session
    co-holding or acquisition-order cycle raises LockOrderError instead
    of deadlocking, so the suite machine-checks the locking contract.
    """
    checker = lockcheck.install(
        lockcheck.LockOrderChecker(forbid_together=_FORBIDDEN)
    )
    try:
        yield checker
    finally:
        lockcheck.uninstall()
    assert checker.violations == []


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(scope="module")
def demo():
    return DOMAINS["demo"]()


@pytest.fixture(scope="module")
def engine(demo):
    return OassisEngine(demo.ontology)


@pytest.fixture()
def clock():
    return FakeClock()


def make_manager(engine, clock, **options):
    options.setdefault("question_timeout", 10.0)
    options.setdefault("backoff_base", 1.0)
    return engine.session_manager(clock=clock, **options)


def answer_for(member, question):
    return member.answer_concrete(
        ConcreteQuestion(question.assignment, question.fact_set)
    ).support


def drive_serially(manager, members, max_rounds=10_000):
    """Single-threaded pump: every member answers until quiescence."""
    by_id = {m.member_id: m for m in members}
    for member in members:
        manager.attach_member(member.member_id)
    for _ in range(max_rounds):
        if manager.all_done():
            return
        progress = False
        for member_id in manager.members():
            for question in manager.next_batch(member_id, k=4):
                progress = True
                manager.submit(question, answer_for(by_id[member_id], question))
        if not progress and not manager.all_done():  # pragma: no cover
            pytest.fail("manager stalled with open sessions")
    pytest.fail("manager did not settle")  # pragma: no cover


class TestServiceConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServiceConfig(question_timeout=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_attempts=0)
        with pytest.raises(ValueError):
            ServiceConfig(in_flight_limit=0)

    def test_override(self):
        config = ServiceConfig().override(max_attempts=7)
        assert config.max_attempts == 7


class TestDispatch:
    def test_batch_respects_in_flight_limit(self, engine, demo, clock):
        manager = make_manager(engine, clock, in_flight_limit=2)
        manager.create_session(demo.query(0.4), session_id="q")
        manager.attach_member("u0")
        # answer the lattice root so its successors open up the frontier
        [root] = manager.next_batch("u0", k=1)
        manager.submit(root, 1.0)
        batch = manager.next_batch("u0", k=10)
        assert len(batch) == 2
        # at the cap: nothing more until an answer or timeout frees a slot
        assert manager.next_batch("u0", k=10) == []
        manager.submit(batch[0], 1.0)
        assert len(manager.next_batch("u0", k=10)) == 1

    def test_unattached_member_rejected(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        with pytest.raises(KeyError):
            manager.next_batch("ghost")

    def test_round_robin_spans_sessions(self, engine, demo, clock):
        manager = make_manager(engine, clock, in_flight_limit=8)
        manager.create_session(demo.query(0.4), session_id="a")
        manager.create_session(demo.query(0.5), session_id="b")
        manager.attach_member("u0")
        batch = manager.next_batch("u0", k=4)
        assert {q.session_id for q in batch} == {"a", "b"}

    def test_serial_drive_matches_engine_execute(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4), sample_size=2)
        members = build_identical_crowd(demo, 3)
        drive_serially(manager, members)
        assert session.state is SessionState.COMPLETED
        serial = engine.execute(
            demo.query(0.4), build_identical_crowd(demo, 3), sample_size=2
        )
        assert sorted(map(repr, session.msps())) == sorted(
            map(repr, serial.all_msps)
        )


class TestTimeoutsAndRetries:
    def test_timeout_requeues_with_backoff(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, backoff_base=2.0, max_attempts=3
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [first] = manager.next_batch("u0", k=1)
        assert first.attempt == 1
        clock.advance(5.0)
        reaped = manager.reap_expired()
        assert [q.assignment for q in reaped] == [first.assignment]
        # inside the backoff window the node is deferred, not redelivered
        # (and it is the only frontier node, so the batch comes back empty)
        assert manager.next_batch("u0", k=4) == []
        clock.advance(2.0)
        batch = manager.next_batch("u0", k=4)
        retried = {q.assignment: q for q in batch}
        assert first.assignment in retried
        assert retried[first.assignment].attempt == 2

    def test_exhausted_retries_reassign(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, max_attempts=1, backoff_base=0.0
        )
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        [question] = manager.next_batch("u0", k=1)
        clock.advance(5.0)
        manager.reap_expired()
        # the node jumped to the top of the other member's queue ...
        [handed] = manager.next_batch("u1", k=1)
        assert handed.assignment == question.assignment
        # ... and is never handed to the original member again
        assigned_to_u0 = {q.assignment for q in manager.next_batch("u0", k=8)}
        assert question.assignment not in assigned_to_u0

    def test_late_answer_is_stale(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [question] = manager.next_batch("u0", k=1)
        clock.advance(5.0)
        manager.reap_expired()
        assert manager.submit(question, 1.0) is AnswerOutcome.STALE

    def test_pass_abandons_node_for_member(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        [question] = manager.next_batch("u0", k=1)
        assert manager.submit(question, None) is AnswerOutcome.PASSED
        assigned = {q.assignment for q in manager.next_batch("u0", k=8)}
        assert question.assignment not in assigned


class TestDeadlineScaling:
    """PR 7 satellite: deadlines scale with the member's queue depth.

    A member answering a held batch serially cannot even look at its
    n-th question before finishing the n-1 ahead of it, so a fixed
    per-question clock reaps questions the member was never slow on.
    """

    def test_deadline_scales_with_in_flight_position(self, engine, demo, clock):
        manager = make_manager(
            engine, clock, question_timeout=5.0, backoff_base=0.0, batch_size=3
        )
        # one frontier node per session; three sessions let one member
        # hold a batch of three simultaneously
        for _ in range(3):
            manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        batch = manager.next_batch("u0", k=3)
        assert len(batch) == 3
        assert [q.deadline for q in batch] == [5.0, 10.0, 15.0]
        clock.advance(5.0)
        # only the head-of-queue question is overdue; the rest are still
        # inside their scaled windows
        assert [q.assignment for q in manager.reap_expired()] == [
            batch[0].assignment
        ]
        clock.advance(5.0)
        assert [q.assignment for q in manager.reap_expired()] == [
            batch[1].assignment
        ]

    def test_fixed_deadlines_when_disabled(self, engine, demo, clock):
        manager = make_manager(
            engine,
            clock,
            question_timeout=5.0,
            backoff_base=0.0,
            batch_size=3,
            scale_deadlines=False,
        )
        for _ in range(3):
            manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        batch = manager.next_batch("u0", k=3)
        assert [q.deadline for q in batch] == [5.0, 5.0, 5.0]
        clock.advance(5.0)
        assert len(manager.reap_expired()) == 3

    def test_position_counts_only_that_member(self, engine, demo, clock):
        manager = make_manager(engine, clock, question_timeout=5.0, batch_size=4)
        for _ in range(3):
            manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        held = manager.next_batch("u0", k=2)
        assert [q.deadline for q in held] == [5.0, 10.0]
        # u1 holds nothing, so its first question gets a single window
        # regardless of u0's queue depth
        [first] = manager.next_batch("u1", k=1)
        assert first.deadline == 5.0


class TestDepartures:
    def test_departure_reassigns_in_flight(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.attach_member("u1")
        [question] = manager.next_batch("u0", k=1)
        manager.detach_member("u0")
        assert manager.members() == ["u1"]
        with pytest.raises(KeyError):
            manager.next_batch("u0")
        [handed] = manager.next_batch("u1", k=1)
        assert handed.assignment == question.assignment

    def test_all_members_gone_completes_sessions(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4))
        manager.attach_member("u0")
        manager.next_batch("u0", k=1)
        manager.detach_member("u0")
        assert manager.all_done()
        assert session.state is SessionState.COMPLETED


class TestLifecycle:
    def test_cancel_stops_dispatch(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        session = manager.create_session(demo.query(0.4), session_id="victim")
        manager.attach_member("u0")
        assert manager.cancel_session("victim")
        assert session.state is SessionState.CANCELLED
        assert manager.next_batch("u0", k=4) == []
        assert manager.all_done()
        assert not manager.cancel_session("victim")  # already settled

    def test_duplicate_session_id_rejected(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        manager.create_session(demo.query(0.4), session_id="dup")
        with pytest.raises(ValueError):
            manager.create_session(demo.query(0.4), session_id="dup")

    def test_snapshot_resume_answers_for_free(self, engine, demo, clock):
        manager = make_manager(engine, clock)
        first = manager.create_session(demo.query(0.4), sample_size=2)
        members = build_identical_crowd(demo, 3)
        drive_serially(manager, members)
        snapshot = manager.snapshot(first.session_id)
        resumed = manager.create_session(
            demo.query(0.4),
            session_id="resumed",
            cache=snapshot,
            resume=True,
            sample_size=2,
        )
        assert resumed.resumed_answers == snapshot.total_answers()
        # the same crowd continues from the cached frontier: the session
        # settles with identical MSPs and zero new questions asked
        assert manager.all_done()
        assert resumed.state is SessionState.COMPLETED
        assert resumed.questions_asked() == 0
        assert sorted(map(repr, resumed.msps())) == sorted(
            map(repr, first.msps())
        )


class TestConcurrentService:
    def test_eight_sessions_four_workers_match_serial(self, engine, demo):
        """Four plain threads share one manager: the lock contract holds.

        The in-process runner is single-threaded, but the gateway still
        reaches the manager from its server thread and in-process callers
        at once.  This drives the demo campaign (drops, one departure)
        from four threads that pull members off one rotation queue, so a
        member is served by one thread at a time.
        """
        manager = engine.session_manager(
            question_timeout=0.2,
            backoff_base=0.01,
            in_flight_limit=4,
            batch_size=2,
        )
        queries = {}
        for index in range(8):
            session_id = f"demo-{index}"
            queries[session_id] = demo.query((0.2, 0.3, 0.4, 0.5)[index % 4])
            manager.create_session(
                queries[session_id], session_id=session_id, sample_size=3
            )
        crowd = build_identical_crowd(demo, 6)
        scripts = {
            member.member_id: MemberScript(
                member,
                drop_every=5,
                depart_after=6 if index == len(crowd) - 1 else None,
            )
            for index, member in enumerate(crowd)
        }
        rotation = queue.Queue()
        for member_id in scripts:
            manager.attach_member(member_id)
            rotation.put(member_id)
        stop = threading.Event()
        deadline = time.monotonic() + 120.0
        errors = []

        def serve():
            try:
                while not stop.is_set() and time.monotonic() < deadline:
                    try:
                        member_id = rotation.get(timeout=0.002)
                    except queue.Empty:
                        manager.reap_expired()
                        if manager.all_done():
                            stop.set()
                        continue
                    script = scripts[member_id]
                    stays = True
                    batch = manager.next_batch(member_id)
                    for question in batch:
                        action = script.respond(question)
                        if action == DEPART:
                            manager.detach_member(member_id)
                            stays = False
                            break
                        if action != DROP:
                            manager.submit(question, action)
                    manager.reap_expired()
                    if manager.all_done():
                        stop.set()
                    if stays:
                        rotation.put(member_id)
                    if not batch:
                        time.sleep(0.002)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=serve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=130.0)
        assert errors == []
        assert manager.all_done(), "threads failed to settle the sessions"
        assert {s.state for s in manager.sessions()} == {SessionState.COMPLETED}
        serial = {}
        for session in manager.sessions():
            query = queries[session.session_id]
            if query not in serial:
                result = engine.execute(
                    query,
                    build_identical_crowd(demo, 6, prefix="serial-m"),
                    sample_size=3,
                )
                serial[query] = sorted(repr(a) for a in result.all_msps)
            assert sorted(repr(a) for a in session.msps()) == serial[query]

    def test_fault_free_question_counts_are_deterministic(self):
        def campaign():
            return run_simulation(
                domain="demo", sessions=8, crowd_size=6, sample_size=3, seed=0
            )

        first, second = campaign(), campaign()
        assert first["verified"] and second["verified"]
        assert first["questions_answered"] == second["questions_answered"]
        assert {
            sid: info["questions"] for sid, info in first["sessions"].items()
        } == {sid: info["questions"] for sid, info in second["sessions"].items()}

    def test_runner_emits_service_counters(self, engine, demo):
        manager = engine.session_manager(question_timeout=0.2, backoff_base=0.01)
        manager.create_session(demo.query(0.4), sample_size=2)
        scripts = [
            MemberScript(member, drop_every=4 if index == 0 else 0)
            for index, member in enumerate(build_identical_crowd(demo, 3))
        ]
        with tracing() as tracer:
            report = ServiceRunner(
                manager, scripts, max_runtime=60.0
            ).run()
        assert not report["timed_out"]
        service = derive_service(tracer.report()["counters"])
        assert service is not None
        assert service["sessions"]["completed"] == 1
        assert service["questions"]["dispatched"] > 0
        assert service["questions"]["timeouts"] > 0  # the dropper forced reaps
