"""ServiceRunner: one loop driving a SessionManager to quiescence.

Members take turns in a round-robin rotation.  Each turn fetches a batch
for one member, plays the member's scripted behaviour (answer / drop /
depart), submits the results and puts the member back at the end of the
rotation.  The loop runs on the calling thread: serving order depends
only on the rotation, so two fault-free runs of the same campaign ask
the crowd the same questions.  When a whole pass over the rotation
dispatches nothing, the loop sleeps :data:`IDLE_SLEEP` so deadlines and
backoffs can elapse.

Fault injection (see :mod:`repro.faults`): when the runner carries a
:class:`~repro.faults.plan.FaultPlan`, two sites are consulted —
``member.answer`` once per delivered question (timeouts, departures,
malformed answers, duplicate deliveries override the script's behaviour)
and ``runner.worker`` once per turn (an injected
:class:`~repro.faults.plan.InjectedCrash` aborts the turn before the
member is served).  A crashed turn is counted as
``service.workers.crashed`` and the member goes straight back into the
rotation.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple, Union

from ..crowd.member import CrowdMember
from ..crowd.questions import ConcreteQuestion
from ..engine.queue_manager import AnswerOutcome
from ..faults.plan import MALFORMED_SUPPORT, FaultKind, FaultPlan, InjectedCrash
from ..observability import count as _obs_count
from .manager import DispatchedQuestion, SessionManager

#: sentinel actions a :class:`MemberScript` can take instead of answering
DROP = "drop"
DEPART = "depart"

#: seconds the loop sleeps after a whole pass dispatched nothing
IDLE_SLEEP = 0.002


class MemberScript:
    """Deterministic behaviour of one simulated member under service load.

    Wraps a :class:`~repro.crowd.member.CrowdMember` and injects the
    failure modes the service must absorb:

    * ``drop_every=n`` — every n-th delivered question is silently
      ignored (it will hit its deadline, be reaped and retried);
    * ``depart_after=n`` — after answering n questions the member departs
      (the runner detaches them from the manager).

    Counters, not randomness: behaviour depends only on how many
    questions the member has seen, keeping simulations reproducible.
    """

    def __init__(
        self,
        member: CrowdMember,
        *,
        drop_every: int = 0,
        depart_after: Optional[int] = None,
    ) -> None:
        self.member = member
        self.member_id = member.member_id
        self.drop_every = drop_every
        self.depart_after = depart_after
        self.seen = 0
        self.answered = 0
        self.dropped = 0
        self.departed = False

    def respond(self, question: DispatchedQuestion) -> Union[str, float]:
        """The member's reaction: a support value, ``DROP`` or ``DEPART``."""
        if self.depart_after is not None and self.answered >= self.depart_after:
            self.departed = True
            return DEPART
        self.seen += 1
        if self.drop_every and self.seen % self.drop_every == 0:
            self.dropped += 1
            return DROP
        self.answered += 1
        answer = self.member.answer_concrete(
            ConcreteQuestion(question.assignment, question.fact_set)
        )
        return answer.support


class ServiceRunner:
    """Drives a :class:`SessionManager` with a round-robin member loop."""

    def __init__(
        self,
        manager: SessionManager,
        scripts: Iterable[MemberScript],
        *,
        max_runtime: float = 60.0,
        faults: Optional[FaultPlan] = None,
        audit: bool = False,
    ) -> None:
        self.manager = manager
        self.scripts: Dict[str, MemberScript] = {
            script.member_id: script for script in scripts
        }
        self.max_runtime = max_runtime
        self.faults = faults if faults is not None else manager.faults
        self.timed_out = False
        self.crashed_workers = 0
        #: when ``audit`` is on: one entry per submission attempt, for
        #: durability invariant checks (see repro.faults.chaos)
        self.audit: Optional[List[Dict[str, object]]] = [] if audit else None

    # ----------------------------------------------------------------- audit

    def _note_submission(
        self,
        question: DispatchedQuestion,
        support: Optional[float],
        outcome: AnswerOutcome,
    ) -> None:
        if self.audit is None:
            return
        self.audit.append(
            {
                "session_id": question.session_id,
                "member_id": question.member_id,
                "assignment": repr(question.assignment),
                "support": support,
                "outcome": outcome.value,
            }
        )

    # ------------------------------------------------------------------- run

    def run(self) -> Dict:
        """Serve until every session settles; returns a summary report.

        Attaches the scripted members (idempotent) and turns the rotation
        until :meth:`SessionManager.all_done` or ``max_runtime`` elapses
        (the deadlock guard — ``timed_out`` is set in the report instead
        of hanging forever).
        """
        for member_id in self.scripts:
            self.manager.attach_member(member_id)
        rotation: Deque[str] = deque(self.scripts)
        started = time.perf_counter()
        deadline = started + self.max_runtime
        idle_turns = 0
        while not self.manager.all_done():
            if time.perf_counter() >= deadline:
                self.timed_out = True
                break
            if not rotation:
                # every member departed: wait for deadlines to settle
                self.manager.reap_expired()
                time.sleep(IDLE_SLEEP)
                continue
            member_id = rotation.popleft()
            try:
                dispatched, stays = self._serve_member(member_id)
            except InjectedCrash:
                self.crashed_workers += 1
                _obs_count("service.workers.crashed")
                dispatched, stays = False, True
            if stays:
                rotation.append(member_id)
            idle_turns = 0 if dispatched else idle_turns + 1
            if idle_turns >= len(rotation):
                idle_turns = 0
                time.sleep(IDLE_SLEEP)
        elapsed = time.perf_counter() - started
        return self._report(elapsed)

    def _serve_member(self, member_id: str) -> Tuple[bool, bool]:
        """One rotation turn: fetch a batch, play the member, submit.

        Returns whether anything was dispatched and whether the member
        stays in the rotation.
        """
        if self.faults is not None:
            self.faults.maybe_crash("runner.worker", member_id)
        script = self.scripts[member_id]
        stays = True
        batch = self.manager.next_batch(member_id)
        for question in batch:
            action = self._respond(script, question)
            if isinstance(action, str):
                if action == DEPART:
                    self.manager.detach_member(member_id)
                    stays = False
                    break
                continue  # DROP — never answered: reaped at its deadline
            deliveries = 1
            if isinstance(action, tuple):
                support, deliveries = action
            else:
                support = action
            for _ in range(deliveries):
                outcome = self.manager.submit(question, support)
                self._note_submission(question, support, outcome)
        self.manager.reap_expired()
        return bool(batch), stays

    def _respond(
        self, script: MemberScript, question: DispatchedQuestion
    ) -> Union[str, float, Tuple[float, int]]:
        """The script's answer, possibly overridden by an injected fault."""
        fault = (
            self.faults.decide("member.answer", script.member_id)
            if self.faults is not None
            else None
        )
        if fault is FaultKind.TIMEOUT:
            script.dropped += 1
            return DROP
        if fault is FaultKind.DEPART:
            script.departed = True
            return DEPART
        if fault is FaultKind.MALFORMED:
            return MALFORMED_SUPPORT
        action = script.respond(question)
        if fault is FaultKind.DUPLICATE and isinstance(action, float):
            return (action, 2)  # deliver the same answer twice
        return action

    def _report(self, elapsed: float) -> Dict:
        sessions = {}
        total_questions = 0
        for session in self.manager.sessions():
            asked = session.questions_asked()
            total_questions += asked
            sessions[session.session_id] = {
                "state": session.state.value,
                "questions": asked,
                "msps": len(session.msps()),
                "valid_msps": len(session.valid_msps()),
            }
        settled = sum(1 for s in sessions.values() if s["state"] != "open")
        return {
            "elapsed_seconds": elapsed,
            "timed_out": self.timed_out,
            "crashed_workers": self.crashed_workers,
            "faults_injected": (
                self.faults.injected() if self.faults is not None else {}
            ),
            "sessions": sessions,
            "questions_answered": total_questions,
            "sessions_per_second": settled / elapsed if elapsed > 0 else 0.0,
            "questions_per_second": (
                total_questions / elapsed if elapsed > 0 else 0.0
            ),
            "members": {
                member_id: {
                    "answered": script.answered,
                    "dropped": script.dropped,
                    "departed": script.departed,
                }
                for member_id, script in self.scripts.items()
            },
        }
