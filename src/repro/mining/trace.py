"""Execution traces and results shared by all mining algorithms.

The paper's pace-of-collection plots (Figures 4d–4f, 5) chart the number of
questions asked against the percentage of MSPs discovered / assignments
classified.  :class:`MiningTrace` records one sample per question so those
series can be reproduced exactly, and :class:`MspTracker` maintains the set
of *confirmed* MSPs incrementally (a significant node is a confirmed MSP
once every successor is classified insignificant).
"""

from __future__ import annotations

from typing import (
    Dict,
    Generic,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from ..assignments.lattice import AssignmentSpace
from .state import ClassificationState, Status

Node = TypeVar("Node", bound=Hashable)


class TracePoint(NamedTuple):
    """One sample of the execution trace, taken after a question."""

    questions: int
    msps_found: int
    valid_msps_found: int
    classified_valid: int
    #: of the experiment-supplied target MSPs, how many are known significant
    targets_found: int = 0


class MiningTrace:
    """The per-question progress series of one mining run."""

    def __init__(self) -> None:
        self.points: List[TracePoint] = []

    def sample(
        self,
        questions: int,
        msps: int,
        valid_msps: int,
        classified_valid: int,
        targets_found: int = 0,
    ) -> None:
        self.points.append(
            TracePoint(questions, msps, valid_msps, classified_valid, targets_found)
        )

    def questions_to_reach_msps(self, fraction: float, total_valid_msps: int) -> Optional[int]:
        """Questions needed to discover ``fraction`` of the valid MSPs."""
        if total_valid_msps == 0:
            return 0
        needed = fraction * total_valid_msps
        for point in self.points:
            if point.valid_msps_found >= needed:
                return point.questions
        return None

    def questions_to_reach_targets(self, fraction: float, total_targets: int) -> Optional[int]:
        """Questions needed to classify ``fraction`` of the target MSPs."""
        if total_targets == 0:
            return 0
        needed = fraction * total_targets
        for point in self.points:
            if point.targets_found >= needed:
                return point.questions
        return None

    def __len__(self) -> int:
        return len(self.points)


class MspTracker(Generic[Node]):
    """Maintains the confirmed-MSP set incrementally.

    A candidate (a node decided significant) is a confirmed MSP once every
    successor is classified insignificant.  Each candidate keeps its
    pending successors as a stack, first successor on top, and a refresh
    pops only while the top — the *watched* successor — is insignificant.
    Classification is monotone, so a popped successor needs no second look
    and a stack drains at the same refresh at which a rescan of all its
    pending successors would confirm the candidate; a refresh costs
    O(candidates) status checks, not O(pending successors).
    """

    def __init__(
        self,
        space: AssignmentSpace[Node],
        state: ClassificationState[Node],
        stride: int = 1,
    ):
        self.space = space
        self.state = state
        # nodes explicitly decided significant (by ask or aggregator verdict)
        self._significant_decided: Set[Node] = set()
        # candidate -> stack of successors not yet seen insignificant; the
        # top (last item) is the watched one
        self._pending: Dict[Node, List[Node]] = {}
        self._confirmed: Set[Node] = set()
        self._confirmed_valid: Set[Node] = set()
        self._stride = max(1, stride)
        self._calls = 0

    def note_significant(self, node: Node) -> None:
        """Register a node decided significant (candidate MSP)."""
        if node in self._significant_decided:
            return
        self._significant_decided.add(node)
        self._pending[node] = list(reversed(self.space.successors(node)))

    def note_new_successor(self, node: Node, successor: Node) -> None:
        """Register a successor added to ``node`` after it became a candidate.

        Lazy spaces can grow mid-run (crowd-proposed MORE extensions); an
        unconfirmed candidate must then also see the new successor
        classified insignificant before it is confirmed; it becomes the
        candidate's watched successor.
        """
        pending = self._pending.get(node)
        if pending is not None and successor not in pending:
            pending.append(successor)

    def refresh(self, force: bool = False) -> None:
        """Pop insignificant watched successors; confirm drained candidates.

        Like :class:`ValidProgress`, the scan is throttled to every
        ``stride`` calls; pass ``force=True`` before reading final results.
        """
        self._calls += 1
        if not force and self._stride > 1 and self._calls % self._stride != 1:
            return
        status = self.state.status
        insignificant = Status.INSIGNIFICANT
        drained = []
        for node, stack in self._pending.items():
            while stack and status(stack[-1]) is insignificant:
                stack.pop()
            if not stack:
                drained.append(node)
        for node in drained:
            del self._pending[node]
            self._confirmed.add(node)
            if self.space.is_valid(node):
                self._confirmed_valid.add(node)

    def confirmed(self) -> Set[Node]:
        return set(self._confirmed)

    def confirmed_valid(self) -> Set[Node]:
        return set(self._confirmed_valid)

    def counts(self) -> tuple:
        return (len(self._confirmed), len(self._confirmed_valid))


class MiningResult(Generic[Node]):
    """The outcome of one mining run."""

    def __init__(
        self,
        msps: Sequence[Node],
        valid_msps: Sequence[Node],
        questions: int,
        trace: MiningTrace,
        state: ClassificationState[Node],
    ):
        self.msps = list(msps)
        self.valid_msps = list(valid_msps)
        self.questions = questions
        self.trace = trace
        self.state = state

    def __repr__(self) -> str:
        return (
            f"MiningResult(msps={len(self.msps)}, valid={len(self.valid_msps)}, "
            f"questions={self.questions})"
        )


class TargetTracker(Generic[Node]):
    """Counts how many experiment-supplied target MSPs are known significant.

    The Figure 4d–4f / Figure 5 "% of (valid) MSPs discovered" series counts
    a planted MSP as discovered once the algorithm has classified it as
    significant; this is well-defined for every algorithm, including the
    naive baseline that never proves maximality explicitly.
    """

    def __init__(self, state: ClassificationState[Node], targets: Sequence[Node]):
        self.state = state
        self._pending: Set[Node] = set(targets)
        self.total = len(self._pending)
        self.found = 0

    def refresh(self) -> int:
        done = [n for n in self._pending if self.state.is_significant(n)]
        for node in done:
            self._pending.discard(node)
        self.found += len(done)
        return self.found


class ValidProgress(Generic[Node]):
    """Tracks how many of a fixed valid-node universe are classified.

    A full rescan of the pending set costs O(pending) status checks; with
    per-question sampling over large spaces that dominates the runtime, so
    the scan runs every ``stride`` calls (the in-between samples reuse the
    last count — pace curves lose at most ``stride`` questions of
    resolution).
    """

    def __init__(
        self,
        state: ClassificationState[Node],
        valid_nodes: Sequence[Node],
        stride: int = 1,
    ):
        self.state = state
        self._unclassified: Set[Node] = set(valid_nodes)
        self.total = len(self._unclassified)
        self.classified = 0
        self._stride = max(1, stride)
        self._calls = 0

    def refresh(self, force: bool = False) -> int:
        """Move newly classified nodes out of the pending set."""
        self._calls += 1
        if not force and self._calls % self._stride != 1 and self._stride > 1:
            return self.classified
        done = [n for n in self._unclassified if self.state.is_classified(n)]
        for node in done:
            self._unclassified.discard(node)
        self.classified += len(done)
        return self.classified
