"""Differential tests for the indexed lazy classification and MSP tracking.

:class:`ClassificationState` answers status queries on lazy query spaces
through a bitmask index over its witness logs; :class:`MspTracker` watches
one pending successor per candidate.  Both are checked here against
brute-force references: statuses recomputed from every mark with
``Assignment.leq``, and a tracker that rescans every pending successor on
each refresh.
"""

import random
from typing import Dict, List, Set

import pytest

from repro.assignments import Assignment, ExplicitDAG, QueryAssignmentSpace
from repro.datasets import running_example, travel
from repro.mining import ClassificationState, Status
from repro.mining.trace import MspTracker
from repro.oassisql import parse_query
from repro.ontology import Fact
from repro.vocabulary import Element
from repro.vocabulary.terms import ANY_ELEMENT

#: a place no taxonomy knows: only equal to itself
UNLISTED = Element("Unlisted Spot")


class BruteForceState:
    """Statuses straight from Observation 4.4 over every recorded mark."""

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary
        self.significant: List[Assignment] = []
        self.insignificant: List[Assignment] = []

    def status(self, node: Assignment) -> Status:
        if any(node.leq(w, self.vocabulary) for w in self.significant):
            return Status.SIGNIFICANT
        if any(w.leq(node, self.vocabulary) for w in self.insignificant):
            return Status.INSIGNIFICANT
        return Status.UNKNOWN

    def maximal_significant(self) -> Set[Assignment]:
        marks = set(self.significant)
        return {
            w
            for w in marks
            if not any(w != v and w.leq(v, self.vocabulary) for v in marks)
        }


class RescanTracker:
    """The full-rescan MSP tracker: every refresh re-filters every frontier."""

    def __init__(self, space, state):
        self.space = space
        self.state = state
        self.decided: Set = set()
        self.pending: Dict = {}
        self.confirmed: Set = set()

    def note_significant(self, node) -> None:
        if node not in self.decided:
            self.decided.add(node)
            self.pending[node] = list(self.space.successors(node))

    def note_new_successor(self, node, successor) -> None:
        pending = self.pending.get(node)
        if pending is not None and successor not in pending:
            pending.append(successor)

    def refresh(self) -> None:
        for node in list(self.pending):
            remaining = [
                s
                for s in self.pending[node]
                if self.state.status(s) is not Status.INSIGNIFICANT
            ]
            if remaining:
                self.pending[node] = remaining
            else:
                del self.pending[node]
                self.confirmed.add(node)


class CountingSpace:
    """Delegates the indexed lookups to a lazy space and counts ``leq``."""

    def __init__(self, inner):
        self._inner = inner
        self.leq_calls = 0
        self.leq_misses = 0

    def up_closure_keys(self, node):
        return self._inner.up_closure_keys(node)

    def leq(self, a, b):
        self.leq_calls += 1
        result = self._inner.leq(a, b)
        self.leq_misses += not result
        return result


# ------------------------------------------------------------------ spaces


def _running_example_space() -> QueryAssignmentSpace:
    ontology = running_example.build_ontology()
    query = parse_query(running_example.SAMPLE_QUERY)
    return QueryAssignmentSpace(
        ontology, query, max_values_per_var=2, max_more_facts=1
    )


def _travel_space() -> QueryAssignmentSpace:
    dataset = travel.build_dataset()
    query = parse_query(dataset.query(0.2))
    return QueryAssignmentSpace(
        dataset.ontology, query, more_pool=dataset.more_pool
    )


SPACES = {"running_example": _running_example_space, "travel": _travel_space}

MORE_TIPS = {
    "running_example": [
        Fact("Rent Bikes", "doAt", "Boathouse"),
        Fact("Activity", "doAt", "Central Park"),
        Fact(ANY_ELEMENT.name, "eatAt", "Pine"),
    ],
    "travel": [
        Fact("Rent Bikes", "doAt", "Bike Rental Stand"),
        Fact("Sport", "doAt", "HaYarkon Park"),
        Fact("Feed Ducks", "doAt", "HaYarkon Park"),
    ],
}


def _node_pool(space: QueryAssignmentSpace, domain: str, size: int) -> List[Assignment]:
    """Lattice nodes (breadth first), MORE extensions and unregistered terms."""
    pool: List[Assignment] = []
    seen: Set[Assignment] = set()
    frontier = list(space.roots())
    index = 0
    while index < len(frontier) and len(pool) < size:
        node = frontier[index]
        index += 1
        if node in seen:
            continue
        seen.add(node)
        pool.append(node)
        frontier.extend(space.successors(node))
    assert any(len(vals) > 1 for node in pool for vals in node.values.values())
    vocabulary = space.vocabulary
    extras: List[Assignment] = []
    for position, node in enumerate(pool[::7]):
        for tip in MORE_TIPS[domain]:
            extras.append(node.with_more_fact(vocabulary, tip))
        name = sorted(node.values)[position % len(node.values)]
        values = dict(node.values)
        values[name] = frozenset({UNLISTED})
        extras.append(Assignment(values, node.more))
        values[name] = node.values[name] | {UNLISTED}
        extras.append(Assignment(values, node.more))
    return pool + extras


@pytest.fixture(scope="module", params=sorted(SPACES))
def domain_pool(request):
    space = SPACES[request.param]()
    return request.param, space, _node_pool(space, request.param, 160)


# ------------------------------------------------- classification differential


def _run_sequence(state, vocabulary, pool, seed, probes_per_mark=3):
    """Random consistent marks interleaved with probes, checked against the
    brute-force reference; returns the reference."""
    rng = random.Random(seed)
    # a downward-closed ground truth, so marks never contradict each other
    seeds = rng.sample(pool, 4)

    def truly_significant(node):
        return any(node.leq(s, vocabulary) for s in seeds)

    reference = BruteForceState(vocabulary)
    for _ in range(60):
        node = rng.choice(pool)
        if truly_significant(node):
            state.mark_significant(node)
            reference.significant.append(node)
        else:
            state.mark_insignificant(node)
            reference.insignificant.append(node)
        for probe in rng.sample(pool, probes_per_mark):
            assert state.status(probe) is reference.status(probe), probe
    return reference


@pytest.mark.parametrize("seed", range(6))
def test_indexed_status_matches_brute_force(domain_pool, seed):
    _, space, pool = domain_pool
    state = ClassificationState(space)
    reference = _run_sequence(state, space.vocabulary, pool, seed)
    for node in pool:
        assert state.status(node) is reference.status(node), node
    assert set(state.significant_witnesses()) == reference.maximal_significant()


@pytest.mark.parametrize("seed", range(3))
def test_index_is_exact_on_values(domain_pool, seed):
    """Without MORE facts every candidate the index yields is a witness,
    multi-valued variables and unregistered terms included."""
    _, space, pool = domain_pool
    plain = [node for node in pool if not node.more]
    counting = CountingSpace(space)
    _run_sequence(ClassificationState(counting), space.vocabulary, plain, seed)
    assert counting.leq_calls > 0
    assert counting.leq_misses == 0


def test_up_closure_keys_reuse_the_compiled_closures(domain_pool):
    _, space, pool = domain_pool
    vocabulary = space.vocabulary
    for node in pool:
        keys = space.up_closure_keys(node)
        assert sorted((n, v) for n, v, _ in keys) == sorted(
            (n, v) for n, vals in node.values.items() for v in vals
        )
        for name, value, generalizations in keys:
            if value == UNLISTED:
                assert generalizations == frozenset({UNLISTED})
            else:
                assert generalizations is vocabulary.ancestors(value)


# ------------------------------------------------------------ MSP tracker


def _drive_trackers(space, pool, tips, seed):
    """One random campaign over both trackers, compared after every
    refresh; returns the confirmed set after each step."""
    rng = random.Random(seed)
    vocabulary = space.vocabulary
    state = ClassificationState(space)
    watched = MspTracker(space, state)
    rescan = RescanTracker(space, state)
    seeds = rng.sample(pool, 3)

    def truly_significant(node):
        return any(node.leq(s, vocabulary) for s in seeds)

    candidates: List[Assignment] = []
    history = []
    for _ in range(200):
        roll = rng.random()
        if roll < 0.15 and candidates:
            # MORE growth: a crowd-proposed extension of a candidate
            node = rng.choice(candidates)
            extended = space.propose_more_fact(node, rng.choice(tips))
            if extended is not None:
                watched.note_new_successor(node, extended)
                rescan.note_new_successor(node, extended)
        else:
            waiting = [c for c in candidates if rescan.pending.get(c)]
            if roll < 0.4 or not waiting:
                node = rng.choice(pool)
            else:
                # classify pending successors of candidates, so frontiers
                # drain (the reference's frontier, never the watched stack)
                node = rng.choice(rescan.pending[rng.choice(waiting)])
            if truly_significant(node):
                if state.status(node) is Status.UNKNOWN:
                    state.mark_significant(node)
                watched.note_significant(node)
                rescan.note_significant(node)
                candidates.append(node)
            elif state.status(node) is Status.UNKNOWN:
                state.mark_insignificant(node)
        watched.refresh(force=True)
        rescan.refresh()
        assert watched.confirmed() == rescan.confirmed
        history.append(frozenset(rescan.confirmed))
    return history


@pytest.mark.parametrize("seed", range(4))
def test_watched_tracker_matches_full_rescan(domain_pool, seed):
    domain, space, pool = domain_pool
    history = _drive_trackers(space, pool, MORE_TIPS[domain], seed)
    assert history[-1], "the campaign should confirm some candidate"


def test_mid_run_successor_delays_confirmation_in_both_trackers():
    space = _running_example_space()
    state = ClassificationState(space)
    watched = MspTracker(space, state)
    rescan = RescanTracker(space, state)
    vocabulary = space.vocabulary
    candidate = Assignment.make(
        vocabulary,
        {"x": {Element("Central Park")}, "y": {Element("Biking")},
         "z": {Element("Maoz Veg")}, "__any_0": {ANY_ELEMENT}},
    )
    state.mark_significant(candidate)
    for tracker in (watched, rescan):
        tracker.note_significant(candidate)
    successors = space.successors(candidate)
    assert len(successors) > 1
    for successor in successors[1:]:
        state.mark_insignificant(successor)
    watched.refresh(force=True)
    rescan.refresh()
    assert watched.confirmed() == rescan.confirmed == set()

    state.mark_insignificant(successors[0])
    # the lattice grows before the next refresh: both must now wait for it
    extended = space.propose_more_fact(
        candidate, Fact("Rent Bikes", "doAt", "Boathouse")
    )
    assert extended is not None
    for tracker in (watched, rescan):
        tracker.note_new_successor(candidate, extended)
    watched.refresh(force=True)
    rescan.refresh()
    assert watched.confirmed() == rescan.confirmed == set()

    state.mark_insignificant(extended)
    watched.refresh(force=True)
    rescan.refresh()
    assert watched.confirmed() == rescan.confirmed == {candidate}


def test_watched_refresh_checks_one_successor_per_waiting_candidate():
    """A refresh looks at the watched top only, not the whole frontier."""
    dag = ExplicitDAG()
    for child in range(1, 6):
        dag.add_edge(0, child)
    state = ClassificationState(dag)
    calls = []
    real_status = state.status

    def counting_status(node):
        calls.append(node)
        return real_status(node)

    state.status = counting_status  # type: ignore[method-assign]
    tracker = MspTracker(dag, state)
    state.mark_significant(0)
    tracker.note_significant(0)
    tracker.refresh(force=True)
    assert calls == [1]  # the first successor is watched; 2..5 wait
    state.mark_insignificant(1)
    state.mark_insignificant(2)
    calls.clear()
    tracker.refresh(force=True)
    assert calls == [1, 2, 3]
