"""Classification bookkeeping and the Observation 4.4 inference scheme.

Every answer classifies more than the asked node: a significant answer
classifies the whole *down-set* (all more-general assignments) as
significant, an insignificant one classifies the *up-set* (all more-specific
assignments) as insignificant.  :class:`ClassificationState` records the
classification witnesses and answers status queries.

Two strategies:

* when the space exposes ``ancestors``/``descendants`` (an
  :class:`~repro.assignments.lattice.ExplicitDAG`), classifications are
  propagated eagerly into plain sets — O(1) status checks, which the large
  synthetic runs need;
* otherwise (lazy query spaces) witnesses are kept in append-only logs,
  and a *bitmask index* over the logs picks the few witnesses that can
  decide a node.  Bit ``i`` of a mask stands for log entry ``i``.  The
  space's ``up_closure_keys`` name, per ``(variable, value)`` pair of a
  node, the value's generalizations from the compiled taxonomy closures;
  the node's *up-closure keys* are those ``(variable, ancestor)`` pairs.
  ``x ≤ w`` on values holds exactly when every ``(variable, value)`` pair
  of ``x`` is an up-closure key of ``w``, so

  - a significant witness is indexed under all of its up-closure keys, and
    the witnesses that may lie above ``x`` are the AND of the masks of
    ``x``'s own ``(variable, value)`` pairs — exact on values;
  - an insignificant witness is indexed under its own ``(variable,
    value)`` pairs, the ``j``-th value of a variable in slot ``j`` of that
    variable; a witness may lie below ``x`` when, in every slot, it has no
    value or its value is an up-closure key of ``x``.  Per slot that is
    the OR of the masks of ``x``'s up-closure keys, and the slots are
    ANDed — exact on values as well, multi-valued variables included.

  Every candidate is confirmed with ``space.leq`` in log order, which also
  settles MORE facts, so the index only prunes and the answers stay exact.
  Each queried node remembers how far into the logs it has been compared
  (a bit offset), so a (node, witness) pair is examined at most once over
  the whole run.  A space without ``up_closure_keys`` makes every entry a
  candidate: the same code then scans the logs.  Keys are read from the
  orders when an entry is logged, so the vocabulary must not gain edges
  while a state is in use (the watermarks assume the same).

The index follows the border view of Amarilli, Amsterdamer and Milo (*On
the Complexity of Mining Itemsets from the Crowd Using Taxonomies*): only
the antichain borders of the two logs decide a status, and the masks
narrow a lookup to the border entries that can.

Thread-safety (the service-layer locking contract): a
:class:`ClassificationState` is *not* internally synchronized — even
``status()`` mutates memo structures.  Each concurrent query session owns
its own state, and :mod:`repro.service` performs every read and write
under that session's lock; see ``docs/SERVICE.md``.  Do not share one
instance across sessions or touch it off-lock.
"""

from __future__ import annotations

import enum
from typing import (
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..assignments.lattice import AssignmentSpace
from ..observability import count as _obs_count, enabled as _obs_enabled

Node = TypeVar("Node", bound=Hashable)

#: one ``(variable, value, generalizations of value)`` triple per value
Keys = Sequence[Tuple[str, Hashable, FrozenSet[Hashable]]]


class Status(enum.Enum):
    SIGNIFICANT = "significant"
    INSIGNIFICANT = "insignificant"
    UNKNOWN = "unknown"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first (log order)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassificationState(Generic[Node]):
    """Tracks which assignments are classified, with inference closure."""

    def __init__(self, space: AssignmentSpace[Node]):
        self.space = space
        self._fast = hasattr(space, "ancestors") and hasattr(space, "descendants")
        if self._fast:
            self._significant: Set[Node] = set()
            self._insignificant: Set[Node] = set()
        else:
            # append-only witness logs; _checked[n] = the bit offsets up to
            # which n has been compared against each log
            self._sig_log: List[Node] = []
            self._insig_log: List[Node] = []
            self._status_cache: Dict[Node, Status] = {}
            self._checked: Dict[Node, Tuple[int, int]] = {}
            self._up_closure_keys = getattr(space, "up_closure_keys", None)
            # variable -> key term -> mask of the significant entries whose
            # up-closure holds the key
            self._sig_index: Dict[str, Dict[Hashable, int]] = {}
            # variable -> slot j -> value -> mask of the insignificant
            # entries whose j-th value of the variable it is; _insig_filled
            # holds, per variable and slot, the mask of the entries that
            # have a j-th value at all
            self._insig_index: Dict[str, List[Dict[Hashable, int]]] = {}
            self._insig_filled: Dict[str, List[int]] = {}

    # ------------------------------------------------------------- marking

    def mark_significant(self, node: Node) -> None:
        """Record that ``node`` is significant; classifies its down-set."""
        if self._fast:
            if not _obs_enabled():
                self._significant.update(self.space.ancestors(node))  # type: ignore[attr-defined]
                return
            added = self.space.ancestors(node) - self._significant  # type: ignore[attr-defined]
            if added:
                self._significant |= added
                inferred = len(added) - (1 if node in added else 0)
                if inferred:
                    _obs_count("mining.inferred.significant", inferred)
            return
        if self.status(node) is Status.SIGNIFICANT:
            return  # already implied by an earlier witness
        self._status_cache[node] = Status.SIGNIFICANT
        bit = 1 << len(self._sig_log)
        self._sig_log.append(node)
        for name, _, generalizations in self._keys(node) or ():
            index = self._sig_index.setdefault(name, {})
            for term in generalizations:
                index[term] = index.get(term, 0) | bit

    def mark_insignificant(self, node: Node) -> None:
        """Record that ``node`` is insignificant; classifies its up-set."""
        if self._fast:
            if not _obs_enabled():
                self._insignificant.update(self.space.descendants(node))  # type: ignore[attr-defined]
                return
            added = self.space.descendants(node) - self._insignificant  # type: ignore[attr-defined]
            if added:
                self._insignificant |= added
                inferred = len(added) - (1 if node in added else 0)
                if inferred:
                    _obs_count("mining.inferred.insignificant", inferred)
            return
        if self.status(node) is Status.INSIGNIFICANT:
            return
        self._status_cache[node] = Status.INSIGNIFICANT
        bit = 1 << len(self._insig_log)
        self._insig_log.append(node)
        next_slot: Dict[str, int] = {}
        for name, value, _ in self._keys(node) or ():
            slot = next_slot.get(name, 0)
            next_slot[name] = slot + 1
            slots = self._insig_index.setdefault(name, [])
            filled = self._insig_filled.setdefault(name, [])
            if slot == len(slots):
                slots.append({})
                filled.append(0)
            slots[slot][value] = slots[slot].get(value, 0) | bit
            filled[slot] |= bit

    # -------------------------------------------------------------- queries

    def status(self, node: Node) -> Status:
        if self._fast:
            if node in self._significant:
                return Status.SIGNIFICANT
            if node in self._insignificant:
                return Status.INSIGNIFICANT
            return Status.UNKNOWN
        cached = self._status_cache.get(node)
        if cached is not None:
            return cached
        sig_log = self._sig_log
        insig_log = self._insig_log
        sig_from, insig_from = self._checked.get(node, (0, 0))
        if sig_from == len(sig_log) and insig_from == len(insig_log):
            return Status.UNKNOWN  # no witness logged since the last look
        keys = self._keys(node)
        leq = self.space.leq
        for index in _bits(self._sig_candidates(keys) >> sig_from << sig_from):
            if leq(node, sig_log[index]):
                # resolved through a witness: classified without a question
                self._status_cache[node] = Status.SIGNIFICANT
                _obs_count("mining.inferred.significant")
                return Status.SIGNIFICANT
        for index in _bits(self._insig_candidates(keys) >> insig_from << insig_from):
            if leq(insig_log[index], node):
                self._status_cache[node] = Status.INSIGNIFICANT
                _obs_count("mining.inferred.insignificant")
                return Status.INSIGNIFICANT
        self._checked[node] = (len(sig_log), len(insig_log))
        return Status.UNKNOWN

    def _keys(self, node: Node) -> Optional[Keys]:
        """The node's index keys; None when the space has none."""
        keys_of = self._up_closure_keys
        return keys_of(node) if keys_of is not None else None

    def _sig_candidates(self, keys: Optional[Keys]) -> int:
        """Mask of the significant entries that may lie above a node."""
        mask = (1 << len(self._sig_log)) - 1
        if keys is None:
            return mask
        sig_index = self._sig_index
        for name, value, _ in keys:
            index = sig_index.get(name)
            if index is None:
                return 0
            mask &= index.get(value, 0)
            if not mask:
                return 0
        return mask

    def _insig_candidates(self, keys: Optional[Keys]) -> int:
        """Mask of the insignificant entries that may lie below a node."""
        everything = (1 << len(self._insig_log)) - 1
        if keys is None:
            return everything
        up: Dict[str, List[FrozenSet[Hashable]]] = {}
        for name, _, generalizations in keys:
            up.setdefault(name, []).append(generalizations)
        mask = everything
        for name, slots in self._insig_index.items():
            closure = up.get(name, ())
            for index, filled in zip(slots, self._insig_filled[name]):
                # an entry passes a slot when it has no value there or its
                # value there is an up-closure key of the node
                hit = everything & ~filled
                for generalizations in closure:
                    for term in generalizations:
                        entries = index.get(term)
                        if entries:
                            hit |= entries
                mask &= hit
                if not mask:
                    return 0
        return mask

    def is_classified(self, node: Node) -> bool:
        return self.status(node) is not Status.UNKNOWN

    def is_significant(self, node: Node) -> bool:
        return self.status(node) is Status.SIGNIFICANT

    def is_insignificant(self, node: Node) -> bool:
        return self.status(node) is Status.INSIGNIFICANT

    def significant_witnesses(self) -> List[Node]:
        """The maximal recorded significant nodes (an antichain)."""
        if self._fast:
            # the significant set is a down-set, so a node has a significant
            # strict descendant exactly when one of its successors is
            significant = self._significant
            successors = self.space.successors
            return [
                w
                for w in significant
                if not any(s in significant for s in successors(w))
            ]
        log = self._sig_log
        leq = self.space.leq
        maximal = []
        for position, w in enumerate(log):
            candidates = self._sig_candidates(self._keys(w)) & ~(1 << position)
            if not any(
                w != log[index] and leq(w, log[index])
                for index in _bits(candidates)
            ):
                maximal.append(w)
        return maximal
