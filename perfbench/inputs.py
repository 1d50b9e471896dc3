"""Workload inputs generated from ``--seed``.

Every workload serves an *identical* crowd: all members share one
prototype personal database, so any ``sample_size`` answers for a node
average to the same value and the session paths must reproduce a serial
``engine.execute`` (the repo's MSP-identity oracle).

A single simulated member's database swings the campaign size by ±40%
from seed to seed (travel at 0.2 asks 5,028–11,025 questions over seeds
0–9), because each member draws its own habit strengths.  The benchmark
needs figures that mean the same thing for every seed, so where it builds
the crowd itself it uses a **pooled prototype**: the transactions of
``POOL_MEMBERS`` simulated members drawn from a seed, merged into one
database — a member whose habits sit at the crowd's averages.  The shard
fleet builds its members inside its worker processes from
``(domain, seed)``, so there the benchmark cannot pool.

Pooling is not enough: a few nodes near a threshold open or close whole
sub-lattices, so pooled travel prototypes still differ by ~10% in questions
and, because the classification cost grows faster than the question count,
by ~30% in time; pooled health prototypes spread 0.05 in questions over
five seeds, and four unpooled shard fleets per pass 0.09.  So every
workload serves fixed crowds: ``mine-travel`` and ``serve-http`` the pooled
crowd of ``FIXED_CROWD_SEED``, ``serve-shards`` the fleets of
``FIXED_FLEET_SEEDS``.  ``--seed`` chooses only an order that changes no
support (:func:`shuffled`): of the database's transactions on
``mine-travel``, of the sessions posed on the two serving workloads.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple, TypeVar

#: simulated members merged into one pooled prototype database
POOL_MEMBERS = 16

#: the pooled crowd ``mine-travel`` and ``serve-http`` serve for every ``--seed``
FIXED_CROWD_SEED = 0

#: the crowd seeds of the fleets ``serve-shards`` serves for every ``--seed``
FIXED_FLEET_SEEDS = (0, 1, 2, 3)

Transactions = List[Tuple[str, Any]]
T = TypeVar("T")


def pooled_transactions(dataset: Any, seed: int) -> Transactions:
    """The pooled prototype: ``POOL_MEMBERS`` simulated databases merged.

    Behaviour knobs are zeroed exactly as ``build_identical_crowd`` does
    (no noise, no specialization, pruning or MORE tips), so members built
    on it answer every question with the same exact support.
    """
    simulated = dataset.build_crowd(
        size=POOL_MEMBERS,
        seed=seed,
        noise=0.0,
        specialization_ratio=0.0,
        pruning_ratio=0.0,
        more_tip_ratio=0.0,
    )
    return [
        (f"{index}.{transaction.transaction_id}", transaction.facts)
        for index, member in enumerate(simulated)
        for transaction in member.database
    ]


def shuffled(items: Sequence[T], seed: int) -> List[T]:
    """The same items in a ``seed``-chosen order."""
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def identical_crowd(
    transactions: Transactions, vocabulary: Any, size: int, prefix: str = "m"
) -> List[Any]:
    """``size`` members over one fresh database built from ``transactions``.

    A fresh :class:`PersonalDatabase` per crowd keeps every campaign cold:
    its support index is compiled inside the campaign, as for a new crowd.
    """
    from repro.crowd.member import CrowdMember
    from repro.crowd.personal_db import PersonalDatabase, Transaction

    database = PersonalDatabase(
        Transaction(tid, facts) for tid, facts in transactions
    )
    return [
        CrowdMember(f"{prefix}{index}", database, vocabulary)
        for index in range(size)
    ]


def msp_keys(assignments: Sequence[Any]) -> List[str]:
    """The canonical form MSP sets are compared in."""
    return sorted(repr(assignment) for assignment in assignments)
