"""Set packing reduced to threshold-cost cache placement.

``spp_to_macdp`` builds, from a set packing question, a caching decision
instance whose request probabilities form an explicit joint table (one
subset of areas per file, each with mass 1/|subsets|) rather than a
product of independent areas.  Exhaustive deciders for both problems make
the equivalence machine-checkable on small inputs, and the witness
translators convert solutions back and forth.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import (CachingPolicy, Record, as_float, check_cell, check_ints, check_keys,
                    mbs_triggered)
from .solvers import DEFAULT_POLICY_CAP, _placement_blocks, _placement_tables

# Most subsets ``spp_decide`` enumerates selections of.
SELECTION_CAP = 20
COST_SLACK = 1e-9
# The JSON keys of a decision instance and of one table entry, with the kind
# of each value.
_DECISION_KEYS = {"num_scbs": "int", "num_files": "int", "cache_size": "list",
                  "cost_backhaul": "float", "cost_mbs_tx": "float", "cost_scbs_tx": "list",
                  "deadline": "float", "prob_table": "list", "threshold": "float"}
_ENTRY_KEYS = {"file": "int", "areas": "list", "prob": "float"}


@dataclass(frozen=True)
class SppInstance(Record):
    """Set packing question: do ``target`` of the listed subsets pairwise disjoint exist?"""

    elements: frozenset
    subsets: tuple[frozenset, ...]
    target: int

    def __post_init__(self):
        elements = frozenset(self.elements)
        subsets = tuple(frozenset(s) for s in self.subsets)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "target", int(self.target))
        for idx, s in enumerate(subsets):
            if not s <= elements:
                raise ValueError(f"subset {idx} contains elements outside the ground set")
        if not 0 <= self.target <= len(subsets):
            raise ValueError(
                f"target must lie in 0..{len(subsets)}, got {self.target}"
            )

    def to_dict(self) -> dict:
        return {
            "elements": sorted(self.elements),
            "subsets": [sorted(s) for s in self.subsets],
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SppInstance":
        keys = {"elements": "list", "subsets": "list", "target": "int"}
        check_keys(cls.__name__, data, keys, kinds=keys)
        if not all(isinstance(s, list) for s in data["subsets"]):
            raise ValueError(f"{cls.__name__}: every subset must be a list")
        check_ints(cls.__name__, "elements", data["elements"])
        for s in data["subsets"]:
            check_ints(cls.__name__, "subsets", s)
        return cls(**data)


@dataclass(frozen=True, eq=False)
class DecisionInstance(Record):
    """Threshold question over an explicit request-probability table.

    ``prob_table`` lists ``(file, areas, prob)`` entries in the order given:
    with probability ``prob``, exactly the areas ``areas`` request ``file``.
    The table is taken literally, so a file's listed masses may sum to less
    than 1 (the remainder is the no-request event).  Asks whether some
    feasible policy has objective value at most ``threshold``.
    The cell fields follow an ``Instance``'s rules (``check_cell``), but
    ``num_scbs`` may be 0.
    """

    num_scbs: int
    num_files: int
    cache_size: np.ndarray
    cost_backhaul: float
    cost_mbs_tx: float
    cost_scbs_tx: np.ndarray
    deadline: float
    prob_table: tuple[tuple[int, frozenset[int], float], ...]
    threshold: float

    def __post_init__(self):
        # no SCBS at all: ``spp_to_macdp`` of an empty ground set has none
        check_cell(self, min_scbs=0)
        n, i = self.num_scbs, self.num_files
        object.__setattr__(self, "threshold", as_float(self.threshold))
        if math.isnan(self.threshold):
            raise ValueError("threshold must be a number")

        table = tuple((operator.index(f), frozenset(r), as_float(pr))
                      for f, r, pr in self.prob_table)
        mass = [0.0] * i
        for file, areas, pr in table:
            if not 0 <= file < i:
                raise ValueError(
                    f"{type(self).__name__}: prob_table file {file} outside 0..{i - 1}"
                )
            if not 0.0 <= pr <= 1.0:
                raise ValueError(f"file {file}: probability {pr} outside [0, 1]")
            if any(not 0 <= a <= n for a in areas):
                raise ValueError(f"file {file}: area id outside 0..{n}")
            mass[file] += pr
        for file, total in enumerate(mass):
            if total > 1.0 + 1e-9:
                raise ValueError(f"file {file}: listed probabilities sum to {total} > 1")
        object.__setattr__(self, "prob_table", table)

    def to_dict(self) -> dict:
        table = [{"file": f, "areas": sorted(r), "prob": pr} for f, r, pr in self.prob_table]
        return {**Record.to_dict(self), "prob_table": table}

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionInstance":
        check_keys(cls.__name__, data, _DECISION_KEYS, kinds=_DECISION_KEYS)
        for entry in data["prob_table"]:
            check_keys(f"{cls.__name__} prob_table entry", entry, _ENTRY_KEYS, kinds=_ENTRY_KEYS)
            check_ints(f"{cls.__name__} prob_table entry", "areas", entry["areas"])
        table = [(e["file"], e["areas"], e["prob"]) for e in data["prob_table"]]
        return cls(**{**data, "prob_table": table})


def _element_areas(spp: SppInstance) -> dict:
    """Canonical element -> SCBS area id map (sorted element order, ids 1..N)."""
    return {e: j + 1 for j, e in enumerate(sorted(spp.elements))}


def spp_to_macdp(spp: SppInstance) -> DecisionInstance:
    """Encode a set packing question as a threshold caching question.

    One SCBS per element (unit cache), one unit file per listed subset.
    File i is requested, with probability 1/|subsets|, by exactly the areas
    of the i-th subset and never otherwise; backhaul is free, a macro
    transmission costs 1, SCBS transmissions are free.  Packing ``target``
    subsets is then exactly reaching cost ``1 - target/|subsets|``.
    """
    if not spp.subsets:
        raise ValueError("subset list is empty: the cost threshold is undefined")
    area = _element_areas(spp)
    n = len(area)
    count = len(spp.subsets)
    mass = 1.0 / count
    table = tuple((i, frozenset(area[e] for e in s), mass) for i, s in enumerate(spp.subsets))
    return DecisionInstance(
        num_scbs=n,
        num_files=count,
        cache_size=np.ones(n, dtype=np.int64),
        cost_backhaul=0.0,
        cost_mbs_tx=1.0,
        cost_scbs_tx=np.zeros(n),
        deadline=1.0,
        prob_table=table,
        threshold=1.0 - spp.target / count,
    )


def decision_cost(decision: DecisionInstance, policy: CachingPolicy) -> float:
    """Objective value of ``policy`` under the explicit probability table.

    Each entry costs the macro transmission when ``mbs_triggered``, else
    its requesters' SCBS costs.  Empty requesting subsets never cost
    anything; any lingering mass on them is ignored, matching an objective
    that sums over non-empty requesting subsets only.
    """
    policy.check_feasible(decision)
    c = decision.cost_scbs_tx
    c_mbs = decision.cost_backhaul + decision.cost_mbs_tx
    total = 0.0
    for file, areas, pr in decision.prob_table:
        if not areas or pr == 0.0:
            continue
        triggered = mbs_triggered(policy, areas, file)
        total += pr * (c_mbs if triggered else sum(c[a - 1] for a in areas))
    return total


def macdp_decide(
    decision: DecisionInstance, max_policies: int = DEFAULT_POLICY_CAP
) -> tuple[bool, CachingPolicy | None]:
    """Exhaustively decide whether some feasible policy meets the threshold.

    Returns ``(True, witness)`` for the first (lexicographically smallest)
    policy with objective <= threshold + 1e-9, or ``(False, None)`` after
    scanning the whole space.  The scan runs over ``_placement_blocks`` of
    width 1 in their lexicographic order: a policy's cost is the fixed part
    plus each entry's local or macro term, added in table order as a scalar
    loop would.  An entry's coverage ANDs its SCBSs' per-option columns, so
    only that add is block-sized.  Every term is >= 0 and IEEE addition of
    a non-negative number never lowers a sum, so the first policy whose
    full cost is within the limit is the one a scan that stops at the
    first partial sum over the limit accepts.
    """
    n, i = decision.num_scbs, decision.num_files
    tables = _placement_tables(i, decision.cache_size, max_policies)
    c = decision.cost_scbs_tx
    c_mbs = decision.cost_backhaul + decision.cost_mbs_tx
    limit = decision.threshold + COST_SLACK

    # Entries touching the macro-only area cost c_mbs under any policy.
    fixed = 0.0
    dynamic: list[tuple[int, tuple[int, ...], float, float]] = []
    for file, areas, pr in decision.prob_table:
        if not areas or pr == 0.0:
            continue
        if 0 in areas:
            fixed += pr * c_mbs
        else:
            rows = tuple(a - 1 for a in sorted(areas))
            local = pr * sum(c[r] for r in rows)
            dynamic.append((file, rows, pr * c_mbs, local))

    if fixed > limit:
        return False, None

    for shape, rows in _placement_blocks(tables, 1):
        cost = np.full(shape, fixed)
        for file, scbs, mbs_term, local_term in dynamic:
            covered = math.prod((tables[r][rows[r], file] for r in scbs), start=True)
            cost += np.where(covered, local_term, mbs_term)
        hits = np.flatnonzero(cost <= limit)
        if hits.size:
            x = np.array([t[r.flat[hits[0]]] for t, r in zip(tables, np.broadcast_arrays(*rows))])
            return True, CachingPolicy(x.reshape(n, i))
    return False, None


def spp_decide(spp: SppInstance) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustively decide set packing; returns the witness index selection.

    ``(True, indices)`` lists ``target`` pairwise-disjoint subsets (the
    lexicographically first such selection); ``(False, None)`` means none
    exists.  A target of zero is vacuously satisfied.  Refuses more than
    ``SELECTION_CAP`` subsets.
    """
    count = len(spp.subsets)
    if count > SELECTION_CAP:
        raise CapacityError(
            f"{count} subsets exceed the exhaustive selection cap of {SELECTION_CAP}"
        )
    if spp.target == 0:
        return True, ()
    for combo in itertools.combinations(range(count), spp.target):
        union: set = set()
        size = 0
        for j in combo:
            union |= spp.subsets[j]
            size += len(spp.subsets[j])
        if len(union) == size:
            return True, combo
    return False, None


def packing_from_policy(spp: SppInstance, policy: CachingPolicy) -> tuple[int, ...]:
    """Subset indices fully served by local caches under ``policy``.

    A subset counts when the corresponding file sits in the cache of every
    SCBS it requests from; empty subsets count unconditionally.  If the
    policy meets the reduced threshold, these indices form a packing of at
    least the target size.
    """
    area = _element_areas(spp)
    picked = []
    for i, s in enumerate(spp.subsets):
        if all(policy.placement[area[e] - 1, i] for e in s):
            picked.append(i)
    return tuple(picked)


def policy_from_packing(spp: SppInstance, indices) -> CachingPolicy:
    """Cache each picked subset's file at all of that subset's SCBSs.

    With pairwise-disjoint picks every unit cache receives at most one
    file, so the result is feasible for the reduced instance.
    """
    area = _element_areas(spp)
    x = np.zeros((len(area), len(spp.subsets)), dtype=np.int8)
    for i in indices:
        for e in spp.subsets[i]:
            x[area[e] - 1, i] = 1
    return CachingPolicy(x)
