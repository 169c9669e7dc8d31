"""Problem data model: instances, caching policies, request probabilities.

Area indexing convention used throughout the package: areas are numbered
0..N, where area 0 is the macro-only region (users covered by no small
cell) and areas 1..N are the SCBS coverage areas.  Arrays that describe
SCBSs only (cache sizes, transmit costs, placement rows) are 0-based over
SCBS 1..N, so entry ``j`` belongs to SCBS ``j + 1``.  File indices are
plain 0-based.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .reduction import DecisionInstance

MBS_AREA = 0
# The types of the JSON values a field of each kind takes (a bool is no number).
_JSON_KINDS = {"int": (int,), "float": (int, float), "str": (str,), "list": (list,)}


def request_probability(rate: float, deadline: float) -> float:
    """Probability of at least one Poisson arrival within one service period.

    ``rate`` is in requests/second, ``deadline`` is the period length in
    seconds.  Returns ``1 - exp(-rate * deadline)``; below 1 except where
    the exponential underflows.
    """
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"rate must be finite and non-negative, got {rate!r}")
    if not (math.isfinite(deadline) and deadline > 0):
        raise ValueError(f"deadline must be finite and positive, got {deadline!r}")
    return -math.expm1(-rate * deadline)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def numeric_array(name: str, value, dtype) -> np.ndarray:
    """A writable ``dtype`` copy of ``value``; ValueError naming ``name`` unless it holds numbers.

    Checks the dtype numpy infers, not each item, so strings and other
    objects are refused before a cast could parse them or fail on them.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers only")
    return arr.astype(dtype)


def check_keys(kind: str, data: dict, required, optional=(), kinds=()) -> None:
    """Raise ValueError naming the first unknown, missing or (per ``kinds``) mistyped key."""
    if not isinstance(data, dict):
        raise ValueError(f"{kind}: expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{kind}: unknown field {unknown[0]!r}")
    for name in required:
        if name not in data:
            raise ValueError(f"{kind}: missing field {name!r}")
    for name, want in dict(kinds).items():
        if name in data and type(data[name]) not in _JSON_KINDS[want]:
            raise ValueError(f"{kind}: field {name!r} must be {want}, got {data[name]!r}")


def check_ints(kind: str, name: str, values: list) -> None:
    """Raise ValueError unless every item of the JSON array field ``name`` is an integer."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{kind}: field {name!r} must hold integers, got {v!r}")


class Record:
    """JSON form of a dataclass record: one object keyed by its field names.

    Array fields are written as nested lists; ``from_dict`` passes the
    values to the constructor, which validates and converts them.  A
    record with its own format overrides ``to_dict`` and ``from_dict``.

    Each subclass gets the four methods in its own namespace, so code
    that patches a record class's methods through ``vars(cls)`` (the
    traced benchmark run in ``bench/spans.py``) finds them there.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in ("to_dict", "from_dict", "to_json", "from_json"):
            if name not in vars(cls):
                setattr(cls, name, vars(Record)[name])

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}

    @classmethod
    def from_dict(cls, data: dict):
        fields = dataclasses.fields(cls)
        required = [f.name for f in fields if f.default is dataclasses.MISSING]
        check_keys(cls.__name__, data, required, [f.name for f in fields if f.name not in required],
                   {f.name: f.type for f in fields if f.type in _JSON_KINDS})
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class Instance(Record):
    """A complete cell: SCBS caches, transmission costs, and Poisson demand.

    Attributes
    ----------
    num_scbs : int
        N, number of small-cell base stations.
    num_files : int
        I, catalog size.  Files are unit sized.
    cache_size : (N,) int array
        Files each SCBS can hold.  Clamped to ``num_files`` on construction.
    cost_backhaul : float
        Cost of pulling one file over the macro backhaul.
    cost_mbs_tx : float
        Cost of one macro-cell transmission.
    cost_scbs_tx : (N,) float array
        Cost of one transmission by each SCBS; never exceeds ``cost_mbs_tx``.
    demand : (N+1, I) float array
        Request rates in requests/second.  Row 0 is the macro-only area,
        row n (n >= 1) is SCBS n.
    deadline : float
        Service period length d in seconds; requests are batched per period.
    """

    num_scbs: int
    num_files: int
    cache_size: np.ndarray
    cost_backhaul: float
    cost_mbs_tx: float
    cost_scbs_tx: np.ndarray
    demand: np.ndarray
    deadline: float

    def __post_init__(self):
        n, i = int(self.num_scbs), int(self.num_files)
        if n < 1:
            raise ValueError(f"num_scbs must be positive, got {n}")
        if i < 1:
            raise ValueError(f"num_files must be positive, got {i}")
        object.__setattr__(self, "num_scbs", n)
        object.__setattr__(self, "num_files", i)

        cache = numeric_array("cache_size", self.cache_size, np.int64)
        if cache.shape != (n,):
            raise ValueError(f"cache_size must have shape ({n},), got {cache.shape}")
        if (cache < 0).any():
            raise ValueError("cache sizes must be non-negative")
        # caching more than the catalog is meaningless
        np.minimum(cache, i, out=cache)
        object.__setattr__(self, "cache_size", _readonly(cache))

        for name in ("cost_backhaul", "cost_mbs_tx", "deadline"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
            object.__setattr__(self, name, v)
        if self.deadline <= 0:
            raise ValueError("deadline must be strictly positive")

        c = numeric_array("cost_scbs_tx", self.cost_scbs_tx, np.float64)
        if c.shape != (n,):
            raise ValueError(f"cost_scbs_tx must have shape ({n},), got {c.shape}")
        if not np.isfinite(c).all() or (c < 0).any():
            raise ValueError("SCBS transmission costs must be finite and non-negative")
        if (c > self.cost_mbs_tx).any():
            raise ValueError("SCBS transmission cost may not exceed the MBS cost")
        object.__setattr__(self, "cost_scbs_tx", _readonly(c))

        dem = numeric_array("demand", self.demand, np.float64)
        if dem.shape != (n + 1, i):
            raise ValueError(f"demand must have shape ({n + 1}, {i}), got {dem.shape}")
        if not np.isfinite(dem).all() or (dem < 0).any():
            raise ValueError("demand rates must be finite and non-negative")
        object.__setattr__(self, "demand", _readonly(dem))

    def request_probabilities(self) -> np.ndarray:
        """Per-area, per-file probability of at least one request in a period.

        Shape (N+1, I); row 0 is the macro-only area.
        """
        return -np.expm1(-self.demand * self.deadline)


@dataclass(frozen=True, eq=False)
class CachingPolicy:
    """Binary placement matrix: ``placement[n-1, i] == 1`` iff SCBS n caches file i."""

    placement: np.ndarray

    def __post_init__(self):
        # check before casting: an int8 cast would truncate 1.7 to 1
        raw = np.asarray(self.placement)
        if raw.ndim != 2:
            raise ValueError(f"placement must be a 2-D matrix, got ndim={raw.ndim}")
        if not ((raw == 0) | (raw == 1)).all():
            raise ValueError("placement entries must be 0 or 1")
        object.__setattr__(self, "placement", _readonly(raw.astype(np.int8)))

    @property
    def num_scbs(self) -> int:
        return self.placement.shape[0]

    @property
    def num_files(self) -> int:
        return self.placement.shape[1]

    @classmethod
    def empty(cls, num_scbs: int, num_files: int) -> "CachingPolicy":
        return cls(np.zeros((num_scbs, num_files), dtype=np.int8))

    @classmethod
    def from_pairs(
        cls, num_scbs: int, num_files: int, pairs: Iterable[tuple[int, int]]
    ) -> "CachingPolicy":
        """Build a policy from (scbs, file) placements; ``scbs`` is an area id in 1..N."""
        x = np.zeros((num_scbs, num_files), dtype=np.int8)
        for scbs, file in pairs:
            if not 1 <= scbs <= num_scbs:
                raise ValueError(f"scbs id {scbs} outside 1..{num_scbs}")
            x[scbs - 1, file] = 1
        return cls(x)

    def cached_areas(self, file: int) -> frozenset[int]:
        """Area ids (1..N) of the SCBSs holding ``file``."""
        return frozenset(int(n) + 1 for n in np.flatnonzero(self.placement[:, file]))

    def check_feasible(self, instance: Instance | DecisionInstance) -> None:
        """Raise ValueError unless this policy fits the instance's caches.

        Reads only ``num_scbs``, ``num_files`` and ``cache_size``, which a
        cell ``Instance`` and a reduction's ``DecisionInstance`` both have.
        """
        if self.placement.shape != (instance.num_scbs, instance.num_files):
            raise ValueError(
                f"placement shape {self.placement.shape} does not match instance "
                f"({instance.num_scbs}, {instance.num_files})"
            )
        fill = self.placement.sum(axis=1)
        over = np.flatnonzero(fill > instance.cache_size)
        if over.size:
            n = int(over[0])
            raise ValueError(
                f"SCBS {n + 1} holds {int(fill[n])} files but its cache size is "
                f"{int(instance.cache_size[n])}"
            )

    def to_json(self) -> str:
        return json.dumps(self.placement.tolist())

    @classmethod
    def from_json(cls, text: str) -> "CachingPolicy":
        return cls(json.loads(text))


def _check_areas(num_scbs: int, subset: Iterable[int]) -> set[int]:
    """The area ids of ``subset`` as a set; ValueError naming the first outside 0..N."""
    areas = set()
    for a in subset:
        if not 0 <= a <= num_scbs:
            raise ValueError(f"area id {a} outside 0..{num_scbs}")
        areas.add(a)
    return areas


def subset_probability(instance: Instance, subset: Iterable[int], file: int) -> float:
    """Probability that exactly the areas in ``subset`` request ``file`` in a period.

    Areas generate requests independently, so this is the product, over
    areas 0..N in order, of each member area's request probability and
    each non-member's complement.  Over all 2^(N+1) subsets the values sum
    to 1 for any fixed file.
    """
    if not 0 <= file < instance.num_files:
        raise ValueError(f"file index {file} outside 0..{instance.num_files - 1}")
    areas = _check_areas(instance.num_scbs, subset)
    prob = 1.0
    for a, p in enumerate((-np.expm1(-instance.demand[:, file] * instance.deadline)).tolist()):
        prob *= p if a in areas else 1.0 - p
    return prob


def mbs_triggered(policy: CachingPolicy, subset: Iterable[int], file: int) -> bool:
    """Whether the requesting areas ``subset`` force a macro-cell multicast.

    True iff the macro-only area requested, or some requesting SCBS lacks
    the file.  When False, every requester is served by its own SCBS.
    """
    if not 0 <= file < policy.num_files:
        raise ValueError(f"file index {file} outside 0..{policy.num_files - 1}")
    areas = _check_areas(policy.num_scbs, subset)
    if not areas:
        raise ValueError("requesting subset must be non-empty")
    cached = policy.placement[:, file].tolist()
    return any(a == MBS_AREA or not cached[a - 1] for a in areas)
