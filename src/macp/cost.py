"""Expected per-period servicing cost of a caching policy.

The macro cell multicasts a file unless every request for it falls inside
the set of SCBSs caching it; then each requesting cached SCBS serves
locally.  Areas request independently, so with ``rate_out`` the summed
d * lambda of the areas outside the cached set, the file costs
``c_mbs * (1 - exp(-rate_out)) + exp(-rate_out) * sum of c_n * p_n`` over
the cached SCBSs.  ``_file_terms`` is the one place that formula is
written; ``cost_closed_form``, ``marginal_cost`` and the solvers are built
on it.  ``cost_bruteforce`` literally enumerates all 2^(N+1) requesting
subsets with the model's own ``subset_probability`` and ``mbs_triggered``
and is the independent ground truth for small N.  The unicast
metric used by popularity/unicast baselines lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import CachingPolicy, Instance, Record, mbs_triggered, subset_probability

DEFAULT_BRUTEFORCE_CAP = 16


@dataclass(frozen=True, eq=False)
class CostBreakdown(Record):
    """Expected cost per service period, split by file and by transmitter."""

    total: float
    per_file: np.ndarray
    mbs_component: float
    scbs_component: float

    def __post_init__(self):
        pf = np.array(self.per_file, dtype=np.float64)
        pf.setflags(write=False)
        object.__setattr__(self, "per_file", pf)
        object.__setattr__(self, "total", float(self.total))
        object.__setattr__(self, "mbs_component", float(self.mbs_component))
        object.__setattr__(self, "scbs_component", float(self.scbs_component))


def _breakdown(mbs_pf: np.ndarray, scbs_pf: np.ndarray) -> CostBreakdown:
    mbs = float(mbs_pf.sum())
    scbs = float(scbs_pf.sum())
    return CostBreakdown(
        total=mbs + scbs,
        per_file=mbs_pf + scbs_pf,
        mbs_component=mbs,
        scbs_component=scbs,
    )


def cost_bruteforce(
    instance: Instance,
    policy: CachingPolicy,
    max_scbs: int = DEFAULT_BRUTEFORCE_CAP,
) -> CostBreakdown:
    """Exact objective by enumerating every non-empty requesting subset.

    For each file and each subset r of the N+1 areas, adds
    ``subset_probability(r) * (cost_backhaul + cost_mbs_tx)`` when
    ``mbs_triggered`` says r makes the macro cell multicast, else
    ``subset_probability(r) * sum of the requesters' SCBS costs``.
    Work is Theta(I * 2^(N+1)); refuses to run above ``max_scbs``.
    """
    n = instance.num_scbs
    if n > max_scbs:
        raise CapacityError(
            f"brute-force enumeration over 2^{n + 1} subsets exceeds the cap of "
            f"{max_scbs} SCBSs; use cost_closed_form instead"
        )
    policy.check_feasible(instance)

    c = instance.cost_scbs_tx
    c_mbs = instance.cost_backhaul + instance.cost_mbs_tx
    # bit a of the mask = "area a requested"; bit 0 is the macro-only area
    subsets = [[a for a in range(n + 1) if (mask >> a) & 1] for mask in range(1, 1 << (n + 1))]

    mbs_pf = np.zeros(instance.num_files)
    scbs_pf = np.zeros(instance.num_files)
    for i in range(instance.num_files):
        for subset in subsets:
            prob = subset_probability(instance, subset, i)
            if prob == 0.0:
                continue
            if mbs_triggered(policy, subset, i):
                mbs_pf[i] += prob * c_mbs
            else:
                scbs_pf[i] += prob * sum(c[a - 1] for a in subset)
    return _breakdown(mbs_pf, scbs_pf)


def _file_terms(c_mbs: float, rate_out, local, expm1=np.expm1):
    """Per-file objective from the rate outside the cached set and the local cost.

    The macro cell transmits unless no area outside the cached set requests
    the file, which happens with probability ``exp(-rate_out)``; then the
    cached SCBSs serve at expected cost ``local`` (sum of c_n * p_n).  The
    term ``c_mbs * (1 - exp(-r)) + exp(-r) * local`` is written with one
    ``expm1`` so small rates keep their digits, and it never divides by a
    no-request probability, so rates large enough to make one 0 need no
    special case.  It is linear in ``c_mbs`` and ``local``: passing 0 for
    one gives the other transmitter's share.  Arrays take numpy's
    ``expm1``; a caller scoring single Python floats passes ``math.expm1``,
    several times cheaper per call.
    """
    e = expm1(-rate_out)
    return local + e * (local - c_mbs)


def _area_rates(instance: Instance, files=slice(None)):
    """Per-area inputs of the objective for ``files`` (every file by default).

    Returns ``(c_mbs, rate_mbs, rate, local_cost)``: the cost of one macro
    transmission (backhaul plus macro cell), the macro-only area's
    d * lambda per file, the (N, files) SCBS rates d * lambda, and the
    (N, files) expected cost c_n * p_n of SCBS n serving its own requests.
    """
    rate = instance.demand[:, files] * instance.deadline
    local_cost = instance.cost_scbs_tx[:, None] * -np.expm1(-rate[1:])
    return instance.cost_backhaul + instance.cost_mbs_tx, rate[0], rate[1:], local_cost


def _cached_split(rate_mbs, rate, local_cost, cached):
    """Per-file rate outside the cached set and local cost of the cached SCBSs."""
    rate_out = rate_mbs + np.where(cached, 0.0, rate).sum(axis=0)
    return rate_out, np.where(cached, local_cost, 0.0).sum(axis=0)


def _split_cost(c_mbs: float, rate_out, local) -> CostBreakdown:
    """The objective, split by transmitter, from a ``_cached_split``."""
    return _breakdown(_file_terms(c_mbs, rate_out, 0.0), _file_terms(0.0, rate_out, local))


def cost_closed_form(instance: Instance, policy: CachingPolicy) -> CostBreakdown:
    """Exact objective in O(N * I), factored over independent areas.

    For file i, ``rate_out`` sums d * lambda over the macro-only area and
    the SCBSs not caching i.  The macro cell transmits with probability
    ``-expm1(-rate_out)``; otherwise no area outside the cached set
    requests, and each cached SCBS n serves locally with probability p_n,
    so the SCBS part is ``exp(-rate_out) * sum of c_n * p_n``.
    """
    policy.check_feasible(instance)
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance)
    rate_out, local = _cached_split(rate_mbs, rate, local_cost, policy.placement.astype(bool))
    return _split_cost(c_mbs, rate_out, local)


def marginal_cost(
    instance: Instance,
    policy: CachingPolicy,
    scbs: int,
    file: int,
    base: CostBreakdown | None = None,
) -> float:
    """Objective value after additionally caching ``file`` at SCBS ``scbs``.

    Only the placed file's term is recomputed; all other per-file terms are
    reused from ``base`` (the closed-form breakdown of ``policy``, computed
    here when not supplied).
    """
    n = instance.num_scbs
    if not 1 <= scbs <= n:
        raise ValueError(f"scbs id {scbs} outside 1..{n}")
    if not 0 <= file < instance.num_files:
        raise ValueError(f"file index {file} outside 0..{instance.num_files - 1}")
    row = scbs - 1
    if policy.placement[row, file]:
        raise ValueError(f"file {file} is already cached at SCBS {scbs}")
    if policy.placement[row].sum() >= instance.cache_size[row]:
        raise ValueError(f"cache of SCBS {scbs} is full")
    if base is None:
        base = cost_closed_form(instance, policy)
    cached = policy.placement[:, [file]].astype(bool)
    cached[row] = True
    c_mbs, rate_mbs, rate, local_cost = _area_rates(instance, [file])
    term = _file_terms(c_mbs, *_cached_split(rate_mbs, rate, local_cost, cached))
    return base.total - float(base.per_file[file]) + float(term[0])


def cost_unicast(instance: Instance, policy: CachingPolicy) -> CostBreakdown:
    """Expected per-period cost when every request gets its own transmission.

    Each of the lambda*d expected requests costs the local SCBS rate when
    the file is cached there, and a backhaul-plus-macro transmission
    otherwise; macro-only-area requests always pay the latter.
    """
    policy.check_feasible(instance)
    lam = instance.demand * instance.deadline
    cached = policy.placement.astype(bool)
    c = instance.cost_scbs_tx
    c_mbs = instance.cost_backhaul + instance.cost_mbs_tx

    scbs_pf = (lam[1:] * cached * c[:, None]).sum(axis=0)
    mbs_pf = c_mbs * ((lam[1:] * ~cached).sum(axis=0) + lam[0])
    return _breakdown(mbs_pf, scbs_pf)
