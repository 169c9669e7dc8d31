"""Expected per-period servicing cost of a caching policy.

The macro cell multicasts a file unless every request for it falls inside
the set of SCBSs caching it; then each requesting cached SCBS serves
locally.  Areas request independently, so with ``rate_out`` the summed
d * lambda of the areas outside the cached set, the file costs
``c_mbs * (1 - exp(-rate_out)) + exp(-rate_out) * sum of c_n * p_n`` over
the cached SCBSs.  ``_file_terms`` is the one place that formula is
written; ``cost_closed_form`` and the solvers are built on it, and every
objective they report is ``per_file.sum()`` of its terms over ``_cached_split``.
``cost_bruteforce`` literally enumerates all 2^(N+1) requesting subsets
with the model's own ``subset_probability`` and ``mbs_triggered`` and is
the independent ground truth for small N.  The unicast metric used by
popularity/unicast baselines lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .model import (CachingPolicy, Instance, Record, mbs_triggered, number, numeric_array,
                    subset_probability)

# Most SCBSs ``cost_bruteforce`` enumerates the requesting subsets of.
BRUTEFORCE_CAP = 16


@dataclass(frozen=True, eq=False)
class CostBreakdown(Record):
    """Expected cost per service period, split by file and by transmitter."""

    total: float
    per_file: np.ndarray
    mbs_component: float
    scbs_component: float

    def __post_init__(self):
        pf = numeric_array("per_file", self.per_file, np.float64)
        pf.setflags(write=False)
        object.__setattr__(self, "per_file", pf)
        for name in ("total", "mbs_component", "scbs_component"):
            object.__setattr__(self, name, number(name, getattr(self, name), np.float64))


def _breakdown(per_file: np.ndarray, mbs_pf: np.ndarray, scbs_pf: np.ndarray) -> CostBreakdown:
    """The breakdown whose total is ``per_file.sum()``, the one sum every solver reports."""
    return CostBreakdown(per_file.sum(), per_file, mbs_pf.sum(), scbs_pf.sum())


def cost_bruteforce(instance: Instance, policy: CachingPolicy) -> CostBreakdown:
    """Exact objective by enumerating every non-empty requesting subset.

    For each file and each subset r of the N+1 areas, adds
    ``subset_probability(r) * (cost_backhaul + cost_mbs_tx)`` when
    ``mbs_triggered`` says r makes the macro cell multicast, else
    ``subset_probability(r) * sum of the requesters' SCBS costs``.
    Work is Theta(I * 2^(N+1)); refuses to run above ``BRUTEFORCE_CAP`` SCBSs.
    """
    n = instance.num_scbs
    if n > BRUTEFORCE_CAP:
        raise CapacityError(
            f"brute-force enumeration over 2^{n + 1} subsets exceeds the cap of "
            f"{BRUTEFORCE_CAP} SCBSs; use cost_closed_form instead"
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
    return _breakdown(mbs_pf + scbs_pf, mbs_pf, scbs_pf)


def _file_terms(c_mbs: float, rate_out, local):
    """Per-file objective from the rate outside the cached set and the local cost.

    The macro cell transmits unless no area outside the cached set requests
    the file, which happens with probability ``exp(-rate_out)``; then the
    cached SCBSs serve at expected cost ``local`` (sum of c_n * p_n).  The
    term ``c_mbs * (1 - exp(-r)) + exp(-r) * local`` is written with one
    ``expm1`` so small rates keep their digits, and it never divides by a
    no-request probability, so rates large enough to make one 0 need no
    special case.  It is linear in ``c_mbs`` and ``local``: passing 0 for
    one gives the other transmitter's share.
    """
    e = np.expm1(-rate_out)
    return local + e * (local - c_mbs)


def _area_rates(instance: Instance):
    """Per-area inputs of the objective.

    Returns ``(c_mbs, rate_mbs, rate, local_cost)``: the cost of one macro
    transmission (backhaul plus macro cell), the macro-only area's
    d * lambda per file, the (N, I) SCBS rates d * lambda, and the (N, I)
    expected cost c_n * p_n of SCBS n serving its own requests.
    """
    rate = instance.demand * instance.deadline
    local_cost = instance.cost_scbs_tx[:, None] * -np.expm1(-rate[1:])
    return instance.cost_backhaul + instance.cost_mbs_tx, rate[0], rate[1:], local_cost


def _cached_split(rate_mbs, rate, local_cost, cached):
    """Per-file rate outside the cached set and local cost of the cached SCBSs.

    ``rate``, ``local_cost`` and ``cached`` are (..., N, I): SCBSs on the
    second-to-last axis, optionally behind a batch axis.  The sums are
    ``_scbs_sum``'s, so a file's sums do not depend on which other columns
    or instances are passed or on the array's layout.
    """
    rate_out = rate_mbs + _scbs_sum(np.where(cached, 0.0, rate))
    return rate_out, _scbs_sum(np.where(cached, local_cost, 0.0))


def _scbs_sum(values):
    """Sum of (..., N, I) values over the SCBS axis, one row after another, SCBS 1 first.

    numpy's ``sum`` would reduce a lone or F-ordered column pairwise, and
    its ``cumsum`` over an inner axis runs element by element; row-wise
    adds are sequential whatever the shape, so a caller that adds its
    per-SCBS rows in turn gets the same bits.
    """
    total = values[..., 0, :].copy()
    for row in range(1, values.shape[-2]):
        total += values[..., row, :]
    return total


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
    return _breakdown(_file_terms(c_mbs, rate_out, local), _file_terms(c_mbs, rate_out, 0.0),
                      _file_terms(0.0, rate_out, local))


def cost_unicast(instance: Instance, policy: CachingPolicy) -> CostBreakdown:
    """Expected per-period cost when every request gets its own transmission.

    Each of the lambda*d expected requests costs the local SCBS rate when
    the file is cached there, and a backhaul-plus-macro transmission
    otherwise; macro-only-area requests always pay the latter.  Raises
    ValueError when the total overflows the float range.
    """
    policy.check_feasible(instance)
    lam, cached = instance.demand * instance.deadline, policy.placement.astype(bool)
    return _breakdown(*_unicast_split(instance.cost_backhaul + instance.cost_mbs_tx, lam[0],
                                      lam[1:], instance.cost_scbs_tx, cached))


def _unicast_split(c_mbs, rate_mbs, rate, cost_scbs, cached):
    """``cost_unicast``'s per-file terms and their macro and SCBS shares.

    ``rate`` and ``cached`` are (..., N, I), as in ``_cached_split``.  Raises
    ValueError unless every total, ``per_file.sum(axis=-1)``, is finite.
    """
    with np.errstate(over="ignore"):
        scbs_pf = (rate * cached * cost_scbs[..., None]).sum(axis=-2)
        mbs_pf = c_mbs * ((rate * ~cached).sum(axis=-2) + rate_mbs)
        per_file = mbs_pf + scbs_pf
        if not np.isfinite(per_file.sum(axis=-1)).all():
            raise ValueError("the expected unicast cost is not finite")
    return per_file, mbs_pf, scbs_pf
