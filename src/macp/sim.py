"""Monte Carlo replay of the request process against a fixed policy.

Each service period replays the request process of every (area, file)
pair, whose arrivals are Poisson with mean lambda*d, and charges either
one deadline-batched multicast per requested file or one unicast per
request.  Both modes draw only what their cost depends on:

* multicast needs to know which areas request each file, so it draws the
  presence of every (area, file) pair as Bernoulli(1 - exp(-lambda*d)),
  one uniform variate per pair, and applies the macro-or-local rule to
  the drawn presence pattern;
* unicast cost is linear in the request counts, so by the superposition of
  independent Poisson processes it draws one count per period for the
  macro class (area 0 and every uncached request) and one per SCBS (its
  cached requests).

Nothing here is taken from the analytic cost model in ``cost.py``: the
draws come from the per-pair rates alone, never from aggregate
probabilities of the closed form.  The per-period multicast cost is
therefore an independent, unbiased sample of the analytic objective,
which makes the simulator the end-to-end check on the whole cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import CachingPolicy, Instance, Record

MODES = ("unicast", "multicast")

# Periods are drawn in fixed-size batches.  Each batch fills its variates in
# row-major (period, area, file) order and every per-period reduction is
# computed row by row, so the generated stream, the report and the trace
# bytes are independent of the batch size.
_BATCH = 4096


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters."""

    periods: int
    mode: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "periods", int(self.periods))
        object.__setattr__(self, "seed", int(self.seed))
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class SimReport(Record):
    """Averaged simulation outcome with transmission counters."""

    mean_cost_per_period: float
    std_error: float
    periods: int
    mbs_transmissions: int
    scbs_transmissions: int
    unicast_transmissions: int


def simulate(
    instance: Instance,
    policy: CachingPolicy,
    config: SimConfig,
    trace_path: str | Path | None = None,
) -> SimReport:
    """Simulate ``config.periods`` service periods; deterministic in the seed.

    Multicast mode: draw which areas request each file in the period.  A
    requested file costs one backhaul-plus-macro transmission if the macro
    area or any SCBS that lacks the file requests it, else one transmission
    per requesting SCBS.  Unicast mode: draw the period's request count of
    the macro class and of each SCBS, and charge every request
    individually.  ``trace_path`` optionally writes a per-period CSV
    (period,cost,mbs_tx,scbs_tx,unicast_tx).
    """
    policy.check_feasible(instance)
    lam = instance.demand * instance.deadline
    cached = policy.placement.astype(bool)
    c = instance.cost_scbs_tx
    c_mbs = instance.cost_backhaul + instance.cost_mbs_tx

    rng = np.random.default_rng(config.seed)
    total = config.periods
    batch = min(_BATCH, total)
    if config.mode == "unicast":
        rates = np.concatenate((
            [lam[0].sum() + lam[1:][~cached].sum()],
            np.where(cached, lam[1:], 0.0).sum(axis=1),
        ))

        def draw(m):
            k = rng.poisson(rates, size=(m, rates.size))
            return k[:, 0], k[:, 1:], k.sum(axis=1)

    else:
        p = -np.expm1(-lam)
        uncached = ~cached
        # one buffer for every batch: a fresh 8*batch*(N+1)*I bytes per
        # batch costs page faults and peak memory
        uniform = np.empty((batch,) + lam.shape)

        def draw(m):
            here = rng.random(out=uniform[:m]) < p
            triggered = here[:, 0] | (here[:, 1:] & uncached).any(axis=1)
            # untriggered files are requested at caching SCBSs only
            local = here[:, 1:] & ~triggered[:, None, :]
            return triggered.sum(axis=1), local.sum(axis=2), np.zeros(m, dtype=np.int64)

    costs = np.empty(total)
    mbs_tx = 0
    scbs_tx = 0
    uni_tx = 0
    trace = open(trace_path, "w") if trace_path is not None else None
    try:
        if trace is not None:
            trace.write("period,cost,mbs_tx,scbs_tx,unicast_tx\n")
        done = 0
        while done < total:
            m = min(batch, total - done)
            mbs_counts, per_scbs, uni_counts = draw(m)
            scbs_counts = per_scbs.sum(axis=1)
            # a row-wise sum, not ``per_scbs @ c``: BLAS sums a row in an
            # order that depends on its position in the batch
            batch_costs = c_mbs * mbs_counts + (per_scbs * c).sum(axis=1)

            costs[done : done + m] = batch_costs
            mbs_tx += int(mbs_counts.sum())
            scbs_tx += int(scbs_counts.sum())
            uni_tx += int(uni_counts.sum())
            if trace is not None:
                trace.writelines(
                    f"{t},{cost!r},{a},{b},{u}\n"
                    for t, cost, a, b, u in zip(
                        range(done, done + m),
                        batch_costs.tolist(),
                        mbs_counts.tolist(),
                        scbs_counts.tolist(),
                        uni_counts.tolist(),
                    )
                )
            done += m
    finally:
        if trace is not None:
            trace.close()

    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(total)) if total > 1 else 0.0
    return SimReport(
        mean_cost_per_period=mean,
        std_error=stderr,
        periods=total,
        mbs_transmissions=mbs_tx,
        scbs_transmissions=scbs_tx,
        unicast_transmissions=uni_tx,
    )
