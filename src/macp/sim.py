"""Monte Carlo replay of the request process against a fixed policy.

Each service period replays the request process of every (area, file)
pair, whose arrivals are Poisson with mean lambda*d, and charges either
one deadline-batched multicast per requested file or one unicast per
request.  Both modes draw only what their cost depends on:

* multicast needs to know which areas request each file, so it draws the
  presence of every (area, file) pair as Bernoulli(p) with
  p = 1 - exp(-lambda*d), and applies the macro-or-local rule to the
  drawn presence pattern.  A presence draw reads one random byte u and
  compares it with t = min(floor(256 p), 255): the pair is present if
  u < t, absent if u > t, and on a tie (about one pair in 256) present if
  a uniform double is below 256 p - t.  So P(present) is p to within
  2**-61 while most pairs cost one byte, not a 64-bit double;
* unicast cost is linear in the request counts, and a period's cost and
  trace depend on the SCBSs only through sum(c_n k_n) and sum(k_n).  So by
  the superposition of independent Poisson processes it draws one count per
  period for the macro class (area 0 and every uncached request) and one
  per SCBS cost class: the cached requests of every SCBS with that
  ``cost_scbs_tx``, classes in the order of their first SCBS.  Drawing one
  count per SCBS instead gave other unicast outputs for the same seed
  where SCBSs share a cost (every generated scenario); where every SCBS's
  cost is distinct, each class is one SCBS and the outputs are the same.

Both modes seed ``default_rng(seed)``.  Unicast draws its Poisson counts
from it; multicast takes its bytes from that generator's raw 64-bit PCG64
output, each period's (N+1)*I bytes padded to whole words, and its tie
uniforms from one stream spawned from it, in row-major (period, area,
file) order.  The pad bytes are compared against threshold 0 and their
ties are dropped before any uniform is drawn, so only the pairs' ties
take uniforms; ties are found through the nonzero 64-bit words of the
tie mask.  The local counts run over the span from the first to the last
file that some SCBS caches, since no other file is ever served locally.

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

from .model import CachingPolicy, Instance, Record, numeric_array

MODES = ("unicast", "multicast")

# Periods are drawn in batches of at most this many bytes of per-period draws
# (a multicast period's random bytes, a unicast period's int64 counts; one
# period at least), which bounds the memory per batch, a few arrays of about
# that size, at any catalog width.  Multicast allocates its batch masks once
# per run, so its batches make no fresh arrays of that size beyond the
# random bytes.  Each batch takes its variates in row-major (period, area,
# file) order, a multicast period's bytes in whole 64-bit words, and every
# per-period reduction is computed row by row, so the generated streams, the
# report and the trace bytes are independent of the batch size.
_BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters."""

    periods: int
    mode: str
    seed: int

    def __post_init__(self):
        seed = self.seed.item() if isinstance(self.seed, np.generic) else self.seed
        if type(seed) in (int, float) and not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "periods", _whole_number("periods", self.periods, np.int64))
        object.__setattr__(self, "seed", _whole_number("seed", seed, np.uint64))
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


def _whole_number(name: str, value, dtype) -> int:
    """``value`` as an int; ValueError unless it is one whole number, by ``numeric_array``'s rule.

    So a fraction, a bool or a string is refused, not truncated or parsed.
    """
    arr = numeric_array(name, value, dtype)
    if arr.ndim:
        raise ValueError(f"{name} must be one number, got shape {arr.shape}")
    return int(arr)


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
    the macro class and of each SCBS cost class (the SCBSs of one
    ``cost_scbs_tx``), and charge every request individually; SCBSs that
    share a cost therefore share one draw, so the unicast outputs of a seed
    depend on which SCBSs do.  ``trace_path`` optionally writes a per-period CSV
    (period,cost,mbs_tx,scbs_tx,unicast_tx).

    Raises ValueError when a unicast run expects 2**62 requests or more
    (checked before drawing, so no 64-bit count or sum of counts wraps),
    and when a period's cost overflows the float range.
    """
    policy.check_feasible(instance)
    lam = instance.demand * instance.deadline
    cached = policy.placement.astype(bool)
    c = instance.cost_scbs_tx
    c_mbs = instance.cost_backhaul + instance.cost_mbs_tx

    rng = np.random.default_rng(config.seed)
    total = config.periods
    # a unicast period's int64 counts, or a multicast period's random bytes
    # in whole 64-bit words, so a batch boundary never splits a word; unicast
    # batches are sized for N + 1 counts a period even where SCBSs share a
    # cost class, since larger batches of fewer counts raised the peak memory
    words = -(-lam.size // 8)
    period_bytes = 8 * (lam.shape[0] if config.mode == "unicast" else words)
    batch = max(1, min(total, _BATCH_BYTES // period_bytes))
    if config.mode == "unicast":
        # SCBSs of one cost form a class, classes in the order of their first
        # SCBS, each one's rate its members' cached rates added in SCBS order;
        # with distinct costs every class is one SCBS and its rate that SCBS's
        _, first, member = np.unique(c, return_index=True, return_inverse=True)
        cls = np.argsort(first).argsort()[member]
        c = c[np.sort(first)]
        rates = np.concatenate((
            [lam[0].sum() + lam[1:][~cached].sum()],
            np.bincount(cls, weights=np.where(cached, lam[1:], 0.0).sum(axis=1), minlength=c.size),
        ))
        expected = float(rates.sum()) * total  # a Python float: inf, not a warning
        if not expected < 2.0**62:
            raise ValueError(f"{expected:.3g} expected unicast requests in {total} periods "
                             "overflow the 64-bit request counts")

        def draw(m):
            k = rng.poisson(rates, size=(m, rates.size))
            return k[:, 0], k[:, 1:], k.sum(axis=1)

    else:
        p = -np.expm1(-lam)
        # P(u < t) + P(u == t) * P(uniform < frac) = t/256 + frac/256 = p for
        # a uniform byte u; 256*p - t is exact, and p = 1 gives t = 255, frac = 1
        t = np.minimum(np.floor(256.0 * p), 255.0)
        frac = (256.0 * p - t).ravel()
        # pad bytes compare against 0, so they are never present and their
        # ties are dropped before any uniform is drawn
        pairs, width = p.size, 8 * words
        t = np.pad(t.astype(np.uint8).ravel(), (0, width - pairs))
        bits = rng.bit_generator
        refine = rng.spawn(1)[0]
        # the SCBSs whose request makes the macro cell send the file, grouped
        # by that row: a group's presence rows are ORed, then masked once
        groups: dict[bytes, tuple[np.ndarray, list[int]]] = {}
        for n, row in enumerate(~cached, 1):
            groups.setdefault(row.tobytes(), (row, []))[1].append(n)
        # counts of at most I files, exact in the narrowest type that holds I
        count_type = np.min_scalar_type(instance.num_files)
        # a file present at an SCBS that lacks it is triggered, so files
        # outside the span of the cached ones are never served locally
        kept = np.flatnonzero(cached.any(axis=0))
        span = slice(kept[0], kept[-1] + 1) if kept.size else slice(0)
        # one run's batch arrays, sliced to m periods on a ragged last batch
        here_all = np.empty((batch, width), dtype=bool)
        tie_all = np.empty((batch, width), dtype=bool)
        local_all = np.empty((batch,) + cached[:, span].shape, dtype=bool)
        hit_all = np.empty((batch, instance.num_files), dtype=bool)

        def draw(m):
            u = bits.random_raw(m * words).view(np.uint8).reshape(m, width)
            here = np.less(u, t, out=here_all[:m])
            tie = np.equal(u, t, out=tie_all[:m])
            tie[:, pairs:] = False
            # ties in row-major (period, area, file) order, found through the
            # mask's nonzero words, then refined from the second stream
            tie_words = tie.reshape(-1).view(np.uint64)
            hot = np.flatnonzero(tie_words != 0)
            at = np.flatnonzero(tie_words[hot].view(bool))
            tie = 8 * hot[at >> 3] + (at & 7)
            here.reshape(-1)[tie] = refine.random(tie.size) < frac[tie % width]
            here = here[:, :pairs].reshape((m,) + lam.shape)
            triggered = here[:, 0].copy()
            hit = hit_all[:m]
            for row, areas in groups.values():
                np.copyto(hit, here[:, areas[0]])
                for n in areas[1:]:
                    hit |= here[:, n]
                hit &= row
                triggered |= hit
            # untriggered files are requested at caching SCBSs only
            local = np.bitwise_and(here[:, 1:, span], ~triggered[:, None, span], out=local_all[:m])
            return (triggered.view(np.uint8).sum(axis=1, dtype=count_type),
                    np.einsum("pnf->pn", local.view(np.uint8), dtype=count_type),
                    np.zeros(m, dtype=np.int64))

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
            # the local counts per SCBS (multicast) or per cost class (unicast)
            mbs_counts, local_counts, uni_counts = draw(m)
            scbs_counts = local_counts.sum(axis=1)
            # a row-wise sum, not ``local_counts @ c``: BLAS sums a row in an
            # order that depends on its position in the batch
            with np.errstate(over="ignore"):
                batch_costs = c_mbs * mbs_counts + (local_counts * c).sum(axis=1)
            if not np.isfinite(batch_costs).all():
                raise ValueError("a simulated period's cost overflows the float range")

            costs[done : done + m] = batch_costs
            mbs_tx += int(mbs_counts.sum())
            scbs_tx += int(scbs_counts.sum())
            uni_tx += int(uni_counts.sum())
            if trace is not None:
                # one format call per batch; %r is repr, the shortest round-trip float
                fields = [None] * (5 * m)
                fields[0::5] = range(done, done + m)
                fields[1::5] = batch_costs.tolist()
                fields[2::5] = mbs_counts.tolist()
                fields[3::5] = scbs_counts.tolist()
                fields[4::5] = uni_counts.tolist()
                trace.write(("%d,%r,%d,%d,%d\n" * m) % tuple(fields))
            done += m
    finally:
        if trace is not None:
            trace.close()

    # moments of the (non-negative) costs scaled by a power of two, so no
    # square overflows; while the scaled costs stay normal, scaling is
    # exact and the moments have the unscaled computation's bits
    exp = math.frexp(costs.max())[1]
    scaled = np.ldexp(costs, -exp, out=costs)
    mean = math.ldexp(scaled.mean(), exp)
    stderr = math.ldexp(scaled.std(ddof=1), exp) / math.sqrt(total) if total > 1 else 0.0
    return SimReport(
        mean_cost_per_period=mean,
        std_error=stderr,
        periods=total,
        mbs_transmissions=mbs_tx,
        scbs_transmissions=scbs_tx,
        unicast_transmissions=uni_tx,
    )
