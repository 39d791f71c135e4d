"""The wormhole simulation driver behind ``run`` and ``run_batch``.

:func:`simulate_batch` (``WormholeSimulator.run_batch``) and
:func:`repro.noc.simengine.simulate` (``WormholeSimulator.run``, K = 1)
both call :func:`_simulate`, which runs K replications of **one topology**
(the same scenario at K seeds, or K scenarios) in three steps:

1. :func:`_prepare` draws every replication's injection schedule, all the
   entropy a run consumes (below);
2. the cycle loop turns the schedules into integer counters and latency
   sums: the C kernel of ``wormhole.c`` (:func:`_run_kernel`, built and
   loaded by :mod:`repro.noc.ckernel`), which runs each replication's
   scalar occupancy-driven loop in turn, or, only when that kernel cannot
   be built or loaded, the numpy lockstep loop :func:`_run_lockstep`;
3. :func:`_stats` divides the integer sums into
   :class:`~repro.noc.simulator.SimulationStats`, all the floats.

Every replication's stats **and** its per-cycle
``("deliver"|"eject", cycle, link, pid)`` trace are bit-identical on both
loops to a solo run of the frozen :mod:`repro.noc.reference` simulator
with the same seed; ``wormhole.c`` states the argument for the kernel.

Schedules
---------

Each replication's schedule is built from the very same seeded stream the
reference consumes (``make_rng(seed, "wormhole")``), by the scalar
:func:`~repro.noc.scenarios.build_schedule` or, for memoryless scenarios
(Bernoulli / hotspot / scaled; they declare themselves via
:meth:`~repro.noc.scenarios.TrafficScenario.bernoulli_probs`) drawing enough
arrivals per flow (:func:`_vectorize`), by a vectorized geometric-gap
sampler that draws the identical MT19937 stream
through :class:`numpy.random.RandomState` (CPython's ``random.Random`` and
numpy's legacy generator share ``init_by_array`` seeding and the 53-bit
``genrand_res53`` output path, so the raw draws are bit-equal); only the
*integer* gap floors matter downstream, and any draw within 1e-9
(relative) of an integer or of the horizon, the only place a <= 2-ulp
``np.log`` vs ``math.log`` discrepancy could flip a floor, is recomputed
with ``math.log``. Either way the cycle loops are RNG-free.

The numpy lockstep loop
-----------------------

:func:`_run_lockstep` advances the K replications in lockstep, keying
every piece of per-link / per-flow / per-flit state by a flat
``(replication, entity)`` integer (link ``k * n_links + lid``, source flow
``k * n_flows + fi``, packet ``k * P_max + pid``, flit ``p * L + j``) and
performing each phase as a handful of numpy gather/scatter operations over
*active lists*, so its per-cycle python overhead is a fixed number of
array ops regardless of K. Replications that finish early (network
drained, or their ``drain_limit`` hit) are masked out of every active
list. Its phase-by-phase argument for matching the scalar loop:

1. **Link delivery** (phase 2) touches only each link's own pipeline and
   its own downstream buffer, so the scalar loop's ascending-link-id order
   affects nothing but the trace order; deliveries are independent scatter
   ops and the cycle's trace events are sorted by link id afterwards.
2. **Source injection** (phase 3) processes flows in a cycle-rotated
   order; flows interact only when they share a first link, and the first
   ordered flow that passes the wormhole test wins while every later one
   is refused by the pipeline-slot test. Failed attempts mutate nothing,
   so the winner is exactly the minimum-rotation-rank candidate that
   passes the tests against phase-start state: a vectorized scatter-min.
3. **Switch arbitration** (phase 4) is the one phase with genuine
   sequential coupling: outputs of a switch are arbitrated in ascending
   link-id order, and a winner's buffer pop can reveal a successor head
   that a *later* output of the same switch is allowed to consider. All
   winners are computed optimistically from phase-start heads (output-side
   state, i.e. pipeline, allocation and round-robin pointer, is per-output
   and mutated only at that output's own turn, so phase-start values are
   exact for it), then the single hazard is detected: a winner's pop
   revealing a new head whose requested output has a strictly greater
   within-switch rank. Any ``(replication, switch)`` pair that trips the
   detector has its vectorized winners suppressed and is re-arbitrated by
   an exact scalar replica of the scalar loop from untouched phase-start
   state (counted in :data:`DIRTY_REDOS`). Cross-switch and
   cross-replication pairs share no state, so the repair is local.
4. **Event skip** fires only when *every* unfinished replication has empty
   source queues and empty input buffers; the jump target is the minimum
   over replications of the scalar loop's own target (next scheduled
   injection or drain bound, clamped by the earliest pipeline-ready head).
   Cycles a replication's own loop would skip but the lockstep loop crawls
   are no-ops for it by construction, so per-replication finish cycles,
   and therefore ``drain_cycles``, are identical.

Memory model
------------

Both loops hold ``K x P_max x L`` flits at most, and a batch is rejected
up front if that reaches 2^31. The kernel keeps one replication's state at
a time: per-flit hop, ready cycle and FIFO link, all int64. The lockstep
loop keeps all K: state scales as ``K x (links + flows + packets x L)``
plus transient active-list arrays bounded by the number of simultaneously
in-flight flits. Its index arrays are word-sized (numpy re-converts
narrower dtypes on every fancy-indexing call, which costs more than the
memory saved), per-flit value arrays are int32, link pipelines and input
buffers are power-of-two flat ring buffers grown geometrically, and phase
2 is event-driven off two wake-up calendars (eject links / internal
links) keyed by head-ready cycle, so idle pipelines cost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SynthesisError
from repro.noc import ckernel
from repro.noc.scenarios import ScenarioSpec, build_schedule, make_scenario
from repro.rng import make_np_rng, make_rng

#: Dtype for entity / flit index arrays. Everything that is *used as an
#: index* is kept at the platform word size: numpy converts any other
#: integer dtype to ``intp`` on every fancy-indexing call, and at this
#: engine's array sizes that hidden copy costs more than the memory the
#: narrower dtype would save. Bulk per-flit *value* arrays (hop counters,
#: ready cycles) stay int32 in the lockstep loop.
_I = np.int64

#: Diagnostic: total (replication, switch) pairs the lockstep loop
#: re-arbitrated with its exact scalar fallback because the optimistic
#: vectorized pass detected the revealed-successor hazard. The differential
#: suite reads this to prove the repair path is actually exercised.
DIRTY_REDOS = 0

#: The vectorized schedule sampler pays a fixed number of numpy calls per
#: flow and pass, the scalar builder a constant cost per arrival. Measured on
#: the paper designs (37 and 144 flows, 500 to 8000 cycles, K = 1 and 4),
#: a pass over K replications costs about as much per flow as
#: ``_VECTOR_FIXED + _VECTOR_PER_REP * K`` scalar arrivals: the sampler wins
#: above about 75 expected arrivals per flow at K = 1 and 38 at K = 4.
_VECTOR_FIXED = 50
_VECTOR_PER_REP = 25

#: Counters each loop returns per replication, in this order.
_COUNTERS = ("injected", "flits", "lat_sum", "lat_n", "lat_max", "drain")

_EVENT_KINDS = ("deliver", "eject")

def _mt_state(seed: int, *salt: object) -> np.random.RandomState:
    """A numpy RandomState whose ``random_sample`` stream bit-equals
    ``make_rng(seed, *salt).random()`` draw for draw — the property the
    vectorized schedule sampler rests on (and that
    ``tests/test_batchengine.py`` pins directly). The seed derivation
    itself lives in :func:`repro.rng.make_np_rng`, the one module allowed
    to construct generators.
    """
    return make_np_rng(seed, *salt)


def _bernoulli_events(probs, cycles: int, rs) -> tuple:
    """Flow-major arrival events of a memoryless scenario, vectorized.

    Consumes ``rs`` exactly as :func:`repro.noc.scenarios._bernoulli_schedule`
    consumes its ``random.Random`` — same draw count per flow, same order —
    and returns ``(fi, cycle)`` int arrays of every arrival in flow-major
    order. Gap floors are computed with ``np.log`` and re-derived with
    ``math.log`` wherever the value sits within 1e-9 (relative) of an
    integer or of the horizon, the only window where a ulp-level libm
    difference could change ``int(g)`` or the ``g < cycles`` clamp.
    """
    exp_total = sum(p for p in probs if 0.0 < p < 1.0) * cycles
    n0 = int(exp_total + 10.0 * math.sqrt(exp_total + 1.0)) + 64
    u = rs.random_sample(n0)
    lg = np.log(1.0 - u)
    pos = 0
    fis: List[np.ndarray] = []
    cycs: List[np.ndarray] = []
    for fi, p in enumerate(probs):
        if p <= 0.0:
            continue
        if p >= 1.0:
            fis.append(np.full(cycles, fi, dtype=np.int64))
            cycs.append(np.arange(cycles, dtype=np.int64))
            continue
        inv = 1.0 / math.log1p(-p)
        if not math.isfinite(inv):
            continue
        window = int(cycles * p + 10.0 * math.sqrt(cycles * p + 1.0)) + 16
        J = 0  # draws consumed by this flow
        S = 0  # sum of consumed gaps
        parts: List[np.ndarray] = []
        while True:
            end = pos + J + window
            if end > u.size:
                extra = max(end - u.size, 4096)
                u2 = rs.random_sample(extra)
                u = np.concatenate((u, u2))
                lg = np.concatenate((lg, np.log(1.0 - u2)))
            sl = slice(pos + J, end)
            x = lg[sl] * inv  # >= 0; may overflow to inf for tiny p
            g = np.full(window, cycles, dtype=np.int64)
            safe = x < cycles
            xs = x[safe]
            gi = xs.astype(np.int64)
            g[safe] = gi
            # ulp guard: a floor can only flip where np.log and math.log
            # straddle an integer (or the horizon clamp).
            frac = xs - gi
            tol = 1e-9 * (xs + 1.0)
            sus = np.zeros(window, dtype=bool)
            sus[safe] = (frac <= tol) | (frac >= 1.0 - tol)
            with np.errstate(invalid="ignore"):
                sus |= np.abs(x - cycles) <= 1e-9 * (cycles + 1.0)
            if sus.any():
                uu = u[sl]
                for i in np.nonzero(sus)[0].tolist():
                    gg = math.log(1.0 - float(uu[i])) * inv
                    g[i] = int(gg) if gg < cycles else cycles
            # arrival cycles: c_j = sum(g_0..j) + j, strictly increasing
            c = S + J + np.cumsum(g) + np.arange(window, dtype=np.int64)
            t = int(np.searchsorted(c, cycles))
            if t < window:
                if t:
                    parts.append(c[:t])
                J += t + 1
                break
            parts.append(c)
            J += window
            S = int(c[-1]) - (J - 1)
        pos += J
        if parts:
            arr = np.concatenate(parts) if len(parts) > 1 else parts[0]
            fis.append(np.full(arr.size, fi, dtype=np.int64))
            cycs.append(arr)
    if not fis:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    return np.concatenate(fis), np.concatenate(cycs)


def _bernoulli_events_all(probs, cycles: int, states) -> tuple:
    """All K replications' arrivals for one shared probability vector.

    The cross-replication variant of :func:`_bernoulli_events`: each
    replication's stream is drawn into one row of a ``(K, n)`` matrix up
    front, and every flow's geometric-gap walk then runs over all K rows at
    once — same draws, same order, same guarded floors, ~K× fewer python
    dispatches. Returns ``(k, fi, cycle)`` arrival arrays (replication-
    major, flow-major within a replication) plus a boolean mask of
    replications that exhausted their pre-drawn row or failed to terminate
    inside a window (vanishingly rare); their rows carry garbage and the
    caller rebuilds them through the per-replication path.
    """
    K = len(states)
    exp_total = sum(p for p in probs if 0.0 < p < 1.0) * cycles
    n0 = int(exp_total + 10.0 * math.sqrt(exp_total + 1.0)) + 64
    U = np.empty((K, n0))
    for k, rs in enumerate(states):
        U[k] = rs.random_sample(n0)
    LG = np.log(1.0 - U)
    rows = np.arange(K)
    pos = np.zeros(K, dtype=np.int64)
    bad = np.zeros(K, dtype=bool)
    ks: List[np.ndarray] = []
    fis: List[np.ndarray] = []
    cycs: List[np.ndarray] = []
    for fi, p in enumerate(probs):
        if p <= 0.0:
            continue
        if p >= 1.0:
            ks.append(np.repeat(rows, cycles))
            fis.append(np.full(K * cycles, fi, dtype=np.int64))
            cycs.append(np.tile(np.arange(cycles, dtype=np.int64), K))
            continue
        inv = 1.0 / math.log1p(-p)
        if not math.isfinite(inv):
            continue
        w = int(cycles * p + 10.0 * math.sqrt(cycles * p + 1.0)) + 16
        idx = pos[:, None] + np.arange(w)
        over = idx[:, -1] >= n0
        if over.any():
            bad |= over
            np.clip(idx, 0, n0 - 1, out=idx)
        x = LG[rows[:, None], idx] * inv
        safe_x = np.where(x < cycles, x, 0.0)  # inf/overdraws clamp below
        g = safe_x.astype(np.int64)
        unsafe = ~(x < cycles)
        if unsafe.any():
            g[unsafe] = cycles
        # ulp guard, as in _bernoulli_events (matrix form): floor check on
        # in-range draws, horizon check on every draw (a clamped value a
        # whisker above the horizon may fall below it under math.log).
        frac = safe_x - g
        tol = 1e-9 * (safe_x + 1.0)
        sus = ((frac <= tol) | (frac >= 1.0 - tol)) & ~unsafe
        with np.errstate(invalid="ignore"):
            sus |= np.abs(x - cycles) <= 1e-9 * (cycles + 1.0)
        if sus.any():
            for r, i in zip(*(a.tolist() for a in np.nonzero(sus))):
                uu = float(U[r, idx[r, i]])
                gg = math.log(1.0 - uu) * inv
                g[r, i] = int(gg) if gg < cycles else cycles
        c = np.cumsum(g, axis=1) + np.arange(w)
        live = c < cycles
        t = live.sum(axis=1)  # per-row first index with c >= cycles
        unterminated = t >= w
        if unterminated.any():
            bad |= unterminated
        if bad.any():
            live[bad] = False
            t = np.where(bad, 0, t)
        cnt = live.sum(axis=1)
        ks.append(np.repeat(rows, cnt))
        cycs.append(c[live])
        fis.append(np.full(int(cnt.sum()), fi, dtype=np.int64))
        pos += t + 1
    if not ks:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z, bad
    return (
        np.concatenate(ks), np.concatenate(fis), np.concatenate(cycs), bad,
    )


@dataclass
class _Job:
    """K replications of one topology, schedules drawn: what a cycle loop
    needs. ``sched_fi[k]`` / ``sched_cycle[k]`` give replication ``k``'s
    packets in pid order (by injection cycle, then flow)."""

    sim: object
    flows: list
    cycles: int
    warmup: int
    drain_limit: int
    sched_fi: List[np.ndarray]
    sched_cycle: List[np.ndarray]
    delay: np.ndarray       # per link, cycles (>= 1)
    is_eject: np.ndarray    # per link, bool: ends at a core
    route_off: np.ndarray   # per flow + 1, offsets into route_flat
    route_flat: np.ndarray  # link ids of every route, flow after flow

    @property
    def K(self) -> int:
        return len(self.sched_fi)


def simulate_batch(
    sim,
    *,
    cycles: int,
    warmup: int,
    injection_scale: float,
    seeds: Sequence[int],
    scenario: object = None,
    drain_limit: Optional[int] = None,
    traces: Optional[Sequence[list]] = None,
):
    """Run K replications; returns one stats object per seed.

    ``sim`` is a validated :class:`~repro.noc.simulator.WormholeSimulator`.
    ``scenario`` is either one :data:`~repro.noc.scenarios.ScenarioSpec`
    applied to every replication or a sequence of ``len(seeds)`` specs
    (one per replication, matched shapes). ``traces``, when given, is a
    sequence of ``len(seeds)`` lists each collecting that replication's
    ``("deliver"|"eject", cycle, link_id, packet_id)`` events exactly as a
    solo run's ``trace`` argument would.
    """
    return _simulate(
        sim, cycles=cycles, warmup=warmup, injection_scale=injection_scale,
        seeds=seeds, scenario=scenario, drain_limit=drain_limit,
        traces=traces,
    )


def _simulate(sim, *, cycles, warmup, injection_scale, seeds, scenario,
              drain_limit, traces):
    """The one driver behind ``run`` and ``run_batch``: schedules, the C
    kernel (or, only if it cannot be had, the numpy lockstep loop),
    statistics."""
    job = _prepare(
        sim, cycles=cycles, warmup=warmup, injection_scale=injection_scale,
        seeds=seeds, scenario=scenario, drain_limit=drain_limit,
        traces=traces,
    )
    if job.K == 0:
        return []
    loop = _run_kernel if kernel_name() == "c" else _run_lockstep
    return _stats(job, *loop(job, traces))


def kernel_name() -> str:
    """``"c"`` when the compiled kernel runs the cycle loop, ``"numpy"``
    when the lockstep fallback does (loading the kernel if need be)."""
    return "c" if ckernel.load() is not None else "numpy"


def _prepare(sim, *, cycles, warmup, injection_scale, seeds, scenario,
             drain_limit, traces) -> _Job:
    """Validate a request and draw its K schedules (all its entropy)."""
    if drain_limit is None:
        drain_limit = cycles
    if drain_limit < 0:
        raise SynthesisError("drain limit must be >= 0")
    seeds = list(seeds)
    K = len(seeds)
    scenarios = _per_replication_scenarios(scenario, K)
    if traces is not None and len(traces) != K:
        raise SynthesisError(
            f"got {len(traces)} trace sinks for {K} replications"
        )

    topo = sim.topology
    flows = sorted(topo.routes)
    probs = [sim._inject_prob[f] * injection_scale for f in flows]
    routes = [topo.routes[f] for f in flows]
    route_off = np.zeros(len(flows) + 1, dtype=_I)
    np.cumsum([len(r) for r in routes], out=route_off[1:])

    # Memoryless scenarios with enough arrivals take the vectorized
    # sampler; the rest the scalar builder (see the module docstring).
    sched_fi: List[np.ndarray] = []    # per k: flow index per packet, pid order
    sched_cycle: List[np.ndarray] = []  # per k: injection cycle per packet
    shared_eff = None
    if K > 1 and all(s is scenarios[0] for s in scenarios):
        shared_eff = make_scenario(scenarios[0]).bernoulli_probs(flows, probs)
    if shared_eff is not None and _vectorize(shared_eff, cycles, K):
        # One memoryless spec across the batch: sample every replication's
        # stream in one matrix pass, then lexsort once globally — the
        # (k, cycle, flow) order *is* replication-major pid order.
        states = [_mt_state(s, "wormhole") for s in seeds]
        k_all, fi_all, cyc_all, bad = _bernoulli_events_all(
            shared_eff, cycles, states
        )
        if bad.any():
            keep = ~bad[k_all]
            k_all, fi_all, cyc_all = k_all[keep], fi_all[keep], cyc_all[keep]
        order = np.lexsort((fi_all, cyc_all, k_all))
        k_all = k_all[order]
        fi_all = fi_all[order]
        cyc_all = cyc_all[order]
        offs = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.bincount(k_all, minlength=K), out=offs[1:])
        for k in range(K):
            if bad[k]:  # overdrew its pre-sized row: solo-path rebuild
                fi_k, cyc_k = _bernoulli_events(
                    shared_eff, cycles, _mt_state(seeds[k], "wormhole")
                )
                o2 = np.lexsort((fi_k, cyc_k))
                fi_k = fi_k[o2]
                cyc_k = cyc_k[o2]
            else:
                fi_k = fi_all[offs[k]:offs[k + 1]]
                cyc_k = cyc_all[offs[k]:offs[k + 1]]
            sched_fi.append(fi_k)
            sched_cycle.append(cyc_k)
    else:
        for k in range(K):
            scen = make_scenario(scenarios[k])
            eff = scen.bernoulli_probs(flows, probs)
            if eff is not None and _vectorize(eff, cycles, 1):
                fi_k, cyc_k = _bernoulli_events(eff, cycles, _mt_state(
                    seeds[k], "wormhole"
                ))
                order = np.lexsort((fi_k, cyc_k))
                fi_k = fi_k[order]
                cyc_k = cyc_k[order]
            else:
                rng = make_rng(seeds[k], "wormhole")
                sched = build_schedule(scen, flows, probs, cycles, rng)
                tot = sum(map(len, sched))
                fi_k = np.fromiter(
                    chain.from_iterable(sched), dtype=np.int64, count=tot
                )
                cyc_k = np.repeat(
                    np.arange(cycles, dtype=np.int64),
                    np.fromiter(map(len, sched), np.int64, count=cycles),
                )
            sched_fi.append(fi_k)
            sched_cycle.append(cyc_k)

    L = sim.packet_length
    p_max = max((a.size for a in sched_fi), default=0)
    if K * max(1, p_max) * L >= 2**31:
        raise SynthesisError(
            f"batch of {K} x {p_max} packets x {L} flits exceeds the 2^31 "
            "flit-state bound; split the batch"
        )
    return _Job(
        sim=sim, flows=flows, cycles=cycles, warmup=warmup,
        drain_limit=drain_limit, sched_fi=sched_fi, sched_cycle=sched_cycle,
        delay=np.asarray(sim._link_delay, dtype=_I),
        is_eject=np.asarray(
            [l.dst[0] == "core" for l in topo.links], dtype=bool
        ),
        route_off=route_off,
        route_flat=np.asarray(list(chain.from_iterable(routes)), dtype=_I),
    )


def _vectorize(probs, cycles: int, reps: int) -> bool:
    """Whether to draw ``reps`` replications of a memoryless scenario with
    these per-flow probabilities through the vectorized sampler."""
    arrivals = reps * sum(probs) * cycles / len(probs)  # per flow
    return arrivals >= _VECTOR_FIXED + _VECTOR_PER_REP * reps


def _run_kernel(job: _Job, traces):
    """The cycle loop in C: returns ``(counters, per_flow)``, int64 arrays
    of shape ``(K, len(_COUNTERS))`` and ``(K, 2, F)`` (latency sums, then
    counts), appending trace events to ``traces`` when given."""
    ffi, lib = ckernel.load()
    sim = job.sim
    K, F, L = job.K, len(job.flows), sim.packet_length
    pkt_off = np.zeros(K + 1, dtype=_I)
    np.cumsum([a.size for a in job.sched_fi], out=pkt_off[1:])
    pkt_flow = np.concatenate(job.sched_fi).astype(_I, copy=False)
    pkt_cycle = np.concatenate(job.sched_cycle).astype(_I, copy=False)
    inputs_map = sim._inputs_per_link()
    out_ids = [o for o, inputs in inputs_map.items() if inputs]
    out_in_off = np.zeros(len(out_ids) + 1, dtype=_I)
    np.cumsum([len(inputs_map[o]) for o in out_ids], out=out_in_off[1:])
    out_in_flat = np.asarray(
        list(chain.from_iterable(inputs_map[o] for o in out_ids)), dtype=_I
    )
    out = np.zeros((K, len(_COUNTERS) + 1), dtype=_I)  # + event count
    pf = np.zeros((K, 2, F), dtype=_I)
    ev_off = events = None
    if traces is not None:
        # One event per flit per link of its route, at most.
        per_pkt = L * np.diff(job.route_off)[pkt_flow]
        ev_off = np.concatenate(([0], np.cumsum(per_pkt)))[pkt_off]
        events = np.zeros((max(1, int(ev_off[-1])), 4), dtype=_I)

    def ptr(a):
        """``a`` as an ``int64_t *``; the cdata keeps ``a`` alive."""
        if a is None:
            return ffi.NULL
        if a.dtype != _I or not a.flags.c_contiguous:
            raise TypeError("kernel arrays must be C-contiguous int64")
        return ffi.from_buffer("int64_t[]", a)

    rc = lib.wormhole_run(
        K, len(job.delay), F, L, sim.buffer_depth, job.cycles, job.warmup,
        job.drain_limit, ptr(job.delay), ptr(job.is_eject.astype(_I)),
        ptr(job.route_off), ptr(job.route_flat), len(out_ids),
        ptr(np.asarray(out_ids, dtype=_I)), ptr(out_in_off), ptr(out_in_flat),
        ptr(pkt_off), ptr(pkt_flow), ptr(pkt_cycle), ptr(out), ptr(pf),
        ptr(ev_off), ptr(events),
    )
    if rc == -1:
        raise MemoryError("wormhole kernel: out of memory")
    if rc != 0:
        raise RuntimeError(f"wormhole kernel failed with code {rc}")
    if traces is not None:
        for k, n in enumerate(out[:, -1].tolist()):
            lo = int(ev_off[k])
            traces[k].extend(
                (_EVENT_KINDS[kind], cycle, lid, pid)
                for kind, cycle, lid, pid in events[lo:lo + n].tolist()
            )
    return out[:, :-1], pf


def _stats(job: _Job, counters: np.ndarray, per_flow: np.ndarray):
    """One :class:`SimulationStats` per replication from the loops' integer
    sums: python-int divisions of the totals the reference sums, so the
    floats are bit-identical."""
    from repro.noc.simulator import SimulationStats  # circular at import time

    results = []
    for row, (sums, counts) in zip(counters.tolist(), per_flow.tolist()):
        injected, flits, lat_sum, n, lat_max, drain = row
        stats = SimulationStats(
            cycles=job.cycles,
            packets_injected=injected,
            packets_delivered=n,
            flits_delivered=flits,
            avg_packet_latency=lat_sum / n if n else 0.0,
            max_packet_latency=lat_max if n else 0,
            drain_cycles=drain,
        )
        for flow, total, m in zip(job.flows, sums, counts):
            stats.per_flow_delivered[flow] = m
            if m:
                stats.per_flow_latency[flow] = total / m
        results.append(stats)
    return results


def _run_lockstep(job: _Job, traces):
    """The cycle loop as one numpy program over all K replications (see
    the module docstring); same return value as :func:`_run_kernel`."""
    sim = job.sim
    topo = sim.topology
    K = job.K
    L = sim.packet_length
    tail_k = L - 1
    depth = sim.buffer_depth
    cycles, warmup, drain_limit = job.cycles, job.warmup, job.drain_limit
    sched_fi, sched_cycle = job.sched_fi, job.sched_cycle

    F = len(job.flows)
    links = topo.links
    nl = len(links)
    delay_py = list(sim._link_delay)
    routes = [topo.routes[f] for f in job.flows]
    route_len = [len(r) for r in routes]

    delay = job.delay
    route_off = job.route_off
    route_flat = job.route_flat
    first_link = route_flat[route_off[:-1]]
    is_eject = job.is_eject
    route_len_arr = np.diff(route_off)

    # Switch arbitration structure, in the scalar loop's order: out_ids is
    # ascending output link id, and every output of a switch shares the
    # switch's sorted incoming-link list, so a link's scan position is a
    # per-switch constant.
    inputs_map = sim._inputs_per_link()
    out_ids = [o for o, inputs in inputs_map.items() if inputs]
    n_out = len(out_ids)
    switch_ids = sorted({links[o].src[1] for o in out_ids})
    sw_index = {sw: i for i, sw in enumerate(switch_ids)}
    n_sw = len(switch_ids)
    switch_outputs: List[List[int]] = [[] for _ in range(n_sw)]
    out_oi = np.full(nl, -1, dtype=_I)       # lid -> index into rr
    out_rank = np.full(nl, -1, dtype=_I)     # lid -> rank in switch
    out_sw = np.full(nl, -1, dtype=_I)       # lid -> switch index
    n_inputs_of = np.zeros(nl, dtype=_I)     # lid -> len(inputs)
    pos_of_input = np.full(nl, -1, dtype=_I)  # input lid -> scan pos
    for oi, out in enumerate(out_ids):
        sw = sw_index[links[out].src[1]]
        out_oi[out] = oi
        out_sw[out] = sw
        out_rank[out] = len(switch_outputs[sw])
        switch_outputs[sw].append(out)
        n_inputs_of[out] = len(inputs_map[out])
    switch_inputs: List[List[int]] = [[] for _ in range(n_sw)]
    for sw, outs in enumerate(switch_outputs):
        switch_inputs[sw] = inputs_map[outs[0]]
        for pos, lid in enumerate(switch_inputs[sw]):
            pos_of_input[lid] = pos
    # Fused hop -> within-switch rank table for the hazard detector.
    route_rank_flat = out_rank[route_flat]

    # The schedules flattened into injection-event arrays.
    tot_k = np.asarray([a.size for a in sched_fi], dtype=np.int64)
    k_cat = np.repeat(np.arange(K, dtype=np.int64), tot_k)
    cyc_cat = (
        np.concatenate(sched_cycle) if sched_cycle else np.zeros(0, np.int64)
    )
    lens2d = np.bincount(
        k_cat * cycles + cyc_cat, minlength=K * cycles
    ).reshape(K, cycles)
    Pmax = max(1, int(tot_k.max()))
    NP = K * Pmax          # packet-slot count (flat packet index space)
    # pkt_flow / pkt_cycle, flat over p = k * Pmax + pid.
    pkt_flow = np.zeros(NP, dtype=_I)
    pkt_cycle = np.full(NP, cycles, dtype=_I)
    # Source-queue packet order: pids of each (k, flow), injection order.
    fp_off = np.zeros(K * F + 1, dtype=_I)
    fp_chunks: List[np.ndarray] = []
    for k in range(K):
        base = k * Pmax
        n = int(tot_k[k])
        pkt_flow[base:base + n] = sched_fi[k]
        pkt_cycle[base:base + n] = sched_cycle[k]
        order = np.argsort(sched_fi[k], kind="stable")
        fp_chunks.append(order.astype(_I))
        fp_off[k * F + 1:(k + 1) * F + 1] = (
            fp_off[k * F]
            + np.cumsum(np.bincount(sched_fi[k], minlength=F))
        ).astype(_I)
    flow_pid = (
        np.concatenate(fp_chunks) if fp_chunks else np.zeros(0, _I)
    )

    # Global injection events sorted by cycle, with per-cycle offsets.
    inj_k = k_cat.astype(_I)
    inj_fi = (
        np.concatenate(sched_fi) if sched_fi else np.zeros(0, np.int64)
    ).astype(_I)
    inj_cycle = cyc_cat.astype(_I)
    order = np.argsort(inj_cycle, kind="stable")
    inj_k = inj_k[order]
    inj_fi = inj_fi[order]
    inj_cycle = inj_cycle[order]
    inj_off = np.searchsorted(
        inj_cycle, np.arange(cycles + 1, dtype=np.int64)
    ).tolist()

    # next_inj[k, c]: first cycle >= c with a scheduled injection for k (or
    # the horizon) — the per-replication event-skip target.
    arange_c = np.arange(cycles, dtype=_I)
    next_inj = np.full((K, cycles + 1), cycles, dtype=_I)
    marked = np.where(lens2d > 0, arange_c[None, :], _I(cycles))
    next_inj[:, :cycles] = np.minimum.accumulate(
        marked[:, ::-1], axis=1
    )[:, ::-1]
    drain_end = cycles + drain_limit

    # Packets injected at/after warmup — a schedule property, countable now.
    injected = np.asarray(
        [int((c >= warmup).sum()) for c in sched_cycle], dtype=np.int64
    )

    # ---------------------------------------------------------------------
    # Dynamic state, flat over e = k * nl + lid / s = k * F + fi. Ring
    # cursors are monotonic counters (length = tail - head, slot = counter
    # mod capacity), saving a wrap pass on every pop/push.
    E = K * nl
    S = K * F
    cap = 16
    pmask = cap - 1
    bcap = 1 << (depth - 1).bit_length()  # ring capacity >= depth, pow2
    bmask = bcap - 1
    pipe_buf = np.zeros((E, cap), dtype=_I)
    pipe_flat = pipe_buf.reshape(-1)
    pipe_head = np.zeros(E, dtype=_I)
    pipe_tail = np.zeros(E, dtype=_I)
    pipe_last = np.zeros(E, dtype=_I)
    buf_buf = np.zeros((E, bcap), dtype=_I)
    buf_flat = buf_buf.reshape(-1)
    buf_head = np.zeros(E, dtype=_I)
    buf_tail = np.zeros(E, dtype=_I)
    alloc = np.full(E, -1, dtype=_I)
    q_sent = np.zeros(S, dtype=_I)
    q_avail = np.zeros(S, dtype=_I)
    rr = np.zeros(K * n_out, dtype=_I)
    flit_hop = np.zeros(NP * L, dtype=np.int32)
    flit_ready = np.zeros(NP * L, dtype=np.int32)
    is_tail = np.zeros(NP * L, dtype=bool)
    is_tail[tail_k::L] = True
    is_eject_e = np.tile(is_eject, K)

    empty = np.zeros(0, dtype=_I)
    act_buf = empty    # link entities with a non-empty input buffer
    in_src = np.zeros(S, dtype=bool)
    in_buf = np.zeros(E, dtype=bool)

    # Active sources plus cached per-entity constants (replication, flow,
    # first-link entity, link delay, queue-order base) — recomputing these
    # from ``s`` every cycle costs more than filtering them alongside.
    act_src = empty
    as_kv = empty
    as_fi = empty
    as_e = empty
    as_dly = empty
    as_fpo = empty

    # Phase 2 is event-driven: a pipeline is touched only on the cycle its
    # head flit ripens. Two calendars — eject links and internal links, so
    # the wake-up sets need no is_eject partitioning — map cycle ->
    # [(entities, head fids)] scheduled when a flit lands on an empty
    # pipeline or a pop reveals a successor; the head fid is recorded at
    # schedule time (a head changes only by being popped, which reschedules
    # its successor, so the recorded value is exact at wake). ``blocked``
    # holds heads that found their downstream buffer full and must retry
    # every cycle until credit frees, exactly like the solo per-cycle
    # re-test.
    cal_ej: dict = {}
    cal_mv: dict = {}
    blocked_e = empty
    blocked_f = empty

    outstanding = np.zeros(K, dtype=np.int64)
    flits_delivered = np.zeros(K, dtype=np.int64)
    drain_rec = np.zeros(K, dtype=np.int64)
    done = np.zeros(K, dtype=bool)
    n_done = 0

    # Latency bookkeeping is append-only inside the loop — nothing reads
    # it until the stats assembly — so ejected tails are only *recorded*
    # per cycle (packet, replication, eject cycle) and every latency
    # reduction runs once, vectorized, after the loop.
    ej_pk: List[np.ndarray] = []   # packet index per ejected tail
    ej_kk: List[np.ndarray] = []   # replication per ejected tail
    ej_cyc: List[int] = []         # eject cycle per chunk
    ej_n: List[int] = []           # chunk length

    # Persistent scratch, reset sparsely after every use. The ``posv_*``
    # claim boards need no reset at all: each cycle re-scatters fresh
    # positions before reading, so stale entries are never observed.
    dirty_sw = np.zeros(K * n_sw, dtype=bool)    # phase-4 hazard marks
    posv_e = np.zeros(E, dtype=_I)               # phase-3 claim board
    flag_e = np.zeros(E, dtype=bool)             # phase-3 contested links
    posv_o = np.zeros(K * n_out, dtype=_I)       # phase-4 claim board
    flag_o = np.zeros(K * n_out, dtype=bool)     # phase-4 contested outputs

    def sched_into(cal: dict, e_arr, f_arr, t_arr) -> None:
        """Wake the pipelines ``e_arr`` (heads ``f_arr``) at ``t_arr``."""
        lo = int(t_arr.min())
        hi = int(t_arr.max())
        if lo == hi:  # common case: one shared link delay
            cal.setdefault(lo, []).append((e_arr, f_arr))
            return
        if hi - lo <= 8:  # few distinct wake cycles: skip the sort
            for t in range(lo, hi + 1):
                m = t_arr == t
                if m.any():
                    cal.setdefault(t, []).append((e_arr[m], f_arr[m]))
            return
        for t in np.unique(t_arr).tolist():
            m = t_arr == t
            cal.setdefault(t, []).append((e_arr[m], f_arr[m]))

    def grow_pipes(need: int) -> None:
        nonlocal cap, pmask, pipe_buf, pipe_flat
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        # Re-layout every ring contiguously from slot 0 and rebase cursors.
        length = pipe_tail - pipe_head
        idx = (pipe_head[:, None] + np.arange(cap, dtype=_I)) & pmask
        new_buf = np.zeros((E, new_cap), dtype=_I)
        new_buf[:, :cap] = pipe_buf[np.arange(E)[:, None], idx]
        pipe_buf = new_buf
        pipe_flat = new_buf.reshape(-1)
        pipe_head[:] = 0
        pipe_tail[:] = length
        cap = new_cap
        pmask = new_cap - 1

    def push_pipe(e_idx: np.ndarray, fids: np.ndarray, ready) -> None:
        """Append ``fids`` to the pipelines ``e_idx`` (unique entities)."""
        if e_idx.size == 0:
            return
        lens = pipe_tail[e_idx] - pipe_head[e_idx]
        if int(lens.max()) >= cap:
            grow_pipes(int(lens.max()) + 1)  # rebases the ring cursors
        t = pipe_tail[e_idx]
        flit_ready[fids] = ready
        pipe_last[e_idx] = ready
        pipe_flat[e_idx * cap + (t & pmask)] = fids
        pipe_tail[e_idx] = t + 1
        was_empty = lens == 0
        if was_empty.any():
            # ready >= cycle + 1 always (link delays are >= 1).
            ew = e_idx[was_empty]
            fw = fids[was_empty]
            tw = ready[was_empty]
            ejm = is_eject_e[ew]
            if ejm.any():
                sched_into(cal_ej, ew[ejm], fw[ejm], tw[ejm])
            if not ejm.all():
                mv = ~ejm
                sched_into(cal_mv, ew[mv], fw[mv], tw[mv])

    def arbitrate_switch_scalar(k: int, sw: int, cycle: int) -> None:
        """Exact solo-order arbitration of one (replication, switch) pair.

        The vectorized pass suppressed this pair's winners before applying
        anything, so the state seen here is untouched phase-start state and
        the scalar walk reproduces the solo loop verbatim.
        """
        inputs = switch_inputs[sw]
        n = len(inputs)
        kb_l = k * nl
        for out in switch_outputs[sw]:
            roi = k * n_out + int(out_oi[out])
            start = int(rr[roi])
            oe = kb_l + out
            dly = delay_py[out]
            for k2 in range(n):
                pos = start + k2
                if pos >= n:
                    pos -= n
                ie = kb_l + inputs[pos]
                if buf_tail[ie] == buf_head[ie]:
                    continue
                fid = int(buf_buf[ie, buf_head[ie] & bmask])
                p = fid // L
                j = fid - p * L
                fi = int(pkt_flow[p])
                hop_next = int(flit_hop[fid]) + 1
                if hop_next >= route_len[fi]:
                    continue
                if routes[fi][hop_next] != out:
                    continue
                plen = int(pipe_tail[oe] - pipe_head[oe])
                if plen and pipe_last[oe] >= cycle + dly:
                    continue
                if j == 0:
                    if alloc[oe] != -1:
                        continue
                    alloc[oe] = p
                elif alloc[oe] != p:
                    continue
                ready = cycle + dly
                flit_ready[fid] = ready
                pipe_last[oe] = ready
                if plen >= cap:
                    grow_pipes(plen + 1)
                pipe_buf[oe, pipe_tail[oe] & pmask] = fid
                pipe_tail[oe] += 1
                if plen == 0:
                    cal = cal_ej if is_eject_e[oe] else cal_mv
                    cal.setdefault(ready, []).append((
                        np.asarray([oe], dtype=_I),
                        np.asarray([fid], dtype=_I),
                    ))
                if j == tail_k:
                    alloc[oe] = -1
                flit_hop[fid] = hop_next
                buf_head[ie] += 1
                rr[roi] = pos + 1 if pos + 1 < n else 0
                break  # one flit per output per cycle

    def wake(cal: dict, cycle: int):
        """Pop and merge this cycle's wake-ups from one calendar."""
        due = cal.pop(cycle, None)
        if due is None:
            return empty, empty
        if len(due) == 1:
            e2, f2 = due[0]
        else:
            e2 = np.concatenate([d[0] for d in due])
            f2 = np.concatenate([d[1] for d in due])
        if n_done and e2.size:
            live = ~done[e2 // nl]
            if not live.all():
                e2, f2 = e2[live], f2[live]
        return e2, f2

    # ---------------------------------------------------------------------
    cycle = 0
    while True:
        # 1a. Per-replication completion, exactly the solo loop's top-of-
        # cycle break test; finished replications leave every active list.
        if cycle >= cycles:
            fin = ~done & (
                (outstanding == 0) | (cycle - cycles >= drain_limit)
            )
            if fin.any():
                idx = np.nonzero(fin)[0]
                done[idx] = True
                drain_rec[idx] = cycle - cycles if cycle > cycles else 0
                n_done += idx.size
                if blocked_e.size:
                    live = ~done[blocked_e // nl]
                    blocked_e = blocked_e[live]
                    blocked_f = blocked_f[live]
                if act_buf.size:
                    gone = done[act_buf // nl]
                    in_buf[act_buf[gone]] = False
                    act_buf = act_buf[~gone]
                if act_src.size:
                    gone = done[as_kv]
                    in_src[act_src[gone]] = False
                    keep = ~gone
                    act_src = act_src[keep]
                    as_kv = as_kv[keep]
                    as_fi = as_fi[keep]
                    as_e = as_e[keep]
                    as_dly = as_dly[keep]
                    as_fpo = as_fpo[keep]
            if n_done == K:
                break

        # 1b. Packet generation from the pre-drawn schedules.
        if cycle < cycles and inj_off[cycle + 1] > inj_off[cycle]:
            sl = slice(inj_off[cycle], inj_off[cycle + 1])
            kk = inj_k[sl]
            fi_new = inj_fi[sl]
            s_idx = kk * F + fi_new
            q_avail[s_idx] += L  # each (k, flow) appears at most once/cycle
            np.add.at(outstanding, kk, L)
            fresh = ~in_src[s_idx]
            if fresh.any():
                sf = s_idx[fresh]
                in_src[sf] = True
                kf = kk[fresh]
                ff = fi_new[fresh]
                lf = first_link[ff]
                act_src = np.concatenate((act_src, sf))
                as_kv = np.concatenate((as_kv, kf))
                as_fi = np.concatenate((as_fi, ff))
                as_e = np.concatenate((as_e, kf * nl + lf))
                as_dly = np.concatenate((as_dly, delay[lf]))
                as_fpo = np.concatenate((as_fpo, fp_off[sf]))

        ev_k = ev_lid = ev_pid = ev_ej = None  # this cycle's trace events

        # 2. Link delivery: at most one ready head flit leaves each
        # pipeline — ejected at a core, or moved into the downstream input
        # buffer if credit allows. Per-link independent, so one scatter,
        # and event-driven: only pipelines woken by a calendar (head
        # ripens this cycle) or retrying after back-pressure are touched;
        # every such head is ready by construction.
        ee, he = wake(cal_ej, cycle)
        en, hn = wake(cal_mv, cycle)
        if blocked_e.size:
            en = np.concatenate((blocked_e, en))
            hn = np.concatenate((blocked_f, hn))
            blocked_e = blocked_f = empty
        if ee.size:
            hh = pipe_head[ee] + 1
            pipe_head[ee] = hh
            ke = ee // nl
            cnt = np.bincount(ke, minlength=K)
            flits_delivered += cnt
            outstanding -= cnt
            tail = is_tail[he]
            ht = he[tail]
            if ht.size:
                pt = ht // L
                et = ee[tail]
                ej_pk.append(pt)
                ej_kk.append(ke[tail])
                ej_cyc.append(cycle)
                ej_n.append(pt.size)
                freed = alloc[et] == pt
                alloc[et[freed]] = -1
            more = pipe_tail[ee] > hh
            pr = ee[more]
            if pr.size:
                nh = pipe_flat[pr * cap + (hh[more] & pmask)]
                sched_into(
                    cal_ej, pr, nh, np.maximum(flit_ready[nh], cycle + 1)
                )
        if en.size:
            bt = buf_tail[en]
            room = bt - buf_head[en] < depth
            if not room.all():
                # Back-pressure: the flit waits at the link tail and
                # re-tests its downstream buffer every cycle.
                blocked_e = en[~room]
                blocked_f = hn[~room]
                en, hn, bt = en[room], hn[room], bt[room]
        if en.size:
            hh = pipe_head[en] + 1
            pipe_head[en] = hh
            buf_flat[en * bcap + (bt & bmask)] = hn
            buf_tail[en] = bt + 1
            fresh = en[~in_buf[en]]
            if fresh.size:
                in_buf[fresh] = True
                act_buf = np.concatenate((act_buf, fresh))
            more = pipe_tail[en] > hh
            pr = en[more]
            if pr.size:
                nh = pipe_flat[pr * cap + (hh[more] & pmask)]
                sched_into(
                    cal_mv, pr, nh, np.maximum(flit_ready[nh], cycle + 1)
                )
        if traces is not None and (ee.size or en.size):
            ev_e = np.concatenate((ee, en))
            ev_k = ev_e // nl
            ev_lid = ev_e - ev_k * nl
            ev_pid = np.concatenate((he, hn)) // L - ev_k * Pmax
            ev_ej = np.zeros(ev_e.size, dtype=bool)
            ev_ej[:ee.size] = True

        p3_push = None  # deferred phase-3 pipeline push (merged into 4)

        # 3. Source injection: queue head -> first link of the route, in
        # the cycle-rotated flow order. Flows interact only through a
        # shared first link; the ordered winner is the minimum-rank
        # candidate passing the phase-start wormhole test (losers are
        # refused by the pipeline-slot test and mutate nothing).
        if act_src.size:
            pos = q_sent[act_src]
            live = pos < q_avail[act_src]
            if not live.all():
                in_src[act_src[~live]] = False
                act_src = act_src[live]
                as_kv = as_kv[live]
                as_fi = as_fi[live]
                as_e = as_e[live]
                as_dly = as_dly[live]
                as_fpo = as_fpo[live]
                pos = pos[live]
            if act_src.size:
                e = as_e
                pk_i, j = np.divmod(pos, L)
                open_pipe = ~(
                    (pipe_tail[e] != pipe_head[e])
                    & (pipe_last[e] >= cycle + as_dly)
                )
                # Body flits (j > 0) hold their first link's wormhole by
                # construction — only a head needs the allocation free.
                ok = (j != 0) | (alloc[e] == -1)
                cand = open_pipe & ok
                if cand.any():
                    # Winner per contended first link = the minimum-rank
                    # candidate. Contention is rare, so first detect it
                    # with a scatter claim board (last writer per link
                    # sees its own position back) and sort only the
                    # contested links' candidates by (link, rank); ranks
                    # are distinct per link, so ties cannot arise.
                    ci = np.nonzero(cand)[0]
                    ec = e[ci]
                    ar = np.arange(ci.size)
                    posv_e[ec] = ar
                    sole = posv_e[ec] == ar
                    if sole.all():
                        wi = ci
                    else:
                        flagged = ec[~sole]
                        flag_e[flagged] = True
                        contested = flag_e[ec]
                        cc = ci[contested]
                        ecc = e[cc]
                        rank = (as_fi[cc] - (cycle % F)) % F
                        o2 = np.lexsort((rank, ecc))
                        ec_s = ecc[o2]
                        firstw = np.empty(o2.size, dtype=bool)
                        firstw[0] = True
                        np.not_equal(ec_s[1:], ec_s[:-1], out=firstw[1:])
                        wi = np.concatenate(
                            (ci[~contested], cc[o2[firstw]])
                        )
                        flag_e[flagged] = False
                    ew = e[wi]
                    jw = j[wi]
                    pw = as_kv[wi] * Pmax + flow_pid[as_fpo[wi] + pk_i[wi]]
                    # Source links (core outputs) and phase-4 switch
                    # outputs are disjoint, so the actual pipeline push
                    # is deferred and merged with phase 4's — one
                    # push_pipe call instead of two.
                    p3_push = (ew, pw * L + jw, cycle + as_dly[wi])
                    hw = jw == 0
                    alloc[ew[hw]] = pw[hw]
                    tw = jw == tail_k
                    alloc[ew[tw]] = -1
                    q_sent[act_src[wi]] += 1

        # 4. Switch arbitration: optimistic vectorized winners from
        # phase-start buffer heads, with the revealed-successor hazard
        # repaired by an exact scalar redo of the affected switch.
        if act_buf.size:
            e = act_buf
            bh = buf_head[e]
            head = buf_flat[e * bcap + (bh & bmask)]
            p = head // L
            j = head - p * L
            fiv = pkt_flow[p]
            hop1 = flit_hop[head] + 1
            valid = hop1 < route_len_arr[fiv]
            if not valid.all():
                e, bh, head, p, j, fiv, hop1 = (
                    a[valid] for a in (e, bh, head, p, j, fiv, hop1)
                )
            if e.size:
                kv = e // nl
                out = route_flat[route_off[fiv] + hop1]
                oe = kv * nl + out
                dly = delay[out]
                open_pipe = ~(
                    (pipe_tail[oe] != pipe_head[oe])
                    & (pipe_last[oe] >= cycle + dly)
                )
                ok = alloc[oe] == np.where(j == 0, _I(-1), p)
                cand = open_pipe & ok
                if cand.any():
                    # Winner per contended output = minimum round-robin
                    # scan rank. As in phase 3: scatter claim board to
                    # find contested outputs, sort only their candidates
                    # by (output, rank); input scan positions are
                    # distinct, so ranks are tie-free per output.
                    ci = np.nonzero(cand)[0]
                    croi = kv[ci] * n_out + out_oi[out[ci]]
                    ar = np.arange(ci.size)
                    posv_o[croi] = ar
                    sole = posv_o[croi] == ar
                    if sole.all():
                        wi = ci
                        wroi = croi
                    else:
                        flagged = croi[~sole]
                        flag_o[flagged] = True
                        contested = flag_o[croi]
                        cidx = np.nonzero(contested)[0]
                        cc = ci[cidx]
                        ccroi = croi[cidx]
                        poss = pos_of_input[e[cc] - kv[cc] * nl]
                        rank = (poss - rr[ccroi]) % n_inputs_of[out[cc]]
                        o2 = np.lexsort((rank, ccroi))
                        roi_s = ccroi[o2]
                        firstw = np.empty(o2.size, dtype=bool)
                        firstw[0] = True
                        np.not_equal(roi_s[1:], roi_s[:-1], out=firstw[1:])
                        sel = o2[firstw]
                        uncont = ~contested
                        wi = np.concatenate((ci[uncont], cc[sel]))
                        wroi = np.concatenate((croi[uncont], ccroi[sel]))
                        flag_o[flagged] = False
                    we = e[wi]
                    wbh = bh[wi]
                    wout = out[wi]
                    wkv = kv[wi]
                    wpos = pos_of_input[we - wkv * nl]
                    # Hazard: pop reveals a successor head bound for a
                    # strictly later output of the same switch.
                    revealed = buf_tail[we] - wbh > 1
                    dirty_ids = None
                    if revealed.any():
                        er = we[revealed]
                        nxt = buf_flat[
                            er * bcap + ((wbh[revealed] + 1) & bmask)
                        ]
                        np_ = nxt // L
                        nfi = pkt_flow[np_]
                        nhop = flit_hop[nxt] + 1
                        nvalid = nhop < route_len_arr[nfi]
                        later = np.zeros(er.size, dtype=bool)
                        if nvalid.any():
                            later[nvalid] = (
                                route_rank_flat[
                                    route_off[nfi[nvalid]] + nhop[nvalid]
                                ]
                                > out_rank[wout[revealed][nvalid]]
                            )
                        if later.any():
                            dk = wkv[revealed][later]
                            ds = out_sw[wout[revealed][later]]
                            dirty_ids = np.unique(dk * n_sw + ds)
                            dirty_sw[dirty_ids] = True
                            keep = ~dirty_sw[wkv * n_sw + out_sw[wout]]
                            dirty_sw[dirty_ids] = False
                            wi, we, wbh, wout, wroi, wpos = (
                                a[keep] for a in (
                                    wi, we, wbh, wout, wroi, wpos,
                                )
                            )
                    if wi.size:
                        whead = head[wi]
                        wj = j[wi]
                        wp = p[wi]
                        woe_h = oe[wi]
                        ready4 = cycle + delay[wout]
                        if p3_push is None:
                            push_pipe(woe_h, whead, ready4)
                        else:
                            push_pipe(
                                np.concatenate((woe_h, p3_push[0])),
                                np.concatenate((whead, p3_push[1])),
                                np.concatenate((ready4, p3_push[2])),
                            )
                            p3_push = None
                        hw = wj == 0
                        alloc[woe_h[hw]] = wp[hw]
                        tw = wj == tail_k
                        alloc[woe_h[tw]] = -1
                        flit_hop[whead] = hop1[wi]
                        buf_head[we] = wbh + 1
                        rr[wroi] = (wpos + 1) % n_inputs_of[wout]
                    if dirty_ids is not None:
                        global DIRTY_REDOS
                        DIRTY_REDOS += dirty_ids.size
                        for pair in dirty_ids.tolist():
                            arbitrate_switch_scalar(
                                pair // n_sw, pair % n_sw, cycle
                            )
        if p3_push is not None:  # phase 4 idle: flush the deferred push
            push_pipe(*p3_push)

        # Trace assembly: phase-2 events in the solo order (ascending link
        # id; at most one event per link per cycle).
        if ev_k is not None:
            for i in np.lexsort((ev_lid, ev_k)).tolist():
                traces[int(ev_k[i])].append((
                    "eject" if ev_ej[i] else "deliver",
                    cycle, int(ev_lid[i]), int(ev_pid[i]),
                ))

        # End-of-cycle compaction: drained buffers leave their active list
        # (sources compact inside phase 3; pipelines are calendar-driven).
        if act_buf.size:
            keep = buf_tail[act_buf] != buf_head[act_buf]
            if not keep.all():
                in_buf[act_buf[~keep]] = False
                act_buf = act_buf[keep]

        cycle += 1

        # Event skip: only when every unfinished replication has empty
        # source queues and empty input buffers (a blocked link tail
        # implies a full — hence non-empty — buffer, so none is retrying).
        # Jump to the minimum of the per-replication solo targets, clamped
        # by the next calendar wake-up; crawled cycles the solo engine
        # would have skipped are no-ops for the idle replication.
        if act_src.size == 0 and act_buf.size == 0:
            unfin = np.nonzero(~done)[0]
            if unfin.size:
                live = outstanding[unfin] > 0
                if cycle < cycles:
                    tgt = next_inj[unfin, cycle]
                elif not live.all():
                    tgt = None  # a replication finishes at this very cycle
                else:
                    tgt = np.full(unfin.size, drain_end, dtype=np.int64)
                if tgt is not None:
                    target = int(tgt.min())
                    for cal in (cal_ej, cal_mv):
                        if cal:
                            target = min(target, min(cal))
                    if target > cycle:
                        cycle = target

    # ---------------------------------------------------------------------
    # Deferred latency reductions: one vectorized pass over every recorded
    # tail ejection (bincount sums are float64 but exact — integer values
    # far below 2^53).
    lat_sum = np.zeros(K, dtype=np.int64)
    lat_n = np.zeros(K, dtype=np.int64)
    lat_max = np.zeros(K, dtype=np.int64)
    pf_sum = np.zeros(S, dtype=np.int64)
    pf_n = np.zeros(S, dtype=np.int64)
    if ej_pk:
        pk = np.concatenate(ej_pk)
        kk2 = np.concatenate(ej_kk)
        ecyc = np.repeat(
            np.asarray(ej_cyc, dtype=np.int64),
            np.asarray(ej_n, dtype=np.int64),
        )
        ic = pkt_cycle[pk]
        counted = ic >= warmup
        if counted.any():
            pk = pk[counted]
            kk2 = kk2[counted]
            lat = ecyc[counted] - ic[counted]
            lat_sum = np.bincount(
                kk2, weights=lat, minlength=K
            ).astype(np.int64)
            lat_n = np.bincount(kk2, minlength=K)
            np.maximum.at(lat_max, kk2, lat)
            sf = kk2 * F + pkt_flow[pk]
            pf_sum = np.bincount(
                sf, weights=lat, minlength=S
            ).astype(np.int64)
            pf_n = np.bincount(sf, minlength=S)
    counters = np.stack([
        np.asarray([int((c >= warmup).sum()) for c in sched_cycle]),
        flits_delivered, lat_sum, lat_n, lat_max, drain_rec,
    ], axis=1).astype(np.int64)
    return counters, np.stack(
        [pf_sum.reshape(K, F), pf_n.reshape(K, F)], axis=1
    ).astype(np.int64)


def _per_replication_scenarios(scenario, K: int) -> List[ScenarioSpec]:
    """Resolve the scenario argument to one spec per replication."""
    from repro.noc.scenarios import TrafficScenario

    if (
        isinstance(scenario, (list, tuple))
        and not isinstance(scenario, str)
    ):
        if len(scenario) != K:
            raise SynthesisError(
                f"got {len(scenario)} scenarios for {K} replications"
            )
        return list(scenario)
    if scenario is None or isinstance(scenario, (str, TrafficScenario)):
        return [scenario] * K
    raise SynthesisError(
        f"scenario must be a spec or a sequence of specs, got {scenario!r}"
    )
