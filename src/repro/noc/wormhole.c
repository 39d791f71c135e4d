/*
 * The wormhole cycle loop: K replications of one topology, one after
 * another, each the scalar occupancy-driven algorithm over int64 arrays.
 *
 * Built and loaded by repro/noc/ckernel.py; driven by
 * repro.noc.batchengine._run_kernel, which builds every schedule (all the
 * entropy) beforehand and assembles the statistics (all the floats)
 * afterwards. This file only moves integers.
 *
 * State is keyed by small integers: flit pid * L + j of packet pid is its
 * j-th flit; every flit sits in at most one FIFO at a time (a link
 * pipeline or a downstream input buffer), so all FIFOs are singly linked
 * lists threaded through one next-pointer per flit (so a flit must leave
 * one FIFO before it joins the next), and source queues are cursors into
 * each flow's packet list.
 *
 * Bit-exactness with the frozen reference (repro/noc/reference.py), trace
 * included, rests on four observations:
 *
 * 1. the injection schedule is built by the same scenario code from the
 *    same freshly seeded generator, so both inject the same packets on the
 *    same cycles, with pids in injection order;
 * 2. every phase visits its entities in the reference order: links in
 *    ascending id, source flows in the cycle-rotated order restricted to
 *    non-empty queues, switch outputs in ascending link id with the same
 *    round-robin scan. Skipped entities are exactly those for which the
 *    reference loop body is a no-op (empty pipeline, empty queue, or no
 *    buffered head flit routed to the output, so the scan would refuse
 *    every input and leave the round-robin pointer untouched);
 * 3. the wormhole send test makes the same comparisons in the same order
 *    (pipeline slot, then allocation), with packet ids standing in for the
 *    reference's (flow, packet id) keys;
 * 4. a skipped cycle is one on which the reference loop changes nothing:
 *    with every source queue and input buffer empty, only a ripe pipeline
 *    head can act, and the skip never jumps past the next ripe head, the
 *    next scheduled injection, the injection horizon or the drain bound.
 *
 * Latencies are summed as integers; the caller divides the same totals the
 * reference sums, so the floats match bit for bit.
 */

#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

enum {
    OUT_INJECTED, OUT_FLITS, OUT_LAT_SUM, OUT_LAT_N, OUT_LAT_MAX,
    OUT_DRAIN, OUT_EVENTS, N_OUT
};

enum { EV_DELIVER = 0, EV_EJECT = 1 };

enum { OK = 0, ERR_NOMEM = -1, ERR_TRACE = -2 };

/* FIFO of flit ids, linked through nxt[]; -1 marks an empty end. */
typedef struct {
    i64 *head, *tail;
} fifo;

static void fifo_push(fifo q, i64 *nxt, i64 id, i64 fid)
{
    nxt[fid] = -1;
    if (q.tail[id] < 0)
        q.head[id] = fid;
    else
        nxt[q.tail[id]] = fid;
    q.tail[id] = fid;
}

static void fifo_pop(fifo q, const i64 *nxt, i64 id)
{
    i64 fid = q.head[id];
    q.head[id] = nxt[fid];
    if (q.head[id] < 0)
        q.tail[id] = -1;
}

typedef struct {
    i64 nl, F, L, depth, cycles, warmup, drain_limit, n_out;
    const i64 *delay, *is_eject, *route_off, *route_flat;
    const i64 *out_ids, *out_in_off, *out_in_flat;
} topo;

typedef struct {
    /* per link */
    i64 *pipe_h, *pipe_t, *pipe_last, *buf_h, *buf_t, *buf_n, *alloc, *want;
    /* per flow */
    i64 *q_sent, *q_avail, *fp_off;
    /* per output */
    i64 *rr;
    /* per packet / per flit */
    i64 *flow_pid, *flit_hop, *flit_ready, *nxt;
} scratch;

/* Credit the new head of buffer `lid` (if any) to the output it requests. */
static void want_head(const topo *t, scratch *s, const i64 *pkt_flow,
                      i64 lid)
{
    i64 fid = s->buf_h[lid];
    if (fid < 0)
        return;
    i64 fi = pkt_flow[fid / t->L];
    i64 hop = s->flit_hop[fid] + 1;
    if (hop < t->route_off[fi + 1] - t->route_off[fi])
        s->want[t->route_flat[t->route_off[fi] + hop]] += 1;
}

/* The wormhole send test of a flit of packet pid, position j, onto link
 * lid: the pipeline-slot test, then the allocation test. If it passes, the
 * allocation is updated and the caller moves the flit with enter_pipe. */
static int may_send(const topo *t, scratch *s, i64 lid, i64 pid, i64 j,
                    i64 cycle)
{
    if (s->pipe_h[lid] >= 0 && s->pipe_last[lid] >= cycle + t->delay[lid])
        return 0;
    if (j == 0) {
        if (s->alloc[lid] != -1)
            return 0;
        s->alloc[lid] = pid;
    } else if (s->alloc[lid] != pid) {
        return 0;
    }
    if (j == t->L - 1)
        s->alloc[lid] = -1;
    return 1;
}

/* Append flit fid (already taken off its previous FIFO) to pipeline lid. */
static void enter_pipe(const topo *t, scratch *s, i64 lid, i64 fid,
                       i64 cycle)
{
    i64 ready = cycle + t->delay[lid];
    s->flit_ready[fid] = ready;
    s->pipe_last[lid] = ready;
    fifo_push((fifo){s->pipe_h, s->pipe_t}, s->nxt, lid, fid);
}

/* Record one (kind, cycle, link, pid) event if tracing; the buffer holds
 * cap events. Returns OK, or ERR_TRACE if it is full. */
static int trace_event(i64 *ev, i64 cap, i64 *n, i64 kind, i64 cycle,
                       i64 lid, i64 pid)
{
    if (!ev)
        return OK;
    if (*n >= cap)
        return ERR_TRACE;
    ev += 4 * (*n)++;
    ev[0] = kind;
    ev[1] = cycle;
    ev[2] = lid;
    ev[3] = pid;
    return OK;
}

/* One replication: P packets in pid (= injection) order. */
static int run_one(const topo *t, scratch *s, i64 P, const i64 *pkt_flow,
                   const i64 *pkt_cycle, i64 *out, i64 *pf_sum, i64 *pf_n,
                   i64 *ev, i64 ev_cap)
{
    const i64 nl = t->nl, F = t->F, L = t->L, tail_k = L - 1;
    const i64 cycles = t->cycles, drain_end = cycles + t->drain_limit;
    const fifo pipe = {s->pipe_h, s->pipe_t}, buf = {s->buf_h, s->buf_t};
    i64 i;

    for (i = 0; i < nl; i++) {
        s->pipe_h[i] = s->pipe_t[i] = s->buf_h[i] = s->buf_t[i] = -1;
        s->alloc[i] = -1;
        s->pipe_last[i] = s->buf_n[i] = s->want[i] = 0;
    }
    for (i = 0; i < t->n_out; i++)
        s->rr[i] = 0;
    /* Each flow's packets in pid order: a counting sort of pkt_flow, with
     * q_avail as the fill cursor (reset before the run). */
    for (i = 0; i <= F; i++)
        s->fp_off[i] = 0;
    for (i = 0; i < P; i++)
        s->fp_off[pkt_flow[i] + 1] += 1;
    for (i = 0; i < F; i++) {
        s->fp_off[i + 1] += s->fp_off[i];
        s->q_sent[i] = s->q_avail[i] = 0;
    }
    for (i = 0; i < P; i++) {
        i64 fi = pkt_flow[i];
        s->flow_pid[s->fp_off[fi] + s->q_avail[fi]++] = i;
    }
    for (i = 0; i < F; i++)
        s->q_avail[i] = 0;

    i64 injected = 0, flits = 0, lat_sum = 0, lat_n = 0, lat_max = 0;
    i64 n_ev = 0, outstanding = 0, buffered = 0, active_src = 0;
    i64 next_pkt = 0, cycle = 0;
    for (i = 0; i < F; i++)
        pf_sum[i] = pf_n[i] = 0;

    for (;;) {
        /* 1. Packet generation from the pre-drawn schedule. */
        if (cycle < cycles) {
            i64 born = 0;
            while (next_pkt < P && pkt_cycle[next_pkt] == cycle) {
                i64 fi = pkt_flow[next_pkt];
                for (i = 0; i < L; i++)
                    s->flit_hop[next_pkt * L + i] = 0;
                if (s->q_sent[fi] == s->q_avail[fi])
                    active_src++;
                s->q_avail[fi] += L;
                next_pkt++;
                born++;
            }
            outstanding += L * born;
            if (cycle >= t->warmup)
                injected += born;
        } else if (outstanding == 0 || cycle - cycles >= t->drain_limit) {
            break;
        }

        /* 2. Link delivery: at most one ripe flit leaves each pipeline,
         * ejected at a core or moved into the downstream input buffer if
         * credit allows (else it waits at the link tail). */
        for (i64 lid = 0; lid < nl; lid++) {
            i64 fid = s->pipe_h[lid];
            if (fid < 0 || s->flit_ready[fid] > cycle)
                continue;
            i64 pid = fid / L;
            if (t->is_eject[lid]) {
                fifo_pop(pipe, s->nxt, lid);
                flits++;
                outstanding--;
                if (trace_event(ev, ev_cap, &n_ev, EV_EJECT, cycle, lid, pid))
                    return ERR_TRACE;
                if (fid - pid * L == tail_k) {
                    i64 ic = pkt_cycle[pid];
                    if (ic >= t->warmup) {
                        i64 lat = cycle - ic, fi = pkt_flow[pid];
                        lat_sum += lat;
                        lat_n++;
                        if (lat > lat_max)
                            lat_max = lat;
                        pf_sum[fi] += lat;
                        pf_n[fi]++;
                    }
                    if (s->alloc[lid] == pid)
                        s->alloc[lid] = -1;
                }
            } else if (s->buf_n[lid] < t->depth) {
                fifo_pop(pipe, s->nxt, lid);
                fifo_push(buf, s->nxt, lid, fid);
                if (s->buf_n[lid]++ == 0)
                    want_head(t, s, pkt_flow, lid);
                buffered++;
                if (trace_event(ev, ev_cap, &n_ev, EV_DELIVER, cycle, lid,
                                pid))
                    return ERR_TRACE;
            }
        }

        /* 3. Injection: source queue -> first link of the route, in the
         * cycle-rotated flow order, visiting only non-empty queues. */
        if (active_src) {
            i64 fi = cycle % F;
            for (i64 n = 0; n < F; n++, fi = fi + 1 < F ? fi + 1 : 0) {
                i64 pos = s->q_sent[fi];
                if (pos == s->q_avail[fi])
                    continue;
                i64 pid = s->flow_pid[s->fp_off[fi] + pos / L];
                i64 j = pos % L;
                i64 lid = t->route_flat[t->route_off[fi]];
                if (!may_send(t, s, lid, pid, j, cycle))
                    continue;
                enter_pipe(t, s, lid, pid * L + j, cycle);
                if (++s->q_sent[fi] == s->q_avail[fi])
                    active_src--;
            }
        }

        /* 4. Switch arbitration: every output some buffered head flit
         * requests picks one input buffer, round-robin, whose head goes
         * that way. */
        for (i64 oi = 0; oi < t->n_out; oi++) {
            i64 out_id = t->out_ids[oi];
            if (!s->want[out_id])
                continue;
            const i64 *inputs = t->out_in_flat + t->out_in_off[oi];
            i64 n = t->out_in_off[oi + 1] - t->out_in_off[oi];
            i64 pos = s->rr[oi];
            for (i64 k2 = 0; k2 < n; k2++, pos = pos + 1 < n ? pos + 1 : 0) {
                i64 in = inputs[pos];
                i64 fid = s->buf_h[in];
                if (fid < 0)
                    continue;
                i64 pid = fid / L;
                i64 fi = pkt_flow[pid];
                i64 hop = s->flit_hop[fid] + 1;
                if (hop >= t->route_off[fi + 1] - t->route_off[fi])
                    continue;
                if (t->route_flat[t->route_off[fi] + hop] != out_id)
                    continue;
                if (!may_send(t, s, out_id, pid, fid - pid * L, cycle))
                    continue;
                fifo_pop(buf, s->nxt, in);
                enter_pipe(t, s, out_id, fid, cycle);
                s->flit_hop[fid] = hop;
                s->want[out_id]--;
                s->buf_n[in]--;
                buffered--;
                want_head(t, s, pkt_flow, in);
                s->rr[oi] = pos + 1 < n ? pos + 1 : 0;
                break; /* one flit per output per cycle */
            }
        }

        cycle++;

        /* Event skip: with no queued or buffered flit nothing happens
         * before a pipeline head ripens or the schedule injects (a ripe
         * head is never back-pressured: every buffer is empty). Jump
         * there, clamped to the horizon and the drain bound so the break
         * test fires on the cycle a crawl would reach. */
        if (!active_src && !buffered && (outstanding || cycle < cycles)) {
            i64 target = drain_end;
            if (cycle < cycles)
                target = next_pkt < P ? pkt_cycle[next_pkt] : cycles;
            for (i64 lid = 0; lid < nl; lid++) {
                i64 fid = s->pipe_h[lid];
                if (fid >= 0 && s->flit_ready[fid] < target)
                    target = s->flit_ready[fid];
            }
            if (target > cycle)
                cycle = target;
        }
    }

    out[OUT_INJECTED] = injected;
    out[OUT_FLITS] = flits;
    out[OUT_LAT_SUM] = lat_sum;
    out[OUT_LAT_N] = lat_n;
    out[OUT_LAT_MAX] = lat_max;
    out[OUT_DRAIN] = cycle > cycles ? cycle - cycles : 0;
    out[OUT_EVENTS] = n_ev;
    return OK;
}

/*
 * Run K replications. Replication k owns packets pkt_off[k] ..
 * pkt_off[k + 1] - 1 of pkt_flow / pkt_cycle (sorted by injection cycle).
 * Writes N_OUT counters per replication to out, F per-flow latency sums
 * and F per-flow counts to pf, and, when events is not NULL, its
 * (kind, cycle, link, pid) trace events from events + 4 * ev_off[k]
 * (at most ev_off[k + 1] - ev_off[k] of them). Returns 0, or a negative
 * error code.
 */
int wormhole_run(i64 K, i64 nl, i64 F, i64 L, i64 depth, i64 cycles,
                 i64 warmup, i64 drain_limit, const i64 *delay,
                 const i64 *is_eject, const i64 *route_off,
                 const i64 *route_flat, i64 n_out, const i64 *out_ids,
                 const i64 *out_in_off, const i64 *out_in_flat,
                 const i64 *pkt_off, const i64 *pkt_flow,
                 const i64 *pkt_cycle, i64 *out, i64 *pf,
                 const i64 *ev_off, i64 *events)
{
    const topo t = {nl, F, L, depth, cycles, warmup, drain_limit, n_out,
                    delay, is_eject, route_off, route_flat,
                    out_ids, out_in_off, out_in_flat};
    i64 k, p_max = 0;
    for (k = 0; k < K; k++)
        if (pkt_off[k + 1] - pkt_off[k] > p_max)
            p_max = pkt_off[k + 1] - pkt_off[k];

    i64 n_words = 8 * nl + 3 * F + 1 + n_out + p_max + 3 * p_max * L;
    i64 *mem = malloc((size_t)(n_words > 0 ? n_words : 1) * sizeof(i64));
    if (!mem)
        return ERR_NOMEM;
    scratch s;
    i64 *m = mem;
    s.pipe_h = m; m += nl;
    s.pipe_t = m; m += nl;
    s.pipe_last = m; m += nl;
    s.buf_h = m; m += nl;
    s.buf_t = m; m += nl;
    s.buf_n = m; m += nl;
    s.alloc = m; m += nl;
    s.want = m; m += nl;
    s.q_sent = m; m += F;
    s.q_avail = m; m += F;
    s.fp_off = m; m += F + 1;
    s.rr = m; m += n_out;
    s.flow_pid = m; m += p_max;
    s.flit_hop = m; m += p_max * L;
    s.flit_ready = m; m += p_max * L;
    s.nxt = m;

    int rc = OK;
    for (k = 0; k < K && rc == OK; k++) {
        i64 p0 = pkt_off[k];
        rc = run_one(&t, &s, pkt_off[k + 1] - p0, pkt_flow + p0,
                     pkt_cycle + p0, out + k * N_OUT, pf + k * 2 * F,
                     pf + k * 2 * F + F,
                     events ? events + 4 * ev_off[k] : NULL,
                     events ? ev_off[k + 1] - ev_off[k] : 0);
    }
    free(mem);
    return rc;
}
