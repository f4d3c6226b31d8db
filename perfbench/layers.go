package main

import (
	"fmt"

	"eiffel/internal/hclock"
	"eiffel/internal/pifo"
	"eiffel/internal/pkt"
	"eiffel/internal/policy"
	"eiffel/internal/qdisc"
	"eiffel/internal/queue"
	"eiffel/internal/shardq"
)

// The layer replays drive the stream a traced run offered straight
// through the public constructors and calls of the layers a front hides,
// with a fixed backlog of the workload's size, and time each call from
// here. Each replay runs for a fixed time budget and reports ns per
// packet (or per call) for its calls.

// replay is one layer replay's input and bookkeeping.
type replay struct {
	stream  []capture
	bySend  bool   // key the stream by SendAt (time-indexed layers), not Rank
	byClass bool   // the stream's Class is its hClock tenant
	minKey  uint64 // smallest key of the stream
	span    uint64 // key range of the stream
	backlog int
	budget  int64

	pos  int
	pass uint64
	free []*pkt.Packet
}

func newReplay(stream []capture, bySend, byClass bool, backlog int, budget int64) *replay {
	r := &replay{stream: stream, bySend: bySend, byClass: byClass, backlog: backlog, budget: budget}
	lo, hi := ^uint64(0), uint64(0)
	for _, c := range stream {
		k := r.rawKey(c)
		lo, hi = min(lo, k), max(hi, k)
	}
	r.minKey, r.span = lo, hi-lo+1
	return r
}

func (r *replay) rawKey(c capture) uint64 {
	if r.bySend {
		return uint64(c.sendAt)
	}
	return c.rank
}

// reset rewinds the stream and gives the replay a fresh packet arena.
func (r *replay) reset() {
	r.pos, r.pass = 0, 0
	r.free = newPackets(r.backlog + 4*batchSize)
}

// next takes a free packet and stamps it with the next stream entry. It
// returns the packet, its flow, the stream key shifted so the keys of
// successive passes over the stream keep increasing (a time-indexed queue
// never sees time run backwards), and the key's offset within one pass.
func (r *replay) next() (p *pkt.Packet, flow, key, rel uint64, class int32) {
	c := r.stream[r.pos]
	p = r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	p.Flow, p.Rank, p.SendAt, p.Class = c.flow, c.rank, c.sendAt, c.class
	rel = r.rawKey(c) - r.minKey
	key = rel
	if r.bySend {
		key += r.pass * r.span
	}
	if r.pos++; r.pos == len(r.stream) {
		r.pos = 0
		r.pass++
	}
	return p, c.flow, key, rel, c.class
}

// gran returns the bucket width that spreads one pass over n buckets.
func (r *replay) gran(n int) uint64 { return max(1, r.span/uint64(n)) }

// layerTimer accumulates one call site's time and work.
type layerTimer struct {
	ns    int64
	units uint64
}

func (t *layerTimer) add(t0, t1 int64, units int) {
	t.ns += t1 - t0
	t.units += uint64(units)
}

func (t *layerTimer) per() float64 {
	if t.units == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.units)
}

// runLayerReplays runs every replay over the stream and adds the
// per-layer metrics to m.
func runLayerReplays(r *replay, m map[string]float64) error {
	replayShardq(r, m)
	replayVecSched(r, m)
	replayCFFS(r, m)
	if err := replayPIFO(r, m); err != nil {
		return err
	}
	return replayHierSched(r, m)
}

// replayShardq drives shardq.New with a Producer: stage (Producer.Enqueue),
// publish (Producer.Flush), flush (GroupFlush), min rank (MinRank) and
// drain (GroupDequeueBatch), one batch at a time.
func replayShardq(r *replay, m map[string]float64) {
	r.reset()
	q := shardq.New(shardq.Options{
		Kind:  queue.KindCFFS,
		Queue: queue.Config{NumBuckets: 4096, Granularity: r.gran(4096), Start: 0},
	})
	prod := q.NewProducer(0)
	out := make([]*shardq.Node, batchSize)
	var stage, publish, flush, deq, minRank layerTimer
	queued := 0
	for end := nanotime() + r.budget; nanotime() < end; {
		t0 := nanotime()
		for i := 0; i < batchSize; i++ {
			p, flow, key, _, _ := r.next()
			prod.Enqueue(flow, &p.SchedNode, key)
		}
		t1 := nanotime()
		prod.Flush()
		t2 := nanotime()
		q.GroupFlush(0)
		t3 := nanotime()
		q.MinRank()
		t4 := nanotime()
		stage.add(t0, t1, batchSize)
		publish.add(t1, t2, batchSize)
		flush.add(t2, t3, batchSize)
		minRank.add(t3, t4, 1)
		queued += batchSize
		for queued > r.backlog {
			t5 := nanotime()
			n := q.GroupDequeueBatch(0, ^uint64(0), out)
			t6 := nanotime()
			deq.add(t5, t6, n)
			for _, nd := range out[:n] {
				r.free = append(r.free, pkt.FromSchedNode(nd))
			}
			queued -= n
		}
	}
	m["shardq.stage.ns_per_pkt"] = stage.per()
	m["shardq.publish.ns_per_pkt"] = publish.per()
	m["shardq.flush.ns_per_pkt"] = flush.per()
	m["shardq.dequeue.ns_per_pkt"] = deq.per()
	m["shardq.min_rank.ns_per_call"] = minRank.per()
}

// replayVecSched drives the shaped runtime's exact priority backend
// (shardq.NewVecSched) with whole batches, as a shard flush does.
func replayVecSched(r *replay, m map[string]float64) {
	r.reset()
	const buckets = 4096
	s := shardq.NewVecSched(queue.Config{NumBuckets: buckets, Granularity: max(1, r.span/(2*buckets))})
	ns := make([]*shardq.Node, batchSize)
	ranks := make([]uint64, batchSize)
	out := make([]*shardq.Node, batchSize)
	var enq, deq layerTimer
	queued := 0
	for end := nanotime() + r.budget; nanotime() < end; {
		for i := range ns {
			p, _, _, rel, _ := r.next()
			ns[i], ranks[i] = &p.SchedNode, rel
		}
		t0 := nanotime()
		s.EnqueueBatch(ns, ranks)
		t1 := nanotime()
		enq.add(t0, t1, batchSize)
		queued += batchSize
		for queued > r.backlog {
			t2 := nanotime()
			n := s.DequeueBatch(^uint64(0), out)
			t3 := nanotime()
			deq.add(t2, t3, n)
			for _, nd := range out[:n] {
				r.free = append(r.free, pkt.FromSchedNode(nd))
			}
			queued -= n
		}
	}
	m["shardq.vecsched.enqueue.ns_per_pkt"] = enq.per()
	m["shardq.vecsched.dequeue.ns_per_pkt"] = deq.per()
}

// replayCFFS drives one cFFS through the queue.PQ contract
// (queue.New(KindCFFS)), one element per call.
func replayCFFS(r *replay, m map[string]float64) {
	r.reset()
	q := queue.New(queue.KindCFFS, queue.Config{NumBuckets: shaperBuckets, Granularity: r.gran(shaperBuckets)})
	var enq, deq layerTimer
	for end := nanotime() + r.budget; nanotime() < end; {
		t0 := nanotime()
		for i := 0; i < batchSize; i++ {
			p, _, key, _, _ := r.next()
			q.Enqueue(&p.TimerNode, key)
		}
		t1 := nanotime()
		enq.add(t0, t1, batchSize)
		for q.Len() > r.backlog {
			t2 := nanotime()
			k := 0
			for ; k < batchSize && q.Len() > 0; k++ {
				r.free = append(r.free, pkt.FromTimerNode(q.DequeueMin()))
			}
			t3 := nanotime()
			deq.add(t2, t3, k)
		}
	}
	m["ffsq.cffs.enqueue.ns_per_pkt"] = enq.per()
	m["ffsq.cffs.dequeue.ns_per_pkt"] = deq.per()
}

// replayPIFO compiles the pFabric program (pifo.Compile) and drives its
// flow leaf through direct ranked service, the path PolicySharded takes
// for it, with the stream's keys as ranks.
func replayPIFO(r *replay, m map[string]float64) error {
	r.reset()
	_, classes, err := pifo.Compile(qdisc.PolicySpecPFabric, policy.Registry{})
	if err != nil {
		return fmt.Errorf("pifo replay: %w", err)
	}
	leaf := classes["pf"]
	var enq, deq layerTimer
	queued := 0
	now := int64(0)
	for end := nanotime() + r.budget; nanotime() < end; {
		t0 := nanotime()
		for i := 0; i < batchSize; i++ {
			p, flow, _, rel, _ := r.next()
			leaf.DirectEnqueue(p, flow, rel, now)
		}
		t1 := nanotime()
		enq.add(t0, t1, batchSize)
		queued += batchSize
		for queued > r.backlog {
			t2 := nanotime()
			k := 0
			for ; k < batchSize; k++ {
				p := leaf.DirectDequeue(now)
				if p == nil {
					break
				}
				r.free = append(r.free, p)
			}
			t3 := nanotime()
			deq.add(t2, t3, k)
			queued -= k
		}
		now++
	}
	m["pifo.enqueue.ns_per_pkt"] = enq.per()
	m["pifo.dequeue.ns_per_pkt"] = deq.per()
	return nil
}

// replayHierSched drives one per-shard hClock backend
// (shardq.NewHierSched) over the benchmark's tenant table, its clock
// advancing one line-rate packet time per packet served. Packets map to
// tenants by Class on the hclock stream and by flow elsewhere.
func replayHierSched(r *replay, m map[string]float64) error {
	r.reset()
	h, err := shardq.NewHierSched(shardq.HierSpec{Tenants: hcTenants, Backend: hclock.BackendEiffel})
	if err != nil {
		return fmt.Errorf("hiersched replay: %w", err)
	}
	nt := uint64(len(hcTenants))
	ns := make([]*shardq.Node, batchSize)
	ranks := make([]uint64, batchSize)
	aux := make([]uint64, batchSize)
	out := make([]*shardq.Node, batchSize)
	var enq, deq layerTimer
	queued := 0
	now := int64(1)
	h.SetNow(now)
	for end := nanotime() + r.budget; nanotime() < end; {
		for i := range ns {
			p, flow, _, _, class := r.next()
			ns[i], ranks[i], aux[i] = &p.SchedNode, 0, flow%nt
			if r.byClass {
				aux[i] = uint64(class)
			}
		}
		t0 := nanotime()
		h.EnqueueBatchAux(ns, ranks, aux)
		t1 := nanotime()
		enq.add(t0, t1, batchSize)
		queued += batchSize
		for queued > r.backlog {
			t2 := nanotime()
			n := h.DequeueBatch(^uint64(0), out)
			t3 := nanotime()
			deq.add(t2, t3, n)
			for _, nd := range out[:n] {
				r.free = append(r.free, pkt.FromSchedNode(nd))
			}
			queued -= n
			now += int64(max(n, 1)) * linePktNs
			if n == 0 {
				if t, ok := h.NextEvent(); ok && t > now {
					now = t
				}
			}
			h.SetNow(now)
		}
	}
	m["shardq.hiersched.enqueue.ns_per_pkt"] = enq.per()
	m["shardq.hiersched.dequeue.ns_per_pkt"] = deq.per()
	return nil
}
