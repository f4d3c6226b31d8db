package main

import (
	"runtime"

	"eiffel/internal/pkt"
	"eiffel/internal/shardq"
)

// front is the public surface every qdisc front under test shares.
type front interface {
	EnqueueBatch(ps []*pkt.Packet, now int64)
	DequeueBatch(now int64, out []*pkt.Packet) int
	NextTimer(now int64) (int64, bool)
	Len() int
	Stats() shardq.Snapshot
}

// generator makes a workload's offered packets from its seed.
type generator interface {
	// due returns the earliest time the next packet may be offered; a
	// closed loop returns 0 (whenever the window has room).
	due() int64
	// fill stamps p as the next offered packet at time now (the qdisc's
	// clock: real, or the virtual line clock): Flow, Seq, SendAt, Rank,
	// Class and Size. ID is stamped by the producer.
	fill(p *pkt.Packet, now int64)
}

// env is one set-up workload instance, ready to run once.
type env struct {
	q       front
	gen     generator
	packets []*pkt.Packet // every packet of the run; all start free
	open    bool          // open loop on the real clock
	granule int64         // shaper granule a release may precede SendAt by
	lineNs  int64         // >0: the qdisc sees a virtual clock advancing lineNs per packet
	tenants bool          // a packet's Class is its hClock tenant

	// Optional workload hooks.
	epoch   func()                                             // every epochEvery dequeue calls, e.g. PolicySharded.AdvanceFlowEpoch
	observe func(ps []*pkt.Packet, vnow int64, measuring bool) // batch delivered
	offer   func(ps []*pkt.Packet)                             // batch enqueued
	measure func(vnow int64)                                   // measurement window opens
	atStop  func()                                             // measurement window closes
	finish  func(v *verdict, m map[string]float64)             // extra checks and counters
}

// epochEvery is the env.epoch cadence, in dequeue calls.
const epochEvery = 64

// openBatchWait is how long an open loop lets its earliest due packet
// wait before offering: at 1 Mpps that gathers a batch of about
// batchSize packets. Packets are offered a whole pacing period ahead of
// their SendAt, so the wait does not make them late.
const openBatchWait = 64_000

// Run phases.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseTraced
	phaseStop
)

// segment is one measured slice of a run.
type segment struct {
	dur       int64
	delivered uint64
	offered   uint64
	busy      int64 // inside qdisc calls
	active    int64 // in loop iterations that offered or served packets
	ntCalls   uint64
	dqCalls   uint64
	empty     uint64
	samples   uint64  // release-error samples
	p50, p99  float64 // release-error percentiles, µs
}

// capture is one offered packet's keys, kept for the layer replays.
type capture struct {
	flow, rank uint64
	sendAt     int64
	class      int32
}

// runOpts sizes a run's phases.
type runOpts struct {
	warm       int64
	segLen     int64
	segs       int
	tracedSegs int
	drainLimit int64
}

// runResult is what a run measured.
type runResult struct {
	segs, traced []segment
	offered      uint64
	chk          *checker
	stalls       uint64
	lag          *hist
	gcCycles     uint32
	gcPauseNs    uint64
	mallocs      uint64
	measDeliv    uint64
	statsDelta   shardq.Snapshot
	residual     int
	rec          *recorder
	captured     []capture
}

// fifo is the free part of the window. Delivered packets join the back
// and the producer takes from the front, so packets are reused in the
// order they came back and no packet (in the hclock loop: no flow) waits
// behind newer ones.
type fifo struct {
	buf  []*pkt.Packet
	head int
}

func newFifo(ps []*pkt.Packet) *fifo {
	f := &fifo{buf: make([]*pkt.Packet, 0, 2*len(ps))}
	f.push(ps)
	return f
}

func (f *fifo) len() int { return len(f.buf) - f.head }

func (f *fifo) front() *pkt.Packet { return f.buf[f.head] }

func (f *fifo) pop() *pkt.Packet {
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	return p
}

func (f *fifo) push(ps []*pkt.Packet) {
	if len(f.buf)+len(ps) > cap(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, ps...)
}

// run drives the workload from one goroutine. Each loop iteration first
// offers every batch the generator has ready (a closed loop: every free
// batch of the window; an open loop: the packets due, once the earliest
// has waited openBatchWait), then arms at NextTimer and, when the timer
// is due, calls DequeueBatch once, checks every delivered packet and
// returns it to the free list. With nothing to do, an open loop spins to
// its next deadline. The loop also drives the run's phases: warm-up,
// measured segments, traced segments, and the unmeasured drain.
func (e *env) run(o runOpts, traced bool) *runResult {
	res := &runResult{chk: newChecker(e.granule), lag: newHist()}
	if traced {
		res.rec = newRecorder(1 << 18)
		res.captured = make([]capture, 0, 1<<16)
	}
	free := newFifo(e.packets)
	batch := make([]*pkt.Packet, batchSize)
	out := make([]*pkt.Packet, batchSize)
	chk := res.chk
	var rec *recorder
	var iter uint32
	var id uint64
	var ms runtime.MemStats
	var gc0 uint32
	var pause0, malloc0, deliv0 uint64
	var stats0 shardq.Snapshot

	start := nanotime()
	vnow := start
	phase := phaseWarm
	phaseEnd := start + o.warm
	segsLeft := o.segs
	var cur, at0 segment // the open segment's counts, and the totals when it opened
	var curStart int64
	var busy, active int64 // cumulative
	var delivered, offered, dqCalls uint64
	stopAt := int64(0)

	errs := newHist() // |tx - SendAt| of the open segment
	measuring := false
	openSeg := func(now int64) {
		cur = segment{}
		at0 = segment{delivered: delivered, offered: offered, busy: busy, active: active}
		errs.reset()
		measuring = true
		curStart = now
	}
	closeSeg := func(now int64) segment {
		s := cur
		s.dur = now - curStart
		s.delivered = delivered - at0.delivered
		s.offered = offered - at0.offered
		s.busy = busy - at0.busy
		s.active = active - at0.active
		s.samples, s.p50, s.p99 = errs.n, errs.quantile(0.50)/1e3, errs.quantile(0.99)/1e3
		return s
	}
	waitStart := int64(-1)
	prevTop, worked := int64(0), false
	root := int32(-1) // this iteration's root span, ended at the next loop top
	for {
		top := nanotime()
		if worked {
			active += top - prevTop // the whole iteration that did work
			if root >= 0 {
				rec.spans[root].end = top
			}
		}
		worked, root = false, -1
		if top >= phaseEnd && phase != phaseStop {
			switch phase {
			case phaseWarm:
				runtime.ReadMemStats(&ms)
				gc0, pause0, malloc0, deliv0 = ms.NumGC, ms.PauseTotalNs, ms.Mallocs, delivered
				stats0 = e.q.Stats()
				if e.measure != nil {
					e.measure(vnow)
				}
				phase = phaseMeasure
				openSeg(top)
			case phaseMeasure, phaseTraced:
				s := closeSeg(top)
				if phase == phaseMeasure {
					res.segs = append(res.segs, s)
				} else {
					res.traced = append(res.traced, s)
				}
				segsLeft--
				if segsLeft == 0 && phase == phaseMeasure {
					runtime.ReadMemStats(&ms)
					res.gcCycles = ms.NumGC - gc0
					res.gcPauseNs = ms.PauseTotalNs - pause0
					res.mallocs = ms.Mallocs - malloc0
					res.measDeliv = delivered - deliv0
					if o.tracedSegs > 0 {
						phase, segsLeft = phaseTraced, o.tracedSegs
						rec = res.rec
					}
				}
				if segsLeft == 0 {
					phase = phaseStop
					res.statsDelta = statsSub(e.q.Stats(), stats0)
					stopAt = top
					if e.atStop != nil {
						e.atStop()
					}
					measuring = false // the drain is not measured
				} else {
					openSeg(top)
				}
			}
			phaseEnd = top + o.segLen
			top = nanotime()
		}
		prevTop = top

		// Offer every ready batch.
		for phase != phaseStop {
			t0 := nanotime()
			n := 0
			var lagFrom int64
			if e.open {
				if d := e.gen.due(); d+openBatchWait <= t0 {
					lagFrom = d
					for n < batchSize && e.gen.due() <= t0 {
						if free.len() == 0 {
							res.stalls++
							break
						}
						batch[n] = free.pop()
						n++
					}
				}
			} else if free.len() >= batchSize {
				lagFrom = free.front().Arrival // when the oldest free packet came back
				for ; n < batchSize; n++ {
					batch[n] = free.pop()
				}
			}
			if n == 0 {
				break
			}
			now := t0
			if e.lineNs > 0 {
				now = vnow
			}
			for _, p := range batch[:n] {
				e.gen.fill(p, now)
				id++
				p.ID = id
			}
			t1 := nanotime()
			if e.lineNs == 0 {
				now = t1
			}
			e.q.EnqueueBatch(batch[:n], now)
			t2 := nanotime()
			busy += t2 - t1
			offered += uint64(n)
			worked = true
			if phase != phaseWarm {
				res.lag.add(t0 - lagFrom)
			}
			if e.offer != nil {
				e.offer(batch[:n])
			}
			if rec != nil {
				if root < 0 {
					root = rec.add(spanIter, -1, iter, 0, top, t2)
				}
				rec.add(spanGenerate, root, iter, n, t0, t1)
				rec.add(spanEnqueue, root, iter, n, t1, t2)
				for _, p := range batch[:n] {
					if len(res.captured) == cap(res.captured) {
						break
					}
					res.captured = append(res.captured, capture{flow: p.Flow, rank: p.Rank, sendAt: p.SendAt, class: p.Class})
				}
			}
		}

		// Serve one batch if the timer is due.
		t0 := nanotime()
		qnow := t0
		if e.lineNs > 0 {
			qnow = vnow
		}
		t, ok := e.q.NextTimer(qnow)
		t1 := nanotime()
		busy += t1 - t0
		cur.ntCalls++
		if ok && t <= qnow {
			n := e.q.DequeueBatch(qnow, out)
			dqCalls++
			cur.dqCalls++
			if n == 0 {
				cur.empty++
			}
			if e.epoch != nil && dqCalls%epochEvery == 0 {
				e.epoch()
			}
			t3 := nanotime()
			for i, p := range out[:n] {
				tx := t3
				if e.lineNs > 0 {
					tx = vnow + int64(i+1)*e.lineNs // end of the packet's line slot
				}
				if measuring {
					errs.add(tx - p.SendAt)
				}
				chk.deliver(p, tx)
				p.Arrival = t3
			}
			if e.observe != nil {
				e.observe(out[:n], vnow, phase == phaseMeasure)
			}
			free.push(out[:n])
			clear(out[:n])
			t4 := nanotime()
			vnow += int64(n) * e.lineNs
			delivered += uint64(n)
			busy += t3 - t1
			worked = true
			if rec != nil {
				if root < 0 {
					root = rec.add(spanIter, -1, iter, n, top, t4)
				} else {
					rec.spans[root].n = uint32(n)
				}
				rec.add(spanNextTimer, root, iter, 1, t0, t1)
				rec.add(spanDequeue, root, iter, n, t1, t3)
				rec.add(spanSink, root, iter, n, t3, t4)
			}
		} else if ok && e.lineNs > 0 {
			vnow = t // line idle until the next tenant becomes eligible
		}

		if worked {
			if waitStart >= 0 {
				if rec != nil {
					rec.add(spanWait, -1, iter, 0, waitStart, top)
				}
				waitStart = -1
			}
			iter++
			continue
		}
		if phase == phaseStop && (chk.delivered-chk.dup >= offered || t1-stopAt > o.drainLimit) {
			break
		}
		if waitStart < 0 {
			waitStart = top
		}
		if e.open {
			// Nothing else can arm an earlier timer: spin to the next
			// deadline, the timer or the next batch to offer.
			limit := phaseEnd
			if phase == phaseStop {
				limit = stopAt + o.drainLimit
			} else {
				limit = min(limit, e.gen.due()+openBatchWait)
			}
			if ok {
				limit = min(limit, t)
			}
			for nanotime() < limit {
			}
		}
	}
	res.offered = offered
	res.residual = e.q.Len()
	return res
}

func statsSub(a, b shardq.Snapshot) shardq.Snapshot {
	return shardq.Snapshot{
		RingPushes:  a.RingPushes - b.RingPushes,
		RingFull:    a.RingFull - b.RingFull,
		BulkClaims:  a.BulkClaims - b.BulkClaims,
		BulkClaimed: a.BulkClaimed - b.BulkClaimed,
		Flushes:     a.Flushes - b.Flushes,
		Flushed:     a.Flushed - b.Flushed,
		Direct:      a.Direct - b.Direct,
		Migrated:    a.Migrated - b.Migrated,
		Batches:     a.Batches - b.Batches,
		Batched:     a.Batched - b.Batched,
		Rejected:    a.Rejected - b.Rejected,
	}
}
