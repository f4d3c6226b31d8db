package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"eiffel/internal/hclock"
	"eiffel/internal/pkt"
	"eiffel/internal/qdisc"
	"eiffel/internal/queue"
	"eiffel/internal/shardq"
	"eiffel/internal/workload"
)

// workloadDef is one benchmark workload: how to set it up from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64) (*env, error)
}

var workloads = []workloadDef{
	{"pace-40k", setupPace},
	{"shaped-bulk", setupShapedBulk},
	{"pfabric-bulk", setupPFabric},
	{"hclock-tenants", setupHClock},
}

// The paper's shaper configuration (§5.1.1): a circular cFFS of 20,000
// buckets over a 2 s horizon, i.e. a 50µs granule.
const (
	shaperBuckets = 20000
	shaperHorizon = int64(2e9)
	shaperGranule = shaperHorizon / (2 * shaperBuckets)
	pktBytes      = 1500
	batchSize     = 64
)

// hclock-tenants serves a virtual 10 Gb/s line: each delivered packet
// advances the qdisc's clock one packet time.
const (
	lineBps   = 10e9
	linePktNs = pktBytes * 8 * 1e9 / lineBps // 1200 ns per packet
)

// newPackets returns n packets whose intrusive handles point back at
// them, all free.
func newPackets(n int) []*pkt.Packet {
	pool := pkt.NewPool(n)
	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = pool.Get()
	}
	return ps
}

// --- pace-40k: open loop, paced flows through qdisc.Sharded ---

const (
	paceFlows  = 40000
	pacePeriod = int64(40e6) // 25 pps per flow: 40,000 flows make 1 Mpps
)

// paceGen emits every flow's packets one period apart at a seeded phase,
// in global SendAt order. A packet is offered one period ahead of its
// SendAt — when its flow's previous packet is due — so the shaper holds
// about one packet per flow, as with TCP pacing.
type paceGen struct {
	order []uint32 // flows sorted by phase
	phase []int64  // phase of order[i]
	base  int64
	round int64
	i     int
	seq   []uint32
}

func (g *paceGen) sendAt() int64 { return g.base + g.round*pacePeriod + g.phase[g.i] }

func (g *paceGen) due() int64 {
	if g.base == 0 {
		g.base = nanotime()
	}
	return g.sendAt() - pacePeriod
}

func (g *paceGen) fill(p *pkt.Packet, now int64) {
	f := g.order[g.i]
	p.Flow, p.Seq, p.SendAt = uint64(f), g.seq[f], g.sendAt()
	p.Size, p.Rank, p.Class = pktBytes, 0, 0
	g.seq[f]++
	if g.i++; g.i == len(g.order) {
		g.i = 0
		g.round++
	}
}

func setupPace(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &paceGen{order: make([]uint32, paceFlows), phase: make([]int64, paceFlows), seq: make([]uint32, paceFlows)}
	phases := make([]int64, paceFlows)
	for f := range phases {
		phases[f] = rng.Int63n(pacePeriod)
		g.order[f] = uint32(f)
	}
	sort.Slice(g.order, func(i, j int) bool { return phases[g.order[i]] < phases[g.order[j]] })
	for i, f := range g.order {
		g.phase[i] = phases[f]
	}
	q := qdisc.NewSharded(qdisc.ShardedOptions{
		Buckets: shaperBuckets, HorizonNs: shaperHorizon, Start: nanotime(), Batch: batchSize,
	})
	return &env{
		q: q, gen: g, packets: newPackets(1 << 17), open: true,
		granule: shaperGranule,
	}, nil
}

// --- shaped-bulk: closed loop through qdisc.ShapedSharded ---
//
// BENCHMARK.json does not list shaped-bulk: on the current code its runs
// fail the flow-order check (a ring-full fallback lets later packets of
// a flow overtake earlier ones; README.md has the reproduction). It stays
// runnable by name.

const (
	bulkFlows  = 4096
	bulkWindow = 8192
	rankSpan   = 1 << 20
)

// bulkGen picks a seeded random flow per packet; each flow keeps one
// priority drawn uniformly over the rank span, so a flow's packets share
// a scheduler bucket and keep their order while ranks spread over every
// bucket. Every packet is eligible when offered (SendAt = offer time).
type bulkGen struct {
	rng  *rand.Rand
	rank []uint64
	seq  []uint32
}

func (g *bulkGen) due() int64 { return 0 }

func (g *bulkGen) fill(p *pkt.Packet, now int64) {
	f := g.rng.Intn(len(g.rank))
	p.Flow, p.Seq, p.SendAt, p.Rank = uint64(f), g.seq[f], now, g.rank[f]
	p.Size, p.Class = pktBytes, 0
	g.seq[f]++
}

func setupShapedBulk(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &bulkGen{rng: rng, rank: make([]uint64, bulkFlows), seq: make([]uint32, bulkFlows)}
	for f := range g.rank {
		g.rank[f] = uint64(rng.Int63n(rankSpan))
	}
	q := qdisc.NewShapedSharded(qdisc.ShapedShardedOptions{
		ShaperBuckets: shaperBuckets, HorizonNs: shaperHorizon, Start: nanotime(),
		RankSpan: rankSpan, Batch: batchSize,
	})
	return &env{
		q: q, gen: g, packets: newPackets(bulkWindow),
		granule: shaperGranule,
	}, nil
}

// --- pfabric-bulk: closed loop through qdisc.PolicySharded (pFabric) ---

// Four packets in flight per active flow. A 4096-packet window over 1024
// flows measured the same policy work, but its larger working set made
// the throughput swing about twice as much with the load of the shared
// machine it was tuned on.
const (
	pfSlots  = 256
	pfWindow = 1024
)

// pfGen keeps pfSlots flows active, sizes drawn from the web-search
// distribution. Each packet goes to a seeded random active flow and is
// ranked by the flow's remaining bytes; a flow that sent its last packet
// is replaced by a fresh one.
type pfGen struct {
	rng   *rand.Rand
	sizes *workload.SizeDist
	flow  []uint64 // per slot: flow id
	left  []uint64 // per slot: packets still to send
	seq   []uint32 // per flow id
}

func (g *pfGen) due() int64 { return 0 }

func (g *pfGen) start(slot int) {
	g.flow[slot] = uint64(len(g.seq))
	g.seq = append(g.seq, 0)
	g.left[slot] = (g.sizes.Sample(g.rng) + pktBytes - 1) / pktBytes
}

func (g *pfGen) fill(p *pkt.Packet, now int64) {
	s := g.rng.Intn(len(g.flow))
	f := g.flow[s]
	p.Flow, p.Seq, p.SendAt, p.Rank = f, g.seq[f], now, g.left[s]*pktBytes
	p.Size, p.Class = pktBytes, 0
	g.seq[f]++
	if g.left[s]--; g.left[s] == 0 {
		g.start(s)
	}
}

func setupPFabric(seed int64) (*env, error) {
	g := &pfGen{
		rng: rand.New(rand.NewSource(seed)), sizes: workload.NewSizeDist(workload.WebSearchCDF),
		flow: make([]uint64, pfSlots), left: make([]uint64, pfSlots), seq: make([]uint32, 0, 1<<16),
	}
	for s := range g.flow {
		g.start(s)
	}
	q, err := qdisc.NewPolicySharded(qdisc.PolicyShardedOptions{
		Policy: qdisc.PolicySpecPFabric, Batch: batchSize, EvictAfter: 4,
	})
	if err != nil {
		return nil, fmt.Errorf("pfabric front: %w", err)
	}
	var live int
	var evicted uint64
	return &env{
		q: q, gen: g, packets: newPackets(pfWindow), epoch: q.AdvanceFlowEpoch,
		atStop: func() { live, _, evicted = q.FlowStats() },
		finish: func(_ *verdict, m map[string]float64) {
			m["qdisc.flows_live"] = float64(live)
			m["qdisc.flows_evicted"] = float64(evicted)
		},
	}, nil
}

// --- hclock-tenants: closed loop through qdisc.HierSharded ---

const (
	hcFlowsPer   = 64
	hcWindow     = 4096 // packets in flight, split over tenants by ideal share
	hcShareBound = 0.10 // total-variation distance of tenant shares from the ideal
	// hcResGap is the hiersched experiment's starvation window: a due
	// reservation must be served at least once every hcResGap packets.
	hcResGap = 256
)

// hcTenants mixes reservations, limits and weights (rates in bits/s).
var hcTenants = []shardq.HierTenant{
	{ResBps: 1.5e9, Weight: 1},
	{ResBps: 1e9, Weight: 1},
	{ResBps: 0.5e9, Weight: 2},
	{ResBps: 0.5e9, Weight: 1},
	{LimitBps: 0.4e9, Weight: 8},
	{LimitBps: 0.2e9, Weight: 8},
	{LimitBps: 0.8e9, Weight: 4},
	{ResBps: 0.3e9, LimitBps: 0.6e9, Weight: 2},
	{Weight: 1}, {Weight: 1}, {Weight: 2}, {Weight: 2},
	{Weight: 4}, {Weight: 4}, {Weight: 8}, {Weight: 8},
}

// hcIdealShares is the hClock allocation of a line of capacity c among
// always-backlogged tenants: each gets max(reservation, weight*y) capped
// at its limit, with y chosen so the line is exactly full (reservation
// service does not advance share tags, so shares split only what
// reservations leave over).
func hcIdealShares(ts []shardq.HierTenant, c float64) []float64 {
	alloc := func(y float64) ([]float64, float64) {
		a := make([]float64, len(ts))
		sum := 0.0
		for i, t := range ts {
			a[i] = math.Max(float64(t.ResBps), float64(t.Weight)*y)
			if t.LimitBps > 0 {
				a[i] = math.Min(a[i], float64(t.LimitBps))
			}
			sum += a[i]
		}
		return a, sum
	}
	lo, hi := 0.0, c
	for i := 0; i < 200; i++ {
		if _, s := alloc((lo + hi) / 2); s < c {
			lo = (lo + hi) / 2
		} else {
			hi = (lo + hi) / 2
		}
	}
	a, s := alloc(hi)
	for i := range a {
		a[i] /= s
	}
	return a
}

// hcGen re-offers each delivered packet on its own flow (a per-flow
// closed loop), so every tenant stays backlogged and its share is
// decided by the scheduler alone. SendAt is the virtual line clock at
// the offer, so release error is sojourn in line time.
type hcGen struct{ seq []uint32 }

func (g *hcGen) due() int64 { return 0 }

func (g *hcGen) fill(p *pkt.Packet, now int64) {
	p.Seq, p.SendAt, p.Rank, p.Size = g.seq[p.Flow], now, 0, pktBytes
	g.seq[p.Flow]++
}

func setupHClock(seed int64) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	nt := len(hcTenants)
	q, err := qdisc.NewHierSharded(qdisc.HierShardedOptions{
		Spec:  shardq.HierSpec{Tenants: hcTenants, Backend: hclock.BackendEiffel},
		Batch: batchSize,
	})
	if err != nil {
		return nil, fmt.Errorf("hclock front: %w", err)
	}
	// The front splits every tenant's rates evenly over its shards, so
	// each tenant owns the same number of flows on every shard; the seed
	// decides which flows. A flow's shard is the runtime's flow hash
	// (shardq's ShardFor, the same on every runtime with this many shards).
	shards := q.NumShards()
	hash := shardq.New(shardq.Options{NumShards: shards, RingBits: 1, Queue: queue.Config{NumBuckets: 64}})
	perShard := hcFlowsPer / shards
	byShard := make([][]uint64, shards)
	for f, filled := uint64(0), 0; filled < shards; f++ {
		s := hash.ShardFor(f)
		if len(byShard[s]) < nt*perShard {
			if byShard[s] = append(byShard[s], f); len(byShard[s]) == nt*perShard {
				filled++
			}
		}
	}
	maxFlow := uint64(0)
	for _, fs := range byShard {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		maxFlow = max(maxFlow, slices.Max(fs))
	}
	// Each tenant keeps a window proportional to its ideal share, so
	// every tenant's ideal sojourn is the same (hcWindow packets of line
	// time) and the release-error percentiles measure how far service
	// strays from that, not the tenant mix. Its packets go round its
	// flows shard by shard, so every shard holds the same share of them
	// to within one packet.
	ideal := hcIdealShares(hcTenants, lineBps)
	var packets []*pkt.Packet
	for t := range hcTenants {
		n := max(hcFlowsPer, int(math.Round(ideal[t]*hcWindow)))
		for i, p := range newPackets(n) {
			j := i % hcFlowsPer
			p.Flow, p.Class = byShard[j%shards][t*perShard+j/shards], int32(t)
			packets = append(packets, p)
		}
	}
	bytes := make([]float64, nt)
	// Backlog per tenant is offered (counted once EnqueueBatch returned)
	// minus delivered. A reserved tenant starves when it stays backlogged
	// and due — served less than its reservation since measuring began —
	// for more than hcResGap served packets without being served.
	offered := make([]uint64, nt)
	delivered := make([]uint64, nt)
	last := make([]uint64, nt) // per tenant: served count at its last service or idle moment
	tviol := make([]uint64, nt)
	var served, viol uint64
	var v0, v1 int64
	e := &env{
		q: q, gen: &hcGen{seq: make([]uint32, maxFlow+1)}, packets: packets,
		lineNs:  linePktNs,
		tenants: true,
		measure: func(vnow int64) { v0 = vnow },
		offer: func(ps []*pkt.Packet) {
			for _, p := range ps {
				offered[p.Class]++
			}
		},
		observe: func(ps []*pkt.Packet, vnow int64, measuring bool) {
			for _, p := range ps {
				served++
				delivered[p.Class]++
				last[p.Class] = served
				if measuring {
					bytes[p.Class] += float64(p.Size)
				}
			}
			v := vnow + int64(len(ps))*linePktNs
			for i, t := range hcTenants {
				switch {
				case t.ResBps == 0:
				case offered[i] == delivered[i]:
					last[i] = served // idle: nothing to starve
				case !measuring || bytes[i]*8e9 >= float64(t.ResBps)*float64(v-v0):
					last[i] = served // ahead of its reservation: not due
				case served-last[i] > hcResGap:
					viol++
					tviol[i]++
				}
			}
			if measuring {
				v1 = v
			}
		},
		finish: func(v *verdict, m map[string]float64) {
			total := 0.0
			for _, b := range bytes {
				total += b
			}
			tv := 0.0
			for i, b := range bytes {
				tv += math.Abs(b/total-ideal[i]) / 2
			}
			m["hclock.share_err"] = tv
			m["hclock.res_violations"] = float64(viol)
			for i, t := range hcTenants {
				m[fmt.Sprintf("hclock.tenant%02d.share", i)] = bytes[i] / total
				m[fmt.Sprintf("hclock.tenant%02d.ideal", i)] = ideal[i]
				if t.ResBps > 0 {
					m[fmt.Sprintf("hclock.tenant%02d.res_attained", i)] = bytes[i] * 8e9 / float64(v1-v0) / float64(t.ResBps)
					m[fmt.Sprintf("hclock.tenant%02d.res_gap_viol", i)] = float64(tviol[i])
				}
			}
			if !(tv <= hcShareBound) {
				v.fire(checkShare, 1)
			}
			v.fire(checkReservation, viol)
		},
	}
	return e, nil
}
