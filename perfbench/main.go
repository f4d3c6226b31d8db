// Command perfbench is the repository's benchmark: it runs one workload
// against a public front of internal/qdisc for a fixed time, checks every
// delivered packet against a model built from its own generated input,
// and prints every metric by name with its unit. With -trace 1 it instead
// reports per-layer numbers: spans around each call it makes into the
// front, and replays of the same offered stream through the layers the
// front hides.
//
//	go run . -workload pace-40k -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run
// record (machine, Go runtime, GC and front counters). A failed output
// check prints the result with correct=false, names the check on standard
// error and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

const (
	setupReps  = 81
	warmNs     = int64(1e9)
	segNs      = int64(20e6)
	drainLimit = int64(20e9)
)

func main() {
	name := flag.String("workload", "", "workload name: pace-40k, shaped-bulk, pfabric-bulk or hclock-tenants")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	code, err := run(def, *seed, int64(*seconds)*1e9, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(def *workloadDef, seed, ns int64, traced bool, spanDir string) (int, error) {
	// Set up several times and keep the last instance: setup_s is the
	// median, so one slow set-up does not move it. The collector is off
	// while setting up (and run between set-ups), so the time is the
	// construction work, not a GC cycle that a small heap happened to
	// trigger.
	var e *env
	setups := make([]float64, setupReps)
	gcPercent := debug.SetGCPercent(-1)
	for i := range setups {
		e = nil
		runtime.GC()
		t0 := nanotime()
		var err error
		if e, err = def.setup(seed); err != nil {
			return 1, err
		}
		setups[i] = float64(nanotime()-t0) / 1e9
	}
	debug.SetGCPercent(gcPercent)
	runtime.GC()

	// The untraced run measures --seconds in 20 ms segments and reports
	// medians over them: a stall of the machine spoils the few segments
	// it falls in, not the result. Segments are short so that stalls of a
	// millisecond every few hundred milliseconds (1000 late packets at
	// 1 Mpps, enough to move a segment's p99) still leave most segments
	// clean. The traced run measures 30% of the time untraced, 30%
	// traced, and spends the rest on the layer replays.
	segs := int(ns / segNs)
	o := runOpts{warm: warmNs, segLen: segNs, segs: segs, drainLimit: drainLimit}
	if traced {
		o.segs, o.tracedSegs = segs*3/10, segs*3/10
	}
	res := e.run(o, traced)

	v := res.chk.verdict(res.offered)
	if res.residual != 0 {
		v.fire(checkResidual, uint64(res.residual))
	}
	layer := map[string]float64{}
	if e.finish != nil {
		e.finish(&v, layer)
	}

	rec := runRecord(def.name, seed, e, res, v)
	rec["setup_s_each"] = setups
	for k, x := range layer {
		if strings.HasPrefix(k, "hclock.tenant") {
			rec[k] = x
		}
	}
	if traced {
		if err := tracedMetrics(e, res, ns, layer); err != nil {
			return 1, err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.csv", def.name, seed))
		if err := dumpSpans(path, res.rec); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
		rec["spans_file"] = path
		rec["spans_dropped"] = res.rec.dropped
	}
	out := result{Correct: v.ok(), Attempted: res.offered, Failed: v.failed, Metrics: map[string]metric{}}
	if traced {
		for _, pm := range perLayerMetrics {
			out.Metrics[pm.name] = metric{layer[pm.name], pm.unit}
		}
	} else {
		for k, m := range endToEnd(res, setups) {
			out.Metrics[k] = m
		}
	}
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return 1, err
	}
	if err := enc.Encode(out); err != nil {
		return 1, err
	}
	if err := w.Flush(); err != nil {
		return 1, err
	}
	if !v.ok() {
		return 1, fmt.Errorf("output check failed: %s", v)
	}
	return 0, nil
}

// endToEnd computes the untraced run's metrics: medians over segments.
func endToEnd(res *runResult, setups []float64) map[string]metric {
	var mpps, busy, p50, p99 []float64
	for _, s := range res.segs {
		if s.delivered == 0 {
			continue
		}
		mpps = append(mpps, float64(s.delivered)*1e3/float64(s.dur))
		busy = append(busy, float64(s.busy)/float64(s.delivered))
		p50 = append(p50, s.p50)
		p99 = append(p99, s.p99)
	}
	return map[string]metric{
		"mpps":               {median(mpps), "Mpps"},
		"busy_ns_per_pkt":    {median(busy), "ns"},
		"release_err_p50_us": {median(p50), "us"},
		"release_err_p99_us": {median(p99), "us"},
		"setup_s":            {median(setups), "s"},
		"peak_rss_mb":        {peakRSSMB(), "MB"},
	}
}

// perLayerMetrics lists the traced run's metrics in print order.
var perLayerMetrics = []struct{ name, unit string }{
	{"qdisc.enqueue.ns_per_pkt", "ns"},
	{"qdisc.dequeue.ns_per_pkt", "ns"},
	{"qdisc.dequeue.pkts_per_call", "pkts"},
	{"qdisc.dequeue.empty_ratio", "ratio"},
	{"qdisc.next_timer.ns_per_call", "ns"},
	{"qdisc.next_timer.calls_per_pkt", "ratio"},
	{"qdisc.allocs_per_pkt", "allocs"},
	{"qdisc.flows_live", "count"},
	{"qdisc.flows_evicted", "count"},
	{"shardq.stage.ns_per_pkt", "ns"},
	{"shardq.publish.ns_per_pkt", "ns"},
	{"shardq.flush.ns_per_pkt", "ns"},
	{"shardq.dequeue.ns_per_pkt", "ns"},
	{"shardq.min_rank.ns_per_call", "ns"},
	{"shardq.claim_amortization", "pkts"},
	{"shardq.ringfull_ratio", "ratio"},
	{"shardq.avg_drain_batch", "pkts"},
	{"shardq.migrated_ratio", "ratio"},
	{"shardq.vecsched.enqueue.ns_per_pkt", "ns"},
	{"shardq.vecsched.dequeue.ns_per_pkt", "ns"},
	{"ffsq.cffs.enqueue.ns_per_pkt", "ns"},
	{"ffsq.cffs.dequeue.ns_per_pkt", "ns"},
	{"pifo.enqueue.ns_per_pkt", "ns"},
	{"pifo.dequeue.ns_per_pkt", "ns"},
	{"shardq.hiersched.enqueue.ns_per_pkt", "ns"},
	{"shardq.hiersched.dequeue.ns_per_pkt", "ns"},
	{"hclock.share_err", "ratio"},
	{"hclock.res_violations", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"harness.gen_lag_p99_us", "us"},
	{"harness.sink.ns_per_pkt", "ns"},
	{"trace.e2e_ns_per_pkt", "ns"},
	{"trace.stage_sum_ns_per_pkt", "ns"},
	{"trace.unattributed_ns_per_pkt", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics fills the per-layer metrics of a traced run: span self
// times of the traced segments, front counters, and the layer replays.
func tracedMetrics(e *env, res *runResult, ns int64, m map[string]float64) error {
	t := res.rec.totals()
	per := func(name int) float64 {
		return ratio(float64(t.self[name]), float64(t.pkts[name]))
	}
	m["qdisc.enqueue.ns_per_pkt"] = per(spanEnqueue)
	m["qdisc.dequeue.ns_per_pkt"] = per(spanDequeue)
	m["qdisc.next_timer.ns_per_call"] = ratio(float64(t.self[spanNextTimer]), float64(t.calls[spanNextTimer]))
	m["harness.sink.ns_per_pkt"] = per(spanSink)

	var deliv, dq, empty, nt, offered float64
	var activeT, activeU, delivU float64
	for _, s := range res.traced {
		deliv += float64(s.delivered)
		offered += float64(s.offered)
		dq += float64(s.dqCalls)
		empty += float64(s.empty)
		nt += float64(s.ntCalls)
		activeT += float64(s.active)
	}
	for _, s := range res.segs {
		activeU += float64(s.active)
		delivU += float64(s.delivered)
		offered += float64(s.offered)
	}
	m["qdisc.dequeue.pkts_per_call"] = ratio(deliv, dq)
	m["qdisc.dequeue.empty_ratio"] = ratio(empty, dq)
	m["qdisc.next_timer.calls_per_pkt"] = ratio(nt, deliv)
	m["trace.overhead_ratio"] = ratio(ratio(activeT, deliv), ratio(activeU, delivU))

	// Stage reconciliation: each root span runs from one loop top to the
	// next and carries the packets its iteration delivered, so its self
	// time is the loop's own overhead (tracing included); the stages are
	// the spans inside it.
	e2e := ratio(float64(t.total[spanIter]), float64(t.pkts[spanIter]))
	stages := ratio(float64(t.self[spanGenerate]+t.self[spanEnqueue]+t.self[spanNextTimer]+t.self[spanDequeue]+t.self[spanSink]), float64(t.pkts[spanIter]))
	m["trace.e2e_ns_per_pkt"] = e2e
	m["trace.stage_sum_ns_per_pkt"] = stages
	m["trace.unattributed_ns_per_pkt"] = e2e - stages

	m["qdisc.allocs_per_pkt"] = ratio(float64(res.mallocs), float64(res.measDeliv))
	m["go.gc_cycles"] = float64(res.gcCycles)
	m["go.gc_pause_ms"] = float64(res.gcPauseNs) / 1e6
	m["harness.gen_lag_p99_us"] = res.lag.quantile(0.99) / 1e3

	st := res.statsDelta
	m["shardq.claim_amortization"] = ratio(float64(st.BulkClaimed), float64(st.BulkClaims))
	m["shardq.ringfull_ratio"] = ratio(float64(st.RingFull), offered)
	m["shardq.avg_drain_batch"] = ratio(float64(st.Batched), float64(st.Batches))
	m["shardq.migrated_ratio"] = ratio(float64(st.Migrated), deliv+delivU)

	backlog := len(e.packets)
	if e.open {
		backlog = paceFlows
	}
	budget := ns * 4 / 10 / 5
	return runLayerReplays(newReplay(res.captured, e.open || e.tenants, e.tenants, backlog, budget), m)
}

// runRecord describes the run and the machine, so every number travels
// with the counters that explain it.
func runRecord(name string, seed int64, e *env, res *runResult, v verdict) map[string]any {
	var deliv, samples uint64
	var segMpps, segBusy, segP50, segP99 []float64
	for _, s := range res.segs {
		deliv += s.delivered
		samples += s.samples
		segMpps = append(segMpps, float64(s.delivered)*1e3/float64(s.dur))
		segBusy = append(segBusy, ratio(float64(s.busy), float64(s.delivered)))
		segP50 = append(segP50, s.p50)
		segP99 = append(segP99, s.p99)
	}
	loop := "closed"
	if e.open {
		loop = "open"
	}
	return map[string]any{
		"workload":            name,
		"seed":                seed,
		"loop":                loop,
		"window_pkts":         len(e.packets),
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go_version":          runtime.Version(),
		"cpu_model":           cpuModel(),
		"offered":             res.offered,
		"measured_delivered":  deliv,
		"release_err_samples": samples,
		"generator_stalls":    res.stalls,
		"gc_cycles":           res.gcCycles,
		"gc_pause_ms":         float64(res.gcPauseNs) / 1e6,
		"allocs_per_pkt":      ratio(float64(res.mallocs), float64(res.measDeliv)),
		"shardq_snapshot":     res.statsDelta,
		"checks":              v.String(),
		"segment_mpps":        segMpps,
		"segment_busy_ns":     segBusy,
		"segment_p50_us":      segP50,
		"segment_p99_us":      segP99,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
