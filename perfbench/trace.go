package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// Span names. A root is one loop iteration that offered or served
// packets, or one stretch of waiting; the other spans sit around one call
// of the benchmark into a layer, or around the generator and the sink.
const (
	spanIter      = iota // loop iteration that did work (root)
	spanGenerate         // generator stamping a batch
	spanEnqueue          // qdisc EnqueueBatch
	spanNextTimer        // qdisc NextTimer
	spanDequeue          // qdisc DequeueBatch
	spanSink             // sink Tx: output checks and packet return
	spanWait             // waiting for a timer or for work (root)
	numSpans
)

var spanNames = [numSpans]string{"iter", "generate", "enqueue", "next_timer", "dequeue", "sink", "wait"}

// span is one traced interval. Parent indexes the same recorder (-1 for
// a root); batch is the number of the loop iteration that made it.
type span struct {
	start, end int64
	parent     int32
	batch      uint32
	n          uint32 // packets the call carried
	name       uint8
}

// recorder keeps the run's spans in memory. It is only reached through a
// nil check, so the untraced run pays one branch per call site.
type recorder struct {
	spans   []span
	dropped uint64
}

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index, or -1 once the
// buffer is full (later spans are counted, not kept).
func (r *recorder) add(name uint8, parent int32, batch uint32, n int, start, end int64) int32 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{start: start, end: end, parent: parent, batch: batch, n: uint32(n), name: name})
	return int32(len(r.spans) - 1)
}

// spanTotals aggregates one recorder's spans per name.
type spanTotals struct {
	self  [numSpans]int64  // duration minus the part child spans cover
	total [numSpans]int64  // duration
	calls [numSpans]uint64 // spans
	pkts  [numSpans]uint64 // packets carried
}

// totals computes self times: a span's duration minus its children's
// (the children of a span never overlap).
func (r *recorder) totals() spanTotals {
	var t spanTotals
	for _, s := range r.spans {
		d := s.end - s.start
		t.self[s.name] += d
		t.total[s.name] += d
		t.calls[s.name]++
		t.pkts[s.name] += uint64(s.n)
		if s.parent >= 0 {
			t.self[r.spans[s.parent].name] -= d
		}
	}
	return t
}

// dumpSpans writes the spans as CSV, one line per span.
func dumpSpans(path string, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,parent,batch,packets,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", spanNames[s.name], s.parent, s.batch, s.n, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
