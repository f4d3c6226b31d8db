package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"eiffel/internal/pkt"
)

const testGranule = 50_000

// stream offers n packets of one flow, SendAt 1000 ns apart, stamped the
// way the producer stamps them.
func stream(n int) []*pkt.Packet {
	ps := newPackets(n)
	for i, p := range ps {
		p.ID, p.Flow, p.Seq, p.SendAt = uint64(i+1), 7, uint32(i), int64(1_000_000+1000*i)
	}
	return ps
}

// judge delivers ps in order, each at its SendAt plus lateness, and
// returns the verdict against offered.
func judge(ps []*pkt.Packet, offered int, lateness int64) verdict {
	c := newChecker(testGranule)
	for _, p := range ps {
		c.deliver(p, p.SendAt+lateness)
	}
	return c.verdict(uint64(offered))
}

func TestCheckerPassesCleanStream(t *testing.T) {
	ps := stream(4)
	// Up to one granule early is the documented cFFS quantization.
	if v := judge(ps, 4, -testGranule); !v.ok() {
		t.Fatalf("clean stream failed: %s", v)
	}
}

func TestCheckerFiresOnCorruptStreams(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]*pkt.Packet) ([]*pkt.Packet, int64)
		want    string
	}{
		{"duplicate", func(ps []*pkt.Packet) ([]*pkt.Packet, int64) {
			return []*pkt.Packet{ps[0], ps[1], ps[1], ps[2], ps[3]}, 0
		}, checkDuplicate},
		{"lost packet", func(ps []*pkt.Packet) ([]*pkt.Packet, int64) {
			return []*pkt.Packet{ps[0], ps[1], ps[3]}, 0
		}, checkConservation},
		{"reordered flow", func(ps []*pkt.Packet) ([]*pkt.Packet, int64) {
			return []*pkt.Packet{ps[0], ps[2], ps[1], ps[3]}, 0
		}, checkFlowOrder},
		{"early release", func(ps []*pkt.Packet) ([]*pkt.Packet, int64) {
			return ps, -testGranule - 1
		}, checkEarly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps, lateness := tc.corrupt(stream(4))
			v := judge(ps, 4, lateness)
			if v.ok() || v.fired[tc.want] == 0 {
				t.Fatalf("check %q did not fire: %q", tc.want, v)
			}
			if v.failed == 0 {
				t.Fatalf("no failed packets counted: %q", v)
			}
		})
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
}

func TestIdealSharesHonourReservationsAndLimits(t *testing.T) {
	s := hcIdealShares(hcTenants, lineBps)
	sum := 0.0
	for i, t0 := range hcTenants {
		sum += s[i]
		bps := s[i] * lineBps
		if t0.ResBps > 0 && bps < float64(t0.ResBps)*(1-1e-9) {
			t.Errorf("tenant %d gets %.0f b/s below its reservation", i, bps)
		}
		if t0.LimitBps > 0 && bps > float64(t0.LimitBps)*(1+1e-9) {
			t.Errorf("tenant %d gets %.0f b/s above its limit", i, bps)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units
// identical to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&runResult{}, []float64{1})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("end-to-end: program prints %d metrics, BENCHMARK.json declares %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(perLayerMetrics) != len(spec.PerLayer) {
		t.Fatalf("per-layer: program prints %d metrics, BENCHMARK.json declares %d", len(perLayerMetrics), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if p := perLayerMetrics[i]; p.name != m.Name || p.unit != m.Unit {
			t.Errorf("per-layer %d: program prints %s [%s], BENCHMARK.json declares %s [%s]", i, p.name, p.unit, m.Name, m.Unit)
		}
	}
}
