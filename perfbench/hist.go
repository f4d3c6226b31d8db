package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative nanosecond values: exact
// below 2*subBuckets, then subBuckets buckets per power of two (relative
// bucket width 1/subBuckets). Quantiles interpolate linearly inside the
// bucket, so a percentile moves continuously with the data instead of
// snapping to bucket edges.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	subBits    = 7
	subBuckets = 1 << subBits
)

func newHist() *hist { return &hist{counts: make([]uint64, (64-subBits)*subBuckets+2*subBuckets)} }

func histIndex(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	n := bits.Len64(v)
	shift := n - subBits - 1
	return (shift+1)*subBuckets + int(v>>uint(shift)) - subBuckets
}

// histBounds returns the [lo, hi) value range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < 2*subBuckets {
		return float64(i), float64(i + 1)
	}
	shift := i/subBuckets - 1
	m := i - shift*subBuckets
	lo = float64(uint64(m) << uint(shift))
	return lo, lo + float64(uint64(1)<<uint(shift))
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = -v
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

// quantile returns the q-quantile (0..1) of the recorded values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(len(h.counts) - 1)
	return lo
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
