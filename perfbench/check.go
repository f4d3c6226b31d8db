package main

import (
	"fmt"
	"sort"
	"strings"

	"eiffel/internal/pkt"
)

// Names of the output checks. A failed run names every check that fired.
const (
	checkConservation = "conservation"
	checkDuplicate    = "duplicate"
	checkFlowOrder    = "flow-order"
	checkEarly        = "early-release"
	checkResidual     = "residual-backlog"
	checkShare        = "hclock-share"
	checkReservation  = "hclock-reservation"
)

// checker is the model every delivered packet is judged against. The
// producer stamps each offered packet with a unique nonzero ID, its
// flow's next sequence number and its earliest permitted release
// (SendAt); the checker, fed every delivery in order, expects each flow's
// sequence numbers in offer order, no packet twice, and no release more
// than one shaper granule before SendAt. Conservation is judged at the
// end against the producer's offered count.
type checker struct {
	granule int64    // shaper quantization a release may precede SendAt by
	next    []uint32 // per flow: sequence number expected next

	delivered uint64 // deliveries, duplicates included
	dup       uint64 // packets delivered a second time
	order     uint64 // packets delivered after a later packet of their flow
	early     uint64 // packets released more than one granule early
}

func newChecker(granule int64) *checker { return &checker{granule: granule} }

// deliver judges one released packet at transmit time tx and marks it
// delivered (ID 0) so a second release of the same offer is caught.
func (c *checker) deliver(p *pkt.Packet, tx int64) {
	c.delivered++
	if p.ID == 0 {
		c.dup++
		return
	}
	p.ID = 0
	f := p.Flow
	for f >= uint64(len(c.next)) {
		c.next = append(c.next, make([]uint32, len(c.next)+1)...)
	}
	switch {
	case p.Seq == c.next[f]:
		c.next[f]++
	case p.Seq > c.next[f]:
		// Earlier packets of the flow are still out: they count when
		// they arrive (order) or at the end (conservation).
		c.next[f] = p.Seq + 1
	default:
		c.order++
	}
	if tx < p.SendAt-c.granule {
		c.early++
	}
}

// verdict is the outcome of a run's output checks.
type verdict struct {
	failed uint64            // packets that failed a check
	fired  map[string]uint64 // check name -> count
}

// verdict closes the packet checks against the offered count: lost
// packets are offers never delivered (exact conservation).
func (c *checker) verdict(offered uint64) verdict {
	v := verdict{fired: map[string]uint64{}}
	unique := c.delivered - c.dup
	if unique != offered {
		lost := uint64(0)
		if offered > unique {
			lost = offered - unique
		}
		v.fire(checkConservation, max(lost, 1))
	}
	v.fire(checkDuplicate, c.dup)
	v.fire(checkFlowOrder, c.order)
	v.fire(checkEarly, c.early)
	return v
}

// fire records n failures of check name (n = 0 is a pass).
func (v *verdict) fire(name string, n uint64) {
	if n == 0 {
		return
	}
	v.fired[name] += n
	v.failed += n
}

func (v verdict) ok() bool { return len(v.fired) == 0 }

func (v verdict) String() string {
	names := make([]string, 0, len(v.fired))
	for k := range v.fired {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, v.fired[k])
	}
	return strings.Join(parts, " ")
}
